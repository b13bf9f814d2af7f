"""Network assembly, shape inference, and the reference architecture."""

import numpy as np
import pytest

from fisherprune.bench import time_network
from fisherprune.errors import ConfigurationError, DimensionError
from fisherprune.network import (
    LayerSpec, Network, build_cnn, forward, logits, reference_cnn,
)
from fisherprune.tensor import Tensor


def tiny_net(seed=3):
    return build_cnn((1, 8, 8), [(4, 3, 1, True)], [6], 2, seed=seed)


class TestLayerSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            LayerSpec("batchnorm")

    def test_conv_weight_rank_checked(self):
        with pytest.raises(DimensionError):
            LayerSpec.conv(np.zeros((3, 3, 3)), np.zeros(3))

    def test_bias_length_checked(self):
        with pytest.raises(DimensionError):
            LayerSpec.conv(np.zeros((2, 1, 3, 3)), np.zeros(5))


class TestShapeInference:
    def test_tiny_chain(self):
        net = tiny_net()
        shapes = net.infer_shapes()
        assert shapes[0] == (4, 8, 8)      # conv, pad keeps size
        assert shapes[2] == (4, 4, 4)      # pool halves
        assert shapes[3] == (4 * 4 * 4,)   # flatten
        assert shapes[-1] == (2,)

    def test_error_names_offending_layer(self):
        net = tiny_net()
        net.layers[0].weights = np.zeros((4, 2, 3, 3), dtype=np.float32)
        with pytest.raises(DimensionError, match="layer 0"):
            net.infer_shapes()

    @pytest.mark.parametrize("layer,field,value,message", [
        (2, "window", 0, r"layer 2 \(maxpool\): pool window must be >= 1"),
        (2, "stride", 0, r"layer 2 \(maxpool\): stride must be >= 1"),
        (0, "stride", 0, r"layer 0 \(conv\): stride must be >= 1"),
        (0, "pad", -1, r"layer 0 \(conv\): pad must be >= 0"),
    ])
    def test_invalid_geometry_names_the_layer(self, layer, field, value, message):
        net = tiny_net()
        setattr(net.layers[layer], field, value)
        with pytest.raises(ConfigurationError, match=message):
            net.infer_shapes()

    def test_last_conv_requires_a_conv(self):
        net = Network((4,), [LayerSpec.dense(np.zeros((2, 4)), np.zeros(2))])
        with pytest.raises(ConfigurationError):
            net.last_conv_index()

    def test_param_split_at_last_conv(self):
        net = tiny_net()
        conv, fc = net.param_count()
        assert conv == 4 * 1 * 3 * 3 + 4
        assert fc == (6 * 64 + 6) + (2 * 6 + 2)


class TestForward:
    def test_record_keeps_every_activation(self):
        net = tiny_net()
        x = Tensor(np.random.default_rng(0).random((1, 8, 8)).astype(np.float32))
        out, rec = forward(net, x, record=True)
        assert len(rec.activations) == len(net.layers)
        assert abs(out.data.sum() - 1.0) < 1e-6
        assert 2 in rec.switches  # the pooling layer stored its argmaxes

    def test_input_shape_checked(self):
        net = tiny_net()
        bad = Tensor(np.zeros((2, 8, 8), dtype=np.float32))
        with pytest.raises(DimensionError, match="expects input"):
            forward(net, bad)

    def test_forward_wraps_layer_errors(self):
        net = tiny_net()
        net.layers[0].weights = np.zeros((4, 2, 3, 3), dtype=np.float32)
        x = Tensor(np.zeros((1, 8, 8), dtype=np.float32))
        with pytest.raises(DimensionError, match="layer 0"):
            forward(net, x)

    def test_logits_skips_softmax(self):
        net = tiny_net()
        x = Tensor(np.random.default_rng(1).random((1, 8, 8)).astype(np.float32))
        z = logits(net, x)
        out = forward(net, x)
        np.testing.assert_allclose(
            out.data, np.exp(z.data) / np.exp(z.data).sum(), rtol=1e-5)


class TestForwardHook:
    def test_identity_hook_changes_nothing(self):
        net = tiny_net()
        x = Tensor(np.random.default_rng(2).random((1, 8, 8)).astype(np.float32))
        seen = []

        def hook(i, out):
            seen.append(i)
            return out

        out, rec = forward(net, x, record=True, hook=hook)
        want, ref = forward(net, x, record=True)
        assert seen == list(range(len(net.layers)))
        np.testing.assert_array_equal(out.data, want.data)
        np.testing.assert_array_equal(rec.input, ref.input)
        assert len(rec.activations) == len(ref.activations)
        for got, exp in zip(rec.activations, ref.activations):
            np.testing.assert_array_equal(got, exp)
        assert rec.switches.keys() == ref.switches.keys()
        for i in ref.switches:
            np.testing.assert_array_equal(rec.switches[i], ref.switches[i])

    def test_hook_output_is_carried_forward_and_recorded(self):
        net = tiny_net()
        x = Tensor(np.random.default_rng(3).random((1, 8, 8)).astype(np.float32))
        _, plain = forward(net, x, record=True)
        assert plain.activations[3].any()
        _, rec = forward(net, x, record=True,
                         hook=lambda i, a: np.zeros_like(a) if i == 1 else a)
        # the zeroed relu output is what the pool and flatten layers saw
        for i in (1, 2, 3):
            assert not rec.activations[i].any()

    def test_time_network_reports_every_layer(self):
        net = tiny_net()
        x = Tensor(np.random.default_rng(4).random((1, 8, 8)).astype(np.float32))
        per_layer, total = time_network(net, x, runs=1, warmup=0)
        assert [(i, kind) for i, kind, _ in per_layer] == [
            (i, layer.kind) for i, layer in enumerate(net.layers)]
        assert all(ms > 0 for _, _, ms in per_layer)
        assert total > 0


class TestBuilders:
    def test_same_seed_same_weights(self):
        a, b = tiny_net(seed=5), tiny_net(seed=5)
        np.testing.assert_array_equal(a.layers[0].weights, b.layers[0].weights)

    def test_different_seed_different_weights(self):
        a, b = tiny_net(seed=5), tiny_net(seed=6)
        assert not np.array_equal(a.layers[0].weights, b.layers[0].weights)

    def test_reference_architecture(self):
        net = reference_cnn()
        assert net.input_shape == (1, 32, 32)
        assert len(net.conv_indices()) == 6
        assert net.last_conv_index() == 12
        assert net.infer_shapes()[12][0] == 32
        conv, fc = net.param_count()
        assert conv == 34864
        assert fc == 32962

    def test_copy_is_deep(self):
        net = tiny_net()
        dup = net.copy()
        dup.layers[0].weights[:] = 0
        assert net.layers[0].weights.any()
