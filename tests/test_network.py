"""Network assembly, shape inference, and the reference architecture."""

import copy
import gc
import pickle
import sys
import threading
import weakref

import numpy as np
import oracles
import pytest

from fisherprune import network, ops
from fisherprune.bench import time_network
from fisherprune.errors import ConfigurationError, DimensionError, NonFiniteError
from fisherprune.network import (
    LayerSpec, Network, build_cnn, forward, logits, reference_cnn,
)
from fisherprune.prune import PrunePlan, apply_prune
from fisherprune.tensor import Tensor
from fisherprune.train import accuracy


def tiny_net(seed=3):
    return build_cnn((1, 8, 8), [(4, 3, 1, True)], [6], 2, seed=seed)


class TestLayerSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            LayerSpec("batchnorm")

    def test_conv_weight_rank_checked(self):
        with pytest.raises(DimensionError):
            LayerSpec("conv", np.zeros((3, 3, 3)), np.zeros(3))

    def test_bias_length_checked(self):
        with pytest.raises(DimensionError):
            LayerSpec("conv", np.zeros((2, 1, 3, 3)), np.zeros(5))

    def test_conv_without_tensors_is_refused(self):
        with pytest.raises(ConfigurationError, match="conv layer needs weights"):
            Network((1, 8, 8), [LayerSpec("conv")]).infer_shapes()

    @pytest.mark.parametrize("stride", [1.5, True])
    def test_non_int_conv_stride_is_refused(self, stride):
        w = np.ones((2, 1, 3, 3), dtype=np.float32)
        with pytest.raises(ConfigurationError, match="conv stride must be an int"):
            LayerSpec("conv", w, np.ones(2), stride=stride)

    def test_string_pool_window_is_refused(self):
        with pytest.raises(ConfigurationError,
                           match="maxpool window must be an int, got '2'"):
            LayerSpec("maxpool", window="2", stride=2)

    def test_non_int_input_extent_is_refused(self):
        net = Network((1, 8.0, 8), tiny_net().layers)
        with pytest.raises(DimensionError, match="input extents must be >= 1 and ints"):
            net.infer_shapes()


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
        (0, "pad", 3, r"layer 0 \(conv\): pad 3 must be below the 3x3 kernel"),
    ])
    def test_invalid_geometry_names_the_layer(self, layer, field, value, message):
        net = tiny_net()
        setattr(net.layers[layer], field, value)
        with pytest.raises(ConfigurationError, match=message):
            net.infer_shapes()

    @pytest.mark.parametrize("kernel,pad", [((3, 5), 3), ((5, 2), 2)])
    def test_pad_must_be_below_both_kernel_extents(self, kernel, pad):
        w = np.zeros((2, 1) + kernel, dtype=np.float32)
        net = Network((1, 6, 6), [LayerSpec("conv", w, np.zeros(2), pad=pad)])
        with pytest.raises(ConfigurationError,
                           match=rf"layer 0 \(conv\): pad {pad} must be below"):
            net.infer_shapes()

    @pytest.mark.parametrize("input_shape", [(1, 0, 4), (1, -1, 4)])
    def test_input_extent_below_one_rejected(self, input_shape):
        w = np.ones((2, 1, 3, 3), dtype=np.float32)
        net = Network(input_shape, [LayerSpec("conv", w, np.ones(2), pad=2)])
        with pytest.raises(DimensionError, match="input extents must be >= 1"):
            net.infer_shapes()

    def test_zero_wide_dense_input_rejected(self):
        net = Network((0,), [LayerSpec("dense", np.zeros((2, 0)), np.zeros(2))])
        with pytest.raises(DimensionError, match="input extents must be >= 1"):
            net.infer_shapes()

    def test_last_conv_requires_a_conv(self):
        net = Network((4,), [LayerSpec("dense", np.zeros((2, 4)), np.zeros(2))])
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

    @pytest.mark.parametrize("walk", [forward, logits])
    @pytest.mark.parametrize("x", [
        np.zeros((1, 8, 8), dtype=np.float32), np.zeros((1, 8, 8)).tolist()],
        ids=["ndarray", "list"])
    def test_non_tensor_input_refused(self, walk, x):
        with pytest.raises(ConfigurationError, match="must be a Tensor"):
            walk(tiny_net(), x)

    @pytest.mark.parametrize("mode", [{}, {"record": True}, {"hook": lambda i, a: a}],
                             ids=["plain", "recording", "hooked"])
    def test_a_net_without_layers_is_refused(self, mode):
        net = Network((1, 8, 8), [])
        with pytest.raises(ConfigurationError, match="^network has no layers$"):
            forward(net, Tensor(np.zeros((1, 8, 8), dtype=np.float32)), **mode)
        assert net not in getattr(network._LOCAL, "plans", {})  # refused unbuilt

    def test_a_failing_pass_carries_what_it_recorded(self):
        # the softmax refuses the NaN that layers 0-6 carried: a recording
        # pass's error holds their activations, a plain pass's none
        net = tiny_net()
        x = Tensor(np.full((1, 8, 8), np.nan, dtype=np.float32))
        trunk = Network(net.input_shape, net.layers[:-1])
        with np.errstate(invalid="ignore"):
            _, acts, switches = walk(trunk, x, record=True)
            with pytest.raises(NonFiniteError, match="^layer 7 ") as err:
                forward(net, x, record=True)
            assert_same_record(err.value.record, x, acts, switches)
            for mode in ({}, {"hook": lambda i, a: a}):
                with pytest.raises(NonFiniteError, match="^layer 7 ") as err:
                    forward(net, x, **mode)
                assert err.value.record is None

    @pytest.mark.parametrize("end", [-1, 0], ids=["trunk", "no_layers"])
    def test_logits_needs_a_softmax_at_the_end(self, end):
        net = tiny_net()
        head = Network(net.input_shape, net.layers[:end])
        with pytest.raises(ConfigurationError, match="does not end in softmax$"):
            logits(head, Tensor(np.zeros((1, 8, 8), dtype=np.float32)))

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

        def hook(i, a):
            return np.zeros_like(a) if i == 1 else a

        _, rec = forward(net, x, record=True, hook=hook)
        # the zeroed relu output is what the pool and flatten layers saw
        for i in (1, 2, 3):
            assert not rec.activations[i].any()
        out, acts, switches = oracles.layer_walk(ops, net, x.data, True, hook)
        for got, want in zip(rec.activations, acts):
            assert_same_bits(got, want)
        assert_same_bits(rec.switches[2], switches[2])
        # a plain pass hooks its fused steps, and layers 0-2 are one step
        out = oracles.layer_walk(ops, net, x.data, False,
                                 lambda i, a: np.zeros_like(a) if i == 2 else a)[0]
        plain = forward(net, x, hook=lambda i, a: np.zeros_like(a) if i == 0 else a)
        assert_same_bits(plain.data, out)

    def test_time_network_reports_every_layer(self):
        # one row per fused step, named by its first layer and its kinds
        net = tiny_net()
        x = Tensor(np.random.default_rng(4).random((1, 8, 8)).astype(np.float32))
        per_step, total = time_network(net, x, runs=1)
        assert [(i, kind) for i, kind, _ in per_step] == [
            (0, "conv+relu+maxpool"), (3, "flatten"), (4, "dense+relu"),
            (6, "dense"), (7, "softmax")]
        assert all(ms > 0 for _, _, ms in per_step)
        assert total > 0
        for make in PLAN_NETS.values():
            net = make()
            x = Tensor(np.zeros(net.input_shape, dtype=np.float32))
            per_step = time_network(net, x, runs=1)[0]
            assert [i for i, _, _ in per_step] == oracles.fused_step_starts(net)
            kinds = "+".join(kind for _, kind, _ in per_step).split("+")
            assert kinds == [layer.kind for layer in net.layers]

    @pytest.mark.parametrize("runs", [0, -1, 2.0, True])
    def test_time_network_refuses_runs_below_one_or_not_int(self, runs):
        x = Tensor(np.zeros((1, 8, 8), dtype=np.float32))
        with pytest.raises(ConfigurationError, match="runs must be"):
            time_network(tiny_net(), x, runs=runs)


class TestTensor:
    def test_an_int_input_is_cast_to_float32(self):
        t = Tensor(np.arange(4).reshape(1, 2, 2))
        assert t.data.dtype == np.float32 and t.data.tolist() == [[[0, 1], [2, 3]]]
        assert repr(t) == "Tensor(shape=(1, 2, 2), dtype=float32)"

    @pytest.mark.parametrize("data,message", [
        (np.float32(1.0), "^tensor needs at least one axis$"),
        (np.zeros((1, 0, 3)), r"^tensor extents must be >= 1, got \(1, 0, 3\)$"),
    ], ids=["zero_d", "empty_extent"])
    def test_shapes_without_cells_are_refused(self, data, message):
        with pytest.raises(DimensionError, match=message):
            Tensor(data)


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

    @pytest.mark.parametrize("seed,message", [
        (-1, "seed must be >= 0, got -1"),
        (1.5, "seed must be an int, got 1.5"),
        (True, "seed must be an int, got True"),
    ], ids=["negative", "float", "bool"])
    def test_seed_must_be_an_int_at_least_zero(self, seed, message):
        with pytest.raises(ConfigurationError, match=message):
            reference_cnn(seed=seed)

    def test_copy_is_deep(self):
        net = tiny_net()
        dup = net.copy()
        dup.layers[0].weights[:] = 0
        assert net.layers[0].weights.any()


def overlapping_pool_net(seed=5):
    """Two conv blocks pooled by 3x3 windows at strides 2 and 1."""
    rng = np.random.default_rng(seed)
    layers = [
        LayerSpec("conv", rng.standard_normal((3, 1, 3, 3)), np.zeros(3), pad=1),
        LayerSpec("relu"),
        LayerSpec("maxpool", window=3, stride=2),  # 9x9 -> 4x4
        LayerSpec("conv", rng.standard_normal((4, 3, 3, 3)),
                  rng.standard_normal(4), pad=1),
        LayerSpec("relu"),
        LayerSpec("maxpool", window=3, stride=1),  # 4x4 -> 2x2
        LayerSpec("flatten"),
        LayerSpec("dense", rng.standard_normal((2, 16)), np.zeros(2)),
        LayerSpec("softmax"),
    ]
    net = Network((1, 9, 9), layers)
    net.infer_shapes()
    return net


def pruned_reference_cnn():
    """reference_cnn sliced to the 5/1/11/9/22/4 widths the pipeline delivers."""
    net = reference_cnn(seed=0)
    rng = np.random.default_rng(6)
    keep = {i: np.sort(rng.choice(net.layers[i].weights.shape[0], n,
                                  replace=False)).astype(np.int64)
            for i, n in zip(net.conv_indices(), (5, 1, 11, 9, 22, 4))}
    return apply_prune(net, PrunePlan(keep=keep, threshold=0.0))


def strided_conv_net(seed=7):
    """Stride-2 convs, one without a relu, pooled once at window 1."""
    rng = np.random.default_rng(seed)
    layers = [
        LayerSpec("conv", rng.standard_normal((3, 2, 3, 3)), rng.standard_normal(3),
                  stride=2, pad=1),  # 11x10 -> 6x5
        LayerSpec("relu"),
        LayerSpec("conv", rng.standard_normal((4, 3, 2, 2)), rng.standard_normal(4),
                  stride=2),  # 6x5 -> 3x2
        LayerSpec("maxpool", window=1, stride=1),
        LayerSpec("flatten"),
        LayerSpec("dense", rng.standard_normal((2, 24)), rng.standard_normal(2)),
        LayerSpec("softmax"),
    ]
    return Network((2, 11, 10), layers)


def conv_flatten_net(seed=8):
    """Convs straight into flatten, no pool: dense reads the cropped map."""
    rng = np.random.default_rng(seed)
    layers = [
        LayerSpec("conv", rng.standard_normal((3, 1, 3, 3)), rng.standard_normal(3),
                  pad=1),
        LayerSpec("relu"),
        LayerSpec("conv", rng.standard_normal((2, 3, 3, 3)), rng.standard_normal(2)),
        LayerSpec("flatten"),
        LayerSpec("dense", rng.standard_normal((5, 50)), rng.standard_normal(5)),
        LayerSpec("relu"),
        LayerSpec("dense", rng.standard_normal((2, 5)), rng.standard_normal(2)),
        LayerSpec("softmax"),
    ]
    return Network((1, 7, 7), layers)


def float64_net():
    """overlapping_pool_net with float64 weights and biases (test_train
    imports this module, so its widen_to_float64 cannot be imported here)."""
    net = overlapping_pool_net()
    for layer in net.layers:
        if layer.weights is not None:
            layer.weights = layer.weights.astype(np.float64)
            layer.bias = layer.bias.astype(np.float64)
    return net


def special_values_net():
    """1x1 convs, each followed by a relu and a pool, so that the windows of
    SPECIAL_IMAGE hold exact ties, signed zeros, infinities and NaN at the
    first pool (2x2) and mixes of them at the second (3x3, overlapping)."""
    layers = [
        LayerSpec("conv", np.array([1.0, -1.0, 2.0]).reshape(3, 1, 1, 1),
                  np.array([0.0, -0.0, 1.5])),
        LayerSpec("relu"),
        LayerSpec("maxpool", window=2, stride=2),  # 6x6 -> 3x3
        LayerSpec("conv", np.array([[1.0, 0.0, -0.0], [-1.0, 0.5, 1.0]]).reshape(2, 3, 1, 1),
                  np.array([-0.0, -1.0])),
        LayerSpec("relu"),
        LayerSpec("maxpool", window=3, stride=1),  # 3x3 -> 1x1
        LayerSpec("flatten"),
        LayerSpec("dense", np.array([[1.0, -1.0], [0.5, 2.0]]), np.array([0.0, -0.0])),
        LayerSpec("softmax"),
    ]
    return Network((1, 6, 6), layers)


INF, NAN = np.inf, np.nan
# one 2x2 window per line pair: ties, signed zeros, both infinities and NaN
SPECIAL_IMAGE = np.array([
    [1.5, 1.5, 0.0, -0.0, -0.0, -1.0],
    [1.5, -1.0, -0.0, 0.0, 0.0, -2.0],
    [INF, 2.0, NAN, 1.0, -INF, -INF],
    [INF, -INF, -INF, 0.0, -INF, -INF],
    [NAN, NAN, -0.0, -0.0, 3.0, INF],
    [1.0, -0.0, -0.0, -0.0, -0.0, NAN],
])


def special_images(shape, dtype):
    """SPECIAL_IMAGE tiled to shape, the same without NaN and infinities,
    and all -0.0."""
    image = np.resize(SPECIAL_IMAGE, shape).astype(dtype)
    return [image, np.nan_to_num(image, nan=0.0, posinf=3.0, neginf=-3.0),
            np.full(shape, -0.0, dtype)]


PLAN_NETS = {"reference_cnn": lambda: reference_cnn(seed=0),
             "pruned": pruned_reference_cnn, "overlapping_pools": overlapping_pool_net,
             "strided": strided_conv_net, "conv_flatten": conv_flatten_net,
             "float64_weights": float64_net, "special_values": special_values_net}


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def walk(net, x, record=False):
    """oracles.layer_walk of net on the Tensor x."""
    return oracles.layer_walk(ops, net, x.data, record)


def assert_same_record(rec, x, acts, switches):
    assert_same_bits(rec.input, x.data)
    assert len(rec.activations) == len(acts)
    for got, want in zip(rec.activations, acts):
        assert_same_bits(got, want)
    assert rec.switches.keys() == switches.keys()
    for i, want in switches.items():
        assert_same_bits(rec.switches[i], want)


def assert_passes_are_the_walk(net, x):
    """The plain and recording passes of net on x, hooked or not, and its
    logits when it ends in softmax, give oracles.layer_walk's bits: the
    outputs, every recorded activation and every pool's switches. A hook
    sees every layer of a recording pass, and the output of each fused step
    of a plain pass under the step's first layer."""
    want, acts, switches = walk(net, x, record=True)
    out, rec = forward(net, x, record=True)
    assert_same_bits(out.data, want)
    assert_same_record(rec, x, acts, switches)
    seen = []
    out, rec = forward(net, x, record=True, hook=lambda i, a: seen.append(i) or a)
    assert seen == list(range(len(net.layers)))
    assert_same_bits(out.data, want)
    assert_same_record(rec, x, acts, switches)
    steps = {}

    def keep(i, a):  # a plain pass may hand its hook a scratch view
        steps[i] = a.copy()
        return a

    hooked = forward(net, x, hook=keep)
    starts = oracles.fused_step_starts(net)
    assert list(steps) == starts
    for i, end in zip(starts, starts[1:] + [len(net.layers)]):
        assert_same_bits(steps[i], acts[end - 1])
    for got in (forward(net, x), hooked):
        assert_same_bits(got.data, want)
    if net.layers[-1].kind == "softmax":
        assert_same_bits(logits(net, x).data, acts[-2])


class TestSwitchFreeForward:
    @pytest.mark.parametrize("make,dtype", [
        pytest.param(make, dtype, id=name + ("" if dtype is np.float32 else "-float64"))
        for dtype in (np.float32, np.float64) for name, make in PLAN_NETS.items()])
    def test_every_pass_is_the_layer_walk_bit_for_bit(self, make, dtype):
        net = make()
        rng = np.random.default_rng(8)
        images = [rng.random(net.input_shape).astype(dtype) for _ in range(4)]
        images.append(np.zeros(net.input_shape, dtype=dtype))  # all ties
        for image in images:
            x = Tensor(image)
            assert forward(net, x).data.dtype == dtype
            assert_passes_are_the_walk(net, x)
        plan = network._LOCAL.plans[net]
        assert set(plan[1]) == {True, False}  # the fused plan and the unfused
        forward(net, x)
        logits(net, x)
        forward(net, x, record=True)
        assert network._LOCAL.plans[net] is plan  # every pass runs one of them
        # results first, walks after: a result or an activation that shared
        # a buffer with a plan would hold a later image's values by then
        xs = [Tensor(image) for image in images[:2]]
        got = [(forward(net, x).data, logits(net, x).data,
                forward(net, x, record=True)[1]) for x in xs]
        for x, (out, scores, rec) in zip(xs, got):
            want, acts, switches = walk(net, x, record=True)
            assert_same_bits(out, want)
            assert_same_bits(scores, acts[-2])
            assert_same_record(rec, x, acts, switches)
        # every trunk (one ending at each layer but the softmax), also on
        # signed zeros, infinities and NaN, which only the trunks pass on
        xs += [Tensor(image) for image in special_images(net.input_shape, dtype)]
        for k in range(1, len(net.layers)):
            trunk = Network(net.input_shape, net.layers[:k])
            with np.errstate(invalid="ignore", over="ignore"):
                got = [forward(trunk, x).data for x in xs]
                for x, out in zip(xs, got):
                    assert_same_bits(out, walk(trunk, x)[0])
                    assert_passes_are_the_walk(trunk, x)

    def test_plans_follow_edits_to_their_net(self):
        rng = np.random.default_rng(10)
        net = overlapping_pool_net()
        dup = net.copy()
        xs = [Tensor(rng.random((1, 9, 9)).astype(dtype))
              for dtype in (np.float32, np.float64)]

        def check():
            for n in (net, dup):
                for x in xs:
                    assert_passes_are_the_walk(n, x)

        check()
        conv = net.layers[3]
        conv.weights = rng.standard_normal(conv.weights.shape).astype(np.float32)
        check()  # rebound weights, same shape
        conv.bias = conv.bias + 1
        check()
        net.layers[0] = LayerSpec("conv", rng.standard_normal((3, 1, 3, 3)),
                                  rng.standard_normal(3), pad=1)
        check()  # a replaced layer
        net.layers.insert(8, LayerSpec("dense", rng.standard_normal((2, 2)),
                                       rng.standard_normal(2)))
        check()  # an added layer
        del net.layers[8]
        check()  # a removed one
        for x in xs:  # edits in place, no rebinding, seen by a warm plan
            forward(dup, x)
            dup.layers[3].weights[...] *= -1.0
            dup.layers[3].bias[...] += 3.0
            dup.layers[7].weights[...] *= -2.0  # the dense step reads views too
            dup.layers[7].bias[...] += 0.5
            assert_passes_are_the_walk(dup, x)
        check()
        conv.weights = np.zeros((4, 2, 3, 3), dtype=np.float32)
        for mode in ({}, {"record": True}, {"hook": lambda i, a: a}):
            with pytest.raises(DimensionError, match="^layer 3 \\(conv\\): kernel "
                               "expects 2 input channels, feature map has 3$"):
                forward(net, xs[0], **mode)

    @pytest.mark.parametrize("clone", [copy.deepcopy,
                                       lambda net: pickle.loads(pickle.dumps(net))],
                             ids=["deepcopy", "pickle"])
    def test_copies_carry_no_plan(self, clone):
        net = tiny_net()
        x = Tensor(np.random.default_rng(11).random((1, 8, 8)).astype(np.float32))
        forward(net, x)
        assert net in network._LOCAL.plans
        dup = clone(net)
        assert dup not in network._LOCAL.plans
        assert set(vars(dup)) == {"input_shape", "layers"}
        assert not {l._stamp for l in dup.layers} & {l._stamp for l in net.layers}
        dup.layers[0].weights[...] = 0.5
        assert_passes_are_the_walk(dup, x)
        assert_passes_are_the_walk(net, x)

    def test_plans_go_with_their_net(self):
        net = tiny_net()
        forward(net, Tensor(np.zeros((1, 8, 8), dtype=np.float32)))
        gone = weakref.ref(net)
        gc.collect()
        count = len(network._LOCAL.plans)
        del net
        gc.collect()
        assert gone() is None and len(network._LOCAL.plans) == count - 1

    @pytest.mark.parametrize("make", list(PLAN_NETS.values()), ids=list(PLAN_NETS))
    def test_nan_input_fails_alike_in_every_pass(self, make):
        net = make()
        x = Tensor(np.full(net.input_shape, np.nan, dtype=np.float32))
        messages = []
        for run in (lambda: walk(net, x, record=True), lambda: forward(net, x),
                    lambda: forward(net, x, record=True),
                    lambda: forward(net, x, hook=lambda i, a: a)):
            with pytest.raises(NonFiniteError) as err:
                run()
            messages.append(str(err.value))
        assert len(set(messages)) == 1
        assert messages[0].endswith("(softmax): softmax input contains NaN")

    @pytest.mark.parametrize("make", list(PLAN_NETS.values()), ids=list(PLAN_NETS))
    def test_logits_of_a_nan_input_are_the_walks_cold_or_warm(self, make):
        # logits stop before the softmax, the one layer that refuses NaN, so
        # the call that builds the plan and a later one give the same scores
        net = make()
        x = Tensor(np.full(net.input_shape, np.nan, dtype=np.float32))
        head = Network(net.input_shape, net.layers[:-1])
        with np.errstate(invalid="ignore"):
            assert net not in network._LOCAL.plans
            cold, warm = logits(net, x).data, logits(net, x).data
            want = walk(head, x)[0]
        assert_same_bits(cold, want)
        assert_same_bits(warm, want)

    def test_threads_get_the_single_thread_bits(self):
        # more threads than cores, switching often: a plan, grid or kept
        # buffer shared between threads would mix their images
        nets = [reference_cnn(seed=0), pruned_reference_cnn(), overlapping_pool_net(),
                special_values_net()]
        rng = np.random.default_rng(12)
        images = [[Tensor(rng.random(n.input_shape).astype(np.float32))
                   for _ in range(5)] for n in nets]
        want = [[walk(n, x)[0] for x in xs] for n, xs in zip(nets, images)]
        bad = []

        def work(first):
            if getattr(network._LOCAL, "plans", None):  # each thread has its own
                bad.append(("inherited plans", first))
            for r in range(200):
                k = (first % 2 + r) % len(nets)  # two threads on each net at once
                x = images[k][r % 5]  # every third pass records
                got = (forward(nets[k], x, record=True)[0] if r % 3 == 0
                       else forward(nets[k], x)).data
                if got.tobytes() != want[k][r % 5].tobytes():
                    bad.append((first, r))

        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert bad == []

    def test_plans_outlive_their_evicted_grids_and_buffers(self):
        net = pruned_reference_cnn()
        rng = np.random.default_rng(13)
        xs = [Tensor(rng.random((1, 32, 32)).astype(np.float32)) for _ in range(2)]
        forward(net, xs[0])
        thread, dtype = threading.get_ident(), xs[0].data.dtype
        geometry = ops._conv_geometry((1, 32, 32), 1, 1, *net.layers[0].weights.shape)
        grid = ops._kept_grid(thread, dtype, *geometry[-1])[0]
        held = {role: ops._arena(thread, dtype, role)[0]
                for role in ("gemm", "band", "pooled")}
        k, b = np.ones((2, 1, 3, 3), np.float32), np.zeros(2, np.float32)
        for h in range(3, 43):  # 40 other geometries
            ops.conv2d_forward(np.ones((1, h, 5), np.float32), k, b)
        big = build_cnn((1, 64, 64), [(9, 3, 1, True)], [3], 2)  # larger scratch
        forward(big, Tensor(np.ones((1, 64, 64), np.float32)))
        assert ops._kept_grid(thread, dtype, *geometry[-1])[0] is not grid  # evicted
        for role, buffer in held.items():
            assert ops._arena(thread, dtype, role)[0] is not buffer  # replaced
        for x in xs:
            assert_passes_are_the_walk(net, x)

    def test_passes_that_do_not_record_build_no_switches(self, monkeypatch):
        net = strided_conv_net()
        assert 3 in oracles.fused_step_starts(net)  # its pool is a step of its own
        x = Tensor(np.random.default_rng(9).random((2, 11, 10)).astype(np.float32))
        seen = []
        pool = ops.maxpool_forward

        def spy(*args, **kwargs):
            out = pool(*args, **kwargs)
            seen.append(out[1])
            return out

        monkeypatch.setattr(ops, "maxpool_forward", spy)
        forward(net, x)
        logits(net, x)
        accuracy(net, [x.data], [0])
        time_network(net, x, runs=1)
        assert len(seen) >= 4 and all(s is None for s in seen)
        del seen[:]
        forward(net, x, record=True)
        assert len(seen) == 1 and seen[0] is not None
