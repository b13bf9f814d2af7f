"""Network assembly, shape inference, and the reference architecture."""

import copy
import gc
import pickle
import sys
import threading
import weakref

import numpy as np
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
        per_layer, total = time_network(net, x, runs=1)
        assert [(i, kind) for i, kind, _ in per_layer] == [
            (i, layer.kind) for i, layer in enumerate(net.layers)]
        assert all(ms > 0 for _, _, ms in per_layer)
        assert total > 0

    @pytest.mark.parametrize("runs", [0, -1, 2.0, True])
    def test_time_network_refuses_runs_below_one_or_not_int(self, runs):
        x = Tensor(np.zeros((1, 8, 8), dtype=np.float32))
        with pytest.raises(ConfigurationError, match="runs must be"):
            time_network(tiny_net(), x, runs=runs)


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


PLAN_NETS = {"reference_cnn": lambda: reference_cnn(seed=0),
             "pruned": pruned_reference_cnn, "overlapping_pools": overlapping_pool_net,
             "strided": strided_conv_net, "conv_flatten": conv_flatten_net,
             "float64_weights": float64_net}


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_plain_is_the_walk(net, x):
    want, rec = forward(net, x, record=True)
    assert_same_bits(forward(net, x).data, want.data)
    assert_same_bits(logits(net, x).data, rec.activations[-2])


class TestSwitchFreeForward:
    @pytest.mark.parametrize("make,dtype", [
        pytest.param(make, dtype, id=name + ("" if dtype is np.float32 else "-float64"))
        for dtype in (np.float32, np.float64) for name, make in PLAN_NETS.items()])
    def test_plain_forward_is_the_recording_forward_bit_for_bit(self, make, dtype):
        net = make()
        rng = np.random.default_rng(8)
        images = [rng.random(net.input_shape).astype(dtype) for _ in range(4)]
        images.append(np.zeros(net.input_shape, dtype=dtype))  # all ties
        for image in images:
            x = Tensor(image)
            want, rec = forward(net, x, record=True)
            got = forward(net, x)
            # the recording pass built switches for every pool
            assert len(rec.switches) == sum(l.kind == "maxpool" for l in net.layers)
            assert got.data.dtype == want.data.dtype == dtype
            assert_same_bits(got.data, want.data)
            assert_same_bits(logits(net, x).data, rec.activations[-2])
        plan = network._LOCAL.plans[net]
        forward(net, x)
        logits(net, x)
        assert network._LOCAL.plans[net] is plan  # logits runs forward's plan

    def test_plans_follow_edits_to_their_net(self):
        rng = np.random.default_rng(10)
        net = overlapping_pool_net()
        dup = net.copy()
        xs = [Tensor(rng.random((1, 9, 9)).astype(dtype))
              for dtype in (np.float32, np.float64)]

        def check():
            for n in (net, dup):
                for x in xs:
                    assert_plain_is_the_walk(n, x)

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
        dup.layers[3].weights[...] = -dup.layers[3].weights  # in place, no rebinding
        dup.layers[3].bias[...] = 3.0
        check()
        conv.weights = np.zeros((4, 2, 3, 3), dtype=np.float32)
        for walk in ({}, {"record": True}):
            with pytest.raises(DimensionError, match="^layer 3 \\(conv\\): kernel "
                               "expects 2 input channels, feature map has 3$"):
                forward(net, xs[0], **walk)

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
        assert_plain_is_the_walk(dup, x)
        assert_plain_is_the_walk(net, x)

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
    def test_nan_input_fails_alike_in_both_walks(self, make):
        net = make()
        x = Tensor(np.full(net.input_shape, np.nan, dtype=np.float32))
        messages = []
        for walk in ({}, {"record": True}):
            with pytest.raises(NonFiniteError) as err:
                forward(net, x, **walk)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert messages[0].endswith("(softmax): softmax input contains NaN")

    def test_threads_get_the_single_thread_bits(self):
        # more threads than cores, switching often: a plan or grid shared
        # between threads would mix their images
        nets = [reference_cnn(seed=0), pruned_reference_cnn()]
        rng = np.random.default_rng(12)
        images = [Tensor(rng.random((1, 32, 32)).astype(np.float32)) for _ in range(5)]
        want = [[forward(n, x).data for x in images] for n in nets]
        bad = []

        def work(first):
            if getattr(network._LOCAL, "plans", None):  # each thread has its own
                bad.append(("inherited plans", first))
            for r in range(200):
                k = (first + r) % 2
                got = forward(nets[k], images[r % 5]).data
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

    def test_passes_that_do_not_record_build_no_switches(self, monkeypatch):
        net = tiny_net()
        x = Tensor(np.random.default_rng(9).random((1, 8, 8)).astype(np.float32))
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
