"""Mirror stages and the neuron-to-pixel dependency walk."""

import numpy as np
import pytest

from fisherprune import deconv, network, ops
from fisherprune.data import LabeledImage, generate_synthetic
from fisherprune.deconv import (
    DeconvMap, deconv_from_neuron, dependency_scores, unpool,
)
from fisherprune.errors import ConfigurationError, DimensionError, NonFiniteError
from fisherprune.firing import extract_firing_matrix
from fisherprune.network import (
    LayerSpec, Network, build_cnn, forward, reference_cnn,
)
from fisherprune.tensor import Tensor

import oracles
from test_network import overlapping_pool_net
from test_train import widen_to_float64


# Selected-neuron ids that dependency_scores and build_prune_plan refuse,
# each with the message; np.asarray(..., dtype=np.int64) would truncate the
# first two to neurons [1, 2] and [1].
BAD_SELECTED = [
    ([True, 2.9], "selected neuron id must be an int, got True"),
    (np.array([1.5]), "selected neuron id must be an int, got 1.5"),
    ([1, 2.0], "selected neuron id must be an int, got 2.0"),
    (np.array([False, True]), "selected neuron id must be an int, got False"),
    ([0, -1], "selected neuron id must be >= 0, got -1"),
    ([1, 2**70], f"selected neuron id must fit int64, got {2**70}"),
]
BAD_SELECTED_IDS = ["bool_and_float", "float_array", "int_valued_float",
                    "bool_array", "negative", "past_int64"]


def labeled(img, label=0, id="x"):
    return LabeledImage(Tensor(img.astype(np.float32)), label, id)


class TestMirrors:
    def test_unpool_restores_argmax_positions(self):
        rng = np.random.default_rng(1)
        # mirrors pooling of post-relu maps, so the input is non-negative
        x = rng.random((2, 6, 6), dtype=np.float32)
        pooled, sw = ops.maxpool_forward(x, 2, 2)
        up = unpool(pooled, sw, x.shape)
        repooled, _ = ops.maxpool_forward(up, 2, 2)
        np.testing.assert_array_equal(repooled, pooled)
        assert np.count_nonzero(up) <= pooled.size
        np.testing.assert_array_equal(up.ravel()[sw.ravel()],
                                      pooled.ravel())

    def test_unpool_rejects_bad_switches(self):
        pooled = np.ones((1, 1, 1), dtype=np.float32)
        with pytest.raises(DimensionError, match="switch count"):
            unpool(pooled, np.array([0, 1]), (1, 2, 2))
        # numpy indexing would wrap the -1 and take the bools as a mask
        for switches in ([9], [-1], [0.0], [True] * 4):
            with pytest.raises(DimensionError, match="int indices within target bounds"):
                unpool(np.ones(len(switches), np.float32), np.array(switches),
                       (1, 2, 2))

    @pytest.mark.parametrize("window,stride", [(3, 1), (2, 1)])
    def test_unpool_is_the_adjoint_of_the_switch_read(self, window, stride):
        """<x[sw], y> == <x, unpool(y, sw)> where overlapping windows share
        winners: unpool adds at a shared switch, an assignment would not."""
        rng = np.random.default_rng(27)
        for _ in range(5):
            x = rng.standard_normal((2, 7, 7))
            pooled, sw = ops.maxpool_forward(x, window, stride)
            assert np.unique(sw).size < sw.size
            y = rng.standard_normal(pooled.shape)
            lhs = np.sum(x.ravel()[sw] * y)
            rhs = np.sum(x * unpool(y, sw, x.shape))
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_transposed_conv_is_the_adjoint(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 7, 7))
        k = rng.standard_normal((3, 2, 3, 3))
        y = ops.conv2d_forward(x, k, np.zeros(3), stride=2, pad=1)
        g = rng.standard_normal(y.shape)
        back = ops.conv2d_adjoint(g, k, stride=2, pad=1, out_hw=(7, 7))
        lhs = np.sum(y * g)
        rhs = np.sum(x * back)
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_transposed_conv_checks_ranks(self):
        with pytest.raises(DimensionError):
            ops.conv2d_adjoint(np.ones((2, 2), dtype=np.float32),
                               np.ones((1, 1, 1, 1), dtype=np.float32),
                               out_hw=(2, 2))


def pool_before_relu_net(seed=7):
    """The last conv is followed by a max-pool, then the relu."""
    rng = np.random.default_rng(seed)
    net = Network((1, 8, 8), [
        LayerSpec("conv", rng.standard_normal((2, 1, 3, 3)), np.zeros(2), pad=1),
        LayerSpec("relu"),
        LayerSpec("conv", rng.standard_normal((3, 2, 3, 3)),
                  rng.standard_normal(3), pad=1),
        LayerSpec("maxpool", window=2, stride=2),
        LayerSpec("relu"),
        LayerSpec("flatten"),
        LayerSpec("dense", rng.standard_normal((2, 48)), np.zeros(2)),
        LayerSpec("softmax"),
    ])
    net.infer_shapes()
    return net


def passthrough_net():
    """1x1 identity conv: the walk must come back as the same one-hot."""
    w = np.ones((1, 1, 1, 1), dtype=np.float32)
    b = np.zeros(1, dtype=np.float32)
    dense = LayerSpec("dense", np.ones((2, 16), dtype=np.float32), np.zeros(2))
    return Network((1, 4, 4), [
        LayerSpec("conv", w, b), LayerSpec("relu"), LayerSpec("flatten"),
        dense, LayerSpec("softmax"),
    ])


class TestNeuronWalk:
    def test_identity_conv_round_trip(self):
        """The walk ends at layer 0's output, which for a 1x1 identity
        conv is the input's one-hot at its brightest pixel."""
        net = passthrough_net()
        rng = np.random.default_rng(3)
        x = Tensor(rng.random((1, 4, 4)).astype(np.float32))
        _, rec = forward(net, x, record=True)
        dmap = deconv_from_neuron(net, rec, 0)
        assert not dmap.dead
        assert list(dmap.maps) == [0] and not hasattr(dmap, "pixel")
        assert dmap.maps[0].shape == (1, 4, 4)
        assert np.count_nonzero(dmap.maps[0]) == 1
        assert dmap.maps[0].argmax() == x.data.argmax()
        assert dmap.maps[0].max() == pytest.approx(x.data.max(), rel=1e-6)

    def test_dead_neuron_yields_zero_maps(self):
        net = passthrough_net()
        net.layers[0].bias = np.array([-5.0], dtype=np.float32)
        net.layers[0].weights = np.zeros((1, 1, 1, 1), dtype=np.float32)
        x = Tensor(np.random.default_rng(0).random((1, 4, 4)).astype(np.float32))
        _, rec = forward(net, x, record=True)
        dmap = deconv_from_neuron(net, rec, 0)
        assert dmap.dead and list(dmap.maps) == [0]
        assert all(not m.any() for m in dmap.maps.values())

    def test_dead_walk_equals_the_full_walk(self, monkeypatch):
        net = reference_cnn(seed=0)
        last = net.last_conv_index()
        net.layers[last].weights[5] = 0.0
        net.layers[last].bias[5] = -1.0  # filter 5 can never fire
        image = generate_synthetic(2, seed=1).train[0].image
        _, rec = forward(net, image, record=True)
        starts = []

        def spy(net, rec, start, signal, mirror=False):
            starts.append(start)
            return network.reverse(net, rec, start, signal, mirror)

        monkeypatch.setattr(deconv, "reverse", spy)
        dmap = deconv_from_neuron(net, rec, 5)
        assert dmap.dead and not starts  # the reverse walk did not run
        live = int(np.argmax(rec.activations[last + 1].max(axis=(1, 2))))
        assert not deconv_from_neuron(net, rec, live).dead
        assert starts == [last]  # the spy sees the walks that do run
        maps, dead = oracles.deconv_walk_every_layer(
            net, rec, 5, network.reverse)
        assert dead
        assert list(dmap.maps) == list(maps)
        for i, m in maps.items():
            assert dmap.maps[i].shape == m.shape and dmap.maps[i].dtype == m.dtype
            np.testing.assert_array_equal(dmap.maps[i], m)

    def test_overlapping_pools_sum_where_windows_share_a_winner(self):
        """3x3 pools at strides 2 and 1 share winners between windows; the
        walk adds their pooled values there, as the per-cell walk and
        backprop do."""
        net = widen_to_float64(overlapping_pool_net())
        rng = np.random.default_rng(12)
        for _ in range(3):
            _, rec = forward(net, Tensor(rng.random((1, 9, 9))), record=True)
            assert all(np.unique(sw).size < sw.size
                       for sw in rec.switches.values())
            for neuron in range(4):
                dmap = deconv_from_neuron(net, rec, neuron)
                maps, _ = oracles.deconv_walk_loops(net, rec, neuron)
                assert list(dmap.maps) == list(maps)
                for i, m in maps.items():
                    np.testing.assert_allclose(dmap.maps[i], m,
                                               rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("make", [overlapping_pool_net,
                                      lambda: reference_cnn(seed=0)],
                             ids=["overlapping_pools", "reference_cnn"])
    def test_max_pool_step_is_backprops(self, make):
        """On one record, both walks carry a signal through each max-pool
        by the same scatter-add in the signal's dtype: unpool, bit for bit."""
        net = make()
        rng = np.random.default_rng(13)
        x = Tensor(rng.random(net.input_shape, dtype=np.float32))
        _, rec = forward(net, x, record=True)
        for i, sw in rec.switches.items():
            below = rec.activations[i - 1].shape
            for dtype in (np.float32, np.float64):
                signal = rng.standard_normal(sw.shape).astype(dtype)
                back, mirror = (list(network.reverse(net, rec, i, signal,
                                                     mirror=m))[1]
                                for m in (False, True))
                assert back[0] == mirror[0] == i - 1
                assert back[1].dtype == mirror[1].dtype == dtype
                assert back[1].tobytes() == mirror[1].tobytes()
                want = np.zeros(int(np.prod(below)), dtype)
                for value, at in zip(signal.ravel(), sw.ravel()):
                    want[at] += value
                np.testing.assert_array_equal(mirror[1], want.reshape(below))
                assert mirror[1].tobytes() == unpool(signal, sw, below).tobytes()

    @pytest.mark.parametrize("start,shape", [
        (3, (1,)), (4, (16, 32, 32)), (3, (16, 16, 16)), (-1, (2,)), (20, (2,)),
        (True, (16, 32, 32)), (3.0, (16, 32, 32)),
    ], ids=["relu_scalar", "pool_unpooled", "relu_pooled", "negative",
            "past_the_record", "bool", "float"])
    def test_reverse_refuses_a_bad_start(self, start, shape):
        """A start outside the record, or a signal not shaped like its
        output, is refused before any layer's rule runs."""
        net = reference_cnn(seed=0)
        _, rec = forward(net, Tensor(np.ones((1, 32, 32), np.float32)),
                         record=True)
        for mirror in (False, True):
            with pytest.raises(DimensionError, match="reverse needs a start"):
                list(network.reverse(net, rec, start, np.ones(shape), mirror))

    def test_reverse_has_no_rule_for_softmax(self):
        """Started at the softmax, both walks yield its signal, then refuse."""
        net = reference_cnn(seed=0)
        out, rec = forward(net, Tensor(np.ones((1, 32, 32), np.float32)),
                           record=True)
        last = len(net.layers) - 1
        for mirror in (False, True):
            walk = network.reverse(net, rec, last, out.data, mirror)
            assert next(walk)[0] == last
            with pytest.raises(ConfigurationError,
                               match=f"^no reverse rule for layer {last} \\(softmax\\)$"):
                next(walk)

    def test_neuron_index_checked(self):
        net = passthrough_net()
        x = Tensor(np.zeros((1, 4, 4), dtype=np.float32))
        _, rec = forward(net, x, record=True)
        with pytest.raises(ConfigurationError, match="out of range"):
            deconv_from_neuron(net, rec, 7)

    @pytest.mark.parametrize("neuron,message", [
        (0.5, "neuron must be an int, got 0.5"),
        (True, "neuron must be an int, got True"),
        (-1, "neuron must be >= 0, got -1"),
    ], ids=["float", "bool", "negative"])
    def test_neuron_must_be_an_int_at_least_zero(self, neuron, message):
        net = passthrough_net()
        x = Tensor(np.ones((1, 4, 4), dtype=np.float32))
        _, rec = forward(net, x, record=True)
        with pytest.raises(ConfigurationError, match=message):
            deconv_from_neuron(net, rec, neuron)


class TestDependencyScores:
    @pytest.fixture
    def setup(self):
        net = build_cnn((1, 8, 8), [(3, 3, 1, True), (4, 3, 1, False)],
                        [6], 2, seed=22)
        rng = np.random.default_rng(4)
        images = [labeled(rng.random((1, 8, 8)), i % 2, f"i{i}")
                  for i in range(3)]
        return net, images

    def test_table_shape_and_range(self, setup):
        net, images = setup
        table = dependency_scores(net, images, [1, 2])
        assert sorted(table.scores) == net.conv_indices() == [0, 3]
        for li, vals in table.scores.items():
            assert vals.min() >= 0.0 and vals.max() <= 1.0
        # the start tensor is a one-hot, so at the top layer the selected
        # channels score exactly 1 and everything else exactly 0
        np.testing.assert_array_equal(table.scores[3], [0.0, 1.0, 1.0, 0.0])
        assert table.n_images == 3
        assert not table.dead_layers

    def test_live_walks_count_the_images_each_neuron_fires_on(self):
        """Filter 0 of a 1x1 conv fires on positive pixels, filter 1 on
        negative ones; each counts the images it is not dead on."""
        net = Network((1, 2, 2), [
            LayerSpec("conv", np.array([1.0, -1.0]).reshape(2, 1, 1, 1), np.zeros(2)),
            LayerSpec("relu"), LayerSpec("flatten"),
            LayerSpec("dense", np.ones((2, 8)), np.zeros(2)), LayerSpec("softmax"),
        ])
        pixels = [[1, 2, 3, 4], [1, 1, 1, 1], [1, -1, 0, 2], [-1, -2, -3, -4],
                  [0, 0, 0, 0]]
        images = [labeled(np.reshape(p, (1, 2, 2)), k % 2, f"i{k}")
                  for k, p in enumerate(pixels)]
        table = dependency_scores(net, images, [0, 1])
        assert table.live_walks.dtype == np.int64
        assert table.live_walks.tolist() == [3, 2]
        assert dependency_scores(net, images, [1, 0]).live_walks.tolist() == [2, 3]

    def test_pooling_matches_slow_reduction(self, setup):
        """mean over images, then max over neurons, done longhand."""
        net, images = setup
        selected = [0, 3]
        table = dependency_scores(net, images, selected)
        for li in net.conv_indices():
            per_neuron = []
            for n in selected:
                acc = None
                for s in images:
                    _, rec = forward(net, s.image, record=True)
                    m = deconv_from_neuron(net, rec, n).maps[li]
                    energy = np.abs(m).reshape(m.shape[0], -1).sum(axis=1)
                    top = energy.max()
                    e = energy / top if top > 0 else np.zeros_like(energy)
                    acc = e if acc is None else acc + e
                per_neuron.append(acc / len(images))
            want = np.max(per_neuron, axis=0)
            np.testing.assert_allclose(table.scores[li], want, atol=1e-12)

    def test_scores_bytes_equal_the_full_walk(self, monkeypatch):
        """reference_cnn, every last-conv neuron: dead walks are skipped and
        the record stops at the last conv, and the table is the one given by
        every walk over a record of the whole net, its start read from the
        relu layer."""
        net = reference_cnn(seed=0)
        images = generate_synthetic(4, seed=3).train
        selected = list(range(32))
        deads = []
        real_walk = deconv.deconv_from_neuron

        def counting(net, rec, n):
            dmap = real_walk(net, rec, n)
            deads.append(dmap.dead)
            return dmap

        monkeypatch.setattr(deconv, "deconv_from_neuron", counting)
        table = dependency_scores(net, images, selected)
        assert any(deads) and not all(deads)  # both paths ran

        def full_walk(net, rec, n):
            assert len(rec.activations) == len(net.layers)
            maps, dead = oracles.deconv_walk_every_layer(
                net, rec, n, network.reverse)
            return DeconvMap(maps=maps, dead=dead)

        want, dead = oracles.dependency_scores_per_neuron(
            net, images, selected, forward, full_walk)
        assert list(table.scores) == list(want)
        for li, vals in want.items():
            assert table.scores[li].tobytes() == vals.tobytes()
        assert table.dead_layers == dead

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bitwise_the_per_neuron_pooling(self, dtype):
        net = build_cnn((1, 12, 12), [(4, 3, 1, True), (5, 3, 1, False)],
                        [6], 2, seed=23)
        if dtype == np.float64:
            net = widen_to_float64(net)
        rng = np.random.default_rng(5)
        images = [LabeledImage(Tensor(rng.random((1, 12, 12)).astype(dtype)),
                               i % 2, f"i{i}") for i in range(4)]
        images.append(LabeledImage(Tensor(np.zeros((1, 12, 12), dtype)), 0, "z"))
        selected = [4, 0, 2]
        table = dependency_scores(net, images, selected)
        want, dead = oracles.dependency_scores_per_neuron(
            net, images, selected, forward, deconv_from_neuron)
        assert list(table.scores) == list(want) == net.conv_indices()
        for li, vals in want.items():
            assert vals.dtype == dtype and table.scores[li].dtype == dtype
            assert table.scores[li].tobytes() == vals.tobytes()
        assert table.dead_layers == dead
        assert table.selected.tolist() == selected

    def test_duplicate_selected_neurons_rejected(self, setup):
        net, images = setup
        with pytest.raises(ConfigurationError, match="distinct"):
            dependency_scores(net, images, [1, 2, 1])

    @pytest.mark.parametrize("selected,message", BAD_SELECTED,
                             ids=BAD_SELECTED_IDS)
    def test_selected_ids_must_be_ints(self, setup, selected, message):
        net, images = setup
        with pytest.raises(ConfigurationError, match=message):
            dependency_scores(net, images, selected)

    def test_numpy_int_ids_are_accepted(self, setup):
        net, images = setup
        want = dependency_scores(net, images, [2, 0])
        got = dependency_scores(net, images, np.array([2, 0], dtype=np.int32))
        assert got.selected.dtype == np.int64 and got.selected.tolist() == [2, 0]
        for li in want.scores:
            assert got.scores[li].tobytes() == want.scores[li].tobytes()

    def test_empty_inputs_rejected(self, setup):
        net, images = setup
        with pytest.raises(ConfigurationError, match="empty"):
            dependency_scores(net, images, [])
        with pytest.raises(ConfigurationError, match="empty"):
            dependency_scores(net, [], [0])


class TestOneFiringRule:
    """Ranking and walk read one firing: the peak of np.maximum(conv, 0)."""

    def test_pool_before_relu_is_accepted_by_both(self):
        net = pool_before_relu_net()
        rng = np.random.default_rng(8)
        images = [labeled(rng.random((1, 8, 8)) - 0.3, i % 2, f"i{i}")
                  for i in range(4)]
        mat = extract_firing_matrix(net, images, 2)
        table = dependency_scores(net, images, [0, 2])
        assert sorted(table.scores) == [0, 2]
        for k, s in enumerate(images):
            _, rec = forward(net, s.image, record=True)
            want = np.maximum(rec.activations[2], 0).reshape(3, -1).max(axis=1)
            assert mat.values[k].tobytes() == want.astype(np.float64).tobytes()
            for n in range(3):
                dmap = deconv_from_neuron(net, rec, n)
                assert dmap.dead == (mat.values[k, n] == 0)
                assert dmap.maps[2].max() == mat.values[k, n]

    def test_walk_stops_at_layer_0_and_record_at_last_conv(self, monkeypatch):
        net = reference_cnn(seed=0)
        last = net.last_conv_index()
        images = generate_synthetic(2, seed=3).train[:2]
        ran, adjoined, records = [], [], []
        real_build, real_adjoint = network._build, ops.conv2d_adjoint
        real_forward = deconv.forward

        def build(net, x, fuse):
            ran.extend(net.layers)
            return real_build(net, x, fuse)

        def adjoint(gout, kernel, *args, **kwargs):
            adjoined.append(kernel)
            return real_adjoint(gout, kernel, *args, **kwargs)

        def recording(net, x, record=False, hook=None):
            out = real_forward(net, x, record=record, hook=hook)
            records.append(out[1])
            return out

        monkeypatch.setattr(network, "_build", build)
        monkeypatch.setattr(ops, "conv2d_adjoint", adjoint)
        monkeypatch.setattr(deconv, "forward", recording)
        table = dependency_scores(net, images, list(range(32)))
        assert len(table.scores) == 6
        assert len(records) == 2
        assert all(len(r.activations) == last + 1 for r in records)
        trunk = net.layers[: last + 1]
        assert ran and all(any(l is t for t in trunk) for l in ran)
        assert adjoined and all(k is not net.layers[0].weights for k in adjoined)
        assert any(k is net.layers[2].weights for k in adjoined)

    def test_nan_image_is_a_non_finite_error(self):
        net = build_cnn((1, 8, 8), [(3, 3, 1, True), (4, 3, 1, False)],
                        [6], 2, seed=22)
        image = labeled(np.full((1, 8, 8), np.nan))
        with pytest.raises(NonFiniteError, match="NaN or infinity"):
            dependency_scores(net, [image], [0])
