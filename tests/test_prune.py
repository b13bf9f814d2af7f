"""Prune plans, physical slicing vs masked semantics, search, baselines."""

import math

import numpy as np
import pytest

from fisherprune.data import generate_synthetic, images_labels
from fisherprune.deconv import DependencyTable, dependency_scores
from fisherprune.errors import ConfigurationError, DimensionError
from fisherprune import ops
from fisherprune.network import (
    LayerSpec, Network, build_cnn, forward, logits, reference_cnn,
)
from fisherprune.prune import (
    PrunePlan, PruneReport, apply_prune, build_prune_plan, equivalence_check,
    layer_param_counts, magnitude_baseline, magnitude_mask, masked_forward, plateau_threshold_search,
)
from fisherprune.tensor import Tensor
from fisherprune.train import TrainConfig, accuracy, retrain

import oracles
from test_deconv import BAD_SELECTED, BAD_SELECTED_IDS


def identity_plan(net):
    """A plan that keeps every filter of every conv layer."""
    keep = {i: np.arange(net.layers[i].weights.shape[0], dtype=np.int64)
            for i in net.conv_indices()}
    return PrunePlan(keep=keep, threshold=0.0)


def toy_table():
    return DependencyTable(
        scores={0: np.array([0.9, 0.2, 0.6]), 3: np.array([1.0, 1.0, 0.0, 0.0])},
        selected=np.array([1, 2]), n_images=1,
    )


def masked_reference(net, plan, x):
    """Every layer's output, applying the ops one layer at a time and
    zeroing the dropped channels at each conv's own output."""
    cur, acts = x.data, []
    for i, layer in enumerate(net.layers):
        if layer.kind == "conv":
            cur = ops.conv2d_forward(cur, layer.weights, layer.bias,
                                     stride=layer.stride, pad=layer.pad)
            mask = np.zeros(cur.shape[0], dtype=np.float32)
            mask[plan.keep[i]] = 1.0
            cur = cur * mask[:, None, None]
        elif layer.kind == "relu":
            cur = ops.relu_forward(cur)
        elif layer.kind == "maxpool":
            cur, _ = ops.maxpool_forward(cur, layer.window, layer.stride)
        elif layer.kind == "flatten":
            cur = cur.reshape(-1)
        elif layer.kind == "dense":
            cur = ops.dense_forward(cur, layer.weights, layer.bias)
        else:
            cur = ops.softmax(cur)
        acts.append(cur)
    return acts


def pool_first_net(seed=21):
    """conv -> maxpool -> relu -> conv -> relu: no relu right after conv 0."""
    rng = np.random.default_rng(seed)

    def draw(*shape):
        return rng.standard_normal(shape).astype(np.float32)

    return Network((1, 8, 8), [
        LayerSpec("conv", draw(3, 1, 3, 3), draw(3), pad=1),
        LayerSpec("maxpool", window=2, stride=2),
        LayerSpec("relu"), LayerSpec("conv", draw(4, 3, 3, 3), draw(4), pad=1),
        LayerSpec("relu"), LayerSpec("flatten"),
        LayerSpec("dense", draw(2, 64), draw(2)), LayerSpec("softmax"),
    ])


def toy_net(seed=13):
    # conv layers land at indices 0 and 3
    return build_cnn((1, 8, 8), [(3, 3, 1, True), (4, 3, 1, False)],
                     [6], 2, seed=seed)


class TestPlanBuilding:
    def test_threshold_keeps_high_scores(self):
        plan = build_prune_plan(toy_table(), [1, 2], 0.5)
        assert plan.keep[0].tolist() == [0, 2]
        assert plan.keep[3].tolist() == [1, 2]  # forced to the selected set
        assert not plan.forced_layers

    def test_zero_threshold_keeps_everything_below_top(self):
        plan = build_prune_plan(toy_table(), [1, 2], 0.0)
        assert plan.keep[0].tolist() == [0, 1, 2]
        assert plan.keep[3].tolist() == [1, 2]

    def test_empty_layer_guard(self):
        plan = build_prune_plan(toy_table(), [1, 2], 0.95)
        assert plan.keep[0].tolist() == [0]  # highest scorer survives
        assert plan.forced_layers == {0}

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            build_prune_plan(toy_table(), [1], 1.5)
        with pytest.raises(ConfigurationError):
            build_prune_plan(toy_table(), [], 0.5)

    def test_duplicate_selected_neurons_rejected(self):
        with pytest.raises(ConfigurationError, match="distinct"):
            build_prune_plan(toy_table(), [2, 1, 2], 0.5)

    @pytest.mark.parametrize("selected,message", BAD_SELECTED,
                             ids=BAD_SELECTED_IDS)
    def test_selected_ids_must_be_ints(self, selected, message):
        with pytest.raises(ConfigurationError, match=message):
            build_prune_plan(toy_table(), selected, 0.5)

    def test_param_counts_by_hand(self):
        net = toy_net()
        plan = build_prune_plan(toy_table(), [1, 2], 0.5)
        counts = layer_param_counts(net, apply_prune(net, plan))
        assert counts[0] == (3 * 9 + 3, 2 * 9 + 2)
        assert counts[3] == (4 * 3 * 9 + 4, 2 * 2 * 9 + 2)
        want_rate = 1.0 - (20 + 38) / (30 + 112)
        assert plan.conv_rate(net) == pytest.approx(want_rate)


class TestApplyPrune:
    def test_identity_plan_changes_nothing(self):
        net = toy_net()
        pruned = apply_prune(net, identity_plan(net))
        x = Tensor(np.random.default_rng(0).random((1, 8, 8)).astype(np.float32))
        np.testing.assert_array_equal(
            forward(net, x).data, forward(pruned, x).data)

    def test_shapes_shrink_and_values_copy(self):
        net = toy_net()
        plan = build_prune_plan(toy_table(), [1, 2], 0.5)
        pruned = apply_prune(net, plan)
        assert pruned.layers[0].weights.shape == (2, 1, 3, 3)
        assert pruned.layers[3].weights.shape == (2, 2, 3, 3)
        np.testing.assert_array_equal(
            pruned.layers[0].weights, net.layers[0].weights[[0, 2]])
        np.testing.assert_array_equal(
            pruned.layers[3].weights,
            net.layers[3].weights[[1, 2]][:, [0, 2]])
        # dense input: 2 surviving channels x 4x4 spatial
        assert pruned.layers[6].weights.shape == (6, 2 * 16)
        assert net.layers[6].weights.shape == (6, 4 * 16)

    def test_plan_must_cover_all_convs(self):
        net = toy_net()
        plan = identity_plan(net)
        del plan.keep[3]
        with pytest.raises(DimensionError, match="plan layers"):
            apply_prune(net, plan)

    def test_keep_indices_bounded(self):
        net = toy_net()
        plan = identity_plan(net)
        plan.keep[0] = np.array([0, 7])
        with pytest.raises(DimensionError, match="out of range"):
            apply_prune(net, plan)

    @pytest.mark.parametrize("kept", [[0, 2, 2], [2, 0], [1, 0, 2]],
                             ids=["duplicate", "descending", "unsorted"])
    def test_keep_list_must_ascend_without_repeats(self, kept):
        net = toy_net()
        plan = identity_plan(net)
        plan.keep[0] = np.array(kept)
        x = Tensor(np.zeros((1, 8, 8), dtype=np.float32))
        for call in (lambda: apply_prune(net, plan),
                     lambda: masked_forward(net, plan, x)):
            with pytest.raises(DimensionError,
                               match="layer 0: keep-list must ascend"):
                call()

    def test_keep_list_must_be_one_dimensional(self):
        net = toy_net()
        plan = identity_plan(net)
        plan.keep[0] = np.array([[0, 1]])
        with pytest.raises(DimensionError, match="out of range"):
            apply_prune(net, plan)

    def test_net_without_conv_layers_rejected(self):
        net = Network((4,), [LayerSpec("dense", np.ones((2, 4)), np.zeros(2)),
                             LayerSpec("softmax")])
        plan = PrunePlan(keep={}, threshold=0.0)
        x = Tensor(np.zeros(4, dtype=np.float32))
        with pytest.raises(DimensionError, match="no conv layer"):
            apply_prune(net, plan)
        with pytest.raises(DimensionError, match="no conv layer"):
            masked_forward(net, plan, x)


class TestMaskedSemantics:
    def test_masked_channels_are_silent(self):
        net = toy_net()
        plan = build_prune_plan(toy_table(), [1, 2], 0.5)
        x = Tensor(np.random.default_rng(1).random((1, 8, 8)).astype(np.float32))
        _, acts = masked_forward(net, plan, x)
        assert not acts[1][1].any()        # dropped filter 1 of conv 0
        assert acts[1][[0, 2]].any()
        assert not acts[4][[0, 3]].any()   # dropped filters of conv 3

    def test_pruned_equals_masked(self):
        from fisherprune.data import LabeledImage

        net = toy_net()
        rng = np.random.default_rng(2)
        images = [LabeledImage(Tensor(rng.random((1, 8, 8)).astype(np.float32)),
                               i % 2, f"p{i}") for i in range(4)]
        for threshold in (0.0, 0.3, 0.5, 0.95):
            plan = build_prune_plan(toy_table(), [1, 2], threshold)
            assert equivalence_check(net, plan, images) <= 1e-6

    def test_equivalence_check_refuses_an_empty_set(self):
        plan = build_prune_plan(toy_table(), [1, 2], 0.5)
        with pytest.raises(ConfigurationError, match="evaluation set is empty"):
            equivalence_check(toy_net(), plan, [])

    def test_logit_helpers_agree(self):
        net = toy_net()
        plan = build_prune_plan(toy_table(), [1, 2], 0.5)
        x = Tensor(np.random.default_rng(3).random((1, 8, 8)).astype(np.float32))
        ref = masked_forward(net, plan, x)[1][-2]
        got = logits(apply_prune(net, plan), x).data
        np.testing.assert_allclose(got, ref, atol=1e-6)

    def test_identity_plan_is_the_plain_forward(self):
        net = toy_net()
        x = Tensor(np.random.default_rng(4).random((1, 8, 8)).astype(np.float32))
        out, acts = masked_forward(net, identity_plan(net), x)
        want, rec = forward(net, x, record=True)
        np.testing.assert_array_equal(out.data, want.data)
        assert len(acts) == len(rec.activations)
        for got, ref in zip(acts, rec.activations):
            np.testing.assert_array_equal(got, ref)

    def test_matches_layer_by_layer_masking(self):
        net = toy_net()
        rng = np.random.default_rng(5)
        plans = [build_prune_plan(toy_table(), [1, 2], 0.5),
                 PrunePlan(keep={0: np.array([1]), 3: np.array([0, 3])},
                           threshold=0.0)]
        for plan in plans:
            x = Tensor(rng.random((1, 8, 8)).astype(np.float32))
            out, acts = masked_forward(net, plan, x)
            want = masked_reference(net, plan, x)
            assert len(acts) == len(want)
            for got, ref in zip(acts, want):
                np.testing.assert_array_equal(got, ref)
            np.testing.assert_array_equal(out.data, want[-1])

    @staticmethod
    def _check_against_masked(net, plan):
        from fisherprune.data import LabeledImage

        net.infer_shapes()
        rng = np.random.default_rng(7)
        images = [LabeledImage(Tensor(rng.random((1, 4, 4)).astype(np.float32)),
                               i % 2, f"f{i}") for i in range(4)]
        assert equivalence_check(net, plan, images) <= 1e-4
        return apply_prune(net, plan)

    def test_flatten_of_a_flattened_map_is_a_reshape(self):
        rng = np.random.default_rng(8)
        net = Network((1, 4, 4), [
            LayerSpec("conv", rng.standard_normal((3, 1, 3, 3)), np.ones(3), pad=1),
            LayerSpec("flatten"), LayerSpec("flatten"),
            LayerSpec("dense", rng.standard_normal((2, 48)), np.zeros(2)),
            LayerSpec("softmax"),
        ])
        for kept in ([1], [0, 2]):
            plan = PrunePlan(keep={0: np.array(kept)}, threshold=0.0)
            pruned = self._check_against_masked(net, plan)
            assert pruned.layers[3].weights.shape == (2, 16 * len(kept))

    def test_flatten_after_a_dense_layer_is_a_reshape(self):
        rng = np.random.default_rng(9)
        net = Network((1, 4, 4), [
            LayerSpec("conv", rng.standard_normal((3, 1, 3, 3)), np.ones(3), pad=1),
            LayerSpec("relu"), LayerSpec("flatten"),
            LayerSpec("dense", rng.standard_normal((5, 48)), np.zeros(5)),
            LayerSpec("relu"), LayerSpec("flatten"),
            LayerSpec("dense", rng.standard_normal((2, 5)), np.zeros(2)),
            LayerSpec("softmax"),
        ])
        plan = PrunePlan(keep={0: np.array([0, 2])}, threshold=0.0)
        pruned = self._check_against_masked(net, plan)
        assert pruned.layers[3].weights.shape == (5, 32)
        np.testing.assert_array_equal(pruned.layers[6].weights,
                                      net.layers[6].weights)

    def test_conv_followed_by_a_pool_is_masked(self):
        from fisherprune.data import LabeledImage

        net = pool_first_net()
        net.infer_shapes()
        plan = PrunePlan(keep={0: np.array([0, 2]), 3: np.array([0, 1, 2])},
                         threshold=0.0)
        rng = np.random.default_rng(6)
        images = [LabeledImage(Tensor(rng.random((1, 8, 8)).astype(np.float32)),
                               i % 2, f"p{i}") for i in range(4)]
        assert equivalence_check(net, plan, images) <= 1e-6
        out, acts = masked_forward(net, plan, images[0].image)
        want = masked_reference(net, plan, images[0].image)
        for got, ref in zip(acts, want):
            np.testing.assert_array_equal(got, ref)
        assert not acts[0][1].any() and acts[0][[0, 2]].all()

    def test_plan_missing_a_conv_layer_rejected(self):
        net = toy_net()
        plan = identity_plan(net)
        del plan.keep[3]
        x = Tensor(np.zeros((1, 8, 8), dtype=np.float32))
        with pytest.raises(DimensionError, match="plan layers"):
            masked_forward(net, plan, x)

    def test_keep_index_past_filter_count_rejected(self):
        net = toy_net()
        plan = identity_plan(net)
        plan.keep[0] = np.array([7])
        x = Tensor(np.zeros((1, 8, 8), dtype=np.float32))
        with pytest.raises(DimensionError, match="layer 0: keep-list out of range"):
            masked_forward(net, plan, x)


class TestPlateauSearch:
    @pytest.fixture
    def setup(self):
        split = generate_synthetic(5, size=16, seed=7)
        net = build_cnn((1, 16, 16), [(3, 3, 1, True), (4, 3, 1, True)],
                        [6], 2, seed=7)
        table = dependency_scores(net, split.train[:2], [0, 2])
        return net, table, split

    def test_flat_plateau_picks_largest_threshold(self, setup):
        net, table, split = setup
        positive = np.concatenate(
            [s[s > 0] for s in table.scores.values()])
        tiny = float(positive.min())
        grid = [tiny / 4, tiny / 3, tiny / 2]  # all plans identical here
        cfg = TrainConfig(epochs=1, seed=0)
        t0, reports = plateau_threshold_search(
            net, table, [0, 2], split, grid, retrain_config=cfg)
        assert t0 == grid[-1]
        assert len({r.acc_after for r in reports}) == 1

    def test_plateau_rule_and_rate_monotonicity(self, setup):
        net, table, split = setup
        grid = [0.0, 0.4, 0.8]
        cfg = TrainConfig(epochs=1, seed=0)
        t0, reports = plateau_threshold_search(
            net, table, [0, 2], split, grid, eps_acc=0.05, retrain_config=cfg)
        best = max(r.acc_after for r in reports)
        want = max(r.threshold for r in reports if r.acc_after >= best - 0.05)
        assert t0 == want
        rates = [r.conv_rate for r in reports]
        assert rates == sorted(rates)

    def test_grid_validation(self, setup):
        net, table, split = setup
        with pytest.raises(ConfigurationError):
            plateau_threshold_search(net, table, [0], split, [])
        with pytest.raises(ConfigurationError):
            plateau_threshold_search(net, table, [0], split, [0.5, 0.1])
        for eps in (0, float("nan"), float("inf")):
            with pytest.raises(ConfigurationError, match="eps_acc"):
                plateau_threshold_search(net, table, [0], split, [0.1],
                                         eps_acc=eps)
        for eps in ("0.05", True, None):
            with pytest.raises(ConfigurationError,
                               match="eps_acc must be a number"):
                plateau_threshold_search(net, table, [0], split, [0.1],
                                         eps_acc=eps)

    def test_reports_carry_each_points_plan_and_retrained_net(self, setup):
        """Each report's plan is the grid point's plan, and its net is that
        plan applied and retrained once, bit for bit."""
        net, table, split = setup
        cfg = TrainConfig(epochs=1, seed=0)
        _, reports = plateau_threshold_search(
            net, table, [0, 2], split, [0.0, 0.4, 0.8], retrain_config=cfg)
        tr_imgs, tr_labels = images_labels(split.train)
        te_imgs, te_labels = images_labels(split.test)
        for r in reports:
            plan = build_prune_plan(table, [0, 2], r.threshold)
            assert sorted(r.plan.keep) == sorted(plan.keep)
            for li in plan.keep:
                np.testing.assert_array_equal(r.plan.keep[li], plan.keep[li])
            want = apply_prune(net, plan)
            retrain(want, tr_imgs, tr_labels, te_imgs, te_labels, cfg)
            for got_layer, want_layer in zip(r.net.layers, want.layers):
                if want_layer.weights is not None:
                    assert got_layer.weights.tobytes() == want_layer.weights.tobytes()
                    assert got_layer.bias.tobytes() == want_layer.bias.tobytes()
            assert r.acc_after == accuracy(r.net, te_imgs, te_labels)

    def test_no_retrain_keeps_the_accuracy_before(self, setup):
        net, table, split = setup
        _, reports = plateau_threshold_search(
            net, table, [0, 2], split, [0.0, 0.4],
            retrain_config=TrainConfig(epochs=0, seed=0))
        te_imgs, te_labels = images_labels(split.test)
        for r in reports:
            assert r.acc_after == r.acc_before == accuracy(
                apply_prune(net, r.plan), te_imgs, te_labels)

    def test_reports_compare_by_their_numbers(self, setup):
        net, table, split = setup
        plan = build_prune_plan(table, [0, 2], 0.4)
        numbers = dict(threshold=0.4, conv_rate=0.5, acc_before=0.6,
                       acc_after=0.7)
        a = PruneReport(**numbers, plan=plan, net=apply_prune(net, plan))
        b = PruneReport(**numbers, plan=identity_plan(net), net=net.copy())
        assert a == b
        assert a != PruneReport(**{**numbers, "acc_after": 0.8}, plan=plan,
                                net=a.net)
        assert "net=" not in repr(a) and "plan=" not in repr(a)


class TestMagnitude:
    def test_masks_exactly_ceil_of_rate(self):
        net = toy_net()
        total = sum(net.layers[i].weights.size for i in net.conv_indices())
        for rate in (0.0, 0.25, 0.5, 0.9):
            masks = magnitude_mask(net, rate)
            zeros = sum(int((m == 0).sum()) for m in masks.values())
            assert zeros == math.ceil(rate * total)

    def test_smallest_weights_go_first(self):
        net = toy_net()
        w0 = net.layers[0].weights
        w0.ravel()[:5] = np.array([1e-6, -1e-7, 2e-6, -3e-6, 1e-5])
        masks = magnitude_mask(net, 4 / sum(
            net.layers[i].weights.size for i in net.conv_indices()))
        assert masks[0].ravel()[:4].tolist() == [0, 0, 0, 0]

    @pytest.mark.parametrize("rate", [0.0, 0.3, 0.9])
    def test_bitwise_the_per_layer_mask(self, rate):
        net = reference_cnn(seed=4)
        got = magnitude_mask(net, rate)
        want = oracles.magnitude_mask_per_layer(net, rate)
        assert list(got) == list(want) == net.conv_indices()
        for i, m in want.items():
            assert got[i].dtype == m.dtype and got[i].shape == m.shape
            assert got[i].tobytes() == m.tobytes()

    def test_tied_magnitudes_break_by_flat_position(self):
        net = toy_net()
        rng = np.random.default_rng(0)
        for i in net.conv_indices():  # magnitudes 0.25, 0.5 or 0.75, signs mixed
            w = net.layers[i].weights
            w[...] = rng.integers(1, 4, w.shape) * rng.choice([-0.25, 0.25], w.shape)
        got = magnitude_mask(net, 0.2)
        want = oracles.magnitude_mask_per_layer(net, 0.2)
        for i in net.conv_indices():
            assert got[i].tobytes() == want[i].tobytes()
        mags = np.concatenate([np.abs(net.layers[i].weights).ravel()
                               for i in net.conv_indices()])
        flat = np.concatenate([got[i].ravel() for i in net.conv_indices()])
        n_zero = math.ceil(0.2 * mags.size)
        smallest = np.flatnonzero(mags == 0.25)
        assert n_zero < smallest.size  # the cut falls inside the tie
        assert np.flatnonzero(flat == 0).tolist() == smallest[:n_zero].tolist()

    def test_rate_validation(self):
        net = toy_net()
        with pytest.raises(ConfigurationError):
            magnitude_mask(net, 1.0)
        with pytest.raises(ConfigurationError):
            magnitude_mask(net, -0.1)

    def test_baseline_leaves_input_net_alone(self):
        split = generate_synthetic(4, size=16, seed=2)
        net = build_cnn((1, 16, 16), [(3, 3, 1, True)], [4], 2, seed=3)
        before = net.layers[0].weights.copy()
        acc, masks = magnitude_baseline(
            net, 0.5, split, retrain_config=TrainConfig(epochs=1, seed=0))
        np.testing.assert_array_equal(net.layers[0].weights, before)
        assert 0.0 <= acc <= 1.0
        assert set(masks) == set(net.conv_indices())

    @pytest.mark.parametrize("epochs", [0, 1])
    def test_baseline_accuracy_is_the_masked_retrained_net(self, epochs):
        split = generate_synthetic(4, size=16, seed=2)
        net = build_cnn((1, 16, 16), [(3, 3, 1, True)], [4], 2, seed=3)
        cfg = TrainConfig(epochs=epochs, seed=0)
        acc, masks = magnitude_baseline(net, 0.5, split, retrain_config=cfg)
        work = net.copy()
        tr_imgs, tr_labels = images_labels(split.train)
        te_imgs, te_labels = images_labels(split.test)
        retrain(work, tr_imgs, tr_labels, te_imgs, te_labels, cfg,
                weight_mask=masks)
        assert acc == accuracy(work, te_imgs, te_labels)
