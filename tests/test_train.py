"""Backprop gradients, the SGD loop, masking, and failure modes."""

import importlib
import warnings

import numpy as np
import pytest

from fisherprune import ops
from fisherprune.errors import ConfigurationError, TrainingDiverged
from fisherprune.network import build_cnn, forward, reference_cnn, reverse
from fisherprune.prune import magnitude_mask
from fisherprune.tensor import Tensor
from fisherprune.train import (
    MOMENTUM, WEIGHT_DECAY, TrainConfig, accuracy, backward, cross_entropy,
    retrain, sgd_epoch, train,
)

import oracles
from test_network import overlapping_pool_net
from test_ops import assert_float32_close

# the package re-exports the function `train`, which hides the module
train_module = importlib.import_module("fisherprune.train")


def widen_to_float64(net):
    """Swap all parameters for float64 copies so finite differences behave."""
    for layer in net.layers:
        if layer.weights is not None:
            layer.weights = layer.weights.astype(np.float64)
            layer.bias = layer.bias.astype(np.float64)
    return net


def refuse_epochs(*args, **kwargs):
    raise AssertionError("an epoch ran before the check")


def toy_split(n=8, size=16, seed=2):
    """Left-bright vs right-bright squares, linearly separable on purpose."""
    rng = np.random.default_rng(seed)
    images, labels = [], []
    for label in (0, 1):
        for _ in range(n):
            img = rng.normal(0.1, 0.02, (1, size, size))
            half = slice(0, size // 2) if label == 0 else slice(size // 2, size)
            img[0, :, half] += 0.8
            images.append(np.clip(img, 0, 1).astype(np.float32))
            labels.append(label)
    return images, np.array(labels, dtype=np.int64)


def assert_grads_match_central_differences(net, x, label):
    """backward's grads of every parametric layer vs finite differences."""
    _, rec = forward(net, Tensor(x), record=True)
    grads = backward(net, rec, label)

    def loss():
        return cross_entropy(forward(net, Tensor(x)).data, label)

    assert set(grads) == {i for i, l in enumerate(net.layers)
                          if l.weights is not None}
    for li, (dw, db) in grads.items():
        for analytic, params in ((dw, net.layers[li].weights),
                                 (db, net.layers[li].bias)):
            fd = oracles.central_difference_grads(loss, params)
            scale = np.abs(fd).max() + 1e-8
            assert np.abs(analytic - fd).max() <= 1e-4 * scale
    return rec


class TestGradients:
    def test_matches_central_differences_everywhere(self):
        """Analytic grads vs finite differences on every parametric layer."""
        net = widen_to_float64(
            build_cnn((1, 6, 6), [(2, 3, 1, True)], [4], 2, seed=11))
        x = np.random.default_rng(4).random((1, 6, 6))
        assert_grads_match_central_differences(net, x, 1)

    def test_overlapping_pools_add_where_windows_share_a_winner(self):
        """3x3 pools at strides 2 and 1: an input cell that wins several
        windows gets the sum of their gradients."""
        net = widen_to_float64(overlapping_pool_net())
        x = np.random.default_rng(7).random((1, 9, 9))
        rec = assert_grads_match_central_differences(net, x, 0)
        assert all(np.unique(sw).size < sw.size for sw in rec.switches.values())

    def test_float32_net_matches_its_float64_copy(self):
        """A float32 net backprops in float32 within a float32 tolerance of
        the same net in float64, and the float64 copy (the setting of the
        finite-difference checks) stays float64 end to end."""
        net = reference_cnn(seed=0)
        x = np.random.default_rng(5).random((1, 32, 32), dtype=np.float32)
        grads = {}
        for dtype, n in ((np.float32, net),
                         (np.float64, widen_to_float64(net.copy()))):
            _, rec = forward(n, Tensor(x.astype(dtype)), record=True)
            signals = [s for _, s in reverse(n, rec, len(n.layers) - 2,
                                             rec.activations[-1])]
            grads[dtype] = backward(n, rec, 1)
            assert {a.dtype for a in rec.activations + signals} == {np.dtype(dtype)}
            assert {a.dtype for pair in grads[dtype].values()
                    for a in pair} == {np.dtype(dtype)}
        # one kernel stays within 1e-6 of its float64 result; a whole-net
        # backward compounds the rounding of every layer, and other seeds
        # reach 1.05e-6, so it gets one more digit
        for li, pair in grads[np.float32].items():
            for got, want in zip(pair, grads[np.float64][li]):
                assert_float32_close(got, want, tol=1e-5)

    def test_no_adjoint_runs_below_the_first_layer(self, monkeypatch):
        net = reference_cnn(seed=0)
        x = Tensor(np.random.default_rng(1).random((1, 32, 32), dtype=np.float32))
        _, rec = forward(net, x, record=True)
        calls = []
        adjoint = ops.conv2d_adjoint

        def spy(gout, *args, **kwargs):
            calls.append(gout.shape)
            return adjoint(gout, *args, **kwargs)

        monkeypatch.setattr(ops, "conv2d_adjoint", spy)
        backward(net, rec, 0)
        # one adjoint per conv above layer 0, from the top down
        convs = net.conv_indices()[1:][::-1]
        assert calls == [rec.activations[i].shape for i in convs]

    def test_backward_needs_softmax_tail(self):
        net = build_cnn((1, 6, 6), [(2, 3, 1, False)], [], 2, seed=0)
        net.layers.pop()  # drop the softmax
        x = Tensor(np.zeros((1, 6, 6), dtype=np.float32))
        _, rec = forward(net, x, record=True)
        with pytest.raises(ConfigurationError):
            backward(net, rec, 0)


class TestTrainLoop:
    def test_learns_separable_toy_task(self):
        images, labels = toy_split()
        net = build_cnn((1, 16, 16), [(4, 3, 1, True)], [8], 2, seed=1)
        result = train(net, images, labels, images, labels,
                       TrainConfig(epochs=8, seed=0))
        assert result.final_train_acc == 1.0
        assert accuracy(net, images, labels) == 1.0

    def test_accuracy_refuses_an_empty_set(self):
        net = build_cnn((1, 16, 16), [(4, 3, 1, True)], [8], 2, seed=1)
        with pytest.raises(ConfigurationError, match="evaluation set is empty"):
            accuracy(net, [], [])

    def test_same_seed_reproduces_weights(self):
        images, labels = toy_split()
        nets = []
        for _ in range(2):
            net = build_cnn((1, 16, 16), [(4, 3, 1, True)], [8], 2, seed=1)
            train(net, images, labels, images, labels,
                  TrainConfig(epochs=2, seed=0))
            nets.append(net)
        for a, b in zip(nets[0].layers, nets[1].layers):
            if a.weights is not None:
                np.testing.assert_array_equal(a.weights, b.weights)

    def test_momentum_step_matches_the_formula_bit_for_bit(self):
        images, labels = toy_split(n=2)
        net = build_cnn((1, 16, 16), [(4, 3, 1, True)], [8], 2, seed=1)
        ref = net.copy()
        m, lr, wd = MOMENTUM, 0.05, WEIGHT_DECAY
        rng = np.random.default_rng(3)
        velocity = {
            li: tuple((0.01 * rng.standard_normal(a.shape)).astype(np.float32)
                      for a in (net.layers[li].weights, net.layers[li].bias))
            for li in (0, 4, 6)
        }
        start = {li: (vw.copy(), vb.copy()) for li, (vw, vb) in velocity.items()}
        held = {li: v for li, v in velocity.items()}
        _, rec = forward(ref, Tensor(images[3]), record=True)
        grads = backward(ref, rec, int(labels[3]))
        sgd_epoch(net, images, labels, [3], lr, velocity)
        assert set(grads) == set(velocity)
        for li, (dw, db) in grads.items():
            w, b = ref.layers[li].weights, ref.layers[li].bias
            vw0, vb0 = start[li]
            vw = m * vw0 - lr * (dw + wd * w)
            vb = m * vb0 - lr * db
            assert vw.dtype == vb.dtype == np.float32
            for got, want in ((velocity[li][0], vw), (velocity[li][1], vb),
                              (net.layers[li].weights, w + vw),
                              (net.layers[li].bias, b + vb)):
                np.testing.assert_array_equal(got, want)
            # updated in place: the caller's velocity arrays are the same objects
            assert velocity[li][0] is held[li][0] and velocity[li][1] is held[li][1]

    def test_momentum_starts_from_zero_velocity(self):
        images, labels = toy_split(n=2)
        net = build_cnn((1, 16, 16), [(4, 3, 1, True)], [8], 2, seed=1)
        ref = net.copy()
        lr, wd = 0.05, WEIGHT_DECAY
        _, rec = forward(ref, Tensor(images[0]), record=True)
        grads = backward(ref, rec, int(labels[0]))
        velocity = {}
        sgd_epoch(net, images, labels, [0], lr, velocity)
        for li, (dw, db) in grads.items():
            w = ref.layers[li].weights
            np.testing.assert_array_equal(
                velocity[li][0], MOMENTUM * np.zeros_like(w) - lr * (dw + wd * w))
            np.testing.assert_array_equal(velocity[li][1], -lr * db)

    def test_huge_rate_diverges(self):
        images, labels = toy_split()
        net = build_cnn((1, 16, 16), [(4, 3, 1, True)], [8], 2, seed=1)
        with pytest.raises(TrainingDiverged), warnings.catch_warnings():
            # the blow-up path legitimately overflows float32 on the way to NaN
            warnings.simplefilter("ignore", RuntimeWarning)
            train(net, images, labels, images, labels,
                  TrainConfig(epochs=5, lr=1e5, seed=0))

    def test_nan_image_diverges_naming_the_sample(self):
        # the NaN has to survive conv, relu and max-pool to reach softmax
        images, labels = toy_split()
        images[5][0, 3, 3] = np.nan
        net = build_cnn((1, 16, 16), [(4, 3, 1, True)], [8], 2, seed=1)
        with pytest.raises(TrainingDiverged, match=r"sample 5\b") as info:
            train(net, images, labels, images, labels,
                  TrainConfig(epochs=1, seed=0))
        assert info.value.sample == 5
        assert info.value.epoch == 0
        assert info.value.layer == 0  # the first conv already outputs NaN

    def test_inf_dense_weight_names_the_dense_layer(self):
        images, labels = toy_split(n=2, size=32)
        net = reference_cnn(seed=0)
        assert net.layers[16].kind == "dense"
        net.layers[16].weights[0, 0] = np.inf
        with pytest.raises(TrainingDiverged, match="first at layer 16") as info, \
                warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # inf * 0 is NaN
            train(net, images, labels, images, labels,
                  TrainConfig(epochs=1, seed=0))
        assert info.value.layer == 16
        assert info.value.epoch == 0

    def test_layer_is_searched_only_after_divergence(self, monkeypatch):
        def refuse(net, x):
            raise AssertionError("layer search on a finite sample")

        monkeypatch.setattr(train_module, "_first_non_finite_layer", refuse)
        images, labels = toy_split(n=2)
        net = build_cnn((1, 16, 16), [(4, 3, 1, True)], [8], 2, seed=1)
        train(net, images, labels, images, labels, TrainConfig(epochs=1))

    def test_empty_train_set_rejected(self):
        net = build_cnn((1, 16, 16), [(4, 3, 1, True)], [8], 2, seed=1)
        with pytest.raises(ConfigurationError):
            train(net, [], np.array([], dtype=np.int64), [], [],
                  TrainConfig(epochs=1))

    @pytest.mark.parametrize("fit", [train, retrain])
    def test_empty_eval_set_rejected_before_any_epoch(self, monkeypatch, fit):
        monkeypatch.setattr(train_module, "sgd_epoch", refuse_epochs)
        images, labels = toy_split(n=2)
        net = build_cnn((1, 16, 16), [(4, 3, 1, True)], [8], 2, seed=1)
        with pytest.raises(ConfigurationError, match="evaluation set is empty"):
            fit(net, images, labels, [], [], TrainConfig(epochs=3))

    def test_zero_epochs_need_no_eval_set(self):
        images, labels = toy_split(n=2)
        net = build_cnn((1, 16, 16), [(4, 3, 1, True)], [8], 2, seed=1)
        assert train(net, images, labels, [], [],
                     TrainConfig(epochs=0)).epoch_log == []

    @pytest.mark.parametrize("field,value,message", [
        ("lr", -1.0, "lr must be finite and > 0"),
        ("lr", 0.0, "lr must be finite and > 0"),
        ("lr", float("nan"), "lr must be finite and > 0"),
        ("lr", float("inf"), "lr must be finite and > 0"),
        ("lr", "0.1", "lr must be a number, got '0.1'"),
        ("lr", True, "lr must be a number, got True"),
        ("lr", None, "lr must be a number, got None"),
    ])
    def test_bad_rates_rejected(self, field, value, message):
        with pytest.raises(ConfigurationError, match=message):
            TrainConfig(**{field: value})

    def test_numpy_and_int_rates_are_accepted(self):
        assert TrainConfig(lr=np.float32(0.5)).lr == np.float32(0.5)
        assert TrainConfig(lr=1).lr == 1

    @pytest.mark.parametrize("field,value,message", [
        ("seed", -1, "seed must be >= 0, got -1"),
        ("seed", 1.5, "seed must be an int, got 1.5"),
        ("seed", True, "seed must be an int, got True"),
        ("seed", "0", "seed must be an int, got '0'"),
        ("epochs", 1.5, "epochs must be an int, got 1.5"),
        ("epochs", True, "epochs must be an int, got True"),
    ], ids=["seed_negative", "seed_float", "seed_bool", "seed_str",
            "epochs_float", "epochs_bool"])
    def test_non_int_or_negative_counts_rejected(self, field, value, message):
        with pytest.raises(ConfigurationError, match=message):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("fit", [train, retrain])
    def test_negative_epochs_rejected(self, fit):
        images, labels = toy_split(n=2)
        net = build_cnn((1, 16, 16), [(4, 3, 1, True)], [8], 2, seed=1)
        with pytest.raises(ConfigurationError, match="epochs must be >= 0"):
            fit(net, images, labels, images, labels, TrainConfig(epochs=-1))

    def test_out_of_range_labels_rejected(self):
        images, labels = toy_split(n=2)
        net = build_cnn((1, 16, 16), [(4, 3, 1, True)], [8], 2, seed=1)
        with pytest.raises(ConfigurationError, match="labels"):
            train(net, images, labels + 1, images, labels,
                  TrainConfig(epochs=1))

    @pytest.mark.parametrize("where", ["train", "eval"])
    @pytest.mark.parametrize("bad", [0.5, True, 2, -1],
                             ids=["half", "bool", "two", "minus_one"])
    def test_labels_must_be_int_zero_or_one(self, monkeypatch, where, bad):
        """A label of 0.5 is refused, not trained as class 0."""
        images, labels = toy_split(n=2)
        bad_labels = list(labels[:-1]) + [bad]
        args = ((bad_labels, labels) if where == "train"
                else (labels, bad_labels))
        net = build_cnn((1, 16, 16), [(4, 3, 1, True)], [8], 2, seed=1)
        monkeypatch.setattr(train_module, "sgd_epoch", refuse_epochs)
        with pytest.raises(ConfigurationError, match="labels must be in"):
            train(net, images, args[0], images, args[1], TrainConfig(epochs=1))

    @pytest.mark.parametrize("where", ["train", "eval"])
    @pytest.mark.parametrize("n_labels", [3, 5], ids=["fewer", "more"])
    def test_one_label_per_image(self, monkeypatch, where, n_labels):
        """3 images with 2 labels used to train on 2 of them, and 2
        images with 3 labels to raise IndexError."""
        images, labels = toy_split(n=2)
        labels = list(labels)
        other = (labels + [0])[:n_labels]
        args = (other, labels) if where == "train" else (labels, other)
        net = build_cnn((1, 16, 16), [(4, 3, 1, True)], [8], 2, seed=1)
        monkeypatch.setattr(train_module, "sgd_epoch", refuse_epochs)
        with pytest.raises(ConfigurationError,
                           match=f"has 4 images but {n_labels} labels"):
            train(net, images, args[0], images, args[1], TrainConfig(epochs=1))

    def test_accuracy_needs_one_label_per_image(self):
        images, labels = toy_split(n=2)
        net = build_cnn((1, 16, 16), [(4, 3, 1, True)], [8], 2, seed=1)
        with pytest.raises(ConfigurationError,
                           match="evaluation set has 1 images but 2 labels"):
            accuracy(net, images[:1], [0, 1])
        with pytest.raises(ConfigurationError, match="labels must be in"):
            accuracy(net, images[:1], [0.5])

    def test_weight_mask_keeps_zeros_pinned(self):
        images, labels = toy_split(n=4)
        net = build_cnn((1, 16, 16), [(4, 3, 1, True)], [8], 2, seed=1)
        mask = np.ones_like(net.layers[0].weights)
        mask[2:] = 0.0  # kill the last two filters for good
        train(net, images, labels, images, labels,
              TrainConfig(epochs=3, seed=0), weight_mask={0: mask})
        assert np.all(net.layers[0].weights[2:] == 0.0)
        assert np.any(net.layers[0].weights[:2] != 0.0)

    def test_masked_retrain_is_the_remasking_loop_with_masked_at_plus_zero(self):
        images, labels = toy_split(n=4)
        net = build_cnn((1, 16, 16), [(4, 3, 1, True), (6, 3, 1, False)],
                        [8], 2, seed=3)
        masks = magnitude_mask(net, 0.5)
        cfg = TrainConfig(epochs=2, lr=0.02, seed=4)
        got = net.copy()
        retrain(got, images, labels, images, labels, cfg, weight_mask=masks)

        def grads_of(net, image, label):
            return backward(net, forward(net, Tensor(image), record=True)[1], label)

        want = net.copy()
        for li, m in masks.items():
            want.layers[li].weights *= m
        rng, velocity = np.random.default_rng(cfg.seed), {}
        for _ in range(cfg.epochs):
            oracles.masked_sgd_epoch_remasking(
                want, images, labels, rng.permutation(len(labels)),
                cfg.lr * 0.1, velocity, masks, grads_of, MOMENTUM, WEIGHT_DECAY)
        for a, b in zip(got.layers, want.layers):
            if b.weights is not None:
                assert a.weights.tobytes() == b.weights.tobytes()
                assert a.bias.tobytes() == b.bias.tobytes()
        for li, m in masks.items():
            masked = got.layers[li].weights[m == 0]
            assert masked.size and not masked.any()
            assert not np.signbit(masked).any()  # +0.0, never -0.0
            # the masked positions held negative weights before pruning
            assert (net.layers[li].weights[m == 0] < 0).any()

    def test_retrain_fine_tunes_in_place(self):
        images, labels = toy_split()
        net = build_cnn((1, 16, 16), [(4, 3, 1, True)], [8], 2, seed=1)
        train(net, images, labels, images, labels, TrainConfig(epochs=8, seed=0))
        before = net.layers[0].weights.copy()
        result = retrain(net, images, labels, images, labels,
                         TrainConfig(epochs=2, seed=0))
        # weights moved a little but the solved task stayed solved
        assert not np.array_equal(before, net.layers[0].weights)
        assert np.abs(before - net.layers[0].weights).max() < 0.1
        assert result.final_train_acc == 1.0

