"""Classifier heads: QDA, linear SVM, RBF SVM, and their serialization."""

import tracemalloc

import numpy as np
import pytest

from fisherprune import classify
from fisherprune.classify import (
    evaluate_accuracy, fit_head, from_arrays, linear_svm_fit, predict, qda_fit,
    qda_predict, rbf_svm_fit, SvmModel, svm_decision, svm_predict, to_arrays,
)
from fisherprune.errors import (
    ConfigurationError, DimensionError, HeaderSchemaError, NonFiniteError,
)

import oracles


def blobs(n=30, gap=6.0, seed=0):
    rng = np.random.default_rng(seed)
    x0 = rng.normal((-gap / 2, 0), 1.0, (n, 2))
    x1 = rng.normal((gap / 2, 0), 1.0, (n, 2))
    x = np.vstack([x0, x1])
    y01 = np.repeat([0, 1], n)
    return x, y01, np.where(y01 == 0, -1, 1)


def gaussian_classes(seed):
    """240 rows of 32-d standard normals, z-scored per column, whose class
    +1 half is shifted by 1.0 on its first 4 dimensions; labels -1/+1."""
    rng = np.random.default_rng(seed)
    y = np.repeat([-1, 1], 120)
    x = rng.normal(0.0, 1.0, (240, 32))
    x[y == 1, :4] += 1.0
    return (x - x.mean(axis=0)) / x.std(axis=0), y


class TestQda:
    def test_separable_blobs(self):
        x, y01, _ = blobs()
        model = qda_fit(x, y01)
        acc, confusion = evaluate_accuracy(model, x, y01)
        assert acc == 1.0
        np.testing.assert_array_equal(confusion, [[30, 0], [0, 30]])

    def test_scores_match_gaussian_log_posterior(self):
        """Score gap equals the log-density gap computed via inv/slogdet."""
        x, y01, _ = blobs(seed=3)
        model = qda_fit(x, y01, lam=0.0)
        probe = np.array([0.3, -0.7])
        _, scores = qda_predict(model, probe)
        want = []
        for cls in (0, 1):
            rows = x[y01 == cls]
            mu = rows.mean(axis=0)
            cov = np.cov(rows, rowvar=False)
            diff = probe - mu
            _, logdet = np.linalg.slogdet(cov)
            quad = diff @ np.linalg.inv(cov) @ diff
            want.append(np.log(0.5) - 0.5 * logdet - 0.5 * quad)
        assert scores[1] - scores[0] == pytest.approx(want[1] - want[0],
                                                      abs=1e-9)

    def test_prior_breaks_the_tie(self):
        """Same sample cloud for both classes: the bigger prior wins."""
        rng = np.random.default_rng(1)
        base = rng.normal(0, 1, (30, 2))
        x = np.vstack([base, base, base])  # class 0 holds two copies
        y = np.array([0] * 60 + [1] * 30)
        model = qda_fit(x, y)
        pred, scores = qda_predict(model, base.mean(axis=0))
        assert pred == 0
        assert scores[0] > scores[1]

    def test_needs_more_samples_than_dims(self):
        x = np.random.default_rng(0).normal(0, 1, (4, 3))
        y = np.array([0, 0, 1, 1])
        with pytest.raises(DimensionError, match="smaller k"):
            qda_fit(x, y)

    def test_needs_both_classes(self):
        x = np.random.default_rng(0).normal(0, 1, (6, 2))
        with pytest.raises(ConfigurationError, match="absent"):
            qda_fit(x, np.zeros(6))

    def test_negative_lam_rejected(self):
        x, y01, _ = blobs(n=5)
        with pytest.raises(ConfigurationError):
            qda_fit(x, y01, lam=-1.0)

    @pytest.mark.parametrize("lam", [float("nan"), float("inf")])
    def test_non_finite_lam_rejected(self, lam):
        x, y01, _ = blobs(n=5)
        with pytest.raises(ConfigurationError, match="lam must be finite"):
            qda_fit(x, y01, lam=lam)

    @pytest.mark.parametrize("lam", ["0.1", True, None])
    def test_lam_must_be_a_number(self, lam):
        x, y01, _ = blobs(n=5)
        with pytest.raises(ConfigurationError,
                           match=f"lam must be a number, got {lam!r}"):
            qda_fit(x, y01, lam=lam)

    @pytest.mark.parametrize("extra", [2, -1, 0.5])
    def test_labels_outside_zero_one_rejected(self, extra):
        """A third label is refused, not dropped with priors short of 1."""
        x, y01, _ = blobs(n=20)
        y = y01.astype(np.float64)
        y[[1, 7, 22, 30, 38]] = extra
        with pytest.raises(ConfigurationError, match=r"labels must be in \[0, 1\]"):
            qda_fit(x, y)


class TestLinearSvm:
    def test_separates_blobs(self):
        x, y01, ypm = blobs()
        model = linear_svm_fit(x, ypm)
        preds = [svm_predict(model, row) for row in x]
        assert preds == ypm.tolist()
        acc, _ = evaluate_accuracy(model, x, y01)
        assert acc == 1.0

    def test_objective_not_far_from_lattice_minimum(self):
        """The fitted primal objective must beat a coarse exhaustive grid."""
        x, _, ypm = blobs(n=8, gap=3.0, seed=5)
        model = linear_svm_fit(x, ypm, c=1.0)
        j_fit = oracles.svm_objective(model.w, model.b, x, ypm, c=1.0)
        j_grid = oracles.svm_lattice_search(x, ypm.astype(np.float64), 1.0,
                                            w_range=3.0, b_range=3.0, steps=41)
        assert j_fit <= 1.05 * j_grid

    def test_deterministic(self):
        x, _, ypm = blobs(seed=2)
        a = linear_svm_fit(x, ypm)
        b = linear_svm_fit(x, ypm)
        np.testing.assert_array_equal(a.w, b.w)
        assert a.b == b.b

    def test_reaches_the_lattice_minimum_off_the_origin(self):
        """Classes shifted away from the origin: the fit reaches the primal
        optimum, at or below the best point of a lattice over (w, b)."""
        rng = np.random.default_rng(3)
        y = np.repeat([-1, 1], 300)
        x = rng.normal(0.0, 1.0, (600, 2))
        x[y == 1, 0] += 3.0
        model = linear_svm_fit(x, y, c=1.0)
        j_fit = oracles.svm_objective(model.w, model.b, x, y, c=1.0)
        j_grid = oracles.svm_lattice_search(x, y.astype(np.float64), 1.0,
                                            w_range=4, b_range=6, steps=41)
        assert j_fit <= j_grid

    def test_converges_and_counts_steps(self, monkeypatch):
        """Each SMO step reads one kernel-row pair; iterations counts the steps."""
        x, _, ypm = blobs(n=40, gap=1.5, seed=11)
        pairs = []
        smo = classify._smo
        monkeypatch.setattr(classify, "_smo", lambda y, c, kdiag, pair: smo(
            y, c, kdiag, lambda i, j: pairs.append((i, j)) or pair(i, j)))
        model = linear_svm_fit(x, ypm)
        assert model.converged
        assert model.iterations == len(pairs) >= 1

    def test_labels_must_be_signed_and_complete(self):
        x = np.random.default_rng(0).normal(0, 1, (4, 2))
        with pytest.raises(ConfigurationError):
            linear_svm_fit(x, np.array([0, 1, 0, 1]))
        with pytest.raises(ConfigurationError):
            linear_svm_fit(x, np.array([1, 1, 1, 1]))


@pytest.mark.parametrize("fit", [linear_svm_fit, rbf_svm_fit])
@pytest.mark.parametrize("c", [0.0, -1.0, float("nan"), float("inf"), "1",
                               None, True])
def test_svm_cost_must_be_finite_and_positive(fit, c):
    x, _, ypm = blobs(n=5)
    with pytest.raises(ConfigurationError, match="cost c"):
        fit(x, ypm, c=c)


@pytest.mark.parametrize("kernel", ["linear", "rbf"])
@pytest.mark.filterwarnings("ignore:SVM SMO stopped")
def test_smo_keeps_the_steps_of_masking_afresh(kernel):
    """Masks kept in place pick every pair that masks made afresh pick:
    60 seeded problems end with the same a, b, steps and converged."""
    for seed in range(60):
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(20, 120)), int(rng.integers(1, 5))
        y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        y[:2] = -1.0, 1.0
        x = rng.normal(0.0, 1.0, (n, d)) + (y[:, None] > 0) * rng.uniform(0, 2)
        c = float(rng.choice([0.1, 1.0, 10.0]))
        if kernel == "linear":
            kdiag = (x * x).sum(axis=1)
            pair = lambda i, j: (x @ (x[i] - x[j]), x[i] @ x[j])  # noqa: E731
        else:
            k = classify._rbf_kernel(x, x, 1.0 / d)
            kdiag, pair = k.diagonal(), lambda i, j: (k[i] - k[j], k[i, j])  # noqa: E731
        want = oracles.smo_masked(y, c, kdiag, pair, classify._SMO_TOL,
                                  classify._SMO_PASSES)
        a, *rest = classify._smo(y, c, kdiag, pair)
        assert a.tobytes() == want[0].tobytes() and rest == list(want[1:])


class TestRbfSvm:
    def test_solves_xor_exactly(self):
        x = np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]])
        y = np.array([1, 1, -1, -1])
        model = rbf_svm_fit(x, y, c=10.0, gamma=1.0)
        assert [svm_predict(model, row) for row in x] == y.tolist()

    def test_dual_feasibility_on_blobs(self):
        x, _, ypm = blobs(seed=4)
        model = rbf_svm_fit(x, ypm, c=1.0)
        assert model.converged
        assert oracles.svm_kkt_violations(model, x, ypm, 1e-3) == []
        assert np.all(model.alpha >= -1e-12)
        assert np.all(model.alpha <= 1.0 + 1e-12)
        # the SMO pair updates preserve sum(alpha_i y_i) = 0 (up to the
        # sub-1e-10 alphas dropped from the support set)
        assert (model.alpha * model.sv_y).sum() == pytest.approx(0.0, abs=1e-8)

    def test_default_gamma_is_one_over_d(self):
        x, _, ypm = blobs(n=6)
        model = rbf_svm_fit(x, ypm)
        assert model.gamma == pytest.approx(0.5)

    def test_pass_budget_exhaustion_warns(self, monkeypatch):
        """Both heads share the budget of _SMO_PASSES * n steps."""
        x, _, ypm = blobs(n=40, gap=0.3, seed=9)
        monkeypatch.setattr(classify, "_SMO_PASSES", 1)
        for fit in (linear_svm_fit, rbf_svm_fit):
            with pytest.warns(RuntimeWarning, match="partial model"):
                model = fit(x, ypm, c=10.0)
            assert not model.converged
            assert model.iterations == len(ypm)

    @pytest.mark.parametrize("seed", range(5))
    def test_kkt_holds_on_overlapping_blobs(self, seed):
        x, _, ypm = blobs(n=60, gap=1.5, seed=seed)
        model = rbf_svm_fit(x, ypm, c=1.0)
        assert model.converged
        assert oracles.svm_kkt_violations(model, x, ypm, 1e-3) == []

    @pytest.mark.parametrize("seed", range(10))
    def test_kkt_and_fit_on_gaussian_classes(self, seed):
        """Overlapping 32-d classes: the fit stops only when the KKT
        conditions hold, and it fits the training rows."""
        x, y = gaussian_classes(seed)
        model = rbf_svm_fit(x, y)
        assert model.converged
        assert oracles.svm_kkt_violations(model, x, y, 1e-3) == []
        assert np.mean(predict(model, x) * 2 - 1 == y) >= 0.95

    def test_refuses_huge_problems(self):
        x = np.zeros((5001, 2))
        y = np.ones(5001)
        y[::2] = -1
        with pytest.raises(DimensionError, match="5000"):
            rbf_svm_fit(x, y)

    def test_no_support_vectors_falls_back_to_bias(self):
        model = from_arrays({
            "kind": "svmr",
            "meta": {"c": 1.0, "b": -0.25, "gamma": 0.5,
                     "iterations": 0, "converged": True},
            "tensors": {"sv_x": np.zeros((0, 2)), "sv_y": np.zeros(0),
                        "alpha": np.zeros(0)},
        })
        assert svm_decision(model, np.array([1.0, 2.0])) == -0.25
        assert svm_predict(model, np.array([1.0, 2.0])) == -1


class TestRbfKernel:
    """The in-place kernel against the earlier one-expression form."""

    @pytest.mark.parametrize("n,m,d,same", [
        (1, 1, 3, True), (1, 1, 2, False), (1, 7, 2, False), (9, 1, 4, False),
        (64, 64, 3, True), (65, 30, 2, False), (130, 130, 5, True),
        (200, 3, 8, False), (3, 200, 1, False),
    ])
    def test_bytes_equal_the_expression(self, n, m, d, same):
        rng = np.random.default_rng(n * 1000 + m * 10 + d)
        a = rng.normal(0, 2, (n, d))
        b = a if same else rng.normal(0, 2, (m, d))
        gamma = 1.0 / d
        got = classify._rbf_kernel(a, b, gamma)
        want = oracles.rbf_kernel_expression(a, b, gamma)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    def test_random_shapes_bytes_equal(self):
        rng = np.random.default_rng(21)
        for trial in range(60):
            n, m, d = rng.integers(1, 300), rng.integers(1, 300), rng.integers(1, 9)
            a = rng.normal(0, 1.5, (n, d))
            b = a if trial % 3 == 0 else rng.normal(0, 1.5, (m, d))
            gamma = float(rng.uniform(0.05, 3.0))
            assert (classify._rbf_kernel(a, b, gamma).tobytes()
                    == oracles.rbf_kernel_expression(a, b, gamma).tobytes())

    def test_fit_and_decisions_unchanged(self, monkeypatch):
        x, _, ypm = blobs(n=150, gap=1.0, seed=17)  # 300 rows, 5 blocks
        probes = np.random.default_rng(18).normal(0, 2, (90, 2))
        model = rbf_svm_fit(x, ypm, c=1.0)
        decisions = classify._svm_decisions(model, probes)
        monkeypatch.setattr(classify, "_rbf_kernel", oracles.rbf_kernel_expression)
        want = rbf_svm_fit(x, ypm, c=1.0)
        assert model.alpha.tobytes() == want.alpha.tobytes()
        assert model.sv_x.tobytes() == want.sv_x.tobytes()
        assert model.b == want.b
        assert model.iterations == want.iterations
        assert (decisions.tobytes()
                == classify._svm_decisions(want, probes).tobytes())

    def test_kernel_build_holds_one_matrix(self):
        n = 1000
        x = np.random.default_rng(5).normal(0, 1, (n, 4))
        peaks = []
        for build in (classify._rbf_kernel, oracles.rbf_kernel_expression):
            tracemalloc.start()
            try:
                build(x, x, 0.25)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= 1.2 * 8 * n * n
        assert peaks[1] > 2.0 * 8 * n * n  # the measurement sees the old form


class TestHeadInputs:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("kind", ["qda", "svml", "svmr"])
    def test_fit_refuses_non_finite_features(self, kind, bad):
        x, y01, _ = blobs(n=10)
        x[3, 1] = bad
        with pytest.raises(NonFiniteError, match="features"):
            fit_head(kind, x, y01)

    def test_evaluation_refuses_non_finite_features(self):
        x, y01, _ = blobs(n=10)
        model = qda_fit(x, y01)
        x[0, 0] = np.nan
        with pytest.raises(NonFiniteError):
            evaluate_accuracy(model, x, y01)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("kind", ["qda", "svml", "svmr"])
    def test_prediction_refuses_non_finite_rows(self, kind, bad):
        """Batched and per-row predictions refuse such a row, even when
        every other row is finite."""
        x, y01, _ = blobs(n=20)
        model = fit_head(kind, x, y01)
        rows = np.array([[0.5, 0.0], [bad, 0.0], [1.0, 1.0]])
        with pytest.raises(NonFiniteError, match="features"):
            predict(model, rows)
        one = qda_predict if kind == "qda" else svm_predict
        with pytest.raises(NonFiniteError, match="features"):
            one(model, rows[1])
        predict(model, rows[[0, 2]])  # the finite rows still predict

    @pytest.mark.parametrize("kind", ["qda", "svml", "svmr"])
    def test_zero_width_features_rejected(self, kind):
        with pytest.raises(DimensionError, match="d >= 1"):
            fit_head(kind, np.zeros((10, 0)), np.repeat([0, 1], 5))

    @pytest.mark.parametrize("kwargs,match", [
        ({"gamma": 0.0}, "gamma"), ({"gamma": -1.0}, "gamma"),
        ({"gamma": float("nan")}, "gamma"), ({"gamma": float("inf")}, "gamma"),
        ({"gamma": "1"}, "rbf gamma must be a number, got '1'"),
        ({"gamma": True}, "rbf gamma must be a number, got True"),
    ])
    def test_rbf_hyper_parameters_checked(self, kwargs, match):
        x, _, ypm = blobs(n=5)
        with pytest.raises(ConfigurationError, match=match):
            rbf_svm_fit(x, ypm, **kwargs)


class TestEvaluation:
    def test_empty_set_rejected(self):
        x, y01, _ = blobs(n=5)
        model = qda_fit(x, y01)
        with pytest.raises(ConfigurationError, match="evaluation set is empty"):
            evaluate_accuracy(model, np.zeros((0, 2)), np.zeros(0))

    @pytest.mark.parametrize("extra", [2, -1, 0.5])
    def test_labels_outside_zero_one_rejected(self, extra):
        """2 and -1 used to reach np.bincount's ValueError, and 0.5 was
        truncated to class 0."""
        x, y01, _ = blobs(n=5)
        model = qda_fit(x, y01)
        y = y01.astype(np.float64)
        y[3] = extra
        with pytest.raises(ConfigurationError, match=r"labels must be in \[0, 1\]"):
            evaluate_accuracy(model, x, y)

    def test_confusion_counts_true_by_pred(self):
        x, y01, ypm = blobs(n=10)
        model = linear_svm_fit(x, ypm)
        x_bad = np.vstack([x, [[6.0, 0.0]]])  # class-1 territory
        y_bad = np.append(y01, 0)
        acc, confusion = evaluate_accuracy(model, x_bad, y_bad)
        assert confusion[0, 1] == 1
        assert confusion.sum() == 21
        assert acc == pytest.approx(20 / 21)


class TestHeads:
    @pytest.mark.parametrize("kind", ["qda", "svml", "svmr"])
    def test_predict_matches_per_row_predictions(self, kind):
        """Batched labels equal the per-row wrappers' and the loop oracle's.

        Overlapping blobs, so rows fall on both sides of the boundary."""
        x, y01, _ = blobs(n=40, gap=1.5, seed=11)
        model = fit_head(kind, x, y01, lam=1e-3, c=0.5, seed=3)
        assert to_arrays(model)["kind"] == kind
        probes = np.random.default_rng(12).normal(0, 2, (200, 2))
        if kind == "qda":
            want = [qda_predict(model, row)[0] for row in probes]
        else:
            want = [(svm_predict(model, row) + 1) // 2 for row in probes]
        got = predict(model, probes)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(got, oracles.head_labels_loops(model,
                                                                     probes))
        assert set(got.tolist()) == {0, 1}

    @pytest.mark.parametrize("section", [
        {"kind": "svml", "meta": {"c": 1.0, "b": 0.0},
         "tensors": {"w": np.array([1.0, -1.0])}},
        {"kind": "svmr", "meta": {"c": 1.0, "b": 0.0, "gamma": 0.5},
         "tensors": {"sv_x": np.zeros((0, 2)), "sv_y": np.zeros(0),
                     "alpha": np.zeros(0)}},
    ], ids=["svml", "svmr_without_svs"])
    def test_decision_of_exactly_zero_is_class_one(self, section):
        model = from_arrays(section)
        probes = np.array([[1.0, 1.0], [-2.5, -2.5]])
        assert [svm_decision(model, row) for row in probes] == [0.0, 0.0]
        assert [svm_predict(model, row) for row in probes] == [1, 1]
        np.testing.assert_array_equal(predict(model, probes), [1, 1])

    def test_unknown_kind_rejected(self):
        x, y01, _ = blobs(n=5)
        with pytest.raises(ConfigurationError, match="unknown classifier"):
            fit_head("fc", x, y01)


class TestSerialization:
    @pytest.mark.parametrize("kind", ["qda", "svml", "svmr"])
    def test_round_trip_preserves_predictions(self, kind):
        x, y01, ypm = blobs(seed=6)
        if kind == "qda":
            model = qda_fit(x, y01)
        elif kind == "svml":
            model = linear_svm_fit(x, ypm)
        else:
            model = rbf_svm_fit(x, ypm, c=1.0)
        section = to_arrays(model)
        assert section["kind"] == kind
        rebuilt = from_arrays(section)
        probes = np.random.default_rng(8).normal(0, 2, (25, 2))
        for row in probes:
            if kind == "qda":
                pred_a, scores_a = qda_predict(rebuilt, row)
                pred_b, scores_b = qda_predict(model, row)
                assert pred_a == pred_b
                np.testing.assert_allclose(scores_a, scores_b, rtol=1e-12)
            else:
                assert svm_decision(rebuilt, row) == pytest.approx(
                    svm_decision(model, row), rel=1e-12)

    @pytest.mark.parametrize("model", [
        SvmModel(kind="svml", c=1.0, w=np.array([1.0, -1.0]), b=0.5),
        SvmModel(kind="svmr", c=1.0, b=0.5, sv_x=np.ones((1, 2)), sv_y=np.ones(1),
                 alpha=np.ones(1), gamma=0.5)], ids=["svml", "svmr"])
    def test_round_trip_keeps_the_converged_flag(self, model):
        for flag in (False, True):
            model.converged = flag
            assert from_arrays(to_arrays(model)).converged is flag
        section = to_arrays(model)
        del section["meta"]["converged"]  # a file written before the field
        assert from_arrays(section).converged is True

    @pytest.mark.parametrize("drop,field", [
        (("kind",), "section 'kind'"),
        (("tensors",), "section 'tensors'"),
        (("meta", "c"), "meta 'c'"),
        (("meta", "b"), "meta 'b'"),
        (("meta", "gamma"), "meta 'gamma'"),
        (("tensors", "sv_x"), "tensor 'sv_x'"),
        (("tensors", "alpha"), "tensor 'alpha'"),
    ])
    def test_missing_field_is_a_schema_error(self, drop, field):
        x, _, ypm = blobs(seed=6)
        section = to_arrays(rbf_svm_fit(x, ypm, c=1.0))
        where = section
        for key in drop[:-1]:
            where = where[key]
        del where[drop[-1]]
        with pytest.raises(HeaderSchemaError, match=field):
            from_arrays(section)

    @pytest.mark.parametrize("kind,drop", [
        ("qda", "cov"), ("qda", "means"), ("qda", "logprior"), ("svml", "w"),
    ])
    def test_missing_tensor_of_each_kind(self, kind, drop):
        x, y01, ypm = blobs(seed=6)
        model = qda_fit(x, y01) if kind == "qda" else linear_svm_fit(x, ypm)
        section = to_arrays(model)
        del section["tensors"][drop]
        with pytest.raises(HeaderSchemaError, match=f"tensor '{drop}'"):
            from_arrays(section)

    @pytest.mark.parametrize("kind,mutate,field", [
        ("svml", lambda s: s["meta"].update(c=None), "meta 'c'"),
        ("svml", lambda s: s["meta"].update(b=True), "meta 'b'"),
        ("svml", lambda s: s["meta"].update(iterations="3"),
         "meta 'iterations'"),
        ("svmr", lambda s: s["meta"].update(gamma=[0.5]), "meta 'gamma'"),
        ("svmr", lambda s: s["meta"].update(c={}), "meta 'c'"),
        ("svmr", lambda s: s["meta"].update(b=float("nan")), "meta 'b'"),
        ("qda", lambda s: s["meta"].update(lam=None), "meta 'lam'"),
        ("qda", lambda s: s.update(meta=[1.0]), "section 'meta'"),
        ("qda", lambda s: s.update(kind="svmx"), "section 'kind'"),
        ("svml", lambda s: s.update(kind=None), "section 'kind'"),
        ("qda", lambda s: s["tensors"].update(means=np.ones((2, 3))),
         "tensor 'cov'"),
        ("qda", lambda s: s["tensors"].update(means=np.ones(2)),
         "tensor 'means'"),
        ("qda", lambda s: s["tensors"].update(cov=np.ones(0)), "tensor 'cov'"),
        ("qda", lambda s: s["tensors"].update(cov=np.zeros((2, 2, 2))),
         "tensor 'cov' is not positive definite"),
        ("qda", lambda s: s["tensors"].update(logprior=np.zeros(3)),
         "tensor 'logprior'"),
        ("svml", lambda s: s["tensors"].update(w=np.ones((1, 2))),
         "tensor 'w'"),
        ("svmr", lambda s: s["tensors"].update(sv_x=np.ones(4)),
         "tensor 'sv_x'"),
        ("svmr", lambda s: s["tensors"].update(
            sv_y=np.ones(len(s["tensors"]["sv_y"]) + 1)), "tensor 'sv_y'"),
        ("svmr", lambda s: s["tensors"].update(alpha=s["tensors"]["alpha"][1:]),
         "tensor 'alpha'"),
    ], ids=["svml_c_null", "svml_b_bool", "svml_iterations_str",
            "svmr_gamma_list", "svmr_c_dict", "svmr_b_nan", "qda_lam_null",
            "qda_meta_list", "kind_unknown", "kind_null", "qda_means_wider_than_cov", "qda_means_1d",
            "qda_cov_empty", "qda_cov_not_pd", "qda_logprior_3",
            "svml_w_2d", "svmr_sv_x_1d", "svmr_sv_y_longer",
            "svmr_alpha_shorter"])
    def test_malformed_field_is_a_schema_error(self, kind, mutate, field):
        x, y01, _ = blobs(seed=6)
        section = to_arrays(fit_head(kind, x, y01))
        mutate(section)
        with pytest.raises(HeaderSchemaError, match=field):
            from_arrays(section)

    @pytest.mark.parametrize("kind,key,value", [
        ("svmr", "gamma", 0.0), ("svmr", "gamma", -0.5), ("svmr", "c", 0.0),
        ("svmr", "c", -1.0), ("svml", "c", 0.0), ("svml", "c", -2.0),
    ])
    def test_non_positive_width_or_cost_is_a_schema_error(self, kind, key,
                                                           value):
        x, y01, _ = blobs(seed=6)
        section = to_arrays(fit_head(kind, x, y01))
        section["meta"][key] = value
        with pytest.raises(HeaderSchemaError, match=f"meta '{key}' must be > 0"):
            from_arrays(section)
