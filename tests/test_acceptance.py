"""Acceptance suite: ten verdicts, one per criterion.

Each test is self-contained given the session fixtures; the terminal
summary hook in conftest prints a PASS/FAIL line per criterion. Numbered
comments in the bodies pin the tolerances each check runs under.
"""

import csv
import os
import time

import numpy as np
import pytest

from fisherprune import bench, classify, firing, ops, prune
from fisherprune.cli import main as cli_main
from fisherprune.data import images_labels
from fisherprune.deconv import unpool
from fisherprune.errors import DimensionError
from fisherprune.firing import (
    FiringMatrix, full_lda_directions, icc_scores, rank_and_select,
    scatter_matrices,
)
from fisherprune.modelio import model_param_count, save_model
from fisherprune.network import build_cnn, forward
from fisherprune.prune import PrunePlan, apply_prune, build_prune_plan
from fisherprune.tensor import Tensor
from fisherprune.train import TrainConfig, accuracy, backward, cross_entropy, retrain

import oracles


@pytest.fixture(scope="module")
def pipeline(trained, analysis, dataset):
    """Plateau search, final prune, retrain: the shared later-stage state."""
    t_start = time.monotonic()
    net = trained["net"]
    ranking, table = analysis["ranking"], analysis["table"]
    cfg = TrainConfig(epochs=10, lr=0.005, seed=0)
    grid = [round(0.1 * i, 10) for i in range(7)]  # 0.0 .. 0.6
    t0, reports = prune.plateau_threshold_search(
        net, table, ranking.selected, dataset, grid,
        eps_acc=0.02, retrain_config=cfg,
    )
    plan = build_prune_plan(table, ranking.selected, t0)
    pruned = apply_prune(net, plan)
    tr_imgs, tr_labels = images_labels(dataset.train)
    te_imgs, te_labels = images_labels(dataset.test)
    retrain(pruned, tr_imgs, tr_labels, te_imgs, te_labels, cfg)
    return {
        "t0": t0,
        "reports": reports,
        "plan": plan,
        "pruned": pruned,
        "final_acc": accuracy(pruned, te_imgs, te_labels),
        "seconds": time.monotonic() - t_start,
    }


def test_c01_gradients_match_finite_differences():
    # every layer kind in one stack; max parameter error <= 1e-3 relative
    started = time.monotonic()
    net = build_cnn((1, 6, 6), [(2, 3, 1, True)], [4], 2, seed=17)
    for layer in net.layers:
        if layer.weights is not None:
            layer.weights = layer.weights.astype(np.float64)
            layer.bias = layer.bias.astype(np.float64)
    x = np.random.default_rng(6).random((1, 6, 6))
    label = 0
    _, rec = forward(net, Tensor(x), record=True)
    grads = backward(net, rec, label)

    def loss():
        return cross_entropy(forward(net, Tensor(x)).data, label)

    for li, (dw, db) in grads.items():
        for analytic, params in ((dw, net.layers[li].weights),
                                 (db, net.layers[li].bias)):
            fd = oracles.central_difference_grads(loss, params)
            scale = np.abs(fd).max() + 1e-10
            assert np.abs(analytic - fd).max() <= 1e-3 * scale
    assert time.monotonic() - started < 60.0


def test_c02_scatter_identity_and_icc_oracle():
    # 200 vectors, d=16: S_w + S_b == total scatter within 1e-4 relative;
    # ICC matches the two-pass per-column oracle within 1e-6
    rng = np.random.default_rng(22)
    vals = rng.normal(0, 2, (200, 16))
    labels = rng.integers(0, 2, 200)
    vals[labels == 1, :4] += 1.5
    mat = FiringMatrix(vals, labels)
    pair = scatter_matrices(mat)

    mu = vals.mean(axis=0)
    total = np.zeros((16, 16))
    for row in vals:
        dev = row - mu
        total += np.outer(dev, dev)
    gap = np.linalg.norm(pair.s_w + pair.s_b - total)
    assert gap <= 1e-4 * np.linalg.norm(total)

    ranking = icc_scores(pair)
    s2w, s2b = oracles.two_pass_column_stats(vals, labels)
    icc_oracle = s2b / (s2b + s2w)
    assert np.abs(ranking.icc - icc_oracle).max() <= 1e-6


def test_c03_diagonal_lda_agrees_with_icc():
    # diagonal scatter: LDA's top-k axes == ICC's top-k neurons, and each
    # direction solves the generalized problem with residual < 1e-4
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        d, k = 8, 3
        s2w = rng.uniform(0.5, 3.0, d)
        s2b = rng.uniform(0.1, 4.0, d)
        sw, sb = np.diag(s2w), np.diag(s2b)
        zero = np.zeros(d)
        pair = firing.ScatterPair(sw, sb, zero, zero, zero, 4, 4)
        evals, dirs = full_lda_directions(pair, k)

        icc = rank_and_select(
            firing.NeuronRanking(s2w=s2w, s2b=s2b, icc=s2b / (s2b + s2w)), k)
        lda_axes = {int(np.abs(dirs[:, j]).argmax()) for j in range(k)}
        assert lda_axes == set(icc.selected.tolist())

        eps = max(1e-6 * np.trace(sw) / d, 1e-12)
        m = sw + eps * np.eye(d)
        for j in range(k):
            v = dirs[:, j]
            resid = np.linalg.norm(sb @ v - evals[j] * (m @ v))
            assert resid < 1e-4 * np.linalg.norm(sb)


def test_c04_adjointness_and_unpool_round_trip():
    # 100 random conv shapes: <conv(x), y> == <x, adjoint(y)> within 1e-4
    rng = np.random.default_rng(44)
    for _ in range(100):
        c = int(rng.integers(1, 4))
        o = int(rng.integers(1, 5))
        k = int(rng.integers(1, 4))
        stride = int(rng.integers(1, 3))
        pad = int(rng.integers(0, 2))
        h = int(rng.integers(max(k, 5), 10))
        w = int(rng.integers(max(k, 5), 10))
        x = rng.standard_normal((c, h, w))
        kern = rng.standard_normal((o, c, k, k))
        y = ops.conv2d_forward(x, kern, np.zeros(o), stride=stride, pad=pad)
        g = rng.standard_normal(y.shape)
        gx = ops.conv2d_adjoint(g, kern, stride=stride, pad=pad, out_hw=(h, w))
        lhs = float(np.sum(y * g))
        rhs = float(np.sum(x * gx))
        assert abs(lhs - rhs) <= 1e-4 * max(1.0, abs(lhs))

    # unpool of pool is exact: values return to their argmax positions.
    # Inputs are non-negative like the post-relu maps the tracer unpools;
    # an all-negative window would repool to 0 by construction.
    for _ in range(20):
        x = rng.random((3, 8, 8), dtype=np.float32)
        pooled, sw = ops.maxpool_forward(x, 2, 2)
        up = unpool(pooled, sw, x.shape)
        np.testing.assert_array_equal(up.ravel()[sw.ravel()], pooled.ravel())
        repooled, resw = ops.maxpool_forward(up, 2, 2)
        np.testing.assert_array_equal(repooled, pooled)
        np.testing.assert_array_equal(resw, sw)


def test_c05_random_plans_prune_equals_mask(trained, dataset):
    # 20 random keep-lists, 50 images: logit deviation <= 1e-4 relative
    net = trained["net"]
    rng = np.random.default_rng(55)
    images = (dataset.test + dataset.train)[:50]
    assert len(images) == 50
    for _ in range(20):
        keep = {}
        for li in net.conv_indices():
            o = net.layers[li].weights.shape[0]
            n_keep = int(rng.integers(1, o + 1))
            keep[li] = np.sort(rng.choice(o, size=n_keep, replace=False))
        plan = PrunePlan(keep=keep, threshold=0.0)
        dev = prune.equivalence_check(net, plan, images)
        assert dev <= 1e-4


def test_c06_end_to_end_pipeline(trained, analysis, dataset, pipeline):
    # train >= 0.95, select k=4, prune at plateau, retrain within 0.02,
    # conv reduction >= 50%, all inside the 15-minute budget
    assert trained["test_acc"] >= 0.95
    assert len(analysis["ranking"].selected) == 4

    reports = pipeline["reports"]
    best = max(r.acc_after for r in reports)
    assert pipeline["t0"] == max(
        r.threshold for r in reports if r.acc_after >= best - 0.02)

    rate = pipeline["plan"].conv_rate(trained["net"])
    assert rate >= 0.5
    assert pipeline["final_acc"] >= trained["test_acc"] - 0.02

    elapsed = (trained["seconds"] + analysis["seconds"]
               + pipeline["seconds"])
    assert elapsed < 900.0


def test_c07_speedup_and_size_track_parameters(trained, pipeline, tmp_path):
    # median inference >= 1.5x faster; file shrink factor within 10% of the
    # parameter shrink factor
    image = Tensor(np.zeros((1, 32, 32), dtype=np.float32))
    _, total_orig = bench.time_network(trained["net"], image)
    _, total_pruned = bench.time_network(pipeline["pruned"], image)
    assert total_orig / total_pruned >= 1.5

    orig_path = str(tmp_path / "orig.ldap1")
    pruned_path = str(tmp_path / "pruned.ldap1")
    save_model(trained["net"], orig_path)
    save_model(pipeline["pruned"], pruned_path)
    file_ratio = os.path.getsize(orig_path) / os.path.getsize(pruned_path)
    param_ratio = (model_param_count(orig_path)["total"]
                   / model_param_count(pruned_path)["total"])
    assert abs(file_ratio - param_ratio) / param_ratio < 0.10


def test_c08_sweep_beats_magnitude_at_high_rates(model_file, tmp_path):
    # sweep.csv holds both methods; at matched rates >= 0.7 the structured
    # method's retrained accuracy >= magnitude's - 0.02
    out = str(tmp_path)
    rc = cli_main(["sweep", "--out", out, "--model", model_file,
                   "--grid", "0.4:0.6:0.1", "--n-per-class", "150",
                   "--seed", "0"])
    assert rc == 0
    with open(os.path.join(out, "sweep.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    by_method = {"lda": {}, "magnitude": {}}
    for row in rows:
        by_method[row["method"]][row["pruning_rate"]] = float(
            row["accuracy_delta"])
    assert by_method["lda"] and by_method["magnitude"]
    matched = [r for r in by_method["lda"]
               if float(r) >= 0.7 and r in by_method["magnitude"]]
    assert matched, "no matched pruning rate at or above 0.7"
    for r in matched:
        assert by_method["lda"][r] >= by_method["magnitude"][r] - 0.02


def test_c09_classifier_heads_on_reduced_features(pipeline, dataset):
    # QDA and linear SVM within 0.02 of the pruned net's own head; RBF SVM
    # solves XOR exactly; QDA refuses k above the per-class sample count
    net = pipeline["pruned"]
    last = net.last_conv_index()
    train_mat = firing.standardize(
        firing.extract_firing_matrix(net, dataset.train, last))
    test_raw = firing.extract_firing_matrix(net, dataset.test, last)
    scale = np.where(train_mat.col_std < 1e-8, 1.0, train_mat.col_std)
    test_vals = (test_raw.values - train_mat.col_mean) / scale

    net_acc = pipeline["final_acc"]

    qda = classify.qda_fit(train_mat.values, train_mat.labels)
    qda_acc, _ = classify.evaluate_accuracy(qda, test_vals, test_raw.labels)
    assert abs(qda_acc - net_acc) <= 0.02

    svm = classify.linear_svm_fit(train_mat.values,
                                  train_mat.labels * 2 - 1)
    svm_acc, _ = classify.evaluate_accuracy(svm, test_vals, test_raw.labels)
    assert abs(svm_acc - net_acc) <= 0.02

    xor_x = np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]])
    xor_y = np.array([1, 1, -1, -1])
    rbf = classify.rbf_svm_fit(xor_x, xor_y, c=10.0, gamma=1.0)
    assert [classify.svm_predict(rbf, row) for row in xor_x] == xor_y.tolist()

    tiny = np.vstack([train_mat.values[train_mat.labels == 0][:3],
                      train_mat.values[train_mat.labels == 1][:3]])
    with pytest.raises(DimensionError, match="smaller k"):
        classify.qda_fit(tiny, np.repeat([0, 1], 3))


def run_small_pipeline(out):
    base = ["--n-per-class", "12", "--seed", "0"]
    model = os.path.join(out, "model.ldap1")
    pruned = os.path.join(out, "pruned.ldap1")
    steps = [
        ["train", "--out", out, "--epochs", "2"] + base,
        ["extract", "--out", out, "--model", model] + base,
        ["analyze", "--out", out, "--model", model, "--k", "2"] + base,
        ["prune", "--out", out, "--model", model, "--k", "2",
         "--grid", "0:0.2:0.1", "--epochs", "1", "--dep-images", "4"] + base,
        ["sweep", "--out", out, "--model", model, "--k", "2",
         "--grid", "0:0.1:0.1", "--epochs", "1", "--dep-images", "4"] + base,
        ["eval", "--out", out, "--model", pruned, "--classifier", "qda"] + base,
    ]
    for argv in steps:
        assert cli_main(argv) == 0, f"command failed: {argv[0]}"


def test_c10_artifacts_byte_identical_across_reruns(tmp_path):
    # the same manifest settings must reproduce every artifact exactly
    run_a, run_b = str(tmp_path / "a"), str(tmp_path / "b")
    run_small_pipeline(run_a)
    run_small_pipeline(run_b)
    names_a = sorted(os.listdir(run_a))
    names_b = sorted(os.listdir(run_b))
    assert names_a == names_b
    assert len(names_a) >= 12
    for name in names_a:
        with open(os.path.join(run_a, name), "rb") as fh:
            blob_a = fh.read()
        with open(os.path.join(run_b, name), "rb") as fh:
            blob_b = fh.read()
        assert blob_a == blob_b, f"{name} differs between identical runs"
