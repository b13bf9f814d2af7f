#!/usr/bin/env python3
"""The conditions of acceptance criteria 6-9 at each seed of a range.

    python3 tools/seed_margin.py --src src --seeds 0:8
    python3 tools/seed_margin.py --src other/src --base-src src --seeds 6:7

Seed N stands in for every seed of the criteria's recipe, all 0 in
tests/conftest.py and tests/test_acceptance.py: it draws the synthetic
task and seeds the base net's training, the pipeline's retraining and the
sweep (--seed); every threshold stays as the criteria have it. Per seed
one worker process imports the package from --src, with BLAS pinned to one
thread, and two workers run at a time. The base net is
trained by `fisherprune train` from --base-src (default --src), so a net
trained by one tree can be pruned and swept by another. A seed takes
about a minute on a 2-vCPU Xeon, so this is a tool, not a test.

One row per seed, each criterion PASS or FAIL with the figure it turns on:
  c6  the plateau pipeline (trained acc >= 0.95, t0 is the top plateau
      threshold, conv rate >= 0.5, final acc within 0.02): t0, conv
      rate, trained > final test accuracy
  c7  size only: file shrink within 10% of the parameter shrink
  c8  the sweep's LDA delta >= magnitude's - 0.02 at matched rates >= 0.7:
      the worst LDA - magnitude margin, the rate and LDA delta it sits at
  c9  QDA and linear SVM within 0.02 of the pruned net: the larger gap
and the worker's wall seconds.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import json
import os
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}


def tree_env(src):
    """The environment that imports the package from the src/ tree `src`."""
    return {**os.environ, **PINNED, "PYTHONPATH": os.path.abspath(src)}


def criteria(seed, work):
    """The four verdicts for the base net in work/model.ldap1 (a worker's
    body; the package comes from its PYTHONPATH)."""
    from fisherprune import classify, deconv, firing, prune
    from fisherprune.cli import main as cli_main
    from fisherprune.data import balanced, generate_synthetic, images_labels
    from fisherprune.modelio import load_model, model_param_count, save_model
    from fisherprune.train import TrainConfig, accuracy, retrain

    model = os.path.join(work, "model.ldap1")
    split = generate_synthetic(150, seed=seed)
    tr_imgs, tr_labels = images_labels(split.train)
    te_imgs, te_labels = images_labels(split.test)
    net, _ = load_model(model)
    base_acc = accuracy(net, te_imgs, te_labels)
    last = net.last_conv_index()
    mat = firing.standardize(
        firing.extract_firing_matrix(net, split.train, last))
    ranking = firing.rank_and_select(
        firing.icc_scores(firing.scatter_matrices(mat)), 4)
    table = deconv.dependency_scores(net, balanced(split.train, 60),
                                     ranking.selected)
    cfg = TrainConfig(epochs=10, lr=0.005, seed=seed)
    grid = [round(0.1 * i, 10) for i in range(7)]
    t0, reports = prune.plateau_threshold_search(
        net, table, ranking.selected, split, grid, eps_acc=0.02,
        retrain_config=cfg)
    plan = prune.build_prune_plan(table, ranking.selected, t0)
    pruned = prune.apply_prune(net, plan)
    retrain(pruned, tr_imgs, tr_labels, te_imgs, te_labels, cfg)
    final_acc = accuracy(pruned, te_imgs, te_labels)
    best = max(r.acc_after for r in reports)
    rate = plan.conv_rate(net)
    top = max(r.threshold for r in reports if r.acc_after >= best - 0.02)
    # mirrors test_c06_end_to_end_pipeline and its pipeline fixture
    c6 = (base_acc >= 0.95 and rate >= 0.5 and t0 == top
          and final_acc >= base_acc - 0.02)

    # mirrors the size half of test_c07_speedup_and_size_track_parameters
    orig_path = os.path.join(work, "orig.ldap1")
    pruned_path = os.path.join(work, "pruned.ldap1")
    save_model(net, orig_path)
    save_model(pruned, pruned_path)
    file_ratio = os.path.getsize(orig_path) / os.path.getsize(pruned_path)
    param_ratio = (model_param_count(orig_path)["total"]
                   / model_param_count(pruned_path)["total"])
    c7 = abs(file_ratio - param_ratio) / param_ratio

    # mirrors test_c08_sweep_beats_magnitude_at_high_rates
    sweep = os.path.join(work, "sweep")
    rc = cli_main(["sweep", "--out", sweep, "--model", model, "--grid",
                   "0.4:0.6:0.1", "--n-per-class", "150",
                   "--seed", str(seed)])
    delta = {"lda": {}, "magnitude": {}}
    if rc == 0:
        with open(os.path.join(sweep, "sweep.csv"), newline="") as fh:
            for row in csv.DictReader(fh):
                delta[row["method"]][row["pruning_rate"]] = float(
                    row["accuracy_delta"])
    lda, mag = delta["lda"], delta["magnitude"]
    margins = sorted((lda[r] - mag[r], r, lda[r]) for r in lda
                     if float(r) >= 0.7 and r in mag)

    # mirrors the QDA and linear SVM checks of
    # test_c09_classifier_heads_on_reduced_features
    train_mat = firing.standardize(firing.extract_firing_matrix(
        pruned, split.train, pruned.last_conv_index()))
    test_raw = firing.extract_firing_matrix(pruned, split.test,
                                            pruned.last_conv_index())
    test_vals, _ = firing.zscore(test_raw.values, train_mat.col_mean,
                                 train_mat.col_std)
    heads = (classify.qda_fit(train_mat.values, train_mat.labels),
             classify.linear_svm_fit(train_mat.values,
                                     train_mat.labels * 2 - 1))
    c9 = max(abs(classify.evaluate_accuracy(h, test_vals, test_raw.labels)[0]
                 - final_acc) for h in heads)
    return {"c6": [bool(c6), t0, rate, base_acc, final_acc],
            "c7": [c7 < 0.10, c7],
            "c8": [bool(margins) and margins[0][0] >= -0.02,
                   *(margins[0] if margins else (None, None, None))],
            "c9": [c9 <= 0.02, c9]}


def run_seed(seed, src, base_src):
    """One worker: train the base net from base_src, judge it from src."""
    started = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="seed_margin_") as work:
        train = subprocess.run(
            [sys.executable, "-m", "fisherprune", "train", "--out", work,
             "--seed", str(seed), "--n-per-class", "150"],
            env=tree_env(base_src), capture_output=True, text=True)
        if train.returncode:
            return {"seed": seed, "error": train.stderr[-500:]}
        judge = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--worker",
             str(seed), "--work", work],
            env=tree_env(src), capture_output=True, text=True)
        if judge.returncode:
            return {"seed": seed, "error": judge.stderr[-500:]}
        row = json.loads(judge.stdout.splitlines()[-1])
    return {"seed": seed, **row, "seconds": time.monotonic() - started}


def format_row(row):
    if "error" in row:
        last = row["error"].strip().splitlines()[-1]
        return f"{row['seed']:>4}  error: {last}"

    def verdict(ok):
        return "PASS" if ok else "FAIL"

    ok6, t0, rate, base_acc, final_acc = row["c6"]
    ok8, margin, r8, lda = row["c8"]
    c8 = (f"{verdict(ok8)} {margin:+.3f} @{r8} lda {lda:+.3f}"
          if margin is not None else "FAIL no matched rate")
    return (f"{row['seed']:>4}  {verdict(ok6)} t0 {t0:.1f} rate {rate:.4f} "
            f"acc {base_acc:.3f}>{final_acc:.3f}  "
            f"{verdict(row['c7'][0])} {row['c7'][1]:.4f}  {c8:32}  "
            f"{verdict(row['c9'][0])} {row['c9'][1]:.3f}  "
            f"{row['seconds']:7.1f}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="src/ tree whose package is judged")
    parser.add_argument("--base-src", default=None,
                        help="src/ tree that trains the base nets "
                             "(default --src)")
    parser.add_argument("--seeds", default="0:8", help="lo:hi, hi excluded")
    parser.add_argument("--worker", type=int, default=None,
                        help=argparse.SUPPRESS)
    parser.add_argument("--work", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker is not None:
        print(json.dumps(criteria(args.worker, args.work)))
        return 0
    lo, hi = (int(v) for v in args.seeds.split(":"))
    base_src = args.base_src or args.src
    print(f"src {os.path.abspath(args.src)}, base nets from "
          f"{os.path.abspath(base_src)}")
    print(f"{'seed':>4}  {'c6':39}  {'c7 size':11}  {'c8 worst margin':32}  "
          f"{'c9':10}  {'seconds':>7}", flush=True)
    with concurrent.futures.ThreadPoolExecutor(2) as pool:
        for row in pool.map(lambda s: run_seed(s, args.src, base_src),
                            range(lo, hi)):
            print(format_row(row), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
