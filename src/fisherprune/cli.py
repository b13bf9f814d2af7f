"""Command-line pipeline: train, extract, analyze, prune, sweep, eval, bench.

Every command writes its artifacts into --out and records its flags in
manifest.json there, so a run can be reproduced from the manifest alone.
report.txt carries only deterministic summary lines; measured timings go
to bench.csv exclusively.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from . import classify, deconv, firing, modelio, prune
from .bench import blas_pinned, time_network
from .data import generate_synthetic, images_labels, load_pgm_dir
from .errors import ConfigurationError, ModelFormatError, TrainingDiverged
from .network import reference_cnn
from .train import TrainConfig, accuracy, retrain, train


def _load_dataset(spec, seed, n_per_class, size=32):
    if spec == "synthetic":
        return generate_synthetic(n_per_class, size=size, seed=seed)
    if spec.startswith("dir:"):
        return load_pgm_dir(spec[4:], size=size)
    raise ConfigurationError(
        f"--dataset must be 'synthetic' or 'dir:PATH', got {spec!r}"
    )


def _update_manifest(out, command, entries):
    path = os.path.join(out, "manifest.json")
    manifest = {}
    if os.path.exists(path):
        with open(path) as fh:
            manifest = json.load(fh)
    manifest[command] = entries
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _report(out, lines):
    with open(os.path.join(out, "report.txt"), "a") as fh:
        for line in lines:
            fh.write(line + "\n")


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _parse_grid(text):
    try:
        lo, hi, step = (float(p) for p in text.split(":"))
    except ValueError:
        raise ConfigurationError(
            f"--grid must be lo:hi:step, got {text!r}"
        ) from None
    if step <= 0 or hi < lo:
        raise ConfigurationError(f"bad grid range {text!r}")
    n = int(round((hi - lo) / step)) + 1
    return [round(lo + i * step, 10) for i in range(n) if lo + i * step <= hi + 1e-9]


def _standardized_features(net, samples, layer):
    mat = firing.extract_firing_matrix(net, samples, layer)
    return firing.standardize(mat)


def cmd_train(args):
    os.makedirs(args.out, exist_ok=True)
    split = _load_dataset(args.dataset, args.seed, args.n_per_class)
    net = reference_cnn(seed=args.seed)
    tr_imgs, tr_labels = images_labels(split.train)
    te_imgs, te_labels = images_labels(split.test)
    cfg = TrainConfig(epochs=args.epochs, lr=args.lr, seed=args.seed,
                      log_path=os.path.join(args.out, "train_log.csv"))
    result = train(net, tr_imgs, tr_labels, te_imgs, te_labels, cfg)
    model_path = os.path.join(args.out, "model.ldap1")
    modelio.save_model(net, model_path, provenance={
        "command": "train", "dataset": args.dataset, "seed": args.seed,
        "epochs": args.epochs, "lr": args.lr, "n_per_class": args.n_per_class,
    })
    _update_manifest(args.out, "train", {
        "dataset": args.dataset, "seed": args.seed, "epochs": args.epochs,
        "lr": args.lr, "n_per_class": args.n_per_class,
    })
    _report(args.out, [
        f"train: final train_acc={result.final_train_acc:.4f} "
        f"eval_acc={result.final_eval_acc:.4f}",
        f"train: model saved to model.ldap1",
    ])
    print(f"trained: train_acc={result.final_train_acc:.4f} "
          f"eval_acc={result.final_eval_acc:.4f}")
    return 0


def cmd_extract(args):
    os.makedirs(args.out, exist_ok=True)
    net, _ = modelio.load_model(args.model)
    split = _load_dataset(args.dataset, args.seed, args.n_per_class)
    mat = firing.extract_firing_matrix(net, split.train, net.last_conv_index())
    rows = [[split.train[i].id, int(mat.labels[i])]
            + [f"{v:.8g}" for v in mat.values[i]]
            for i in range(mat.values.shape[0])]
    d = mat.values.shape[1]
    _write_csv(os.path.join(args.out, "firing.csv"),
               ["id", "label"] + [f"n{j}" for j in range(d)], rows)
    _update_manifest(args.out, "extract", {
        "model": os.path.basename(args.model), "dataset": args.dataset,
        "seed": args.seed, "n_per_class": args.n_per_class,
    })
    _report(args.out, [f"extract: firing matrix {mat.values.shape[0]}x{d}"])
    print(f"extracted firing matrix: {mat.values.shape[0]} rows, {d} neurons")
    return 0


def cmd_analyze(args):
    os.makedirs(args.out, exist_ok=True)
    net, _ = modelio.load_model(args.model)
    split = _load_dataset(args.dataset, args.seed, args.n_per_class)
    mat = _standardized_features(net, split.train, net.last_conv_index())
    scatter = firing.scatter_matrices(mat)
    ranking = firing.rank_and_select(firing.icc_scores(scatter), args.k)
    rank_of = {int(n): r for r, n in enumerate(ranking.order)}
    rows = [[j, f"{ranking.s2w[j]:.8g}", f"{ranking.s2b[j]:.8g}",
             f"{ranking.icc[j]:.8g}", rank_of[j]]
            for j in range(len(ranking.icc))]
    _write_csv(os.path.join(args.out, "ranking.csv"),
               ["neuron", "s2w", "s2b", "icc", "rank"], rows)
    np.savetxt(os.path.join(args.out, "sw.csv"), scatter.s_w,
               delimiter=",", fmt="%.8g")
    np.savetxt(os.path.join(args.out, "sb.csv"), scatter.s_b,
               delimiter=",", fmt="%.8g")
    dom = firing.diagonal_dominance(scatter.s_w)
    sel = ",".join(str(int(n)) for n in ranking.selected)
    _update_manifest(args.out, "analyze", {
        "model": os.path.basename(args.model), "dataset": args.dataset,
        "seed": args.seed, "k": args.k, "n_per_class": args.n_per_class,
    })
    _report(args.out, [
        f"analyze: diagonal_dominance={dom:.6f}",
        f"analyze: selected neurons (k={args.k}): {sel}",
    ])
    print(f"selected neurons: {sel} (S_w diagonal dominance {dom:.4f})")
    return 0


def _select_and_score(net, split, k, seed, dep_images):
    mat = _standardized_features(net, split.train, net.last_conv_index())
    scatter = firing.scatter_matrices(mat)
    ranking = firing.rank_and_select(firing.icc_scores(scatter), k)
    subset = split.train[:dep_images] if dep_images else split.train
    table = deconv.dependency_scores(net, subset, ranking.selected)
    return ranking, table


def _write_dependencies(out, table):
    rows = []
    for li in sorted(table.scores):
        for f, s in enumerate(table.scores[li]):
            rows.append([li, f, f"{s:.8g}"])
    _write_csv(os.path.join(out, "dependencies.csv"),
               ["layer", "filter", "score"], rows)


def cmd_prune(args):
    os.makedirs(args.out, exist_ok=True)
    if args.threshold is None and args.grid is None:
        raise ConfigurationError("prune needs --threshold or --grid")
    net, _ = modelio.load_model(args.model)
    split = _load_dataset(args.dataset, args.seed, args.n_per_class)
    tr_imgs, tr_labels = images_labels(split.train)
    te_imgs, te_labels = images_labels(split.test)
    base_acc = accuracy(net, te_imgs, te_labels)
    ranking, table = _select_and_score(net, split, args.k, args.seed,
                                       args.dep_images)
    _write_dependencies(args.out, table)
    cfg = TrainConfig(epochs=args.epochs, lr=args.lr, seed=args.seed)
    lines = []
    if args.grid is not None:
        grid = _parse_grid(args.grid)
        t_0, reports = prune.plateau_threshold_search(
            net, table, ranking.selected, split, grid,
            eps_acc=args.eps_acc, retrain_config=cfg,
        )
        rows = [[f"{r.threshold:.6g}", f"{r.conv_rate:.6f}",
                 f"{r.acc_before:.6f}", f"{r.acc_after:.6f}", int(r.flagged)]
                for r in reports]
        _write_csv(os.path.join(args.out, "threshold_search.csv"),
                   ["threshold", "conv_rate", "acc_before", "acc_after",
                    "forced"], rows)
        threshold = t_0
        lines.append(f"prune: plateau threshold t0={t_0:.6g} "
                     f"(eps_acc={args.eps_acc})")
    else:
        threshold = args.threshold
    plan = prune.build_prune_plan(table, ranking.selected, threshold)
    pruned = prune.apply_prune(net, plan)
    dev = prune.equivalence_check(net, plan, split.test[:20] or split.train[:20])
    retrain(pruned, tr_imgs, tr_labels, te_imgs, te_labels, cfg)
    final_acc = accuracy(pruned, te_imgs, te_labels)
    rate = plan.conv_rate(net)
    sel = [int(n) for n in ranking.selected]
    pruned_path = os.path.join(args.out, "pruned.ldap1")
    modelio.save_model(pruned, pruned_path, provenance={
        "command": "prune", "dataset": args.dataset, "seed": args.seed,
        "k": args.k, "threshold": threshold, "selected": sel,
        "conv_rate": round(rate, 6),
    })
    counts = plan.param_counts(net)
    rows = [[li, b, a, f"{1 - a / b:.6f}"] for li, (b, a) in sorted(counts.items())]
    _write_csv(os.path.join(args.out, "prune_report.csv"),
               ["layer", "params_before", "params_after", "reduction"], rows)
    _update_manifest(args.out, "prune", {
        "model": os.path.basename(args.model), "dataset": args.dataset,
        "seed": args.seed, "k": args.k, "threshold": threshold,
        "grid": args.grid, "eps_acc": args.eps_acc, "epochs": args.epochs,
        "lr": args.lr, "dep_images": args.dep_images,
        "n_per_class": args.n_per_class,
    })
    lines += [
        f"prune: selected={sel} threshold={threshold:.6g}",
        f"prune: conv parameter reduction {rate:.4f}",
        f"prune: pruned-vs-masked max relative deviation {dev:.3g}",
        f"prune: accuracy unpruned={base_acc:.4f} retrained={final_acc:.4f}",
    ]
    if plan.forced_layers:
        lines.append(f"prune: empty-layer guard kept top filter in layers "
                     f"{sorted(plan.forced_layers)}")
    _report(args.out, lines)
    print(f"pruned at t={threshold:.4g}: conv reduction {rate:.2%}, "
          f"accuracy {base_acc:.4f} -> {final_acc:.4f}")
    return 0


def cmd_sweep(args):
    os.makedirs(args.out, exist_ok=True)
    net, _ = modelio.load_model(args.model)
    split = _load_dataset(args.dataset, args.seed, args.n_per_class)
    te_imgs, te_labels = images_labels(split.test)
    base_acc = accuracy(net, te_imgs, te_labels)
    ranking, table = _select_and_score(net, split, args.k, args.seed,
                                       args.dep_images)
    _write_dependencies(args.out, table)
    grid = _parse_grid(args.grid)
    cfg = TrainConfig(epochs=args.epochs, lr=args.lr, seed=args.seed)
    _, reports = prune.plateau_threshold_search(
        net, table, ranking.selected, split, grid,
        eps_acc=args.eps_acc, retrain_config=cfg,
    )
    rows = []
    for r in reports:
        rows.append([f"{r.conv_rate:.6f}", f"{r.acc_after - base_acc:.6f}", "lda"])
    for r in reports:
        acc, _ = prune.magnitude_baseline(net, r.conv_rate, split,
                                          retrain_config=cfg)
        rows.append([f"{r.conv_rate:.6f}", f"{acc - base_acc:.6f}", "magnitude"])
    _write_csv(os.path.join(args.out, "sweep.csv"),
               ["pruning_rate", "accuracy_delta", "method"], rows)
    _update_manifest(args.out, "sweep", {
        "model": os.path.basename(args.model), "dataset": args.dataset,
        "seed": args.seed, "k": args.k, "grid": args.grid,
        "epochs": args.epochs, "lr": args.lr, "eps_acc": args.eps_acc,
        "dep_images": args.dep_images, "n_per_class": args.n_per_class,
    })
    _report(args.out, [f"sweep: {len(grid)} thresholds, both methods, "
                       f"base accuracy {base_acc:.4f}"])
    print(f"sweep complete: {len(rows)} rows in sweep.csv")
    return 0


def cmd_eval(args):
    os.makedirs(args.out, exist_ok=True)
    net, info = modelio.load_model(args.model)
    if info["classifier"] is not None:
        classify.from_arrays(info["classifier"])  # refuse a malformed stored head
    split = _load_dataset(args.dataset, args.seed, args.n_per_class)
    te_imgs, te_labels = images_labels(split.test)
    rows = []
    if args.classifier == "fc":
        hit = 0
        from .network import forward

        for sample in split.test:
            p = forward(net, sample.image)
            pred = int(np.argmax(p.data))
            hit += int(pred == sample.label)
            rows.append([sample.id, sample.label, pred])
        acc = hit / max(len(split.test), 1)
    else:
        last = net.last_conv_index()
        train_mat = _standardized_features(net, split.train, last)
        test_raw = firing.extract_firing_matrix(net, split.test, last)
        test_vals, _ = firing.zscore(test_raw.values, train_mat.col_mean,
                                     train_mat.col_std)
        if args.classifier == "qda":
            model = classify.qda_fit(train_mat.values, train_mat.labels,
                                     lam=args.lam)
            preds = [classify.qda_predict(model, v)[0] for v in test_vals]
        else:
            y = train_mat.labels * 2 - 1
            if args.classifier == "svml":
                model = classify.linear_svm_fit(train_mat.values, y,
                                                c=args.c, seed=args.seed)
            else:
                model = classify.rbf_svm_fit(train_mat.values, y, c=args.c)
            preds = [(classify.svm_predict(model, v) + 1) // 2
                     for v in test_vals]
        hit = sum(int(p == s.label) for p, s in zip(preds, split.test))
        acc = hit / max(len(split.test), 1)
        rows = [[s.id, s.label, int(p)] for s, p in zip(split.test, preds)]
        modelio.save_model(net, os.path.join(args.out, "model_with_head.ldap1"),
                           provenance=info["provenance"],
                           classifier=classify.to_arrays(model))
    _write_csv(os.path.join(args.out, "eval.csv"),
               ["id", "true", "pred"], rows)
    _update_manifest(args.out, "eval", {
        "model": os.path.basename(args.model), "dataset": args.dataset,
        "seed": args.seed, "classifier": args.classifier,
        "n_per_class": args.n_per_class,
    })
    _report(args.out, [f"eval: classifier={args.classifier} "
                       f"accuracy={acc:.4f} n={len(rows)}"])
    print(f"eval[{args.classifier}]: accuracy {acc:.4f} on {len(rows)} samples")
    return 0


def cmd_bench(args):
    os.makedirs(args.out, exist_ok=True)
    net, _ = modelio.load_model(args.model)
    other, _ = modelio.load_model(args.pruned) if args.pruned else (None, None)
    split = _load_dataset(args.dataset, args.seed, args.n_per_class)
    image = split.test[0].image if split.test else split.train[0].image
    rows = []
    per, total = time_network(net, image, runs=args.runs)
    for i, kind, ms in per:
        rows.append(["original", i, kind, f"{ms:.6f}"])
    rows.append(["original", "total", "", f"{total:.6f}"])
    lines = [f"bench: original total median {total:.3f} ms"]
    if other is not None:
        per_p, total_p = time_network(other, image, runs=args.runs)
        for i, kind, ms in per_p:
            rows.append(["pruned", i, kind, f"{ms:.6f}"])
        rows.append(["pruned", "total", "", f"{total_p:.6f}"])
        speedup = total / total_p if total_p > 0 else float("inf")
        size_o = os.path.getsize(args.model)
        size_p = os.path.getsize(args.pruned)
        n_o = modelio.model_param_count(args.model)["total"]
        n_p = modelio.model_param_count(args.pruned)["total"]
        rows.append(["speedup", "", "", f"{speedup:.6f}"])
        summary = (f"speedup {speedup:.2f}x; file size ratio "
                   f"{size_o / size_p:.2f} vs param ratio {n_o / n_p:.2f}")
    else:
        summary = f"total median {total:.3f} ms"
    pinned = "yes" if blas_pinned() else "no (threadpoolctl not installed)"
    print(f"{summary}; BLAS threads pinned: {pinned}")
    _write_csv(os.path.join(args.out, "bench.csv"),
               ["model", "layer", "kind", "median_ms"], rows)
    _update_manifest(args.out, "bench", {
        "model": os.path.basename(args.model),
        "pruned": os.path.basename(args.pruned) if args.pruned else None,
        "dataset": args.dataset, "seed": args.seed, "runs": args.runs,
        "n_per_class": args.n_per_class,
    })
    _report(args.out, ["bench: wrote bench.csv"])
    return 0


def _add_common(p):
    p.add_argument("--dataset", default="synthetic",
                   help="synthetic or dir:PATH of PGM class folders")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-per-class", type=int, default=150,
                   help="synthetic dataset size per class")
    p.add_argument("--out", default="out", help="artifact directory")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fisherprune",
        description="Discriminative filter pruning for small CNNs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train the stock CNN")
    _add_common(p)
    p.add_argument("--epochs", type=int, default=12)
    p.add_argument("--lr", type=float, default=0.005)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("extract", help="dump the firing matrix")
    _add_common(p)
    p.add_argument("--model", required=True)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("analyze", help="rank neurons by discriminability")
    _add_common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--k", type=int, default=4)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("prune", help="prune by dependency threshold and retrain")
    _add_common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--grid", default=None, help="lo:hi:step plateau search")
    p.add_argument("--eps-acc", type=float, default=0.02)
    p.add_argument("--epochs", type=int, default=10, help="retrain budget")
    p.add_argument("--lr", type=float, default=0.005,
                   help="base rate; retraining runs at a tenth of it")
    p.add_argument("--dep-images", type=int, default=60,
                   help="training images used for dependency pooling")
    p.set_defaults(func=cmd_prune)

    p = sub.add_parser("sweep", help="rate-vs-accuracy curves for both methods")
    _add_common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--grid", required=True)
    p.add_argument("--eps-acc", type=float, default=0.02)
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--lr", type=float, default=0.005)
    p.add_argument("--dep-images", type=int, default=60)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("eval", help="evaluate a model or classifier head")
    _add_common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--classifier", default="fc",
                   choices=["fc", "qda", "svml", "svmr"])
    p.add_argument("--lam", type=float, default=1e-3, help="qda ridge")
    p.add_argument("--c", type=float, default=1.0, help="svm cost")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="median per-layer and total timings")
    _add_common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--pruned", default=None)
    p.add_argument("--runs", type=int, default=30)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, ModelFormatError, TrainingDiverged,
            ValueError, FileNotFoundError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
