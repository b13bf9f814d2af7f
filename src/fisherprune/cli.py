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
import math
import os
import sys

import numpy as np

from . import classify, deconv, firing, modelio, prune
from .bench import time_network
from .data import balanced, generate_synthetic, images_labels, load_pgm_dir
from .errors import (ConfigurationError, DimensionError, ModelFormatError,
                     NonFiniteError, TrainingDiverged, require_positive)
from .network import forward, reference_cnn, require_softmax
from .train import TrainConfig, accuracy, train


def _load_dataset(spec, seed, n_per_class):
    if spec == "synthetic":
        return generate_synthetic(n_per_class, seed=seed)
    if spec.startswith("dir:"):
        return load_pgm_dir(spec[4:])
    raise ConfigurationError(
        f"--dataset must be 'synthetic' or 'dir:PATH', got {spec!r}"
    )


def _manifest(args):
    """The parsed flags as given, with model paths cut to their basenames."""
    return {k: os.path.basename(v) if k in ("model", "pruned") and v else v
            for k, v in vars(args).items() if k not in ("func", "command", "out")}


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _parse_grid(text):
    """--grid lo:hi:step, or a bare T as the one-point grid T:T:1; bounds in
    [0, 1], lo <= hi, a finite step > 0 and at most 1000 points."""
    parts = text.split(":")
    if len(parts) == 1:
        parts += [text, "1"]
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError:
        raise ConfigurationError(
            f"--grid must be T or lo:hi:step, got {text!r}"
        ) from None
    if not (0.0 <= lo <= 1.0 and 0.0 <= hi <= 1.0):
        raise ConfigurationError(f"--grid thresholds must be in [0,1], got {text!r}")
    if not (math.isfinite(step) and step > 0) or hi < lo:
        raise ConfigurationError(f"bad grid range {text!r}")
    span = (hi - lo) / step
    if span >= 999.5:  # round(span) + 1 points would pass 1000; also an inf span
        raise ConfigurationError(f"--grid {text!r} has more than 1000 points")
    n = int(round(span)) + 1
    return [round(lo + i * step, 10) for i in range(n) if lo + i * step <= hi + 1e-9]


def _rank(net, split, k):
    """Scatter and top-k ICC ranking of the last conv's standardized firing."""
    mat = firing.standardize(
        firing.extract_firing_matrix(net, split.train, net.last_conv_index()))
    scatter = firing.scatter_matrices(mat)
    return scatter, firing.rank_and_select(firing.icc_scores(scatter), k)


def cmd_train(args, split):
    net = reference_cnn(seed=args.seed)
    tr_imgs, tr_labels = images_labels(split.train)
    te_imgs, te_labels = images_labels(split.test)
    result = train(net, tr_imgs, tr_labels, te_imgs, te_labels,
                   TrainConfig(epochs=args.epochs, lr=args.lr, seed=args.seed))
    _write_csv(os.path.join(args.out, "train_log.csv"),
               ["epoch", "loss", "train_acc", "eval_acc"],
               [[e, f"{loss:.6f}", f"{tr:.6f}", f"{ev:.6f}"]
                for e, loss, tr, ev in result.epoch_log])
    modelio.save_model(net, os.path.join(args.out, "model.ldap1"),
                       provenance={"command": "train", **_manifest(args)})
    accs = (f"train_acc={result.final_train_acc:.4f} "
            f"eval_acc={result.final_eval_acc:.4f}")
    print(f"trained: {accs}")
    if result.epoch_log:  # an epoch ran, so the eval split is not empty
        majority = np.bincount(te_labels).max() / len(te_labels)
        if result.final_eval_acc <= majority:
            print(f"warning: eval_acc={result.final_eval_acc:.4f} is no better "
                  f"than always guessing the majority class ({majority:.4f}): "
                  "training collapsed", file=sys.stderr)
    return [f"train: final {accs}", "train: model saved to model.ldap1"]


def cmd_extract(args, split):
    net, _ = modelio.load_model(args.model)
    mat = firing.extract_firing_matrix(net, split.train, net.last_conv_index())
    rows = [[split.train[i].id, int(mat.labels[i])]
            + [f"{v:.8g}" for v in mat.values[i]]
            for i in range(mat.values.shape[0])]
    d = mat.values.shape[1]
    _write_csv(os.path.join(args.out, "firing.csv"),
               ["id", "label"] + [f"n{j}" for j in range(d)], rows)
    print(f"extracted firing matrix: {mat.values.shape[0]} rows, {d} neurons")
    return [f"extract: firing matrix {mat.values.shape[0]}x{d}"]


def cmd_analyze(args, split):
    net, _ = modelio.load_model(args.model)
    scatter, ranking = _rank(net, split, args.k)
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
    print(f"selected neurons: {sel} (S_w diagonal dominance {dom:.4f})")
    return [
        f"analyze: diagonal_dominance={dom:.6f}",
        f"analyze: selected neurons (k={args.k}): {sel}",
    ]


def _dependency_search(args, split):
    """prune and sweep's shared head: check every flag, then load, base
    accuracy, rank, dependency walk into dependencies.csv and the plateau
    search over --grid. Returns (net, base_acc, ranking, cfg, (t_0, reports))."""
    cfg = TrainConfig(epochs=args.epochs, lr=args.lr, seed=args.seed)
    if args.dep_images < 0:
        raise ConfigurationError(
            f"--dep-images must be >= 0 (0 means all), got {args.dep_images}")
    grid = _parse_grid(args.grid)
    require_positive("--eps-acc", args.eps_acc)
    net, _ = modelio.load_model(args.model)
    te_imgs, te_labels = images_labels(split.test)
    base_acc = accuracy(net, te_imgs, te_labels)
    _, ranking = _rank(net, split, args.k)
    table = deconv.dependency_scores(
        net, balanced(split.train, args.dep_images), ranking.selected)
    _write_csv(os.path.join(args.out, "dependencies.csv"),
               ["layer", "filter", "score"],
               [[li, f, f"{s:.8g}"] for li in sorted(table.scores)
                for f, s in enumerate(table.scores[li])])
    search = prune.plateau_threshold_search(
        net, table, ranking.selected, split, grid,
        eps_acc=args.eps_acc, retrain_config=cfg,
    )
    return net, base_acc, ranking, cfg, search


def cmd_prune(args, split):
    net, base_acc, ranking, _, (t_0, reports) = _dependency_search(args, split)
    rows = [[f"{r.threshold:.6g}", f"{r.conv_rate:.6f}", f"{r.acc_before:.6f}",
             f"{r.acc_after:.6f}", int(bool(r.plan.forced_layers))]
            for r in reports]
    _write_csv(os.path.join(args.out, "threshold_search.csv"),
               ["threshold", "conv_rate", "acc_before", "acc_after", "forced"],
               rows)
    chosen = next(r for r in reports if r.threshold == t_0)
    plan, rate, final_acc = chosen.plan, chosen.conv_rate, chosen.acc_after
    dev = prune.equivalence_check(net, plan, split.test[:20])
    sel = [int(n) for n in ranking.selected]
    modelio.save_model(chosen.net, os.path.join(args.out, "pruned.ldap1"),
                       provenance={"command": "prune", **_manifest(args),
                                   "threshold": t_0, "selected": sel,
                                   "conv_rate": round(rate, 6)})
    counts = prune.layer_param_counts(net, chosen.net)
    rows = [[li, b, a, f"{1 - a / b:.6f}"] for li, (b, a) in sorted(counts.items())]
    _write_csv(os.path.join(args.out, "prune_report.csv"),
               ["layer", "params_before", "params_after", "reduction"], rows)
    lines = [
        f"prune: plateau threshold t0={t_0:.6g} (eps_acc={args.eps_acc})",
        f"prune: selected={sel} threshold={t_0:.6g}",
        f"prune: conv parameter reduction {rate:.4f}",
        f"prune: pruned-vs-masked max relative deviation {dev:.3g}",
        f"prune: accuracy unpruned={base_acc:.4f} retrained={final_acc:.4f}",
    ]
    if plan.forced_layers:
        lines.append(f"prune: empty-layer guard kept top filter in layers "
                     f"{sorted(plan.forced_layers)}")
    print(f"pruned at t={t_0:.4g}: conv reduction {rate:.2%}, "
          f"accuracy {base_acc:.4f} -> {final_acc:.4f}")
    return lines


def cmd_sweep(args, split):
    net, base_acc, _, cfg, (_, reports) = _dependency_search(args, split)
    rows = [[f"{r.conv_rate:.6f}", f"{r.acc_after - base_acc:.6f}", "lda"]
            for r in reports]
    for r in reports:
        acc, _ = prune.magnitude_baseline(net, r.conv_rate, split,
                                          retrain_config=cfg)
        rows.append([f"{r.conv_rate:.6f}", f"{acc - base_acc:.6f}", "magnitude"])
    _write_csv(os.path.join(args.out, "sweep.csv"),
               ["pruning_rate", "accuracy_delta", "method"], rows)
    print(f"sweep complete: {len(rows)} rows in sweep.csv")
    return [f"sweep: {len(reports)} thresholds, both methods, "
            f"base accuracy {base_acc:.4f}"]


def cmd_eval(args, split):
    if not split.test:
        raise ConfigurationError("eval needs a non-empty test split")
    net, info = modelio.load_model(args.model)
    if info["classifier"] is not None:
        classify.from_arrays(info["classifier"])  # refuse a malformed stored head
    if args.classifier == "fc":
        require_softmax(net)
        preds = [int(np.argmax(forward(net, s.image).data)) for s in split.test]
    else:
        last = net.last_conv_index()
        train_mat = firing.standardize(
            firing.extract_firing_matrix(net, split.train, last))
        test_raw = firing.extract_firing_matrix(net, split.test, last)
        test_vals = firing.zscore(test_raw.values, train_mat.col_mean,
                                  train_mat.col_std)
        model = classify.fit_head(args.classifier, train_mat.values,
                                  train_mat.labels, lam=args.lam, c=args.c,
                                  seed=args.seed)
        preds = classify.predict(model, test_vals).tolist()
        modelio.save_model(net, os.path.join(args.out, "model_with_head.ldap1"),
                           provenance=info["provenance"],
                           classifier=classify.to_arrays(model))
    rows = [[s.id, s.label, p] for s, p in zip(split.test, preds)]
    hit = sum(p == s.label for s, p in zip(split.test, preds))
    acc = hit / len(split.test)
    _write_csv(os.path.join(args.out, "eval.csv"),
               ["id", "true", "pred"], rows)
    print(f"eval[{args.classifier}]: accuracy {acc:.4f} on {len(rows)} samples")
    return [f"eval: classifier={args.classifier} "
            f"accuracy={acc:.4f} n={len(rows)}"]


def cmd_bench(args, split):
    if not 1 <= args.runs <= 10000:
        raise ConfigurationError(f"--runs must be in [1, 10000], got {args.runs}")
    paths = {"original": args.model, "pruned": args.pruned}
    nets = {name: modelio.load_model(path)[0]
            for name, path in paths.items() if path}
    image = split.test[0].image if split.test else split.train[0].image
    rows, total = [], {}
    for name, net in nets.items():
        per, total[name] = time_network(net, image, runs=args.runs)
        rows += [[name, i, kind, f"{ms:.6f}"] for i, kind, ms in per]
        rows.append([name, "total", "", f"{total[name]:.6f}"])
    summary = f"total median {total['original']:.3f} ms"
    if args.pruned:
        speedup = total["original"] / total["pruned"]
        size_o, size_p = map(os.path.getsize, (args.model, args.pruned))
        n_o, n_p = (sum(nets[name].param_count()) for name in paths)
        rows.append(["speedup", "", "", f"{speedup:.6f}"])
        summary = (f"speedup {speedup:.2f}x; file size ratio "
                   f"{size_o / size_p:.2f} vs param ratio {n_o / n_p:.2f}")
    threads = ", ".join(f"{k}={os.environ.get(k, 'unset')}"
                        for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"))
    print(f"{summary}; BLAS threads: {threads}")
    _write_csv(os.path.join(args.out, "bench.csv"),
               ["model", "layer", "kind", "median_ms"], rows)
    return ["bench: wrote bench.csv"]


def _add_common(p):
    p.add_argument("--dataset", default="synthetic",
                   help="synthetic or dir:PATH of PGM class folders")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-per-class", type=int, default=150,
                   help="synthetic dataset size per class")
    p.add_argument("--out", default="out", help="artifact directory")


def _add_pruning(p):
    p.add_argument("--model", required=True)
    p.add_argument("--k", type=int, default=4, help="last-conv neurons kept")
    p.add_argument("--eps-acc", type=float, default=0.02, help="plateau slack")
    p.add_argument("--epochs", type=int, default=10, help="retrain budget")
    p.add_argument("--lr", type=float, default=0.005,
                   help="base rate; retraining runs at a tenth of it")
    p.add_argument("--dep-images", type=int, default=60,
                   help="training images used for dependency pooling, "
                        "taken from the classes in turn (0 means all)")
    p.add_argument("--grid", required=True, help="T or lo:hi:step thresholds")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # main prints it as one line and exits 2
        raise ConfigurationError(message)


def build_parser():
    parser = _Parser(
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
    _add_pruning(p)
    p.set_defaults(func=cmd_prune)

    p = sub.add_parser("sweep", help="rate-vs-accuracy curves for both methods")
    _add_common(p)
    _add_pruning(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("eval", help="evaluate a model or classifier head")
    _add_common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--classifier", default="fc",
                   choices=["fc", *classify.HEADS])
    p.add_argument("--lam", type=float, default=1e-3, help="qda ridge")
    p.add_argument("--c", type=float, default=1.0, help="svm cost")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="median per-step and total timings")
    _add_common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--pruned", default=None)
    p.add_argument("--runs", type=int, default=30)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None):
    """Parse argv, run one command into --out, record its manifest and report.

    The command gets the loaded dataset and returns its report.txt lines;
    manifest.json gains the command's parsed flags under its name; one that
    does not hold a JSON object is refused before any work. A package error
    or an OSError prints one `error:` line and returns 2; any other
    exception propagates.
    """
    try:
        args = build_parser().parse_args(argv)
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "manifest.json")
        manifest = {}
        if os.path.exists(path):
            with open(path) as fh:
                try:
                    manifest = json.load(fh)
                except ValueError:  # not JSON, or not UTF-8
                    manifest = None
            if not isinstance(manifest, dict):
                raise ConfigurationError(f"{path} does not hold a JSON object")
        split = _load_dataset(args.dataset, args.seed, args.n_per_class)
        lines = args.func(args, split)
        manifest[args.command] = _manifest(args)
        with open(path, "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        with open(os.path.join(args.out, "report.txt"), "a") as fh:
            fh.writelines(line + "\n" for line in lines)
    except (ConfigurationError, DimensionError, NonFiniteError,
            ModelFormatError, TrainingDiverged, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
