#!/usr/bin/env python3
"""fisherprune benchmark: train / prune / infer workloads on the synthetic task.

Run from the repository root:

    python3 perfbench/run.py --workload train --seed 1 --seconds 16 --trace 0

The pipeline is an offline batch job, so every workload is a closed loop
with one caller in one process: each job starts only after the previous one
returned. Jobs repeat for 40% of --seconds (at least one job); the rest
is a latency probe that times per-image forward passes of the net the
workload delivers. The package is driven only through its public API:
top-level exports, `fisherprune.ops`, `fisherprune.classify`,
`fisherprune.data.images_labels` and `fisherprune.cli.main(argv)`.

Inputs: the seed draws the `train` task and the held-out probe set of every
workload. `prune` and `infer` start from one fixed base model and its task
(the model a user brings), so their pruned widths do not change with the
seed.

Timings on a shared cloud VM: on a 2-vCPU Xeon, other tenants slowed a
forward pass by up to 1.6x in phases lasting seconds. Per-image latencies
are therefore taken from the quietest 25-image blocks of each run (see
`quiet_percentiles`).
Multi-second wall times (train_img_per_s, prune_s, analyze_s, ...) cannot be
cleaned that way; they are printed on the detail line, not gated.

stdout: an environment line, a detail line with per-workload numbers and
exact counts, and, last, the result object {"correct", "attempted",
"failed", "metrics"}. With --trace 0 the metrics are the end-to-end ones;
with --trace 1 the first job runs untraced, later jobs traced, and the
metrics are the per-layer ones (layers.py).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
WORKLOADS = ("train", "prune", "infer")
PROBE_SEED_OFFSET = 1_000_003  # probe images come from a separate stream
BASE_SEED = 20170420  # the fixed base model, its task, and `train`'s init
LR = 0.002  # SGD rate; 0.005 collapses some seeds to one class in epoch 2
BLOCK = 25  # images per latency block
POOL_P50 = 250  # samples behind the p50
POOL = 1000  # samples behind the p99 (at least ten beyond it)
# Share of --seconds spent in jobs; the rest samples latency over a window
# long enough to outlast a busy phase of the host.
JOB_SHARE = 0.4


@dataclass(frozen=True)
class Scale:
    n_per_class: int  # synthetic task: 80% train / 20% test per class
    probe_per_class: int  # held-out probe set (train + test halves)
    base_epochs: int  # base-model training in set-up
    train_epochs: int  # epochs per `train` job; at LR, 1 to 3 seeds in 100
    # dip to one class at the end of epoch 1 or 2, none (of 81) at the end of 3
    acc_floor: float  # train_eval_acc below this fails the job's check
    k: int
    dep_images: int
    grid: str  # `prune --grid`; an even number of points
    prune_epochs: int  # `prune --epochs`: retrain budget per grid point
    infer_threshold: float
    infer_retrain_epochs: int
    pool: int  # samples behind each latency percentile


SCALES = {
    "full": Scale(n_per_class=150, probe_per_class=600, base_epochs=1,
                  train_epochs=3, acc_floor=0.9, k=4, dep_images=60,
                  grid="0.2:0.5:0.1", prune_epochs=2, infer_threshold=0.2,
                  infer_retrain_epochs=1, pool=POOL),
    # Self-test size: exercises every step in seconds; accuracy is not checked.
    "tiny": Scale(n_per_class=6, probe_per_class=20, base_epochs=1,
                  train_epochs=1, acc_floor=0.0, k=2, dep_images=4,
                  grid="0.2:0.3:0.1", prune_epochs=1, infer_threshold=0.2,
                  infer_retrain_epochs=1, pool=2 * BLOCK),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=sorted(SCALES), default="full",
                   help="input size; 'tiny' is for perfbench/selftest.py")
    p.add_argument("--inject-nan", action="store_true",
                   help="self-test only: put a NaN image into the training set")
    return p.parse_args(argv)


# -- environment -------------------------------------------------------------

def pin_blas_threads():
    """Pin BLAS pools to one thread; must run before numpy is imported."""
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"


def environment(np):
    """Machine, numpy/BLAS versions, and the thread count actually in effect."""
    a = np.random.default_rng(0).standard_normal((384, 384))
    float((a @ a).sum())  # warm matmul: an unpinned OpenBLAS starts its pool here
    threads = len(os.listdir("/proc/self/task"))
    blas = {}
    with contextlib.suppress(Exception):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    mem = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "mem_gb": round(mem / 2**30, 2),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "threads_after_warm_matmul": threads,
        "blas_pinned": threads == 1,
    }


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # Linux reports KiB


# -- statistics --------------------------------------------------------------

def quiet_percentiles(times, np, pool):
    """p50 and p99 of a latency series, taken from its quietest blocks.

    `times` is in the order taken. It is cut into blocks of BLOCK samples and
    the blocks are ranked by their median; p50 is read from the first
    POOL_P50 ranked samples, p99 from the first `pool`. Host contention comes
    in phases of seconds, so it slows whole blocks and the ranking drops
    them, while jitter inside a block stays in the pool.
    """
    blocks = [times[i:i + BLOCK] for i in range(0, len(times) - BLOCK + 1, BLOCK)]
    blocks.sort(key=statistics.median)
    flat = [t for block in blocks for t in block]
    if not flat:
        return 0.0, 0.0
    p50 = float(np.percentile(flat[:min(POOL_P50, pool)], 50))
    return p50, float(np.percentile(flat[:pool], 99))


def latency_summary(times, b):
    """Quiet and raw p50/p99 of a latency series, for the detail line."""
    q50, q99 = quiet_percentiles(times, b.np, b.scale.pool)
    r50, r99 = (float(b.np.percentile(times, q)) if times else 0.0
                for q in (50, 99))
    return {"quiet_p50": q50, "quiet_p99": q99, "raw_p50": r50,
            "raw_p99": r99, "samples": len(times), "unit": "ms"}


class TickList(list):
    """A list that stamps the clock on every indexed read.

    `train` reads its training images one index per SGD step, so the gaps
    between stamps are per-sample step times, seen from the input side.
    """

    def __init__(self, items):
        super().__init__(items)
        self.stamps = []

    def __getitem__(self, idx):
        self.stamps.append(time.perf_counter_ns())
        return super().__getitem__(idx)

    def step_ms(self):
        s = self.stamps
        return [(b - a) / 1e6 for a, b in zip(s, s[1:])]


# -- operation accounting ----------------------------------------------------

class Ledger:
    """Counts operations and correctness checks; failures never abort a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def op(self, name, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failed += 1
            self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
            return None

    def check(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(f"check {name} failed {detail}".rstrip())
        return bool(ok)


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


def _m(value, unit):
    return {"value": value, "unit": unit}


# -- inputs ------------------------------------------------------------------

def write_pgm_dir(samples, path, np):
    """Write samples as binary 8-bit PGMs in PATH/<label>/<id>.pgm."""
    for s in samples:
        d = os.path.join(path, str(s.label))
        os.makedirs(d, exist_ok=True)
        pix = np.clip(np.round(s.image.data[0] * 255.0), 0, 255).astype(np.uint8)
        h, w = pix.shape
        with open(os.path.join(d, f"{s.id}.pgm"), "wb") as fh:
            fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
            fh.write(pix.tobytes())


def digest(samples):
    h = hashlib.sha256()
    for s in samples:
        h.update(s.image.data.tobytes())
        h.update(bytes([s.label]))
    return h.hexdigest()[:16]


class Bench:
    """Shared state of one run: package handles, scale, seed, ledger."""

    def __init__(self, args, fp, np):
        self.args = args
        self.fp = fp
        self.np = np
        self.scale = SCALES[args.scale]
        self.seed = args.seed
        self.ledger = Ledger()

    def task(self, seed):
        split = self.fp.generate_synthetic(self.scale.n_per_class, seed=seed)
        if self.args.inject_nan:
            split.train[0].image.data[...] = float("nan")
        return split

    def probe(self):
        p = self.fp.generate_synthetic(self.scale.probe_per_class,
                                       seed=self.seed + PROBE_SEED_OFFSET)
        return p.train + p.test

    @staticmethod
    def arrays(samples):
        from fisherprune.data import images_labels

        return images_labels(samples)

    def base_model(self, split):
        """The model users bring to prune/infer: a fixed, briefly trained recipe."""
        fp = self.fp
        net = fp.reference_cnn(seed=BASE_SEED)
        tr, trl = self.arrays(split.train)
        te, tel = self.arrays(split.test)
        fp.train(net, tr, trl, te, tel, fp.TrainConfig(
            epochs=self.scale.base_epochs, lr=LR, seed=BASE_SEED))
        return net

    def forward_probe(self, net, samples):
        """Per-image forward latency (ms), accuracy and finiteness over samples."""
        forward, np = self.fp.forward, self.np
        times, hits, finite = [], 0, True
        for s in samples:
            t0 = time.perf_counter_ns()
            out = forward(net, s.image)
            times.append((time.perf_counter_ns() - t0) / 1e6)
            finite = finite and bool(np.isfinite(out.data).all())
            hits += int(int(np.argmax(out.data)) == s.label)
        return times, hits / max(len(samples), 1), finite

    def latency_phase(self, net, samples, until, times):
        """Append per-image forward times (ms) of `net` to `times` until the
        clock passes `until` and `times` holds at least `pool` samples."""
        forward = self.fp.forward
        i = 0
        while time.perf_counter() < until or len(times) < self.scale.pool:
            image = samples[i % len(samples)].image
            t0 = time.perf_counter_ns()
            forward(net, image)
            times.append((time.perf_counter_ns() - t0) / 1e6)
            i += 1

    def logits_equal(self, a, b, samples):
        np = self.np
        return all(np.array_equal(self.fp.logits(a, s.image).data,
                                  self.fp.logits(b, s.image).data)
                   for s in samples)


# -- workloads ---------------------------------------------------------------
#
# setups: set-up repeats per run, setup_s is their median (more where a
# set-up is short). A traced run sets up once.
# setup(bench, dir) -> ctx; job(bench, ctx, dir) -> record, timed and traced
# under the "job" root; check(bench, ctx, record, dir) runs the correctness
# checks outside the timing. nets(ctx, record) names the nets whose latency
# the probe phase samples; "delivered" is the one the workload hands over.

class TrainWorkload:
    """Per-sample SGD of the full-width net: forward(record), backward, update;
    then evaluate on the probe set and save."""

    setups = 9

    def setup(self, b, d):
        split = b.task(b.seed)
        tr, trl = b.arrays(split.train)
        te, tel = b.arrays(split.test)
        return {"inputs": split.train, "tr": tr, "trl": trl, "te": te,
                "tel": tel, "probe": b.probe()}

    def job(self, b, ctx, d):
        fp, s = b.fp, b.scale
        net = fp.reference_cnn(seed=BASE_SEED)
        cfg = fp.TrainConfig(epochs=s.train_epochs, lr=LR, seed=b.seed)
        images = TickList(ctx["tr"])
        result, train_s = timed(b.ledger.op, "train", fp.train, net, images,
                                ctx["trl"], ctx["te"], ctx["tel"], cfg)
        fwd, acc, finite = b.forward_probe(net, ctx["probe"])
        b.ledger.op("save", fp.save_model, net, os.path.join(d, "model.ldap1"),
                    provenance={"seed": b.seed, "epochs": s.train_epochs})
        return {"net": net, "result": result, "fwd_ms": fwd, "acc": acc,
                "finite": finite, "train_s": train_s,
                "samples": s.train_epochs * len(ctx["trl"]),
                "step_ms": images.step_ms()}

    def check(self, b, ctx, rec, d):
        res = rec["result"]
        losses = [row[1] for row in res.epoch_log] if res else []
        b.ledger.check("loss_finite", res is not None
                       and bool(b.np.isfinite(losses).all()), str(losses))
        eval_acc = res.final_eval_acc if res else 0.0
        b.ledger.check("train_eval_acc_floor", eval_acc >= b.scale.acc_floor,
                       f"{eval_acc} < {b.scale.acc_floor}")
        b.ledger.check("outputs_finite", rec["finite"])
        rec["train_eval_acc"] = eval_acc

    def detail(self, b, ctx, recs):
        steps = [t for r in recs for t in r["step_ms"]]
        return {
            "train_img_per_s": _m(statistics.median(
                r["samples"] / r["train_s"] for r in recs), "1/s"),
            "train_step_ms_quiet_p50": _m(
                quiet_percentiles(steps, b.np, b.scale.pool)[0], "ms"),
            "train_eval_acc": _m(recs[-1]["train_eval_acc"], "frac"),
        }

    def nets(self, ctx, rec):
        return {"delivered": rec["net"]}


class PruneWorkload:
    """`fisherprune prune --grid`: firing, ICC rank, dependency walk, plateau
    search over retrained narrow nets, final prune, equivalence, retrain."""

    setups = 3

    def setup(self, b, d):
        fp = b.fp
        split = b.task(BASE_SEED)
        pgm = os.path.join(d, "pgm")
        write_pgm_dir(split.train + split.test, pgm, b.np)
        base = b.base_model(split)
        base_path = os.path.join(d, "base.ldap1")
        fp.save_model(base, base_path, provenance={"recipe": BASE_SEED})
        probe = b.probe()
        return {"inputs": probe, "probe": probe, "pgm": pgm, "base": base,
                "base_path": base_path}

    def job(self, b, ctx, d):
        fp, s = b.fp, b.scale
        out = os.path.join(d, "out")
        argv = ["prune", "--model", ctx["base_path"], "--dataset",
                f"dir:{ctx['pgm']}", "--seed", str(BASE_SEED), "--k", str(s.k),
                "--grid", s.grid, "--epochs", str(s.prune_epochs),
                "--dep-images", str(s.dep_images), "--out", out]
        with contextlib.redirect_stdout(sys.stderr):
            rc, prune_s = timed(b.ledger.op, "prune", fp.cli.main, argv)
        path = os.path.join(out, "pruned.ldap1")
        loaded = b.ledger.op("load_pruned", fp.load_model, path)
        net, info = loaded if loaded else (None, None)
        fwd, acc, finite = (b.forward_probe(net, ctx["probe"]) if net
                            else ([], 0.0, False))
        return {"rc": rc, "net": net, "info": info, "out": out, "path": path,
                "prune_s": prune_s, "fwd_ms": fwd, "acc": acc, "finite": finite}

    def check(self, b, ctx, rec, d):
        fp, led = b.fp, b.ledger
        led.check("prune_exit_code", rec["rc"] == 0, f"rc={rec['rc']}")
        net, info = rec["net"], rec["info"]
        if net is None:
            for name in ("masked_equivalence", "conv_rate_matches_file",
                         "reload_bit_identical", "outputs_finite"):
                led.check(name, False, "no pruned model")
            return
        prov = info["provenance"]
        plan = led.op("rebuild_plan", self._plan, b, rec["out"], prov)
        widths = tuple(l.weights.shape[0] for l in net.layers if l.kind == "conv")
        same = plan is not None and widths == tuple(
            len(plan.keep[i]) for i in sorted(plan.keep))
        dev = (led.op("equivalence_check", fp.equivalence_check, ctx["base"],
                      plan, ctx["probe"][:20]) if plan is not None else None)
        led.check("masked_equivalence", same and dev is not None and dev <= 1e-4,
                  f"widths_match={same} dev={dev}")
        rate = 1.0 - (fp.model_param_count(rec["path"])["conv"]
                      / fp.model_param_count(ctx["base_path"])["conv"])
        led.check("conv_rate_matches_file",
                  abs(rate - float(prov.get("conv_rate", -1))) <= 1e-6,
                  f"file {rate} vs reported {prov.get('conv_rate')}")
        copy = os.path.join(d, "reloaded.ldap1")
        fp.save_model(net, copy, provenance=prov)
        again, _ = fp.load_model(copy)
        led.check("reload_bit_identical",
                  b.logits_equal(net, again, ctx["probe"][:8]))
        led.check("outputs_finite", rec["finite"])
        with open(os.path.join(rec["out"], "threshold_search.csv")) as fh:
            grid_points = sum(1 for _ in fh) - 1
        rec.update(deviation=dev, conv_rate=float(prov.get("conv_rate", 0.0)),
                   grid_points=grid_points,
                   forced_layers=len(plan.forced_layers) if plan else None)

    @staticmethod
    def _plan(b, out, prov):
        """Rebuild the final plan from the command's own artifacts."""
        from types import SimpleNamespace

        scores = {}
        with open(os.path.join(out, "dependencies.csv")) as fh:
            next(fh)
            for line in fh:
                layer, _, score = line.strip().split(",")
                scores.setdefault(int(layer), []).append(float(score))
        table = SimpleNamespace(
            scores={k: b.np.array(v) for k, v in scores.items()})
        return b.fp.build_prune_plan(table, prov["selected"], prov["threshold"])

    def detail(self, b, ctx, recs):
        last = recs[-1]
        return {
            "prune_s": _m(statistics.median(r["prune_s"] for r in recs), "s"),
            "pruned_acc": _m(last["acc"], "frac"),
            "conv_rate": _m(last.get("conv_rate"), "frac"),
            "grid_points": _m(last.get("grid_points"), "count"),
            "forced_layers": _m(last.get("forced_layers"), "count"),
            "masked_deviation": _m(last.get("deviation"), "rel"),
        }

    def nets(self, ctx, rec):
        return {"delivered": rec["net"]} if rec["net"] else {}


class InferWorkload:
    """Forward-only work: container round trip, per-image inference on the
    original and pruned nets, firing/rank/dependency analysis, QDA/SVM heads."""

    setups = 3

    def setup(self, b, d):
        fp, s = b.fp, b.scale
        split = b.task(BASE_SEED)
        base = b.base_model(split)
        last = base.last_conv_index()
        mat = fp.standardize(fp.extract_firing_matrix(base, split.train, last))
        ranking = fp.rank_and_select(fp.icc_scores(fp.scatter_matrices(mat)), s.k)
        table = fp.dependency_scores(base, split.train[: s.dep_images],
                                     ranking.selected)
        plan = fp.build_prune_plan(table, ranking.selected, s.infer_threshold)
        pruned = fp.apply_prune(base, plan)
        tr, trl = b.arrays(split.train)
        te, tel = b.arrays(split.test)
        fp.retrain(pruned, tr, trl, te, tel, fp.TrainConfig(
            epochs=s.infer_retrain_epochs, lr=LR, seed=BASE_SEED))
        paths = {}
        for name, net in (("base", base), ("pruned", pruned)):
            paths[name] = os.path.join(d, f"{name}.ldap1")
            fp.save_model(net, paths[name], provenance={"recipe": BASE_SEED})
        probe = b.probe()
        # head features: fit on every other probe image, test on the rest
        return {"inputs": probe, "split": split, "probe": probe,
                "fit": probe[0::2], "test": probe[1::2], "paths": paths,
                "conv_rate": plan.conv_rate(base)}

    def job(self, b, ctx, d):
        fp, led = b.fp, b.ledger
        t0 = time.perf_counter()
        nets = {}
        for name, path in ctx["paths"].items():
            loaded = led.op(f"load_{name}", fp.load_model, path)
            if loaded is None:
                continue
            copy = os.path.join(d, f"{name}.ldap1")
            led.op(f"save_{name}", fp.save_model, loaded[0], copy,
                   provenance=loaded[1]["provenance"])
            again = led.op(f"reload_{name}", fp.load_model, copy)
            nets[name] = (loaded[0], again[0] if again else None)
        roundtrip_s = time.perf_counter() - t0
        base = nets.get("base", (None, None))[0]
        pruned = nets.get("pruned", (None, None))[0]
        fwd_o, _, fin_o = (b.forward_probe(base, ctx["probe"]) if base
                           else ([], 0.0, False))
        fwd_p, acc_p, fin_p = (b.forward_probe(pruned, ctx["probe"]) if pruned
                               else ([], 0.0, False))
        analysis, analyze_s = (timed(led.op, "analyze", self._analyze, b, ctx,
                                     base, pruned)
                               if base and pruned else (None, 0.0))
        heads, heads_s = (timed(led.op, "heads", self._heads, b, analysis)
                          if analysis else (None, 0.0))
        return {"nets": nets, "base": base, "net": pruned,
                "roundtrip_s": roundtrip_s, "fwd_ms": fwd_p,
                "fwd_orig_ms": fwd_o, "acc_pruned": acc_p,
                "finite": fin_o and fin_p, "analysis": analysis,
                "analyze_s": analyze_s, "heads": heads, "heads_s": heads_s,
                "acc": heads["acc"] if heads else 0.0}

    @staticmethod
    def _analyze(b, ctx, base, pruned):
        """Firing + ICC rank + dependency walk on the original net, then the
        selected neurons' firing scores (the pruned net's last conv)."""
        fp, s, np = b.fp, b.scale, b.np
        split = ctx["split"]
        mat = fp.standardize(fp.extract_firing_matrix(
            base, split.train, base.last_conv_index()))
        ranking = fp.rank_and_select(fp.icc_scores(fp.scatter_matrices(mat)), s.k)
        table = fp.dependency_scores(base, split.train[: s.dep_images],
                                     ranking.selected)
        last = pruned.last_conv_index()
        feats = fp.standardize(fp.extract_firing_matrix(pruned, ctx["fit"], last))
        test = fp.extract_firing_matrix(pruned, ctx["test"], last)
        scale = np.where(feats.col_std < 1e-8, 1.0, feats.col_std)
        return {"x": feats.values, "y": feats.labels,
                "xt": (test.values - feats.col_mean) / scale, "yt": test.labels,
                "walks": len(table.selected) * table.n_images,
                "dead_layers": len(table.dead_layers)}

    @staticmethod
    def _heads(b, a):
        from fisherprune import classify

        x, y, xt, yt = a["x"], a["y"], a["xt"], a["yt"]
        models = {
            "qda": classify.qda_fit(x, y),
            "svm_linear": classify.linear_svm_fit(x, y * 2 - 1, seed=b.seed),
            "svm_rbf": classify.rbf_svm_fit(x, y * 2 - 1),
        }
        out = {}
        for name, model in models.items():
            acc, confusion = classify.evaluate_accuracy(model, xt, yt)
            out[name] = {"acc": acc, "predicted": confusion.sum(axis=0).tolist()}
        rbf = models["svm_rbf"]
        out["smo"] = {"passes": rbf.iterations, "n_sv": int(len(rbf.alpha)),
                      "converged": bool(rbf.converged)}
        out["acc"] = statistics.mean(out[n]["acc"] for n in models)
        return out

    def check(self, b, ctx, rec, d):
        led, np = b.ledger, b.np
        for name in ("base", "pruned"):
            net, again = rec["nets"].get(name, (None, None))
            led.check(f"roundtrip_bit_identical_{name}", net is not None
                      and again is not None
                      and b.logits_equal(net, again, ctx["probe"][:8]))
        a = rec["analysis"]
        feats_finite = a is not None and all(
            bool(np.isfinite(a[k]).all()) for k in ("x", "xt"))
        led.check("outputs_finite", rec["finite"] and feats_finite)
        for name in ("qda", "svm_linear", "svm_rbf"):
            pred = rec["heads"][name]["predicted"] if rec["heads"] else [0, 0]
            led.check(f"{name}_predicts_both_classes", min(pred) > 0, str(pred))

    def detail(self, b, ctx, recs):
        last = recs[-1]
        heads = last["heads"] or {}
        out = {
            "roundtrip_s": _m(statistics.median(r["roundtrip_s"] for r in recs), "s"),
            "analyze_s": _m(statistics.median(r["analyze_s"] for r in recs), "s"),
            "heads_s": _m(statistics.median(r["heads_s"] for r in recs), "s"),
            "heads_acc": _m(last["acc"], "frac"),
            "pruned_probe_acc": _m(last["acc_pruned"], "frac"),
            "conv_rate": _m(ctx["conv_rate"], "frac"),
            "fwd_original_ms": latency_summary(
                [t for r in recs for t in r["fwd_orig_ms"]], b),
        }
        for name in ("qda", "svm_linear", "svm_rbf"):
            if name in heads:
                out[f"{name}_acc"] = _m(heads[name]["acc"], "frac")
        if "smo" in heads:
            out["smo_passes"] = _m(heads["smo"]["passes"], "count")
            out["smo_n_sv"] = _m(heads["smo"]["n_sv"], "count")
            out["smo_converged"] = _m(int(heads["smo"]["converged"]), "count")
        if last["analysis"]:
            out["deconv_walks"] = _m(last["analysis"]["walks"], "count")
            out["dead_layers"] = _m(last["analysis"]["dead_layers"], "count")
        return out

    def nets(self, ctx, rec):
        return {"delivered": rec["net"]} if rec["net"] else {}


# -- run loop ----------------------------------------------------------------

def warm_up(b):
    """A few forward/backward passes so the first timed job is not cold."""
    fp = b.fp
    split = fp.generate_synthetic(4, seed=0)
    net = fp.reference_cnn(seed=0)
    tr, trl = b.arrays(split.train)
    fp.train(net, tr, trl, tr, trl, fp.TrainConfig(epochs=1, seed=0))


def run(args):
    pin_blas_threads()
    if not os.path.isfile(os.path.join(SRC, "fisherprune", "__init__.py")):
        print(f"error: no fisherprune sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import numpy as np

    import fisherprune as fp
    import fisherprune.classify  # noqa: F401  (heads; instrumented when traced)
    import fisherprune.cli  # noqa: F401  (fp.cli.main runs `prune`)
    from layers import PER_LAYER, conv_counts, conv_widths, instrument, \
        per_layer_metrics
    from tracer import Tracer

    if not os.path.abspath(fp.__file__).startswith(SRC + os.sep):
        print(f"error: imported fisherprune from {fp.__file__}", file=sys.stderr)
        return 2
    env = environment(np)
    print(json.dumps({"env": env}), flush=True)

    work = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        b = Bench(args, fp, np)
        wl = {"train": TrainWorkload, "prune": PruneWorkload,
              "infer": InferWorkload}[args.workload]()
        tracer = Tracer()
        absent = (instrument(tracer, conv_widths(fp.reference_cnn(seed=0)))
                  if args.trace else set())
        detail = {}

        setup_times = []

        def set_up():
            d = os.path.join(work, f"setup{len(setup_times)}")
            os.makedirs(d)
            tracer.enabled = bool(args.trace)
            t0 = time.perf_counter()
            with tracer.phase("setup"):
                ctx = b.ledger.op("setup", wl.setup, b, d)
            setup_times.append(time.perf_counter() - t0)
            tracer.enabled = False
            return ctx

        ctx = set_up()
        if ctx is None:
            return emit(args, b, detail, {})
        detail["inputs_digest"] = digest(ctx["inputs"])
        warm_up(b)

        # Jobs: a closed loop for 40% of the run (at least one job; a traced
        # run has one untraced job for the overhead baseline, then traced ones).
        recs, traced_walls, untraced_wall = [], [], None
        start = time.perf_counter()
        while True:
            traced = bool(args.trace) and untraced_wall is not None
            d = os.path.join(work, f"job{len(recs)}")
            os.makedirs(d)
            tracer.enabled = traced
            t0 = time.perf_counter()
            with tracer.phase("job"):
                rec = b.ledger.op("job", wl.job, b, ctx, d)
            tracer.enabled = False
            if rec is None:
                return emit(args, b, detail, {})
            rec["job_s"] = time.perf_counter() - t0
            b.ledger.op("check", wl.check, b, ctx, rec, d)
            recs.append(rec)
            if traced:
                traced_walls.append(rec["job_s"])
            elif args.trace:
                untraced_wall = rec["job_s"]
            shutil.rmtree(d, ignore_errors=True)
            elapsed = time.perf_counter() - start
            if args.trace:
                if traced_walls:
                    break
            elif elapsed >= JOB_SHARE * args.seconds:
                break

        detail.update(wl.detail(b, ctx, recs))
        detail["jobs"] = _m(len(recs), "count")
        detail["job_s"] = _m(statistics.median(r["job_s"] for r in recs), "s")
        nets = wl.nets(ctx, recs[-1])

        if args.trace:
            computed = {}
            for tag, net in (("", fp.reference_cnn(seed=0)),
                             (".pruned", nets.get("delivered")
                              if args.workload != "train" else None)):
                macs, im2col = conv_counts(net) if net is not None else (0, 0)
                computed[f"ops.conv.macs_per_img{tag}"] = macs
                computed[f"ops.im2col.bytes_per_img{tag}"] = im2col
            values = per_layer_metrics(
                tracer, len(traced_walls), computed,
                (statistics.median(traced_walls), untraced_wall),
                env["threads_after_warm_matmul"])
            metrics = {name: _m(values[name], unit) for name, unit in PER_LAYER
                       if not any(name.startswith(p) for p in absent)}
            detail["absent_metrics"] = sorted(
                n for n, _ in PER_LAYER if n not in metrics)
            detail["untraced_functions"] = tracer.missing
            trace_dir = os.path.join(WORK, "traces")
            os.makedirs(trace_dir, exist_ok=True)
            tracer.dump(os.path.join(
                trace_dir, f"{args.workload}-seed{args.seed}.jsonl"))
            return emit(args, b, detail, metrics)

        # Latency probe for the rest of the run, on the net the workload
        # delivered; the job's own probe samples come first in the series.
        # The remaining set-ups are spread evenly through it: host contention
        # comes in phases of seconds, and back-to-back set-ups would all land
        # in one of them.
        times = {"delivered": [t for r in recs for t in r["fwd_ms"]]}
        window = max(start + args.seconds - time.perf_counter(),
                     (1 - JOB_SHARE) * args.seconds)
        for i in range(wl.setups):
            if nets:
                b.latency_phase(nets["delivered"], ctx["probe"],
                                time.perf_counter() + window / wl.setups,
                                times["delivered"])
            if i + 1 < wl.setups:
                set_up()
        p50, _ = quiet_percentiles(times["delivered"], np, b.scale.pool)
        detail["fwd_delivered_ms"] = latency_summary(times["delivered"], b)
        metrics = {
            "setup_s": _m(statistics.median(setup_times), "s"),
            "peak_rss_mb": _m(peak_rss_mb(), "MB"),
            "fwd_ms_p50": _m(p50, "ms"),
            "acc": _m(recs[-1]["acc"], "frac"),
        }
        return emit(args, b, detail, metrics)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def emit(args, b, detail, metrics):
    detail["fail_frac"] = _m(b.ledger.failed / max(b.ledger.attempted, 1), "frac")
    detail["errors"] = b.ledger.errors[:20]
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "detail": detail}), flush=True)
    print(json.dumps({
        "correct": b.ledger.failed == 0,
        "attempted": b.ledger.attempted,
        "failed": b.ledger.failed,
        "metrics": metrics,
    }), flush=True)
    return 0


def main(argv=None):
    args = parse_args(argv)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
