#!/usr/bin/env python3
"""Paired parent/change benchmark runs, written to one BENCH_<pr>.json.

Run from the repository root, with the change in the working tree:

    python3 tools/bench_pairs.py --pr 8 --parent HEAD~1 --pairs 10

The parent revision's committed files are exported with `git archive` into
a temporary directory outside the repository (removed afterwards); the
change side is this checkout as it stands. For each workload, pair k runs
`perfbench/run.py --trace 0 --seed <seed0 + k>` on both sides back to back,
the parent first in even pairs and the change first in odd ones, so a slow
phase of the host lands on both sides alike. Then three `--trace 1` runs
per side, in the same alternating order, give the per-layer metrics, each
the median of its three values (one traced run let a slow phase decide a
side), and the Tier-1 suite runs once per side for its wall time. All three workloads run at full scale, and the file is
BENCH_<pr>.json at the repository root.

The file holds every output line of every run (env, detail and result),
per gated metric the parent and change medians, quartiles and the number
of pairs the change won, the same for the detail-line walls, the traced
per-layer medians of both sides with the values they are taken from, each side's perfbench env block (which
says whether BLAS was pinned), `src/` line counts and the Tier-1 walls.
The file is rewritten after every run, with "complete": false until the
last one. Nothing here is a test gate: absolute times depend on the host.

Each metric also gets a paired-ratio verdict: the log of change/parent
within each pair, their median as a ratio, and a sign-test interval for
that median from the k-th smallest and k-th largest log ratios, k the
largest rank whose binomial coverage is at least 95% (2nd and 9th of ten,
97.9%). The verdict is "better" or "worse" when the interval lies wholly
on one side of 1, in the direction the metric's `better` names (lower
time or memory, higher accuracy), and "unresolved" otherwise. Beside it,
the gain rule a claimed speed-up must meet: the change won at least nine
tenths of the pairs, and its median beats the parent's by more than the
parent's interquartile range. To print that table from a committed file
without running anything, followed by the gain rule and both sides' `src/`
line totals and their difference:

    python3 tools/bench_pairs.py --recompute BENCH_10.json
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("train", "prune", "infer")
# detail-line walls: multi-second or per-step times perfbench does not gate
DETAIL_WALLS = ("prune_s", "analyze_s", "heads_s", "train_step_ms_quiet_p50")
# traced runs per side and workload; each per-layer metric is their median
TRACED_RUNS = 3
# least coverage of the sign-test interval around the median paired ratio
COVERAGE = 0.95
NOTES = [
    "Pairs run parent and change back to back, the order alternating from "
    "pair to pair; compare medians and win counts, not single runs.",
    "perfbench's computed ops.im2col.bytes_per_img (and .pruned) counts "
    "OH*OW columns per unrolled kernel row; the conv kernels unroll OH*Wp "
    "columns (full padded rows), so the bytes they touch are larger.",
    "No number in this file is a test gate.",
]


def run_perfbench(root, workload, seed, seconds, trace):
    """One perfbench run in `root`: (wall seconds, {env, detail, result})."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = {}
    for line in proc.stdout.splitlines():
        if not line.startswith("{"):
            continue  # the commands perfbench drives print their own lines
        obj = json.loads(line)
        key = ("env" if "env" in obj else "detail" if "detail" in obj
               else "result" if "correct" in obj else None)
        if key:
            lines[key] = obj.get("env", obj.get("detail", obj))
    if proc.returncode or "result" not in lines:
        lines["error"] = proc.stderr[-2000:]
    return wall, lines


def sign_test_rank(n, coverage=COVERAGE):
    """The largest k whose [k-th smallest, k-th largest] of n paired values
    covers their median with at least `coverage`, and that coverage; (0,
    None) when even the extremes fall short (fewer than six pairs)."""
    best = (0, None)
    for k in range(1, n // 2 + 1):
        tail = sum(math.comb(n, i) for i in range(k)) / 2 ** n
        if 1 - 2 * tail < coverage:
            break
        best = (k, 1 - 2 * tail)
    return best


def log_ratio(parent, change):
    """log(change/parent), 0 for equal values, None if undefined."""
    if parent is None or change is None:
        return None
    if parent == change:
        return 0.0
    if parent <= 0 or change <= 0:
        return None
    return math.log(change / parent)


def paired_verdict(parent, change, better):
    """Per-pair log ratios, their median ratio, the sign-test interval of
    that ratio and a better / worse / unresolved verdict."""
    logs = [log_ratio(p, c) for p, c in zip(parent, change)]
    used = sorted(x for x in logs if x is not None)
    k, coverage = sign_test_rank(len(used))
    out = {"log_ratios": logs, "ratio_pairs": len(used),
           "median_ratio": None, "interval": None, "coverage": coverage,
           "verdict": "unresolved"}
    if used:
        out["median_ratio"] = math.exp(statistics.median(used))
    if k:
        lo, hi = used[k - 1], used[len(used) - k]
        out["interval"] = [math.exp(lo), math.exp(hi)]
        if better == "higher":
            lo, hi = -hi, -lo
        out["verdict"] = ("better" if hi < 0 else "worse" if lo > 0
                          else "unresolved")
    return out


def verdict_table(doc):
    """One line per workload and metric (gated, then detail walls): pairs,
    median paired change and its interval in percent, verdict."""
    def pct(ratio):
        return "-" if ratio is None else f"{ratio - 1:+.1%}"

    lines = [f"{'workload':8} {'metric':24} {'pairs':>5}  "
             f"{'median':>7}  {'interval':20}  {'verdict':10}  gain"]
    for workload, entry in doc["workloads"].items():
        for group in ("metrics", "detail_walls"):
            for name, m in entry.get(group, {}).items():
                v = paired_verdict(m["parent"], m["change"], m["better"])
                lo, hi = v["interval"] or (None, None)
                interval = f"[{pct(lo)}, {pct(hi)}]" if v["interval"] else "-"
                gain = gain_shown(m["parent"], m["change"], m["better"])
                lines.append(f"{workload:8} {name:24} {v['ratio_pairs']:5}  "
                             f"{pct(v['median_ratio']):>7}  {interval:20}  "
                             f"{v['verdict']:10}  {'yes' if gain else 'no'}")
    lines.append("gain: yes when the change won at least nine tenths of the "
                 "pairs (9 of 10; ties win nothing) and its median beats the "
                 "parent's by more than the parent's interquartile range")
    return "\n".join(lines)


def src_size(doc):
    """Both sides' `src/` line totals and their difference, one line."""
    totals = {side: doc["src_lines"][side]["total"] for side in ("parent", "change")}
    return (f"src/ lines: parent {totals['parent']}, change {totals['change']} "
            f"({totals['change'] - totals['parent']:+d})")


def quartiles(vals):
    """The first and third quartiles of vals (inclusive method)."""
    if len(vals) < 2:
        return [vals[0], vals[0]] if vals else [None, None]
    q = statistics.quantiles(vals, n=4, method="inclusive")
    return [q[0], q[2]]


def gain_shown(parent, change, better):
    """The gain rule: the change won at least nine tenths of the pairs run
    (ties and pairs missing a value win nothing), and its median beats the
    parent's by more than the parent's interquartile distance."""
    sign = 1 if better == "lower" else -1
    pairs = [(p, c) for p, c in zip(parent, change)
             if p is not None and c is not None]
    wins = sum(sign * (p - c) > 0 for p, c in pairs)
    if not pairs or wins < math.ceil(0.9 * len(parent)):
        return False
    lo, hi = quartiles([p for p, _ in pairs])
    shift = statistics.median(p for p, _ in pairs) - statistics.median(
        c for _, c in pairs)
    return sign * shift > hi - lo


def summary(parent, change, better):
    """Medians, quartiles and the change's win count over paired values."""
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    out = {"better": better, "pairs": len(parent), "parent": parent,
           "change": change, "change_wins": wins}
    if parent and change:
        pq, cq = quartiles(parent), quartiles(change)
        pm, cm = statistics.median(parent), statistics.median(change)
        out.update({
            "parent_median": pm, "change_median": cm,
            "parent_iqr": pq[1] - pq[0], "change_iqr": cq[1] - cq[0],
            "parent_quartiles": pq, "change_quartiles": cq,
            "median_change_frac": (cm - pm) / pm if pm else None,
            "gain_shown": gain_shown(parent, change, better),
        })
    out.update(paired_verdict(parent, change, better))
    return out


def value(lines, section, name):
    block = lines.get(section) or {}
    if section == "result":
        block = block.get("metrics", {})
    entry = block.get(name)
    return entry.get("value") if isinstance(entry, dict) else None


def traced_medians(runs):
    """{metric: {side: median, side_runs: values}} over each side's traced
    runs ({side: [lines]}); runs missing a metric add no value to it."""
    metrics = {side: [(l.get("result") or {}).get("metrics", {}) for l in lines]
               for side, lines in runs.items()}
    names = sorted({name for ms in metrics.values() for m in ms for name in m})
    out = {}
    for name in names:
        entry = {}
        for side, ms in metrics.items():
            vals = [m[name]["value"] for m in ms
                    if m.get(name, {}).get("value") is not None]
            entry[side] = statistics.median(vals) if vals else None
            entry[f"{side}_runs"] = vals
        out[name] = entry
    return out


def src_lines(root):
    counts = {}
    for dirpath, _, files in os.walk(os.path.join(root, "src")):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                with open(path, "rb") as fh:
                    counts[os.path.relpath(path, root)] = fh.read().count(b"\n")
    return {"total": sum(counts.values()), "files": dict(sorted(counts.items()))}


def tier1(root):
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"],
        cwd=root, env=env, capture_output=True, text=True)
    tail = proc.stdout.strip().splitlines()[-1:] or [""]
    return {"wall_s": time.perf_counter() - t0, "returncode": proc.returncode,
            "summary": tail[0]}


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev, dest):
    """The committed files of rev, unpacked into dest."""
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "archive", rev], cwd=ROOT,
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait():
        raise SystemExit(f"error: git archive {rev} failed")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--pr", help="names the file BENCH_<pr>.json")
    p.add_argument("--parent", default="HEAD", help="revision to compare against")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--seed", type=int, default=8001, help="seed of pair 0")
    p.add_argument("--recompute", metavar="BENCH_N.json",
                   help="print the verdict table of a committed file and exit")
    args = p.parse_args(argv)
    if args.recompute:
        with open(args.recompute) as fh:
            doc = json.load(fh)
        print(verdict_table(doc))
        print(src_size(doc))
        return 0
    if args.pr is None:
        p.error("--pr is required unless --recompute is given")
    if args.pairs < 1:
        p.error("--pairs must be >= 1")
    out_path = os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        gated = [(m["name"], m["better"]) for m in json.load(fh)["end_to_end"]]

    tmp = tempfile.mkdtemp(prefix="bench_pairs_")
    sides = {"parent": os.path.join(tmp, "parent"), "change": ROOT}
    try:
        export(args.parent, sides["parent"])
        doc = {
            "complete": False,
            "command": " ".join(["python3", "tools/bench_pairs.py"]
                                + (argv if argv is not None else sys.argv[1:])),
            "parent": git("rev-parse", args.parent),
            "change": "working tree on " + git("rev-parse", "HEAD"),
            "pairs": args.pairs, "seconds": args.seconds,
            "notes": NOTES, "env": {}, "runs": [], "workloads": {},
            "traced": {}, "src_lines": {s: src_lines(r) for s, r in sides.items()},
            "tier1": {},
        }

        def save():
            with open(out_path, "w") as fh:
                json.dump(doc, fh, indent=1, sort_keys=False)
                fh.write("\n")

        def record(side, workload, seed, trace, order):
            wall, lines = run_perfbench(sides[side], workload, seed,
                                        args.seconds, trace)
            doc["env"].setdefault(side, lines.get("env"))
            doc["runs"].append({"side": side, "workload": workload, "seed": seed,
                                "trace": trace, "order": order, "wall_s": wall,
                                **lines})
            result = lines.get("result") or {}
            print(f"{workload} seed {seed} trace {trace} {side}: "
                  f"correct={result.get('correct')} "
                  f"fwd_ms_p50={value(lines, 'result', 'fwd_ms_p50')} "
                  f"({wall:.0f} s)", file=sys.stderr, flush=True)
            save()
            return lines

        for workload in WORKLOADS:
            runs = {"parent": [], "change": []}
            for k in range(args.pairs):
                seed = args.seed + k
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                for n, side in enumerate(order):
                    runs[side].append(record(side, workload, seed, 0, n))
            doc["workloads"][workload] = {
                "seeds": [args.seed + k for k in range(args.pairs)],
                "failed": {s: [(r.get("result") or {}).get("failed")
                               for r in runs[s]] for s in runs},
                "metrics": {
                    name: summary([value(r, "result", name) for r in runs["parent"]],
                                  [value(r, "result", name) for r in runs["change"]],
                                  better)
                    for name, better in gated},
                "detail_walls": {
                    name: summary([value(r, "detail", name) for r in runs["parent"]],
                                  [value(r, "detail", name) for r in runs["change"]],
                                  "lower")
                    for name in DETAIL_WALLS
                    if value(runs["parent"][0], "detail", name) is not None},
            }
            traced = {"parent": [], "change": []}
            for k in range(TRACED_RUNS):
                seed = args.seed + args.pairs + k
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                for n, side in enumerate(order):
                    traced[side].append(record(side, workload, seed, 1, n))
            doc["traced"][workload] = traced_medians(traced)
            save()
        print(verdict_table(doc), src_size(doc), sep="\n", file=sys.stderr,
              flush=True)
        for side, root in sides.items():
            doc["tier1"][side] = tier1(root)
            print(f"tier-1 {side}: {doc['tier1'][side]['summary']}",
                  file=sys.stderr, flush=True)
        doc["complete"] = True
        save()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(out_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
