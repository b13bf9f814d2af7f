#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny input size (about half a minute).

    python3 perfbench/selftest.py

Checks that
  * every workload, untraced and traced, prints a last line with exactly
    correct/attempted/failed/metrics, and every end-to-end or per-layer
    metric that BENCHMARK.json declares, with its declared unit;
  * the seed changes the inputs, and the same seed repeats them;
  * a NaN image in the `train` set is counted as failed operations in
    fail_frac and the run still completes with every metric;
  * without the package sources next to it the benchmark exits non-zero
    and prints no result.
Exit code 0 when all checks pass.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def bench(*extra, cwd=ROOT, script=RUN):
    cmd = [sys.executable, script, "--seconds", "0.5", "--scale", "tiny", *extra]
    out = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = out.stdout.strip().splitlines()
    return out.returncode, lines


def parse(lines):
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])["detail"]
    return result, detail


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []

    def expect(ok, what):
        print(("PASS " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    digests = {}
    for w in spec["workloads"]:
        for trace in (0, 1):
            rc, lines = bench("--workload", w["name"], "--seed", "1",
                              "--trace", str(trace))
            result, detail = parse(lines)
            metrics = result["metrics"]
            expect(rc == 0 and set(result) == {"correct", "attempted", "failed",
                                               "metrics"},
                   f"{w['name']} trace={trace}: exit 0 and result keys")
            expect({k: v["unit"] for k, v in metrics.items()} == declared[trace],
                   f"{w['name']} trace={trace}: every declared metric with its unit")
            expect(result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1,
                   f"{w['name']} trace={trace}: checks pass, fail_frac 0")
            digests[(w["name"], trace)] = detail["inputs_digest"]
    expect(digests[("train", 0)] == digests[("train", 1)],
           "same seed gives the same inputs")

    rc, lines = bench("--workload", "train", "--seed", "2")
    expect(parse(lines)[1]["inputs_digest"] != digests[("train", 0)],
           "another seed gives other inputs")

    rc, lines = bench("--workload", "train", "--seed", "1", "--inject-nan")
    result, detail = parse(lines)
    expect(rc == 0 and result["failed"] >= 1 and not result["correct"]
           and detail["fail_frac"]["value"] > 0
           and set(result["metrics"]) == set(declared[0]),
           "NaN training image counts in fail_frac and does not abort the run")

    bare = os.path.join(ROOT, ".bench_work", f"bare-{os.getpid()}")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        rc, lines = bench("--workload", "train", "--seed", "1", cwd=bare,
                          script=os.path.join(bare, "perfbench", "run.py"))
        expect(rc != 0 and not any(line.startswith('{"correct"') for line in lines),
               "without sources: non-zero exit and no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
