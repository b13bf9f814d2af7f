"""Timing harness: per-step and total per-image forward cost, both on the
fused plan that inference runs, so the steps add up to about the total.

Medians over repeated runs (after warmups) to resist scheduler noise.
Timings run with the BLAS thread count the process started with, which
OPENBLAS_NUM_THREADS / OMP_NUM_THREADS set; `fisherprune bench` prints both.
"""

from __future__ import annotations

import statistics
import time

from .errors import require_int
from .network import Network, forward
from .tensor import Tensor

WARMUP = 5  # untimed passes before each timing loop


def _median_ms(fn, runs):
    for _ in range(WARMUP):
        fn()
    times = []
    for _ in range(runs):
        t0 = time.perf_counter_ns()
        fn()
        times.append((time.perf_counter_ns() - t0) / 1e6)
    return statistics.median(times)


def time_network(net: Network, image: Tensor, runs=30):
    """Median per-step and total forward time in milliseconds.

    Returns (per_step, total_ms): per_step lists (first layer, its layers'
    kinds joined by "+", median_ms) for each step of the fused plan, such as
    (2, "conv+relu+maxpool", ms), laps between the outputs of hooked plain
    passes; the total times unhooked ones. Each of the two loops runs WARMUP
    untimed passes, then `runs` timed ones; runs must be an int >= 1.
    """
    require_int("runs", runs, 1)
    laps = {}  # first layer of each step, in step order -> lap times
    last = 0

    def lap(i, out):
        nonlocal last
        now = time.perf_counter_ns()
        laps.setdefault(i, []).append((now - last) / 1e6)
        last = now
        return out

    for _ in range(WARMUP + runs):
        last = time.perf_counter_ns()
        forward(net, image, hook=lap)
    total = _median_ms(lambda: forward(net, image), runs)
    ends = [*laps][1:] + [len(net.layers)]
    return [(i, "+".join(layer.kind for layer in net.layers[i:end]),
             statistics.median(times[WARMUP:]))
            for (i, times), end in zip(laps.items(), ends)], total
