"""Timing harness: per-layer and total per-image forward cost.

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
    """Median per-layer and total forward time in milliseconds.

    Returns (per_layer, total_ms) where per_layer is a list of
    (layer_index, kind, median_ms). Layer times are laps between the
    outputs of whole hooked forward passes, which run the unfused plan's
    steps, one per layer; the total times plain passes, which run the fused
    plan, so the laps need not add up to it. Each of the two loops runs
    WARMUP untimed passes, then `runs` timed ones; runs must be an int >= 1.
    """
    require_int("runs", runs, 1)
    laps = [[] for _ in net.layers]
    last = 0

    def lap(i, out):
        nonlocal last
        now = time.perf_counter_ns()
        laps[i].append((now - last) / 1e6)
        last = now
        return out

    for _ in range(WARMUP + runs):
        last = time.perf_counter_ns()
        forward(net, image, hook=lap)
    total = _median_ms(lambda: forward(net, image), runs)
    return [(i, layer.kind, statistics.median(laps[i][WARMUP:]))
            for i, layer in enumerate(net.layers)], total
