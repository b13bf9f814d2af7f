#!/usr/bin/env python3
"""In-process A/B of the plain per-image forward: a parent revision against
this checkout, both loaded in one interpreter.

Run from the repository root, with the change in the working tree:

    python3 tools/ab_forward.py --parent HEAD

The parent's committed files are exported with `git archive` into a
temporary directory outside the repository (removed afterwards), as
tools/bench_pairs.py does; `--parent-src DIR` loads a package tree from
DIR/fisherprune instead, without git. Both packages are imported side by
side under distinct module names, with BLAS pinned to one thread before
numpy is imported.

Three nets are built once, with this checkout's code, and the same arrays
are handed to both trees: `reference_cnn(seed=0)` and two seeded slices of
it to conv widths [6,1,10,12,21,4] (the `prune` job's delivered net) and
[13,6,31,26,31,4] (the `infer` job's). First, on seeded probe images in
float32 and float64, each tree's plain `forward`, `logits` and the trunk
up to the last conv must give the same bits; any difference is printed
and the exit status is 1. Then, per net, blocks of plain forwards over
the float32 probes alternate between the trees (the parent first in even
blocks), and the table gives each side's median per-forward time and the
median change/parent ratio over the block pairs with its quartiles. The
times depend on the host; nothing here is a test gate.
"""

from __future__ import annotations

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WIDTHS = {"prune": (6, 1, 10, 12, 21, 4), "infer": (13, 6, 31, 26, 31, 4)}
PROBE_SEED = 30  # seed of the probe images


def load(name, src):
    """The package in src/fisherprune, imported as the top-level module name."""
    pkg = os.path.join(src, "fisherprune")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg, "__init__.py"), submodule_search_locations=[pkg])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def nets(fp):
    """{name: net} built by the package fp: reference_cnn(seed=0) and its
    seeded slices to WIDTHS."""
    full = fp.reference_cnn(seed=0)
    out = {"reference_cnn": full}
    for seed, (name, widths) in enumerate(WIDTHS.items()):
        rng = np.random.default_rng(seed)
        keep = {i: np.sort(rng.choice(full.layers[i].weights.shape[0], n,
                                      replace=False)).astype(np.int64)
                for i, n in zip(full.conv_indices(), widths)}
        out[name] = fp.apply_prune(full, fp.PrunePlan(keep=keep, threshold=0.0))
    return out


def rebuild(fp, net):
    """net as a Network of package fp, holding the same arrays."""
    layers = [fp.LayerSpec(l.kind, l.weights, l.bias, stride=l.stride, pad=l.pad,
                           window=l.window) for l in net.layers]
    return fp.Network(tuple(net.input_shape), layers)


def outputs(fp, net, image):
    """Plain forward, logits and last-conv trunk output of net on image."""
    x = fp.Tensor(image)
    trunk = fp.Network(net.input_shape, net.layers[:net.last_conv_index() + 1])
    return [fp.forward(net, x).data, fp.logits(net, x).data, fp.forward(trunk, x).data]


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def mismatches(sides, probes):
    """(net, dtype, image, output) of every plain output whose bits differ."""
    bad = []
    for name in sides["parent"][1]:
        for dtype in (np.float32, np.float64):
            for k, image in enumerate(probes):
                got = [outputs(fp, built[name], image.astype(dtype))
                       for fp, built in sides.values()]
                bad += [(name, np.dtype(dtype).name, k, what)
                        for what, a, b in zip(("forward", "logits", "trunk"), *got)
                        if not same_bits(a, b)]
    return bad


def block_us(fp, net, xs, forwards):
    """Mean microseconds per plain forward over one block."""
    t0 = time.perf_counter()
    for r in range(forwards):
        fp.forward(net, xs[r % len(xs)])
    return (time.perf_counter() - t0) / forwards * 1e6


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", default="HEAD", help="revision to compare against")
    p.add_argument("--parent-src", metavar="DIR",
                   help="load the parent package from DIR/fisherprune, not git")
    p.add_argument("--blocks", type=int, default=40, help="block pairs per net")
    p.add_argument("--forwards", type=int, default=250, help="forwards per block")
    p.add_argument("--images", type=int, default=50, help="probe images")
    args = p.parse_args(argv)
    if min(args.blocks, args.forwards, args.images) < 1:
        p.error("--blocks, --forwards and --images must be >= 1")
    tmp = tempfile.mkdtemp(prefix="ab_forward_")
    try:
        src = args.parent_src
        if src is None:
            src = os.path.join(tmp, "parent")
            os.makedirs(src)
            archive = subprocess.Popen(["git", "archive", args.parent, "src"],
                                       cwd=ROOT, stdout=subprocess.PIPE)
            subprocess.run(["tar", "-x", "-C", src], stdin=archive.stdout, check=True)
            archive.stdout.close()
            if archive.wait():
                raise SystemExit(f"error: git archive {args.parent} failed")
            src = os.path.join(src, "src")
        change = load("fisherprune_change", os.path.join(ROOT, "src"))
        parent = load("fisherprune_parent", src)
        built = nets(change)
        sides = {"parent": (parent, {n: rebuild(parent, net) for n, net in built.items()}),
                 "change": (change, {n: rebuild(change, net) for n, net in built.items()})}
        rng = np.random.default_rng(PROBE_SEED)
        probes = [rng.random((1, 32, 32)) for _ in range(args.images)]
        bad = mismatches(sides, probes)
        for item in bad[:10]:
            print("bits differ: net %s, %s, image %d, %s" % item)
        if bad:
            print(f"{len(bad)} outputs differ in their bits")
            return 1
        print(f"plain forward, logits and trunk: same bits on {args.images} images "
              "in float32 and float64")
        print(f"{'net':<14} {'conv widths':<22} {'parent us':>9} {'change us':>9} "
              f"{'ratio':>6} {'q1':>6} {'q3':>6}")
        xs = {side: [fp.Tensor(image.astype(np.float32)) for image in probes]
              for side, (fp, _) in sides.items()}
        for name in built:
            times = {"parent": [], "change": []}
            for k in range(args.blocks):
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                for side in order:
                    fp, net = sides[side][0], sides[side][1][name]
                    times[side].append(block_us(fp, net, xs[side], args.forwards))
            ratios = [c / p for c, p in zip(times["change"], times["parent"])]
            widths = [built[name].layers[i].weights.shape[0]
                      for i in built[name].conv_indices()]
            q1, q3 = np.percentile(ratios, [25, 75])
            print(f"{name:<14} {str(widths).replace(' ', ''):<22} "
                  f"{statistics.median(times['parent']):9.1f} "
                  f"{statistics.median(times['change']):9.1f} "
                  f"{statistics.median(ratios):6.3f} {q1:6.3f} {q3:6.3f}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
