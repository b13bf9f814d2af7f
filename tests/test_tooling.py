"""perfbench's layer instrumentation still finds and attributes the package.

perfbench wraps the package's public functions by name from outside. When a
refactor renames or folds one of them away, a traced run silently reports
its metrics (train.backward.ms, deconv.walk.ms, ...) as absent. This check
runs that instrumentation on reference_cnn in a fresh interpreter, so the
wrapping leaves no trace in the test process, and reads perfbench/ only.
"""

import ast
import glob
import importlib.util
import json
import os
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = r"""
import importlib, json, sys
sys.path[:0] = sys.argv[1:3]
import fisherprune as fp
import fisherprune.classify, fisherprune.cli  # instrumented modules
from layers import conv_widths, instrument
from tracer import Tracer

tracer = Tracer()
absent = instrument(tracer, conv_widths(fp.reference_cnn(seed=0)))
train, deconv = (importlib.import_module(f"fisherprune.{m}")
                 for m in ("train", "deconv"))
net = fp.reference_cnn(seed=0)
split = fp.generate_synthetic(2, seed=0)
image = split.train[0].image
tracer.enabled = True
with tracer.phase("job"):
    _, rec = fp.forward(net, image, record=True)
    train.backward(net, rec, 0)
    firing = rec.activations[net.last_conv_index() + 1]
    deconv.deconv_from_neuron(net, rec, int(firing.max(axis=(1, 2)).argmax()))
spans = [s.name for s in tracer.spans]
images = [s.image.data for s in split.train[:2]]
labels = [s.label for s in split.train[:2]]
with tracer.phase("job"):
    fp.train(net, images, labels, images, labels, fp.TrainConfig(epochs=1))
print(json.dumps({"missing": tracer.missing, "absent": sorted(absent),
                  "spans": spans,
                  "epoch_n": [s.attrs["n"] for s in tracer.spans
                              if s.name == "train.sgd_epoch"]}))
"""


def test_perfbench_instruments_every_function_it_names():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, os.path.join(ROOT, "src"),
         os.path.join(ROOT, "perfbench")],
        capture_output=True, text=True, timeout=120, env=env)
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout)
    assert got["missing"] == [] and got["absent"] == []
    spans = got["spans"]
    assert {"network.forward_record", "train.backward", "deconv.walk"} <= set(spans)
    # backward: param grads at every conv, adjoints above layer 0 only;
    # the deconv walk then runs an adjoint at every conv above layer 0
    conv = [n for n in spans if n.startswith(("ops.conv2d_param_grads",
                                              "ops.conv2d_adjoint"))]
    grads = [f"ops.conv2d_param_grads.L{i}" for i in range(5, -1, -1)]
    adjoints = [f"ops.conv2d_adjoint.L{i}" for i in range(5, -1, -1)]
    assert conv == [x for pair in zip(grads, adjoints) for x in pair][:-1] + adjoints[:-1]
    # train.samples reads sgd_epoch's `order` by position: one epoch, 2 images
    assert got["epoch_n"] == [2]


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", os.path.join(ROOT, "tools", "bench_pairs.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestPairedVerdicts:
    """tools/bench_pairs.py's sign-test verdict on seeded synthetic pairs."""

    bp = load_bench_pairs()

    def pairs(self, rng, shift, n=10, spread=0.02):
        """n pairs of lognormal runs, each side spread by about 2%."""
        parent = np.exp(rng.normal(0.0, spread, n))
        change = np.exp(rng.normal(np.log1p(shift), spread, n))
        return parent.tolist(), change.tolist()

    def test_ranks_and_coverage(self):
        assert self.bp.sign_test_rank(10) == (2, pytest.approx(1 - 22 / 1024))
        assert self.bp.sign_test_rank(6) == (1, pytest.approx(1 - 2 / 64))
        assert self.bp.sign_test_rank(5) == (0, None)
        for n in range(6, 40):
            k, coverage = self.bp.sign_test_rank(n)
            assert coverage >= 0.95
            assert self.bp.sign_test_rank(n, coverage + 1e-12)[0] < k

    def test_equal_distributions_read_unresolved_at_the_stated_rate(self):
        rng = np.random.default_rng(13)
        trials = 4000
        resolved = sum(
            self.bp.paired_verdict(*self.pairs(rng, 0.0), "lower")["verdict"]
            != "unresolved" for _ in range(trials))
        # 2 * 11/1024 of trials resolve by chance; 3.3 sigma either side
        assert 0.0107 * 2 * trials - 30 < resolved < 0.0107 * 2 * trials + 30

    @pytest.mark.parametrize("better,shift,verdict", [
        ("lower", -0.10, "better"), ("lower", 0.10, "worse"),
        ("higher", 0.10, "better"), ("higher", -0.10, "worse"),
    ])
    def test_a_ten_percent_shift_reads_resolved(self, better, shift, verdict):
        rng = np.random.default_rng(14)
        verdicts = []
        for _ in range(500):
            got = self.bp.paired_verdict(*self.pairs(rng, shift), better)
            assert got["interval"][0] <= got["median_ratio"] <= got["interval"][1]
            verdicts.append(got["verdict"])
        assert verdicts.count(verdict) >= 495

    def test_equal_values_and_missing_pairs(self):
        got = self.bp.paired_verdict([1.0] * 10, [1.0] * 10, "higher")
        assert (got["median_ratio"], got["interval"]) == (1.0, [1.0, 1.0])
        assert got["verdict"] == "unresolved"
        got = self.bp.paired_verdict([1.0, None, 0.0, 2.0], [1.1, 1.0, 1.0, 2.2],
                                     "lower")
        assert got["log_ratios"][1:3] == [None, None]
        assert (got["ratio_pairs"], got["interval"]) == (2, None)
        assert got["verdict"] == "unresolved"

    def test_recompute_reads_bench_10(self):
        """The infer forward latency recorded in BENCH_10.json."""
        done = subprocess.run(
            [sys.executable, os.path.join(ROOT, "tools", "bench_pairs.py"),
             "--recompute", os.path.join(ROOT, "BENCH_10.json")],
            capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        row = [line.split() for line in done.stdout.splitlines()
               if line.startswith("infer") and "fwd_ms_p50" in line]
        assert row == [["infer", "fwd_ms_p50", "10", "+3.9%", "[-2.6%,",
                        "+38.7%]", "unresolved", "no"]]

    def test_recompute_applies_the_gain_rule_to_bench_23(self):
        """BENCH_23.json's prune forward latency won all 10 pairs by far more
        than the parent's spread; train setup_s moved -12% unresolved."""
        done = subprocess.run(
            [sys.executable, os.path.join(ROOT, "tools", "bench_pairs.py"),
             "--recompute", os.path.join(ROOT, "BENCH_23.json")],
            capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        assert lines[0].split()[-2:] == ["verdict", "gain"]
        gain = {tuple(r[:2]): r[-1] for r in map(str.split, lines[1:])
                if r[0] in ("train", "prune", "infer")}
        assert gain[("prune", "fwd_ms_p50")] == "yes"
        assert gain[("train", "setup_s")] == "no"
        assert any(line.startswith("gain: yes when the change won at least "
                                   "nine tenths") for line in lines)

    def test_gain_rule_counts_wins_and_the_parent_spread(self):
        parent = [1.0, 1.1, 1.2, 1.3, 1.4, 1.0, 1.1, 1.2, 1.3, 1.4]
        faster = [p - 0.5 for p in parent]
        assert self.bp.gain_shown(parent, faster, "lower")
        assert not self.bp.gain_shown(parent, faster, "higher")
        # nine wins still show a gain, eight do not
        assert self.bp.gain_shown(parent, faster[:9] + [2.0], "lower")
        assert not self.bp.gain_shown(parent, faster[:8] + [2.0, 2.0], "lower")
        # every pair won, by less than the parent's interquartile range
        assert not self.bp.gain_shown(parent, [p - 0.01 for p in parent], "lower")
        # a pair missing a value wins nothing
        assert not self.bp.gain_shown(parent, faster[:8] + [None, None], "lower")

    def test_traced_metrics_are_medians_over_each_sides_runs(self):
        """One slow traced run no longer decides a side's per-layer metric;
        a run that failed or lacks a metric adds no value to it."""
        def lines(**values):
            return {"result": {"metrics": {name: {"value": v}
                                           for name, v in values.items()}}}

        got = self.bp.traced_medians({
            "parent": [lines(a=1.0, b=5.0), lines(a=30.0), lines(a=2.0, b=None)],
            "change": [lines(a=9.0), {"error": "exit 1"}, lines(a=4.0, b=1.0)],
        })
        assert got["a"] == {"parent": 2.0, "parent_runs": [1.0, 30.0, 2.0],
                            "change": 6.5, "change_runs": [9.0, 4.0]}
        assert got["b"] == {"parent": 5.0, "parent_runs": [5.0],
                            "change": 1.0, "change_runs": [1.0]}
        assert self.bp.TRACED_RUNS == 3

    def test_recompute_prints_the_src_line_totals(self):
        """The size of a change, read from the file's src_lines block."""
        done = subprocess.run(
            [sys.executable, os.path.join(ROOT, "tools", "bench_pairs.py"),
             "--recompute", os.path.join(ROOT, "BENCH_12.json")],
            capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == (
            "src/ lines: parent 2836, change 2813 (-23)")


def test_ab_forward_reads_one_tree_as_its_own_parent():
    """tools/ab_forward.py with the working tree as both sides: the bits
    check passes and the table has a ratio for each of its three nets."""
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "ab_forward.py"),
         "--parent-src", os.path.join(ROOT, "src"), "--blocks", "2",
         "--forwards", "2", "--images", "2"],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == ("plain forward, logits, trunk, recording pass and backward: "
                        "same bits on 2 images in float32 and float64")
    rows = {line.split()[0]: line.split() for line in lines[2:]}
    assert list(rows) == ["reference_cnn", "prune", "infer"]
    assert rows["prune"][1] == "[6,1,10,12,21,4]"
    assert rows["infer"][1] == "[13,6,31,26,31,4]"
    for row in rows.values():
        assert float(row[4]) > 0  # change/parent ratio


def readme_cli_lines():
    """The `fisherprune ...` lines of README's "Quick start (CLI)" block."""
    with open(os.path.join(ROOT, "README.md")) as fh:
        text = fh.read()
    section = text.split("## Quick start (CLI)", 1)[1].split("\n## ", 1)[0]
    block = section.split("```", 2)[1]
    return [line.split("#", 1)[0].split() for line in block.splitlines()
            if line.startswith("fisherprune ")]


def test_readme_cli_quick_start_parses():
    """Every command README shows parses with today's flags."""
    from fisherprune.cli import build_parser

    lines = readme_cli_lines()
    assert {argv[1] for argv in lines} >= {"train", "prune", "sweep", "eval"}
    for argv in lines:
        build_parser().parse_args(argv[1:])


def demo_imports():
    """(demo file, module, name or None) for every fisherprune import in
    demos/*.py; None marks a plain `import fisherprune...`."""
    found = []
    for path in sorted(glob.glob(os.path.join(ROOT, "demos", "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        demo = os.path.basename(path)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                found += [(demo, node.module, a.name) for a in node.names]
            elif isinstance(node, ast.Import):
                found += [(demo, a.name, None) for a in node.names]
    return [f for f in found if f[1].split(".")[0] == "fisherprune"]


def test_demos_import_only_names_that_exist():
    """No Tier-1 test runs a demo, so a renamed API would break one
    silently; every name a demo imports from the package must resolve."""
    imports = demo_imports()
    assert {demo for demo, _, _ in imports} >= {
        "benchmark.py", "classifier_heads.py", "dependency_pruning.py",
        "firing_analysis.py", "train_reference.py"}
    missing = []
    for demo, module, name in imports:
        mod = importlib.import_module(module)
        if name is not None and not (
                hasattr(mod, name) or hasattr(mod, "__path__")
                and importlib.util.find_spec(f"{module}.{name}") is not None):
            missing.append(f"{demo}: {module}.{name}")
    assert not missing
