"""perfbench's layer instrumentation still finds and attributes the package.

perfbench wraps the package's public functions by name from outside. When a
refactor renames or folds one of them away, a traced run silently reports
its metrics (train.backward.ms, deconv.walk.ms, ...) as absent. This check
runs that instrumentation on reference_cnn in a fresh interpreter, so the
wrapping leaves no trace in the test process, and reads perfbench/ only.
"""

import json
import os
import subprocess
import sys

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
    # the deconv walk then runs an adjoint at every conv
    conv = [n for n in spans if n.startswith(("ops.conv2d_param_grads",
                                              "ops.conv2d_adjoint"))]
    grads = [f"ops.conv2d_param_grads.L{i}" for i in range(5, -1, -1)]
    adjoints = [f"ops.conv2d_adjoint.L{i}" for i in range(5, -1, -1)]
    assert conv == [x for pair in zip(grads, adjoints) for x in pair][:-1] + adjoints
    # train.samples reads sgd_epoch's `order` by position: one epoch, 2 images
    assert got["epoch_n"] == [2]
