"""Shared fixtures: the trained toy net and its analysis artifacts.

Training is the expensive part, so one reference net is trained per
session and reused by every test that needs a realistic model. The
acceptance suite's verdicts are echoed as one line per criterion in the
terminal summary.
"""

import time

import numpy as np
import pytest

from fisherprune import deconv, firing
from fisherprune.data import balanced, generate_synthetic, images_labels
from fisherprune.network import reference_cnn
from fisherprune.train import TrainConfig, accuracy, train

TRAIN_SEED = 0
TRAIN_EPOCHS = 12
TRAIN_LR = 0.005
N_PER_CLASS = 150


@pytest.fixture(scope="session")
def dataset():
    return generate_synthetic(N_PER_CLASS, seed=TRAIN_SEED)


@pytest.fixture(scope="session")
def trained(dataset):
    """Reference CNN trained to convergence on the synthetic task."""
    t0 = time.monotonic()
    net = reference_cnn(seed=TRAIN_SEED)
    tr_imgs, tr_labels = images_labels(dataset.train)
    te_imgs, te_labels = images_labels(dataset.test)
    cfg = TrainConfig(epochs=TRAIN_EPOCHS, lr=TRAIN_LR, seed=TRAIN_SEED)
    result = train(net, tr_imgs, tr_labels, te_imgs, te_labels, cfg)
    return {
        "net": net,
        "result": result,
        "test_acc": accuracy(net, te_imgs, te_labels),
        "seconds": time.monotonic() - t0,
    }


@pytest.fixture(scope="session")
def analysis(trained, dataset):
    """Standardized firing matrix, scatter, top-4 ranking, dependency table."""
    t0 = time.monotonic()
    net = trained["net"]
    last = net.last_conv_index()
    mat = firing.standardize(
        firing.extract_firing_matrix(net, dataset.train, last)
    )
    scatter = firing.scatter_matrices(mat)
    ranking = firing.rank_and_select(firing.icc_scores(scatter), 4)
    table = deconv.dependency_scores(net, balanced(dataset.train, 60),
                                     ranking.selected)
    return {"mat": mat, "scatter": scatter, "ranking": ranking, "table": table,
            "seconds": time.monotonic() - t0}


@pytest.fixture(scope="session")
def model_file(trained, tmp_path_factory):
    """The trained net saved once, for tests that need a file on disk."""
    from fisherprune.modelio import save_model

    path = tmp_path_factory.mktemp("model") / "model.ldap1"
    save_model(trained["net"], str(path), provenance={"seed": TRAIN_SEED})
    return str(path)


ACCEPTANCE = {
    "test_c01": (1, "gradient check, all layer kinds vs central differences"),
    "test_c02": (2, "scatter identity and ICC against two-pass oracle"),
    "test_c03": (3, "diagonal-case LDA consistency with ICC ranking"),
    "test_c04": (4, "transposed conv adjointness and unpool round trip"),
    "test_c05": (5, "pruned vs masked logit equivalence on random plans"),
    "test_c06": (6, "end-to-end train/select/prune/retrain pipeline"),
    "test_c07": (7, "inference speedup and file size vs parameter ratio"),
    "test_c08": (8, "sweep: selection-based vs magnitude baseline"),
    "test_c09": (9, "classifier heads on reduced features"),
    "test_c10": (10, "byte-identical artifacts across pipeline reruns"),
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results = {}
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, ()):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance" not in nodeid:
                continue
            name = nodeid.split("::")[-1]
            for prefix, (num, desc) in ACCEPTANCE.items():
                if name.startswith(prefix):
                    ok = outcome == "passed" and rep.when == "call"
                    # a later failed/error report overrides a passed setup
                    if num not in results or not ok:
                        results[num] = (ok, desc)
    if results:
        terminalreporter.write_sep("-", "acceptance criteria")
        for num in sorted(results):
            ok, desc = results[num]
            verdict = "PASS" if ok else "FAIL"
            terminalreporter.write_line(f"[criterion {num:2d}] {verdict} {desc}")
