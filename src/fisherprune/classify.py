"""Classifier heads over reduced firing features: QDA and SVMs.

These replace the dense head once the firing matrix has been cut down to a
few selected neurons. All of them are binary: classes 0 and 1 (the SVMs
use -1/+1 internally). Decision ties at exactly 0 go to +1. Features
must be finite: a NaN or infinity in a fit, prediction or evaluation input
raises NonFiniteError. Both SVMs are fitted by one SMO loop, _smo.

The RBF kernel is built in place: the Gram product is scaled and turned
into squared distances one block of rows at a time, then clipped and
exponentiated where it lies. An n x m kernel costs one n x m float64
matrix plus one block (about 200 MB for the largest fit, 5000 rows).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError, DimensionError, HeaderSchemaError, NonFiniteError,
    require_field, require_positive,
)


@dataclass
class QdaModel:
    """Gaussian class models with full covariances, solved via Cholesky."""

    means: np.ndarray  # (2, d)
    cov: np.ndarray  # (2, d, d), regularization already added
    chol: np.ndarray  # (2, d, d) lower factors
    logdet: np.ndarray  # (2,)
    logprior: np.ndarray  # (2,)
    lam: float
    kind = "qda"


@dataclass
class SvmModel:
    kind: str  # "svml" or "svmr", as in HEADS
    c: float
    w: np.ndarray | None = None  # linear
    b: float = 0.0
    sv_x: np.ndarray | None = None  # rbf
    sv_y: np.ndarray | None = None
    alpha: np.ndarray | None = None
    gamma: float = 0.0
    iterations: int = 0
    seed: int = 0
    converged: bool = True


def _check_features(features, labels, classes=None):
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels).ravel()
    if x.ndim != 2 or x.shape[1] == 0:
        raise DimensionError(f"features must be (n,d) with d >= 1, got {x.shape}")
    if x.shape[0] != y.shape[0]:
        raise DimensionError("one label per feature row required")
    if not np.isfinite(x).all():
        raise NonFiniteError("features hold NaN or infinity")
    if classes is not None and not set(np.unique(y)) <= set(classes):
        raise ConfigurationError(f"labels must be in {sorted(classes)}")
    return x, y


def qda_fit(features, labels, lam=1e-3) -> QdaModel:
    """Per-class mean + regularized covariance (1/(N_i-1) scaling).

    Needs more samples than dimensions in every class; with too few, the
    covariance estimate is rank-deficient, so the fit is refused with a
    pointer at the cures (fewer selected neurons, or more images per class).
    lam must be finite and >= 0.
    """
    require_positive("lam", lam, or_zero=True)
    x, y = _check_features(features, labels, (0, 1))
    n, d = x.shape
    means, covs, chols, logdets, logpriors = [], [], [], [], []
    for cls in (0, 1):
        xc = x[y == cls]
        ni = xc.shape[0]
        if ni == 0:
            raise ConfigurationError(f"class {cls} absent from training data")
        if ni <= d:
            raise DimensionError(
                f"class {cls} has {ni} samples for {d} dimensions; "
                f"covariance needs more samples than dimensions: prune to "
                f"fewer neurons (smaller k) or use more images per class"
            )
        mu = xc.mean(axis=0)
        centered = xc - mu
        cov = centered.T @ centered / (ni - 1) + lam * np.eye(d)
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise ConfigurationError(
                f"class {cls} covariance not positive definite even with "
                f"lam={lam}; raise lam"
            ) from None
        means.append(mu)
        covs.append(cov)
        chols.append(chol)
        logdets.append(2.0 * np.log(np.diag(chol)).sum())
        logpriors.append(np.log(ni / n))
    return QdaModel(
        means=np.array(means), cov=np.array(covs), chol=np.array(chols),
        logdet=np.array(logdets), logprior=np.array(logpriors), lam=float(lam),
    )


def _rows(features, d):
    """features as float64 (n, d) rows; a 1-D input is one row."""
    x = np.asarray(features, dtype=np.float64)
    x = x.reshape(1, -1) if x.ndim < 2 else x
    if x.ndim != 2 or x.shape[1] != d:
        raise DimensionError(f"expected {d}-dim input, got {x.shape[-1]}")
    if not np.isfinite(x).all():
        raise NonFiniteError("features hold NaN or infinity")
    return x


def _qda_scores(model: QdaModel, features):
    """(n, 2) per-class log-posteriors; one solve per class for all rows."""
    x = _rows(features, model.means.shape[1])
    scores = np.empty((x.shape[0], 2))
    for cls in (0, 1):
        z = np.linalg.solve(model.chol[cls], (x - model.means[cls]).T)
        scores[:, cls] = (model.logprior[cls] - 0.5 * model.logdet[cls]
                          - 0.5 * (z * z).sum(axis=0))
    return scores


def qda_predict(model: QdaModel, x):
    """(label, per-class log-posterior up to a shared constant)."""
    scores = _qda_scores(model, np.ravel(x))[0]
    return int(np.argmax(scores)), scores


def _svm_problem(features, labels, c):
    """Checked (x, float labels) for an SVM fit with cost c."""
    x, y = _check_features(features, labels, (-1, 1))
    y = y.astype(np.float64)
    if len(np.unique(y)) < 2:
        raise ConfigurationError("both classes required to fit an SVM")
    require_positive("svm cost c", c)
    return x, y


_SMO_TOL = 1e-3  # SMO stops once the KKT gap is within this
_SMO_PASSES = 200  # SMO step budget, in steps per training row


def _smo(y, c, kdiag, pair):
    """SMO on the signed SVM dual: one maximal-violating pair per step.

    kdiag holds the kernel's diagonal and pair(i, j) returns K[i] - K[j]
    and K[i, j], all a step reads of the kernel. With
    a = y * alpha in [min(0, c*y), max(0, c*y)] and g = y - K a, each step
    moves a_i up and a_j down by the exact line step, clipped to the box,
    for i = argmax g over the coordinates that can grow and j = argmin g
    over those that can shrink (first index on ties; Bottou & Lin, 2007,
    Algorithm 5.1). It stops once the KKT gap g_i - g_j is within _SMO_TOL,
    with b = (g_i + g_j) / 2; hitting _SMO_PASSES * n steps first returns
    the partial solution with converged=False and a warning. Returns
    (a, b, steps, converged). g_up (g_down) is g masked to -inf (inf) where
    a cannot grow (shrink); a step re-masks only i and j.
    """
    n = y.shape[0]
    lo, hi = np.minimum(0.0, c * y), np.maximum(0.0, c * y)
    a = np.zeros(n)
    g = y.copy()
    g_up, g_down = np.where(a < hi, g, -np.inf), np.where(a > lo, g, np.inf)
    steps = 0
    while True:
        i, j = int(np.argmax(g_up)), int(np.argmin(g_down))
        gap = g[i] - g[j]
        converged = bool(gap <= _SMO_TOL)
        if converged or steps == _SMO_PASSES * n:
            break
        room_i, room_j = hi[i] - a[i], a[j] - lo[j]
        k_diff, k_ij = pair(i, j)
        curv = max(kdiag[i] + kdiag[j] - 2.0 * k_ij, 1e-12)
        lam = min(gap / curv, room_i, room_j)
        a[i] = hi[i] if lam == room_i else a[i] + lam
        a[j] = lo[j] if lam == room_j else a[j] - lam
        delta = lam * k_diff
        for v in (g, g_up, g_down):
            v -= delta
        for k in (i, j):
            g_up[k] = g[k] if a[k] < hi[k] else -np.inf
            g_down[k] = g[k] if a[k] > lo[k] else np.inf
        steps += 1
    if not converged:
        warnings.warn(
            f"SVM SMO stopped after {_SMO_PASSES} passes with KKT "
            f"violations above tol={_SMO_TOL}; returning the partial model",
            RuntimeWarning,
        )
    return a, float((g[i] + g[j]) / 2.0), steps, converged


def linear_svm_fit(features, labels, c=1.0, seed=0) -> SvmModel:
    """Linear SVM on 0.5*|w|^2 + c * sum hinge(y(wx+b)), solved by _smo.

    The linear kernel is never built: a step reads x once, for
    x @ (x_i - x_j), and w = a @ x. Each step still scans every row, so a
    fit of 20000 4-d rows (about 38000 steps) takes about 3 s on a 2-vCPU
    Xeon. The seed is kept as metadata only.
    """
    x, y = _svm_problem(features, labels, c)
    a, b, steps, converged = _smo(y, c, (x * x).sum(axis=1),
                                  lambda i, j: (x @ (x[i] - x[j]), x[i] @ x[j]))
    return SvmModel(kind="svml", c=float(c), w=a @ x, b=b, iterations=steps,
                    seed=seed, converged=converged)


_KERNEL_BLOCK = 64  # rows per squared-distance block in _rbf_kernel


def _rbf_kernel(a, b, gamma):
    """exp(-gamma * max(|a_i|^2 + |b_j|^2 - 2 a_i.b_j, 0)), built in place.

    Bitwise the one-expression form: the same Gram product and the same
    sums in the same order, but one (n, m) matrix and one reused block of
    _KERNEL_BLOCK rows live instead of three (n, m) matrices.
    """
    aa = (a * a).sum(axis=1)[:, None]
    bb = (b * b).sum(axis=1)[None, :]
    k = a @ b.T
    k *= 2.0
    buf = np.empty((min(_KERNEL_BLOCK, k.shape[0]), k.shape[1]))
    for r in range(0, k.shape[0], _KERNEL_BLOCK):
        rows = k[r:r + _KERNEL_BLOCK]
        blk = buf[:rows.shape[0]]
        np.add(aa[r:r + _KERNEL_BLOCK], bb, out=blk)
        blk -= rows
        rows[...] = blk
    np.maximum(k, 0.0, out=k)
    k *= -gamma
    np.exp(k, out=k)
    return k


def rbf_svm_fit(features, labels, c=1.0, gamma=None) -> SvmModel:
    """RBF-kernel SVM: _smo on the in-place kernel of the training rows.

    gamma defaults to 1/d; it must be finite and > 0. iterations counts
    the SMO steps, and converged=True means every training row meets its
    KKT condition within _SMO_TOL.
    """
    x, y = _svm_problem(features, labels, c)
    n, d = x.shape
    if n > 5000:
        raise DimensionError(f"kernel SVM supports at most 5000 samples, got {n}")
    if gamma is None:
        gamma = 1.0 / d
    require_positive("rbf gamma", gamma)
    kmat = _rbf_kernel(x, x, gamma)
    a, b, steps, converged = _smo(y, c, kmat.diagonal(),
                                  lambda i, j: (kmat[i] - kmat[j], kmat[i, j]))
    alpha = y * a
    sv = alpha > 1e-10
    return SvmModel(kind="svmr", c=float(c), b=b,
                    sv_x=x[sv].copy(), sv_y=y[sv].copy(), alpha=alpha[sv].copy(),
                    gamma=float(gamma), iterations=steps, converged=converged)


def _svm_decisions(model: SvmModel, features):
    """(n,) decision values: x @ w + b, or one kernel block against the SVs."""
    if model.kind == "svml":
        return _rows(features, model.w.shape[0]) @ model.w + model.b
    x = _rows(features, model.sv_x.shape[1])
    k = _rbf_kernel(model.sv_x, x, model.gamma)
    return (model.alpha * model.sv_y) @ k + model.b


def svm_decision(model: SvmModel, x):
    return float(_svm_decisions(model, np.ravel(x))[0])


def svm_predict(model: SvmModel, x) -> int:
    """Sign of the decision value; exactly 0 counts as +1."""
    return 1 if svm_decision(model, x) >= 0.0 else -1


def fit_head(kind, features, labels, lam=1e-3, c=1.0, seed=0):
    """Fit the head `to_arrays` calls kind ("qda", "svml", "svmr") on 0/1 labels."""
    if kind == "qda":
        return qda_fit(features, labels, lam=lam)
    signed = np.asarray(labels) * 2 - 1
    if kind == "svml":
        return linear_svm_fit(features, signed, c=c, seed=seed)
    if kind == "svmr":
        return rbf_svm_fit(features, signed, c=c)
    raise ConfigurationError(f"unknown classifier kind {kind!r}")


def predict(model, features):
    """0/1 labels for every row of features, the SVMs' decision 0 giving 1."""
    if isinstance(model, QdaModel):
        return np.argmax(_qda_scores(model, features), axis=1)
    return (_svm_decisions(model, features) >= 0.0).astype(np.int64)


def evaluate_accuracy(model, features, labels):
    """(accuracy, 2x2 confusion counts[true][pred]) on 0/1 labels."""
    x, y = _check_features(features, labels, (0, 1))
    if x.shape[0] == 0:
        raise ConfigurationError("evaluation set is empty")
    cells = 2 * y.astype(np.int64) + predict(model, x)
    confusion = np.bincount(cells, minlength=4).reshape(2, 2)
    acc = float(np.trace(confusion) / confusion.sum())
    return acc, confusion


# Per head kind (the `eval --classifier` choices besides fc): its tensors
# with their extents (a named extent binds on first use and must agree
# after), written to the blob in this order; then its meta fields, name ->
# (type, default), a None default marking a required field. The SVM cost
# and the RBF width must also be > 0.
HEADS = {
    "qda": ({"means": (2, "d"), "cov": (2, "d", "d"), "logprior": (2,)},
            {"lam": (float, 0.0)}),
    "svml": ({"w": ("d",)},
             {"c": (float, None), "b": (float, None), "iterations": (int, 0),
              "seed": (int, 0), "converged": (bool, True)}),
    "svmr": ({"sv_x": ("n", "d"), "sv_y": ("n",), "alpha": ("n",)},
             {"c": (float, None), "b": (float, None), "gamma": (float, None),
              "iterations": (int, 0), "converged": (bool, True)}),
}
_POSITIVE = ("c", "gamma")


def to_arrays(model):
    """Flatten a classifier into the container's auxiliary-section form."""
    tensors, meta = HEADS[model.kind]
    return {"kind": model.kind, "meta": {key: getattr(model, key) for key in meta},
            "tensors": {name: getattr(model, name) for name in tensors}}


def from_arrays(section):
    """Rebuild a classifier from a loaded auxiliary section.

    A missing field, an unknown kind, a meta entry of the wrong type (a
    number that is not finite, a `converged` that is not a bool), tensor
    extents that disagree, an SVM `c` or RBF `gamma` that is not > 0 or a
    QDA covariance that is not positive definite raise HeaderSchemaError
    naming the field.
    """
    require_field(section, dict, "classifier section")
    kind = require_field(section.get("kind"), str, "classifier section 'kind'")
    if kind not in HEADS:
        raise HeaderSchemaError(f"classifier section 'kind' {kind!r} is unknown")
    tensors = require_field(section.get("tensors"), dict,
                            "classifier section 'tensors'")
    meta = require_field(section.get("meta", {}), dict,
                         "classifier section 'meta'")
    shapes, fields = HEADS[kind]
    extents, values = {}, {}
    for name, dims in shapes.items():
        arr = np.asarray(require_field(tensors.get(name), np.ndarray,
                                       f"classifier tensor {name!r}"),
                         dtype=np.float64)
        want = tuple(extents.setdefault(d, n) if isinstance(d, str) else d
                     for d, n in zip(dims, arr.shape))
        if arr.ndim != len(dims) or arr.shape != want:
            expected = ", ".join(map(str, dims))
            raise HeaderSchemaError(f"classifier tensor {name!r} has shape "
                                    f"{arr.shape}, expected ({expected})")
        values[name] = arr
    for key, (kind_of, default) in fields.items():
        values[key] = require_field(meta[key] if key in meta else default,
                                    kind_of, f"classifier meta {key!r}")
        if key in _POSITIVE and not values[key] > 0:
            raise HeaderSchemaError(
                f"classifier meta {key!r} must be > 0, got {values[key]}")
    if kind != "qda":
        return SvmModel(kind=kind, **values)
    try:
        chol = np.linalg.cholesky(values["cov"])
    except np.linalg.LinAlgError:
        raise HeaderSchemaError(
            "classifier tensor 'cov' is not positive definite") from None
    logdet = 2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
    return QdaModel(chol=chol, logdet=logdet, **values)
