"""Firing-matrix construction and Fisher discriminant analysis.

A firing matrix holds one row per image and one column per last-conv
channel; each entry is the channel's firing on that image, the spatial
peak of np.maximum(conv output, 0). Scatter matrices are raw sums (no 1/N):

    S_w = sum_i sum_{x in class i} (x - mu_i)(x - mu_i)^T
    S_b = sum_i N_i (mu_i - mu)(mu_i - mu)^T

and each neuron's discriminability is the intra-class correlation
ICC = s2b / (s2b + s2w) built from the matching diagonals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DimensionError, NonFiniteError, require_int
from .network import Network, forward


@dataclass
class FiringMatrix:
    """Per-image, per-neuron firing scores with row labels."""

    values: np.ndarray  # (n_images, n_neurons) float64
    labels: np.ndarray  # (n_images,) in {0,1}
    standardized: bool = False
    col_mean: np.ndarray | None = None
    col_std: np.ndarray | None = None
    constant_cols: np.ndarray | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.values.ndim != 2:
            raise DimensionError(f"firing matrix must be 2-D, got {self.values.shape}")
        if self.values.shape[0] != self.labels.shape[0]:
            raise DimensionError("one label per firing row required")
        if not np.isfinite(self.values).all():
            raise NonFiniteError("firing matrix holds NaN or infinity")


@dataclass
class ScatterPair:
    s_w: np.ndarray
    s_b: np.ndarray
    mu0: np.ndarray
    mu1: np.ndarray
    mu: np.ndarray
    n0: int
    n1: int


@dataclass
class NeuronRanking:
    """Per-neuron variances and scores; order/selected filled by selection."""

    s2w: np.ndarray
    s2b: np.ndarray
    icc: np.ndarray
    order: np.ndarray | None = None  # neuron indices, best first
    selected: np.ndarray = field(default_factory=lambda: np.array([], dtype=np.int64))


def extract_firing_matrix(net: Network, images, layer: int) -> FiringMatrix:
    """Row k = per-channel spatial peak of the rectified conv output on image k."""
    if (require_int("layer", layer, 0) >= len(net.layers)
            or net.layers[layer].kind != "conv"):
        raise ConfigurationError(f"layer {layer} is not a conv layer")
    if not images:
        raise ConfigurationError("image list is empty")
    trunk = Network(net.input_shape, net.layers[: layer + 1])
    rows, labels = [], []
    for sample in images:
        act = np.maximum(forward(trunk, sample.image).data, 0)
        rows.append(act.reshape(act.shape[0], -1).max(axis=1))
        labels.append(sample.label)
    return FiringMatrix(np.array(rows, dtype=np.float64),
                        np.array(labels, dtype=np.int64))


def zscore(values, mean, std):
    """Scale columns by given stats: (values - mean) / std.

    A column whose stddev is below 1e-8 is constant: it is centered but left
    unscaled. Returns (scaled values, constant-column flags).
    """
    constant = std < 1e-8
    return (values - mean) / np.where(constant, 1.0, std), constant


def standardize(mat: FiringMatrix) -> FiringMatrix:
    """Per-column z-score (population stddev) by zscore's rule."""
    if mat.values.shape[0] < 2:
        raise ConfigurationError("standardization needs at least 2 rows")
    mean = mat.values.mean(axis=0)
    std = mat.values.std(axis=0)  # population: ddof=0
    vals, constant = zscore(mat.values, mean, std)
    return FiringMatrix(vals, mat.labels.copy(), standardized=True,
                        col_mean=mean, col_std=std, constant_cols=constant)


def scatter_matrices(mat: FiringMatrix) -> ScatterPair:
    """Within- and between-class scatter as raw (un-normalized) sums."""
    x = mat.values
    y = mat.labels
    n0 = int((y == 0).sum())
    n1 = int((y == 1).sum())
    if n0 == 0 or n1 == 0:
        raise ConfigurationError("both classes must be present")
    x0, x1 = x[y == 0], x[y == 1]
    mu0 = x0.mean(axis=0)
    mu1 = x1.mean(axis=0)
    mu = x.mean(axis=0)
    d0 = x0 - mu0
    d1 = x1 - mu1
    s_w = d0.T @ d0 + d1.T @ d1
    g0 = (mu0 - mu)[:, None]
    g1 = (mu1 - mu)[:, None]
    s_b = n0 * (g0 @ g0.T) + n1 * (g1 @ g1.T)
    s_w = (s_w + s_w.T) / 2
    s_b = (s_b + s_b.T) / 2
    return ScatterPair(s_w, s_b, mu0, mu1, mu, n0, n1)


def icc_scores(scatter: ScatterPair) -> NeuronRanking:
    """s2w/s2b from the scatter diagonals; ICC of a dead neuron is 0."""
    s2w = np.diag(scatter.s_w).copy()
    s2b = np.diag(scatter.s_b).copy()
    total = s2b + s2w
    icc = np.divide(s2b, total, out=np.zeros_like(s2b), where=total > 0)
    return NeuronRanking(s2w=s2w, s2b=s2b, icc=icc)


def _ordered(primary, s2b):
    # descending primary score; ties to larger s2b, then smaller index
    idx = np.arange(len(primary))
    return np.lexsort((idx, -s2b, -primary))


def rank_and_select(scores: NeuronRanking, k: int) -> NeuronRanking:
    """Top-k neurons by descending ICC (ties: larger s2b, smaller index)."""
    require_int("k", k, 1, len(scores.icc))
    order = _ordered(scores.icc, scores.s2b)
    return NeuronRanking(s2w=scores.s2w, s2b=scores.s2b, icc=scores.icc,
                         order=order, selected=order[:k].copy())


def variance_ranking_baseline(mat: FiringMatrix, k=None) -> NeuronRanking:
    """Rank neurons by total variance instead of ICC (what PCA would keep)."""
    scatter = scatter_matrices(mat)
    ranking = icc_scores(scatter)
    total = ranking.s2w + ranking.s2b
    order = _ordered(total, ranking.s2b)
    sel = order[:k].copy() if k is not None else np.array([], dtype=np.int64)
    return NeuronRanking(s2w=ranking.s2w, s2b=ranking.s2b, icc=ranking.icc,
                         order=order, selected=sel)


def diagonal_dominance(s_w) -> float:
    """Share of mass on the diagonal: sum|diag| / sum|all|; zero matrix -> 1."""
    a = np.abs(np.asarray(s_w, dtype=np.float64))
    total = a.sum()
    if total == 0:
        return 1.0
    return float(np.trace(a) / total)


def full_lda_directions(scatter: ScatterPair, m: int):
    """Top-m directions of the multivariate criterion max |W'SbW|/|W'SwW|.

    Solved as the generalized symmetric problem (S_b, S_w + eps*I) with
    eps = 1e-6 * trace(S_w)/d: Cholesky-reduce to an ordinary symmetric
    problem, solve that with np.linalg.eigh, map back. Eigenvalues come out
    descending and each eigenvector v satisfies v' (S_w + eps I) v = 1.
    """
    d = scatter.s_w.shape[0]
    if d > 64:
        raise DimensionError(f"full LDA supports d <= 64, got {d}")
    require_int("m", m, 1, d)
    eps = 1e-6 * np.trace(scatter.s_w) / d
    eps = max(float(eps), 1e-12)
    a = scatter.s_w + eps * np.eye(d)
    chol = np.linalg.cholesky(a)
    # M = L^-1 S_b L^-T, symmetric
    y = np.linalg.solve(chol, scatter.s_b)
    mat = np.linalg.solve(chol, y.T).T
    mat = (mat + mat.T) / 2
    evals, evecs = np.linalg.eigh(mat)
    order = np.argsort(-evals)
    evals = evals[order][:m]
    evecs = evecs[:, order][:, :m]
    # back-substitute: v = L^-T q keeps q'q = v'(Sw+eps)v = 1
    directions = np.linalg.solve(chol.T, evecs)
    return evals, directions
