"""Structured pruning: dependency scores + threshold -> physically smaller net.

A prune plan is a keep-list of filter indices per conv layer. Applying it
drops the removed out-filters and slices every consumer's kernels down to
the surviving input channels (the first dense layer is sliced by surviving
channel x spatial position). Surviving weights are copied bit-exact. A
masked forward pass over the original net provides the reference semantics
the pruned net must reproduce. Parameter counts before and after pruning are
read off the original net and its sliced copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import images_labels
from .deconv import selected_neurons
from .errors import ConfigurationError, DimensionError, require_positive
from .network import Network, forward, logits
from .train import TrainConfig, accuracy, retrain


@dataclass
class PrunePlan:
    """Sorted keep-list per conv layer index, plus the threshold used."""

    keep: dict  # conv layer index -> sorted int64 array of kept filters
    threshold: float
    forced_layers: set = field(default_factory=set)  # empty-layer guard fired

    def conv_rate(self, net: Network) -> float:
        """Fraction of conv parameters removed."""
        return _removed(layer_param_counts(net, apply_prune(net, self)))


def layer_param_counts(net: Network, pruned: Network):
    """Per-conv-layer (params_before, params_after), counted off the net and
    its sliced copy."""
    return {i: (net.layers[i].param_count(), pruned.layers[i].param_count())
            for i in net.conv_indices()}


def _removed(counts):
    before, after = (sum(c) for c in zip(*counts.values()))
    return (before - after) / before if before else 0.0


@dataclass
class PruneReport:
    threshold: float
    conv_rate: float
    acc_before: float
    acc_after: float
    plan: PrunePlan = field(default=None, compare=False, repr=False)
    net: Network = field(default=None, compare=False, repr=False)


def build_prune_plan(table, selected, threshold) -> PrunePlan:
    """Keep filter f iff its dependency score >= threshold.

    The last conv layer is forced to exactly the selected neuron set. A
    layer that would lose every filter keeps its single highest-scoring one
    (smallest index on ties) and is listed in forced_layers.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ConfigurationError(f"threshold must be in [0,1], got {threshold}")
    selected = np.sort(selected_neurons(selected))
    layers = sorted(table.scores)
    last = layers[-1]
    keep = {}
    forced = set()
    for li in layers:
        if li == last:
            keep[li] = selected.copy()
            continue
        scores = np.asarray(table.scores[li], dtype=np.float64)
        kept = np.flatnonzero(scores >= threshold).astype(np.int64)
        if kept.size == 0:
            kept = np.array([int(np.argmax(scores))], dtype=np.int64)
            forced.add(li)
        keep[li] = kept
    return PrunePlan(keep=keep, threshold=float(threshold), forced_layers=forced)


def _check_plan(net: Network, plan: PrunePlan):
    """{conv index: int64 keep-list}, or DimensionError unless the net has a
    conv layer and the plan keeps, for each, distinct filters in range that
    ascend."""
    conv_idx = net.conv_indices()
    if not conv_idx:
        raise DimensionError("model has no conv layer to prune")
    if sorted(plan.keep) != conv_idx:
        raise DimensionError("plan layers do not match the model's conv layers")
    keep = {}
    for i in conv_idx:
        kept = np.asarray(plan.keep[i], dtype=np.int64)
        o = net.layers[i].weights.shape[0]
        if kept.ndim != 1 or kept.size == 0 or kept[0] < 0 or kept[-1] >= o:
            raise DimensionError(f"layer {i}: keep-list out of range for {o} filters")
        if (np.diff(kept) <= 0).any():
            raise DimensionError(f"layer {i}: keep-list must ascend without repeats")
        keep[i] = kept
    return keep


def apply_prune(net: Network, plan: PrunePlan) -> Network:
    """Slice the network down to the plan's keep-lists, values untouched."""
    keep = _check_plan(net, plan)
    shapes = net.infer_shapes()
    out = net.copy()
    in_keep = flat_keep = None
    for i, layer in enumerate(out.layers):
        if layer.kind == "conv":
            w = layer.weights[keep[i]]
            if in_keep is not None:
                w = w[:, in_keep, :, :]
            layer.weights = np.ascontiguousarray(w)
            layer.bias = np.ascontiguousarray(layer.bias[keep[i]])
            in_keep = keep[i]
        elif layer.kind == "flatten" and len(shapes[i - 1]) == 3:
            # surviving channel c spans flat indices [c*h*w, (c+1)*h*w);
            # flatten of a vector is a reshape and leaves flat_keep as it is
            hw = shapes[i - 1][1] * shapes[i - 1][2]
            flat_keep = (in_keep[:, None] * hw
                         + np.arange(hw, dtype=np.int64)[None, :]).ravel()
        elif layer.kind == "dense" and flat_keep is not None:
            layer.weights = np.ascontiguousarray(layer.weights[:, flat_keep])
            flat_keep = None
    out.infer_shapes()
    return out


def masked_forward(net: Network, plan: PrunePlan, image):
    """Forward on the original net with pruned channels zeroed at each conv.

    Returns (output, list of post-mask activations per layer). Channels
    missing from a conv's keep-list are forced to zero at that conv's own
    output, so every later layer sees exactly what the pruned net sees.
    A plan that does not fit the net raises DimensionError, as in apply_prune.
    """
    masks = {}
    for i, kept in _check_plan(net, plan).items():
        m = np.zeros(net.layers[i].weights.shape[0], dtype=np.float32)
        m[kept] = 1.0
        masks[i] = m[:, None, None]

    def mask(i, out):
        return out * masks[i] if i in masks else out

    out, rec = forward(net, image, record=True, hook=mask)
    return out, rec.activations


def equivalence_check(net: Network, plan: PrunePlan, images) -> float:
    """Max relative logit deviation between pruned and masked semantics."""
    if len(images) == 0:
        raise ConfigurationError("evaluation set is empty")
    pruned = apply_prune(net, plan)
    worst = 0.0
    for sample in images:
        ref = masked_forward(net, plan, sample.image)[1][-2]
        got = logits(pruned, sample.image).data
        dev = np.abs(got - ref) / (np.abs(ref) + 1e-6)
        worst = max(worst, float(dev.max()))
    return worst


def plateau_threshold_search(net: Network, table, selected, split, grid,
                             eps_acc=0.02, retrain_config=None):
    """Prune+retrain at every grid threshold; pick the plateau edge t_0.

    t_0 is the largest threshold whose retrained accuracy is within eps_acc
    of the best on the grid. Returns (t_0, [PruneReport per point]), each
    with its plan and its fresh copy, retrained once on a small fixed budget.
    """
    grid = [float(t) for t in grid]
    if not grid:
        raise ConfigurationError("threshold grid is empty")
    if sorted(grid) != grid:
        raise ConfigurationError("threshold grid must be sorted ascending")
    require_positive("eps_acc", eps_acc)
    cfg = retrain_config or TrainConfig(epochs=10)
    tr_imgs, tr_labels = images_labels(split.train)
    te_imgs, te_labels = images_labels(split.test)
    reports = []
    for t in grid:
        plan = build_prune_plan(table, selected, t)
        pruned = apply_prune(net, plan)
        before = accuracy(pruned, te_imgs, te_labels)
        fit = retrain(pruned, tr_imgs, tr_labels, te_imgs, te_labels, cfg)
        # the last epoch already measured this net on this split
        after = fit.final_eval_acc if cfg.epochs else before
        reports.append(PruneReport(
            threshold=t, conv_rate=_removed(layer_param_counts(net, pruned)),
            acc_before=float(before), acc_after=float(after),
            plan=plan, net=pruned,
        ))
    best = max(r.acc_after for r in reports)
    t_0 = max(r.threshold for r in reports if r.acc_after >= best - eps_acc)
    return t_0, reports


def magnitude_mask(net: Network, rate: float):
    """Mask of the globally smallest-magnitude conv weights at the rate.

    Masks exactly ceil(rate * total conv weight count) entries; ties break
    by flat position so the same weights always selects the same mask.
    Biases are untouched. Returns {conv layer index: 0/1 float32 array}.
    """
    if not 0.0 <= rate < 1.0:
        raise ConfigurationError(f"rate must be in [0,1), got {rate}")
    weights = {i: net.layers[i].weights for i in net.conv_indices()}
    mags = np.concatenate([np.abs(w).ravel() for w in weights.values()])
    flat = np.ones(mags.size, dtype=np.float32)
    flat[np.argsort(mags, kind="stable")[:math.ceil(rate * mags.size)]] = 0.0
    parts = np.split(flat, np.cumsum([w.size for w in weights.values()])[:-1])
    return {i: part.reshape(w.shape) for (i, w), part in zip(weights.items(), parts)}


def magnitude_baseline(net: Network, rate: float, split, retrain_config=None):
    """Mask smallest conv weights, retrain with the mask pinned, report accuracy.

    Works on a copy; returns (accuracy after retrain, mask dict).
    """
    cfg = retrain_config or TrainConfig(epochs=10)
    work = net.copy()
    masks = magnitude_mask(work, rate)
    tr_imgs, tr_labels = images_labels(split.train)
    te_imgs, te_labels = images_labels(split.test)
    fit = retrain(work, tr_imgs, tr_labels, te_imgs, te_labels, cfg,
                  weight_mask=masks)
    acc = fit.final_eval_acc if cfg.epochs else accuracy(work, te_imgs, te_labels)
    return float(acc), masks
