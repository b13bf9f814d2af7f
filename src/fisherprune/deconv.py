"""Deconvolution walk: project a neuron's firing down to the first conv.

The walk is network.reverse in its mirror mode (the deconvnet of Zeiler &
Fergus, 2014): backprop, but relu rectifies the signal. Walking a one-hot
start tensor (the neuron's firing at its spatial argmax) down to layer 0
yields a reconstruction per layer; the L1 channel energy of those
reconstructions says how much each lower filter participates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, NonFiniteError, require_int
from .network import ForwardRecord, Network, forward, reverse
from .ops import unpool  # noqa: F401  (criterion 4 imports it from here)


@dataclass
class DeconvMap:
    """Reconstructions from one neuron's walk, keyed by layer index.

    maps[i] has the shape of layer i's forward output, for i = last conv
    down to 0. A dead neuron (firing 0) produces all-zero maps without
    walking and sets dead.
    """

    maps: dict
    dead: bool


@dataclass
class DependencyTable:
    """Per-conv-layer filter scores in [0,1], pooled over images/neurons."""

    scores: dict  # conv layer index -> (n_filters,) array
    selected: np.ndarray
    n_images: int
    dead_layers: set = field(default_factory=set)
    live_walks: np.ndarray | None = None  # per selected neuron: images it fired on


def selected_neurons(selected):
    """selected as a flat int64 array, or ConfigurationError unless it is a
    non-empty set of distinct int ids >= 0 that fit int64 (a bool is not an
    int)."""
    ids = [require_int("selected neuron id", n, 0)
           for n in np.asarray(selected, dtype=object).ravel()]
    if not ids:
        raise ConfigurationError("selected neuron set is empty")
    if max(ids) > np.iinfo(np.int64).max:
        raise ConfigurationError(
            f"selected neuron id must fit int64, got {max(ids)}")
    if len(set(ids)) < len(ids):
        raise ConfigurationError("selected neurons must be distinct")
    return np.array(ids, dtype=np.int64)


def deconv_from_neuron(net: Network, rec: ForwardRecord, neuron: int) -> DeconvMap:
    """Walk one last-conv neuron's firing down to layer 0's output.

    The start tensor is zero except at the argmax of np.maximum(conv
    output, 0) in the neuron's channel (ties to the smallest flat index),
    holding that finite peak. A dead neuron's walk would carry zeros all the
    way down, so its maps are allocated as zeros and no reverse walk runs.
    """
    last = net.last_conv_index()
    n_filters = rec.activations[last].shape[0]
    if require_int("neuron", neuron, 0) >= n_filters:
        raise ConfigurationError(f"neuron {neuron} out of range [0,{n_filters})")
    chan = np.maximum(rec.activations[last][neuron], 0)
    peak = float(chan.max())
    if not np.isfinite(peak):
        raise NonFiniteError(f"neuron {neuron} fires NaN or infinity")
    start = np.zeros_like(rec.activations[last])
    if peak <= 0.0:
        maps = {i: np.zeros(rec.activations[i].shape, start.dtype)
                for i in range(last, -1, -1)}
        return DeconvMap(maps=maps, dead=True)
    start[neuron].ravel()[int(chan.argmax())] = peak
    maps = dict(reverse(net, rec, last, start, mirror=True))
    return DeconvMap(maps=maps, dead=False)


def dependency_scores(net: Network, images, selected) -> DependencyTable:
    """Pool per-filter dependency over images (mean) and neurons (max).

    Each (image, neuron) walk adds, per conv layer, the L1 norm of every
    channel of its reconstruction over the largest such norm to the
    neuron's row of one (neurons x filters) sum in the walk's dtype. Scores
    are the mean over images, then the max over the distinct selected
    neurons, so a filter needed by any one of them survives. A dead walk
    adds zeros; live_walks counts, per selected neuron, the walks that were
    not dead. Nothing after the last conv runs.
    """
    selected = selected_neurons(selected)
    if not images:
        raise ConfigurationError("image list is empty")
    trunk = Network(net.input_shape, net.layers[: net.last_conv_index() + 1])
    sums, live = {}, np.zeros(selected.size, np.int64)
    for sample in images:
        _, rec = forward(trunk, sample.image, record=True)
        for row, n in enumerate(selected):
            walk = deconv_from_neuron(trunk, rec, int(n))
            live[row] += not walk.dead
            maps = walk.maps
            for li in trunk.conv_indices():
                energy = np.abs(maps[li]).reshape(len(maps[li]), -1).sum(axis=1)
                if li not in sums:
                    sums[li] = np.zeros((selected.size, energy.size), energy.dtype)
                top = energy.max()
                if top > 0:
                    sums[li][row] += energy / top
    scores = {li: (s / len(images)).max(axis=0) for li, s in sums.items()}
    dead = {li for li, s in scores.items() if s.max() <= 0}
    return DependencyTable(scores=scores, selected=selected, n_images=len(images),
                           dead_layers=dead, live_walks=live)
