"""Deconvolution walk: project a neuron's max activation back to pixels.

The walk is network.reverse in its mirror mode (the deconvnet of Zeiler &
Fergus, 2014): max-pool -> unpool through the stored switches, relu ->
relu (rectify), conv -> transposed conv with the same kernel. Walking a
one-hot start tensor (the neuron's spatial argmax holding its max value)
down the stack yields a reconstruction per layer; the L1 channel energy of
those reconstructions says how much each lower filter participates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .network import ForwardRecord, Network, forward, reverse
from .ops import unpool  # noqa: F401  (still importable from here)


@dataclass
class DeconvMap:
    """Reconstructions from one neuron's walk, keyed by layer index.

    maps[i] has the shape of layer i's forward output; pixel is the final
    input-shaped reconstruction. A dead neuron (max activation 0) produces
    all-zero maps without walking and sets dead.
    """

    neuron: int
    maps: dict
    pixel: np.ndarray
    dead: bool


@dataclass
class DependencyTable:
    """Per-conv-layer filter scores in [0,1], pooled over images/neurons."""

    scores: dict  # conv layer index -> (n_filters,) array
    selected: np.ndarray
    n_images: int
    dead_layers: set = field(default_factory=set)


def deconv_from_neuron(net: Network, rec: ForwardRecord, neuron: int) -> DeconvMap:
    """Walk one last-conv neuron's max activation down to the pixels.

    The start tensor is zero except at the neuron's spatial argmax (ties to
    the smallest flat index), holding the post-relu max value. A dead
    neuron's walk would carry zeros all the way down, so its maps are
    allocated as zeros and the reverse walk does not run.
    """
    last = net.last_conv_index()
    n_filters = rec.activations[last].shape[0]
    if not 0 <= neuron < n_filters:
        raise ConfigurationError(f"neuron {neuron} out of range [0,{n_filters})")
    act = rec.activations[last + 1] if (
        last + 1 < len(net.layers) and net.layers[last + 1].kind == "relu"
    ) else np.maximum(rec.activations[last], 0)
    chan = act[neuron]
    peak = float(chan.max())
    start = np.zeros_like(rec.activations[last])
    if peak <= 0.0:
        maps = {i: np.zeros(rec.activations[i].shape, start.dtype)
                for i in range(last, -1, -1)}
        return DeconvMap(neuron=neuron, maps=maps, dead=True,
                         pixel=np.zeros(rec.input.shape, start.dtype))
    start[neuron].ravel()[int(chan.argmax())] = peak
    maps = dict(reverse(net, rec, last, start, mirror=True))
    pixel = maps.pop(-1)
    return DeconvMap(neuron=neuron, maps=maps, pixel=pixel, dead=False)


def dependency_scores(net: Network, images, selected) -> DependencyTable:
    """Pool per-filter dependency over images (mean) and neurons (max).

    Each (image, neuron) walk adds, per conv layer, the L1 norm of every
    channel of its reconstruction over the largest such norm to the
    neuron's row of one (neurons x filters) sum in the walk's dtype. Scores
    are the mean over images, then the max over the distinct selected
    neurons, so a filter needed by any one of them survives.
    """
    selected = np.asarray(selected, dtype=np.int64).ravel()
    if selected.size == 0:
        raise ConfigurationError("selected neuron set is empty")
    if (np.diff(np.sort(selected)) == 0).any():
        raise ConfigurationError("selected neurons must be distinct")
    if not images:
        raise ConfigurationError("image list is empty")
    sums = {}
    for sample in images:
        _, rec = forward(net, sample.image, record=True)
        for row, n in enumerate(selected):
            maps = deconv_from_neuron(net, rec, int(n)).maps
            for li in net.conv_indices():
                energy = np.abs(maps[li]).reshape(len(maps[li]), -1).sum(axis=1)
                if li not in sums:
                    sums[li] = np.zeros((selected.size, energy.size), energy.dtype)
                top = energy.max()
                if top > 0:
                    sums[li][row] += energy / top
    scores = {li: (s / len(images)).max(axis=0) for li, s in sums.items()}
    dead = {li for li, s in scores.items() if s.max() <= 0}
    return DependencyTable(scores=scores, selected=selected.copy(),
                           n_images=len(images), dead_layers=dead)
