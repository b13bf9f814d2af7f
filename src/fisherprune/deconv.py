"""Deconvolution walk: project a neuron's max activation back to pixels.

Mirrors the forward stack in reverse on plain arrays, reading each layer's
shape from the ForwardRecord. Each forward layer has a mirror stage:
max-pool -> unpool through the stored switches, relu -> relu (rectify),
conv -> transposed conv (ops.conv2d_adjoint) with the same kernel. Walking
a one-hot start tensor (the neuron's spatial argmax holding its max value)
down the stack yields a reconstruction per layer; the L1 channel energy of
those reconstructions says how much each lower filter participates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import ops
from .errors import ConfigurationError, DimensionError
from .network import ForwardRecord, Network, forward


def unpool(pooled, switches, target_shape):
    """Place each pooled value at its recorded flat index; zeros elsewhere."""
    out = np.zeros(int(np.prod(target_shape)), dtype=pooled.dtype)
    idx = np.asarray(switches).ravel()
    if idx.size != pooled.size:
        raise DimensionError(
            f"switch count {idx.size} != pooled size {pooled.size}"
        )
    if idx.size and (idx.min() < 0 or idx.max() >= out.size):
        raise DimensionError("pool switch out of target bounds")
    out[idx] = pooled.ravel()
    return out.reshape(target_shape)


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


def _mirror_step(layer, cur, rec, i):
    """One layer's mirror stage; always returns a fresh array."""
    below = (rec.activations[i - 1] if i > 0 else rec.input).shape
    if layer.kind == "conv":
        return ops.conv2d_adjoint(cur, layer.weights, layer.stride, layer.pad,
                                  out_hw=below[1:])
    if layer.kind == "relu":
        return ops.relu_forward(cur)
    if layer.kind == "maxpool":
        return unpool(cur, rec.switches[i], below)
    raise ConfigurationError(f"no mirror stage for layer kind {layer.kind!r}")


def deconv_from_neuron(net: Network, rec: ForwardRecord, neuron: int) -> DeconvMap:
    """Walk one last-conv neuron's max activation down to the pixels.

    The start tensor is zero except at the neuron's spatial argmax (ties to
    the smallest flat index), holding the post-relu max value. A dead
    neuron's walk would carry zeros all the way down, so its maps are
    allocated as zeros and no mirror stage runs.
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
    cur = np.zeros_like(rec.activations[last])
    maps = {last: cur}
    if peak <= 0.0:
        maps.update((i, np.zeros(rec.activations[i].shape, cur.dtype))
                    for i in range(last - 1, -1, -1))
        return DeconvMap(neuron=neuron, maps=maps, dead=True,
                         pixel=np.zeros(rec.input.shape, cur.dtype))
    cur[neuron].ravel()[int(chan.argmax())] = peak
    for i in range(last, -1, -1):
        cur = _mirror_step(net.layers[i], cur, rec, i)
        if i > 0:
            maps[i - 1] = cur
    return DeconvMap(neuron=neuron, maps=maps, pixel=cur, dead=False)


def _layer_contrib(dmap, conv_layers):
    """Per-layer normalized L1 channel energy of one walk's reconstructions."""
    out = {}
    for li in conv_layers:
        m = dmap.maps[li]
        energy = np.abs(m).reshape(m.shape[0], -1).sum(axis=1)
        top = energy.max()
        out[li] = energy / top if top > 0 else np.zeros_like(energy)
    return out


def dependency_scores(net: Network, images, selected) -> DependencyTable:
    """Pool per-filter dependency over images (mean) and neurons (max).

    Each (image, neuron) walk contributes the L1 norm of every channel of
    every conv layer's reconstruction, normalized by that layer's largest
    channel norm. Scores are averaged over images per neuron, then the
    elementwise max over the selected neurons is kept, so a filter needed
    by any one selected neuron survives.
    """
    selected = np.asarray(selected, dtype=np.int64).ravel()
    if selected.size == 0:
        raise ConfigurationError("selected neuron set is empty")
    if not images:
        raise ConfigurationError("image list is empty")
    last = net.last_conv_index()
    conv_layers = [i for i in net.conv_indices() if i <= last]
    sums = {int(n): None for n in selected}
    for sample in images:
        _, rec = forward(net, sample.image, record=True)
        for n in selected:
            dmap = deconv_from_neuron(net, rec, int(n))
            contrib = _layer_contrib(dmap, conv_layers)
            acc = sums[int(n)]
            if acc is None:
                sums[int(n)] = contrib
            else:
                for li in conv_layers:
                    acc[li] = acc[li] + contrib[li]
    n_img = len(images)
    scores = {}
    dead = set()
    for li in conv_layers:
        per_neuron = np.stack([sums[int(n)][li] / n_img for n in selected])
        merged = per_neuron.max(axis=0)
        scores[li] = merged
        if merged.max() <= 0:
            dead.add(li)
    return DependencyTable(scores=scores, selected=selected.copy(),
                           n_images=n_img, dead_layers=dead)
