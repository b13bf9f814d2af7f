"""Sequential CNN container: layer descriptors, shape inference, layer walks.

A network is a list of LayerSpec entries applied in order to a (C,H,W)
input. Parameters live on the specs themselves (conv/dense only).
forward() is the package's one forward layer walk: it takes and returns a
Tensor but runs every layer on plain arrays. It can record every
intermediate activation plus pooling switches; a pass that does not record
computes no switches. A per-layer hook lets callers replace each layer's
output (masked passes) or observe it (timing).

reverse() is the one reverse walk over such a record, shared by backprop
(train.backward) and the deconvnet projection (deconv.deconv_from_neuron).
It yields the signal at each layer's output in turn, down to layer 0; the
two walks differ only in their relu rule (Springenberg et al., 2015). A
max-pool's reverse rule is ops.unpool, so only ops reads the switches.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from . import ops
from .errors import ConfigurationError, DimensionError, is_int, require_int
from .tensor import Tensor

# Fields of each layer kind besides "kind": name -> default, None when the
# field is required. "weights" and "bias" are tensors, listed in the order
# the model container writes them; every other field is an int.
LAYER_FIELDS = {
    "conv": {"weights": None, "bias": None, "stride": 1, "pad": 0},
    "dense": {"weights": None, "bias": None},
    "maxpool": {"window": None, "stride": None},
    "relu": {}, "flatten": {}, "softmax": {},
}


@dataclass
class LayerSpec:
    """One layer of a sequential network, made as LayerSpec(kind, ...).

    kind is a key of LAYER_FIELDS. weights and bias are populated for conv
    ((O,C,kh,kw) and (O,)) and dense ((m,n) and (m,)) layers only, stored
    as contiguous float32. Geometry ranges are left to infer_shapes.
    """

    kind: str
    weights: np.ndarray | None = None
    bias: np.ndarray | None = None
    stride: int = 1
    pad: int = 0
    window: int = 0

    def __post_init__(self):
        if self.kind not in LAYER_FIELDS:
            raise ConfigurationError(f"unknown layer kind {self.kind!r}")
        for name in ("stride", "pad", "window"):
            value = getattr(self, name)
            if not is_int(value):
                raise ConfigurationError(
                    f"{self.kind} {name} must be an int, got {value!r}")
        if "weights" not in LAYER_FIELDS[self.kind]:
            return
        if self.weights is None or self.bias is None:
            raise ConfigurationError(f"{self.kind} layer needs weights and bias")
        self.weights = np.ascontiguousarray(self.weights, dtype=np.float32)
        self.bias = np.ascontiguousarray(self.bias, dtype=np.float32).reshape(-1)
        rank = 4 if self.kind == "conv" else 2
        if self.weights.ndim != rank:
            raise DimensionError(f"{self.kind} weights must have rank {rank}, "
                                 f"got shape {self.weights.shape}")
        if self.bias.shape[0] != self.weights.shape[0]:
            raise DimensionError(f"{self.kind} bias length must match its "
                                 f"{self.weights.shape[0]} outputs")

    def param_count(self):
        n = 0
        if self.weights is not None:
            n += self.weights.size
        if self.bias is not None:
            n += self.bias.size
        return n


@dataclass
class Network:
    """An ordered stack of layers plus the input shape it expects."""

    input_shape: tuple
    layers: list = field(default_factory=list)

    def infer_shapes(self):
        """Shape of each layer's output, validating the whole chain."""
        shape = tuple(self.input_shape)
        if not all(is_int(s) and s >= 1 for s in shape):
            raise DimensionError(f"input extents must be >= 1 and ints, got {shape}")
        out = []
        for i, layer in enumerate(self.layers):
            try:
                shape = _layer_out_shape(layer, shape)
            except (DimensionError, ConfigurationError) as exc:
                raise type(exc)(f"layer {i} ({layer.kind}): {exc}") from None
            out.append(shape)
        return out

    def conv_indices(self):
        return [i for i, l in enumerate(self.layers) if l.kind == "conv"]

    def last_conv_index(self):
        idx = self.conv_indices()
        if not idx:
            raise ConfigurationError("network has no conv layers")
        return idx[-1]

    def param_count(self):
        """(conv_params, fc_params): fc covers every layer after the last conv."""
        split = self.last_conv_index()
        conv = sum(l.param_count() for l in self.layers[: split + 1])
        fc = sum(l.param_count() for l in self.layers[split + 1:])
        return conv, fc

    def copy(self):
        return copy.deepcopy(self)


@dataclass
class ForwardRecord:
    """Everything the backward pass / deconv tracer needs from one forward run."""

    input: np.ndarray
    activations: list  # activations[i] = output of layer i, raw array
    switches: dict  # layer index -> flat-index switch array for maxpool


def _step(layer, x, record):
    """Apply one layer to a raw array: (output, pool switches or None).

    Pools compute switches only when the walk records.
    """
    if layer.kind == "conv":
        return ops.conv2d_forward(x, layer.weights, layer.bias,
                                  stride=layer.stride, pad=layer.pad), None
    if layer.kind == "relu":
        return ops.relu_forward(x), None
    if layer.kind == "maxpool":
        return ops.maxpool_forward(x, layer.window, layer.stride,
                                   switches=record)
    if layer.kind == "flatten":
        return x.reshape(-1), None
    if layer.kind == "dense":
        return ops.dense_forward(x, layer.weights, layer.bias), None
    return ops.softmax(x), None


def forward(net: Network, x: Tensor, record=False, hook=None):
    """Run the network on one input; optionally keep all intermediates.

    hook(i, out), when given, is called with each layer's output and returns
    the array that is carried forward (and recorded) in its place; masking
    and per-layer timing ride on it. Returns the output Tensor, or
    (output, ForwardRecord) when record=True. Max-pool switches are computed
    only when record=True; the output is bitwise the same either way. Layer
    failures are re-raised with the layer index prepended.
    """
    if not isinstance(x, Tensor):
        raise ConfigurationError(f"network input must be a Tensor, got "
                                 f"{type(x).__name__}")
    if tuple(x.shape) != tuple(net.input_shape):
        raise DimensionError(
            f"network expects input {net.input_shape}, got {x.shape}"
        )
    cur = x.data
    rec = ForwardRecord(input=cur.copy(), activations=[], switches={}) if record else None
    for i, layer in enumerate(net.layers):
        try:
            cur, switches = _step(layer, cur, record)
        except ValueError as exc:
            raise type(exc)(f"layer {i} ({layer.kind}): {exc}") from None
        if hook is not None:
            cur = hook(i, cur)
        if rec is not None:
            rec.activations.append(cur)  # ops return new arrays; no copy
            if switches is not None:
                rec.switches[i] = switches
    out = Tensor(cur)
    return (out, rec) if record else out


def reverse(net: Network, rec: ForwardRecord, start, signal, mirror=False):
    """Carry a signal from layer start's output down to layer 0's output.

    The mirror of forward: yields (i, signal at layer i's output) for
    i = start..0. Each layer's rule runs only when the next signal is asked
    for, and layer 0's never runs: no caller reads a signal at the input.
    Each step works in the signal's dtype: conv applies its transposed
    conv, dense W^T, flatten a reshape, max-pool ops.unpool through its
    switches (windows sharing a winner sum). Relu is the one difference:
    backprop (mirror=False) gates by the sign of its recorded output; the
    deconvnet projection (mirror=True; Zeiler & Fergus, 2014) rectifies.
    A start that is not a layer of the record, or a signal not shaped like
    its output, raises DimensionError when the walk begins.
    """
    n = len(rec.activations)
    if not (is_int(start) and 0 <= start < n
            and np.shape(signal) == rec.activations[start].shape):
        raise DimensionError(f"reverse needs a start in [0, {n}) and a signal shaped "
                             f"like its output, got {start!r} and {np.shape(signal)}")
    for i in range(start, -1, -1):
        yield i, signal
        if i == 0:
            return
        layer = net.layers[i]
        below = rec.activations[i - 1].shape
        if layer.kind == "conv":
            signal = ops.conv2d_adjoint(signal, layer.weights, layer.stride,
                                        layer.pad, out_hw=below[1:])
        elif layer.kind == "dense":
            signal = layer.weights.astype(signal.dtype, copy=False).T @ signal
        elif layer.kind == "flatten":
            signal = signal.reshape(below)
        elif layer.kind == "relu":
            signal = (ops.relu_forward(signal) if mirror
                      else signal * (rec.activations[i] > 0))
        elif layer.kind == "maxpool":
            signal = ops.unpool(signal, rec.switches[i], below)
        else:
            raise ConfigurationError(f"no reverse rule for layer {i} ({layer.kind})")


def logits(net: Network, x: Tensor):
    """Pre-softmax scores; requires the final layer to be softmax."""
    if not net.layers or net.layers[-1].kind != "softmax":
        raise ConfigurationError("network does not end in softmax")
    trunk = Network(net.input_shape, net.layers[:-1])
    return forward(trunk, x)


def _layer_out_shape(layer, shape):
    """The layer's output shape under the kernels' shape rules in ops, plus
    one load-time policy: a conv pad must be below the kernel extents."""
    if layer.kind == "conv":
        out = ops.conv_shape(shape, layer.weights.shape, layer.stride, layer.pad)
        kh, kw = layer.weights.shape[2:]
        if layer.pad >= kh or layer.pad >= kw:
            # such a pad only adds constant (bias-valued) border outputs
            raise ConfigurationError(
                f"pad {layer.pad} must be below the {kh}x{kw} kernel's extents")
        return out
    if layer.kind == "maxpool":
        return ops.pool_shape(shape, layer.window, layer.stride)
    if layer.kind == "dense":
        return ops.dense_shape(shape, layer.weights.shape)
    if layer.kind == "flatten":
        return (int(np.prod(shape)),)
    # relu / softmax keep the shape
    return shape


def kaiming_uniform(rng, shape, fan_in):
    """He-style uniform init, bound sqrt(6 / fan_in)."""
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


def build_cnn(input_shape, conv_plan, dense_plan, n_classes, seed=0):
    """Assemble a conv/relu(/pool) trunk plus dense head with seeded init.

    conv_plan: list of (out_channels, kernel, pad, pool_after) tuples; a
    truthy pool_after appends a 2x2/stride-2 max-pool after the relu.
    dense_plan: list of hidden widths (each followed by relu). The final
    dense layer maps to n_classes and a softmax closes the network.
    """
    rng = np.random.default_rng(require_int("seed", seed, 0))
    layers = []
    c = input_shape[0]
    for out_c, k, pad, pool in conv_plan:
        kw = kaiming_uniform(rng, (out_c, c, k, k), c * k * k)
        kb = np.zeros(out_c, dtype=np.float32)
        layers += [LayerSpec("conv", kw, kb, pad=pad), LayerSpec("relu")]
        if pool:
            layers.append(LayerSpec("maxpool", window=2, stride=2))
        c = out_c
    layers.append(LayerSpec("flatten"))
    n, = Network(tuple(input_shape), layers).infer_shapes()[-1]
    for width in dense_plan:
        dw = kaiming_uniform(rng, (width, n), n)
        db = np.zeros(width, dtype=np.float32)
        layers += [LayerSpec("dense", dw, db), LayerSpec("relu")]
        n = width
    dw = kaiming_uniform(rng, (n_classes, n), n)
    db = np.zeros(n_classes, dtype=np.float32)
    layers += [LayerSpec("dense", dw, db), LayerSpec("softmax")]
    net = Network(tuple(input_shape), layers)
    net.infer_shapes()
    return net


def reference_cnn(seed=0):
    """The stock six-conv architecture used across the pipeline.

    Grayscale 32x32 input; three conv blocks of two 3x3 same-pad convs each,
    2x2 pooling between blocks; 64-wide hidden dense layer; 2 classes. The
    last conv has 32 filters, which is the set the pruner operates on.
    """
    plan = [
        (16, 3, 1, False),
        (16, 3, 1, True),
        (32, 3, 1, False),
        (32, 3, 1, True),
        (32, 3, 1, False),
        (32, 3, 1, True),
    ]
    return build_cnn((1, 32, 32), plan, [64], 2, seed=seed)
