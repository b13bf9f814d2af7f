"""Layer primitives for the inference engine.

All ops are pure functions on plain ndarrays: feature maps are (C,H,W),
conv kernels (O,C,kh,kw), dense weights (m,n). Dot products accumulate in
float64 and results are cast back to the input dtype, so float32 models
produce reproducible sums. Convolutions unroll their input channel-major:
the im2col matrix is (C*kh*kw, OH*OW), row (c, i, j) holding the input
pixel under kernel tap (i, j) of channel c for every output position in
row-major order. With the kernel flattened to (O, C*kh*kw), the forward
pass is one GEMM whose result is already (O, OH, OW), and the weight
gradient and the adjoint are GEMMs on the same layout with no transposing
copies.

Max-pooling returns the winning flat input index per output cell
("switches"). The winner is the first cell in window scan order (row-major)
that holds the window maximum, and a window containing NaN pools to NaN
with its first NaN as the winner; this is exactly numpy argmax over the
flattened window.
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ConfigurationError, DimensionError, NonFiniteError


def conv_output_hw(h, w, kh, kw, stride, pad):
    """Spatial output extents of a conv/pool window sweep."""
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    return oh, ow


def _window_views(x, kh, kw, stride, oh, ow):
    """Strided view (C, kh, kw, OH, OW): [c, i, j] is tap (i, j) at every output."""
    sc, sh, sw = x.strides
    return as_strided(
        x,
        shape=(x.shape[0], kh, kw, oh, ow),
        strides=(sc, sh, sw, sh * stride, sw * stride),
        writeable=False,
    )


def _im2col(x, kh, kw, stride, pad):
    """(C,H,W) -> float64 matrix (C*kh*kw, OH*OW) of window contents."""
    c, h, w = x.shape
    oh, ow = conv_output_hw(h, w, kh, kw, stride, pad)
    xp = np.zeros((c, h + 2 * pad, w + 2 * pad), dtype=np.float64)
    xp[:, pad:pad + h, pad:pad + w] = x
    cols = _window_views(xp, kh, kw, stride, oh, ow).reshape(c * kh * kw, oh * ow)
    return cols, oh, ow


def conv2d_forward(input, kernel, bias, stride=1, pad=0):
    """2-D cross-correlation with zero padding.

    out[o,y,x] = bias[o] + sum_{c,i,j} input[c, y*stride+i-pad, x*stride+j-pad]
                 * kernel[o,c,i,j], reading zero outside the input bounds.
    """
    if input.ndim != 3:
        raise DimensionError(f"conv input must be (C,H,W), got {input.shape}")
    if kernel.ndim != 4:
        raise DimensionError(f"conv kernel must be (O,C,kh,kw), got {kernel.shape}")
    c, h, w = input.shape
    o, kc, kh, kw = kernel.shape
    if kc != c:
        raise DimensionError(
            f"kernel expects {kc} input channels, feature map has {c}"
        )
    b = np.asarray(bias, dtype=np.float64).reshape(-1)
    if b.shape[0] != o:
        raise DimensionError(f"bias length {b.shape[0]} != out channels {o}")
    if stride < 1:
        raise ConfigurationError(f"stride must be >= 1, got {stride}")
    if pad < 0:
        raise ConfigurationError(f"pad must be >= 0, got {pad}")
    oh, ow = conv_output_hw(h, w, kh, kw, stride, pad)
    if oh < 1 or ow < 1:
        raise ConfigurationError(
            f"conv of {h}x{w} with kernel {kh}x{kw} stride {stride} pad {pad} "
            f"produces empty output {oh}x{ow}"
        )
    cols, _, _ = _im2col(input, kh, kw, stride, pad)
    k2 = kernel.reshape(o, c * kh * kw).astype(np.float64)
    out = k2 @ cols
    out += b[:, None]
    return out.reshape(o, oh, ow).astype(input.dtype)


def conv2d_adjoint(gout, kernel, stride=1, pad=0, out_hw=None):
    """Exact adjoint (transposed conv) of bias-free conv2d_forward.

    gout: (O,OH,OW); kernel: (O,C,kh,kw) -> (C,H,W). For every x, y:
    <conv(x), y> == <x, adjoint(y)>. When the forward floor division dropped
    trailing rows/cols, pass the original (H,W) as out_hw.
    """
    gout = np.asarray(gout)
    kern = np.asarray(kernel)
    if gout.ndim != 3 or kern.ndim != 4:
        raise DimensionError("need (O,H,W) signal and (O,C,kh,kw) kernel")
    o, oh, ow = gout.shape
    ko, c, kh, kw = kern.shape
    if ko != o:
        raise DimensionError(f"signal has {o} channels, kernel produces {ko}")
    if out_hw is None:
        h = (oh - 1) * stride + kh - 2 * pad
        w = (ow - 1) * stride + kw - 2 * pad
    else:
        h, w = out_hw
        eh, ew = conv_output_hw(h, w, kh, kw, stride, pad)
        if (eh, ew) != (oh, ow):
            raise DimensionError(
                f"forward of {h}x{w} would give {eh}x{ew}, signal is {oh}x{ow}"
            )
    if h < 1 or w < 1:
        raise DimensionError(f"adjoint output {h}x{w} is empty")
    g2 = gout.reshape(o, oh * ow).astype(np.float64)
    k2 = kern.reshape(o, c * kh * kw).astype(np.float64)
    cols = (k2.T @ g2).reshape(c, kh, kw, oh, ow)
    xp = np.zeros((c, h + 2 * pad, w + 2 * pad), dtype=np.float64)
    for i in range(kh):
        for j in range(kw):
            xp[:, i:i + (oh - 1) * stride + 1:stride,
               j:j + (ow - 1) * stride + 1:stride] += cols[:, i, j]
    out = xp[:, pad:pad + h, pad:pad + w]
    return out.astype(gout.dtype)


def conv2d_param_grads(x, gout, kh, kw, stride=1, pad=0):
    """Weight and bias gradients for conv2d_forward."""
    c = x.shape[0]
    o = gout.shape[0]
    cols, oh, ow = _im2col(x, kh, kw, stride, pad)
    g2 = gout.reshape(o, oh * ow).astype(np.float64)
    dw = (g2 @ cols.T).reshape(o, c, kh, kw)
    db = g2.sum(axis=1)
    return dw.astype(x.dtype), db.astype(x.dtype)


def relu_forward(input):
    return np.maximum(input, 0)


@functools.lru_cache(maxsize=64)
def _pool_index(c, h, w, window, stride):
    """Read-only index tables for the switches of one pool geometry.

    base[c, y, x] is the flat input index of window (y, x)'s top-left cell,
    offset[t] the flat step from there to tap t in scan order, and
    rank[t] = window*window - t, so the largest rank among hits marks the
    first hit.
    """
    oh, ow = conv_output_hw(h, w, window, window, stride, 0)
    base = (np.arange(c)[:, None, None] * (h * w)
            + np.arange(oh)[None, :, None] * (stride * w)
            + np.arange(ow)[None, None, :] * stride)
    taps = np.arange(window * window)
    offset = (taps // window) * w + taps % window
    rank = (taps.size - taps).astype(np.min_scalar_type(taps.size))
    for table in (base, offset, rank):
        table.flags.writeable = False
    return base, offset, rank


def maxpool_forward(input, window, stride):
    """Max-pool each channel; also return the winning flat input indices.

    Switches are flat indices into the full (C,H,W) input; ties break to the
    first tap in window scan order, and a window holding NaN pools to NaN
    with its first NaN as the switch (numpy argmax semantics).
    """
    if input.ndim != 3:
        raise DimensionError(f"pool input must be (C,H,W), got {input.shape}")
    c, h, w = input.shape
    if window > h or window > w:
        raise ConfigurationError(f"pool window {window} exceeds input {h}x{w}")
    if window < 1 or stride < 1:
        raise ConfigurationError("pool window and stride must be >= 1")
    oh, ow = conv_output_hw(h, w, window, window, stride, 0)
    if oh < 1 or ow < 1:
        raise ConfigurationError("pooling produces empty output")
    k = window * window
    taps = _window_views(input, window, window, stride, oh, ow).transpose(
        1, 2, 0, 3, 4).reshape(k, c, oh, ow)
    base, offset, rank = _pool_index(c, h, w, window, stride)
    hit = taps == taps.max(axis=0)  # the max propagates NaN
    hit |= taps != taps  # so a NaN tap is a hit exactly in NaN windows
    first = k - (hit * rank[:, None, None, None]).max(axis=0)
    switches = base + offset[first]
    return input.take(switches), switches


def dense_forward(input, weights, bias):
    """Affine map W @ x + b on a rank-1 input."""
    if input.ndim != 1:
        raise DimensionError(f"dense input must be a vector, got {input.shape}")
    if weights.ndim != 2:
        raise DimensionError(f"dense weights must be (m,n), got {weights.shape}")
    m, n = weights.shape
    if input.shape[0] != n:
        raise DimensionError(f"dense expects input of {n}, got {input.shape[0]}")
    b = np.asarray(bias, dtype=np.float64).reshape(-1)
    if b.shape[0] != m:
        raise DimensionError(f"bias length {b.shape[0]} != out dim {m}")
    out = weights.astype(np.float64) @ input.astype(np.float64) + b
    return out.astype(input.dtype)


def softmax(x):
    """Numerically stable softmax (max subtraction)."""
    if x.ndim != 1:
        raise DimensionError(f"softmax input must be a vector, got {x.shape}")
    if np.isnan(x).any():
        raise NonFiniteError("softmax input contains NaN")
    z = x.astype(np.float64)
    z = z - z.max()
    e = np.exp(z)
    return (e / e.sum()).astype(x.dtype)
