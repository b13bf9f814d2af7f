"""Layer primitives for the inference engine.

All ops are pure functions on plain ndarrays: feature maps are (C,H,W),
conv kernels (O,C,kh,kw), dense weights (m,n). Every GEMM accumulates in
the dtype of its input map (float32 or float64; any other dtype is a
ConfigurationError): kernel, weights and bias are cast to it, so a float32
net runs float32 GEMMs end to end, while float64 inputs (finite
differences, the oracles) still accumulate in float64. The price is that
float32 sums follow the machine's BLAS sgemm kernel, so float32 artifacts
can differ in their last bits from one machine to another; reruns on one
machine stay byte-identical. conv_shape, pool_shape and dense_shape are the
one shape rule of each parametric kind: its kernels check their arguments
with it, and Network.infer_shapes reads it.

Convolutions unroll their input in row runs. The map is zero-padded into a
grid of Hp x Wp cells per channel, in its own dtype, with zero rows of
slack below. The unrolled matrix is (C*kh*kw, OH*Wp): row (c, i, j) is one
run through the grid that starts at tap (i, j) of channel c and steps by
the stride, and column y*Wp + x holds that tap for output position (y, x).
Columns with x >= OW fall off the right edge of the windows (they read on
into the next grid row, or the slack), so each kernel drops them when it
crops its result to (.., OH, OW). With the kernel flattened to
(O, C*kh*kw), the forward pass is one GEMM. The weight gradient is one GEMM
against the output gradient spread onto the same (OH, Wp) layout, with
zeros in the dropped columns. The adjoint is a stride-1 correlation of the
flipped, channel-transposed kernel with the output gradient, spread onto
the stride grid behind kh-1 and kw-1 zeros: one GEMM with inner dimension
O*kh*kw. Each kernel memoizes its geometry per argument shape (LRU of 32,
typed so 1.0 or True cannot skip the int checks on 1's entry; a failed
check is never kept). Zero grids are kept in an LRU of 16 per thread, dtype
and geometry with its fill region: each call on a key writes the same
cells, so the rest stay zero and the unroll is bitwise a fresh grid's. No
unrolled matrix (for 1x1 kernels a view of its grid) leaves its call.
A conv's GEMM output, a pool's band and a step's pooled map are views of
one scratch buffer per thread, dtype and role, grown to fit; a step fills
its grid from its input before it writes any of them, and keeps the views
it was built with. conv2d_forward and conv2d_step's steps share one body:
fill, GEMM, an optional max-pool, then bias and an optional relu in place;
dense_forward and dense_step's steps share theirs (a new array, then bias
and an optional relu in place).

A step that pools (conv, relu, max-pool) pools the GEMM output, then adds
the bias and applies the relu to the pooled map. For a finite bias the bits
are the walk's: rounding x + b and relu are monotone, relu makes every zero
+0, and NaN positions alone decide which NaN a running max returns. (With
a bias of +inf a window of -inf and 5 pools to NaN in the walk and to inf
here; model files hold finite tensors only.)

Max-pooling without switches is separable: a running max over strided
column slices of the map, then over strided row slices of that band, so a
2x2 pool is two maximum calls and copies no tap; it reads a strided map,
such as a conv step's cropped view, in place. Only when asked does it
return the winning flat input index per output cell ("switches"), from a
stack of the taps and switch tables kept in the pool's geometry memo. The
winner is the first cell in window scan order (row-major) that holds the
window maximum, and a window containing NaN pools to NaN with its first NaN
as the winner; this is exactly numpy argmax over the flattened window. The
values are the input read at the switches bit for bit (signed zeros
included); only a window holding NaNs of different payloads may pool to a
later one. unpool, the pool's one reverse rule (both reverse walks run it),
adds each pooled signal at its switch, so windows sharing a winner sum.
"""

from __future__ import annotations

import functools
import math
import threading

import numpy as np

from .errors import (ConfigurationError, DimensionError, NonFiniteError, is_int,
                     require_int)


def conv_output_hw(h, w, kh, kw, stride, pad):
    """Spatial output extents of a conv/pool window sweep."""
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    return oh, ow


def _span(top, spread, n, size):
    """(source slice, grid (start, stop, step)) for n cells set at top +
    spread*k on a size-cell axis; cells that would land off it are dropped."""
    lo = max(0, -(top // spread))
    hi = max(lo, min(n, -((top - size) // spread)))
    return slice(lo, hi), (top + spread * lo, top + spread * hi, spread)


def _accumulator(dtype):
    """The dtype a kernel accumulates inputs of dtype in: float32 or float64."""
    if dtype not in (np.float32, np.float64):
        raise ConfigurationError(
            f"kernel input must be float32 or float64, got {dtype}")
    return dtype


@functools.lru_cache(maxsize=16, typed=True)
def _kept_grid(thread, dtype, c, kh, kw, stride, hp, wp, *fill):
    """_unroll's zero grid, keyed by thread too: fill cells, run view, shape."""
    n = ((hp - kh) // stride + 1) * wp
    depth = max(hp, -(-((kh - 1) * wp + kw + stride * (n - 1)) // wp))
    grid = np.zeros((c, depth, wp), dtype)
    cells = grid[:, slice(*fill[:3]), slice(*fill[3:])]
    runs = np.ndarray((c, kh, kw, n), dtype, grid, 0,
                      grid.strides + (stride * grid.itemsize,))
    return cells, runs, (c * kh * kw, n)


@functools.lru_cache(maxsize=16, typed=True)
def _arena(thread, dtype, role):
    return [np.empty(0, dtype)]


def _scratch(dtype, shape, role):
    """A view of the calling thread's scratch buffer for role (a GEMM output,
    a pool's band or a pooled map), which grows to fit: one per role serves
    every conv."""
    held, n = _arena(threading.get_ident(), dtype, role), math.prod(shape)
    if held[0].size < n:
        held[0] = np.empty(n, dtype)
    return held[0][:n].reshape(shape)


def _unroll(x, geometry):
    """Row-run unroll of x set into a zero (C, hp, wp) grid of x's dtype.

    geometry is (C, kh, kw, stride, hp, wp) and the (start, stop, step) of
    the rows, then the columns, that x fills. Returns the (C*kh*kw, oh*wp)
    matrix, oh = (hp - kh) // stride + 1, whose row (c, i, j) holds cell
    (y*stride + i, z*stride + j) of channel c at column y*wp + z. Columns
    with z past the last window read on into the next row; callers drop
    them. Zero rows below each channel's grid hold the tail of its runs.
    The grid is kept per thread, dtype and geometry, fill included (LRU of
    16): every call on one key writes the same cells, so the rest stay zero.
    """
    cells, runs, shape = _kept_grid(threading.get_ident(), x.dtype, *geometry)
    cells[...] = x
    return runs.reshape(shape)


def conv_shape(shape, kernel_shape, stride, pad):
    """(O,OH,OW) of a conv over a (C,H,W) input, or the conv kernels' error."""
    if len(shape) != 3:
        raise DimensionError(f"conv input must be (C,H,W), got {shape}")
    if len(kernel_shape) != 4:
        raise DimensionError(f"conv kernel must be (O,C,kh,kw), got {kernel_shape}")
    if not all(is_int(s) and s >= 1 for s in shape):
        raise DimensionError(f"conv input extents must be >= 1 and ints, got {shape}")
    c, h, w = shape
    o, kc, kh, kw = kernel_shape
    if kc != c:
        raise DimensionError(f"kernel expects {kc} input channels, feature map has {c}")
    require_int("kernel height", kh, 1)
    require_int("kernel width", kw, 1)
    require_int("stride", stride, 1)
    require_int("pad", pad, 0)
    oh, ow = conv_output_hw(h, w, kh, kw, stride, pad)
    if oh < 1 or ow < 1:
        raise ConfigurationError(
            f"conv of {h}x{w} with kernel {kh}x{kw} stride {stride} pad {pad} "
            f"produces empty output {oh}x{ow}"
        )
    return (o, oh, ow)


@functools.lru_cache(maxsize=32, typed=True)
def _conv_geometry(shape, stride, pad, *kernel_shape):
    """conv_shape's (O, OH, OW), flat kernel shape, Wp and input unroll
    geometry; the kernel dims come one by one so that their types key it."""
    o, oh, ow = conv_shape(shape, kernel_shape, stride, pad)
    c, h, w = shape
    kh, kw = kernel_shape[2:]
    wp = w + 2 * pad
    return (o, oh, ow, (o, c * kh * kw), wp, (c, kh, kw, stride, h + 2 * pad,
            wp, pad, pad + h, None, pad, pad + w, None))


def _conv_args(shape, dtype, kernel, bias, stride, pad):
    """conv2d_forward's checks, then _conv's kernel and bias column in dtype,
    kept grid cells and runs, unrolled shape, kept GEMM output and its crop."""
    o, oh, ow, flat, wp, grid = _conv_geometry(shape, stride, pad, *kernel.shape)
    _accumulator(dtype)
    b = np.asarray(bias, dtype=dtype).reshape(-1)
    if b.shape[0] != o:
        raise DimensionError(f"bias length {b.shape[0]} != out channels {o}")
    out = _scratch(dtype, (o, oh * wp), "gemm")
    return (kernel.reshape(flat).astype(dtype, copy=False), b[:, None],
            *_kept_grid(threading.get_ident(), dtype, *grid), out,
            out.reshape(o, oh, wp)[:, :, :ow])


def _conv(kernel, bias, cells, runs, unrolled, out, calls, y, res, relu, x):
    """The conv body: fill, GEMM into out, a max-pool's calls into res, then
    bias and relu in place on y (out, or res as a matrix); returns res."""
    cells[...] = x
    np.matmul(kernel, runs.reshape(unrolled), out=out)
    for a, b, o in calls:
        np.maximum(a, b, out=o)
    np.add(y, bias, out=y)
    if relu:
        np.maximum(y, 0, out=y)
    return res


def conv2d_forward(input, kernel, bias, stride=1, pad=0):
    """2-D cross-correlation with zero padding.

    out[o,y,x] = bias[o] + sum_{c,i,j} input[c, y*stride+i-pad, x*stride+j-pad]
                 * kernel[o,c,i,j], reading zero outside the input bounds.
    """
    *args, crop = _conv_args(input.shape, input.dtype, kernel, bias, stride, pad)
    return _conv(*args, (), args[-1], crop, False, input).copy()


def conv2d_step(shape, dtype, kernel, bias, stride=1, pad=0, relu=False, pool=None):
    """conv2d_forward's checks for maps of this shape and dtype (and the
    max-pool's for pool=(window, stride)), run now, and step(x): its bits,
    then a relu if asked, then (after a relu only) that pool, as a view of
    the calling thread's scratch buffers. It reads kernel and bias through
    views, or casts them on every call, so it sees them change in place."""
    *args, res = _conv_args(shape, dtype, kernel, bias, stride, pad)
    calls, y = (), args[-1]
    if pool:
        crop, res = res, _scratch(dtype, _pool_geometry(res.shape, *pool)[:3], "pooled")
        calls, y = _max_calls(crop, *pool, res), res.reshape(len(res), -1)
    if np.may_share_memory(args[0], kernel) and np.may_share_memory(args[1], bias):
        return functools.partial(_conv, *args, calls, y, res, relu)
    return lambda x: _conv(*_conv_args(shape, dtype, kernel, bias, stride, pad)[:2],
                           *args[2:], calls, y, res, relu, x)


@functools.lru_cache(maxsize=32, typed=True)
def _adjoint_geometry(gshape, kernel_shape, stride, pad, h, w):
    """The adjoint's shape check; its signal's cells, unroll geometry and shapes."""
    o, oh, ow = gshape
    _, c, kh, kw = kernel_shape
    want = conv_shape((c, h, w), kernel_shape, stride, pad)
    if want != gshape:
        raise DimensionError(f"forward of {h}x{w} gives {want}, signal is {gshape}")
    # input cell (u, v) sums gout[o, y, x] * kernel[o, c, u+pad-y*stride,
    # v+pad-x*stride]: gout spread onto the stride grid behind kh-1 / kw-1
    # zeros, correlated with the flipped kernel over the input window only
    hg, wg = h + kh - 1, w + kw - 1
    rs, rg = _span(kh - 1 - pad, stride, oh, hg)
    cs, cg = _span(kw - 1 - pad, stride, ow, wg)
    return ((slice(None), rs, cs), (o, kh, kw, 1, hg, wg, *rg, *cg),
            (c, o * kh * kw), (c, h, wg))


def conv2d_adjoint(gout, kernel, stride=1, pad=0, *, out_hw):
    """Exact adjoint (transposed conv) of bias-free conv2d_forward.

    gout: (O,OH,OW); kernel: (O,C,kh,kw) -> (C,H,W), (H,W) = out_hw, the
    forward's input extents (its floor division may drop trailing rows and
    cols, so they are not implied by the signal). For every x, y:
    <conv(x), y> == <x, adjoint(y)>.
    """
    gout = np.asarray(gout)
    kern = np.asarray(kernel)
    if gout.ndim != 3 or kern.ndim != 4:
        raise DimensionError("need (O,H,W) signal and (O,C,kh,kw) kernel")
    dtype = _accumulator(gout.dtype)
    h, w = out_hw
    src, grid, flat, full = _adjoint_geometry(gout.shape, kern.shape, stride, pad, h, w)
    cols = _unroll(gout[src], grid)
    flipped = np.ascontiguousarray(
        kern[:, :, ::-1, ::-1].transpose(1, 0, 2, 3), dtype=dtype)
    out = flipped.reshape(flat) @ cols
    return np.ascontiguousarray(out.reshape(full)[:, :, :w])


def conv2d_param_grads(x, gout, kh, kw, stride=1, pad=0):
    """Weight and bias gradients for conv2d_forward."""
    c, h, w = x.shape
    _, oh, ow, _, wp, grid = _conv_geometry(x.shape, stride, pad, 1, c, kh, kw)
    if gout.ndim != 3 or gout.shape[1:] != (oh, ow):
        raise DimensionError(f"gradient must be (O,{oh},{ow}), got {gout.shape}")
    o = gout.shape[0]
    dtype = _accumulator(x.dtype)
    cols = _unroll(x, grid)
    spread = np.zeros((o, oh, wp), dtype)
    spread[:, :, :ow] = gout
    # the long OH*Wp axis inner: 1.5-2x on wide layers, float32 bits unchanged
    dw = (cols @ spread.reshape(o, oh * wp).T).T.reshape(o, c, kh, kw)
    db = np.asarray(gout, dtype=dtype).reshape(o, oh * ow).sum(axis=1)
    return dw, db


def relu_forward(input):
    return np.maximum(input, 0)


def pool_shape(shape, window, stride):
    """(C,OH,OW) of a max-pool over a (C,H,W) input, or the pool kernel's
    error. No output is empty once 1 <= window <= H, W and stride >= 1."""
    if len(shape) != 3:
        raise DimensionError(f"pool input must be (C,H,W), got {shape}")
    if min(shape) < 1:
        raise DimensionError(f"pool input extents must be >= 1, got {shape}")
    require_int("pool window", window, 1)
    require_int("stride", stride, 1)
    c, h, w = shape
    if window > h or window > w:
        raise ConfigurationError(f"pool window {window} exceeds input {h}x{w}")
    return (c,) + conv_output_hw(h, w, window, window, stride, 0)


@functools.lru_cache(maxsize=32, typed=True)
def _pool_geometry(shape, window, stride):
    """pool_shape's (C, OH, OW), H, W, the extents a tap's rows and cols
    span, and read-only tables that turn window hits into switches.

    Tap t of a window (scan order) lies offset[t] = (t // window)*w +
    t % window cells past the window's top-left cell. weight[t] is span -
    offset[t], with span one past the last offset, so the largest weight
    among a window's hits marks its first hit. end[c, y, x] is the flat
    index of window (y, x)'s top-left cell plus span, so a window's switch
    is end minus its largest hit weight.
    """
    c, oh, ow = pool_shape(shape, window, stride)
    h, w = shape[1:]
    taps = np.arange(window * window)
    offset = (taps // window) * w + taps % window
    span = int(offset[-1]) + 1
    weight = (span - offset).astype(np.min_scalar_type(span)).reshape(-1, 1, 1, 1)
    end = (np.arange(c)[:, None, None] * (h * w)
           + np.arange(oh)[None, :, None] * (stride * w)
           + np.arange(ow)[None, None, :] * stride + span)
    weight.flags.writeable = end.flags.writeable = False
    return c, oh, ow, h, w, stride * (oh - 1) + 1, stride * (ow - 1) + 1, weight, end


def maxpool_forward(input, window, stride, switches=True):
    """Max-pool each channel; also return the winning flat input indices.

    Switches are flat indices into the full (C,H,W) input; ties break to
    the first tap in window scan order, and a window holding NaN pools to
    NaN with its first NaN as the switch (numpy argmax semantics). With
    switches=False they are not computed, the values (a max over each
    window's columns, then its rows) keep their bits, and (values, None) is
    returned. The values are always a new C-contiguous array.
    """
    c, oh, ow, h, w, rows, cols, weight, end = _pool_geometry(
        input.shape, window, stride)
    # on a tie np.maximum returns its second argument, so with the later tap
    # first the earlier tap wins (+0 before -0 stays +0) and out is
    # x.take(switches). numpy does not document that tie rule: it was checked
    # on x86 with numpy 2.4.6 and is platform behaviour (an IEEE maximum
    # ranks +0 over -0), so TestSwitchFreePool fails loudly where it differs
    if not switches:  # separable: the max over each window's columns, then rows
        out = np.empty((c, oh, ow), input.dtype)
        for a, b, o in _max_calls(input, window, stride, out):
            np.maximum(a, b, out=o)
        return out, None
    x = np.ascontiguousarray(input)
    item = x.itemsize
    # one contiguous tap stack, read by the max and the hits: hits on the
    # 5-D strided view instead made perfbench's train step about 19% slower
    # (3.19 -> 3.80 ms median, 8 paired runs, 2-vCPU Xeon)
    taps = np.ndarray(
        (window, window, c, oh, ow), x.dtype, x, 0,
        (w * item, item, h * w * item, stride * w * item, stride * item),
    ).reshape(window * window, c, oh, ow)
    out = taps[0].copy()
    for tap in taps[1:]:
        np.maximum(tap, out, out=out)
    hit = taps == out
    peak = out.max()  # the running max propagates NaN
    if peak != peak:  # a NaN tap is a hit exactly in NaN windows
        hit |= taps != taps
    return out, end - (hit * weight).max(axis=0)


def _max_calls(x, window, stride, out):
    """The separable max-pool of x into out as np.maximum(a, b, out=o) calls
    on views made now: over each window's columns into a scratch band, then
    over the band's rows; a window of 1 is one call that copies. The later
    tap comes first, so a tie keeps the earlier one (see maxpool_forward)."""
    c, _, ow, h, _, rows, cols, _, _ = _pool_geometry(x.shape, window, stride)
    band = _scratch(x.dtype, (c, h, ow), "band")
    calls, top = [], x[:, :, :cols:stride]
    for j in range(1, window):
        calls.append((x[:, :, j:j + cols:stride], top, band))
        top = band
    top = top[:, :rows:stride]
    for i in range(1, window):
        calls.append((band[:, i:i + rows:stride], top, out))
        top = out
    return calls or [(top, top, out)]


def unpool(pooled, switches, target_shape):
    """The max-pool's reverse rule: pooled added at its flat switches into
    zeros of target_shape in pooled's dtype, so windows sharing a winner sum
    (the adjoint of reading the input at the switches; -0.0 returns +0.0)."""
    out = np.zeros(target_shape, dtype=pooled.dtype)
    idx = np.asarray(switches).ravel()
    if idx.size != pooled.size:
        raise DimensionError(f"switch count {idx.size} != pooled size {pooled.size}")
    bad = "pool switches must be int indices within target bounds"
    # add.at refuses a switch past the end but wraps a negative one and takes
    # bools as a mask; argmin reads the switches once, without min's set-up
    if idx.dtype.kind not in "iu" or idx.size and idx[idx.argmin()] < 0:
        raise DimensionError(bad)
    try:
        np.add.at(out.reshape(-1), idx, pooled.ravel())
    except IndexError:
        raise DimensionError(bad) from None
    return out


def dense_shape(shape, weights_shape):
    """(m,) of an (m,n) dense layer over an (n,) input, or the kernel's error."""
    if len(shape) != 1:
        raise DimensionError(f"dense input must be a vector, got {shape}")
    if len(weights_shape) != 2:
        raise DimensionError(f"dense weights must be (m,n), got {weights_shape}")
    m, n = weights_shape
    if shape[0] != n:
        raise DimensionError(f"dense expects input of {n}, got {shape[0]}")
    return (m,)


def _dense_args(shape, dtype, weights, bias):
    """dense_forward's checks, then its weights and bias in dtype."""
    m, = dense_shape(shape, weights.shape)
    b = np.asarray(bias, dtype=_accumulator(dtype)).reshape(-1)
    if b.shape[0] != m:
        raise DimensionError(f"bias length {b.shape[0]} != out dim {m}")
    return weights.astype(dtype, copy=False), b


def _dense(weights, bias, relu, x):
    y = weights @ x
    y += bias
    return np.maximum(y, 0, out=y) if relu else y


def dense_forward(input, weights, bias):
    """Affine map W @ x + b on a rank-1 input."""
    return _dense(*_dense_args(input.shape, input.dtype, weights, bias), False, input)


def dense_step(shape, dtype, weights, bias, relu=False):
    """dense_forward's checks for inputs of this shape and dtype, run now,
    and step(x): its bits, then a relu if asked, in a new array. It reads
    weights and bias as conv2d_step reads kernel and bias."""
    w, b = _dense_args(shape, dtype, weights, bias)
    if np.may_share_memory(w, weights) and np.may_share_memory(b, bias):
        return functools.partial(_dense, w, b, relu)
    return lambda x: _dense(*_dense_args(shape, dtype, weights, bias), relu, x)


def softmax(x):
    """Numerically stable softmax (max subtraction)."""
    if x.ndim != 1:
        raise DimensionError(f"softmax input must be a vector, got {x.shape}")
    z = x.astype(np.float64)
    top = np.maximum.reduce(z)  # NaN exactly when x holds one
    if top != top:
        raise NonFiniteError("softmax input contains NaN")
    e = np.exp(z - top)
    return (e / np.add.reduce(e)).astype(x.dtype)
