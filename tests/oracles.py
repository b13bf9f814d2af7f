"""Slow, obviously-correct reference implementations used as oracles.

Everything here is written the dumb way on purpose: quadruple loops,
two-pass statistics, exhaustive searches. The im2col / col2im conv kernels,
the per-layer magnitude mask, the per-neuron dependency pooling and the
re-masking SGD epoch are the package's earlier implementations, kept as
references for the ones that replaced them, and so are the spread @ cols.T
weight gradient, the row-run unroll into a fresh zero grid and the SMO
that masks g afresh on every step. Nothing from the package under test is
imported.
"""

import math

import numpy as np


def conv2d_loops(x, kernel, bias, stride=1, pad=0):
    """Direct convolution, one output element at a time."""
    c, h, w = x.shape
    o, _, kh, kw = kernel.shape
    padded = np.zeros((c, h + 2 * pad, w + 2 * pad), dtype=np.float64)
    padded[:, pad:pad + h, pad:pad + w] = x
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    out = np.zeros((o, oh, ow), dtype=np.float64)
    for f in range(o):
        for i in range(oh):
            for j in range(ow):
                acc = 0.0
                for ci in range(c):
                    for u in range(kh):
                        for v in range(kw):
                            acc += (
                                padded[ci, i * stride + u, j * stride + v]
                                * kernel[f, ci, u, v]
                            )
                out[f, i, j] = acc + bias[f]
    return out


def conv2d_weight_grad_loops(x, gout, kh, kw, stride=1, pad=0):
    """d<conv(x, k), gout>/dk, accumulated one output element at a time."""
    c, h, w = x.shape
    o, oh, ow = gout.shape
    padded = np.zeros((c, h + 2 * pad, w + 2 * pad), dtype=np.float64)
    padded[:, pad:pad + h, pad:pad + w] = x
    dw = np.zeros((o, c, kh, kw), dtype=np.float64)
    for f in range(o):
        for i in range(oh):
            for j in range(ow):
                for ci in range(c):
                    for u in range(kh):
                        for v in range(kw):
                            dw[f, ci, u, v] += (
                                gout[f, i, j]
                                * padded[ci, i * stride + u, j * stride + v]
                            )
    return dw


def conv2d_adjoint_loops(gout, kernel, h, w, stride=1, pad=0):
    """Scatter every gout element back through the kernel onto an (h, w) input."""
    o, oh, ow = gout.shape
    _, c, kh, kw = kernel.shape
    padded = np.zeros((c, h + 2 * pad, w + 2 * pad), dtype=np.float64)
    for f in range(o):
        for i in range(oh):
            for j in range(ow):
                for ci in range(c):
                    for u in range(kh):
                        for v in range(kw):
                            padded[ci, i * stride + u, j * stride + v] += (
                                gout[f, i, j] * kernel[f, ci, u, v]
                            )
    return padded[:, pad:pad + h, pad:pad + w]


def im2col_channel_major(x, kh, kw, stride=1, pad=0):
    """(C,H,W) -> float64 (C*kh*kw, OH*OW): row (c, i, j) holds tap (i, j)
    of channel c for every output position, copied from a strided view."""
    c, h, w = x.shape
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    padded = np.zeros((c, h + 2 * pad, w + 2 * pad), dtype=np.float64)
    padded[:, pad:pad + h, pad:pad + w] = x
    sc, sh, sw = padded.strides
    view = np.lib.stride_tricks.as_strided(
        padded, shape=(c, kh, kw, oh, ow),
        strides=(sc, sh, sw, sh * stride, sw * stride), writeable=False)
    return view.reshape(c * kh * kw, oh * ow), oh, ow


def conv2d_im2col(x, kernel, bias, stride=1, pad=0):
    """Convolution as one GEMM over the channel-major im2col matrix."""
    o, c, kh, kw = kernel.shape
    cols, oh, ow = im2col_channel_major(x, kh, kw, stride, pad)
    out = kernel.reshape(o, c * kh * kw).astype(np.float64) @ cols
    out += np.asarray(bias, dtype=np.float64)[:, None]
    return out.reshape(o, oh, ow)


def conv2d_param_grads_im2col(x, gout, kh, kw, stride=1, pad=0):
    """Weight and bias gradients as GEMMs over the channel-major im2col matrix."""
    c = x.shape[0]
    o = gout.shape[0]
    cols, oh, ow = im2col_channel_major(x, kh, kw, stride, pad)
    g2 = gout.reshape(o, oh * ow).astype(np.float64)
    return (g2 @ cols.T).reshape(o, c, kh, kw), g2.sum(axis=1)


def conv2d_weight_grad_spread(x, gout, kh, kw, stride=1, pad=0):
    """The weight gradient as spread @ cols.T, in x's dtype: cols is the
    row-run unroll (row (c, i, j) runs through the zero-padded map from tap
    (i, j) by the stride, OH*Wp columns), spread is gout set onto the same
    (OH, Wp) layout with zeros in the columns past OW."""
    c, h, w = x.shape
    o, oh, ow = gout.shape
    hp, wp = h + 2 * pad, w + 2 * pad
    n = oh * wp
    last = (kh - 1) * wp + (kw - 1) + stride * (n - 1)  # furthest cell read
    grid = np.zeros((c, max(hp, last // wp + 1) * wp), dtype=x.dtype)
    grid.reshape(c, -1, wp)[:, pad:pad + h, pad:pad + w] = x
    cols = np.array([grid[ci, i * wp + j:i * wp + j + stride * (n - 1) + 1:stride]
                     for ci in range(c) for i in range(kh) for j in range(kw)])
    spread = np.zeros((o, oh, wp), dtype=x.dtype)
    spread[:, :, :ow] = gout
    return (spread.reshape(o, n) @ cols.T).reshape(o, c, kh, kw)


def unroll_fresh(x, kh, kw, stride, hp, wp, rows, cols):
    """The row-run unroll into a fresh zero (C, depth, wp) grid of x's dtype,
    x set at [:, rows, cols]: (C*kh*kw, oh*wp), row (c, i, j) running from
    tap (i, j) of channel c by the stride, with zero rows of slack below."""
    c = x.shape[0]
    oh = (hp - kh) // stride + 1
    n = oh * wp
    depth = max(hp, -(-((kh - 1) * wp + kw + stride * (n - 1)) // wp))
    grid = np.zeros((c, depth, wp), x.dtype)
    grid[:, rows, cols] = x
    item = grid.itemsize
    runs = np.ndarray((c, kh, kw, n), grid.dtype, grid, 0,
                      (depth * wp * item, wp * item, item, stride * item))
    return runs.reshape(c * kh * kw, n)


def conv2d_adjoint_col2im(gout, kernel, h, w, stride=1, pad=0):
    """Adjoint as kernel.T @ gout, scattered back with one strided add per tap."""
    o, oh, ow = gout.shape
    _, c, kh, kw = kernel.shape
    g2 = gout.reshape(o, oh * ow).astype(np.float64)
    k2 = kernel.reshape(o, c * kh * kw).astype(np.float64)
    cols = (k2.T @ g2).reshape(c, kh, kw, oh, ow)
    padded = np.zeros((c, h + 2 * pad, w + 2 * pad), dtype=np.float64)
    for i in range(kh):
        for j in range(kw):
            padded[:, i:i + (oh - 1) * stride + 1:stride,
                   j:j + (ow - 1) * stride + 1:stride] += cols[:, i, j]
    return padded[:, pad:pad + h, pad:pad + w]


def maxpool_loops(x, window=2, stride=2):
    """Max pooling with first-occurrence (row-major) argmax ties.

    Like numpy argmax, a NaN beats every number and the first NaN wins.
    """
    c, h, w = x.shape
    oh = (h - window) // stride + 1
    ow = (w - window) // stride + 1
    out = np.zeros((c, oh, ow), dtype=x.dtype)
    idx = np.zeros((c, oh, ow), dtype=np.int64)
    for ci in range(c):
        for i in range(oh):
            for j in range(ow):
                best = -np.inf
                best_flat = -1
                for u in range(window):
                    for v in range(window):
                        y, z = i * stride + u, j * stride + v
                        val = x[ci, y, z]
                        if (best_flat < 0 or val > best
                                or (np.isnan(val) and not np.isnan(best))):
                            best = val
                            best_flat = ci * h * w + y * w + z
                out[ci, i, j] = best
                idx[ci, i, j] = best_flat
    return out, idx


def two_pass_column_stats(values, labels):
    """Within/between variances per column, computed the textbook way.

    Returns raw scatter sums (not normalized), matching a per-class
    deviation accumulation done one sample at a time.
    """
    n, d = values.shape
    mu = values.mean(axis=0)
    s2w = np.zeros(d)
    s2b = np.zeros(d)
    for lbl in np.unique(labels):
        rows = values[labels == lbl]
        mu_i = rows.mean(axis=0)
        for r in rows:
            s2w += (r - mu_i) ** 2
        s2b += len(rows) * (mu_i - mu) ** 2
    return s2w, s2b


def scatter_loops(values, labels):
    """Full within/between scatter matrices via explicit outer products."""
    n, d = values.shape
    mu = values.mean(axis=0)
    sw = np.zeros((d, d))
    sb = np.zeros((d, d))
    for lbl in np.unique(labels):
        rows = values[labels == lbl]
        mu_i = rows.mean(axis=0)
        for r in rows:
            dev = r - mu_i
            sw += np.outer(dev, dev)
        diff = mu_i - mu
        sb += len(rows) * np.outer(diff, diff)
    return sw, sb


def central_difference_grads(loss_fn, params, eps=1e-5):
    """Central-difference gradient of a scalar function of one array."""
    grad = np.zeros_like(params, dtype=np.float64)
    flat = params.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = loss_fn()
        flat[i] = orig - eps
        lo = loss_fn()
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * eps)
    return grad


def svm_lattice_search(features, labels, c, w_range, b_range, steps):
    """Exhaustive grid minimization of the primal hinge objective in 2-D."""
    best = np.inf
    grid = np.linspace(-w_range, w_range, steps)
    bgrid = np.linspace(-b_range, b_range, steps)
    for w0 in grid:
        for w1 in grid:
            for b in bgrid:
                margins = labels * (features[:, 0] * w0 + features[:, 1] * w1 + b)
                hinge = np.maximum(0.0, 1.0 - margins).sum()
                obj = 0.5 * (w0 * w0 + w1 * w1) + c * hinge
                if obj < best:
                    best = obj
    return best


def head_labels_loops(model, rows):
    """0/1 labels of a fitted QDA or SVM head, one row and one class at a time.

    The package's earlier per-row prediction path: QDA takes the larger of
    log prior - logdet/2 - |L^-1 (x - mu)|^2 / 2; an SVM takes the sign of
    w.x + b, or of sum_i alpha_i y_i exp(-gamma |sv_i - x|^2) + b, with a
    decision of exactly 0 giving class 1. `model` is read by attribute only.
    """
    labels = []
    for x in np.asarray(rows, dtype=np.float64):
        if hasattr(model, "chol"):
            scores = []
            for cls in (0, 1):
                z = np.linalg.solve(model.chol[cls], x - model.means[cls])
                scores.append(model.logprior[cls] - 0.5 * model.logdet[cls]
                              - 0.5 * float(z @ z))
            labels.append(int(scores[1] > scores[0]))
            continue
        if model.kind == "svml":
            decision = float(model.w @ x) + model.b
        else:
            decision = model.b
            for sv, y, a in zip(model.sv_x, model.sv_y, model.alpha):
                decision += a * y * np.exp(-model.gamma * ((sv - x) ** 2).sum())
        labels.append(1 if decision >= 0.0 else 0)
    return labels


def svm_kkt_violations(model, features, labels, tol):
    """Indices of the training rows of a fitted RBF SVM whose margin y*f(x)
    breaks its dual KKT condition by more than tol, one row at a time:
    alpha = 0 needs y*f >= 1, 0 < alpha < c needs y*f = 1 and alpha = c
    needs y*f <= 1. A row's alpha is that of the support vector with the
    same bytes, or 0 when it is none; `model` is read by attribute only."""
    alpha_of = {sv.tobytes(): a for sv, a in zip(model.sv_x, model.alpha)}
    assert len(alpha_of) == len(model.alpha), "support vectors must be distinct"
    bad = []
    for i, (x, y) in enumerate(zip(np.asarray(features, dtype=np.float64),
                                   np.asarray(labels, dtype=np.float64))):
        kernel = np.exp(-model.gamma * ((model.sv_x - x) ** 2).sum(axis=1))
        f = model.b + (model.alpha * model.sv_y * kernel).sum()
        margin, alpha = y * f, alpha_of.get(x.tobytes(), 0.0)
        if alpha == 0.0:
            ok = margin >= 1.0 - tol
        elif alpha < model.c:
            ok = abs(margin - 1.0) <= tol
        else:
            ok = margin <= 1.0 + tol
        if not ok:
            bad.append(i)
    return bad


def rbf_kernel_expression(a, b, gamma):
    """The RBF kernel as the package's earlier one-line expression: three
    (n, m) float64 arrays live at once."""
    aa = (a * a).sum(axis=1)[:, None]
    bb = (b * b).sum(axis=1)[None, :]
    d2 = aa + bb - 2.0 * (a @ b.T)
    return np.exp(-gamma * np.maximum(d2, 0.0))


def deconv_walk_every_layer(net, rec, neuron, reverse):
    """The package's earlier neuron walk: (maps, dead).

    The start peak is read from the relu layer after the last conv when
    there is one, so `rec` must hold it. The reverse walk runs also for a
    dead neuron, whose all-zero start tensor is carried down the whole
    stack. `reverse(net, rec, start, signal, mirror=True)` is the reverse
    layer walk under test; `net` and `rec` are read by attribute only.
    """
    last = max(i for i, layer in enumerate(net.layers) if layer.kind == "conv")
    act = rec.activations[last + 1] if (
        last + 1 < len(net.layers) and net.layers[last + 1].kind == "relu"
    ) else np.maximum(rec.activations[last], 0)
    chan = act[neuron]
    peak = float(chan.max())
    cur = np.zeros_like(rec.activations[last])
    dead = peak <= 0.0
    if not dead:
        cur[neuron].ravel()[int(chan.argmax())] = peak
    return dict(reverse(net, rec, last, cur, mirror=True)), dead


def deconv_walk_loops(net, rec, neuron):
    """A neuron's deconvnet walk, one layer and one cell at a time: (maps, pixel).

    The start map is zero except the neuron's largest rectified activation
    at its first (row-major) position. Conv scatters back through its kernel
    (conv2d_adjoint_loops), relu rectifies, and max-pool adds each pooled
    cell, in row-major order, to its window's first argmax (maxpool_loops),
    so where overlapping windows share a winner their values sum. `net`
    and `rec` are read by attribute only.
    """
    last = max(i for i, layer in enumerate(net.layers) if layer.kind == "conv")
    chan = np.maximum(rec.activations[last][neuron], 0)
    cur = np.zeros(rec.activations[last].shape)
    cur[neuron].flat[int(chan.argmax())] = chan.max()
    maps = {}
    for i in range(last, -1, -1):
        maps[i] = cur
        layer = net.layers[i]
        below = rec.activations[i - 1] if i > 0 else rec.input
        if layer.kind == "conv":
            cur = conv2d_adjoint_loops(cur, layer.weights, *below.shape[1:],
                                       stride=layer.stride, pad=layer.pad)
        elif layer.kind == "relu":
            cur = np.maximum(cur, 0.0)
        else:
            _, switches = maxpool_loops(below, layer.window, layer.stride)
            up = np.zeros(below.size)
            for value, at in zip(cur.ravel(), switches.ravel()):
                up[at] += value
            cur = up.reshape(below.shape)
    return maps, cur


def magnitude_mask_per_layer(net, rate):
    """The package's earlier magnitude mask, built layer by layer: one
    all-ones mask per conv weight array, then the ceil(rate * total)
    smallest magnitudes (stable order) zeroed and copied out per layer.
    `net` is read by attribute only; the rate is not checked."""
    conv_idx = net.conv_indices()
    mags = np.concatenate([np.abs(net.layers[i].weights).ravel() for i in conv_idx])
    total = mags.size
    n_zero = math.ceil(rate * total)
    masks = {i: np.ones_like(net.layers[i].weights) for i in conv_idx}
    if n_zero == 0:
        return masks
    cut = np.argsort(mags, kind="stable")[:n_zero]
    flat = np.ones(total, dtype=np.float32)
    flat[cut] = 0.0
    pos = 0
    for i in conv_idx:
        n = net.layers[i].weights.size
        masks[i] = flat[pos:pos + n].reshape(net.layers[i].weights.shape).copy()
        pos += n
    return masks


def _layer_contrib(dmap, conv_layers):
    """Per-layer normalized L1 channel energy of one walk's reconstructions."""
    out = {}
    for li in conv_layers:
        m = dmap.maps[li]
        energy = np.abs(m).reshape(m.shape[0], -1).sum(axis=1)
        top = energy.max()
        out[li] = energy / top if top > 0 else np.zeros_like(energy)
    return out


def dependency_scores_per_neuron(net, images, selected, forward,
                                 deconv_from_neuron):
    """The package's earlier dependency pooling: (scores, dead layers).

    One dict of per-layer sums per neuron, seeded by its first walk and
    added to walk by walk; then per layer the per-neuron means are stacked
    and their max taken. `forward(net, image, record=True)` and
    `deconv_from_neuron(net, rec, neuron)` are the package's functions.
    """
    selected = np.asarray(selected, dtype=np.int64).ravel()
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
    return scores, dead


def masked_sgd_epoch_remasking(net, images, labels, order, lr, velocity,
                               grad_mask, grads_of, momentum, weight_decay):
    """The package's earlier masked SGD epoch: momentum and weight decay in
    the same float32 order, the masked gradient entries dropped, and the
    weights multiplied by their mask again after every update.
    `grads_of(net, image, label)` returns {layer index: (dw, db)}."""
    for idx in order:
        for li, (dw, db) in grads_of(net, images[idx], int(labels[idx])).items():
            layer = net.layers[li]
            if li in grad_mask:
                dw = dw * grad_mask[li]
            if li not in velocity:
                velocity[li] = (np.zeros_like(layer.weights),
                                np.zeros_like(layer.bias))
            vw, vb = velocity[li]
            step = weight_decay * layer.weights
            step += dw
            step *= lr
            vw *= momentum
            vw -= step
            vb *= momentum
            vb -= lr * db
            layer.weights += vw
            layer.bias += vb
            if li in grad_mask:
                layer.weights *= grad_mask[li]


def svm_objective(w, b, features, labels, c=1.0):
    """0.5*|w|^2 + c * sum of hinge losses: the linear SVM's primal objective."""
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64).ravel()
    hinge = np.maximum(0.0, 1.0 - y * (x @ w + float(b)))
    return float(0.5 * (w @ w) + c * hinge.sum())


def _ellipse(rng, size):
    cy = size / 2 + rng.uniform(-2, 2)
    cx = size / 2 + rng.uniform(-2, 2)
    ry = size * rng.uniform(0.22, 0.34)
    rx = size * rng.uniform(0.22, 0.34)
    ys = np.arange(size)[:, None]
    xs = np.arange(size)[None, :]
    mask = ((ys - cy) / ry) ** 2 + ((xs - cx) / rx) ** 2 <= 1.0
    return mask, rng.uniform(0.35, 0.5)


def _synthesize(rng, size, label):
    img = np.zeros((size, size), dtype=np.float64)
    mask, level = _ellipse(rng, size)
    img[mask] = level
    n_strokes = int(rng.integers(2, 5))
    for _ in range(n_strokes):
        pos = int(rng.integers(2, size - 2))
        thick = int(rng.integers(1, 3))
        lo = int(rng.integers(0, size // 3))
        hi = int(rng.integers(2 * size // 3, size))
        bright = rng.uniform(0.85, 1.0)
        if label == 0:
            img[pos:pos + thick, lo:hi] = bright
        else:
            img[lo:hi, pos:pos + thick] = bright
    img += rng.normal(0.0, 0.05, size=(size, size))
    np.clip(img, 0.0, 1.0, out=img)
    return img.astype(np.float32)


def synthetic_per_image(n_per_class, size, seed):
    """The synthetic task drawn one image at a time with numpy's uniform and
    normal: (train, test) lists of (id, label, float32 (size, size) image),
    class 0 first, the first 80% of each class (at least two) in train."""
    rng = np.random.default_rng(seed)
    n_train = max(min(2, n_per_class), int(n_per_class * 0.8))
    train, test = [], []
    per_class = {label: [(f"c{label}-{i:04d}", label, _synthesize(rng, size, label))
                         for i in range(n_per_class)] for label in (0, 1)}
    for label in (0, 1):
        train.extend(per_class[label][:n_train])
        test.extend(per_class[label][n_train:])
    return train, test


def smo_masked(y, c, kdiag, pair, tol, budget):
    """The maximal-violating-pair SMO with both masked copies of g made
    afresh on every step: (a, b, steps, converged), no warning."""
    n = y.shape[0]
    lo, hi = np.minimum(0.0, c * y), np.maximum(0.0, c * y)
    a, g, steps = np.zeros(n), y.copy(), 0
    while True:
        i = int(np.argmax(np.where(a < hi, g, -np.inf)))
        j = int(np.argmin(np.where(a > lo, g, np.inf)))
        gap = g[i] - g[j]
        converged = bool(gap <= tol)
        if converged or steps == budget * n:
            return a, float((g[i] + g[j]) / 2.0), steps, converged
        room_i, room_j = hi[i] - a[i], a[j] - lo[j]
        k_diff, k_ij = pair(i, j)
        curv = max(kdiag[i] + kdiag[j] - 2.0 * k_ij, 1e-12)
        lam = min(gap / curv, room_i, room_j)
        a[i] = hi[i] if lam == room_i else a[i] + lam
        a[j] = lo[j] if lam == room_j else a[j] - lam
        g -= lam * k_diff
        steps += 1
