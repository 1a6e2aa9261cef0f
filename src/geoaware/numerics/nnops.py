"""Neural-network operations on top of the tensor tape.

Each op follows the ``tensor`` module's one-closure contract: it computes its
forward values, defines one fused ``backward(g)`` closure and hands both to
``make_result``, which keeps the closure only when the result needs a
gradient; work that only the gradient needs runs inside ``backward``.  Every
backward is checked against central finite differences by the gradient-check
suite.  Ops are as coarse as their callers allow, since every op pays Python
overhead: the geometric vision projection's per-layer conv, relu and token
pooling are one op, ``conv1d_relu_pool``, over all selected layers at once,
and a trunk block's whole self-attention (q/k/v projections, masked softmax,
context and output projection) is one op, ``attention_block``.  Every
product of an activation with a shared weight, ``x [..., K] @ w [K, N]``, is
one GEMM over all leading axes on ``x.reshape(-1, K)``, forward and backward:
``matmul``, the attention projections and ``conv2d``'s im2col product.  Ops
do not check their results for NaN or Inf; see the ``tensor`` module for
where finiteness is checked.
"""

from __future__ import annotations

import math

import numpy as np

from geoaware.errors import InputError, ShapeError
from geoaware.numerics.tensor import as_tensor, make_result

# -- activations and normalization -------------------------------------------


def relu(a):
    a = as_tensor(a)
    out_vals = np.maximum(a.values, 0.0)

    def backward(g):
        a._accumulate(g * (a.values > 0.0))

    return make_result(out_vals, (a,), backward)


def layer_norm(x, gamma, beta, eps=1e-6):
    """Normalize the last axis to zero mean / unit variance, then scale-shift."""
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(f"layer_norm affine params must have shape ({d},)")
    mu = x.values.mean(axis=-1, keepdims=True)
    xc = x.values - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out_vals = xhat * gamma.values + beta.values

    def backward(g):
        if x.requires_grad:
            dxhat = g * gamma.values
            term1 = dxhat.mean(axis=-1, keepdims=True)
            term2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
            x._accumulate(inv * (dxhat - term1 - xhat * term2))
        lead = tuple(range(g.ndim - 1))
        if gamma.requires_grad:
            gamma._accumulate((g * xhat).sum(axis=lead))
        if beta.requires_grad:
            beta._accumulate(g.sum(axis=lead))

    return make_result(out_vals, (x, gamma, beta), backward)


# -- attention ---------------------------------------------------------------


def _softmax_grad(out, g):
    """Input gradient of a last-axis softmax from its output ``out`` and output gradient ``g``."""
    return out * (g - (g * out).sum(axis=-1, keepdims=True))


def attention_block(x, wq, bq, wk, bk, wv, bv, wo, bo, heads, mask):
    """Multi-head self-attention with its output projection: [B, S, H] -> [B, S, H].

    q, k and v are ``x @ w + b`` for their [H, H] weights and [H] biases,
    computed as one matmul over the concatenated weights and split into
    ``heads`` heads of width H / heads.  Scores are q k^T / sqrt(H / heads)
    plus ``mask``, a plain [S, S] additive array (not differentiated), then
    a numerically stable softmax over keys; the heads' contexts are
    concatenated and projected by ``wo``, ``bo``.  Computes in ``x``'s dtype:
    the mask is cast to it and the scale is a Python float, so float32
    inputs never promote.
    """
    x, wq, bq, wk, bk, wv, bv, wo, bo = (as_tensor(t) for t in (x, wq, bq, wk, bk, wv, bv, wo, bo))
    if x.ndim != 3:
        raise ShapeError(f"attention input must be [batch, length, width], got {x.shape}")
    b, s, h = x.shape
    if heads < 1 or h % heads:
        raise ShapeError(f"width {h} does not split into {heads} heads")
    if any(w.shape != (h, h) for w in (wq, wk, wv, wo)) or any(t.shape != (h,) for t in (bq, bk, bv, bo)):
        raise ShapeError(f"attention weights must be ({h}, {h}) and biases ({h},)")
    mask = np.asarray(mask, dtype=x.values.dtype)
    if mask.shape != (s, s):
        raise ShapeError(f"attention mask must be ({s}, {s}), got {mask.shape}")
    dh = h // heads
    scale = 1.0 / math.sqrt(dh)

    x2 = x.values.reshape(b * s, h)
    w_qkv = np.concatenate([wq.values, wk.values, wv.values], axis=1)        # [H, 3H]
    qkv = x2 @ w_qkv + np.concatenate([bq.values, bk.values, bv.values])    # [B*S, 3H]
    q, k, v = qkv.reshape(b, s, 3, heads, dh).transpose(2, 0, 3, 1, 4)     # 3 x [B, heads, S, dh]
    scores = (q @ k.transpose(0, 1, 3, 2)) * scale
    scores += mask
    att = np.exp(scores - scores.max(axis=-1, keepdims=True))
    att /= att.sum(axis=-1, keepdims=True)
    ctx = (att @ v).transpose(0, 2, 1, 3).reshape(b * s, h)
    out_vals = (ctx @ wo.values + bo.values).reshape(b, s, h)

    def backward(g):
        g2 = g.reshape(b * s, h)
        gctx = (g2 @ wo.values.T).reshape(b, s, heads, dh).transpose(0, 2, 1, 3)
        gatt = gctx @ v.transpose(0, 1, 3, 2)
        gscores = _softmax_grad(att, gatt) * scale
        gqkv = np.stack([gscores @ k, gscores.transpose(0, 1, 3, 2) @ q, att.transpose(0, 1, 3, 2) @ gctx])
        gqkv = gqkv.transpose(1, 3, 0, 2, 4).reshape(b * s, 3 * h)        # [B*S, 3H], columns q | k | v
        gw = x2.T @ gqkv
        gb = gqkv.sum(axis=0)
        grads = [
            (wq, gw[:, :h]), (wk, gw[:, h:2 * h]), (wv, gw[:, 2 * h:]),
            (bq, gb[:h]), (bk, gb[h:2 * h]), (bv, gb[2 * h:]),
            (wo, ctx.T @ g2), (bo, g2.sum(axis=0)),
        ]
        if x.requires_grad:
            grads.append((x, (gqkv @ w_qkv.T).reshape(b, s, h)))
        for t, g_t in grads:
            if t.requires_grad:
                t._accumulate(g_t)

    return make_result(out_vals, (x, wq, bq, wk, bk, wv, bv, wo, bo), backward)


# -- convolutions ------------------------------------------------------------


def _token_taps(x, k):
    """im2col over the token axis with "same" zero padding: [..., N, C] ->
    [..., N, C, k], where tap t of token n reads token n + t - k // 2."""
    n = x.shape[-2]
    cols = np.zeros(x.shape + (k,), dtype=x.dtype)
    for t in range(k):
        d = t - k // 2
        lo, hi = max(0, -d), min(n, n - d)
        cols[..., lo:hi, :, t] = x[..., lo + d : hi + d, :]
    return cols


def _token_taps_grad(gcols):
    """Adjoint of ``_token_taps``: scatter [..., N, C, k] tap gradients back
    onto the [..., N, C] input."""
    n, k = gcols.shape[-3], gcols.shape[-1]
    gx = np.zeros(gcols.shape[:-1], dtype=gcols.dtype)
    for t in range(k):
        d = t - k // 2
        lo, hi = max(0, -d), min(n, n - d)
        gx[..., lo + d : hi + d, :] += gcols[..., lo:hi, :, t]
    return gx


def conv1d_relu_pool(layers, kernels, biases):
    """Per-layer conv over tokens, relu, then the mean over tokens: [B, L * C_out].

    ``layers`` are L channels-last tensors [B, N, C_in]; ``kernels`` the L
    matching [C_out, C_in, k] kernels (k odd) and ``biases`` the L [C_out]
    biases.  Layer l's conv is a stride-1 cross-correlation (no kernel flip)
    with ``k // 2`` zeros padded on both ends of the token axis, so the
    output keeps N tokens.  The L layers run as one batched matmul, and the
    output is layer-major: columns [l * C_out, (l + 1) * C_out) are layer l.
    """
    layers = [as_tensor(t) for t in layers]
    kernels = [as_tensor(t) for t in kernels]
    biases = [as_tensor(t) for t in biases]
    if not layers or not len(layers) == len(kernels) == len(biases):
        raise ShapeError(
            f"need one kernel and one bias per layer, got {len(layers)} layers, "
            f"{len(kernels)} kernels and {len(biases)} biases"
        )
    shape = layers[0].shape
    if len(shape) != 3 or any(t.shape != shape for t in layers):
        raise ShapeError(f"layers must be [batch, tokens, channels], all of one shape, got {[t.shape for t in layers]}")
    kshape = kernels[0].shape
    if len(kshape) != 3 or kshape[1] != shape[2] or kshape[2] % 2 == 0 or any(t.shape != kshape for t in kernels):
        raise ShapeError(f"kernels must be [C_out, {shape[2]}, odd k], all of one shape, got {[t.shape for t in kernels]}")
    if any(t.shape != (kshape[0],) for t in biases):
        raise ShapeError(f"biases must all have shape ({kshape[0]},)")
    b, n, c_in = shape
    c_out, _, k = kshape
    n_layers = len(layers)

    cols = _token_taps(np.stack([t.values for t in layers]), k).reshape(n_layers, b * n, c_in * k)
    w = np.stack([t.values for t in kernels]).reshape(n_layers, c_out, c_in * k)
    act = cols @ w.transpose(0, 2, 1) + np.stack([t.values for t in biases])[:, None, :]
    np.maximum(act, 0.0, out=act)                                   # relu in place: [L, B*N, C_out]
    pooled = act.reshape(n_layers, b, n, c_out).mean(axis=2)        # [L, B, C_out]
    out_vals = pooled.transpose(1, 0, 2).reshape(b, n_layers * c_out)

    # Where the preactivation was positive; kept as a bool mask so the tape
    # does not hold the float activations.
    active = act > 0.0

    def backward(g):
        gp = g.reshape(b, n_layers, c_out).transpose(1, 0, 2)[:, :, None, :] * (1.0 / n)
        gpre = (active.reshape(n_layers, b, n, c_out) * gp).reshape(n_layers, b * n, c_out)
        grads = [
            (kernels, (gpre.transpose(0, 2, 1) @ cols).reshape(n_layers, c_out, c_in, k)),
            (biases, gpre.sum(axis=1)),
        ]
        if any(t.requires_grad for t in layers):
            grads.append((layers, _token_taps_grad((gpre @ w).reshape(n_layers, b, n, c_in, k))))
        for tensors, grad in grads:
            for t, g_t in zip(tensors, grad):
                if t.requires_grad:
                    t._accumulate(g_t)

    return make_result(out_vals, (*layers, *kernels, *biases), backward)


def conv2d(x, kernels, bias, stride=1, padding=0):
    """2-D cross-correlation for [B, C_in, H, W] inputs, [C_out, C_in, kh, kw] kernels.

    The input's windows are held as one [B * HW_out, C_in * kh * kw] im2col
    matrix, so the forward product and each gradient are one GEMM.
    """
    x, kernels, bias = as_tensor(x), as_tensor(kernels), as_tensor(bias)
    if x.ndim != 4:
        raise ShapeError(f"conv2d input must be rank 4, got {x.shape}")
    c_out, c_in, kh, kw = kernels.shape
    if x.shape[1] != c_in:
        raise ShapeError(f"conv2d kernels {kernels.shape} do not match input channels {x.shape[1]}")
    if bias.shape != (c_out,):
        raise ShapeError(f"conv2d bias must have shape ({c_out},)")
    b, _, h, w = x.shape
    h_out = (h + 2 * padding - kh) // stride + 1
    w_out = (w + 2 * padding - kw) // stride + 1
    if h_out <= 0 or w_out <= 0:
        raise ShapeError(f"conv2d output extent would be {h_out}x{w_out}")

    xp = np.pad(x.values, ((0, 0), (0, 0), (padding, padding), (padding, padding))) if padding else x.values
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    hw = h_out * w_out
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(b * hw, c_in * kh * kw)
    w2 = kernels.values.reshape(c_out, c_in * kh * kw)
    out = cols @ w2.T + bias.values  # [B*HW_out, C_out]
    out_vals = out.reshape(b, hw, c_out).transpose(0, 2, 1).reshape(b, c_out, h_out, w_out)

    def backward(g):
        gt = g.reshape(b, c_out, hw).transpose(0, 2, 1).reshape(b * hw, c_out)
        if kernels.requires_grad:
            kernels._accumulate((gt.T @ cols).reshape(c_out, c_in, kh, kw))
        if bias.requires_grad:
            bias._accumulate(gt.sum(axis=0))
        if x.requires_grad:
            gcols = (gt @ w2).reshape(b, h_out, w_out, c_in, kh, kw)
            gx = np.zeros((b, c_in, h + 2 * padding, w + 2 * padding), dtype=g.dtype)
            gc = gcols.transpose(0, 3, 1, 2, 4, 5)  # [B, C_in, H_out, W_out, kh, kw]
            for i in range(kh):
                for j in range(kw):
                    gx[:, :, i : i + stride * h_out : stride, j : j + stride * w_out : stride] += gc[:, :, :, :, i, j]
            if padding:
                gx = gx[:, :, padding : padding + h, padding : padding + w]
            x._accumulate(gx)

    return make_result(out_vals, (x, kernels, bias), backward)


# -- lookup ------------------------------------------------------------------


def embedding_lookup(table, indices):
    """Gather rows of ``table`` [V, D] at integer ``indices``."""
    table = as_tensor(table)
    idx = np.asarray(indices)
    if idx.dtype.kind not in "iu":
        raise InputError(f"embedding indices must be integers, got dtype {idx.dtype}")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise InputError(f"embedding index out of range for table with {table.shape[0]} rows")
    out_vals = table.values[idx]

    def backward(g):
        gt = np.zeros_like(table.values)
        np.add.at(gt, idx, g)
        table._accumulate(gt)

    return make_result(out_vals, (table,), backward)


# -- losses ------------------------------------------------------------------


def mse_loss(pred, target):
    """Mean squared error over all elements; returns a scalar tensor."""
    pred, target = as_tensor(pred), as_tensor(target)
    if pred.shape != target.shape:
        raise ShapeError(f"mse_loss shapes disagree: {pred.shape} vs {target.shape}")
    diff = pred.values - target.values
    n = diff.size
    out_vals = np.array([(diff * diff).sum() / n])

    def backward(g):
        scale = 2.0 * float(g.reshape(-1)[0]) / n
        if pred.requires_grad:
            pred._accumulate(scale * diff)
        if target.requires_grad:
            target._accumulate(-scale * diff)

    return make_result(out_vals, (pred, target), backward)


def cross_entropy(logits, labels):
    """Mean cross entropy for [B, K] logits against integer labels [B]."""
    logits = as_tensor(logits)
    labels = np.asarray(labels)
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy expects [B, K] logits, got {logits.shape}")
    b, k = logits.shape
    if labels.shape != (b,):
        raise ShapeError(f"cross_entropy labels must have shape ({b},), got {labels.shape}")
    if labels.dtype.kind not in "iu":
        raise InputError(f"cross_entropy labels must be integers, got dtype {labels.dtype}")
    if labels.min() < 0 or labels.max() >= k:
        raise InputError(f"cross_entropy label out of range [0, {k})")

    shifted = logits.values - logits.values.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    picked = shifted[np.arange(b), labels]
    out_vals = np.array([(lse - picked).mean()])

    def backward(g):
        gl = np.exp(shifted)
        gl /= gl.sum(axis=1, keepdims=True)
        gl[np.arange(b), labels] -= 1.0
        logits._accumulate(gl * (float(g.reshape(-1)[0]) / b))

    return make_result(out_vals, (logits,), backward)
