"""Neural-network operations on top of the tensor tape.

Each op follows the ``tensor`` module's one-closure contract: it computes its
forward values, defines one fused ``backward(g)`` closure and hands both to
``make_result``, which keeps the closure only when the result needs a
gradient; work that only the gradient needs runs inside ``backward``.  Every
backward is checked against central finite differences by the gradient-check
suite.  Ops are as coarse as their callers allow, since every op pays Python
overhead: the geometric vision projection's per-layer conv, relu and token
pooling are one op, ``conv1d_relu_pool``, over all selected layers at once,
and a whole pre-norm trunk block (layer norm, q/k/v projections, masked
softmax, output projection, residual, layer norm, relu FFN, residual) is one
op, ``transformer_block``, whose queries may be only the last positions.
Every product of an activation with a shared weight, ``x [..., K] @ w
[K, N]``, is one GEMM over all leading axes on ``x.reshape(-1, K)``, forward
and backward: ``matmul`` and the block's projections.  ``conv2d``'s im2col
contract: activations are held batch-innermost as [C, H, W, B]; the im2col
matrix is [C_in * kh * kw, H_out * W_out * B] with rows in (c_in, i, j)
order, built by one strided slice copy per kernel tap from the input or,
with padding p, from a zero-filled [C, H + 2p, W + 2p, B] buffer the input
is copied into (the zeros ``np.pad`` writes, at a fraction of its per-call
cost); the product is one GEMM with the [C_out, C_in * kh * kw] kernel
matrix on the left, forward and for each gradient; and the output and
input gradient are [B, C, H, W] views of [C, H, W, B] arrays, so stacked
convs pass activations and gradients on without a layout copy.  Ops do not
check their results for NaN or Inf; see the ``tensor`` module for where
finiteness is checked.
"""

from __future__ import annotations

import math

import numpy as np

from geoaware.errors import InputError, ShapeError
from geoaware.numerics.tensor import as_tensor, make_result

# -- activations -------------------------------------------------------------


def relu(a):
    a = as_tensor(a)
    out_vals = np.maximum(a.values, 0.0)

    def backward(g):
        a._accumulate(g * (a.values > 0.0))

    return make_result(out_vals, (a,), backward)


# -- the transformer block ---------------------------------------------------
#
# The block's parts are private helper pairs on plain arrays: ``_part(...)``
# returns (output, saved) and ``_part_grad(g, saved)`` one gradient per input
# array, in argument order.  ``transformer_block`` chains them under one
# ``make_result``.


def _layer_norm(x, gamma, beta, eps=1e-6):
    """Normalize the last axis to zero mean / unit variance, then scale-shift."""
    d = x.shape[-1]
    xhat = x - x.sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt((xhat * xhat).sum(axis=-1, keepdims=True) / d + eps)
    xhat *= inv
    out = xhat * gamma
    out += beta
    return out, (gamma, xhat, inv)


def _layer_norm_grad(g, saved):
    """Gradients of ``_layer_norm`` for x, gamma and beta; the affine ones sum
    over the leading axes."""
    gamma, xhat, inv = saved
    d = g.shape[-1]
    dxhat = g * gamma
    term1 = dxhat.sum(axis=-1, keepdims=True) / d
    term2 = (dxhat * xhat).sum(axis=-1, keepdims=True) / d
    lead = tuple(range(g.ndim - 1))
    return inv * (dxhat - term1 - xhat * term2), (g * xhat).sum(axis=lead), g.sum(axis=lead)


def _softmax_grad(out, g):
    """Input gradient of a last-axis softmax from its output ``out`` and output gradient ``g``."""
    return out * (g - (g * out).sum(axis=-1, keepdims=True))


def _attention(x, wq, bq, wk, bk, wv, bv, wo, bo, heads, mask):
    """Multi-head attention of the last S_q positions of ``x`` [B, S, H] over
    all S, with its output projection: [B, S_q, H], where S_q is the number
    of rows of the [S_q, S] additive ``mask``.

    q, k and v come from one GEMM over the concatenated [H, 3H] weights, for
    every position, and split into ``heads`` heads of width H / heads; the
    queries are then cut to the last S_q positions.  Scores are
    q k^T / sqrt(H / heads) plus ``mask``, then a numerically stable softmax
    over keys; the heads' contexts are concatenated and projected by ``wo``,
    ``bo``.
    """
    b, s, h = x.shape
    sq = mask.shape[0]
    dh = h // heads
    scale = 1.0 / math.sqrt(dh)
    x2 = x.reshape(b * s, h)
    w_qkv = np.concatenate([wq, wk, wv], axis=1)                            # [H, 3H]
    qkv = x2 @ w_qkv                                                        # [B*S, 3H]
    qkv += np.concatenate([bq, bk, bv])
    q, k, v = qkv.reshape(b, s, 3, heads, dh).transpose(2, 0, 3, 1, 4)     # 3 x [B, heads, S, dh]
    q = q[:, :, s - sq:]
    att = q @ k.transpose(0, 1, 3, 2)                                      # the scores, then softmax in place
    att *= scale
    att += mask
    att -= att.max(axis=-1, keepdims=True)
    np.exp(att, out=att)
    att /= att.sum(axis=-1, keepdims=True)
    ctx = (att @ v).transpose(0, 2, 1, 3).reshape(b * sq, h)
    out = ctx @ wo
    out += bo
    return out.reshape(b, sq, h), (x2, w_qkv, wo, q, k, v, att, ctx, scale)


def _attention_grad(g, saved):
    """Gradients of ``_attention`` for x, wq, bq, wk, bk, wv, bv, wo and bo."""
    x2, w_qkv, wo, q, k, v, att, ctx, scale = saved
    b, heads, sq, dh = q.shape
    s, h = k.shape[2], heads * dh
    g2 = g.reshape(b * sq, h)
    gctx = (g2 @ wo.T).reshape(b, sq, heads, dh).transpose(0, 2, 1, 3)
    gatt = gctx @ v.transpose(0, 1, 3, 2)
    gscores = _softmax_grad(att, gatt) * scale
    gqkv = np.zeros((3, b, heads, s, dh), dtype=g.dtype)                   # positions without a query get no q gradient
    gqkv[0, :, :, s - sq:] = gscores @ k
    gqkv[1] = gscores.transpose(0, 1, 3, 2) @ q
    gqkv[2] = att.transpose(0, 1, 3, 2) @ gctx
    gqkv = gqkv.transpose(1, 3, 0, 2, 4).reshape(b * s, 3 * h)            # [B*S, 3H], columns q | k | v
    gw = x2.T @ gqkv
    gb = gqkv.sum(axis=0)
    return (
        (gqkv @ w_qkv.T).reshape(b, s, h),
        gw[:, :h], gb[:h], gw[:, h:2 * h], gb[h:2 * h], gw[:, 2 * h:], gb[2 * h:],
        ctx.T @ g2, g2.sum(axis=0),
    )


def transformer_block(x, ln1_g, ln1_b, wq, bq, wk, bk, wv, bv, wo, bo, ln2_g, ln2_b, w1, b1, w2, b2, heads, mask):
    """One pre-norm transformer block: [B, S, H] -> [B, S_q, H].

    LN1, then multi-head self-attention (``_attention``: [H, H] q/k/v/o
    weights, [H] biases) whose queries are the last S_q positions, plus the
    residual stream at those positions; then LN2, a relu FFN ``w1`` [H, F],
    ``b1`` [F], ``w2`` [F, H], ``b2`` [H], and the residual again.  ``mask``
    is a plain [S_q, S] additive array (not differentiated), 1 <= S_q <= S:
    ``causal_mask(S)`` runs every position, its last row only the last one.
    Both layer norms use eps 1e-6 and [H] gains and shifts.  Computes in
    ``x``'s dtype: the mask is cast to it and the scale is a Python float,
    so float32 inputs never promote.
    """
    leaves = tuple(map(as_tensor, (x, ln1_g, ln1_b, wq, bq, wk, bk, wv, bv, wo, bo, ln2_g, ln2_b, w1, b1, w2, b2)))
    vals = [t.values for t in leaves]
    if vals[0].ndim != 3:
        raise ShapeError(f"transformer block input must be [batch, length, width], got {vals[0].shape}")
    b, s, h = vals[0].shape
    if heads < 1 or h % heads:
        raise ShapeError(f"width {h} does not split into {heads} heads")
    f = vals[14].size
    expected = [(h,)] * 2 + [(h, h), (h,)] * 4 + [(h,)] * 2 + [(h, f), (f,), (f, h), (h,)]
    shapes = [v.shape for v in vals[1:]]
    if shapes != expected:
        raise ShapeError(f"transformer block parameters must have shapes {expected}, got {shapes}")
    mask = np.asarray(mask, dtype=vals[0].dtype)
    if mask.ndim != 2 or mask.shape[1] != s or not 1 <= mask.shape[0] <= s:
        raise ShapeError(f"transformer block mask must be [S_q, {s}] with 1 <= S_q <= {s}, got {mask.shape}")
    sq = mask.shape[0]

    n1, ln1 = _layer_norm(vals[0], vals[1], vals[2])
    r, attn = _attention(n1, *vals[3:11], heads, mask)
    r += vals[0][:, s - sq:]                                                # the residual stream at the queries
    r = r.reshape(b * sq, h)
    n2, ln2 = _layer_norm(r, vals[11], vals[12])
    hid = n2 @ vals[13]
    hid += vals[14]
    np.maximum(hid, 0.0, out=hid)
    out = hid @ vals[15]
    out += vals[16]
    out += r

    def backward(g):
        g2 = g.reshape(b * sq, h)
        ghid = g2 @ vals[15].T
        ghid *= hid > 0.0
        gr, g_ln2_g, g_ln2_b = _layer_norm_grad(ghid @ vals[13].T, ln2)
        gr += g2
        g_n1, *g_attn = _attention_grad(gr, attn)
        gx, g_ln1_g, g_ln1_b = _layer_norm_grad(g_n1, ln1)
        gx[:, s - sq:] += gr.reshape(b, sq, h)
        grads = (
            gx, g_ln1_g, g_ln1_b, *g_attn, g_ln2_g, g_ln2_b,
            n2.T @ ghid, ghid.sum(axis=0), hid.T @ g2, g2.sum(axis=0),
        )
        for t, g_t in zip(leaves, grads):
            if t.requires_grad:
                t._accumulate(g_t)

    return make_result(out.reshape(b, sq, h), leaves, backward)


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

    ``stride`` is an int >= 1 and ``padding`` an int >= 0 zeros on each side
    of both spatial axes; anything else raises ``ShapeError``.

    Activations are held internally as [C, H, W, B], batch innermost, and
    multiplied through the im2col matrix the module docstring describes.
    The output is a view, the [B, C_out, H_out, W_out] transpose of a
    [C_out, H_out, W_out, B] array, and so is the input gradient, of a
    [C_in, H, W, B] array.  An input or incoming gradient already in that
    layout, such as the previous conv's output after relu, is read without
    a copy.
    """
    x, kernels, bias = as_tensor(x), as_tensor(kernels), as_tensor(bias)
    if x.ndim != 4:
        raise ShapeError(f"conv2d input must be rank 4, got {x.shape}")
    c_out, c_in, kh, kw = kernels.shape
    if x.shape[1] != c_in:
        raise ShapeError(f"conv2d kernels {kernels.shape} do not match input channels {x.shape[1]}")
    if bias.shape != (c_out,):
        raise ShapeError(f"conv2d bias must have shape ({c_out},)")
    for name, value, least in (("stride", stride, 1), ("padding", padding, 0)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
            raise ShapeError(f"conv2d {name} must be an int >= {least}, got {value!r}")
    b, _, h, w = x.shape
    h_out = (h + 2 * padding - kh) // stride + 1
    w_out = (w + 2 * padding - kw) // stride + 1
    if h_out <= 0 or w_out <= 0:
        raise ShapeError(f"conv2d output extent would be {h_out}x{w_out}")

    xp = x.values.transpose(1, 2, 3, 0)  # [C_in, H, W, B]
    if padding:
        padded = np.zeros((c_in, h + 2 * padding, w + 2 * padding, b), dtype=xp.dtype)
        padded[:, padding : padding + h, padding : padding + w] = xp
        xp = padded
    n = h_out * w_out * b
    cols = np.empty((c_in, kh, kw, h_out, w_out, b), dtype=xp.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, i, j] = xp[:, i : i + stride * h_out : stride, j : j + stride * w_out : stride]
    cols = cols.reshape(c_in * kh * kw, n)
    w2 = kernels.values.reshape(c_out, c_in * kh * kw)
    out = w2 @ cols + bias.values[:, None]  # [C_out, H_out * W_out * B]
    out_vals = out.reshape(c_out, h_out, w_out, b).transpose(3, 0, 1, 2)

    def backward(g):
        gt = g.transpose(1, 2, 3, 0).reshape(c_out, n)
        if kernels.requires_grad:
            kernels._accumulate((gt @ cols.T).reshape(c_out, c_in, kh, kw))
        if bias.requires_grad:
            bias._accumulate(gt.sum(axis=1))
        if x.requires_grad:
            gcols = (w2.T @ gt).reshape(c_in, kh, kw, h_out, w_out, b)
            gx = np.zeros((c_in, h + 2 * padding, w + 2 * padding, b), dtype=g.dtype)
            for i in range(kh):
                for j in range(kw):
                    gx[:, i : i + stride * h_out : stride, j : j + stride * w_out : stride] += gcols[:, i, j]
            x._accumulate(gx[:, padding : padding + h, padding : padding + w].transpose(3, 0, 1, 2))

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
