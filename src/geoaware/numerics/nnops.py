"""Neural-network operations on top of the tensor tape.

Each op follows the ``tensor`` module's one-closure contract: it computes its
forward values, defines one fused ``backward(g)`` closure and hands both to
``make_result``, which keeps the closure only when the result needs a
gradient; work that only the gradient needs runs inside ``backward``.  Every
backward is checked against central finite differences by the gradient-check
suite.  Ops are as coarse as their callers allow, since every op pays Python
overhead: the geometric vision projection's per-layer conv, relu and token
pooling are one op, ``conv1d_relu_pool``, over all selected layers at once;
the pixel encoder's stacked conv -> relu layers and global mean pool are one
op, ``conv2d_relu_pool``; every two-layer relu MLP is one op, ``mlp2``; and
a whole pre-norm trunk block (layer norm, one fused q/k/v projection,
masked softmax, output projection, residual, layer norm, relu FFN, residual)
is one op, ``transformer_block``, whose queries may be only the last
positions.  Inside an op, intermediate gradients are local arrays, never
tape nodes.  Every product of an activation with a shared weight, ``x [...,
K] @ w [K, N]``, is one GEMM over all leading axes on ``x.reshape(-1, K)``,
forward and backward: ``matmul``, ``mlp2`` and the block's projections; q,
k and v are one [H, 3H] weight, so they are one GEMM too.
``conv1d_relu_pool``'s token-conv contract: the L layers arrive as one [L,
R, N, C_in] tensor with kernels stacked as [L, C_out, C_in, k] and biases as
[L, C_out]; the im2col matrix is [L, R * N, C_in * k] with columns in (c_in,
tap) order, built by one strided copy per tap with only the padded rows
zeroed; and the product is one batched GEMM, ``cols @ w^T``, per layer's
[C_out, C_in * k] kernel matrix, to which the bias is added in place.
``conv2d_relu_pool``'s contract: activations are held batch-innermost as
[C, H, W, B], so each layer's output is the next one's input without a
layout copy; a layer's im2col matrix is [C_in * kh * kw, H_out * W_out * B]
with rows in (c_in, i, j) order, built by one strided slice copy per kernel
tap from the input or, with padding p, from a zero-filled [C, H + 2p, W +
2p, B] buffer the input is copied into; the forward product is one GEMM
with the [C_out, C_in * kh * kw] kernel matrix on the left, the bias added
and the relu applied in place on its output; the tape keeps each layer's
im2col matrix and a bool relu mask, not its float activations; the pool
sums the H * W positions of a [B, C, H * W] view of the last map, without a
copy, then scales by 1 / (H * W); and backward forms each kernel gradient as ``(cols @ g^T)^T``
and an input gradient, one GEMM each, only for the layers above the first
or when the input needs one.  Ops do not check their results for NaN or
Inf; see the ``tensor`` module for where finiteness is checked.
"""

from __future__ import annotations

import math

import numpy as np

from geoaware.errors import InputError, ShapeError
from geoaware.numerics.tensor import as_tensor, make_result

# -- the two-layer MLP -------------------------------------------------------


def mlp2(x, w1, b1, w2, b2):
    """``relu(x @ w1 + b1) @ w2 + b2`` for ``x`` [B, K]: [B, N].

    ``w1`` [K, F], ``b1`` [F], ``w2`` [F, N] and ``b2`` [N]; any other rank
    or width raises ``ShapeError``.  Each product is one GEMM, forward and
    for each gradient, and the relu runs in place on the hidden layer, of
    which the tape keeps the post-relu values.
    """
    x, w1, b1, w2, b2 = leaves = tuple(map(as_tensor, (x, w1, b1, w2, b2)))
    x_v, w1_v, b1_v, w2_v, b2_v = (t.values for t in leaves)
    if x_v.ndim != 2 or w1_v.ndim != 2 or w2_v.ndim != 2:
        raise ShapeError(f"mlp2 needs a rank-2 input and rank-2 weights, got {x_v.shape}, {w1_v.shape}, {w2_v.shape}")
    k, f = w1_v.shape
    n = w2_v.shape[1]
    shapes = [x_v.shape[1], b1_v.shape, w2_v.shape[0], b2_v.shape]
    if shapes != [k, (f,), f, (n,)]:
        raise ShapeError(
            f"mlp2 widths disagree: x {x_v.shape} @ w1 {w1_v.shape} + b1 {b1_v.shape}, "
            f"then @ w2 {w2_v.shape} + b2 {b2_v.shape}"
        )
    hid = x_v @ w1_v
    hid += b1_v
    np.maximum(hid, 0.0, out=hid)
    out = hid @ w2_v
    out += b2_v

    def backward(g):
        if w2.requires_grad:
            w2._accumulate(hid.T @ g)
        if b2.requires_grad:
            b2._accumulate(g.sum(axis=0))
        ghid = g @ w2_v.T
        ghid *= hid > 0.0
        if x.requires_grad:
            x._accumulate(ghid @ w1_v.T)
        if w1.requires_grad:
            w1._accumulate(x_v.T @ ghid)
        if b1.requires_grad:
            b1._accumulate(ghid.sum(axis=0))

    return make_result(out, leaves, backward)


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


def _attention(x, w_qkv, b_qkv, wo, bo, heads, mask):
    """Multi-head attention of the last S_q positions of ``x`` [B, S, H] over
    all S, with its output projection: [B, S_q, H], where S_q is the number
    of rows of the [S_q, S] additive ``mask``.

    q, k and v come from one GEMM with the fused [H, 3H] weight ``w_qkv``
    (columns q | k | v) plus the [3H] bias ``b_qkv``, for every position,
    and split into ``heads`` heads of width H / heads; the queries are then
    cut to the last S_q positions.  Scores are
    q k^T / sqrt(H / heads) plus ``mask``, then a numerically stable softmax
    over keys; the heads' contexts are concatenated and projected by ``wo``,
    ``bo``.
    """
    b, s, h = x.shape
    sq = mask.shape[0]
    dh = h // heads
    scale = 1.0 / math.sqrt(dh)
    x2 = x.reshape(b * s, h)
    qkv = x2 @ w_qkv                                                        # [B*S, 3H]
    qkv += b_qkv
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
    """Gradients of ``_attention`` for x, w_qkv, b_qkv, wo and bo."""
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
    return (gqkv @ w_qkv.T).reshape(b, s, h), x2.T @ gqkv, gqkv.sum(axis=0), ctx.T @ g2, g2.sum(axis=0)


def transformer_block(x, ln1_g, ln1_b, w_qkv, b_qkv, wo, bo, ln2_g, ln2_b, w1, b1, w2, b2, heads, mask):
    """One pre-norm transformer block: [B, S, H] -> [B, S_q, H].

    LN1, then multi-head self-attention (``_attention``: the fused q/k/v
    weight ``w_qkv`` [H, 3H] and bias ``b_qkv`` [3H], the output projection
    ``wo`` [H, H] and ``bo`` [H]) whose queries are the last S_q positions,
    plus the residual stream at those positions; then LN2, a relu FFN ``w1``
    [H, F], ``b1`` [F], ``w2`` [F, H], ``b2`` [H], and the residual again.  ``mask``
    is a plain [S_q, S] additive array (not differentiated), 1 <= S_q <= S:
    ``causal_mask(S)`` runs every position, its last row only the last one.
    Both layer norms use eps 1e-6 and [H] gains and shifts.  Computes in
    ``x``'s dtype: the mask is cast to it and the scale is a Python float,
    so float32 inputs never promote.
    """
    leaves = tuple(map(as_tensor, (x, ln1_g, ln1_b, w_qkv, b_qkv, wo, bo, ln2_g, ln2_b, w1, b1, w2, b2)))
    vals = [t.values for t in leaves]
    if vals[0].ndim != 3:
        raise ShapeError(f"transformer block input must be [batch, length, width], got {vals[0].shape}")
    b, s, h = vals[0].shape
    if heads < 1 or h % heads:
        raise ShapeError(f"width {h} does not split into {heads} heads")
    f = vals[10].size
    expected = [(h,)] * 2 + [(h, 3 * h), (3 * h,), (h, h), (h,)] + [(h,)] * 2 + [(h, f), (f,), (f, h), (h,)]
    shapes = [v.shape for v in vals[1:]]
    if shapes != expected:
        raise ShapeError(f"transformer block parameters must have shapes {expected}, got {shapes}")
    mask = np.asarray(mask, dtype=vals[0].dtype)
    if mask.ndim != 2 or mask.shape[1] != s or not 1 <= mask.shape[0] <= s:
        raise ShapeError(f"transformer block mask must be [S_q, {s}] with 1 <= S_q <= {s}, got {mask.shape}")
    sq = mask.shape[0]

    n1, ln1 = _layer_norm(vals[0], vals[1], vals[2])
    r, attn = _attention(n1, *vals[3:7], heads, mask)
    r += vals[0][:, s - sq:]                                                # the residual stream at the queries
    r = r.reshape(b * sq, h)
    n2, ln2 = _layer_norm(r, vals[7], vals[8])
    hid = n2 @ vals[9]
    hid += vals[10]
    np.maximum(hid, 0.0, out=hid)
    out = hid @ vals[11]
    out += vals[12]
    out += r

    def backward(g):
        g2 = g.reshape(b * sq, h)
        ghid = g2 @ vals[11].T
        ghid *= hid > 0.0
        gr, g_ln2_g, g_ln2_b = _layer_norm_grad(ghid @ vals[9].T, ln2)
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
    [..., N, C, k], where tap t of token n reads token n + t - k // 2.  Each
    tap copies its in-range tokens and zeroes only the rows it pads."""
    n = x.shape[-2]
    cols = np.empty(x.shape + (k,), dtype=x.dtype)
    for t in range(k):
        d = t - k // 2
        lo = min(n, max(0, -d))                 # tap t is in range for tokens [lo, hi)
        hi = max(lo, min(n, n - d))
        cols[..., lo:hi, :, t] = x[..., lo + d : hi + d, :]
        if lo:
            cols[..., :lo, :, t] = 0.0
        if hi < n:
            cols[..., hi:, :, t] = 0.0
    return cols


def _token_taps_grad(gcols):
    """Adjoint of ``_token_taps``: scatter [..., N, C, k] tap gradients back
    onto the [..., N, C] input."""
    n, k = gcols.shape[-3], gcols.shape[-1]
    gx = np.zeros(gcols.shape[:-1], dtype=gcols.dtype)
    for t in range(k):
        d = t - k // 2
        lo = min(n, max(0, -d))
        hi = max(lo, min(n, n - d))
        gx[..., lo + d : hi + d, :] += gcols[..., lo:hi, :, t]
    return gx


def conv1d_relu_pool(x, kernels, biases):
    """Per-layer conv over tokens, relu, then the mean over tokens: [R, L * C_out].

    ``x`` [L, R, N, C_in] holds L layers of R rows of N channels-last
    tokens; ``kernels`` [L, C_out, C_in, k] (k odd) and ``biases`` [L, C_out]
    are layer l's kernel and bias at index l.  Layer l's conv is a stride-1
    cross-correlation (no kernel flip) with ``k // 2`` zeros padded on both
    ends of the token axis, so the output keeps N tokens.  All layers run
    through the one im2col matrix and batched GEMM the module docstring
    describes, and the output is layer-major: columns [l * C_out, (l + 1) *
    C_out) are layer l.
    """
    x, kernels, biases = as_tensor(x), as_tensor(kernels), as_tensor(biases)
    if x.ndim != 4:
        raise ShapeError(f"conv input must be [layers, rows, tokens, channels], got {x.shape}")
    n_layers, r, n, c_in = x.shape
    kshape = kernels.shape
    if len(kshape) != 4 or kshape[0] != n_layers or kshape[2] != c_in or kshape[3] % 2 == 0:
        raise ShapeError(f"kernels must be [{n_layers}, C_out, {c_in}, odd k], got {kshape}")
    c_out, k = kshape[1], kshape[3]
    if biases.shape != (n_layers, c_out):
        raise ShapeError(f"biases must have shape ({n_layers}, {c_out}), got {biases.shape}")

    cols = _token_taps(x.values, k).reshape(n_layers, r * n, c_in * k)
    w = kernels.values.reshape(n_layers, c_out, c_in * k)
    act = cols @ w.transpose(0, 2, 1)
    act += biases.values[:, None, :]
    np.maximum(act, 0.0, out=act)                                   # relu in place: [L, R*N, C_out]
    pooled = act.reshape(n_layers, r, n, c_out).mean(axis=2)        # [L, R, C_out]
    out_vals = pooled.transpose(1, 0, 2).reshape(r, n_layers * c_out)

    # Where the preactivation was positive; kept as a bool mask so the tape
    # does not hold the float activations.
    active = act > 0.0

    def backward(g):
        gp = g.reshape(r, n_layers, c_out).transpose(1, 0, 2)[:, :, None, :] * (1.0 / n)
        gpre = (active.reshape(n_layers, r, n, c_out) * gp).reshape(n_layers, r * n, c_out)
        if kernels.requires_grad:
            kernels._accumulate((gpre.transpose(0, 2, 1) @ cols).reshape(kshape))
        if biases.requires_grad:
            biases._accumulate(gpre.sum(axis=1))
        if x.requires_grad:
            x._accumulate(_token_taps_grad((gpre @ w).reshape(n_layers, r, n, c_in, k)))

    return make_result(out_vals, (x, kernels, biases), backward)


def _conv2d(x, kernels, bias, stride, padding):
    """One 2-D cross-correlation on a batch-innermost [C_in, H, W, B] array:
    (out [C_out, H_out, W_out, B], saved), through the im2col matrix the
    module docstring describes, with the bias added in place."""
    c_in, h, w, b = x.shape
    c_out, _, kh, kw = kernels.shape
    h_out = (h + 2 * padding - kh) // stride + 1
    w_out = (w + 2 * padding - kw) // stride + 1
    if padding:
        padded = np.zeros((c_in, h + 2 * padding, w + 2 * padding, b), dtype=x.dtype)
        padded[:, padding : padding + h, padding : padding + w] = x
        x = padded
    cols = np.empty((c_in, kh, kw, h_out, w_out, b), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, i, j] = x[:, i : i + stride * h_out : stride, j : j + stride * w_out : stride]
    cols = cols.reshape(c_in * kh * kw, h_out * w_out * b)
    w2 = kernels.reshape(c_out, c_in * kh * kw)
    out = w2 @ cols
    out += bias[:, None]
    return out.reshape(c_out, h_out, w_out, b), (cols, w2, kernels.shape, (c_in, h, w, b), stride, padding)


def _conv2d_grad(g, saved, input_grad):
    """Gradients of ``_conv2d`` from ``g`` [C_out, H_out, W_out, B]: (the
    kernels', the bias', and, when ``input_grad``, the input's [C_in, H, W,
    B], else None)."""
    cols, w2, kshape, (c_in, h, w, b), stride, padding = saved
    c_out, _, kh, kw = kshape
    _, h_out, w_out, _ = g.shape
    gt = g.reshape(c_out, h_out * w_out * b)
    gk, gb = (cols @ gt.T).T.reshape(kshape), gt.sum(axis=1)
    if not input_grad:
        return gk, gb, None
    gcols = (w2.T @ gt).reshape(c_in, kh, kw, h_out, w_out, b)
    gx = np.zeros((c_in, h + 2 * padding, w + 2 * padding, b), dtype=g.dtype)
    for i in range(kh):
        for j in range(kw):
            gx[:, i : i + stride * h_out : stride, j : j + stride * w_out : stride] += gcols[:, i, j]
    return gk, gb, gx[:, padding : padding + h, padding : padding + w]


def conv2d_relu_pool(x, kernels, biases, stride, padding):
    """Stacked 2-D conv -> relu layers, then the global mean pool: [B, C_last].

    ``x`` is [B, C_in, H, W]; ``kernels`` and ``biases`` hold one [C_out,
    C_in, kh, kw] kernel and one [C_out] bias per layer, each layer's C_in
    the previous one's C_out.  Every layer is a cross-correlation with the
    same ``stride`` (an int >= 1) and ``padding`` (an int >= 0 zeros on each
    side of both spatial axes); anything else, or an empty output map,
    raises ``ShapeError``.  The pool is the sum over the last map's H * W
    positions times 1 / (H * W).  The layers run as the module docstring
    describes; the tape keeps each layer's im2col matrix and relu mask.
    """
    x = as_tensor(x)
    kernels, biases = tuple(map(as_tensor, kernels)), tuple(map(as_tensor, biases))
    for name, value, least in (("stride", stride, 1), ("padding", padding, 0)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
            raise ShapeError(f"conv2d {name} must be an int >= {least}, got {value!r}")
    if x.ndim != 4:
        raise ShapeError(f"conv2d input must be [batch, channels, height, width], got {x.shape}")
    if not kernels or len(kernels) != len(biases):
        raise ShapeError(f"conv2d needs one bias per kernel, at least one layer; got {len(kernels)} and {len(biases)}")
    b, c, h, w = x.shape
    for kernel, bias in zip(kernels, biases):
        if kernel.ndim != 4 or kernel.shape[1] != c or bias.shape != kernel.shape[:1]:
            raise ShapeError(f"conv2d kernel {kernel.shape} and bias {bias.shape} do not fit {c} input channels")
        c = kernel.shape[0]
        h = (h + 2 * padding - kernel.shape[2]) // stride + 1
        w = (w + 2 * padding - kernel.shape[3]) // stride + 1
        if h <= 0 or w <= 0:
            raise ShapeError(f"conv2d output extent would be {h}x{w}")

    act = x.values.transpose(1, 2, 3, 0)                                   # [C, H, W, B]
    layers = []                                                             # (saved, relu mask) per layer
    for kernel, bias in zip(kernels, biases):
        act, saved = _conv2d(act, kernel.values, bias.values, stride, padding)
        np.maximum(act, 0.0, out=act)                                       # relu in place
        layers.append((saved, act > 0.0))
    scale = 1.0 / (h * w)
    pooled = act.transpose(3, 0, 1, 2).reshape(b, c, h * w).sum(axis=2)     # over a [B, C, H * W] view
    pooled *= scale

    def backward(g):
        # the pool's gradient spreads g / (H * W) over the map; below it, each
        # layer's relu mask gates the gradient of its output
        g = (g * scale).T[:, None, None, :]
        for l in reversed(range(len(layers))):
            saved, active = layers[l]
            g = g * active
            gk, gb, gx = _conv2d_grad(g, saved, input_grad=l > 0 or x.requires_grad)
            if kernels[l].requires_grad:
                kernels[l]._accumulate(gk)
            if biases[l].requires_grad:
                biases[l]._accumulate(gb)
            g = gx
        if x.requires_grad:
            x._accumulate(g.transpose(3, 0, 1, 2))

    return make_result(pooled, (x, *kernels, *biases), backward)


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
