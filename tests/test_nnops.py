"""Neural-net ops: frozen hand values, contract edge cases, FD agreement."""

import math

import numpy as np
import pytest

import geoaware.numerics.nnops as nnops
from geoaware.errors import InputError, ShapeError
from geoaware.numerics import (
    Tensor,
    conv1d_relu_pool,
    conv2d,
    cross_entropy,
    embedding_lookup,
    grad_check,
    mse_loss,
    relu,
    tensor_sum,
    transformer_block,
)
from geoaware.numerics.tensor import make_result
from geoaware.policy import causal_mask

TOL = 1e-4


def part_op(part, part_grad, *ts, **kw):
    """One part of ``transformer_block``, a private helper pair such as
    ``nnops._layer_norm`` and ``nnops._layer_norm_grad``, as a tape op of its
    own, so finite differences probe that part alone."""
    out, saved = part(*(t.values for t in ts), **kw)

    def backward(g):
        for t, g_t in zip(ts, part_grad(g, saved)):
            t._accumulate(g_t)

    return make_result(out, ts, backward)


# -- relu / layer norm -------------------------------------------------------


def test_relu_values():
    out = relu(Tensor([-1.0, 0.0, 2.5]))
    assert np.array_equal(out.values, [0.0, 0.0, 2.5])


def test_layer_norm_standardizes():
    # the transformer block's layer norm
    rng = np.random.default_rng(1)
    x = rng.standard_normal((5, 64)) * 3.0 + 2.0
    out, _ = nnops._layer_norm(x, np.ones(64), np.zeros(64))
    assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-5)
    assert np.allclose(out.var(axis=-1), 1.0, atol=1e-5)


@pytest.mark.parametrize("seed", range(10))
def test_activation_grads_match_fd(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((4, 7)) + 0.05  # keep clear of the relu kink
    g, b = rng.standard_normal(7), rng.standard_normal(7)
    w = rng.standard_normal((4, 7))

    def layer_norm(ts):
        return tensor_sum(part_op(nnops._layer_norm, nnops._layer_norm_grad, *ts[:3]) * ts[3])

    assert grad_check(lambda ts: tensor_sum(relu(ts[0]) * ts[1]), [x, w]) <= TOL
    assert grad_check(layer_norm, [x, g, b, w]) <= TOL


# -- the attention part of transformer_block ---------------------------------


def reference_attention(x, wq, bq, wk, bk, wv, bv, wo, bo, heads, mask):
    """Self-attention from its definition, one row, head and query at a time;
    the queries are the last ``mask.shape[0]`` positions."""
    b, s, h = x.shape
    sq = mask.shape[0]
    dh = h // heads
    x, mask = x.astype(np.float64), mask.astype(np.float64)
    out = np.zeros((b, sq, h))
    for row in range(b):
        q, k, v = (x[row] @ w + bias for w, bias in ((wq, bq), (wk, bk), (wv, bv)))
        ctx = np.zeros((sq, h))
        for head in range(heads):
            cols = slice(head * dh, (head + 1) * dh)
            for i in range(sq):
                scores = np.array([q[s - sq + i, cols] @ k[j, cols] / math.sqrt(dh) + mask[i, j] for j in range(s)])
                weights = np.exp(scores - scores.max())
                ctx[i, cols] = sum(wt * v[j, cols] for j, wt in enumerate(weights / weights.sum()))
        out[row] = ctx @ wo + bo
    return out


def random_attention_inputs(rng, b, s, h, dtype=np.float64):
    params = [rng.standard_normal(shape) * 0.5 for _ in range(4) for shape in ((h, h), (h,))]
    return [a.astype(dtype) for a in [rng.standard_normal((b, s, h))] + params]


@pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
@pytest.mark.parametrize("shape", [(1, 5, 8, 4), (3, 4, 6, 2), (2, 1, 4, 1), (2, 3, 6, 6)])
@pytest.mark.parametrize("causal", [True, False])
def test_attention_block_matches_reference(shape, dtype, tol, causal):
    b, s, h, heads = shape
    inputs = random_attention_inputs(np.random.default_rng(sum(shape)), b, s, h, dtype)
    mask = causal_mask(s) if causal else np.zeros((s, s))
    out, _ = nnops._attention(*inputs, heads, mask.astype(dtype))
    assert out.dtype == dtype
    ref = reference_attention(*inputs, heads, mask)
    assert out.shape == ref.shape == (b, s, h)
    assert np.abs(out - ref).max() <= tol


def test_attention_block_shape_errors():
    # the attention arguments of transformer_block: x, then wq, bq, ..., wo, bo at 3-10
    inputs, mask = random_block_inputs(np.random.default_rng(0), 2, 3, 4, 5), np.zeros((3, 3))
    bad = [
        ({}, 3, mask),                                  # width 4 does not split into 3 heads
        ({}, 0, mask),                                  # no heads
        ({}, 2, np.zeros((3, 4))),                      # mask does not match the length
        ({0: np.ones((3, 4))}, 2, mask),                # unbatched input
        ({9: np.ones((4, 5))}, 2, mask),                # output projection not square
        ({4: np.zeros(5)}, 2, mask),                    # wrong bias width
    ]
    for changes, heads, m in bad:
        with pytest.raises(ShapeError):
            transformer_block(*[changes.get(i, a) for i, a in enumerate(inputs)], heads, m)


@pytest.mark.parametrize("seed", range(3))
def test_attention_block_grad_matches_fd(seed):
    # batch 1, as in closed-loop rollouts, with an unmasked (all-zero) mask
    rng = np.random.default_rng(seed)
    inputs = random_attention_inputs(rng, 1, 3, 4)
    probe = rng.standard_normal((1, 3, 4))

    def f(ts):
        attention = part_op(nnops._attention, nnops._attention_grad, *ts, heads=2, mask=np.zeros((3, 3)))
        return tensor_sum(attention * Tensor(probe))

    assert grad_check(f, inputs) <= TOL


# -- transformer_block -------------------------------------------------------


def reference_layer_norm(x, gamma, beta):
    """Layer norm from its definition, one vector at a time (eps 1e-6)."""
    out = np.zeros(x.shape)
    for idx in np.ndindex(x.shape[:-1]):
        row = x[idx]
        mu = sum(row) / len(row)
        var = sum((v - mu) ** 2 for v in row) / len(row)
        out[idx] = (row - mu) / math.sqrt(var + 1e-6) * gamma + beta
    return out


def reference_block(x, params, heads, mask):
    """LN -> attention -> residual -> LN -> relu FFN -> residual in float64,
    the queries and the residual stream being the last ``mask.shape[0]``
    positions."""
    x = x.astype(np.float64)
    ln1_g, ln1_b, *attention, ln2_g, ln2_b, w1, b1, w2, b2 = (p.astype(np.float64) for p in params)
    attended = reference_attention(reference_layer_norm(x, ln1_g, ln1_b), *attention, heads, mask)
    r = x[:, x.shape[1] - mask.shape[0]:] + attended
    out = r.copy()
    for idx in np.ndindex(r.shape[:-1]):
        hidden = np.maximum(reference_layer_norm(r[idx], ln2_g, ln2_b) @ w1 + b1, 0.0)
        out[idx] += hidden @ w2 + b2
    return out


def random_block_inputs(rng, b, s, h, f, dtype=np.float64):
    """x [b, s, h] and the 16 parameters of a block with FFN width f."""
    def layer_norm_params():
        return [rng.standard_normal(h) * 0.5 + 1.0, rng.standard_normal(h) * 0.1]

    x, *attention = random_attention_inputs(rng, b, s, h)
    ffn = [
        rng.standard_normal((h, f)) * 0.5, rng.standard_normal(f) * 0.1,
        rng.standard_normal((f, h)) * 0.5, rng.standard_normal(h) * 0.1,
    ]
    return [a.astype(dtype) for a in [x] + layer_norm_params() + attention + layer_norm_params() + ffn]


@pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
@pytest.mark.parametrize("shape", [(1, 5, 8, 4, 16), (3, 4, 6, 2, 24), (2, 1, 4, 1, 16), (1, 1, 6, 3, 8)])
@pytest.mark.parametrize("causal", [True, False])
@pytest.mark.parametrize("queries", ["all", "last"])
def test_transformer_block_matches_reference(shape, dtype, tol, causal, queries):
    b, s, h, heads, f = shape
    inputs = random_block_inputs(np.random.default_rng(sum(shape)), b, s, h, f, dtype)
    mask = causal_mask(s) if causal else np.zeros((s, s))
    if queries == "last":
        mask = mask[-1:]
    out = transformer_block(*inputs, heads, mask)
    assert out.dtype == dtype
    ref = reference_block(inputs[0], inputs[1:], heads, mask)
    assert out.shape == ref.shape == (b, mask.shape[0], h)
    assert np.abs(out.values - ref).max() <= tol


def test_transformer_block_shape_errors():
    # the block's own arguments: query count, mask, layer norms and FFN
    inputs, mask = random_block_inputs(np.random.default_rng(0), 2, 3, 4, 5), np.zeros((3, 3))
    assert transformer_block(*inputs, 2, mask).shape == (2, 3, 4)
    bad_masks = [
        np.zeros((4, 3)),                   # more queries than positions
        np.zeros((0, 3)),                   # no query
        np.zeros((1, 2)),                   # mask width is not the length
        np.zeros(3),                        # not a matrix
    ]
    for m in bad_masks:
        with pytest.raises(ShapeError):
            transformer_block(*inputs, 2, m)
    bad_params = [
        (1, np.ones(5)),                    # layer-norm 1 gain width
        (12, np.zeros(3)),                  # layer-norm 2 shift width
        (13, np.ones((5, 4))),              # FFN in-projection transposed
        (14, np.zeros(6)),                  # FFN bias does not match its width
        (15, np.ones((4, 5))),              # FFN out-projection transposed
        (16, np.zeros(5)),                  # output bias width
    ]
    for i, value in bad_params:
        with pytest.raises(ShapeError):
            transformer_block(*inputs[:i], value, *inputs[i + 1:], 2, mask)


@pytest.mark.parametrize("queries", [5, 1])
def test_transformer_block_grad_matches_fd(queries):
    # batch 1, as in closed-loop rollouts; every input is a leaf.  Seed chosen
    # so every FFN relu preactivation sits at least 0.17 from the kink.
    rng = np.random.default_rng(47)
    inputs = random_block_inputs(rng, 1, 5, 4, 6)
    mask = causal_mask(5)[5 - queries:]
    probe = rng.standard_normal((1, queries, 4))

    def f(ts):
        return tensor_sum(transformer_block(*ts, 2, mask) * Tensor(probe))

    assert grad_check(f, inputs) <= TOL


# -- conv1d_relu_pool ---------------------------------------------------------


def reference_conv1d_relu_pool(layers, kernels, biases):
    """The op from its definition, one output entry at a time: a padded
    stride-1 cross-correlation over tokens, relu, mean over tokens, layers
    concatenated in order."""
    out = []
    for x, w, bias in zip(layers, kernels, biases):
        b, n, c_in = x.shape
        c_out, _, k = w.shape
        pooled = np.zeros((b, c_out), dtype=np.float64)
        for row in range(b):
            for o in range(c_out):
                for tok in range(n):
                    acc = float(bias[o])
                    for t in range(k):
                        src = tok + t - k // 2
                        if 0 <= src < n:
                            acc += float(np.dot(w[o, :, t].astype(np.float64), x[row, src].astype(np.float64)))
                    pooled[row, o] += max(acc, 0.0) / n
        out.append(pooled)
    return np.concatenate(out, axis=1)


def random_conv_inputs(rng, n_layers, b, n, c_in, c_out, k, dtype=np.float64):
    layers = [rng.standard_normal((b, n, c_in)).astype(dtype) for _ in range(n_layers)]
    kernels = [(rng.standard_normal((c_out, c_in, k)) * 0.5).astype(dtype) for _ in range(n_layers)]
    biases = [(rng.standard_normal(c_out) * 0.1).astype(dtype) for _ in range(n_layers)]
    return layers, kernels, biases


@pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-6)])
@pytest.mark.parametrize("shape", [(1, 1, 1, 1, 1, 1), (3, 2, 5, 4, 3, 3), (2, 3, 16, 6, 5, 5), (4, 2, 2, 3, 4, 3)])
def test_conv1d_relu_pool_matches_reference(shape, dtype, tol):
    layers, kernels, biases = random_conv_inputs(np.random.default_rng(sum(shape)), *shape, dtype=dtype)
    out = conv1d_relu_pool(layers, kernels, biases)
    assert out.dtype == dtype
    ref = reference_conv1d_relu_pool(layers, kernels, biases)
    assert out.shape == ref.shape == (shape[1], shape[0] * shape[4])
    assert np.abs(out.values - ref).max() <= tol


def test_conv1d_identity_kernel():
    # centre tap 1 on positive tokens: the output is the mean token
    x = np.arange(1.0, 11.0).reshape(1, 5, 2)
    kernel = np.zeros((2, 2, 3))
    kernel[[0, 1], [0, 1], 1] = 1.0
    out = conv1d_relu_pool([x], [kernel], [np.zeros(2)])
    assert np.array_equal(out.values, x.mean(axis=1))


def test_conv1d_hand_value_cross_correlation():
    # tokens [1, 2, 3], kernel [1, 1, 1], zero padded: [0+1+2, 1+2+3, 2+3+0] = [3, 6, 5] -> mean 14/3;
    # the second layer's bias -4 leaves relu([-1, 2, 1]) = [0, 2, 1] -> mean 1
    x = np.array([[[1.0], [2.0], [3.0]]])
    out = conv1d_relu_pool([x, x], [np.ones((1, 1, 3))] * 2, [np.zeros(1), np.array([-4.0])])
    assert np.allclose(out.values, [[14.0 / 3.0, 1.0]], rtol=1e-15, atol=0)


def test_conv1d_no_kernel_flip():
    # Asymmetric kernel [1, 2, 3] distinguishes correlation from convolution.
    # Token 0 hot: out = [2, 1, 0] (flipped would be [2, 3, 0]); token 2 hot: out = [0, 3, 2].
    kernel = np.array([[[1.0, 2.0, 3.0]]])
    first = conv1d_relu_pool([np.array([[[1.0], [0.0], [0.0]]])], [kernel], [np.zeros(1)])
    last = conv1d_relu_pool([np.array([[[0.0], [0.0], [1.0]]])], [kernel], [np.zeros(1)])
    assert np.array_equal(first.values * 3.0, [[3.0]])
    assert np.array_equal(last.values * 3.0, [[5.0]])


def test_conv1d_output_length():
    # "same" padding: output is [B, L * C_out] whatever the token count, layer-major
    rng = np.random.default_rng(3)
    for n in (1, 2, 7):
        layers, kernels, biases = random_conv_inputs(rng, 3, 2, n, 4, 5, 3)
        out = conv1d_relu_pool(layers, kernels, biases)
        assert out.shape == (2, 15)
        alone = conv1d_relu_pool(layers[1:2], kernels[1:2], biases[1:2])
        assert np.array_equal(out.values[:, 5:10], alone.values)


def test_conv1d_relu_pool_shape_errors():
    x, w, b = np.ones((2, 5, 3)), np.ones((4, 3, 3)), np.zeros(4)
    bad = [
        ([x, x], [w], [b, b]),                              # fewer kernels than layers
        ([], [], []),                                       # no layers
        ([np.ones((5, 3))], [w], [b]),                      # unbatched layer
        ([x, np.ones((2, 6, 3))], [w, w], [b, b]),          # layers of different shapes
        ([x], [np.ones((4, 2, 3))], [b]),                   # kernel channels != layer channels
        ([x], [np.ones((4, 3, 2))], [b]),                   # even kernel has no centre tap
        ([x], [w], [np.zeros(3)]),                          # bias width != kernel outputs
    ]
    for layers, kernels, biases in bad:
        with pytest.raises(ShapeError):
            conv1d_relu_pool(layers, kernels, biases)


@pytest.mark.parametrize("seed", range(10))
def test_conv1d_grad_matches_fd(seed):
    rng = np.random.default_rng(seed)
    layers, kernels, biases = random_conv_inputs(rng, 2, 2, 6, 3, 4, 3)
    probe = rng.standard_normal((2, 8))
    leaves = layers + kernels + biases

    def f(ts):
        return tensor_sum(conv1d_relu_pool(ts[0:2], ts[2:4], ts[4:6]) * Tensor(probe))

    assert grad_check(f, leaves) <= TOL


def test_conv1d_batched_grad_matches_fd():
    rng = np.random.default_rng(11)
    layers, kernels, biases = random_conv_inputs(rng, 3, 4, 5, 2, 3, 5)

    def f(ts):
        return tensor_sum(conv1d_relu_pool(ts[0:3], ts[3:6], ts[6:9]))

    assert grad_check(f, layers + kernels + biases) <= TOL


# -- conv2d ------------------------------------------------------------------


def test_conv2d_shapes():
    x = Tensor(np.ones((2, 3, 8, 8)))
    out = conv2d(x, Tensor(np.ones((5, 3, 3, 3))), Tensor(np.zeros(5)), stride=2, padding=1)
    assert out.values.shape == (2, 5, 4, 4)


def reference_conv2d(x, kernels, bias, stride, padding, g):
    """Cross-correlation from its definition, one output pixel at a time, with
    the input and kernel gradients of ``sum(out * g)``: (out, gx, gk, gb)."""
    b, c_in, h, w = x.shape
    c_out, _, kh, kw = kernels.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    h_out, w_out = (h + 2 * padding - kh) // stride + 1, (w + 2 * padding - kw) // stride + 1
    out = np.zeros((b, c_out, h_out, w_out))
    gxp, gk = np.zeros_like(xp), np.zeros_like(kernels)
    for n in range(b):
        for o in range(c_out):
            for i in range(h_out):
                for j in range(w_out):
                    window = xp[n, :, i * stride : i * stride + kh, j * stride : j * stride + kw]
                    out[n, o, i, j] = bias[o] + (window * kernels[o]).sum()
                    gk[o] += g[n, o, i, j] * window
                    gxp[n, :, i * stride : i * stride + kh, j * stride : j * stride + kw] += g[n, o, i, j] * kernels[o]
    gx = gxp[:, :, padding : padding + h, padding : padding + w]
    return out, gx, gk, g.sum(axis=(0, 2, 3))


@pytest.mark.parametrize(
    "padding, stride, layout",
    [pytest.param(p, s, layout, id=f"{p}-{s}" if layout == "contiguous" else f"{layout}-{p}-{s}")
     for layout in ("contiguous", "batch-innermost", "chain") for p in (0, 1) for s in (1, 2)]
    + [pytest.param(1, 2, "float32", id="float32-1-2")],
)
def test_conv2d_matches_reference(padding, stride, layout):
    # "batch-innermost": the input is a [B, C, H, W] view of [C, H, W, B] memory.
    # "chain": two convs, so the second reads the first's output view and hands
    # its input gradient back as a view; the reference is applied twice.
    # "float32": float32 in, float32 out, every gradient included.
    rng = np.random.default_rng(10 * stride + padding)
    x = rng.standard_normal((2, 3, 9, 8) if layout == "chain" else (2, 3, 6, 5))
    params = [(rng.standard_normal((4, 3, 3, 3)), rng.standard_normal(4))]
    if layout == "chain":
        params.append((rng.standard_normal((2, 4, 3, 3)), rng.standard_normal(2)))
    dtype = np.float32 if layout == "float32" else np.float64
    x_in = np.ascontiguousarray(x.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2) if layout == "batch-innermost" else x
    xt = Tensor(x_in.astype(dtype), requires_grad=True)
    leaves = [(Tensor(k.astype(dtype), requires_grad=True), Tensor(b.astype(dtype), requires_grad=True)) for k, b in params]
    hs = [xt]
    for kt, bt in leaves:
        hs.append(conv2d(hs[-1], kt, bt, stride=stride, padding=padding))
    g = rng.standard_normal(hs[-1].shape)
    tensor_sum(hs[-1] * Tensor(g.astype(dtype))).backward()

    # reference: forward layer by layer (its gradients unused), then backward in reverse
    ins = [x]
    for (k, b), h in zip(params, hs[1:]):
        ins.append(reference_conv2d(ins[-1], k, b, stride, padding, np.zeros(h.shape))[0])
    ref_grads, g_in = [], g
    for (k, b), h_in in zip(reversed(params), reversed(ins[:-1])):
        _, g_in, gk, gb = reference_conv2d(h_in, k, b, stride, padding, g_in)
        ref_grads = [gk, gb] + ref_grads
    got = [hs[-1].values, xt.grad] + [t.grad for pair in leaves for t in pair]
    for got_t, ref in zip(got, [ins[-1], g_in] + ref_grads, strict=True):
        assert got_t.shape == ref.shape and got_t.dtype == dtype
        tol = 1e-5 * np.abs(ref).max() if dtype == np.float32 else 1e-12
        assert np.abs(got_t - ref).max() <= tol


def np_pad_conv2d(x, kernels, bias, stride, padding, g):
    """``conv2d`` as it was written with ``np.pad``, on plain arrays: the
    output and the gradients of ``sum(out * g)`` for x, kernels and bias.
    The same im2col GEMMs on the same layouts, so a zero-buffer padding must
    match it bit for bit."""
    c_out, c_in, kh, kw = kernels.shape
    b, _, h, w = x.shape
    h_out, w_out = (h + 2 * padding - kh) // stride + 1, (w + 2 * padding - kw) // stride + 1
    xp = x.transpose(1, 2, 3, 0)
    if padding:
        xp = np.pad(xp, ((0, 0), (padding, padding), (padding, padding), (0, 0)))
    n = h_out * w_out * b
    cols = np.empty((c_in, kh, kw, h_out, w_out, b), dtype=xp.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, i, j] = xp[:, i : i + stride * h_out : stride, j : j + stride * w_out : stride]
    cols = cols.reshape(c_in * kh * kw, n)
    w2 = kernels.reshape(c_out, c_in * kh * kw)
    out = (w2 @ cols + bias[:, None]).reshape(c_out, h_out, w_out, b).transpose(3, 0, 1, 2)
    gt = g.transpose(1, 2, 3, 0).reshape(c_out, n)
    gcols = (w2.T @ gt).reshape(c_in, kh, kw, h_out, w_out, b)
    gx = np.zeros((c_in, h + 2 * padding, w + 2 * padding, b), dtype=g.dtype)
    for i in range(kh):
        for j in range(kw):
            gx[:, i : i + stride * h_out : stride, j : j + stride * w_out : stride] += gcols[:, i, j]
    gx = gx[:, padding : padding + h, padding : padding + w].transpose(3, 0, 1, 2)
    return out, gx, (gt @ cols.T).reshape(c_out, c_in, kh, kw), gt.sum(axis=1)


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
@pytest.mark.parametrize("layout", ["contiguous", "batch-innermost"])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("padding", [0, 1, 2])
def test_conv2d_is_bitwise_the_np_pad_version(padding, stride, layout, dtype):
    rng = np.random.default_rng(100 + 10 * padding + stride)
    x = rng.standard_normal((3, 2, 7, 6)).astype(dtype)
    if layout == "batch-innermost":        # a [B, C, H, W] view of [C, H, W, B] memory
        x = np.ascontiguousarray(x.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)
    k, b = rng.standard_normal((4, 2, 3, 3)).astype(dtype), rng.standard_normal(4).astype(dtype)
    xt, kt, bt = (Tensor(a, requires_grad=True) for a in (x, k, b))
    out = conv2d(xt, kt, bt, stride=stride, padding=padding)
    g = rng.standard_normal(out.shape).astype(dtype)
    tensor_sum(out * Tensor(g)).backward()
    for got, ref in zip((out.values, xt.grad, kt.grad, bt.grad), np_pad_conv2d(x, k, b, stride, padding, g), strict=True):
        assert got.dtype == dtype and np.array_equal(got, ref)


@pytest.mark.parametrize(
    "stride, padding",
    [(0, 1), (-1, 0), (1.5, 0), (2.0, 1), (True, 1), ("2", 1), (1, -1), (2, -2), (1, 0.5), (1, 1.0), (1, False), (1, None)],
)
def test_conv2d_rejects_bad_stride_and_padding(stride, padding):
    x = Tensor(np.ones((1, 2, 6, 6)))
    with pytest.raises(ShapeError, match="stride|padding"):
        conv2d(x, Tensor(np.ones((3, 2, 3, 3))), Tensor(np.zeros(3)), stride=stride, padding=padding)


def test_conv2d_accepts_numpy_int_stride_and_padding():
    x, k, b = Tensor(np.ones((1, 2, 6, 6))), Tensor(np.ones((3, 2, 3, 3))), Tensor(np.zeros(3))
    assert np.array_equal(conv2d(x, k, b, stride=np.int64(2), padding=np.int32(1)).values, conv2d(x, k, b, 2, 1).values)


@pytest.mark.parametrize("seed", range(5))
def test_conv2d_grad_matches_fd(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((2, 2, 5, 5))
    w = rng.standard_normal((3, 2, 3, 3))
    b = rng.standard_normal(3)

    def f(ts):
        return tensor_sum(relu(conv2d(ts[0], ts[1], ts[2], stride=2, padding=1)))

    assert grad_check(f, [x, w, b]) <= TOL


# -- token pooling (conv1d_relu_pool) ------------------------------------------


def test_pool_identity_when_out_equals_n():
    # one token: pooling leaves that token's (relu'd) conv output unchanged
    x = np.array([[[2.0, -3.0, 5.0]]])
    kernel = np.zeros((3, 3, 3))
    kernel[[0, 1, 2], [0, 1, 2], 1] = 1.0
    out = conv1d_relu_pool([x], [kernel], [np.zeros(3)])
    assert np.array_equal(out.values, [[2.0, 0.0, 5.0]])


def test_pool_full_mean():
    x = np.array([[[2.0], [4.0], [6.0]]])
    out = conv1d_relu_pool([x], [np.array([[[0.0, 1.0, 0.0]]])], [np.zeros(1)])
    assert np.array_equal(out.values, [[4.0]])


@pytest.mark.parametrize("seed", range(10))
def test_pool_grad_matches_fd(seed):
    # single-token and long-token layers: the pooled gradient spreads 1/N over
    # the tokens that pass the relu
    rng = np.random.default_rng(100 + seed)
    n = (1, 9)[seed % 2]
    layers, kernels, biases = random_conv_inputs(rng, 1, 3, n, 2, 4, 3)
    probe = rng.standard_normal((3, 4))

    def f(ts):
        return tensor_sum(conv1d_relu_pool(ts[0:1], ts[1:2], ts[2:3]) * Tensor(probe))

    assert grad_check(f, layers + kernels + biases) <= TOL


# -- embedding ---------------------------------------------------------------


def test_embedding_lookup_rows():
    table = np.arange(12.0).reshape(4, 3)
    out = embedding_lookup(Tensor(table), np.array([2, 0, 2]))
    assert np.array_equal(out.values, table[[2, 0, 2]])


def test_embedding_out_of_range():
    with pytest.raises(InputError):
        embedding_lookup(Tensor(np.ones((4, 3))), np.array([4]))


def test_embedding_grad_scatters_with_repeats():
    table = Tensor(np.zeros((4, 3)), requires_grad=True)
    out = embedding_lookup(table, np.array([1, 1, 3]))
    tensor_sum(out).backward()
    expected = np.zeros((4, 3))
    expected[1] = 2.0
    expected[3] = 1.0
    assert np.array_equal(table.grad, expected)


# -- losses ------------------------------------------------------------------


def test_mse_identical_is_zero():
    x = np.random.default_rng(0).standard_normal((3, 4))
    assert mse_loss(Tensor(x), Tensor(x.copy())).item() == 0.0


def test_mse_hand_value():
    # mean over all elements: ((1)^2 + (2)^2) / 2 = 2.5
    out = mse_loss(Tensor([1.0, 2.0]), Tensor([0.0, 0.0]))
    assert out.item() == 2.5


def test_mse_shape_mismatch():
    with pytest.raises(ShapeError):
        mse_loss(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))))


@pytest.mark.parametrize("seed", range(10))
def test_mse_grad_matches_fd(seed):
    rng = np.random.default_rng(seed)
    p = rng.standard_normal((4, 6))
    t = rng.standard_normal((4, 6))
    assert grad_check(lambda ts: mse_loss(ts[0], ts[1]), [p, t]) <= TOL


def test_cross_entropy_uniform_logits():
    logits = np.zeros((3, 4))
    out = cross_entropy(Tensor(logits), np.array([0, 1, 2]))
    assert math.isclose(out.item(), math.log(4.0), rel_tol=1e-12)


def test_cross_entropy_dominant_logit_goes_to_zero():
    logits = np.zeros((2, 5))
    logits[0, 3] = 1e4
    logits[1, 0] = 1e4
    out = cross_entropy(Tensor(logits), np.array([3, 0]))
    assert out.item() == 0.0


def test_cross_entropy_label_out_of_range():
    with pytest.raises(InputError):
        cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))


@pytest.mark.parametrize("seed", range(10))
def test_cross_entropy_grad_matches_fd(seed):
    rng = np.random.default_rng(seed)
    logits = rng.standard_normal((3, 5))
    labels = rng.integers(0, 5, size=3)
    assert grad_check(lambda ts: cross_entropy(ts[0], labels), [logits]) <= TOL
