"""Neural-net ops: frozen hand values, contract edge cases, FD agreement."""

import math

import numpy as np
import pytest

import geoaware.numerics.nnops as nnops
from geoaware.errors import InputError, ShapeError
from geoaware.backbones import PIXEL_CHANNELS
from geoaware.numerics import (
    Tensor,
    conv1d_relu_pool,
    conv2d_relu_pool,
    cross_entropy,
    embedding_lookup,
    grad_check,
    matmul,
    mlp2,
    mse_loss,
    no_grad,
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


def relu_op(a):
    """relu as the tape op it was before ``mlp2`` fused it: the reference for
    ``mlp2``'s bitwise check."""
    out = np.maximum(a.values, 0.0)

    def backward(g):
        a._accumulate(g * (a.values > 0.0))

    return make_result(out, (a,), backward)


# -- mlp2 / layer norm -------------------------------------------------------


def test_relu_values():
    # identity layers around mlp2's hidden relu
    out = mlp2(Tensor([[-1.0, 0.0, 2.5]]), np.eye(3), np.zeros(3), np.eye(3), np.zeros(3))
    assert np.array_equal(out.values, [[0.0, 0.0, 2.5]])


@pytest.mark.parametrize("x_grad", [True, False], ids=["input-grad", "no-input-grad"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
def test_mlp2_is_bitwise_the_matmul_add_relu_chain(dtype, x_grad):
    rng = np.random.default_rng(7)
    arrays = [rng.standard_normal(shape).astype(dtype) for shape in ((6, 5), (5, 9), (9,), (9, 4), (4,))]
    g = rng.standard_normal((6, 4)).astype(dtype)
    fused = [Tensor(a, requires_grad=x_grad or i > 0) for i, a in enumerate(arrays)]
    chain = [Tensor(a, requires_grad=x_grad or i > 0) for i, a in enumerate(arrays)]
    out = mlp2(*fused)
    x, w1, b1, w2, b2 = chain
    ref = matmul(relu_op(matmul(x, w1) + b1), w2) + b2
    for t in (out, ref):
        tensor_sum(t * Tensor(g)).backward()
    assert out.dtype == dtype and np.array_equal(out.values, ref.values)
    for got, want in zip(fused, chain, strict=True):
        assert (got.grad is None) == (want.grad is None) == (not got.requires_grad)
        assert got.grad is None or np.array_equal(got.grad, want.grad)


@pytest.mark.parametrize(
    "shapes",
    [
        ((2, 4), (3, 5), (5,), (5, 2), (2,)),       # x width != w1 rows
        ((2, 3), (3, 5), (4,), (5, 2), (2,)),       # b1 width
        ((2, 3), (3, 5), (5,), (4, 2), (2,)),       # w2 rows != hidden width
        ((2, 3), (3, 5), (5,), (5, 2), (3,)),       # b2 width
        ((3,), (3, 5), (5,), (5, 2), (2,)),         # unbatched input
        ((1, 2, 3), (3, 5), (5,), (5, 2), (2,)),    # rank-3 input
    ],
)
def test_mlp2_rejects_width_mismatch(shapes):
    with pytest.raises(ShapeError, match="mlp2"):
        mlp2(*(np.ones(shape) for shape in shapes))


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

    # identity first layer: mlp2's hidden relu sees x itself
    eye, zeros = Tensor(np.eye(7)), Tensor(np.zeros(7))
    assert grad_check(lambda ts: tensor_sum(mlp2(ts[0], eye, zeros, ts[1], zeros) * ts[2]), [x, w.T @ w, w]) <= TOL
    assert grad_check(layer_norm, [x, g, b, w]) <= TOL


# -- the attention part of transformer_block ---------------------------------


def reference_attention(x, w_qkv, b_qkv, wo, bo, heads, mask):
    """Self-attention from its definition, one row, head and query at a time;
    the queries are the last ``mask.shape[0]`` positions, and q, k and v the
    three column blocks of the fused projection."""
    b, s, h = x.shape
    sq = mask.shape[0]
    dh = h // heads
    x, mask = x.astype(np.float64), mask.astype(np.float64)
    out = np.zeros((b, sq, h))
    for row in range(b):
        q, k, v = (x[row] @ w + bias for w, bias in zip(np.split(w_qkv, 3, axis=1), np.split(b_qkv, 3)))
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
    """x [b, s, h], the fused q/k/v weight [h, 3h] and bias [3h], wo and bo;
    q, k, v and o are drawn as four (weight, bias) pairs, then x."""
    qw, qb, kw, kb, vw, vb, wo, bo = (rng.standard_normal(shape) * 0.5 for _ in range(4) for shape in ((h, h), (h,)))
    inputs = [rng.standard_normal((b, s, h)), np.concatenate([qw, kw, vw], axis=1), np.concatenate([qb, kb, vb]), wo, bo]
    return [a.astype(dtype) for a in inputs]


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
    # the attention arguments of transformer_block: x, then w_qkv, b_qkv, wo, bo at 3-6
    inputs, mask = random_block_inputs(np.random.default_rng(0), 2, 3, 4, 5), np.zeros((3, 3))
    bad = [
        ({}, 3, mask),                                  # width 4 does not split into 3 heads
        ({}, 0, mask),                                  # no heads
        ({}, 2, np.zeros((3, 4))),                      # mask does not match the length
        ({0: np.ones((3, 4))}, 2, mask),                # unbatched input
        ({5: np.ones((4, 5))}, 2, mask),                # output projection not square
        ({4: np.zeros(5)}, 2, mask),                    # wrong bias width
        ({3: np.ones((4, 4))}, 2, mask),                # q/k/v weight not fused
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
    """x [b, s, h] and the 12 parameters of a block with FFN width f."""
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
        (8, np.zeros(3)),                   # layer-norm 2 shift width
        (9, np.ones((5, 4))),               # FFN in-projection transposed
        (10, np.zeros(6)),                  # FFN bias does not match its width
        (11, np.ones((4, 5))),              # FFN out-projection transposed
        (12, np.zeros(5)),                  # output bias width
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
    concatenated in order.  Each argument is indexed by layer first."""
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
    """Stacked layers [L, b, n, c_in], kernels [L, c_out, c_in, k] and biases [L, c_out]."""
    layers = [rng.standard_normal((b, n, c_in)).astype(dtype) for _ in range(n_layers)]
    kernels = [(rng.standard_normal((c_out, c_in, k)) * 0.5).astype(dtype) for _ in range(n_layers)]
    biases = [(rng.standard_normal(c_out) * 0.1).astype(dtype) for _ in range(n_layers)]
    return np.stack(layers), np.stack(kernels), np.stack(biases)


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
    out = conv1d_relu_pool(x[None], kernel[None], np.zeros((1, 2)))
    assert np.array_equal(out.values, x.mean(axis=1))


def test_conv1d_hand_value_cross_correlation():
    # tokens [1, 2, 3], kernel [1, 1, 1], zero padded: [0+1+2, 1+2+3, 2+3+0] = [3, 6, 5] -> mean 14/3;
    # the second layer's bias -4 leaves relu([-1, 2, 1]) = [0, 2, 1] -> mean 1
    x = np.array([[[1.0], [2.0], [3.0]]])
    out = conv1d_relu_pool(np.stack([x, x]), np.ones((2, 1, 1, 3)), np.array([[0.0], [-4.0]]))
    assert np.allclose(out.values, [[14.0 / 3.0, 1.0]], rtol=1e-15, atol=0)


def test_conv1d_no_kernel_flip():
    # Asymmetric kernel [1, 2, 3] distinguishes correlation from convolution.
    # Token 0 hot: out = [2, 1, 0] (flipped would be [2, 3, 0]); token 2 hot: out = [0, 3, 2].
    kernel = np.array([[[1.0, 2.0, 3.0]]])
    first = conv1d_relu_pool(np.array([[[[1.0], [0.0], [0.0]]]]), kernel[None], np.zeros((1, 1)))
    last = conv1d_relu_pool(np.array([[[[0.0], [0.0], [1.0]]]]), kernel[None], np.zeros((1, 1)))
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
    x, w, b = np.ones((2, 2, 5, 3)), np.ones((2, 4, 3, 3)), np.zeros((2, 4))
    bad = [
        (x, w[:1], b),                                      # fewer kernels than layers
        (x, w, b[:1]),                                      # fewer biases than layers
        (x[:0], w[:0], b[:0]),                              # no layers
        (np.ones((2, 5, 3)), w, b),                         # unbatched layers
        (x, np.ones((2, 4, 3)), b),                         # kernels not stacked
        (x, np.ones((2, 4, 2, 3)), b),                      # kernel channels != layer channels
        (x, np.ones((2, 4, 3, 2)), b),                      # even kernel has no centre tap
        (x, w, np.zeros((2, 3))),                           # bias width != kernel outputs
        (x, w, np.zeros(4)),                                # biases not stacked
    ]
    for layers, kernels, biases in bad:
        with pytest.raises(ShapeError):
            conv1d_relu_pool(layers, kernels, biases)


@pytest.mark.parametrize("seed", range(10))
def test_conv1d_grad_matches_fd(seed):
    rng = np.random.default_rng(seed)
    layers, kernels, biases = random_conv_inputs(rng, 2, 2, 6, 3, 4, 3)
    probe = rng.standard_normal((2, 8))

    def f(ts):
        return tensor_sum(conv1d_relu_pool(*ts) * Tensor(probe))

    assert grad_check(f, [layers, kernels, biases]) <= TOL


@pytest.mark.parametrize("n, k", [(1, 5), (2, 7), (3, 9)])
def test_conv1d_kernel_wider_than_the_padded_tokens(n, k):
    # taps that fall wholly outside the tokens read zeros, forward and backward
    rng = np.random.default_rng(n + k)
    layers, kernels, biases = random_conv_inputs(rng, 2, 3, n, 2, 4, k)
    ref = reference_conv1d_relu_pool(layers, kernels, biases)
    assert np.abs(conv1d_relu_pool(layers, kernels, biases).values - ref).max() <= 1e-12

    def f(ts):
        return tensor_sum(conv1d_relu_pool(*ts))

    assert grad_check(f, [layers, kernels, biases]) <= TOL


def test_conv1d_batched_grad_matches_fd():
    rng = np.random.default_rng(11)
    layers, kernels, biases = random_conv_inputs(rng, 3, 4, 5, 2, 3, 5)

    def f(ts):
        return tensor_sum(conv1d_relu_pool(*ts))

    assert grad_check(f, [layers, kernels, biases]) <= TOL


# -- conv2d_relu_pool --------------------------------------------------------


def test_conv2d_shapes():
    x = Tensor(np.ones((2, 3, 8, 8)))
    out = conv2d_relu_pool(x, [Tensor(np.ones((5, 3, 3, 3)))], [Tensor(np.zeros(5))], stride=2, padding=1)
    assert out.values.shape == (2, 5)
    kernels = [np.ones((5, 3, 3, 3)), np.ones((4, 5, 2, 2))]
    assert conv2d_relu_pool(x, kernels, [np.zeros(5), np.zeros(4)], stride=1, padding=0).shape == (2, 4)


def conv_out_shape(x, kernels, stride, padding):
    """[B, C_out, H_out, W_out] of one conv layer."""
    (b, _, h, w), (c_out, _, kh, kw) = x.shape, kernels.shape
    return b, c_out, (h + 2 * padding - kh) // stride + 1, (w + 2 * padding - kw) // stride + 1


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
    # conv2d_relu_pool against the definition: reference_conv2d, relu and the
    # mean over the map per layer, then backward in reverse.
    # "batch-innermost": the input is a [B, C, H, W] view of [C, H, W, B] memory.
    # "chain": two layers, so the second reads the first's output and hands
    # its input gradient back through the first's relu.
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
    out = conv2d_relu_pool(xt, [k for k, _ in leaves], [b for _, b in leaves], stride=stride, padding=padding)
    g = rng.standard_normal(out.shape)
    tensor_sum(out * Tensor(g.astype(dtype))).backward()

    # reference: forward layer by layer (its gradients unused), then backward in reverse
    ins, pres = [x], []
    for k, b in params:
        pre = reference_conv2d(ins[-1], k, b, stride, padding, np.zeros(conv_out_shape(ins[-1], k, stride, padding)))[0]
        pres.append(pre)
        ins.append(np.maximum(pre, 0.0))
    h, w = ins[-1].shape[2:]
    g_in = np.broadcast_to(g[:, :, None, None] / (h * w), ins[-1].shape)
    ref_grads = []
    for (k, b), h_in, pre in zip(reversed(params), reversed(ins[:-1]), reversed(pres)):
        _, g_in, gk, gb = reference_conv2d(h_in, k, b, stride, padding, g_in * (pre > 0.0))
        ref_grads = [gk, gb] + ref_grads
    got = [out.values, xt.grad] + [t.grad for pair in leaves for t in pair]
    for got_t, ref in zip(got, [ins[-1].mean(axis=(2, 3)), g_in] + ref_grads, strict=True):
        assert got_t.shape == ref.shape and got_t.dtype == dtype
        tol = 1e-5 * np.abs(ref).max() if dtype == np.float32 else 1e-12
        assert np.abs(got_t - ref).max() <= tol


def np_pad_conv2d(x, kernels, bias, stride, padding, g):
    """One conv layer as it was written with ``np.pad``, on plain arrays: the
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


def np_pad_chain(x, kernels, biases, stride, padding, g):
    """The pixel stage as the per-layer tape ops computed it: ``np_pad_conv2d``
    and relu per layer, then the pool as a sum over a [B, C, H * W] view times
    1 / (H * W); backward in reverse.  (pooled, gx, kernel grads, bias grads)."""
    ins, pres = [x], []
    for k, b in zip(kernels, biases):
        g_none = np.zeros(conv_out_shape(ins[-1], k, stride, padding), dtype=x.dtype)
        pre = np_pad_conv2d(ins[-1], k, b, stride, padding, g_none)[0]
        pres.append(pre)
        ins.append(np.maximum(pre, 0.0))
    bsz, c, h, w = ins[-1].shape
    scale = 1.0 / (h * w)
    pooled = ins[-1].reshape(bsz, c, h * w).sum(axis=2) * scale
    g_in = np.broadcast_to((g * scale)[:, :, None, None], ins[-1].shape)
    gks, gbs = [], []
    for k, b, h_in, pre in zip(kernels[::-1], biases[::-1], ins[-2::-1], pres[::-1]):
        _, g_in, gk, gb = np_pad_conv2d(h_in, k, b, stride, padding, g_in * (pre > 0.0))
        gks.insert(0, gk)
        gbs.insert(0, gb)
    return pooled, g_in, gks, gbs


def check_bitwise_the_np_pad_chain(x, kernels, biases, stride, padding, x_grad):
    """conv2d_relu_pool byte-equals ``np_pad_chain``: output, then every
    gradient of ``sum(out * g)``; the input's only when it requires one."""
    dtype = x.dtype
    xt = Tensor(x, requires_grad=x_grad)
    kts, bts = [Tensor(k, requires_grad=True) for k in kernels], [Tensor(b, requires_grad=True) for b in biases]
    out = conv2d_relu_pool(xt, kts, bts, stride=stride, padding=padding)
    g = np.random.default_rng(out.size).standard_normal(out.shape).astype(dtype)
    tensor_sum(out * Tensor(g)).backward()
    pooled, gx, gks, gbs = np_pad_chain(x, kernels, biases, stride, padding, g)
    got = [out.values] + [t.grad for t in kts + bts]
    want = [pooled] + gks + gbs
    if x_grad:
        got.append(xt.grad)
        want.append(gx)
    else:
        assert xt.grad is None
    for got_t, ref in zip(got, want, strict=True):
        assert got_t.dtype == dtype and got_t.shape == ref.shape and np.array_equal(got_t, ref)


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
@pytest.mark.parametrize("layout", ["contiguous", "batch-innermost"])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("padding", [0, 1, 2])
def test_conv2d_is_bitwise_the_np_pad_version(padding, stride, layout, dtype):
    # conv2d_relu_pool over one to three layers on odd sizes, input gradient
    # on and off, against the per-layer np.pad chain
    rng = np.random.default_rng(100 + 10 * padding + stride)
    x = rng.standard_normal((3, 2, 11, 9)).astype(dtype)
    if layout == "batch-innermost":        # a [B, C, H, W] view of [C, H, W, B] memory
        x = np.ascontiguousarray(x.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)
    channels = (2, 4, 3, 5)
    kernels = [rng.standard_normal((c_out, c_in, 3, 3)).astype(dtype) for c_in, c_out in zip(channels, channels[1:])]
    biases = [rng.standard_normal(k.shape[0]).astype(dtype) * 0.1 for k in kernels]
    for layers in (1, 2, 3):
        if stride == 2 and padding == 0 and layers == 3:
            continue                        # 11 x 9 -> 5 x 4 -> 2 x 1: a third layer has no output
        for x_grad in (True, False):
            check_bitwise_the_np_pad_chain(x, kernels[:layers], biases[:layers], stride, padding, x_grad)


@pytest.mark.parametrize("x_grad", [False, True], ids=["no-input-grad", "input-grad"])
def test_conv2d_relu_pool_is_bitwise_at_the_workload_shape(x_grad):
    # the kernel gradient's GEMM orientation matches the np.pad chain's at
    # the shapes checked, and equality can depend on shape: 128 frames of
    # [3, 32, 32] through the pixel encoder's layers, as a training step runs them
    rng = np.random.default_rng(5)
    x = rng.uniform(0.0, 1.0, (128, 3, 32, 32)).astype(np.float32)
    channels = (3,) + PIXEL_CHANNELS
    kernels = [(rng.uniform(-1, 1, (c_out, c_in, 3, 3)) / np.sqrt(9 * c_in)).astype(np.float32)
               for c_in, c_out in zip(channels, channels[1:])]
    biases = [(rng.uniform(-1, 1, k.shape[0]) / np.sqrt(9 * k.shape[1])).astype(np.float32) for k in kernels]
    check_bitwise_the_np_pad_chain(x, kernels, biases, 2, 1, x_grad)


@pytest.mark.parametrize(
    "stride, padding",
    [(0, 1), (-1, 0), (1.5, 0), (2.0, 1), (True, 1), ("2", 1), (1, -1), (2, -2), (1, 0.5), (1, 1.0), (1, False), (1, None)],
)
def test_conv2d_rejects_bad_stride_and_padding(stride, padding):
    x = Tensor(np.ones((1, 2, 6, 6)))
    with pytest.raises(ShapeError, match="stride|padding"):
        conv2d_relu_pool(x, [Tensor(np.ones((3, 2, 3, 3)))], [Tensor(np.zeros(3))], stride=stride, padding=padding)


def test_conv2d_accepts_numpy_int_stride_and_padding():
    x, k, b = Tensor(np.ones((1, 2, 6, 6))), [Tensor(np.ones((3, 2, 3, 3)))], [Tensor(np.zeros(3))]
    out = conv2d_relu_pool(x, k, b, stride=np.int64(2), padding=np.int32(1))
    assert np.array_equal(out.values, conv2d_relu_pool(x, k, b, 2, 1).values)


@pytest.mark.parametrize(
    "x_shape, kernel_shapes, bias_shapes",
    [
        ((1, 2, 6, 6), [], []),                                         # no layer
        ((1, 2, 6, 6), [(3, 2, 3, 3)], []),                             # a kernel without a bias
        ((1, 2, 6, 6), [(3, 4, 3, 3)], [(3,)]),                         # input channels
        ((1, 2, 6, 6), [(3, 2, 3, 3), (4, 2, 3, 3)], [(3,), (4,)]),     # the second layer's input channels
        ((1, 2, 6, 6), [(3, 2, 3, 3)], [(2,)]),                         # bias width
        ((1, 2, 6, 6), [(3, 2, 3)], [(3,)]),                            # rank-3 kernel
        ((2, 6, 6), [(3, 2, 3, 3)], [(3,)]),                            # unbatched input
        ((1, 2, 2, 2), [(3, 2, 3, 3)], [(3,)]),                         # empty output map
    ],
)
def test_conv2d_relu_pool_shape_errors(x_shape, kernel_shapes, bias_shapes):
    with pytest.raises(ShapeError, match="conv2d"):
        conv2d_relu_pool(np.ones(x_shape), [np.ones(s) for s in kernel_shapes], [np.zeros(s) for s in bias_shapes],
                         stride=1, padding=0)


@pytest.mark.parametrize("seed", range(5))
def test_conv2d_grad_matches_fd(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((2, 2, 5, 5))
    w = rng.standard_normal((3, 2, 3, 3))
    b = rng.standard_normal(3)
    probe = rng.standard_normal((2, 3))

    def f(ts):
        return tensor_sum(conv2d_relu_pool(ts[0], [ts[1]], [ts[2]], stride=2, padding=1) * Tensor(probe))

    assert grad_check(f, [x, w, b]) <= TOL


@pytest.mark.parametrize("padding", [0, 1, 2])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize(
    "frames", [1, nnops.GATHER_BELOW_FRAMES - 1, nnops.GATHER_BELOW_FRAMES, nnops.GATHER_BELOW_FRAMES + 3]
)
def test_gathered_im2col_is_the_sliced_one(frames, stride, padding, monkeypatch):
    # both im2col builders at frame counts on either side of the crossover, on
    # odd sizes: the output and every gradient byte-equal
    rng = np.random.default_rng(frames * 10 + stride * 3 + padding)
    x = rng.standard_normal((frames, 2, 11, 9)).astype(np.float32)
    kernels = [rng.standard_normal(shape).astype(np.float32) for shape in ((4, 2, 3, 3), (3, 4, 3, 3))]
    biases = [rng.standard_normal(k.shape[0]).astype(np.float32) * 0.1 for k in kernels]
    runs = []
    for below in (0, frames + 1):                   # slices, then the gather
        monkeypatch.setattr(nnops, "GATHER_BELOW_FRAMES", below)
        leaves = [Tensor(a, requires_grad=True) for a in (x, *kernels, *biases)]
        out = conv2d_relu_pool(leaves[0], leaves[1:3], leaves[3:], stride=stride, padding=padding)
        g = np.random.default_rng(out.size).standard_normal(out.shape).astype(np.float32)
        tensor_sum(out * Tensor(g)).backward()
        runs.append([out.values] + [t.grad for t in leaves])
    for sliced, gathered in zip(*runs, strict=True):
        assert gathered.dtype == sliced.dtype and gathered.shape == sliced.shape
        assert gathered.tobytes() == sliced.tobytes()


def test_conv_ops_are_bitwise_the_same_under_no_grad():
    # without a tape the ops keep no masks or im2col matrices; the values are unchanged
    rng = np.random.default_rng(41)
    layers, kernels, biases = random_conv_inputs(rng, 3, 4, 9, 5, 6, 3, dtype=np.float32)
    images = rng.standard_normal((2, 3, 13, 11)).astype(np.float32)
    k2 = [rng.standard_normal((4, 3, 3, 3)).astype(np.float32), rng.standard_normal((5, 4, 3, 3)).astype(np.float32)]
    b2 = [rng.standard_normal(4).astype(np.float32), rng.standard_normal(5).astype(np.float32)]

    def both():
        conv1d = conv1d_relu_pool(layers, Tensor(kernels, requires_grad=True), biases)
        conv2d = conv2d_relu_pool(images, [Tensor(k, requires_grad=True) for k in k2], b2, stride=2, padding=1)
        return conv1d, conv2d

    taped = both()
    with no_grad():
        untaped = both()
    for a, b in zip(taped, untaped, strict=True):
        assert a.requires_grad and not b.requires_grad and b._backward is None
        assert a.values.dtype == b.values.dtype and a.values.tobytes() == b.values.tobytes()


# -- token pooling (conv1d_relu_pool) ------------------------------------------


def test_pool_identity_when_out_equals_n():
    # one token: pooling leaves that token's (relu'd) conv output unchanged
    x = np.array([[[2.0, -3.0, 5.0]]])
    kernel = np.zeros((3, 3, 3))
    kernel[[0, 1, 2], [0, 1, 2], 1] = 1.0
    out = conv1d_relu_pool(x[None], kernel[None], np.zeros((1, 3)))
    assert np.array_equal(out.values, [[2.0, 0.0, 5.0]])


def test_pool_full_mean():
    x = np.array([[[2.0], [4.0], [6.0]]])
    out = conv1d_relu_pool(x[None], np.array([[[[0.0, 1.0, 0.0]]]]), np.zeros((1, 1)))
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
        return tensor_sum(conv1d_relu_pool(*ts) * Tensor(probe))

    assert grad_check(f, [layers, kernels, biases]) <= TOL


@pytest.mark.parametrize("rows", [2, 128])
@pytest.mark.parametrize("tokens", [7, 13, 16, 100])
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
def test_conv1d_pool_is_bitwise_ndarray_mean(dtype, tokens, rows):
    # the pool sums with np.add.reduce and divides by the token count as
    # ``ndarray.mean`` does: the op is the same im2col GEMM, relu and ``.mean``
    rng = np.random.default_rng(tokens + rows)
    layers, kernels, biases = random_conv_inputs(rng, 2, rows, tokens, 4, 6, 3, dtype=dtype)
    cols = nnops._token_taps(layers, 3).reshape(2, rows * tokens, 4 * 3)
    act = cols @ kernels.reshape(2, 6, 4 * 3).transpose(0, 2, 1)
    act += biases[:, None, :]
    np.maximum(act, 0.0, out=act)
    want = act.reshape(2, rows, tokens, 6).mean(axis=2).transpose(1, 0, 2).reshape(rows, 2 * 6)
    got = conv1d_relu_pool(layers, kernels, biases).values
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


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
