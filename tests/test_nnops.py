"""Neural-net ops: frozen hand values, contract edge cases, FD agreement."""

import math

import numpy as np
import pytest

from geoaware.errors import InputError, ShapeError
from geoaware.numerics import (
    Tensor,
    attention_block,
    conv1d_relu_pool,
    conv2d,
    cross_entropy,
    embedding_lookup,
    grad_check,
    layer_norm,
    mse_loss,
    relu,
    tensor_sum,
)
from geoaware.policy import causal_mask

TOL = 1e-4


# -- relu / layer_norm --------------------------------------------------------


def test_relu_values():
    out = relu(Tensor([-1.0, 0.0, 2.5]))
    assert np.array_equal(out.values, [0.0, 0.0, 2.5])


def test_layer_norm_standardizes():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((5, 64)) * 3.0 + 2.0
    out = layer_norm(Tensor(x), Tensor(np.ones(64)), Tensor(np.zeros(64)))
    assert np.allclose(out.values.mean(axis=-1), 0.0, atol=1e-5)
    assert np.allclose(out.values.var(axis=-1), 1.0, atol=1e-5)


@pytest.mark.parametrize("seed", range(10))
def test_activation_grads_match_fd(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((4, 7)) + 0.05  # keep clear of the relu kink
    g, b = rng.standard_normal(7), rng.standard_normal(7)
    w = rng.standard_normal((4, 7))

    assert grad_check(lambda ts: tensor_sum(relu(ts[0]) * ts[1]), [x, w]) <= TOL
    assert grad_check(lambda ts: tensor_sum(layer_norm(ts[0], ts[1], ts[2]) * ts[3]), [x, g, b, w]) <= TOL


# -- attention_block ----------------------------------------------------------


def reference_attention(x, wq, bq, wk, bk, wv, bv, wo, bo, heads, mask):
    """Self-attention from its definition, one row, head and query at a time."""
    b, s, h = x.shape
    dh = h // heads
    x, mask = x.astype(np.float64), mask.astype(np.float64)
    out = np.zeros((b, s, h))
    for row in range(b):
        q, k, v = (x[row] @ w + bias for w, bias in ((wq, bq), (wk, bk), (wv, bv)))
        ctx = np.zeros((s, h))
        for head in range(heads):
            cols = slice(head * dh, (head + 1) * dh)
            for i in range(s):
                scores = np.array([q[i, cols] @ k[j, cols] / math.sqrt(dh) + mask[i, j] for j in range(s)])
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
    out = attention_block(*inputs, heads, mask)
    assert out.dtype == dtype
    ref = reference_attention(*inputs, heads, mask)
    assert out.shape == ref.shape == (b, s, h)
    assert np.abs(out.values - ref).max() <= tol


def test_attention_block_shape_errors():
    x, w, bias, mask = np.ones((2, 3, 4)), np.ones((4, 4)), np.zeros(4), np.zeros((3, 3))
    good = [x, w, bias, w, bias, w, bias, w, bias]
    bad = [
        (good, 3, mask),                                    # width 4 does not split into 3 heads
        (good, 0, mask),                                    # no heads
        (good, 2, np.zeros((3, 4))),                        # mask does not match the length
        ([np.ones((3, 4))] + good[1:], 2, mask),            # unbatched input
        (good[:7] + [np.ones((4, 5)), bias], 2, mask),      # output projection not square
        (good[:2] + [np.zeros(5)] + good[3:], 2, mask),     # wrong bias width
    ]
    for inputs, heads, m in bad:
        with pytest.raises(ShapeError):
            attention_block(*inputs, heads, m)


@pytest.mark.parametrize("seed", range(3))
def test_attention_block_grad_matches_fd(seed):
    # batch 1, as in closed-loop rollouts, with an unmasked (all-zero) mask
    rng = np.random.default_rng(seed)
    inputs = random_attention_inputs(rng, 1, 3, 4)
    probe = rng.standard_normal((1, 3, 4))

    def f(ts):
        return tensor_sum(attention_block(*ts, 2, np.zeros((3, 3))) * Tensor(probe))

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


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("padding", [0, 1])
def test_conv2d_matches_reference(stride, padding):
    rng = np.random.default_rng(10 * stride + padding)
    x, k, bias = rng.standard_normal((2, 3, 6, 5)), rng.standard_normal((4, 3, 3, 3)), rng.standard_normal(4)
    xt, kt, bt = (Tensor(v, requires_grad=True) for v in (x, k, bias))
    out = conv2d(xt, kt, bt, stride=stride, padding=padding)
    g = rng.standard_normal(out.shape)
    tensor_sum(out * Tensor(g)).backward()
    for got, ref in zip((out.values, xt.grad, kt.grad, bt.grad), reference_conv2d(x, k, bias, stride, padding, g)):
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-12


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
