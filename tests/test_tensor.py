"""Core tensor engine: forward values, tape mechanics, finite-difference agreement."""

import operator

import numpy as np
import pytest

import geoaware.numerics as numerics
from geoaware.errors import NumericError, ShapeError
from geoaware.numerics import (
    Tensor,
    add,
    broadcast_to,
    concat,
    conv1d_relu_pool,
    conv2d_relu_pool,
    cross_entropy,
    embedding_lookup,
    grad_check,
    matmul,
    mlp2,
    mse_loss,
    mul,
    no_grad,
    reshape,
    sub,
    tensor_sum,
    transformer_block,
)

TOL = 1e-4


def test_tensor_shape_and_grad_shape():
    t = Tensor(np.ones((2, 3)), requires_grad=True)
    loss = tensor_sum(t)
    loss.backward()
    assert t.grad.shape == (2, 3)
    assert np.array_equal(t.grad, np.ones((2, 3)))


def test_zero_extent_rejected():
    with pytest.raises(ShapeError):
        Tensor(np.zeros((2, 0)))


def test_non_finite_rejected():
    with pytest.raises(NumericError):
        Tensor(np.array([1.0, np.nan]))


def test_grads_accumulate_across_uses():
    x = Tensor(np.array([2.0]), requires_grad=True)
    y = x * x  # dy/dx = 2x = 4, x used twice
    y.backward()
    assert np.allclose(x.grad, [4.0])
    # second backward accumulates on top
    z = x * 3.0
    z.backward()
    assert np.allclose(x.grad, [7.0])


@pytest.mark.parametrize("op", [add, sub])
def test_first_gradient_is_an_independent_copy(op):
    # add and sub hand one upstream array to both leaves (sub negates b's)
    a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    b = Tensor(np.array([3.0, 5.0]), requires_grad=True)
    tensor_sum(op(a, b)).backward()
    b_before = b.grad.copy()
    a.grad[0] = 99.0
    assert np.array_equal(b.grad, b_before)
    assert not np.shares_memory(a.grad, b.grad)


def test_first_gradient_is_cast_to_the_tensor_dtype():
    t = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
    g = np.array([0.1, 1.0 / 3.0, 2.0 ** -30 + 1.0])
    t._accumulate(g)
    assert t.grad.dtype == np.float32
    assert t.grad.tobytes() == g.astype(np.float32).tobytes()


def test_gradient_of_the_wrong_shape_raises():
    t = Tensor(np.zeros((2, 3)), requires_grad=True)
    with pytest.raises(ShapeError):
        t._accumulate(np.ones(3))           # broadcastable, but not the tensor's shape
    t._accumulate(np.ones((2, 3)))
    with pytest.raises(ShapeError):
        t._accumulate(np.ones((3, 2)))
    assert np.array_equal(t.grad, np.ones((2, 3)))


def test_matmul_identity():
    a = np.arange(6, dtype=float).reshape(2, 3)
    out = matmul(Tensor(a), Tensor(np.eye(3)))
    assert np.array_equal(out.values, a)


def test_matmul_hand_value():
    out = matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    assert out.values.shape == (1, 1)
    assert out.values[0, 0] == 11.0


def test_matmul_shape_mismatch(grad_modes):
    for mode in grad_modes:
        with mode(), pytest.raises(ShapeError):
            matmul(np.ones((2, 3)), np.ones((2, 3)))


@pytest.mark.parametrize("seed", range(10))
def test_matmul_grad_matches_fd(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((5, 4))
    b = rng.standard_normal((4, 3))
    err = grad_check(lambda ts: tensor_sum(matmul(ts[0], ts[1]) * ts[2]), [a, b, rng.standard_normal((5, 3))])
    assert err <= TOL


def test_matmul_rejects_a_weight_that_is_not_rank_2(grad_modes):
    for mode in grad_modes:
        with mode(), pytest.raises(ShapeError):
            matmul(np.ones((2, 5, 4)), np.ones((2, 4, 3)))
        with mode(), pytest.raises(ShapeError):
            matmul(np.ones(4), np.ones((4, 3)))


@pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-6)])
def test_matmul_folds_leading_axes_like_per_slice_products(dtype, tol):
    # one GEMM over all leading axes gives each slice's product, each slice's
    # input gradient, and the weight gradient summed over the slices
    rng = np.random.default_rng(3)
    a, w, g = (rng.standard_normal(shape).astype(dtype) for shape in ((3, 5, 4), (4, 2), (3, 5, 2)))
    at, wt = Tensor(a, requires_grad=True), Tensor(w, requires_grad=True)
    out = matmul(at, wt)
    tensor_sum(out * Tensor(g)).backward()
    refs = (
        np.stack([np.matmul(a[i], w) for i in range(3)]),
        np.stack([np.matmul(g[i], w.T) for i in range(3)]),
        sum(np.matmul(a[i].T, g[i]) for i in range(3)),
    )
    for got, ref in zip((out.values, at.grad, wt.grad), refs):
        assert got.dtype == dtype and got.shape == ref.shape
        assert np.abs(got - ref).max() <= tol * max(1.0, np.abs(ref).max())


def test_matmul_batched_grad_matches_fd():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((2, 5, 4))
    b = rng.standard_normal((4, 3))
    err = grad_check(lambda ts: tensor_sum(matmul(ts[0], ts[1])), [a, b])
    assert err <= TOL


@pytest.mark.parametrize("seed", range(3))
def test_elementwise_grads_match_fd(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((3, 4))
    y = rng.standard_normal((3, 4))
    b = rng.standard_normal((4,))

    err = grad_check(lambda ts: tensor_sum(ts[0] * ts[1] + ts[2]), [x, y, b])
    assert err <= TOL
    err = grad_check(lambda ts: tensor_sum((ts[0] - ts[1]) * (ts[0] - ts[1])) * (1.0 / x.size), [x, y])
    assert err <= TOL


def test_concat_grads():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((2, 3))
    b = rng.standard_normal((2, 5))
    w = rng.standard_normal((2, 8))

    def f(ts):
        joined = concat([ts[0], ts[1]], axis=1)
        return tensor_sum(joined * joined * Tensor(w))

    assert grad_check(f, [a, b]) <= TOL


def test_reshape_grads():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((2, 3, 4))
    w = rng.standard_normal((4, 6))

    def f(ts):
        t = reshape(ts[0], (4, 6))
        return tensor_sum(t * t * Tensor(w))

    assert grad_check(f, [x]) <= TOL


def test_broadcast_to_grad():
    rng = np.random.default_rng(3)
    v = rng.standard_normal((4,))

    def f(ts):
        big = broadcast_to(ts[0].reshape(1, 4), (3, 4))
        return tensor_sum(big * big)

    assert grad_check(f, [v]) <= TOL


def test_sum_axis_keepdims_grad():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((3, 5))
    assert grad_check(lambda ts: tensor_sum(tensor_sum(ts[0], axis=1, keepdims=True) * 2.0), [x]) <= TOL


def test_forward_deterministic():
    rng = np.random.default_rng(5)
    a, b = rng.standard_normal((4, 4)), rng.standard_normal((4, 4))
    r1 = matmul(Tensor(a), Tensor(b)).values
    r2 = matmul(Tensor(a), Tensor(b)).values
    assert np.array_equal(r1, r2)


def test_no_grad_skips_tape():
    x = Tensor(np.ones(3), requires_grad=True)
    with no_grad():
        y = x * 2.0
    assert y._backward is None and not y.requires_grad


@pytest.mark.parametrize("left", [np.array([1.5, -2.0, 3.0]), np.float32(2.5)], ids=["array", "numpy-scalar"])
@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul], ids=["add", "sub", "mul"])
def test_numpy_on_the_left_defers_to_the_tensor(op, left):
    # numpy hands ``ndarray op Tensor`` to the Tensor's reflected operator, so
    # the result is one Tensor on the tape, not an object array of Tensors
    t = Tensor(np.array([0.5, 4.0, -1.5]), requires_grad=True)
    out = op(left, t)
    assert type(out) is Tensor and out.requires_grad
    assert out.values.dtype == np.float64 and out.values.tobytes() == op(left, t.values).tobytes()
    tensor_sum(out).backward()
    d_right = {operator.add: np.ones(3), operator.sub: -np.ones(3), operator.mul: np.broadcast_to(left, 3)}[op]
    assert np.array_equal(t.grad, d_right)


def test_detach_cuts_tape():
    x = Tensor(np.ones(3), requires_grad=True)
    y = (x * 2.0).detach() * 5.0
    loss = tensor_sum(y)
    loss.backward()
    assert x.grad is None


BLOCK_SHAPES = [(1, 2, 4)] + [(4,)] * 2 + [(4, 12), (12,), (4, 4), (4,)] + [(4,)] * 2 + [(4, 8), (8,), (8, 4), (4,)]

# case name -> (input shapes, the op applied to one tensor per shape[, the inputs
# each tracked alone]); every input is tracked when the third entry is absent
OP_CASES = {
    "add": ([(2, 3), (3,)], lambda t: add(*t)),
    "sub": ([(2, 3), (2, 3)], lambda t: sub(*t)),
    "mul": ([(2, 3), (2, 3)], lambda t: mul(*t)),
    "mul_by_a_scalar": ([(2, 3)], lambda t: mul(t[0], 0.3)),
    "matmul": ([(2, 3), (3, 4)], lambda t: matmul(*t)),
    "reshape": ([(2, 3)], lambda t: reshape(t[0], (3, 2))),
    "concat": ([(2, 3), (2, 1)], lambda t: concat(t, axis=1)),
    "broadcast_to": ([(1, 3)], lambda t: broadcast_to(t[0], (2, 3))),
    "tensor_sum": ([(2, 3)], lambda t: tensor_sum(t[0], axis=1)),
    "mlp2": ([(2, 3), (3, 4), (4,), (4, 2), (2,)], lambda t: mlp2(*t)),
    "transformer_block": (BLOCK_SHAPES, lambda t: transformer_block(*t, heads=2, mask=np.zeros((1, 2)))),
    # the block's layer-norm inputs (x, ln1_g, ln1_b, ln2_g, ln2_b) and attention
    # inputs (x, w_qkv .. bo), once the inputs of the layer_norm and attention_block ops
    "layer_norm": (BLOCK_SHAPES, lambda t: transformer_block(*t, heads=2, mask=np.zeros((1, 2))), (0, 1, 2, 7, 8)),
    "attention_block": (BLOCK_SHAPES, lambda t: transformer_block(*t, heads=2, mask=np.zeros((1, 2))), range(7)),
    "conv1d_relu_pool": ([(2, 1, 4, 2), (2, 3, 2, 3), (2, 3)], lambda t: conv1d_relu_pool(*t)),
    "conv2d_relu_pool": (
        [(1, 2, 4, 4), (3, 2, 3, 3), (2, 3, 3, 3), (3,), (2,)],
        lambda t: conv2d_relu_pool(t[0], t[1:3], t[3:], stride=1, padding=1),
    ),
    "embedding_lookup": ([(4, 3)], lambda t: embedding_lookup(t[0], np.array([0, 2]))),
    "mse_loss": ([(2, 3), (2, 3)], lambda t: mse_loss(*t)),
    "cross_entropy": ([(2, 3)], lambda t: cross_entropy(t[0], np.array([0, 2]))),
}
NOT_OPS = {"Tensor", "no_grad", "ParamStore", "AdamWState", "init_adamw", "adamw_step", "grad_check"}


def _on_tape(t):
    return t.requires_grad, t._backward is not None, len(t._parents) > 0


@pytest.mark.parametrize("name", sorted({name for name in numerics.__all__ if name not in NOT_OPS} | set(OP_CASES)))
def test_op_result_requires_grad_exactly_when_it_has_a_backward(name):
    shapes, op, *tracked_alone = OP_CASES[name]
    rng = np.random.default_rng(0)
    values = [rng.standard_normal(shape) for shape in shapes]
    for i in (tracked_alone[0] if tracked_alone else range(len(values))):
        tracked = op([Tensor(v, requires_grad=j == i) for j, v in enumerate(values)])
        assert _on_tape(tracked) == (True, True, True)

    assert _on_tape(op([Tensor(v) for v in values])) == (False, False, False)
    frozen = [Tensor(v, requires_grad=True) for v in values]
    for t in frozen:
        t.requires_grad = False     # as ParamStore.set_frozen does
    assert _on_tape(op(frozen)) == (False, False, False)
    with no_grad():
        out = op([Tensor(v, requires_grad=True) for v in values])
    assert _on_tape(out) == (False, False, False)


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
@pytest.mark.parametrize("name", sorted(OP_CASES))
def test_tape_free_op_is_bitwise_the_taped_one(name, dtype):
    # under no_grad with only plain inputs an op returns a plain array with
    # the bytes its taped result holds; one Tensor input keeps it on the
    # tensor path
    shapes, op, *_ = OP_CASES[name]
    rng = np.random.default_rng(1)
    values = [rng.standard_normal(shape).astype(dtype) for shape in shapes]
    taped = op([Tensor(v, requires_grad=True) for v in values])
    with no_grad():
        plain = op(values)
        mixed = op([Tensor(values[0])] + values[1:])
    assert type(taped) is type(mixed) is Tensor and taped.requires_grad
    assert type(plain) is np.ndarray
    for got in (plain, mixed.values):
        assert got.dtype == taped.dtype == dtype and got.tobytes() == taped.values.tobytes()
