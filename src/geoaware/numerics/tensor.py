"""Core tensor type and the reverse-mode tape.

A ``Tensor`` wraps a dense numpy array plus an optional gradient of the same
shape.  Each op computes its forward values and hands one closure,
``backward(g)``, to ``make_result``, which records it on the tape only when
the result needs a gradient.  Work that only the gradient needs runs inside
``backward``, so a forward under ``no_grad`` does none of it.  Calling
``backward()`` on a scalar result walks the graph in reverse topological order
and accumulates gradients into every tensor with ``requires_grad=True``.
Gradients add across uses and across backward calls; callers zero them
explicitly (the optimizer clears them after each step).

Every op also runs tape-free.  Under ``no_grad``, an op none of whose inputs
is a ``Tensor`` computes on the plain arrays it is given, as they are (no
dtype cast, no extent or finiteness scan), and returns a plain
``np.ndarray``: it builds no tensor or closure and calls no ``make_result``.
``operands`` makes the choice, from grad mode and the inputs' types alone.
With grad mode on, or with any ``Tensor`` input, an op wraps its other
inputs with ``as_tensor`` and returns a ``Tensor``, as it always has.  A
pass given only plain parameters (``ParamStore.arrays``) and plain data
under ``no_grad``, such as a rollout step, therefore never touches the tape.
Either way an op computes its values once, by the same arithmetic, and
checks its operands' shapes the same way.

A tensor's first gradient is written once: ``_accumulate`` stores a copy of
it, cast to the tensor's dtype and laid out like its values, instead of
zero-filling an array and adding into it.  The copy never aliases the array
an op passed in, so ops may hand one upstream array to several parents.
Later gradients add in place.  A gradient whose shape differs from the
tensor's raises ``ShapeError``: every backward passes exact shapes, and
``_unbroadcast`` sums broadcast axes away before it does.

Ops do not check their results for NaN or Inf, since a check on every op
costs more than many of the ops themselves.  Finiteness is checked where the
contract can be observed: a ``Tensor`` built from outside data, each
training step's loss before ``backward``, every gradient in ``adamw_step``
before it changes anything, and each rollout action.  Tape-free ops build no
``Tensor``, so a rollout's observations and parameters are not scanned; a
non-finite value among them reaches the action, which ``step`` rejects.
"""

from __future__ import annotations

import contextlib

import numpy as np

from geoaware.errors import NumericError, ShapeError

# When False, ops record no tape, and ops on plain inputs build no Tensor
# (``operands``): the rollout path.
_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Disable tape construction inside the block."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def _as_float_array(values):
    arr = np.asarray(values)
    if arr.dtype.kind not in "fiu":
        raise ShapeError(f"tensor values must be numeric, got dtype {arr.dtype}")
    if arr.dtype.kind in "iu":
        arr = arr.astype(np.float64)
    return arr


class Tensor:
    """Dense array with reverse-mode gradient support."""

    __slots__ = ("values", "grad", "requires_grad", "_parents", "_backward")

    # numpy defers ``ndarray + Tensor`` (and -, *) to the Tensor's reflected
    # operator instead of broadcasting over the Tensor as an object
    __array_ufunc__ = None

    def __init__(self, values, requires_grad=False):
        arr = _as_float_array(values)
        if any(d <= 0 for d in arr.shape):
            raise ShapeError(f"tensor extents must be positive, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise NumericError("tensor values must be finite")
        self.values = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self):
        return self.values.shape

    @property
    def ndim(self):
        return self.values.ndim

    @property
    def size(self):
        return self.values.size

    @property
    def dtype(self):
        return self.values.dtype

    def item(self):
        if self.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.values.reshape(-1)[0])

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype}{flag})"

    # -- gradient plumbing ---------------------------------------------------

    def detach(self):
        """A view of the same values, cut off from the tape."""
        out = Tensor.__new__(Tensor)
        out.values = self.values
        out.grad = None
        out.requires_grad = False
        out._parents = ()
        out._backward = None
        return out

    def _accumulate(self, g):
        """Add ``g``, which must have this tensor's shape, to ``self.grad``."""
        if g.shape != self.values.shape:
            raise ShapeError(f"gradient of shape {g.shape} for a tensor of shape {self.values.shape}")
        if self.grad is None:
            self.grad = np.empty_like(self.values)
            self.grad[...] = g
        else:
            self.grad += g

    def backward(self):
        """Accumulate d(self)/d(leaf) into every reachable requires_grad leaf;
        ``self`` must be a scalar."""
        if self.size != 1:
            raise ShapeError(f"backward() needs a scalar, got shape {self.shape}")
        order = _toposort(self)
        self._accumulate(np.ones_like(self.values))
        for node in order:
            if node._backward is not None:
                node._backward(node.grad)
        # Intermediate grads are only needed during the walk; free them so
        # repeated backward calls accumulate on leaves alone.
        for node in order:
            if node._backward is not None and node is not self:
                node.grad = None

    # -- operator sugar ------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def sum(self, axis=None, keepdims=False):
        return tensor_sum(self, axis=axis, keepdims=keepdims)


def as_tensor(value):
    return value if isinstance(value, Tensor) else Tensor(value)


def values_of(value):
    """The array an op result or input holds: a ``Tensor``'s ``values``, or
    ``value`` itself when it is already plain."""
    return value.values if isinstance(value, Tensor) else value


def operands(inputs):
    """``(values, leaves)`` for an op's ``inputs`` (a tuple).

    Tape-free, when grad mode is off and no input is a ``Tensor`` (no
    subclass of it exists, so the type test is exact): the values are the
    inputs as given, plain arrays or scalars, and ``leaves`` is None; the op
    returns its values as they are.  Otherwise ``leaves`` are the inputs as
    tensors (``as_tensor``) and the values theirs; the op hands its values,
    ``leaves`` and its backward to ``make_result``.
    """
    if not _GRAD_ENABLED and Tensor not in map(type, inputs):
        return inputs, None
    leaves = tuple(map(as_tensor, inputs))
    return tuple([t.values for t in leaves]), leaves


def _toposort(root):
    """Reverse topological order over the tape, iteratively (graphs get deep)."""
    order = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    order.reverse()
    return order


def needs_grad(parents):
    """Whether an op result on ``parents`` takes a gradient: grad mode is on
    and some parent has ``requires_grad``.  ``make_result`` records exactly
    these results; an op may test it first to skip state only ``backward``
    reads."""
    return _GRAD_ENABLED and any(p.requires_grad for p in parents)


def make_result(values, parents, backward):
    """Construct an op result, recording it on the tape when it needs a gradient.

    ``backward(g)`` accumulates the result's gradient ``g`` into every parent
    that has ``requires_grad``.  The result needs a gradient, and keeps
    ``backward`` and ``parents``, when grad mode is on and some parent has
    ``requires_grad``; otherwise it keeps neither and the closure is dropped.
    Invariant: an op result has ``requires_grad`` exactly when it has a
    backward, so ops test ``requires_grad`` alone.
    """
    out = Tensor.__new__(Tensor)
    out.values = values
    out.grad = None
    out.requires_grad = needs_grad(parents)
    out._parents = tuple(parents) if out.requires_grad else ()
    out._backward = backward if out.requires_grad else None
    return out


def _unbroadcast(grad, shape):
    """Sum ``grad`` down to ``shape`` (reverse of numpy broadcasting)."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# -- arithmetic --------------------------------------------------------------


def add(a, b):
    (a_v, b_v), leaves = operands((a, b))
    out_vals = a_v + b_v
    if leaves is None:
        return out_vals
    a, b = leaves

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.shape))

    return make_result(out_vals, leaves, backward)


def sub(a, b):
    (a_v, b_v), leaves = operands((a, b))
    out_vals = a_v - b_v
    if leaves is None:
        return out_vals
    a, b = leaves

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g, b.shape))

    return make_result(out_vals, leaves, backward)


def mul(a, b):
    if isinstance(b, (int, float)) and isinstance(a, Tensor):
        return _scale(a, float(b))
    if isinstance(a, (int, float)) and isinstance(b, Tensor):
        return _scale(b, float(a))
    (a_v, b_v), leaves = operands((a, b))
    out_vals = a_v * b_v
    if leaves is None:
        return out_vals
    a, b = leaves

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.values, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.values, b.shape))

    return make_result(out_vals, leaves, backward)


def _scale(a, c):
    out_vals = a.values * c

    def backward(g):
        a._accumulate(g * c)

    return make_result(out_vals, (a,), backward)


def matmul(a, w):
    """Product of an activation with a weight: ``a [..., K] @ w [K, N]`` -> ``[..., N]``.

    ``a`` has rank >= 2 and ``w`` rank exactly 2.  All of ``a``'s leading
    axes fold into one GEMM on ``a.reshape(-1, K)``, forward and backward, so
    ``w``'s gradient is a single [K, M] @ [M, N] product that sums over every
    leading axis.
    """
    (a_v, w_v), leaves = operands((a, w))
    if a_v.ndim < 2 or w_v.ndim != 2:
        raise ShapeError(f"matmul needs a rank >= 2 input and a rank-2 weight, got {a_v.shape} @ {w_v.shape}")
    k, n = w_v.shape
    if a_v.shape[-1] != k:
        raise ShapeError(f"matmul inner dims disagree: {a_v.shape} @ {w_v.shape}")
    a2 = a_v.reshape(-1, k)
    out_vals = (a2 @ w_v).reshape(a_v.shape[:-1] + (n,))
    if leaves is None:
        return out_vals
    a, w = leaves

    def backward(g):
        g2 = g.reshape(-1, n)
        if a.requires_grad:
            a._accumulate((g2 @ w_v.T).reshape(a.shape))
        if w.requires_grad:
            w._accumulate(a2.T @ g2)

    return make_result(out_vals, leaves, backward)


# -- shape manipulation ------------------------------------------------------


def reshape(a, shape):
    (a_v,), leaves = operands((a,))
    out_vals = a_v.reshape(shape)
    if leaves is None:
        return out_vals
    (a,) = leaves

    def backward(g):
        a._accumulate(g.reshape(a.shape))

    return make_result(out_vals, leaves, backward)


def concat(tensors, axis=0):
    vals, leaves = operands(tuple(tensors))
    if not vals:
        raise ShapeError("concat needs at least one tensor")
    out_vals = np.concatenate(vals, axis=axis)
    if leaves is None:
        return out_vals

    def backward(g):
        hi = 0
        for t in leaves:
            lo, hi = hi, hi + t.shape[axis]
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                t._accumulate(g[tuple(idx)])

    return make_result(out_vals, leaves, backward)


def broadcast_to(a, shape):
    (a_v,), leaves = operands((a,))
    out_vals = np.broadcast_to(a_v, shape).copy()
    if leaves is None:
        return out_vals
    (a,) = leaves

    def backward(g):
        a._accumulate(_unbroadcast(g, a.shape))

    return make_result(out_vals, leaves, backward)


# -- reductions --------------------------------------------------------------


def tensor_sum(a, axis=None, keepdims=False):
    (a_v,), leaves = operands((a,))
    out_vals = a_v.sum(axis=axis, keepdims=keepdims)
    if out_vals.ndim == 0:
        out_vals = out_vals.reshape(1)
    if leaves is None:
        return out_vals
    (a,) = leaves

    def backward(g):
        if axis is None:
            gg = g.reshape((1,) * a.ndim)
        elif keepdims:
            gg = g
        else:
            gg = np.expand_dims(g, axis)
        a._accumulate(np.broadcast_to(gg, a.shape))

    return make_result(out_vals, leaves, backward)
