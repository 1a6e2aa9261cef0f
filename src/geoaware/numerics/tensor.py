"""Core tensor type and the reverse-mode tape.

A ``Tensor`` wraps a dense numpy array plus an optional gradient of the same
shape.  Operations record a backward closure and their parent tensors; calling
``backward()`` on a scalar result walks the graph in reverse topological order
and accumulates gradients into every tensor with ``requires_grad=True``.
Gradients add across uses and across backward calls; callers zero them
explicitly (the optimizer clears them after each step).

Ops do not check their results for NaN or Inf, since a check on every op
costs more than many of the ops themselves.  Finiteness is checked where the
contract can be observed: a ``Tensor`` built from outside data, each
training step's loss before ``backward``, every gradient in ``adamw_step``
before it changes anything, and each rollout action.
"""

from __future__ import annotations

import contextlib

import numpy as np

from geoaware.errors import NumericError, ShapeError

# When False, ops skip tape construction entirely (fast path for rollouts).
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
        if self.grad is None:
            self.grad = np.zeros_like(self.values)
        self.grad += g

    def backward(self, grad=None):
        """Accumulate d(self)/d(leaf) into every reachable requires_grad leaf."""
        if grad is None:
            if self.size != 1:
                raise ShapeError("backward() without an explicit gradient needs a scalar")
            grad = np.ones_like(self.values)
        else:
            grad = np.asarray(grad, dtype=self.values.dtype)
            if grad.shape != self.shape:
                raise ShapeError(f"gradient shape {grad.shape} != tensor shape {self.shape}")

        order = _toposort(self)
        self._accumulate(grad)
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

    def __getitem__(self, key):
        return tensor_slice(self, key)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, *axes):
        return transpose(self, axes if axes else None)

    def sum(self, axis=None, keepdims=False):
        return tensor_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return mean(self, axis=axis, keepdims=keepdims)


def as_tensor(value):
    return value if isinstance(value, Tensor) else Tensor(value)


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


def make_result(values, parents, backward_builder):
    """Construct an op result, wiring the tape only when gradients are needed.

    ``backward_builder`` is called lazily (only under grad mode with at least
    one tracked parent) and must return a closure ``f(g)`` that accumulates
    into the parents.
    """
    out = Tensor.__new__(Tensor)
    out.values = values
    out.grad = None
    out._backward = None
    tracked = _GRAD_ENABLED and any(p.requires_grad or p._backward is not None for p in parents)
    out.requires_grad = tracked
    if tracked:
        out._parents = tuple(parents)
        out._backward = backward_builder()
    else:
        out._parents = ()
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
    a, b = as_tensor(a), as_tensor(b)
    out_vals = a.values + b.values

    def build():
        def backward(g):
            if a.requires_grad or a._backward is not None:
                a._accumulate(_unbroadcast(g, a.shape))
            if b.requires_grad or b._backward is not None:
                b._accumulate(_unbroadcast(g, b.shape))

        return backward

    return make_result(out_vals, (a, b), build)


def sub(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out_vals = a.values - b.values

    def build():
        def backward(g):
            if a.requires_grad or a._backward is not None:
                a._accumulate(_unbroadcast(g, a.shape))
            if b.requires_grad or b._backward is not None:
                b._accumulate(_unbroadcast(-g, b.shape))

        return backward

    return make_result(out_vals, (a, b), build)


def mul(a, b):
    if isinstance(b, (int, float)) and isinstance(a, Tensor):
        return _scale(a, float(b))
    if isinstance(a, (int, float)) and isinstance(b, Tensor):
        return _scale(b, float(a))
    a, b = as_tensor(a), as_tensor(b)
    out_vals = a.values * b.values

    def build():
        def backward(g):
            if a.requires_grad or a._backward is not None:
                a._accumulate(_unbroadcast(g * b.values, a.shape))
            if b.requires_grad or b._backward is not None:
                b._accumulate(_unbroadcast(g * a.values, b.shape))

        return backward

    return make_result(out_vals, (a, b), build)


def _scale(a, c):
    out_vals = a.values * c

    def build():
        def backward(g):
            a._accumulate(g * c)

        return backward

    return make_result(out_vals, (a,), build)


def matmul(a, b):
    """Matrix product with numpy-style leading-batch broadcasting.

    Both operands must have rank >= 2; gradients for broadcast batch
    dimensions are summed back down.
    """
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs rank >= 2 operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dims disagree: {a.shape} @ {b.shape}")
    out_vals = np.matmul(a.values, b.values)

    def build():
        def backward(g):
            if a.requires_grad or a._backward is not None:
                ga = np.matmul(g, np.swapaxes(b.values, -1, -2))
                a._accumulate(_unbroadcast(ga, a.shape))
            if b.requires_grad or b._backward is not None:
                gb = np.matmul(np.swapaxes(a.values, -1, -2), g)
                b._accumulate(_unbroadcast(gb, b.shape))

        return backward

    return make_result(out_vals, (a, b), build)


# -- shape manipulation ------------------------------------------------------


def reshape(a, shape):
    a = as_tensor(a)
    out_vals = a.values.reshape(shape)

    def build():
        def backward(g):
            a._accumulate(g.reshape(a.shape))

        return backward

    return make_result(out_vals, (a,), build)


def transpose(a, axes=None):
    a = as_tensor(a)
    out_vals = np.transpose(a.values, axes)
    inv = None if axes is None else tuple(np.argsort(axes))

    def build():
        def backward(g):
            a._accumulate(np.transpose(g, inv))

        return backward

    return make_result(out_vals, (a,), build)


def tensor_slice(a, key):
    """Basic indexing (ints, slices, Ellipsis); gradient scatters into place."""
    a = as_tensor(a)
    out_vals = a.values[key]
    if out_vals.ndim == 0:
        out_vals = out_vals.reshape(1)
        scalar = True
    else:
        scalar = False

    def build():
        def backward(g):
            full = np.zeros_like(a.values)
            full[key] = g.reshape(()) if scalar else g
            a._accumulate(full)

        return backward

    return make_result(out_vals, (a,), build)


def concat(tensors, axis=0):
    tensors = [as_tensor(t) for t in tensors]
    if not tensors:
        raise ShapeError("concat needs at least one tensor")
    out_vals = np.concatenate([t.values for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def build():
        def backward(g):
            for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
                if t.requires_grad or t._backward is not None:
                    idx = [slice(None)] * g.ndim
                    idx[axis] = slice(lo, hi)
                    t._accumulate(g[tuple(idx)])

        return backward

    return make_result(out_vals, tuple(tensors), build)


def broadcast_to(a, shape):
    a = as_tensor(a)
    out_vals = np.broadcast_to(a.values, shape).copy()

    def build():
        def backward(g):
            a._accumulate(_unbroadcast(g, a.shape))

        return backward

    return make_result(out_vals, (a,), build)


# -- reductions --------------------------------------------------------------


def tensor_sum(a, axis=None, keepdims=False):
    a = as_tensor(a)
    out_vals = a.values.sum(axis=axis, keepdims=keepdims)
    if out_vals.ndim == 0:
        out_vals = out_vals.reshape(1)

    def build():
        def backward(g):
            if axis is None:
                gg = g.reshape((1,) * a.ndim)
            elif keepdims:
                gg = g
            else:
                gg = np.expand_dims(g, axis)
            a._accumulate(np.broadcast_to(gg, a.shape).copy())

        return backward

    return make_result(out_vals, (a,), build)


def mean(a, axis=None, keepdims=False):
    a = as_tensor(a)
    n = a.size if axis is None else np.prod([a.shape[ax] for ax in np.atleast_1d(axis)])
    return _scale(tensor_sum(a, axis=axis, keepdims=keepdims), 1.0 / float(n))
