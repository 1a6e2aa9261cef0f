"""AdamW with decoupled weight decay, run once per step over flat state.

Update per parameter p with gradient g:

    m <- beta1 * m + (1 - beta1) * g
    v <- beta2 * v + (1 - beta2) * g^2
    m_hat = m / (1 - beta1^t),  v_hat = v / (1 - beta2^t)
    p <- p - lr * (m_hat / (sqrt(v_hat) + eps) + weight_decay * p)

Decay multiplies the raw parameter, not the gradient, so a zero-gradient step
shrinks p by exactly (1 - lr * weight_decay).  Frozen entries are never
gathered into the update, so they stay bitwise untouched; gradients of updated
entries are cleared after the step.  A step whose gradients are missing or not
all finite raises before it changes any parameter, moment or the step count.

Flat layout.  The state holds m, v and two scratch vectors as flat arrays over
the trainable entries, concatenated in store order (the flat-buffer layout of
ZeRO, arXiv:1910.02054).  A step copies the gradients into one scratch vector
and checks them there in one pass, copies the parameter values into a new
flat vector, runs the recurrence once in place over them, and gives every
entry a reshaped view of the new vector.  The layout is rebuilt when the
trainable names, their shapes or their dtype change, as at the VQ-BeT phase
switch: moments of names in both layouts carry over and newly trainable names
start at zero.  ``state.m[name]`` and ``state.v[name]`` are reshaped views
into the flat moments.  All trainable entries must share one dtype; a store
that mixes dtypes raises ``StateError``.

Every operation of the recurrence is elementwise, and its result for one
element depends only on that element's operands.  The flat step applies the
same operations, in the same order, with the same scalars and dtype as a loop
over the entries would, so it rounds every element the same way: the result
is bitwise equal to the per-entry update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from geoaware.errors import NumericError, StateError
from geoaware.numerics.params import ParamStore


class _FlatState:
    """Zeroed m and v and two scratch vectors over the entries of ``layout``
    ((name, shape), ...), concatenated in that order, with per-name views of
    m and v."""

    def __init__(self, layout, dtype):
        self.layout = layout
        self.spans, lo = [], 0
        for _, shape in layout:
            self.spans.append((lo, lo + math.prod(shape)))
            lo += math.prod(shape)
        self.m_flat, self.v_flat = np.zeros(lo, dtype=dtype), np.zeros(lo, dtype=dtype)
        self.grad, self.scratch = np.empty(lo, dtype=dtype), np.empty(lo, dtype=dtype)
        self.m, self.v = self.views(self.m_flat), self.views(self.v_flat)

    def views(self, flat):
        """name -> reshaped view of ``flat`` for each entry of the layout."""
        return {name: flat[lo:hi].reshape(shape) for (name, shape), (lo, hi) in zip(self.layout, self.spans)}


@dataclass
class AdamWState:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 1e-4
    step_count: int = 0
    flat: _FlatState = field(default_factory=lambda: _FlatState((), np.float64))     # installed by init_adamw

    @property
    def m(self):
        return self.flat.m

    @property
    def v(self):
        return self.flat.v


def init_adamw(params: ParamStore, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=1e-4):
    state = AdamWState(lr=lr, beta1=beta1, beta2=beta2, eps=eps, weight_decay=weight_decay)
    state.flat = _flat_for(state, [(name, params[name]) for name in params.trainable_names()])
    return state


def _flat_for(state: AdamWState, entries):
    """``state.flat`` if it covers ``entries`` [(name, Tensor)] in order, else
    a new ``_FlatState`` for them, not yet installed, into which the moments
    of names ``state`` covers with the same shape carry over.  Raises
    ``StateError`` when the entries mix dtypes."""
    dtypes = {t.values.dtype for _, t in entries}
    if len(dtypes) > 1:
        raise StateError(f"trainable entries mix dtypes {sorted(map(str, dtypes))}; AdamW needs one")
    dtype = dtypes.pop() if dtypes else state.flat.m_flat.dtype
    layout = tuple((name, t.values.shape) for name, t in entries)
    if layout == state.flat.layout and dtype == state.flat.m_flat.dtype:
        return state.flat
    flat = _FlatState(layout, dtype)
    for name, shape in layout:
        if name in state.m and state.m[name].shape == shape:
            flat.m[name][...] = state.m[name]
            flat.v[name][...] = state.v[name]
    return flat


def adamw_step(params: ParamStore, state: AdamWState):
    """Apply one update to every trainable entry; raises ``StateError`` if any
    grad is missing or the entries mix dtypes, and ``NumericError`` naming
    the first entry whose grad is not finite."""
    entries = [(name, params[name]) for name in params.trainable_names()]
    for name, p in entries:
        if p.grad is None:
            raise StateError(f"trainable parameter {name!r} has no accumulated gradient")
    flat = _flat_for(state, entries)
    if entries:
        np.concatenate([p.grad.reshape(-1) for _, p in entries], out=flat.grad)
        if not np.isfinite(flat.grad).all():
            name = next(name for name, p in entries if not np.all(np.isfinite(p.grad)))
            raise NumericError(f"gradient of {name!r} is not finite")
    state.flat = flat
    state.step_count += 1
    if not entries:
        return
    t = state.step_count
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    m, v, g, tmp = flat.m_flat, flat.v_flat, flat.grad, flat.scratch
    values = np.concatenate([p.values.reshape(-1) for _, p in entries])
    m *= state.beta1
    np.multiply(g, 1.0 - state.beta1, out=tmp)
    m += tmp
    v *= state.beta2
    np.multiply(g, g, out=tmp)
    tmp *= 1.0 - state.beta2
    v += tmp
    np.divide(v, bc2, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += state.eps                                # sqrt(v_hat) + eps
    np.divide(m, bc1, out=g)
    g /= tmp                                        # m_hat / (sqrt(v_hat) + eps)
    np.multiply(values, state.weight_decay, out=tmp)
    g += tmp
    g *= state.lr
    values -= g
    for (_, p), view in zip(entries, flat.views(values).values()):
        p.values = view
        p.grad = None
