"""AdamW with decoupled weight decay.

Update per parameter p with gradient g:

    m <- beta1 * m + (1 - beta1) * g
    v <- beta2 * v + (1 - beta2) * g^2
    m_hat = m / (1 - beta1^t),  v_hat = v / (1 - beta2^t)
    p <- p - lr * (m_hat / (sqrt(v_hat) + eps) + weight_decay * p)

Decay multiplies the raw parameter, not the gradient, so a zero-gradient step
shrinks p by exactly (1 - lr * weight_decay).  Frozen entries are skipped
bitwise; gradients of updated entries are cleared after the step.  A step
whose gradients are missing or not all finite raises before it changes any
parameter, moment or the step count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from geoaware.errors import NumericError, StateError
from geoaware.numerics.params import ParamStore


@dataclass
class AdamWState:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 1e-4
    step_count: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def init_adamw(params: ParamStore, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=1e-4):
    state = AdamWState(lr=lr, beta1=beta1, beta2=beta2, eps=eps, weight_decay=weight_decay)
    for name in params.trainable_names():
        t = params[name]
        state.m[name] = np.zeros_like(t.values)
        state.v[name] = np.zeros_like(t.values)
    return state


def adamw_step(params: ParamStore, state: AdamWState):
    """Apply one update to every trainable entry; raises ``StateError`` if any
    grad is missing and ``NumericError`` if any is not finite."""
    trainable = params.trainable_names()
    for name in trainable:
        grad = params[name].grad
        if grad is None:
            raise StateError(f"trainable parameter {name!r} has no accumulated gradient")
        if not np.all(np.isfinite(grad)):
            raise NumericError(f"gradient of {name!r} is not finite")
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    for name in trainable:
        p = params[name]
        g = p.grad
        if name not in state.m:
            # Parameter thawed after init (phase switch): start fresh moments.
            state.m[name] = np.zeros_like(p.values)
            state.v[name] = np.zeros_like(p.values)
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        update = (m / bc1) / (np.sqrt(v / bc2) + state.eps) + state.weight_decay * p.values
        p.values = p.values - state.lr * update.astype(p.values.dtype)
        p.grad = None
