"""Shared fixtures."""

import contextlib
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest

import geoaware
from geoaware.errors import NumericError, StateError
from geoaware.numerics import no_grad


@dataclass
class ReferenceAdamWState:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 1e-4
    step_count: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def reference_init_adamw(params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=1e-4):
    state = ReferenceAdamWState(lr=lr, beta1=beta1, beta2=beta2, eps=eps, weight_decay=weight_decay)
    for name in params.trainable_names():
        t = params[name]
        state.m[name] = np.zeros_like(t.values)
        state.v[name] = np.zeros_like(t.values)
    return state


def reference_adamw_step(params, state):
    """AdamW as a loop over the trainable entries, one numpy pass per term."""
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


@pytest.fixture
def reference_adamw():
    """(init, step) of AdamW as a per-entry loop, the specification the
    package's flat update must match bit for bit."""
    return reference_init_adamw, reference_adamw_step


@pytest.fixture
def child_env():
    """The caller's environment with the directory holding the imported
    geoaware package first on PYTHONPATH, so a child interpreter runs the
    tree under test rather than some other installed copy."""
    paths = [str(Path(geoaware.__file__).resolve().parents[1])]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}


@pytest.fixture
def grad_modes():
    """The two modes an op runs in, as context managers: taped (grad mode
    on, plain inputs wrapped as tensors), then tape-free (``no_grad``, where
    plain inputs stay plain arrays).  A contract test runs each case under
    both."""
    return (contextlib.nullcontext, no_grad)
