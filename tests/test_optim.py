"""AdamW and ParamStore contracts."""

import numpy as np
import pytest

from geoaware.errors import NumericError, StateError
from geoaware.numerics import ParamStore, Tensor, adamw_step, grad_check, init_adamw, tensor_sum


def make_store(values, frozen_values=None):
    store = ParamStore()
    store.add("w", np.array(values, dtype=float))
    if frozen_values is not None:
        store.add("locked", np.array(frozen_values, dtype=float), frozen=True)
    return store


def test_zero_grad_step_is_pure_decay():
    lr, wd = 0.1, 0.01
    p0 = np.array([1.0, -2.0, 0.5])
    store = make_store(p0)
    state = init_adamw(store, lr=lr, weight_decay=wd)
    store["w"].grad = np.zeros(3)
    adamw_step(store, state)
    expected = p0 - lr * (wd * p0)  # moments stay zero, update is pure decay
    assert np.array_equal(store["w"].values, expected)
    assert np.allclose(store["w"].values, p0 * (1.0 - lr * wd), rtol=1e-14)


def test_frozen_entries_bitwise_untouched():
    frozen0 = np.array([3.0, -1.0])
    store = make_store([1.0], frozen_values=frozen0)
    state = init_adamw(store, lr=0.1)
    before = store["locked"].values.tobytes()
    for _ in range(5):
        store["w"].grad = np.array([0.3])
        adamw_step(store, state)
    assert store["locked"].values.tobytes() == before
    assert store["w"].values[0] != 1.0


def test_missing_grad_raises():
    store = make_store([1.0, 2.0])
    state = init_adamw(store)
    with pytest.raises(StateError):
        adamw_step(store, state)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_grad_raises_before_any_change(bad):
    store = make_store([1.0, -2.0])
    store.add("z", np.array([0.5]))
    state = init_adamw(store, lr=0.1)
    store["w"].grad = np.array([0.3, -0.1])
    store["z"].grad = np.array([0.2])
    adamw_step(store, state)                       # non-zero moments to protect
    store["w"].grad = np.array([0.4, 0.1])         # "w" is updated first: finite
    store["z"].grad = np.array([bad])

    def snapshot():
        return (
            {n: store[n].values.tobytes() for n in store.names()},
            {n: (state.m[n].tobytes(), state.v[n].tobytes()) for n in store.names()},
            state.step_count,
        )

    before = snapshot()
    with pytest.raises(NumericError, match="'z'"):
        adamw_step(store, state)
    assert snapshot() == before


def test_grads_cleared_after_step():
    store = make_store([1.0])
    state = init_adamw(store)
    store["w"].grad = np.array([0.5])
    adamw_step(store, state)
    assert store["w"].grad is None


def test_single_step_hand_recurrence():
    # One step with g=0.5 on p=1.0, default betas, no decay.
    lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
    store = make_store([1.0])
    state = init_adamw(store, lr=lr, beta1=b1, beta2=b2, eps=eps, weight_decay=0.0)
    store["w"].grad = np.array([0.5])
    adamw_step(store, state)

    m = (1 - b1) * 0.5
    v = (1 - b2) * 0.25
    m_hat = m / (1 - b1)
    v_hat = v / (1 - b2)
    expected = 1.0 - lr * (m_hat / (np.sqrt(v_hat) + eps))
    assert np.allclose(store["w"].values, [expected], rtol=1e-14)


def test_three_step_recurrence_matches_reference_loop():
    # Independent reference implementation of the same recurrence.
    rng = np.random.default_rng(7)
    p_ref = rng.standard_normal(4)
    grads = [rng.standard_normal(4) for _ in range(3)]
    lr, b1, b2, eps, wd = 1e-3, 0.9, 0.999, 1e-8, 1e-4

    store = make_store(p_ref.copy())
    state = init_adamw(store, lr=lr, beta1=b1, beta2=b2, eps=eps, weight_decay=wd)

    m = np.zeros(4)
    v = np.zeros(4)
    p = p_ref.copy()
    for t, g in enumerate(grads, start=1):
        store["w"].grad = g.copy()
        adamw_step(store, state)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        p = p - lr * ((m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps) + wd * p)
    assert np.allclose(store["w"].values, p, rtol=1e-12, atol=1e-15)
    assert state.step_count == 3


def test_param_store_rejects_duplicates():
    store = ParamStore()
    store.add("a", np.ones(2))
    with pytest.raises(StateError):
        store.add("a", np.ones(2))


def test_param_store_freeze_switch():
    store = ParamStore()
    store.add("a", np.ones(2))
    store.add("b", np.ones(2))
    store.set_frozen({"a"})
    assert store.trainable_names() == ["b"]
    assert not store["a"].requires_grad
    store.set_frozen(set())
    assert store.trainable_names() == ["a", "b"]


def test_grad_check_on_square():
    # d(x^2)/dx at 3 is 6; the checker itself should be nearly exact here.
    err = grad_check(lambda ts: tensor_sum(ts[0] * ts[0]), [np.array([3.0])])
    assert err <= 1e-8


def test_optimizer_descends_quadratic():
    store = make_store([5.0])
    state = init_adamw(store, lr=0.05, weight_decay=0.0)
    for _ in range(300):
        w = store["w"]
        loss = tensor_sum(w * w)
        loss.backward()
        adamw_step(store, state)
    assert abs(store["w"].values[0]) < 0.05
