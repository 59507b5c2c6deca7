import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

from comic.errors import ArgumentError, NumericError
from comic.optim import AdamState, CosineSchedule, adam_step, cosine_lr
from gradcheck import finite_diff_grad

SCHED = CosineSchedule(lr_max=1e-2, lr_min=1e-6, total_epochs=2500)


def test_cosine_endpoints_exact():
    assert cosine_lr(0, SCHED) == 1e-2
    assert cosine_lr(2500, SCHED) == 1e-6


def test_cosine_midpoint():
    assert cosine_lr(1250, SCHED) == approx(0.0050005, rel=1e-12)


def test_cosine_monotone_non_increasing():
    values = [cosine_lr(t, SCHED) for t in range(2501)]
    assert all(b <= a for a, b in zip(values, values[1:]))
    assert all(SCHED.lr_min <= v <= SCHED.lr_max for v in values)


def test_cosine_out_of_range():
    with pytest.raises(ArgumentError):
        cosine_lr(-1, SCHED)
    with pytest.raises(ArgumentError):
        cosine_lr(2501, SCHED)


def test_adam_zero_grad_fixed_point():
    params = np.array([1.0, -2.0, 3.0])
    state = AdamState.initial(3)
    new_state, new_params = adam_step(state, params, np.zeros(3), lr=0.1)
    assert np.array_equal(new_params, params)
    assert new_state.step == 1


def test_adam_first_step_bias_corrected():
    state = AdamState.initial(1)
    _, params = adam_step(state, np.zeros(1), np.array([2.0]), lr=0.01)
    # bias correction makes the first update -lr * g / (|g| + eps)
    assert params[0] == approx(-0.01, rel=1e-7)


def test_adam_deterministic():
    grads = np.array([0.3, -0.7])
    a1, p1 = adam_step(AdamState.initial(2), np.ones(2), grads, lr=0.05)
    a2, p2 = adam_step(AdamState.initial(2), np.ones(2), grads, lr=0.05)
    assert np.array_equal(p1, p2)
    assert np.array_equal(a1.m, a2.m)
    assert np.array_equal(a1.v, a2.v)


def test_adam_second_moment_nonnegative():
    state = AdamState.initial(4)
    params = np.zeros(4)
    rng = np.random.default_rng(1)
    for _ in range(25):
        state, params = adam_step(state, params, rng.standard_normal(4), lr=0.01)
    assert np.all(state.v >= 0)


def test_adam_length_mismatch():
    with pytest.raises(ArgumentError):
        adam_step(AdamState.initial(2), np.zeros(3), np.zeros(3), lr=0.1)


def test_adam_nonfinite_grad_names_block():
    grads = np.array([0.0, np.nan, 0.0])
    blocks = [("alpha", 1), ("beta", 2)]
    with pytest.raises(NumericError, match="beta"):
        adam_step(AdamState.initial(3), np.zeros(3), grads, lr=0.1, param_blocks=blocks)


def test_finite_diff_quadratic():
    grad = finite_diff_grad(lambda v: float(v[0] ** 2), np.array([3.0]), h=1e-4)
    assert grad[0] == approx(6.0, abs=1e-6)


def test_finite_diff_constant():
    grad = finite_diff_grad(lambda v: 4.2, np.array([1.0, -1.0, 0.5]), h=1e-4)
    assert np.array_equal(grad, np.zeros(3))


def test_finite_diff_linear_exact():
    a = np.array([2.0, -0.5, 1.25])
    grad = finite_diff_grad(lambda v: float(a @ v), np.array([0.1, 0.2, 0.3]), h=1e-3)
    assert grad == approx(a, rel=1e-9)


def test_finite_diff_nonfinite_probe():
    with pytest.raises(NumericError):
        finite_diff_grad(lambda v: float("nan"), np.array([1.0]), h=1e-4)


@given(st.integers(min_value=0, max_value=2500))
def test_cosine_within_bounds(t):
    lr = cosine_lr(t, SCHED)
    assert SCHED.lr_min <= lr <= SCHED.lr_max


@settings(max_examples=25)
@given(st.lists(st.floats(-5, 5), min_size=1, max_size=6), st.floats(1e-4, 1.0))
def test_adam_pure_and_repeatable(values, lr):
    grads = np.asarray(values)
    params = np.zeros_like(grads)
    s1, p1 = adam_step(AdamState.initial(grads.size), params, grads, lr=lr)
    s2, p2 = adam_step(AdamState.initial(grads.size), params, grads, lr=lr)
    assert np.array_equal(p1, p2)
    assert np.all(s1.v >= 0)
