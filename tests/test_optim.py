import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

from comic.errors import ArgumentError, NumericError
from comic.optim import BETA1, BETA2, EPS, LR_MAX, LR_MIN, adam_step, cosine_lr
from gradcheck import finite_diff_grad

TOTAL = 2500


def adam_oracle(params, grads, m, v, step, lr):
    """The functional Adam update: returns new (params, m, v), inputs untouched."""
    m = BETA1 * m + (1.0 - BETA1) * grads
    v = BETA2 * v + (1.0 - BETA2) * grads * grads
    m_hat = m / (1.0 - BETA1 ** step)
    v_hat = v / (1.0 - BETA2 ** step)
    return params - lr * m_hat / (np.sqrt(v_hat) + EPS), m, v


def test_cosine_endpoints_exact():
    for total in (1, 3, 100, TOTAL):
        assert cosine_lr(0, total) == LR_MAX
        assert cosine_lr(total, total) == LR_MIN


def test_cosine_midpoint():
    assert cosine_lr(1250, TOTAL) == approx(0.0050005, rel=1e-12)


def test_cosine_monotone_non_increasing():
    values = [cosine_lr(t, TOTAL) for t in range(2501)]
    assert all(b <= a for a, b in zip(values, values[1:]))
    assert all(LR_MIN <= v <= LR_MAX for v in values)


def test_cosine_out_of_range():
    with pytest.raises(ArgumentError):
        cosine_lr(-1, TOTAL)
    with pytest.raises(ArgumentError):
        cosine_lr(2501, TOTAL)
    # a schedule of no epochs once divided by zero
    with pytest.raises(ArgumentError, match="total_epochs must be at least 1, got 0"):
        cosine_lr(0, 0)
    # a fractional or boolean length is not a number of epochs
    for total in (2.5, True):
        with pytest.raises(ArgumentError, match="total_epochs must be an integer"):
            cosine_lr(0, total)


def test_adam_zero_grad_fixed_point():
    params = np.array([1.0, -2.0, 3.0])
    new_params = params.copy()
    m, v = np.zeros(3), np.zeros(3)
    adam_step(new_params, np.zeros(3), m, v, 1, lr=0.1)
    assert np.array_equal(new_params, params)
    assert np.array_equal(m, np.zeros(3)) and np.array_equal(v, np.zeros(3))


def test_adam_first_step_bias_corrected():
    params = np.zeros(1)
    adam_step(params, np.array([2.0]), np.zeros(1), np.zeros(1), 1, lr=0.01)
    # bias correction makes the first update -lr * g / (|g| + eps)
    assert params[0] == approx(-0.01, rel=1e-7)


def test_adam_deterministic():
    grads = np.array([0.3, -0.7])
    p1, m1, v1 = np.ones(2), np.zeros(2), np.zeros(2)
    p2, m2, v2 = np.ones(2), np.zeros(2), np.zeros(2)
    adam_step(p1, grads, m1, v1, 1, lr=0.05)
    adam_step(p2, grads, m2, v2, 1, lr=0.05)
    assert np.array_equal(p1, p2)
    assert np.array_equal(m1, m2)
    assert np.array_equal(v1, v2)


def test_adam_second_moment_nonnegative():
    params, m, v = np.zeros(4), np.zeros(4), np.zeros(4)
    rng = np.random.default_rng(1)
    for t in range(25):
        adam_step(params, rng.standard_normal(4), m, v, t + 1, lr=0.01)
    assert np.all(v >= 0)


def test_adam_length_mismatch():
    for sizes in [(3, 3, 2, 3), (3, 3, 3, 2), (2, 3, 3, 3)]:
        params, grads, m, v = (np.zeros(k) for k in sizes)
        with pytest.raises(ArgumentError):
            adam_step(params, grads, m, v, 1, lr=0.1)


@pytest.mark.parametrize("step,lr", [(0, 0.1), (1, 0.0), (1, -0.1), (1, float("nan"))])
def test_adam_rejects_bad_step_and_lr_before_writing(step, lr):
    params, m, v = np.ones(2), np.full(2, 0.5), np.full(2, 0.25)
    with pytest.raises(ArgumentError):
        adam_step(params, np.ones(2), m, v, step, lr)
    assert params.tolist() == [1.0, 1.0] and m.tolist() == [0.5, 0.5]
    assert v.tolist() == [0.25, 0.25]


def test_adam_rejects_infinite_learning_rate_before_writing():
    # an infinite rate used to write [-inf, nan, inf] into the parameters
    params, m, v = np.ones(3), np.full(3, 0.5), np.full(3, 0.25)
    with pytest.raises(ArgumentError, match="finite and positive"):
        adam_step(params, np.array([1.0, 0.0, -1.0]), m, v, 1, math.inf)
    assert params.tolist() == [1.0] * 3 and m.tolist() == [0.5] * 3 and v.tolist() == [0.25] * 3


def test_adam_rejects_fractional_step_before_writing():
    # a step of 1.5 used to be taken as a bias-correction exponent
    params, m, v = np.ones(3), np.full(3, 0.5), np.full(3, 0.25)
    with pytest.raises(ArgumentError, match="step must be an integer"):
        adam_step(params, np.ones(3), m, v, 1.5, 0.1)
    assert params.tolist() == [1.0] * 3 and m.tolist() == [0.5] * 3 and v.tolist() == [0.25] * 3


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_adam_nonfinite_grad_leaves_state_unchanged(bad):
    rng = np.random.default_rng(7)
    params, m, v = rng.standard_normal(5), rng.standard_normal(5), rng.random(5)
    before = [a.tobytes() for a in (params, m, v)]
    grads = rng.standard_normal(5)
    grads[3] = bad
    with pytest.raises(NumericError, match=r"^non-finite gradient in parameter 3$"):
        adam_step(params, grads, m, v, 4, 0.01)
    assert [a.tobytes() for a in (params, m, v)] == before


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
    lr = cosine_lr(t, TOTAL)
    assert LR_MIN <= lr <= LR_MAX


@settings(max_examples=25)
@given(st.lists(st.floats(-5, 5), min_size=1, max_size=6), st.floats(1e-4, 1.0))
def test_adam_pure_and_repeatable(values, lr):
    grads = np.asarray(values)
    params = np.zeros_like(grads)
    p1, m1, v1 = params.copy(), np.zeros_like(grads), np.zeros_like(grads)
    p2, m2, v2 = params.copy(), np.zeros_like(grads), np.zeros_like(grads)
    adam_step(p1, grads, m1, v1, 1, lr=lr)
    adam_step(p2, grads, m2, v2, 1, lr=lr)
    assert np.array_equal(p1, p2)
    assert np.all(v1 >= 0)


EDGE_FLOATS = st.sampled_from([0.0, -0.0, 1e150, -1e150]) | st.floats(-5, 5)


def adam_case(lead, k):
    """A start of shape lead + (k,) and one to five (gradient, lr) steps."""
    size = math.prod(lead) * k
    values = st.lists(EDGE_FLOATS, min_size=size, max_size=size)
    return st.tuples(st.just(lead + (k,)), values,
                     st.lists(st.tuples(values, st.floats(1e-4, 1.0)), min_size=1, max_size=5))


@settings(max_examples=60)
@given(st.tuples(st.sampled_from([(), (2,)]), st.integers(1, 6)).flatmap(
    lambda lead_k: adam_case(*lead_k)))
def test_adam_in_place_matches_functional_oracle_bytes(case):
    # a (2, k) matrix, as training steps both directions of a pair at once,
    # must step like its two rows each stepped by the oracle on its own
    shape, start, steps = case
    params = np.array(start).reshape(shape)
    m, v = np.zeros_like(params), np.zeros_like(params)
    oracle = [(row.copy(), np.zeros_like(row), np.zeros_like(row))
              for row in np.atleast_2d(params)]
    for step, (values, lr) in enumerate(steps, start=1):
        grads = np.array(values).reshape(shape)
        adam_step(params, grads, m, v, step, lr)
        oracle = [adam_oracle(o_params, g, o_m, o_v, step, lr)
                  for (o_params, o_m, o_v), g in zip(oracle, np.atleast_2d(grads))]
        for got, rows in zip((params, m, v), zip(*oracle)):
            assert got.tobytes() == np.stack(rows).reshape(shape).tobytes()
