import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

from comic.bnn import (
    ConditionalModel,
    VariationalLinearLayer,
    elbo_objective,
    gaussian_nll,
    _layer_forward,
    kl_model,
    map_objective,
    model_forward,
    pack_grads,
    pack_params,
    param_blocks,
    unpack_params,
)
from comic.errors import ArgumentError
from comic.optim import finite_diff_grad
from comic.rng import RngStream, draw_standard_normal


def make_layer(mean_w, logvar=-9.0, mean_b=None, logvar_b=None, log_prior=0.0):
    mean_w = np.asarray(mean_w, dtype=float)
    a, b = mean_w.shape
    return VariationalLinearLayer(
        mean_w=mean_w,
        logvar_w=np.full((a, b), float(logvar)),
        mean_b=np.zeros(b) if mean_b is None else np.asarray(mean_b, dtype=float),
        logvar_b=np.full(b, float(logvar) if logvar_b is None else float(logvar_b)),
        log_prior_scale_w=np.full((a, b), float(log_prior)),
    )


def sampled_layer(layer, h_in, stream):
    """One sampled pass through a single layer, its noise drawn from stream."""
    eps = draw_standard_normal(stream, h_in.shape[0], layer.out_dim)
    return _layer_forward(layer, h_in, eps)[0]


def mean_layer(layer, h_in):
    return _layer_forward(layer, h_in, None)[0]


def random_model(width, stream_seed, jitter_seed):
    model = ConditionalModel.initial(width, RngStream(stream_seed).child("init"))
    rng = np.random.default_rng(jitter_seed)
    vec = pack_params(model) + 0.3 * rng.standard_normal(pack_params(model).size)
    return unpack_params(model, vec)


# ---------------------------------------------------------------- layers


def test_degenerate_variance_layer_is_affine():
    layer = make_layer([[1.0], [1.0]], logvar=-60.0, mean_b=[0.5])
    h_in = np.array([[1.0, 2.0]])
    for tag in ("s1", "s2", "s3"):
        out = sampled_layer(layer, h_in, RngStream(0).child(tag))
        assert out[0, 0] == approx(3.5, abs=1e-12)


def test_zero_input_layer_matches_bias_posterior():
    layer = make_layer(np.ones((2, 3)), logvar=math.log(0.04), mean_b=[1.0, -1.0, 0.0])
    h_in = np.zeros((20000, 2))
    out = sampled_layer(layer, h_in, RngStream(3).child("zero-in"))
    assert out.mean(axis=0) == approx([1.0, -1.0, 0.0], abs=0.01)
    assert out.var(axis=0) == approx([0.04, 0.04, 0.04], rel=0.1)


def test_mean_forward_identity_columns():
    layer = make_layer(np.eye(3), mean_b=[0.0, 0.0, 0.0])
    h_in = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    assert np.array_equal(mean_layer(layer, h_in), h_in)


def test_mean_forward_worked_value():
    layer = make_layer([[3.0]], mean_b=[1.0])
    assert mean_layer(layer, np.array([[2.0]]))[0, 0] == 7.0


def test_mean_forward_matches_degenerate_sampled():
    layer = make_layer([[0.7, -0.2]], logvar=-60.0, mean_b=[0.1, 0.3])
    h_in = np.array([[1.5], [-2.0]])
    sampled = sampled_layer(layer, h_in, RngStream(1).child("x"))
    assert sampled == approx(mean_layer(layer, h_in), abs=1e-11)


def test_local_reparam_monte_carlo_moments():
    # replicated rows of one input are independent draws of the same output
    layer = make_layer([[0.8, -0.4], [0.2, 0.6]], logvar=math.log(0.09),
                       mean_b=[0.5, -0.5], logvar_b=math.log(0.04))
    row = np.array([1.2, -0.7])
    n = 100_000
    h_in = np.tile(row, (n, 1))
    out = sampled_layer(layer, h_in, RngStream(11).child("mc"))
    m_out = row @ layer.mean_w + layer.mean_b
    v_out = (row * row) @ np.exp(layer.logvar_w) + np.exp(layer.logvar_b)
    assert out.mean(axis=0) == approx(m_out, abs=4.0 * np.sqrt(v_out / n).max())
    assert out.var(axis=0) == approx(v_out, rel=0.05)


# ---------------------------------------------------------------- model


def test_prior_collapse_forward_is_standard_normal_params():
    model = ConditionalModel(
        hidden=make_layer(np.zeros((1, 4)), logvar=-60.0),
        output=make_layer(np.zeros((4, 2)), logvar=-60.0),
    )
    x = np.linspace(-3, 3, 7)
    mu, sigma = model_forward(model, x)
    assert np.array_equal(mu, np.zeros(7))
    assert sigma == approx(np.ones(7))


def test_sigma_clamped_for_adversarial_inputs():
    model = ConditionalModel(
        hidden=make_layer(np.full((1, 3), 50.0), logvar=-60.0),
        output=make_layer(np.full((3, 2), 50.0), logvar=-60.0),
    )
    x = np.array([-1e6, -10.0, 10.0, 1e6])
    _, sigma = model_forward(model, x)
    assert np.all(np.isfinite(sigma))
    assert np.all((sigma >= math.exp(-15)) & (sigma <= math.exp(15)))


def test_tiny_network_closed_form():
    model = ConditionalModel(
        hidden=make_layer([[1.0]], logvar=-60.0),
        output=make_layer([[1.0, 1.0]], logvar=-60.0),
    )
    mu, sigma = model_forward(model, np.array([0.5]))
    assert mu[0] == approx(math.tanh(0.5), abs=1e-12)
    assert sigma[0] == approx(math.exp(math.tanh(0.5)), abs=1e-12)
    assert mu[0] == approx(0.4621, abs=1e-4)
    assert sigma[0] == approx(1.5875, abs=1e-4)


def test_nonfinite_intermediate_names_layer():
    from comic.errors import NumericError

    broken = ConditionalModel(
        hidden=make_layer(np.full((1, 2), np.inf)),
        output=make_layer(np.zeros((2, 2))),
    )
    with np.errstate(invalid="ignore"):
        with pytest.raises(NumericError, match="hidden layer"):
            model_forward(broken, np.ones(3))


# ---------------------------------------------------------------- losses


def test_gaussian_nll_worked_values():
    assert gaussian_nll([0.0], [0.0], [1.0]) == approx(0.918939, abs=1e-6)
    assert gaussian_nll([2.0], [0.0], [1.0]) == approx(2.918939, abs=1e-6)
    assert gaussian_nll([0.0], [0.0], [2.0]) == approx(1.612086, abs=1e-6)


def test_gaussian_nll_rejects_nonpositive_sigma():
    with pytest.raises(ArgumentError):
        gaussian_nll([0.0], [0.0], [0.0])


def test_kl_zero_when_posterior_equals_prior():
    model = ConditionalModel(
        hidden=make_layer(np.zeros((1, 3)), logvar=0.0, log_prior=0.0),
        output=make_layer(np.zeros((3, 2)), logvar=0.0, log_prior=0.0,
                          logvar_b=0.0),
    )
    # bias priors are N(0,1): bias logvar 0 and mean 0 contribute zero too
    model.hidden.logvar_b[:] = 0.0
    assert kl_model(model) == approx(0.0, abs=1e-14)


def single_weight_kl(mu, var):
    layer = VariationalLinearLayer(
        mean_w=np.array([[mu]]),
        logvar_w=np.array([[math.log(var)]]),
        mean_b=np.array([0.0]),
        logvar_b=np.array([0.0]),
        log_prior_scale_w=np.array([[0.0]]),
    )
    # bias posterior equals its N(0,1) prior, so only the weight contributes
    model = ConditionalModel(
        hidden=layer,
        output=make_layer(np.zeros((1, 2)), logvar=0.0, logvar_b=0.0),
    )
    return kl_model(model)


def test_kl_worked_values():
    assert single_weight_kl(1.0, 1.0) == approx(0.5, abs=1e-12)
    assert single_weight_kl(0.0, 0.25) == approx(0.318147, abs=1e-6)


@settings(max_examples=40)
@given(st.integers(0, 10_000))
def test_kl_nonnegative(seed):
    model = random_model(3, seed, seed + 1)
    assert kl_model(model) >= 0.0


def test_elbo_beta_zero_is_sampled_nll():
    model = random_model(3, 5, 6)
    x = np.linspace(-1, 1, 8)
    y = np.sin(x)
    stream = RngStream(9).child("noise")
    loss, _ = elbo_objective(model, x, y, 0.0, stream)
    mu, sigma = model_forward(model, x, stream)
    assert loss == approx(gaussian_nll(y, mu, sigma), rel=1e-12)


def test_elbo_zero_kl_case():
    model = ConditionalModel(
        hidden=make_layer(np.zeros((1, 2)), logvar=0.0, logvar_b=0.0),
        output=make_layer(np.zeros((2, 2)), logvar=0.0, logvar_b=0.0),
    )
    x = np.zeros(4)
    y = np.zeros(4)
    stream = RngStream(2).child("draw")
    assert kl_model(model) == approx(0.0, abs=1e-14)
    loss, _ = elbo_objective(model, x, y, 1.0, stream)
    mu, sigma = model_forward(model, x, stream)
    assert loss == approx(gaussian_nll(y, mu, sigma), rel=1e-12)


def test_elbo_deterministic_given_stream():
    model = random_model(4, 1, 2)
    x = np.linspace(-2, 2, 10)
    y = np.cos(x)
    stream = RngStream(77).child("epoch-3")
    l1, g1 = elbo_objective(model, x, y, 0.5, stream)
    l2, g2 = elbo_objective(model, x, y, 0.5, stream)
    assert l1 == l2
    assert np.array_equal(pack_grads(g1), pack_grads(g2))


def test_map_zero_mean_unit_prior_is_pure_nll():
    model = ConditionalModel(
        hidden=make_layer(np.zeros((1, 3))),
        output=make_layer(np.zeros((3, 2))),
    )
    x = np.array([0.5, -0.5, 1.0])
    y = np.array([0.2, 0.1, -0.3])
    loss, _ = map_objective(model, x, y)
    assert loss == approx(gaussian_nll(y, np.zeros(3), np.ones(3)), rel=1e-12)


def test_map_prior_penalty_single_weight():
    base = ConditionalModel(
        hidden=make_layer(np.zeros((1, 1))),
        output=make_layer(np.zeros((1, 2))),
    )
    bumped = ConditionalModel(
        hidden=make_layer(np.array([[2.0]])),
        output=make_layer(np.zeros((1, 2))),
    )
    x = np.zeros(4)
    y = np.zeros(4)
    # x = 0 makes the data term identical, isolating the mu^2/(2 z^2) penalty
    loss_base, _ = map_objective(base, x, y)
    loss_bumped, _ = map_objective(bumped, x, y)
    assert loss_bumped - loss_base == approx(2.0, rel=1e-12)


# ----------------------------------------------------- gradient exactness


def relative_grad_errors(model, objective):
    analytic = pack_grads(objective(model)[1])
    fd = finite_diff_grad(lambda v: objective(unpack_params(model, v))[0],
                          pack_params(model), h=1e-5)
    mask = np.abs(fd) > 1e-6
    if not mask.any():
        return np.zeros(1)
    return np.abs(analytic - fd)[mask] / np.abs(fd)[mask]


@pytest.mark.parametrize("width,n", [(1, 2), (3, 8), (5, 8)])
def test_gradients_match_finite_differences(width, n):
    rng = np.random.default_rng(width * 100 + n)
    x = rng.standard_normal(n)
    y = rng.standard_normal(n)
    model = random_model(width, width + n, width * n)
    noise = RngStream(width * 7 + n).child("fixed-draw")

    err_elbo = relative_grad_errors(model, lambda m: elbo_objective(m, x, y, 0.7, noise))
    err_map = relative_grad_errors(model, lambda m: map_objective(m, x, y))
    assert err_elbo.max() < 1e-4
    assert err_map.max() < 1e-4


def test_local_reparam_matches_weight_space_sampling():
    layer = make_layer([[0.5, -0.3], [0.1, 0.9]], logvar=math.log(0.04),
                       mean_b=[0.2, -0.1], logvar_b=math.log(0.01))
    row = np.array([0.8, -1.1])
    n = 100_000
    out_lr = sampled_layer(layer, np.tile(row, (n, 1)), RngStream(5).child("lr"))

    gen = RngStream(5).child("ws").generator()
    w = layer.mean_w + np.sqrt(np.exp(layer.logvar_w)) * gen.standard_normal((n, 2, 2))
    b = layer.mean_b + np.sqrt(np.exp(layer.logvar_b)) * gen.standard_normal((n, 2))
    out_ws = np.einsum("a,nab->nb", row, w) + b

    # both schemes sample the same per-output Gaussian
    assert out_lr.mean(axis=0) == approx(out_ws.mean(axis=0), abs=0.01)
    assert out_lr.var(axis=0) == approx(out_ws.var(axis=0), rel=0.05)


def test_pack_unpack_roundtrip():
    model = random_model(4, 2, 3)
    vec = pack_params(model)
    rebuilt = unpack_params(model, vec.copy())
    assert np.array_equal(pack_params(rebuilt), vec)
    total = sum(length for _, length in param_blocks(model))
    assert total == vec.size
