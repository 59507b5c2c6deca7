import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

from comic.bnn import (
    HALF_LOG_2PI,
    LOG_SCALE_LIMIT,
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
    sampler,
    unpack_params,
)
from comic.errors import ArgumentError
from comic.rng import RngStream, draw_standard_normal
from gradcheck import finite_diff_grad
from noise_oracle import sfc64_normals


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
    eps = draw_standard_normal(stream, np.empty((h_in.shape[0], layer.out_dim)))
    return _layer_forward(layer, h_in, eps, "hidden")[0].copy()


def mean_layer(layer, h_in):
    return _layer_forward(layer, h_in, None, "hidden")[0].copy()


def draw_noise(model, n, stream):
    """The hidden and output noise for n rows, drawn from the "hidden" and
    "output" children of stream, as training and evaluation draw it."""
    return (draw_standard_normal(stream.child("hidden"), np.empty((n, model.hidden_width))),
            draw_standard_normal(stream.child("output"), np.empty((n, 2))))


def stack(*models):
    """One model holding models along a leading axis, its blocks views of a fresh matrix."""
    return unpack_params(models[0], np.stack([pack_params(m) for m in models]))


def random_model(width, stream_seed, jitter_seed):
    model = ConditionalModel.initial(width, RngStream(stream_seed).child("init"))
    rng = np.random.default_rng(jitter_seed)
    vec = pack_params(model) + 0.3 * rng.standard_normal(pack_params(model).size)
    return unpack_params(model, vec)


def grad_buffer(model):
    """A NaN-filled flat gradient vector and the model of its views an objective writes into."""
    vec = np.full(pack_params(model).size, np.nan)
    return vec, unpack_params(model, vec)


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


def test_model_forward_results_survive_later_calls():
    # the passes reuse buffers across calls; what a call returns must not alias them
    model = random_model(5, 3, 4)
    x = np.linspace(-2.0, 2.0, 9)
    for eps in (None, draw_noise(model, 9, RngStream(6).child("mc"))):
        mu, sigma = model_forward(model, x, eps)
        kept = mu.tobytes(), sigma.tobytes()
        model_forward(model, -x, None if eps is None else draw_noise(model, 9, RngStream(8)))
        map_objective(model, -x, x, grad_buffer(model)[1])
        elbo_objective(model, -x, x, 1.0, draw_noise(model, 9, RngStream(7)),
                       grad_buffer(model)[1])
        assert (mu.tobytes(), sigma.tobytes()) == kept


def test_objectives_leave_the_noise_untouched():
    # the caller's noise is shared by every direction and reused by the
    # next call, so no pass may write into it
    model = random_model(5, 3, 4)
    x = np.linspace(-2.0, 2.0, 9)
    eps = draw_noise(model, 9, RngStream(6).child("kept"))
    kept = [e.tobytes() for e in eps]
    elbo_objective(model, x, -x, 0.5, eps, grad_buffer(model)[1])
    model_forward(model, x, eps)
    assert [e.tobytes() for e in eps] == kept


# ---------------------------------------------------------------- losses


def test_gaussian_nll_worked_values():
    assert gaussian_nll([0.0], [0.0], [1.0]) == approx(0.918939, abs=1e-6)
    assert gaussian_nll([2.0], [0.0], [1.0]) == approx(2.918939, abs=1e-6)
    assert gaussian_nll([0.0], [0.0], [2.0]) == approx(1.612086, abs=1e-6)


def test_gaussian_nll_rejects_mismatched_shapes():
    # a length-1 y used to broadcast against 20 predictions and return 19.28 nats
    with pytest.raises(ArgumentError, match="shape"):
        gaussian_nll([0.3], np.zeros(20), np.ones(20))
    with pytest.raises(ArgumentError, match="shape"):
        gaussian_nll(np.zeros(20), np.zeros(20), np.ones(7))


def test_gaussian_nll_rejects_nonpositive_sigma():
    with pytest.raises(ArgumentError):
        gaussian_nll([0.0], [0.0], [0.0])


def test_gaussian_nll_rejects_nan_sigma():
    with pytest.raises(ArgumentError, match="sigma must be strictly positive"):
        gaussian_nll([0.0, 1.0], [0.0, 0.0], [1.0, np.nan])


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
    eps = draw_noise(model, 8, RngStream(9).child("noise"))
    loss = elbo_objective(model, x, y, 0.0, eps, grad_buffer(model)[1])
    mu, sigma = model_forward(model, x, eps)
    assert loss == approx(gaussian_nll(y, mu, sigma), rel=1e-12)


def test_elbo_zero_kl_case():
    model = ConditionalModel(
        hidden=make_layer(np.zeros((1, 2)), logvar=0.0, logvar_b=0.0),
        output=make_layer(np.zeros((2, 2)), logvar=0.0, logvar_b=0.0),
    )
    x = np.zeros(4)
    y = np.zeros(4)
    eps = draw_noise(model, 4, RngStream(2).child("draw"))
    assert kl_model(model) == approx(0.0, abs=1e-14)
    loss = elbo_objective(model, x, y, 1.0, eps, grad_buffer(model)[1])
    mu, sigma = model_forward(model, x, eps)
    assert loss == approx(gaussian_nll(y, mu, sigma), rel=1e-12)


def test_elbo_deterministic_given_stream():
    model = random_model(4, 1, 2)
    x = np.linspace(-2, 2, 10)
    y = np.cos(x)
    stream = RngStream(77).child("epoch-3")
    (g1, grad1), (g2, grad2) = grad_buffer(model), grad_buffer(model)
    l1 = elbo_objective(model, x, y, 0.5, draw_noise(model, 10, stream), grad1)
    l2 = elbo_objective(model, x, y, 0.5, draw_noise(model, 10, stream), grad2)
    assert l1 == l2
    assert np.array_equal(g1, g2)


def test_map_zero_mean_unit_prior_is_pure_nll():
    model = ConditionalModel(
        hidden=make_layer(np.zeros((1, 3))),
        output=make_layer(np.zeros((3, 2))),
    )
    x = np.array([0.5, -0.5, 1.0])
    y = np.array([0.2, 0.1, -0.3])
    loss = map_objective(model, x, y, grad_buffer(model)[1])
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
    loss_base = map_objective(base, x, y, grad_buffer(base)[1])
    loss_bumped = map_objective(bumped, x, y, grad_buffer(bumped)[1])
    assert loss_bumped - loss_base == approx(2.0, rel=1e-12)


# ----------------------------------------------------- gradient exactness


def relative_grad_errors(model, objective):
    analytic, grad = grad_buffer(model)
    objective(model, grad)
    scratch = grad_buffer(model)[1]
    fd = finite_diff_grad(lambda v: objective(unpack_params(model, v), scratch),
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
    noise = draw_noise(model, n, RngStream(width * 7 + n).child("fixed-draw"))

    err_elbo = relative_grad_errors(model, lambda m, g: elbo_objective(m, x, y, 0.7, noise, g))
    err_map = relative_grad_errors(model, lambda m, g: map_objective(m, x, y, g))
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


# ------------------------------------------------- byte-level oracle
#
# Plain reference versions of the hot loop. The package's own versions
# (broadcast products for width-1 inputs, in-place temporaries, the input
# gradient only where it is used, one reused generator) must give every
# loss, gradient and prediction byte for byte as these do.


def oracle_layer_forward(layer, h_in, eps):
    m_out = h_in @ layer.mean_w + layer.mean_b
    if eps is None:
        return m_out, (h_in, None)
    v_w = np.exp(layer.logvar_w)
    v_b = np.exp(layer.logvar_b)
    h_sq = h_in * h_in
    s_out = np.sqrt(h_sq @ v_w + v_b)
    return m_out + s_out * eps, (h_in, (h_sq, v_w, v_b, s_out, eps))


def oracle_layer_backward(layer, cache, g_out, grad):
    h_in, noise = cache
    grad.mean_w += h_in.T @ g_out
    grad.mean_b += g_out.sum(axis=0)
    g_in = g_out @ layer.mean_w.T
    if noise is None:
        return g_in
    h_sq, v_w, v_b, s_out, eps = noise
    g_v = g_out * eps * (0.5 / s_out)
    grad.logvar_w += (h_sq.T @ g_v) * v_w
    grad.logvar_b += g_v.sum(axis=0) * v_b
    return g_in + 2.0 * h_in * (g_v @ v_w.T)


def oracle_nll_head(y, p2):
    mu = p2[:, 0]
    t = p2[:, 1]
    tc = np.clip(t, -LOG_SCALE_LIMIT, LOG_SCALE_LIMIT)
    inv_var = np.exp(-2.0 * tc)
    r = y - mu
    loss = float(np.sum(HALF_LOG_2PI + tc + 0.5 * r * r * inv_var))
    g_mu = -r * inv_var
    g_tc = 1.0 - r * r * inv_var
    active = (t > -LOG_SCALE_LIMIT) & (t < LOG_SCALE_LIMIT)
    return loss, np.stack([g_mu, np.where(active, g_tc, 0.0)], axis=1)


def oracle_data_nll(model, x, y, grad, eps1=None, eps2=None):
    h_in = np.asarray(x, dtype=float)[:, None]
    p1, cache1 = oracle_layer_forward(model.hidden, h_in, eps1)
    a = np.tanh(p1)
    p2, cache2 = oracle_layer_forward(model.output, a, eps2)
    loss, g_p2 = oracle_nll_head(np.asarray(y, dtype=float), p2)
    g_a = oracle_layer_backward(model.output, cache2, g_p2, grad.output)
    oracle_layer_backward(model.hidden, cache1, g_a * (1.0 - a * a), grad.hidden)
    return loss


def oracle_kl_layer(layer, scale):
    ls, lv, mu = layer.log_prior_scale_w, layer.logvar_w, layer.mean_w
    inv_z2 = np.exp(-2.0 * ls)
    v_w = np.exp(lv)
    kl_w = np.sum(ls - 0.5 * lv + (v_w + mu * mu) * inv_z2 * 0.5 - 0.5)
    lvb, mub = layer.logvar_b, layer.mean_b
    v_b = np.exp(lvb)
    kl_b = np.sum(-0.5 * lvb + (v_b + mub * mub) * 0.5 - 0.5)
    grad = VariationalLinearLayer(
        mean_w=scale * mu * inv_z2,
        logvar_w=scale * (-0.5 + 0.5 * v_w * inv_z2),
        mean_b=scale * mub,
        logvar_b=scale * (-0.5 + 0.5 * v_b),
        log_prior_scale_w=scale * (1.0 - (v_w + mu ** 2) * inv_z2),
    )
    return float(kl_w + kl_b), grad


def oracle_map_penalty(layer):
    ls, mu = layer.log_prior_scale_w, layer.mean_w
    inv_z2 = np.exp(-2.0 * ls)
    pen_w = np.sum(ls + 0.5 * mu * mu * inv_z2)
    pen_b = 0.5 * np.sum(layer.mean_b ** 2)
    grad = VariationalLinearLayer(
        mean_w=mu * inv_z2,
        logvar_w=np.zeros_like(layer.logvar_w),
        mean_b=layer.mean_b.copy(),
        logvar_b=np.zeros_like(layer.logvar_b),
        log_prior_scale_w=1.0 - mu ** 2 * inv_z2,
    )
    return float(pen_w + pen_b), grad


def oracle_noise(model, n, stream):
    # a fresh generator per draw, as each stream's definition states
    return (sfc64_normals(stream.child("hidden"), (n, model.hidden_width)),
            sfc64_normals(stream.child("output"), (n, 2)))


def oracle_map_objective(model, x, y):
    pen_hid, grad_hid = oracle_map_penalty(model.hidden)
    pen_out, grad_out = oracle_map_penalty(model.output)
    grad = ConditionalModel(grad_hid, grad_out)
    return oracle_data_nll(model, x, y, grad) + pen_hid + pen_out, grad


def oracle_elbo_objective(model, x, y, beta, stream):
    eps1, eps2 = oracle_noise(model, np.shape(x)[0], stream)
    kl_hid, grad_hid = oracle_kl_layer(model.hidden, beta)
    kl_out, grad_out = oracle_kl_layer(model.output, beta)
    grad = ConditionalModel(grad_hid, grad_out)
    loss_nll = oracle_data_nll(model, x, y, grad, eps1, eps2)
    return loss_nll + beta * (kl_hid + kl_out), grad


def oracle_model_forward(model, x, stream=None):
    eps1, eps2 = (None, None) if stream is None else oracle_noise(model, x.shape[0], stream)
    p1 = oracle_layer_forward(model.hidden, x[:, None], eps1)[0]
    p2 = oracle_layer_forward(model.output, np.tanh(p1), eps2)[0]
    return p2[:, 0], np.exp(np.clip(p2[:, 1], -LOG_SCALE_LIMIT, LOG_SCALE_LIMIT))


def with_signed_zeros(rng, values, share):
    """values with about share of its entries replaced by +0.0 or -0.0."""
    mask = rng.random(values.shape) < share
    values[mask] = rng.choice([0.0, -0.0], size=int(mask.sum()))
    return values


def edge_layer(rng, in_dim, out_dim, mean_scale, zero_share):
    shape = (in_dim, out_dim)
    # log-variances mostly moderate, some pinned at +-20
    logvar_w = np.where(rng.random(shape) < 0.2, rng.choice([-20.0, 20.0], shape),
                        rng.normal(-6.0, 3.0, shape))
    logvar_b = np.where(rng.random(out_dim) < 0.2, rng.choice([-20.0, 20.0], out_dim),
                        rng.normal(-6.0, 3.0, out_dim))
    return VariationalLinearLayer(
        mean_w=with_signed_zeros(rng, rng.normal(0.0, mean_scale, shape), zero_share),
        logvar_w=logvar_w,
        mean_b=with_signed_zeros(rng, rng.normal(0.0, mean_scale, out_dim), zero_share),
        logvar_b=logvar_b,
        log_prior_scale_w=rng.normal(0.0, 0.5, shape),
    )


def edge_problem(width, n, seed, zero_share):
    rng = np.random.default_rng(seed)
    model = ConditionalModel(
        hidden=edge_layer(rng, 1, width, 1.0, zero_share),
        # wide output weights push the log-scale past +-15, into the clamp
        output=edge_layer(rng, width, 2, 20.0 / math.sqrt(width), zero_share),
    )
    x = with_signed_zeros(rng, 2.0 * rng.standard_normal(n), zero_share)
    y = with_signed_zeros(rng, rng.standard_normal(n), zero_share)
    return model, x, y


def objective_bytes(loss, grad):
    return loss.hex(), pack_grads(grad).tobytes()


def package_objective_bytes(objective, model, *args):
    """Loss and gradient bytes of a package objective writing into a fresh NaN-filled vector."""
    vec, grad = grad_buffer(model)
    return objective(model, *args, grad).hex(), vec.tobytes()


def prediction_bytes(mu, sigma):
    return mu.tobytes(), sigma.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    width=st.sampled_from([1, 2, 50]),
    n=st.sampled_from([2, 3, 500]),
    seed=st.integers(0, 2**32 - 1),
    zero_share=st.sampled_from([0.0, 0.3, 1.0]),
    beta=st.sampled_from([0.0, 0.4, 1.0]),
)
def test_hot_loop_matches_oracle_bytes(width, n, seed, zero_share, beta):
    model, x, y = edge_problem(width, n, seed, zero_share)
    stream = RngStream(seed).child("oracle")
    eps = draw_noise(model, n, stream)
    assert (package_objective_bytes(map_objective, model, x, y)
            == objective_bytes(*oracle_map_objective(model, x, y)))
    assert (package_objective_bytes(elbo_objective, model, x, y, beta, eps)
            == objective_bytes(*oracle_elbo_objective(model, x, y, beta, stream)))
    assert (prediction_bytes(*model_forward(model, x))
            == prediction_bytes(*oracle_model_forward(model, x)))
    assert (prediction_bytes(*model_forward(model, x, eps))
            == prediction_bytes(*oracle_model_forward(model, x, stream)))


@settings(max_examples=40, deadline=None)
@given(
    width=st.sampled_from([1, 2, 50]),
    n=st.sampled_from([2, 3, 500]),
    seeds=st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)),
    zero_share=st.sampled_from([0.0, 0.3, 1.0]),
    beta=st.sampled_from([0.0, 0.4, 1.0]),
)
def test_stacked_pair_matches_oracle_bytes_per_slice(width, n, seeds, zero_share, beta):
    # two edge problems stacked on a leading axis go through one pass; each
    # slice must get the bytes the oracle gives that problem alone
    problems = [edge_problem(width, n, seed, zero_share) for seed in seeds]
    model = stack(*(problem[0] for problem in problems))
    x = np.stack([problem[1] for problem in problems])
    y = np.stack([problem[2] for problem in problems])
    stream = RngStream(seeds[0]).child("oracle")
    eps = draw_noise(model, n, stream)
    for objective, args, oracle, oracle_args in (
        (map_objective, (x, y), oracle_map_objective, ()),
        (elbo_objective, (x, y, beta, eps), oracle_elbo_objective, (beta, stream)),
    ):
        vec = np.full((2, pack_params(problems[0][0]).size), np.nan)
        loss = objective(model, *args, unpack_params(model, vec))
        assert loss.shape == (2,)
        for d, (m, xd, yd) in enumerate(problems):
            assert (loss[d].hex(), vec[d].tobytes()) == objective_bytes(
                *oracle(m, xd, yd, *oracle_args))
    # a sampler serves several samples: the second must not see the first
    sample = sampler(model, x)
    sample(*draw_noise(model, n, stream.child("other")))
    for (mu, sigma), oracle_args in ((model_forward(model, x), ()),
                                     (model_forward(model, x, eps), (stream,)),
                                     (sample(*eps), (stream,))):
        assert mu.shape == sigma.shape == (2, n)
        for d, (m, xd, _) in enumerate(problems):
            assert prediction_bytes(mu[d], sigma[d]) == prediction_bytes(
                *oracle_model_forward(m, xd, *oracle_args))


@settings(max_examples=20, deadline=None)
@given(
    width=st.sampled_from([1, 2, 50]),
    n=st.sampled_from([2, 3, 500]),
    seed=st.integers(0, 2**32 - 1),
    beta=st.sampled_from([0.0, 0.4, 1.0]),
)
def test_objectives_overwrite_every_gradient_entry(width, n, seed, beta):
    # one NaN-filled vector serves every call, as in training: each objective
    # must overwrite all of it, the MAP phase's zero log-variance blocks too
    model, x, y = edge_problem(width, n, seed, 0.3)
    stream = RngStream(seed).child("oracle")
    eps = draw_noise(model, n, stream)
    vec, grad = grad_buffer(model)
    for objective, args, oracle, oracle_args in (
        (map_objective, (), oracle_map_objective, ()),
        (elbo_objective, (beta, eps), oracle_elbo_objective, (beta, stream)),
        (map_objective, (), oracle_map_objective, ()),
    ):
        loss = objective(model, x, y, *args, grad)
        assert (loss.hex(), vec.tobytes()) == objective_bytes(
            *oracle(model, x, y, *oracle_args))


def test_oracle_problems_reach_the_clamp_and_signed_zeros():
    # the edge problems exercise what the byte comparison is meant to cover
    model, x, _ = edge_problem(50, 500, 3, 0.3)
    t = oracle_layer_forward(model.output, np.tanh(model.hidden.mean_w * x[:, None]), None)[0][:, 1]
    assert (np.abs(t) > LOG_SCALE_LIMIT).any() and (np.abs(t) < LOG_SCALE_LIMIT).any()
    assert np.signbit(x[x == 0.0]).any() and not np.signbit(x[x == 0.0]).all()
    assert np.signbit(model.hidden.mean_b[model.hidden.mean_b == 0.0]).any()
