import dataclasses
import hashlib
import math
import tracemalloc

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
    _kl,
    _layer_forward,
    _map_penalty,
    kl_model,
    map_objective,
    _nll,
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


def mean_nll(model, x, y):
    """The NLL of y given x (float arrays), per model, on the pass through
    the posterior means, priced by the head training minimizes."""
    p1 = _layer_forward(model.hidden, x[..., None], None, "hidden")[0]
    p2 = _layer_forward(model.output, np.tanh(p1, out=p1), None, "output")[0]
    return _nll(y, p2)[0]


def packed(hidden, output):
    """A model whose blocks hold the given layers' blocks, written into a fresh vector."""
    model = ConditionalModel.initial(hidden.out_dim, RngStream(0))
    layers = {"hidden": hidden, "output": output}
    for name, block in model.blocks:
        layer, field = name.split(".")
        block[...] = getattr(layers[layer], field)
    return model


def stack(*models):
    """One model holding models along a leading axis, its blocks views of a fresh matrix."""
    return ConditionalModel(np.stack([m.params for m in models]), models[0].hidden_width)


def random_model(width, stream_seed, jitter_seed):
    model = ConditionalModel.initial(width, RngStream(stream_seed).child("init"))
    rng = np.random.default_rng(jitter_seed)
    vec = model.params + 0.3 * rng.standard_normal(model.params.size)
    return ConditionalModel(vec, width)


def grad_buffer(model):
    """A NaN-filled flat gradient vector and the model of its views an objective writes into."""
    vec = np.full(model.params.size, np.nan)
    return vec, ConditionalModel(vec, model.hidden_width)


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
    model = packed(
        hidden=make_layer(np.zeros((1, 4)), logvar=-60.0),
        output=make_layer(np.zeros((4, 2)), logvar=-60.0),
    )
    x = np.linspace(-3, 3, 7)
    # every row is priced under N(0, 1), whatever y is
    for y in (np.zeros(7), np.linspace(-2.0, 4.0, 7), x):
        assert mean_nll(model, x, y) == gaussian_nll(y, np.zeros(7), np.ones(7))


def test_sigma_clamped_for_adversarial_inputs():
    model = packed(
        hidden=make_layer(np.full((1, 3), 50.0), logvar=-60.0),
        output=make_layer(np.full((3, 2), 50.0), logvar=-60.0),
    )
    x = np.array([-1e6, -10.0, 10.0, 1e6])
    assert np.isfinite(mean_nll(model, x, np.zeros(4)))
    # mu and the log-scale t are both 150 sign(x); priced at y = mu, a row
    # costs HALF_LOG_2PI + t with t clamped to +-15
    for value in x:
        sign = math.copysign(1.0, value)
        loss = mean_nll(model, np.array([value]), np.array([150.0 * sign]))
        assert loss == HALF_LOG_2PI + sign * LOG_SCALE_LIMIT


def test_tiny_network_closed_form():
    model = packed(
        hidden=make_layer([[1.0]], logvar=-60.0),
        output=make_layer([[1.0, 1.0]], logvar=-60.0),
    )
    # mu = tanh(0.5) and sigma = exp(tanh(0.5))
    x, mu = np.array([0.5]), math.tanh(0.5)
    for y in (0.0, mu, 2.0):
        assert mean_nll(model, x, np.array([y])) == approx(
            gaussian_nll([y], [mu], [math.exp(mu)]), abs=1e-12)
    assert mean_nll(model, x, np.array([mu])) == approx(1.381056, abs=1e-6)


def test_nonfinite_intermediate_names_layer():
    from comic.errors import NumericError

    broken = packed(
        hidden=make_layer(np.full((1, 2), np.inf)),
        output=make_layer(np.zeros((2, 2))),
    )
    with np.errstate(invalid="ignore"):
        with pytest.raises(NumericError, match="hidden layer"):
            broken.sampler(np.ones(3), np.zeros(3))(RngStream(0))


def test_model_forward_results_survive_later_calls():
    # the passes reuse buffers across calls; no loss a call returns may alias them
    model = stack(random_model(5, 3, 4), random_model(5, 4, 5))
    x = np.stack([np.linspace(-2.0, 2.0, 9), np.linspace(-1.0, 3.0, 9)])
    grad = ConditionalModel(np.full(model.params.shape, np.nan), model.hidden_width)
    losses = [model.sampler(x, np.sin(x))(RngStream(6).child("mc")),
              map_objective(model, x, np.sin(x), grad),
              elbo_objective(model, x, np.sin(x), 1.0, RngStream(7), grad)]
    kept = [loss.tobytes() for loss in losses]
    model.sampler(-x, x)(RngStream(8))
    map_objective(model, -x, x, grad)
    elbo_objective(model, -x, x, 1.0, RngStream(7), grad)
    assert [loss.tobytes() for loss in losses] == kept


@pytest.mark.parametrize("n", [500, 4000])
@pytest.mark.parametrize("kind", ["sample", "elbo", "map"])
def test_a_pass_allocates_no_data_sized_array(kind, n):
    # a Monte Carlo sample or a training epoch writes into the thread's
    # buffers and returns one loss per direction; numpy's broadcast buffer
    # (at most 8192 elements) is what remains, so the peak does not grow with n
    model = stack(random_model(50, 1, 2), random_model(50, 3, 4))
    x = np.stack([np.linspace(-2.0, 2.0, n), np.linspace(-1.0, 3.0, n)])
    y = np.sin(x)
    grad = ConditionalModel(np.empty_like(model.params), model.hidden_width)
    run = model.sampler(x, y) if kind == "sample" else {
        "elbo": lambda stream: elbo_objective(model, x, y, 0.5, stream, grad),
        "map": lambda stream: map_objective(model, x, y, grad),
    }[kind]
    run(RngStream(0))
    tracemalloc.start()
    try:
        run(RngStream(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 96 * 1024


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
    model = packed(
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
    model = packed(
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
    loss = elbo_objective(model, x, y, 0.0, stream, grad_buffer(model)[1])
    assert loss.tobytes() == model.sampler(x, y)(stream).tobytes()


def test_elbo_zero_kl_case():
    model = packed(
        hidden=make_layer(np.zeros((1, 2)), logvar=0.0, logvar_b=0.0),
        output=make_layer(np.zeros((2, 2)), logvar=0.0, logvar_b=0.0),
    )
    x = np.zeros(4)
    y = np.zeros(4)
    stream = RngStream(2).child("draw")
    assert kl_model(model) == approx(0.0, abs=1e-14)
    loss = elbo_objective(model, x, y, 1.0, stream, grad_buffer(model)[1])
    assert loss.tobytes() == model.sampler(x, y)(stream).tobytes()


def test_elbo_deterministic_given_stream():
    model = random_model(4, 1, 2)
    x = np.linspace(-2, 2, 10)
    y = np.cos(x)
    stream = RngStream(77).child("epoch-3")
    (g1, grad1), (g2, grad2) = grad_buffer(model), grad_buffer(model)
    l1 = elbo_objective(model, x, y, 0.5, stream, grad1)
    l2 = elbo_objective(model, x, y, 0.5, stream, grad2)
    assert l1 == l2
    assert np.array_equal(g1, g2)


def test_map_zero_mean_unit_prior_is_pure_nll():
    model = packed(
        hidden=make_layer(np.zeros((1, 3))),
        output=make_layer(np.zeros((3, 2))),
    )
    x = np.array([0.5, -0.5, 1.0])
    y = np.array([0.2, 0.1, -0.3])
    loss = map_objective(model, x, y, grad_buffer(model)[1])
    assert loss == approx(gaussian_nll(y, np.zeros(3), np.ones(3)), rel=1e-12)


def test_map_prior_penalty_single_weight():
    base = packed(
        hidden=make_layer(np.zeros((1, 1))),
        output=make_layer(np.zeros((1, 2))),
    )
    bumped = packed(
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
    fd = finite_diff_grad(lambda v: objective(ConditionalModel(v, model.hidden_width), scratch),
                          model.params.copy(), h=1e-5)
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
    stream = RngStream(width * 7 + n).child("fixed-draw")

    err_elbo = relative_grad_errors(model, lambda m, g: elbo_objective(m, x, y, 0.7, stream, g))
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
    vec = model.params.copy()
    rebuilt = ConditionalModel(vec.copy(), model.hidden_width)
    assert np.array_equal(rebuilt.params, vec)
    assert [name for name, _ in model.blocks] == [
        f"{layer}.{field.name}" for field in dataclasses.fields(VariationalLinearLayer)
        for layer in ("hidden", "output")]
    # every named block comes back with its shape and values, so a field added
    # to VariationalLinearLayer is packed, unpacked and checked here as it is
    for (name, block), (rebuilt_name, rebuilt_block) in zip(model.blocks, rebuilt.blocks,
                                                            strict=True):
        assert rebuilt_name == name
        assert rebuilt_block.shape == block.shape and np.array_equal(rebuilt_block, block)
    assert sum(block.size for _, block in model.blocks) == vec.size


@pytest.mark.parametrize("shape", [(3,), (50,), (2, 47)], ids=["short", "long", "short-rows"])
def test_unpack_rejects_a_vector_of_the_wrong_length(shape):
    # a short vector used to fail in reshape with a bare ValueError
    model = random_model(4, 2, 3)
    with pytest.raises(ArgumentError, match=f"has {shape[-1]} entries, expected 48"):
        ConditionalModel(np.zeros(shape), model.hidden_width)


def test_initial_model_is_a_view_of_one_packed_vector():
    single = ConditionalModel.initial(4, RngStream(0).child("init"))
    for model in (single, stack(single, single)):
        assert model.params.base is None
        assert all(block.base is model.params for _, block in model.blocks)
        assert all(field_slice.base is model.params for field_slice in model.field_slices)


@pytest.mark.parametrize("width,prefix", [
    (1, "d78e7d1eb4b95ae9"), (6, "70319e52e021e7d6"), (50, "0c98856a44b667f3")])
def test_initial_parameters_are_pinned(width, prefix):
    # sha256 prefixes of the packed initial parameters: every golden score
    # starts from them, and this pins them without training
    model = ConditionalModel.initial(width, RngStream(0).child("init"))
    assert hashlib.sha256(model.params.tobytes()).hexdigest()[:16] == prefix


@pytest.mark.parametrize("width,message", [
    (0, "hidden_width must be >= 1"), (-1, "hidden_width must be >= 1"),
    (2.5, "hidden_width must be an integer, got 2.5"),
    ("3", "hidden_width must be an integer, got '3'")])
@pytest.mark.parametrize("entry", ["initial", "params"])
def test_model_names_a_bad_hidden_width(entry, width, message):
    # these used to escape as a bare ZeroDivisionError, ValueError or
    # TypeError, and ConditionalModel(np.zeros(10), 2.5) asked for 31.5 entries
    with pytest.raises(ArgumentError) as exc:
        if entry == "initial":
            ConditionalModel.initial(width, RngStream(0).child("init"))
        else:
            ConditionalModel(np.zeros(10), width)
    assert str(exc.value) == message


@pytest.mark.parametrize("objective", [map_objective, elbo_objective], ids=["map", "elbo"])
@pytest.mark.parametrize("case", ["rows-on-single", "one-row-on-stack", "short-y",
                                  "grad-rows-on-single"])
def test_objectives_reject_mismatched_inputs(case, objective):
    # the first three used to fail inside the pass with a bare numpy
    # ValueError, after the prior terms had written part of the gradient; a
    # gradient of two rows for one model used to be filled by broadcasting
    single = random_model(4, 2, 3)
    x = np.linspace(-1.0, 1.0, 6)
    model, x, y = {
        "rows-on-single": (single, np.stack([x, x]), np.stack([x, x])),
        "one-row-on-stack": (stack(single, single), x, x),
        "short-y": (single, x, x[:-1]),
        "grad-rows-on-single": (single, x, x),
    }[case]
    rows = (2,) if case == "grad-rows-on-single" else ()
    vec = np.full(rows + model.params.shape, np.nan)
    args = (0.5, RngStream(0)) if objective is elbo_objective else ()
    with pytest.raises(ArgumentError, match="shape"):
        objective(model, x, y, *args, ConditionalModel(vec, model.hidden_width))
    assert np.isnan(vec).all()


@pytest.mark.parametrize("beta", [1.5, -0.1])
def test_elbo_rejects_beta_outside_the_unit_interval(beta):
    model = random_model(4, 2, 3)
    x = np.linspace(-1.0, 1.0, 6)
    vec, grad = grad_buffer(model)
    with pytest.raises(ArgumentError, match=r"beta must lie in \[0, 1\]"):
        elbo_objective(model, x, x, beta, RngStream(0), grad)
    assert np.isnan(vec).all()


# ------------------------------------------------- byte-level oracle
#
# Plain reference versions of the hot loop. The package's own versions
# (a width-1 input's affine map as one product of [h, 1] with [w; b],
# in-place temporaries, the input gradient only where it is used, one
# reused generator) must give every loss, gradient and sampled NLL byte for
# byte as these do, at hidden width 2 or more and with 2 or more rows.


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
    grad = packed(grad_hid, grad_out)
    return oracle_data_nll(model, x, y, grad) + pen_hid + pen_out, grad


def oracle_elbo_objective(model, x, y, beta, stream):
    eps1, eps2 = oracle_noise(model, np.shape(x)[0], stream)
    kl_hid, grad_hid = oracle_kl_layer(model.hidden, beta)
    kl_out, grad_out = oracle_kl_layer(model.output, beta)
    grad = packed(grad_hid, grad_out)
    loss_nll = oracle_data_nll(model, x, y, grad, eps1, eps2)
    return loss_nll + beta * (kl_hid + kl_out), grad


def oracle_sample_nll(model, x, y, stream):
    """The sampled NLL on stream's noise; the gradient goes to a scratch model."""
    return oracle_data_nll(model, x, y, grad_buffer(model)[1],
                           *oracle_noise(model, np.shape(x)[0], stream))


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
    model = packed(
        hidden=edge_layer(rng, 1, width, 1.0, zero_share),
        # wide output weights push the log-scale past +-15, into the clamp
        output=edge_layer(rng, width, 2, 20.0 / math.sqrt(width), zero_share),
    )
    x = with_signed_zeros(rng, 2.0 * rng.standard_normal(n), zero_share)
    y = with_signed_zeros(rng, rng.standard_normal(n), zero_share)
    return model, x, y


def objective_bytes(loss, grad):
    return loss.hex(), grad.params.tobytes()


def package_objective_bytes(objective, model, *args):
    """Loss and gradient bytes of a package objective writing into a fresh NaN-filled vector."""
    vec, grad = grad_buffer(model)
    return objective(model, *args, grad).hex(), vec.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    width=st.sampled_from([2, 50]),
    n=st.sampled_from([2, 3, 500]),
    seed=st.integers(0, 2**32 - 1),
    zero_share=st.sampled_from([0.0, 0.3, 1.0]),
    beta=st.sampled_from([0.0, 0.4, 1.0]),
)
def test_hot_loop_matches_oracle_bytes(width, n, seed, zero_share, beta):
    model, x, y = edge_problem(width, n, seed, zero_share)
    stream = RngStream(seed).child("oracle")
    assert (package_objective_bytes(map_objective, model, x, y)
            == objective_bytes(*oracle_map_objective(model, x, y)))
    assert (package_objective_bytes(elbo_objective, model, x, y, beta, stream)
            == objective_bytes(*oracle_elbo_objective(model, x, y, beta, stream)))
    assert model.sampler(x, y)(stream).hex() == oracle_sample_nll(model, x, y, stream).hex()


@settings(max_examples=40, deadline=None)
@given(
    width=st.sampled_from([2, 50]),
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
    for objective, args, oracle, oracle_args in (
        (map_objective, (x, y), oracle_map_objective, ()),
        (elbo_objective, (x, y, beta, stream), oracle_elbo_objective, (beta, stream)),
    ):
        vec = np.full(model.params.shape, np.nan)
        loss = objective(model, *args, ConditionalModel(vec, width))
        assert loss.shape == (2,)
        for d, (m, xd, yd) in enumerate(problems):
            assert (loss[d].hex(), vec[d].tobytes()) == objective_bytes(
                *oracle(m, xd, yd, *oracle_args))
    # a sampler serves several samples: the second must not see the first,
    # nor the noise buffers an objective in between reallocates at another n
    sample = model.sampler(x, y)
    sample(stream.child("other"))
    other, x_other, y_other = edge_problem(width, n + 1, seeds[1], zero_share)
    elbo_objective(other, x_other, y_other, beta, stream, grad_buffer(other)[1])
    for loss in (model.sampler(x, y)(stream), sample(stream)):
        assert loss.shape == (2,)
        for d, (m, xd, yd) in enumerate(problems):
            assert loss[d].hex() == oracle_sample_nll(m, xd, yd, stream).hex()


@settings(max_examples=20, deadline=None)
@given(
    width=st.sampled_from([2, 50]),
    n=st.sampled_from([2, 3, 500]),
    seed=st.integers(0, 2**32 - 1),
    beta=st.sampled_from([0.0, 0.4, 1.0]),
)
def test_objectives_overwrite_every_gradient_entry(width, n, seed, beta):
    # one NaN-filled vector serves every call, as in training: each objective
    # must overwrite all of it, the MAP phase's zero log-variance blocks too
    model, x, y = edge_problem(width, n, seed, 0.3)
    stream = RngStream(seed).child("oracle")
    vec, grad = grad_buffer(model)
    for objective, args, oracle, oracle_args in (
        (map_objective, (), oracle_map_objective, ()),
        (elbo_objective, (beta, stream), oracle_elbo_objective, (beta, stream)),
        (map_objective, (), oracle_map_objective, ()),
    ):
        loss = objective(model, x, y, *args, grad)
        assert (loss.hex(), vec.tobytes()) == objective_bytes(
            *oracle(model, x, y, *oracle_args))


@pytest.mark.parametrize("stacked", [False, True], ids=["single", "stack"])
@pytest.mark.parametrize("width", [1, 2, 7, 50])
def test_prior_terms_match_the_per_layer_oracles(width, stacked):
    # the KL and the MAP penalty run over both layers' field slices at once;
    # each layer's value and every gradient entry must keep the bytes of the
    # per-layer forms, and a NaN-filled gradient must come back all finite
    problems = [edge_problem(width, 3, seed, 0.3)[0] for seed in (width, width + 100)]
    model = stack(*problems) if stacked else problems[0]
    for scale in (0.4, 1.0):
        vec = np.full(model.params.shape, np.nan)
        kl = _kl(model, scale, ConditionalModel(vec, width))
        assert np.isfinite(vec).all()
        for d, problem in enumerate(problems[:1 + stacked]):
            oracle = [oracle_kl_layer(layer, scale) for layer in (problem.hidden, problem.output)]
            assert [float(np.atleast_1d(value)[d]).hex() for value in kl] == [
                value.hex() for value, _ in oracle]
            assert np.atleast_2d(vec)[d].tobytes() == packed(
                *(grad for _, grad in oracle)).params.tobytes()
    vec = np.full(model.params.shape, np.nan)
    penalty = _map_penalty(model, ConditionalModel(vec, width))
    assert np.isfinite(vec).all()
    for d, problem in enumerate(problems[:1 + stacked]):
        oracle = [oracle_map_penalty(layer) for layer in (problem.hidden, problem.output)]
        assert [float(np.atleast_1d(value)[d]).hex() for value in penalty] == [
            value.hex() for value, _ in oracle]
        assert np.atleast_2d(vec)[d].tobytes() == packed(
            *(grad for _, grad in oracle)).params.tobytes()
        (kl_hidden, _), (kl_output, _) = (oracle_kl_layer(layer, 1.0)
                                          for layer in (problem.hidden, problem.output))
        assert float(np.atleast_1d(kl_model(model))[d]).hex() == (kl_hidden + kl_output).hex()


def test_oracle_problems_reach_the_clamp_and_signed_zeros():
    # the edge problems exercise what the byte comparison is meant to cover
    model, x, _ = edge_problem(50, 500, 3, 0.3)
    t = oracle_layer_forward(model.output, np.tanh(model.hidden.mean_w * x[:, None]), None)[0][:, 1]
    assert (np.abs(t) > LOG_SCALE_LIMIT).any() and (np.abs(t) < LOG_SCALE_LIMIT).any()
    assert np.signbit(x[x == 0.0]).any() and not np.signbit(x[x == 0.0]).all()
    assert np.signbit(model.hidden.mean_b[model.hidden.mean_b == 0.0]).any()
