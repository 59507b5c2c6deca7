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
    Workspace,
    elbo_objective,
    gaussian_nll,
    _data_nll,
    _kl,
    _layer_forward,
    _map_penalty,
    kl_model,
    map_objective,
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


def layer_pass(layer, h_in, eps=None):
    """One layer's pre-activations for the (n, A) input h_in: sampled on the
    noise eps, or through the posterior means without it."""
    pre = np.empty((3,) + h_in.shape[:-1] + (layer.mean_w.shape[-1],))
    return _layer_forward(layer, h_in, h_in * h_in, eps, pre)[0]


def sampled_layer(layer, h_in, stream):
    """One sampled pass through a single layer, its noise drawn from stream."""
    eps = draw_standard_normal(stream, np.empty((h_in.shape[0], layer.mean_w.shape[-1])))
    return layer_pass(layer, h_in, eps)


def mean_layer(layer, h_in):
    return layer_pass(layer, h_in)


def mean_nll(model, x, y):
    """The NLL of y given x, per model, on the pass through the posterior
    means, priced by the head training minimizes."""
    ws = Workspace(model, x, y, grad=True)
    ws.grad.params.fill(0.0)
    return _data_nll(ws)


def reference_gaussian_nll(y, mu, sigma):
    """Negative log-likelihood of y under N(mu, sigma^2) in nats, summed over
    the last axis: the general form gaussian_nll takes at mu = 0, sigma = 1."""
    y, mu, sigma = (np.asarray(v, dtype=float) for v in (y, mu, sigma))
    r = y - mu
    return np.add.reduce(HALF_LOG_2PI + np.log(sigma) + r * r / (2.0 * sigma * sigma), axis=-1)


def packed(hidden, output):
    """A model whose blocks hold the given layers' blocks, written into a fresh vector."""
    model = ConditionalModel.initial(hidden.mean_w.shape[-1], RngStream(0))
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


def training_workspace(model, x, y):
    """A workspace of (model, x, y) bound with a gradient, its gradient
    matrix NaN-filled, so an entry an objective leaves unwritten shows."""
    ws = Workspace(model, x, y, grad=True)
    ws.grad.params.fill(np.nan)
    return ws


def map_loss(model, x, y):
    """map_objective on a training workspace of (model, x, y)."""
    return map_objective(training_workspace(model, x, y))


def elbo_loss(model, x, y, beta, stream):
    """elbo_objective on a training workspace of (model, x, y)."""
    return elbo_objective(training_workspace(model, x, y), beta, stream)


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
        assert mean_nll(model, x, y) == gaussian_nll(y)


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
            reference_gaussian_nll([y], [mu], [math.exp(mu)]), abs=1e-12)
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
    # the passes over one workspace reuse its arrays; no loss a call returns
    # may alias them, so later passes over other parameters and noise leave
    # it as it was
    model = stack(random_model(5, 3, 4), random_model(5, 4, 5))
    x = np.stack([np.linspace(-2.0, 2.0, 9), np.linspace(-1.0, 3.0, 9)])
    ws = Workspace(model, x, np.sin(x), grad=True)
    passes = [model.sampler(x, np.sin(x)), lambda stream: map_objective(ws),
              lambda stream: elbo_objective(ws, 1.0, stream)]
    losses = [run(RngStream(6)) for run in passes]
    kept = [loss.tobytes() for loss in losses]
    # the sampler's next sample differs by its noise, the objectives' by the parameters
    model.params += 0.25
    assert all(run(RngStream(7)).tobytes() != old for run, old in zip(passes, kept, strict=True))
    assert [loss.tobytes() for loss in losses] == kept


@pytest.mark.parametrize("n,dtype", [(500, np.float64), (4000, np.float64),
                                     (500, np.float32), (4000, np.float32)],
                         ids=["500", "4000", "500-float32", "4000-float32"])
@pytest.mark.parametrize("kind", ["sample", "elbo", "map"])
def test_a_pass_allocates_no_data_sized_array(kind, n, dtype):
    # a Monte Carlo sample or a training epoch writes into the arrays of the
    # workspace bound before it and returns one loss per direction; numpy's
    # broadcast buffer (at most 8192 elements) is what remains, so the peak
    # does not grow with n. Over float32 data this also catches a float64
    # operand slipping into a float32 operation: numpy would run it through a
    # float64 temporary
    model = stack(random_model(50, 1, 2), random_model(50, 3, 4))
    x = np.stack([np.linspace(-2.0, 2.0, n), np.linspace(-1.0, 3.0, n)]).astype(dtype)
    y = np.sin(x)
    ws = Workspace(model, x, y, grad=True)
    run = model.sampler(x, y) if kind == "sample" else {
        "elbo": lambda stream: elbo_objective(ws, 0.5, stream),
        "map": lambda stream: map_objective(ws),
    }[kind]
    run(RngStream(0))
    tracemalloc.start()
    try:
        run(RngStream(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 96 * 1024


def test_a_float32_workspace_keeps_float32_data_and_float64_parameters():
    # the data-sized arrays follow the data's dtype; the parameters, the
    # gradient and each loss's row sum stay float64, and anything but
    # float32 data binds a float64 workspace
    model = stack(random_model(6, 1, 2), random_model(6, 3, 4))
    x = np.stack([np.linspace(-2.0, 2.0, 9), np.linspace(-1.0, 3.0, 9)]).astype(np.float32)
    ws = Workspace(model, x, np.sin(x), grad=True)
    data = [ws.x, ws.x_sq, ws.y, ws.designs, *ws.eps, ws.hidden_pre, ws.output_pre, ws.wb,
            ws.a_sq, ws.head, ws.g_p2, ws.input_grad]
    assert all(array.dtype == np.float32 for array in data)
    assert all(draw.dtype == np.float64 for draw in ws.draws)
    assert ws.model.params.dtype == ws.grad.params.dtype == np.float64
    for loss in (map_objective(ws), elbo_objective(ws, 0.5, RngStream(0)),
                 model.sampler(x, np.sin(x))(RngStream(0))):
        assert loss.dtype == np.float64 and loss.shape == (2,)
    for other in (x.astype(np.float16), x.astype(np.float64), x.astype(int), x.tolist()):
        assert Workspace(model, other, other).head.dtype == np.float64
    # y follows x
    assert Workspace(model, x, np.sin(x).astype(np.float64)).y.dtype == np.float32


def test_a_float32_pass_agrees_with_float64_to_float32_precision():
    # the same passes over float32 data agree with float64 to loose
    # multiples of float32's precision (2^-23 ~ 1.2e-7), as sums over 500
    # rows of rounded terms do
    model = stack(random_model(50, 1, 2), random_model(50, 3, 4))
    x = np.stack([np.linspace(-2.0, 2.0, 500), np.linspace(-1.0, 3.0, 500)])
    y = np.sin(x) + 0.1 * np.cos(7.0 * x)
    stream = RngStream(4).child("f32")
    results = {}
    for dtype in (np.float64, np.float32):
        ws = training_workspace(model, x.astype(dtype), y.astype(dtype))
        results[dtype] = [(map_objective(ws), ws.grad.params.copy()),
                          (elbo_objective(ws, 0.5, stream, -1), ws.grad.params.copy()),
                          (model.sampler(x.astype(dtype), y.astype(dtype))(stream), None)]
    for (loss64, grad64), (loss32, grad32) in zip(*results.values(), strict=True):
        assert loss32 == approx(loss64, rel=1e-6)
        if grad64 is not None:
            assert np.abs(grad32 - grad64).max() <= 1e-5 * np.abs(grad64).max()


@pytest.mark.parametrize("n,dtype", [(500, np.float64), (4000, np.float64),
                                     (500, np.float32), (4000, np.float32)],
                         ids=["500", "4000", "500-float32", "4000-float32"])
def test_a_sampler_keeps_only_the_arrays_a_forward_pass_writes(n, dtype):
    # a sample writes no gradient, so its workspace has no d(loss)/d(p2) and
    # no input gradient (4 x n x H data entries more per direction pair);
    # what the sampler keeps is bounded by the forward arrays, counted from
    # their shapes: the data arrays in the data's dtype, the noise draws in
    # float64, which float32 data keeps a cast of as well
    width, directions = 50, 2
    model = stack(random_model(width, 1, 2), random_model(width, 3, 4))
    x = np.stack([np.linspace(-2.0, 2.0, n), np.linspace(-1.0, 3.0, n)]).astype(dtype)
    y = np.sin(x)
    rows = directions * n
    draws = n * (width + 2)  # the noise pair, shared by the directions
    data = (3 * rows  # the copies of x and y, and x^2
            + 2 * rows * 2  # the designs [x, 1] and [x^2, 1]
            + (draws if dtype is np.float32 else 0)  # the noise pair's cast
            + 3 * rows * (width + 2)  # each layer's pre-activation mean, std and sample
            + directions * 2 * width  # [w; b]
            + rows * width  # a^2
            + 4 * rows)  # the head's rows
    masks = rows * (width + 2)  # one bool per activation
    tracemalloc.start()
    try:
        sample = model.sampler(x, y)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < np.dtype(dtype).itemsize * data + 8 * draws + masks + 16 * 1024
    # and the forward-only workspace is all a sample needs
    assert np.all(np.isfinite(sample(RngStream(0))))


@pytest.mark.parametrize("objective", ["map_objective", "elbo_objective"])
def test_objectives_refuse_a_workspace_bound_without_a_gradient(objective):
    # a forward-only workspace has no gradient arrays; the objectives used to
    # fail inside the pass with a bare AttributeError
    model = random_model(4, 1, 2)
    x = np.linspace(-1.0, 1.0, 7)
    ws = Workspace(model, x, np.sin(x))
    for eps in ws.eps:
        eps.fill(np.nan)
    run = {"map_objective": lambda: map_objective(ws),
           "elbo_objective": lambda: elbo_objective(ws, 0.5, RngStream(0))}[objective]
    with pytest.raises(ArgumentError, match=f"{objective} needs a workspace bound with a gradient"):
        run()
    # refused before any noise was drawn
    assert all(np.isnan(eps).all() for eps in ws.eps)
    assert not hasattr(ws, "g_p2") and not hasattr(ws, "input_grad")


def test_a_training_workspace_builds_its_own_gradient():
    # the gradient is the workspace's, of the model's shape; the finite
    # masks, which only the sampler writes, are a forward-only workspace's
    model = stack(random_model(4, 1, 2), random_model(4, 3, 4))
    x = np.stack([np.linspace(-2.0, 2.0, 9), np.linspace(-1.0, 3.0, 9)])
    ws, other = (Workspace(model, x, np.sin(x), grad=True) for _ in range(2))
    assert ws.grad.params.shape == model.params.shape
    assert ws.grad.hidden_width == model.hidden_width
    assert not np.shares_memory(ws.grad.params, model.params)
    assert not np.shares_memory(ws.grad.params, other.grad.params)
    assert not hasattr(ws, "finite")
    forward = Workspace(model, x, np.sin(x))
    assert forward.grad is None
    assert not hasattr(forward, "g_p2") and not hasattr(forward, "input_grad")
    # a gradient handed in by position is refused, not silently ignored
    with pytest.raises(TypeError):
        Workspace(model, x, np.sin(x), other.grad)


# ---------------------------------------------------------------- losses


def test_gaussian_nll_worked_values():
    assert gaussian_nll(np.array([0.0])) == approx(0.918939, abs=1e-6)
    assert gaussian_nll(np.array([2.0])) == approx(2.918939, abs=1e-6)
    assert reference_gaussian_nll([0.0], [0.0], [2.0]) == approx(1.612086, abs=1e-6)
    # the standard-normal form keeps the general form's bytes at mu = 0, sigma = 1
    y = np.array([[-0.0, 0.0, 1e-300, -3.7, 2.5e150], [1.0, -2.0, 0.5, 7.25, -1e-5]])
    general = reference_gaussian_nll(y, np.zeros_like(y), np.ones_like(y))
    assert gaussian_nll(y).tobytes() == general.tobytes()


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
    loss = elbo_loss(model, x, y, 0.0, stream)
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
    loss = elbo_loss(model, x, y, 1.0, stream)
    assert loss.tobytes() == model.sampler(x, y)(stream).tobytes()


def test_elbo_deterministic_given_stream():
    model = random_model(4, 1, 2)
    x = np.linspace(-2, 2, 10)
    y = np.cos(x)
    stream = RngStream(77).child("epoch-3")
    ws1, ws2 = training_workspace(model, x, y), training_workspace(model, x, y)
    l1 = elbo_objective(ws1, 0.5, stream)
    l2 = elbo_objective(ws2, 0.5, stream)
    assert l1 == l2
    assert np.array_equal(ws1.grad.params, ws2.grad.params)


def test_map_zero_mean_unit_prior_is_pure_nll():
    model = packed(
        hidden=make_layer(np.zeros((1, 3))),
        output=make_layer(np.zeros((3, 2))),
    )
    x = np.array([0.5, -0.5, 1.0])
    y = np.array([0.2, 0.1, -0.3])
    loss = map_loss(model, x, y)
    assert loss == approx(gaussian_nll(y), rel=1e-12)


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
    loss_base = map_loss(base, x, y)
    loss_bumped = map_loss(bumped, x, y)
    assert loss_bumped - loss_base == approx(2.0, rel=1e-12)


# ----------------------------------------------------- gradient exactness


def relative_grad_errors(model, x, y, objective):
    """The relative errors of the gradient objective writes over a training
    workspace of (model, x, y), against central differences of its loss."""
    ws = training_workspace(model, x, y)
    objective(ws)
    fd = finite_diff_grad(
        lambda v: objective(training_workspace(ConditionalModel(v, model.hidden_width), x, y)),
        model.params.copy(), h=1e-5)
    mask = np.abs(fd) > 1e-6
    if not mask.any():
        return np.zeros(1)
    return np.abs(ws.grad.params - fd)[mask] / np.abs(fd)[mask]


@pytest.mark.parametrize("width,n", [(1, 2), (3, 8), (5, 8)])
def test_gradients_match_finite_differences(width, n):
    rng = np.random.default_rng(width * 100 + n)
    x = rng.standard_normal(n)
    y = rng.standard_normal(n)
    model = random_model(width, width + n, width * n)
    stream = RngStream(width * 7 + n).child("fixed-draw")

    err_elbo = relative_grad_errors(model, x, y, lambda ws: elbo_objective(ws, 0.7, stream))
    err_map = relative_grad_errors(model, x, y, map_objective)
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


@pytest.mark.parametrize("objective", [map_loss, elbo_loss], ids=["map", "elbo"])
@pytest.mark.parametrize("case", ["rows-on-single", "one-row-on-stack", "short-y"])
def test_objectives_reject_mismatched_inputs(case, objective):
    # these used to fail inside the pass with a bare numpy ValueError, after
    # the prior terms had written part of the gradient
    single = random_model(4, 2, 3)
    x = np.linspace(-1.0, 1.0, 6)
    model, x, y = {
        "rows-on-single": (single, np.stack([x, x]), np.stack([x, x])),
        "one-row-on-stack": (stack(single, single), x, x),
        "short-y": (single, x, x[:-1]),
    }[case]
    args = (0.5, RngStream(0)) if objective is elbo_loss else ()
    with pytest.raises(ArgumentError, match="shape"):
        objective(model, x, y, *args)


@pytest.mark.parametrize("beta", [1.5, -0.1])
def test_elbo_rejects_beta_outside_the_unit_interval(beta):
    model = random_model(4, 2, 3)
    x = np.linspace(-1.0, 1.0, 6)
    ws = training_workspace(model, x, x)
    with pytest.raises(ArgumentError, match=r"beta must lie in \[0, 1\]"):
        elbo_objective(ws, beta, RngStream(0))
    assert np.isnan(ws.grad.params).all()


@pytest.mark.parametrize("beta", [True, "0.5", None], ids=["bool", "str", "none"])
def test_elbo_refuses_a_beta_that_is_not_a_real_number(beta):
    # True used to train as beta 1.0, and "0.5" or None raised a bare TypeError
    model = random_model(4, 2, 3)
    x = np.linspace(-1.0, 1.0, 6)
    ws = training_workspace(model, x, x)
    with pytest.raises(ArgumentError, match=f"^beta must be a real number, got {beta!r}$"):
        elbo_objective(ws, beta, RngStream(0))
    assert np.isnan(ws.grad.params).all()


def test_elbo_takes_a_numpy_or_int_beta_as_its_float():
    model = random_model(4, 2, 3)
    x = np.linspace(-1.0, 1.0, 6)
    losses = [elbo_loss(model, x, np.sin(x), beta, RngStream(0)).hex()
              for beta in (1.0, 1, np.float64(1.0))]
    assert losses == losses[:1] * 3


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


def oracle_noise(model, n, stream, sign=1):
    # a fresh generator per draw, as each stream's definition states
    return (sign * sfc64_normals(stream.child("hidden"), (n, model.hidden_width)),
            sign * sfc64_normals(stream.child("output"), (n, 2)))


def oracle_map_objective(model, x, y):
    pen_hid, grad_hid = oracle_map_penalty(model.hidden)
    pen_out, grad_out = oracle_map_penalty(model.output)
    grad = packed(grad_hid, grad_out)
    return oracle_data_nll(model, x, y, grad) + pen_hid + pen_out, grad


def oracle_elbo_objective(model, x, y, beta, stream, sign=1):
    eps1, eps2 = oracle_noise(model, np.shape(x)[0], stream, sign)
    kl_hid, grad_hid = oracle_kl_layer(model.hidden, beta)
    kl_out, grad_out = oracle_kl_layer(model.output, beta)
    grad = packed(grad_hid, grad_out)
    loss_nll = oracle_data_nll(model, x, y, grad, eps1, eps2)
    return loss_nll + beta * (kl_hid + kl_out), grad


def oracle_sample_nll(model, x, y, stream, sign=1):
    """The sampled NLL on the noise of (stream, sign); the gradient goes to a scratch model."""
    scratch = ConditionalModel(np.zeros_like(model.params), model.hidden_width)
    return oracle_data_nll(model, x, y, scratch,
                           *oracle_noise(model, np.shape(x)[0], stream, sign))


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


def package_objective_bytes(objective, model, x, y, *args):
    """Loss and gradient bytes of a package objective over a fresh training workspace."""
    ws = training_workspace(model, x, y)
    return objective(ws, *args).hex(), ws.grad.params.tobytes()


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
        (map_objective, (), oracle_map_objective, ()),
        (elbo_objective, (beta, stream), oracle_elbo_objective, (beta, stream)),
    ):
        ws = training_workspace(model, x, y)
        loss = objective(ws, *args)
        assert loss.shape == (2,)
        for d, (m, xd, yd) in enumerate(problems):
            assert (loss[d].hex(), ws.grad.params[d].tobytes()) == objective_bytes(
                *oracle(m, xd, yd, *oracle_args))
    # a sampler serves several samples: the second must not see the first,
    # nor an objective in between over another workspace at another n
    sample = model.sampler(x, y)
    sample(stream.child("other"))
    other, x_other, y_other = edge_problem(width, n + 1, seeds[1], zero_share)
    elbo_loss(other, x_other, y_other, beta, stream)
    for loss in (model.sampler(x, y)(stream), sample(stream)):
        assert loss.shape == (2,)
        for d, (m, xd, yd) in enumerate(problems):
            assert loss[d].hex() == oracle_sample_nll(m, xd, yd, stream).hex()


# (stream tag, sign) of the passes over one workspace: an antithetic pair,
# its sign taken twice and flipped back, another stream, and a return to the
# first stream with each sign
ANTITHETIC_ORDER = [("a", 1), ("a", -1), ("a", -1), ("a", 1), ("b", -1), ("a", -1), ("a", 1)]


@settings(max_examples=20, deadline=None)
@given(
    width=st.sampled_from([2, 50]),
    n=st.sampled_from([2, 3, 500]),
    seed=st.integers(0, 2**32 - 1),
    beta=st.sampled_from([0.0, 0.4, 1.0]),
)
def test_antithetic_passes_match_oracle_bytes_under_negated_noise(width, n, seed, beta):
    # a pass on (stream, -1) is priced on minus the noise of (stream, 1); one
    # workspace remembers its last draw and negates it in place, and every
    # pass in any order still gets the oracle's bytes, which are those of a
    # fresh workspace: the remembered draw never changes a result
    model, x, y = edge_problem(width, n, seed, 0.3)
    streams = {tag: RngStream(seed).child("antithetic", tag) for tag in "ab"}
    ws = training_workspace(model, x, y)
    sample = model.sampler(x, y)
    for tag, sign in ANTITHETIC_ORDER:
        stream = streams[tag]
        oracle = objective_bytes(*oracle_elbo_objective(model, x, y, beta, stream, sign))
        assert (elbo_objective(ws, beta, stream, sign).hex(), ws.grad.params.tobytes()) == oracle
        assert package_objective_bytes(elbo_objective, model, x, y, beta, stream, sign) == oracle
        expected = oracle_sample_nll(model, x, y, stream, sign).hex()
        assert sample(stream, sign).hex() == expected
        assert model.sampler(x, y)(stream, sign).hex() == expected


def test_an_antithetic_pair_draws_its_noise_once(monkeypatch):
    # the second pass of a pair negates the first's noise: two draw calls
    # (hidden and output) per stream, however often its signs alternate
    draws = []
    real = draw_standard_normal

    def counting_draw(stream, out):
        draws.append(stream.tags)
        return real(stream, out)

    monkeypatch.setattr("comic.bnn.draw_standard_normal", counting_draw)
    model, x, y = edge_problem(4, 9, 5, 0.0)
    ws = training_workspace(model, x, y)
    sample = model.sampler(x, y)
    for tag, sign in ANTITHETIC_ORDER:
        elbo_objective(ws, 0.5, RngStream(1).child(tag), sign)
        sample(RngStream(1).child(tag), sign)
    # a, b and a again, for the objective's workspace and the sampler's
    assert [tags[0] for tags in draws] == ["a"] * 4 + ["b"] * 4 + ["a"] * 4


@pytest.mark.parametrize("sign", [0, 2, -2, 0.5, "1", None, True, 1.0,
                                  pytest.param(np.float64(-1.0), id="np.float64(-1.0)")])
def test_a_pass_refuses_a_sign_other_than_plus_or_minus_one(sign):
    # a sign is the integer 1 or -1: a bool, or a float equal to 1 or -1, is
    # refused, as wherever else the package takes an integer
    model, x, y = edge_problem(4, 9, 5, 0.0)
    ws = training_workspace(model, x, y)
    with pytest.raises(ArgumentError, match="sign must be 1 or -1"):
        elbo_objective(ws, 0.5, RngStream(0), sign)
    with pytest.raises(ArgumentError, match="sign must be 1 or -1"):
        model.sampler(x, y)(RngStream(0), sign)
    assert np.isnan(ws.grad.params).all()


def test_a_pass_takes_a_numpy_integer_sign():
    model, x, y = edge_problem(4, 9, 5, 0.0)
    runs = []
    for sign in (-1, np.int64(-1)):
        ws = training_workspace(model, x, y)
        loss = elbo_objective(ws, 0.5, RngStream(0), sign)
        runs.append((loss.tobytes(), ws.grad.params.tobytes(),
                     model.sampler(x, y)(RngStream(0), sign).tobytes()))
    assert runs[0] == runs[1]


@settings(max_examples=20, deadline=None)
@given(
    width=st.sampled_from([2, 50]),
    n=st.sampled_from([2, 3, 500]),
    seed=st.integers(0, 2**32 - 1),
    beta=st.sampled_from([0.0, 0.4, 1.0]),
)
def test_objectives_overwrite_every_gradient_entry(width, n, seed, beta):
    # one workspace and its NaN-filled gradient serve every call, as in
    # training: each objective must overwrite all of the gradient, the MAP
    # phase's zero log-variance blocks too
    model, x, y = edge_problem(width, n, seed, 0.3)
    stream = RngStream(seed).child("oracle")
    ws = training_workspace(model, x, y)
    for objective, args, oracle, oracle_args in (
        (map_objective, (), oracle_map_objective, ()),
        (elbo_objective, (beta, stream), oracle_elbo_objective, (beta, stream)),
        (map_objective, (), oracle_map_objective, ()),
    ):
        loss = objective(ws, *args)
        assert (loss.hex(), ws.grad.params.tobytes()) == objective_bytes(
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
