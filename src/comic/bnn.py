"""Mean-field variational Bayesian network for a scalar conditional density.

The model is a one-hidden-layer network mapping a scalar input to the mean
and log-scale of a Gaussian likelihood. Every weight carries a factorized
Gaussian posterior N(mu, sigma^2) and a zero-mean Gaussian prior whose
per-weight scale is itself a free (log-parametrized) hyperparameter; biases
keep a fixed standard-normal prior. The stochastic forward pass samples
layer pre-activations from their induced Gaussians rather than sampling
weights, which gives identical output distributions at lower variance.

Gradients for both training objectives are hand-derived for this fixed
architecture, so the package needs no autodiff dependency; they are checked
against central differences in the test suite. Parameters and gradients
share one layout, and blocks() is the one walk over it: pack_params
concatenates its blocks into a vector (pack_grads is the same function),
and unpack_params slices a vector by their shapes into a model whose blocks
are views of it. Each objective takes such a view as its gradient and
overwrites every block with d(loss)/d(parameter), so the caller's flat
gradient vector holds the result without any packing.

A model may be a stack of models on leading axes: the two directions of a
pair are one model whose weight blocks are (2, A, B) and bias blocks
(2, B), packed into a (2, P) matrix whose row d is direction d's vector.
Inputs, targets, activations and losses carry the same leading axes; the
noise matrices do not, and broadcast over them, so every model of a stack
sees the same draw. All block arithmetic runs over the trailing axes
(per-slice matmul, sums along the last axes), so one forward/backward path
serves a single model and a stack, and each slice of a stack gets the
bytes it would get alone. One exception was measured: at hidden width 1
and odd n, OpenBLAS's Prescott and Core2 kernels (core "Katmai") give the
product h_in^T @ g of the second slice, which starts off a 16-byte
boundary, other bits than a fresh copy; widths of 2 and more keep the
bytes (a test checks widths 2, 3, 7 and 50 under Prescott). The
objectives and kl_model return one value per model.

Every pass, training or evaluation, goes through one forward/backward pair
per layer: with a noise matrix it is the sampled (local reparameterization)
pass; without one it is the deterministic pass through the posterior means,
which does no variance work and leaves the variance gradients untouched.
A sampled pass takes a stream and draws its own noise from it: an n x H
matrix of standard normals from the stream's "hidden" child and an n x 2
one from its "output" child. sampler() serves Monte Carlo evaluation: the
hidden layer's pre-activation mean and std do not depend on the noise, so
it computes them once and each sample only adds std * eps.

The hidden layer's input has width 1, so its pre-activation mean x*w + b
and variance x^2*v_w + v_b are each one BLAS product of the n x 2 design
[x, 1] (or [x^2, 1]) with the stacked 2 x H weights [w; b]. Every entry is
RN(RN(x*w) + b), with a -0.0 product taken as +0.0: a gemm kernel starts
each sum at +0.0 and adds the two terms in column order, which is why the
ones are the second column. These are the bytes of the broadcast form
x*w + (b + 0.0), which n = 1 or H = 1 keeps: under the Haswell and SkylakeX
kernels the product gave other bits at H = 1 for every n >= 2 tried, and
at n = 1 with H = 50 under SkylakeX; under Prescott, Nehalem and
Sandybridge it did not. A test checks the product against the broadcast
form under four OpenBLAS kernels.

Epochs and Monte Carlo samples allocate no data-sized array: the noise,
the pre-activations, the stds, the hidden layer's design and stacked weights,
the tanh derivative, the input gradient and the scaled noise gradients are
written with out= or in place into one buffer per (layer, role), kept for
the life of the thread and reallocated only when its shape changes (a pair
of another length). A value whose last use has passed is overwritten in
place (the backward pass turns s_out into 0.5 / s_out, for one), so that
few buffers are live and they stay in cache. Each value is computed by the
same operations on the same operands as with fresh arrays, so the bytes
are the same. Every buffer is written before it is read within
one call, so no call sees another's data. Each thread has its own
buffers, so threads scoring at once get the bytes they would get alone.
No value returned to a caller aliases a buffer.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .errors import ArgumentError, NumericError
from .rng import RngStream, draw_standard_normal

HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)

# pre-link clamp on the log-scale head: keeps exp() in [e^-15, e^15]
LOG_SCALE_LIMIT = 15.0

# initial log posterior variance (-9 -> posterior std ~ 0.011)
INIT_LOGVAR = -9.0


@dataclass
class VariationalLinearLayer:
    """Fully-connected layer with Gaussian posteriors and priors.

    mean_w, logvar_w: posterior mean and log-variance per weight (A x B).
    mean_b, logvar_b: posterior mean and log-variance per bias (B).
    log_prior_scale_w: log of the prior std per weight (A x B); the bias
    prior std is fixed at 1 and carries no hyperparameter.

    Every block may carry the same leading (stack) axes: (..., A, B) and
    (..., B). The same type holds a layer's gradient, block for block.
    """

    mean_w: np.ndarray
    logvar_w: np.ndarray
    mean_b: np.ndarray
    logvar_b: np.ndarray
    log_prior_scale_w: np.ndarray

    def __post_init__(self):
        shape = self.mean_w.shape
        if (len(shape) < 2 or self.logvar_w.shape != shape
                or self.log_prior_scale_w.shape != shape):
            raise ArgumentError("weight blocks must share the same A x B shape")
        if self.mean_b.shape != shape[:-2] + shape[-1:] or self.logvar_b.shape != self.mean_b.shape:
            raise ArgumentError("bias blocks must have length B")

    @property
    def in_dim(self) -> int:
        return self.mean_w.shape[-2]

    @property
    def out_dim(self) -> int:
        return self.mean_w.shape[-1]

    @classmethod
    def initial(cls, in_dim: int, out_dim: int, stream: RngStream) -> "VariationalLinearLayer":
        """Mean init uniform in +-1/sqrt(fan_in); tiny posterior variances; unit priors."""
        bound = 1.0 / math.sqrt(in_dim)
        gen = stream.generator()
        mean_w = gen.uniform(-bound, bound, size=(in_dim, out_dim))
        return cls(
            mean_w=mean_w,
            logvar_w=np.full((in_dim, out_dim), INIT_LOGVAR),
            mean_b=np.zeros(out_dim),
            logvar_b=np.full(out_dim, INIT_LOGVAR),
            log_prior_scale_w=np.zeros((in_dim, out_dim)),
        )


@dataclass
class ConditionalModel:
    """One-hidden-layer Bayesian network emitting (mean, std) of y given x.

    Output node 0 is the mean; node 1 is clamped to +-LOG_SCALE_LIMIT and
    exponentiated, so the predicted std is always positive and finite.
    The training objectives write their gradient into a ConditionalModel.
    """

    hidden: VariationalLinearLayer
    output: VariationalLinearLayer

    def __post_init__(self):
        if self.hidden.in_dim != 1:
            raise ArgumentError("hidden layer must take a scalar input")
        if self.output.in_dim != self.hidden.out_dim or self.output.out_dim != 2:
            raise ArgumentError("output layer must map hidden width to 2 nodes")
        if self.output.mean_w.shape[:-2] != self.stack_shape:
            raise ArgumentError("both layers must have the same leading (stack) axes")

    @property
    def hidden_width(self) -> int:
        return self.hidden.out_dim

    @property
    def stack_shape(self) -> tuple[int, ...]:
        """The leading axes of every block: () for one model, (D,) for a stack of D."""
        return self.hidden.mean_w.shape[:-2]

    @classmethod
    def initial(cls, hidden_width: int, stream: RngStream) -> "ConditionalModel":
        return cls(
            hidden=VariationalLinearLayer.initial(1, hidden_width, stream.child("hidden")),
            output=VariationalLinearLayer.initial(hidden_width, 2, stream.child("output")),
        )

    # the duck-typed surface conditional_variational_codelength prices a model
    # through; it stays as the seam where a test substitutes a stand-in model
    # (criterion 8's ScaleToyModel in tests/test_acceptance.py)
    def sampler(self, x: np.ndarray) -> Callable[[RngStream], tuple[np.ndarray, np.ndarray]]:
        return sampler(self, x)

    def kl(self):
        return kl_model(self)


def blocks(model: ConditionalModel) -> list[tuple[str, np.ndarray]]:
    """(name, block) for each block of model, named like "hidden.mean_w": the
    hidden layer's fields and then the output layer's, in field order.

    This is the packed layout, for parameters and gradients alike.
    """
    return [(f"{layer.name}.{field.name}", getattr(getattr(model, layer.name), field.name))
            for layer in fields(ConditionalModel) for field in fields(VariationalLinearLayer)]


def pack_params(model: ConditionalModel) -> np.ndarray:
    """Flatten a model (parameters or gradients) into a new vector; a stack
    of models into a matrix with one row per model."""
    return np.concatenate([block.reshape(model.stack_shape + (-1,))
                           for _, block in blocks(model)], axis=-1)


# gradients share the parameters' layout
pack_grads = pack_params


def unpack_params(model: ConditionalModel, vec: np.ndarray) -> ConditionalModel:
    """A model with model's block shapes whose blocks are views of vec.

    vec's leading axes become the stack axes of the result: a (D, P) matrix
    gives a stack of D models. Writing into vec therefore updates the
    returned model in place.
    """
    lead = len(model.stack_shape)
    shapes = [(name, block.shape[lead:]) for name, block in blocks(model)]
    size = sum(math.prod(shape) for _, shape in shapes)
    if vec.shape[-1] != size:
        raise ArgumentError(f"packed vector has {vec.shape[-1]} entries, expected {size}")
    layers = {}
    offset = 0
    for name, shape in shapes:
        end = offset + math.prod(shape)
        layer, field = name.split(".")
        layers.setdefault(layer, {})[field] = vec[..., offset:end].reshape(vec.shape[:-1] + shape)
        offset = end
    return ConditionalModel(**{layer: VariationalLinearLayer(**views)
                               for layer, views in layers.items()})


_LOCAL = threading.local()


def _buffer(name: str, role: str, shape: tuple[int, ...], dtype=float) -> np.ndarray:
    """This thread's reused array for one role of layer name; its contents are stale.

    Reallocated only when the shape asked for differs from the last one.
    """
    buffers = getattr(_LOCAL, "buffers", None)
    if buffers is None:
        buffers = _LOCAL.buffers = {}
    buf = buffers.get((name, role))
    if buf is None or buf.shape != shape:
        buf = buffers[(name, role)] = np.empty(shape, dtype)
    return buf


def _draw_noise(model: ConditionalModel, n: int, stream: RngStream):
    """The noise (eps_hidden, eps_output) of a sampled pass over n rows, in
    this thread's buffers: n x H and n x 2 standard normals from the
    "hidden" and "output" children of stream."""
    return tuple(draw_standard_normal(stream.child(name), _buffer(name, "eps", (n, width)))
                 for name, width in (("hidden", model.hidden_width), ("output", 2)))


def _affine(h_in: np.ndarray, w: np.ndarray, b: np.ndarray, out: np.ndarray,
            name: str) -> np.ndarray:
    """h_in @ w + b written into out; every entry of a width-1 input is
    RN(RN(h * w) + (b + 0.0)).

    A width-1 input with at least 2 rows and 2 columns goes through one
    product of the design [h_in, 1] with the stacked [w; b], in the layer's
    buffers. A gemm kernel starts each sum at +0.0 and adds the terms in
    column order, so it rounds h * w first, turning a -0.0 product into
    +0.0, and then adds 1 * b exactly as the broadcast form adds b + 0.0.
    1 row or 1 column keeps the broadcast form: there the product gave
    other bits under the Haswell and SkylakeX kernels (at width 1 for every
    n >= 2 tried, and with 1 row at width 50 under SkylakeX), though not
    under Prescott, Nehalem or Sandybridge.
    """
    rows, width = out.shape[-2:]
    if h_in.shape[-1] != 1:
        np.matmul(h_in, w, out=out)
        out += b[..., None, :]
    elif rows < 2 or width < 2:
        np.multiply(h_in, w, out=out)
        out += b[..., None, :] + 0.0
    else:
        # the buffers are stale, the ones column included
        design = _buffer(name, "design", h_in.shape[:-1] + (2,))
        design[..., :1] = h_in
        design[..., 1] = 1.0
        wb = _buffer(name, "wb", w.shape[:-2] + (2, width))
        wb[..., :1, :] = w
        wb[..., 1, :] = b
        np.matmul(design, wb, out=out)
    return out


def _layer_std(layer: VariationalLinearLayer, h_in: np.ndarray, name: str, out: np.ndarray):
    """The pre-activation std sqrt(h_in^2 @ v_w + v_b), written into out,
    and the (h_sq, v_w, v_b) the backward pass needs."""
    v_w = np.exp(layer.logvar_w)
    v_b = np.exp(layer.logvar_b)
    h_sq = np.multiply(h_in, h_in, out=_buffer(name, "h_sq", h_in.shape))
    s_out = np.sqrt(_affine(h_sq, v_w, v_b, out, name), out=out)
    return s_out, (h_sq, v_w, v_b)


def _sample(mean: np.ndarray, std: np.ndarray, eps: np.ndarray, out: np.ndarray) -> np.ndarray:
    """mean + std * eps written into out; mean and std are left as they are."""
    np.multiply(std, eps, out=out)
    return np.add(mean, out, out=out)


def _layer_forward(
    layer: VariationalLinearLayer, h_in: np.ndarray, eps: np.ndarray | None, name: str
):
    """Pre-activations of one layer and the cache its backward pass needs.

    With eps the pre-activations are drawn from their induced Gaussian;
    with eps=None the pass runs through the posterior means only. Both live
    in the buffers of layer name until its next forward pass.
    """
    shape = h_in.shape[:-1] + (layer.out_dim,)
    mean = _affine(h_in, layer.mean_w, layer.mean_b, _buffer(name, "mean", shape), name)
    if eps is None:
        return mean, (h_in, None)
    s_out, (h_sq, v_w, v_b) = _layer_std(layer, h_in, name, _buffer(name, "s_out", shape))
    out = _sample(mean, s_out, eps, _buffer(name, "out", shape))
    return out, (h_in, (h_sq, v_w, v_b, s_out, eps))


def _layer_backward(cache, g_out: np.ndarray, grad: VariationalLinearLayer, name: str):
    """Add the layer's gradient given d(loss)/d(h_out) into grad.

    Returns the scaled noise gradient g_v that _layer_input_grad needs, or
    None on the mean path. g_v gets its own buffer, since eps has no stack
    axes to hold it; no later pass reads the cache's s_out, so 0.5 / s_out
    is written over it.
    """
    h_in, noise = cache
    grad.mean_w += np.swapaxes(h_in, -1, -2) @ g_out
    grad.mean_b += g_out.sum(axis=-2)
    if noise is None:
        return None
    h_sq, v_w, v_b, s_out, eps = noise
    g_v = np.multiply(g_out, eps, out=_buffer(name, "g_v", g_out.shape))
    g_v *= np.divide(0.5, s_out, out=s_out)
    grad.logvar_w += (np.swapaxes(h_sq, -1, -2) @ g_v) * v_w
    grad.logvar_b += g_v.sum(axis=-2) * v_b
    return g_v


def _layer_input_grad(
    layer: VariationalLinearLayer, cache, g_out: np.ndarray, g_v, name: str
) -> np.ndarray:
    """d(loss)/d(h_in), given the g_v that _layer_backward returned."""
    h_in, noise = cache
    g_in = np.matmul(g_out, np.swapaxes(layer.mean_w, -1, -2),
                     out=_buffer(name, "g_in", h_in.shape))
    if g_v is None:
        return g_in
    _, v_w, _, _, _ = noise
    g_h = np.multiply(2.0, h_in, out=_buffer(name, "g_h", h_in.shape))
    g_h *= np.matmul(g_v, np.swapaxes(v_w, -1, -2), out=_buffer(name, "g_v_w", h_in.shape))
    g_in += g_h
    return g_in


def _check_finite(values: np.ndarray, name: str) -> None:
    if not np.isfinite(values, out=_buffer(name, "finite", values.shape, bool)).all():
        raise NumericError(f"non-finite activations in {name} layer")


def _inputs(model: ConditionalModel, x) -> np.ndarray:
    """x as a float array with the model's stack axes followed by one row axis."""
    x = np.asarray(x, dtype=float)
    lead = model.stack_shape
    if x.ndim != len(lead) + 1 or x.shape[:-1] != lead:
        raise ArgumentError(
            f"x must have shape {lead} + (n,) for a model of stack shape {lead}, "
            f"got shape {x.shape}")
    return x


def _predictions(model: ConditionalModel, p1: np.ndarray, eps_output):
    """(mu, sigma) from the hidden pre-activations p1 (a buffer, overwritten)."""
    _check_finite(p1, "hidden")
    p2 = _layer_forward(model.output, np.tanh(p1, out=p1), eps_output, "output")[0]
    _check_finite(p2, "output")
    # p2 is a reused buffer: the caller gets copies
    mu = p2[..., 0].copy()
    sigma = np.exp(np.clip(p2[..., 1], -LOG_SCALE_LIMIT, LOG_SCALE_LIMIT))
    return mu, sigma


def sampler(
    model: ConditionalModel, x: np.ndarray
) -> Callable[[RngStream], tuple[np.ndarray, np.ndarray]]:
    """The function stream -> (mu, sigma) of sampled predictions at x.

    The hidden layer's pre-activation mean x*w + b and std
    sqrt(x^2 * v_w + v_b) do not depend on the noise, so they are computed
    here, once, into arrays the returned function owns; each call draws
    the noise from its stream, forms mean + std * eps_hidden and runs the
    output layer, with the bytes of the sampled pass elbo_objective makes
    on that stream.
    """
    h_in = _inputs(model, x)[..., None]
    shape = h_in.shape[:-1] + (model.hidden_width,)
    mean = _affine(h_in, model.hidden.mean_w, model.hidden.mean_b, np.empty(shape), "hidden")
    std = _layer_std(model.hidden, h_in, "hidden", np.empty(shape))[0]

    def sample(stream: RngStream):
        eps_hidden, eps_output = _draw_noise(model, h_in.shape[-2], stream)
        p1 = _sample(mean, std, eps_hidden, _buffer("hidden", "out", shape))
        return _predictions(model, p1, eps_output)

    return sample


def model_forward(model: ConditionalModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Predict (mu, sigma) for each x through the posterior means.

    sigma = exp(clamped log-scale) > 0. Sampled predictions come from
    sampler(model, x).
    """
    h_in = _inputs(model, x)[..., None]
    return _predictions(model, _layer_forward(model.hidden, h_in, None, "hidden")[0], None)


def gaussian_nll(y: np.ndarray, mu: np.ndarray, sigma: np.ndarray):
    """Negative Gaussian log-likelihood in nats, summed over the last axis."""
    y, mu, sigma = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (y, mu, sigma))
    if not y.shape == mu.shape == sigma.shape:
        raise ArgumentError(f"y, mu, sigma shapes differ: {y.shape}, {mu.shape}, {sigma.shape}")
    # written so that a NaN sigma fails too
    if not np.all(sigma > 0):
        raise ArgumentError("sigma must be strictly positive")
    r = y - mu
    return np.sum(HALF_LOG_2PI + np.log(sigma) + r * r / (2.0 * sigma * sigma), axis=-1)


def _kl_layer(layer: VariationalLinearLayer, scale: float, grad: VariationalLinearLayer):
    """KL of one layer; the gradient of scale * KL overwrites grad."""
    ls = layer.log_prior_scale_w
    lv = layer.logvar_w
    mu = layer.mean_w
    inv_z2 = np.exp(-2.0 * ls)
    v_w = np.exp(lv)
    kl_w = (ls - 0.5 * lv + (v_w + mu * mu) * inv_z2 * 0.5 - 0.5).sum(axis=(-2, -1))
    lvb = layer.logvar_b
    mub = layer.mean_b
    v_b = np.exp(lvb)
    kl_b = (-0.5 * lvb + (v_b + mub * mub) * 0.5 - 0.5).sum(axis=-1)
    grad.mean_w[...] = scale * mu * inv_z2
    grad.logvar_w[...] = scale * (-0.5 + 0.5 * v_w * inv_z2)
    grad.mean_b[...] = scale * mub
    grad.logvar_b[...] = scale * (-0.5 + 0.5 * v_b)
    grad.log_prior_scale_w[...] = scale * (1.0 - (v_w + mu ** 2) * inv_z2)
    return kl_w + kl_b


def kl_model(model: ConditionalModel):
    """Closed-form KL from all factorized posteriors to their priors, in nats, per model."""
    scratch = unpack_params(model, pack_params(model))
    return (_kl_layer(model.hidden, 1.0, scratch.hidden)
            + _kl_layer(model.output, 1.0, scratch.output))


def _map_penalty(layer: VariationalLinearLayer, grad: VariationalLinearLayer):
    """Negative log prior of posterior means, constants dropped; its gradient overwrites grad."""
    ls = layer.log_prior_scale_w
    mu = layer.mean_w
    inv_z2 = np.exp(-2.0 * ls)
    pen_w = (ls + 0.5 * mu * mu * inv_z2).sum(axis=(-2, -1))
    pen_b = 0.5 * (layer.mean_b ** 2).sum(axis=-1)
    grad.mean_w[...] = mu * inv_z2
    grad.logvar_w[...] = 0.0
    grad.mean_b[...] = layer.mean_b
    grad.logvar_b[...] = 0.0
    grad.log_prior_scale_w[...] = 1.0 - mu ** 2 * inv_z2
    return pen_w + pen_b


def _nll_head(y: np.ndarray, p2: np.ndarray):
    """Loss and d(loss)/d(p2) for the Gaussian head with clamped log-scale."""
    mu = p2[..., 0]
    t = p2[..., 1]
    tc = np.clip(t, -LOG_SCALE_LIMIT, LOG_SCALE_LIMIT)
    inv_var = np.exp(-2.0 * tc)
    r = y - mu
    loss = (HALF_LOG_2PI + tc + 0.5 * r * r * inv_var).sum(axis=-1)
    g_p2 = _buffer("output", "g_p2", p2.shape)
    g_p2[..., 0] = -r * inv_var
    g_log_scale = g_p2[..., 1]
    g_log_scale[...] = 1.0 - r * r * inv_var
    # a clamped (or NaN) log-scale passes no gradient
    active = (t > -LOG_SCALE_LIMIT) & (t < LOG_SCALE_LIMIT)
    g_log_scale[~active] = 0.0
    return loss, g_p2


def _data_nll(model, x, y, grad: ConditionalModel, eps=None):
    """NLL of y given x through the network; its gradient is added into grad."""
    eps1, eps2 = (None, None) if eps is None else eps
    h_in = np.asarray(x, dtype=float)[..., None]
    p1, cache1 = _layer_forward(model.hidden, h_in, eps1, "hidden")
    a = np.tanh(p1, out=p1)
    p2, cache2 = _layer_forward(model.output, a, eps2, "output")
    loss, g_p2 = _nll_head(np.asarray(y, dtype=float), p2)
    g_v = _layer_backward(cache2, g_p2, grad.output, "output")
    g_a = _layer_input_grad(model.output, cache2, g_p2, g_v, "output")
    # tanh' = 1 - a^2, formed over a * a in the output layer's h_sq buffer,
    # where the sampled pass has already put it
    if eps2 is None:
        a_sq = np.multiply(a, a, out=_buffer("output", "h_sq", a.shape))
    else:
        a_sq = cache2[1][0]
    g_a *= np.subtract(1.0, a_sq, out=a_sq)
    _layer_backward(cache1, g_a, grad.hidden, "hidden")
    return loss


def elbo_objective(
    model: ConditionalModel, x: np.ndarray, y: np.ndarray, beta: float,
    stream: RngStream, grad: ConditionalModel,
):
    """Sampled NLL plus beta-weighted KL, per model; its exact gradient under
    the noise drawn from stream overwrites grad.

    The objective is a pure function of its arguments, so calls with the
    same stream evaluate the identical stochastic objective.
    """
    if not 0.0 <= beta <= 1.0:
        raise ArgumentError(f"beta must lie in [0, 1], got {beta}")
    eps = _draw_noise(model, np.shape(x)[-1], stream)
    kl_hid = _kl_layer(model.hidden, beta, grad.hidden)
    kl_out = _kl_layer(model.output, beta, grad.output)
    loss_nll = _data_nll(model, x, y, grad, eps)
    return loss_nll + beta * (kl_hid + kl_out)


def map_objective(
    model: ConditionalModel, x: np.ndarray, y: np.ndarray, grad: ConditionalModel
):
    """Joint negative log-likelihood of data, mean parameters and prior scales, per model.

    Deterministic point-estimate phase: posterior variances take no gradient (their blocks get 0).
    """
    pen_hid = _map_penalty(model.hidden, grad.hidden)
    pen_out = _map_penalty(model.output, grad.output)
    return _data_nll(model, x, y, grad) + pen_hid + pen_out
