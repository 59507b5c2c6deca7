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
share one layout: pack_params flattens a model into a vector (pack_grads is
the same function), and unpack_params turns a vector back into a model
whose blocks are views of it. Each objective takes such a view as its
gradient and overwrites every block with d(loss)/d(parameter), so the
caller's flat gradient vector holds the result without any packing.

Every pass, training or evaluation, goes through one forward/backward pair
per layer: with a noise matrix it is the sampled (local reparameterization)
pass; without one it is the deterministic pass through the posterior means,
which does no variance work and leaves the variance gradients untouched.
model_forward samples when given a stream, drawing the noise exactly as
elbo_objective does, and otherwise predicts from the posterior means.

Epochs and Monte Carlo samples allocate no data-sized array: the noise, the
pre-activations, the stds, the tanh derivative, the input gradient and the
scaled noise gradients are written with out= into one buffer per (layer,
role), kept for the life of the process and reallocated only when its shape
changes (a pair of another length). A value whose last use has passed is
overwritten in place (the backward pass turns eps into g_v, for one), so
that few buffers are live and they stay in cache. Each value is computed by
the same operations on the same operands as with fresh arrays, so the bytes
are the same. Every buffer is written before it is read within one call, so
no call sees another's data. Like the rng's shared generator, the buffers
assume one thread per process, which holds because run_benchmark scores in
parallel with worker processes. No value returned to a caller aliases a
buffer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

    The same type holds a layer's gradient, block for block.
    """

    mean_w: np.ndarray
    logvar_w: np.ndarray
    mean_b: np.ndarray
    logvar_b: np.ndarray
    log_prior_scale_w: np.ndarray

    def __post_init__(self):
        a, b = self.mean_w.shape
        if self.logvar_w.shape != (a, b) or self.log_prior_scale_w.shape != (a, b):
            raise ArgumentError("weight blocks must share the same A x B shape")
        if self.mean_b.shape != (b,) or self.logvar_b.shape != (b,):
            raise ArgumentError("bias blocks must have length B")

    @property
    def in_dim(self) -> int:
        return self.mean_w.shape[0]

    @property
    def out_dim(self) -> int:
        return self.mean_w.shape[1]

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

    @property
    def hidden_width(self) -> int:
        return self.hidden.out_dim

    @classmethod
    def initial(cls, hidden_width: int, stream: RngStream) -> "ConditionalModel":
        return cls(
            hidden=VariationalLinearLayer.initial(1, hidden_width, stream.child("hidden")),
            output=VariationalLinearLayer.initial(hidden_width, 2, stream.child("output")),
        )

    # duck-typed surface used by the codelength estimator
    def sample_predictions(self, x: np.ndarray, stream: RngStream) -> tuple[np.ndarray, np.ndarray]:
        return model_forward(self, x, stream)

    def kl(self) -> float:
        return kl_model(self)


_BLOCK_FIELDS = ("mean_w", "logvar_w", "mean_b", "logvar_b", "log_prior_scale_w")


def param_blocks(model: ConditionalModel) -> list[tuple[str, int]]:
    """(name, length) for each contiguous block of the packed vector."""
    blocks = []
    for lname, layer in (("hidden", model.hidden), ("output", model.output)):
        for f in _BLOCK_FIELDS:
            blocks.append((f"{lname}.{f}", getattr(layer, f).size))
    return blocks


def pack_params(model: ConditionalModel) -> np.ndarray:
    """Flatten a model (parameters or gradients) into a new vector."""
    parts = []
    for layer in (model.hidden, model.output):
        parts.extend(getattr(layer, f).ravel() for f in _BLOCK_FIELDS)
    return np.concatenate(parts)


# gradients share the parameters' layout
pack_grads = pack_params


def unpack_params(model: ConditionalModel, vec: np.ndarray) -> ConditionalModel:
    """A model with the same shapes whose blocks are views of vec.

    Writing into vec therefore updates the returned model in place.
    """
    layers = []
    offset = 0
    for layer in (model.hidden, model.output):
        fields = {}
        for f in _BLOCK_FIELDS:
            block = getattr(layer, f)
            fields[f] = vec[offset:offset + block.size].reshape(block.shape)
            offset += block.size
        layers.append(VariationalLinearLayer(**fields))
    if offset != vec.size:
        raise ArgumentError(f"packed vector has {vec.size} entries, expected {offset}")
    return ConditionalModel(hidden=layers[0], output=layers[1])


_BUFFERS: dict[tuple[str, str], np.ndarray] = {}


def _buffer(name: str, role: str, shape: tuple[int, ...], dtype=float) -> np.ndarray:
    """The process's reused array for one role of layer name; its contents are stale.

    Reallocated only when the shape asked for differs from the last one.
    """
    buf = _BUFFERS.get((name, role))
    if buf is None or buf.shape != shape:
        buf = _BUFFERS[(name, role)] = np.empty(shape, dtype)
    return buf


def _affine(h_in: np.ndarray, w: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """h_in @ w + b written into out, computing a width-1 input as a broadcast product.

    Matmul adds each product to +0.0, so a -0.0 product comes back as +0.0;
    adding the bias plus 0.0 instead gives the same sum for every product
    and bias, -0.0 included.
    """
    if h_in.shape[1] == 1:
        np.multiply(h_in, w, out=out)
        out += b + 0.0
    else:
        np.matmul(h_in, w, out=out)
        out += b
    return out


def _layer_forward(
    layer: VariationalLinearLayer, h_in: np.ndarray, eps: np.ndarray | None, name: str
):
    """Pre-activations of one layer and the cache its backward pass needs.

    With eps the pre-activations are drawn from their induced Gaussian;
    with eps=None the pass runs through the posterior means only. Both live
    in the buffers of layer name until its next forward pass.
    """
    shape = (h_in.shape[0], layer.out_dim)
    out = _affine(h_in, layer.mean_w, layer.mean_b, _buffer(name, "out", shape))
    if eps is None:
        return out, (h_in, None)
    v_w = np.exp(layer.logvar_w)
    v_b = np.exp(layer.logvar_b)
    h_sq = np.multiply(h_in, h_in, out=_buffer(name, "h_sq", h_in.shape))
    s_out = _affine(h_sq, v_w, v_b, _buffer(name, "s_out", shape))
    np.sqrt(s_out, out=s_out)
    # mean + std * eps has the bytes of std * eps + mean: floating-point addition commutes
    out += np.multiply(s_out, eps, out=_buffer(name, "scratch", shape))
    return out, (h_in, (h_sq, v_w, v_b, s_out, eps))


def _layer_backward(
    layer: VariationalLinearLayer, cache, g_out: np.ndarray, grad: VariationalLinearLayer,
    name: str,
):
    """Add the layer's gradient given d(loss)/d(h_out) into grad.

    Returns the scaled noise gradient g_v that _layer_input_grad needs, or
    None on the mean path. No later pass reads the cache's eps or s_out, so
    g_v is written over eps and 0.5 / s_out over s_out.
    """
    h_in, noise = cache
    grad.mean_w += h_in.T @ g_out
    grad.mean_b += g_out.sum(axis=0)
    if noise is None:
        return None
    h_sq, v_w, v_b, s_out, eps = noise
    g_v = np.multiply(g_out, eps, out=eps)
    g_v *= np.divide(0.5, s_out, out=s_out)
    grad.logvar_w += (h_sq.T @ g_v) * v_w
    grad.logvar_b += g_v.sum(axis=0) * v_b
    return g_v


def _layer_input_grad(
    layer: VariationalLinearLayer, cache, g_out: np.ndarray, g_v, name: str
) -> np.ndarray:
    """d(loss)/d(h_in), given the g_v that _layer_backward returned."""
    h_in, noise = cache
    g_in = np.matmul(g_out, layer.mean_w.T, out=_buffer(name, "g_in", h_in.shape))
    if g_v is None:
        return g_in
    _, v_w, _, _, _ = noise
    g_h = np.multiply(2.0, h_in, out=_buffer(name, "g_h", h_in.shape))
    g_h *= np.matmul(g_v, v_w.T, out=_buffer(name, "g_v_w", h_in.shape))
    g_in += g_h
    return g_in


def _noise(model: ConditionalModel, n: int, stream: RngStream):
    """Standard-normal noise for the hidden and output pre-activations of n rows."""
    return (
        draw_standard_normal(stream.child("hidden"),
                             _buffer("hidden", "eps", (n, model.hidden_width))),
        draw_standard_normal(stream.child("output"), _buffer("output", "eps", (n, 2))),
    )


def _check_finite(values: np.ndarray, name: str) -> None:
    if not np.isfinite(values, out=_buffer(name, "finite", values.shape, bool)).all():
        raise NumericError(f"non-finite activations in {name} layer")


def model_forward(
    model: ConditionalModel, x: np.ndarray, stream: RngStream | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Predict (mu, sigma) for each x; sigma = exp(clamped log-scale) > 0.

    Without a stream the pass runs through the posterior means; with one it
    draws the same noise matrices elbo_objective draws from that stream.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ArgumentError(f"x must be a 1-D vector, got shape {x.shape}")
    eps1, eps2 = (None, None) if stream is None else _noise(model, x.shape[0], stream)
    p1 = _layer_forward(model.hidden, x[:, None], eps1, "hidden")[0]
    _check_finite(p1, "hidden")
    p2 = _layer_forward(model.output, np.tanh(p1, out=p1), eps2, "output")[0]
    _check_finite(p2, "output")
    # p2 is a reused buffer: the caller gets copies
    mu = p2[:, 0].copy()
    sigma = np.exp(np.clip(p2[:, 1], -LOG_SCALE_LIMIT, LOG_SCALE_LIMIT))
    return mu, sigma


def gaussian_nll(y: np.ndarray, mu: np.ndarray, sigma: np.ndarray) -> float:
    """Total negative Gaussian log-likelihood in nats."""
    y = np.asarray(y, dtype=float)
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if not y.shape == mu.shape == sigma.shape:
        raise ArgumentError(f"y, mu, sigma shapes differ: {y.shape}, {mu.shape}, {sigma.shape}")
    if np.any(sigma <= 0):
        raise ArgumentError("sigma must be strictly positive")
    r = y - mu
    return float(np.sum(HALF_LOG_2PI + np.log(sigma) + r * r / (2.0 * sigma * sigma)))


def _kl_layer(layer: VariationalLinearLayer, scale: float, grad: VariationalLinearLayer) -> float:
    """KL of one layer; the gradient of scale * KL overwrites grad."""
    ls = layer.log_prior_scale_w
    lv = layer.logvar_w
    mu = layer.mean_w
    inv_z2 = np.exp(-2.0 * ls)
    v_w = np.exp(lv)
    kl_w = (ls - 0.5 * lv + (v_w + mu * mu) * inv_z2 * 0.5 - 0.5).sum()
    lvb = layer.logvar_b
    mub = layer.mean_b
    v_b = np.exp(lvb)
    kl_b = (-0.5 * lvb + (v_b + mub * mub) * 0.5 - 0.5).sum()
    grad.mean_w[...] = scale * mu * inv_z2
    grad.logvar_w[...] = scale * (-0.5 + 0.5 * v_w * inv_z2)
    grad.mean_b[...] = scale * mub
    grad.logvar_b[...] = scale * (-0.5 + 0.5 * v_b)
    grad.log_prior_scale_w[...] = scale * (1.0 - (v_w + mu ** 2) * inv_z2)
    return float(kl_w + kl_b)


def kl_model(model: ConditionalModel) -> float:
    """Closed-form KL from all factorized posteriors to their priors, in nats."""
    scratch = unpack_params(model, pack_params(model))
    return (_kl_layer(model.hidden, 1.0, scratch.hidden)
            + _kl_layer(model.output, 1.0, scratch.output))


def _map_penalty(layer: VariationalLinearLayer, grad: VariationalLinearLayer) -> float:
    """Negative log prior of posterior means, constants dropped; its gradient overwrites grad."""
    ls = layer.log_prior_scale_w
    mu = layer.mean_w
    inv_z2 = np.exp(-2.0 * ls)
    pen_w = (ls + 0.5 * mu * mu * inv_z2).sum()
    pen_b = 0.5 * (layer.mean_b ** 2).sum()
    grad.mean_w[...] = mu * inv_z2
    grad.logvar_w[...] = 0.0
    grad.mean_b[...] = layer.mean_b
    grad.logvar_b[...] = 0.0
    grad.log_prior_scale_w[...] = 1.0 - mu ** 2 * inv_z2
    return float(pen_w + pen_b)


def _nll_head(y: np.ndarray, p2: np.ndarray):
    """Loss and d(loss)/d(p2) for the Gaussian head with clamped log-scale."""
    mu = p2[:, 0]
    t = p2[:, 1]
    tc = np.clip(t, -LOG_SCALE_LIMIT, LOG_SCALE_LIMIT)
    inv_var = np.exp(-2.0 * tc)
    r = y - mu
    loss = float((HALF_LOG_2PI + tc + 0.5 * r * r * inv_var).sum())
    g_p2 = _buffer("output", "g_p2", p2.shape)
    g_p2[:, 0] = -r * inv_var
    g_p2[:, 1] = 1.0 - r * r * inv_var
    # a clamped (or NaN) log-scale passes no gradient
    active = (t > -LOG_SCALE_LIMIT) & (t < LOG_SCALE_LIMIT)
    g_p2[~active, 1] = 0.0
    return loss, g_p2


def _data_nll(model, x, y, grad: ConditionalModel, eps1=None, eps2=None) -> float:
    """NLL of y given x through the network; its gradient is added into grad."""
    h_in = np.asarray(x, dtype=float)[:, None]
    p1, cache1 = _layer_forward(model.hidden, h_in, eps1, "hidden")
    a = np.tanh(p1, out=p1)
    p2, cache2 = _layer_forward(model.output, a, eps2, "output")
    loss, g_p2 = _nll_head(np.asarray(y, dtype=float), p2)
    g_v = _layer_backward(model.output, cache2, g_p2, grad.output, "output")
    g_a = _layer_input_grad(model.output, cache2, g_p2, g_v, "output")
    # tanh' = 1 - a^2, formed over a * a in the output layer's h_sq buffer,
    # where the sampled pass has already put it
    if eps2 is None:
        a_sq = np.multiply(a, a, out=_buffer("output", "h_sq", a.shape))
    else:
        a_sq = cache2[1][0]
    g_a *= np.subtract(1.0, a_sq, out=a_sq)
    _layer_backward(model.hidden, cache1, g_a, grad.hidden, "hidden")
    return loss


def elbo_objective(
    model: ConditionalModel, x: np.ndarray, y: np.ndarray, beta: float, stream: RngStream,
    grad: ConditionalModel,
) -> float:
    """Sampled NLL plus beta-weighted KL; its exact gradient under the draw overwrites grad.

    The noise matrices are a pure function of the stream, so repeated calls
    with the same stream evaluate the identical stochastic objective.
    """
    if not 0.0 <= beta <= 1.0:
        raise ArgumentError(f"beta must lie in [0, 1], got {beta}")
    eps1, eps2 = _noise(model, np.shape(x)[0], stream)
    kl_hid = _kl_layer(model.hidden, beta, grad.hidden)
    kl_out = _kl_layer(model.output, beta, grad.output)
    loss_nll = _data_nll(model, x, y, grad, eps1, eps2)
    return loss_nll + beta * (kl_hid + kl_out)


def map_objective(
    model: ConditionalModel, x: np.ndarray, y: np.ndarray, grad: ConditionalModel
) -> float:
    """Joint negative log-likelihood of data, mean parameters and prior scales.

    Deterministic point-estimate phase: posterior variances take no gradient (their blocks get 0).
    """
    pen_hid = _map_penalty(model.hidden, grad.hidden)
    pen_out = _map_penalty(model.output, grad.output)
    return _data_nll(model, x, y, grad) + pen_hid + pen_out
