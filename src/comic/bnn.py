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
against central differences in the test suite. A gradient is itself a
ConditionalModel whose blocks hold d(loss)/d(parameter), so parameters and
gradients share one layout: pack_params flattens either into the same
vector (pack_grads is the same function), and unpack_params turns a vector
back into a model whose blocks are views of it.

Every pass, training or evaluation, goes through one forward/backward pair
per layer: with a noise matrix it is the sampled (local reparameterization)
pass; without one it is the deterministic pass through the posterior means,
which does no variance work and leaves the variance gradients untouched.
model_forward samples when given a stream, drawing the noise exactly as
elbo_objective does, and otherwise predicts from the posterior means.
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
    The training objectives return their gradient as a ConditionalModel.
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


def _layer_forward(layer: VariationalLinearLayer, h_in: np.ndarray, eps: np.ndarray | None):
    """Pre-activations of one layer and the cache its backward pass needs.

    With eps the pre-activations are drawn from their induced Gaussian;
    with eps=None the pass runs through the posterior means only.
    """
    m_out = h_in @ layer.mean_w + layer.mean_b
    if eps is None:
        return m_out, (h_in, None)
    v_w = np.exp(layer.logvar_w)
    v_b = np.exp(layer.logvar_b)
    h_sq = h_in * h_in
    s_out = np.sqrt(h_sq @ v_w + v_b)
    return m_out + s_out * eps, (h_in, (h_sq, v_w, v_b, s_out, eps))


def _layer_backward(
    layer: VariationalLinearLayer, cache, g_out: np.ndarray, grad: VariationalLinearLayer
) -> np.ndarray:
    """Add the layer's gradient given d(loss)/d(h_out) into grad; return d(loss)/d(h_in)."""
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


def _noise(model: ConditionalModel, n: int, stream: RngStream):
    """Standard-normal noise for the hidden and output pre-activations of n rows."""
    return (
        draw_standard_normal(stream.child("hidden"), n, model.hidden_width),
        draw_standard_normal(stream.child("output"), n, 2),
    )


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
    p1 = _layer_forward(model.hidden, x[:, None], eps1)[0]
    if not np.isfinite(p1).all():
        raise NumericError("non-finite activations in hidden layer")
    p2 = _layer_forward(model.output, np.tanh(p1), eps2)[0]
    if not np.isfinite(p2).all():
        raise NumericError("non-finite activations in output layer")
    mu = p2[:, 0]
    sigma = np.exp(np.clip(p2[:, 1], -LOG_SCALE_LIMIT, LOG_SCALE_LIMIT))
    return mu, sigma


def gaussian_nll(y: np.ndarray, mu: np.ndarray, sigma: np.ndarray) -> float:
    """Total negative Gaussian log-likelihood in nats."""
    y = np.asarray(y, dtype=float)
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if np.any(sigma <= 0):
        raise ArgumentError("sigma must be strictly positive")
    r = y - mu
    return float(np.sum(HALF_LOG_2PI + np.log(sigma) + r * r / (2.0 * sigma * sigma)))


def _kl_layer(layer: VariationalLinearLayer, scale: float):
    """KL of one layer and the gradient of scale * KL."""
    ls = layer.log_prior_scale_w
    lv = layer.logvar_w
    mu = layer.mean_w
    inv_z2 = np.exp(-2.0 * ls)
    v_w = np.exp(lv)
    kl_w = np.sum(ls - 0.5 * lv + (v_w + mu * mu) * inv_z2 * 0.5 - 0.5)
    lvb = layer.logvar_b
    mub = layer.mean_b
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


def kl_model(model: ConditionalModel) -> float:
    """Closed-form KL from all factorized posteriors to their priors, in nats."""
    return _kl_layer(model.hidden, 1.0)[0] + _kl_layer(model.output, 1.0)[0]


def _map_penalty(layer: VariationalLinearLayer):
    """Negative log prior of the posterior means, constants dropped, and its gradient."""
    ls = layer.log_prior_scale_w
    mu = layer.mean_w
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


def _nll_head(y: np.ndarray, p2: np.ndarray):
    """Loss and d(loss)/d(p2) for the Gaussian head with clamped log-scale."""
    mu = p2[:, 0]
    t = p2[:, 1]
    tc = np.clip(t, -LOG_SCALE_LIMIT, LOG_SCALE_LIMIT)
    inv_var = np.exp(-2.0 * tc)
    r = y - mu
    loss = float(np.sum(HALF_LOG_2PI + tc + 0.5 * r * r * inv_var))
    g_mu = -r * inv_var
    g_tc = 1.0 - r * r * inv_var
    active = (t > -LOG_SCALE_LIMIT) & (t < LOG_SCALE_LIMIT)
    g_p2 = np.stack([g_mu, np.where(active, g_tc, 0.0)], axis=1)
    return loss, g_p2


def _data_nll(model, x, y, grad: ConditionalModel, eps1=None, eps2=None) -> float:
    """NLL of y given x through the network; its gradient is added into grad."""
    h_in = np.asarray(x, dtype=float)[:, None]
    p1, cache1 = _layer_forward(model.hidden, h_in, eps1)
    a = np.tanh(p1)
    p2, cache2 = _layer_forward(model.output, a, eps2)
    loss, g_p2 = _nll_head(np.asarray(y, dtype=float), p2)
    g_a = _layer_backward(model.output, cache2, g_p2, grad.output)
    _layer_backward(model.hidden, cache1, g_a * (1.0 - a * a), grad.hidden)
    return loss


def elbo_objective(
    model: ConditionalModel,
    x: np.ndarray,
    y: np.ndarray,
    beta: float,
    stream: RngStream,
) -> tuple[float, ConditionalModel]:
    """Sampled NLL plus beta-weighted KL, with exact gradients under the draw.

    The noise matrices are a pure function of the stream, so repeated calls
    with the same stream evaluate the identical stochastic objective.
    """
    if not 0.0 <= beta <= 1.0:
        raise ArgumentError(f"beta must lie in [0, 1], got {beta}")
    eps1, eps2 = _noise(model, np.shape(x)[0], stream)
    kl_hid, grad_hid = _kl_layer(model.hidden, beta)
    kl_out, grad_out = _kl_layer(model.output, beta)
    grad = ConditionalModel(grad_hid, grad_out)
    loss_nll = _data_nll(model, x, y, grad, eps1, eps2)
    return loss_nll + beta * (kl_hid + kl_out), grad


def map_objective(
    model: ConditionalModel, x: np.ndarray, y: np.ndarray
) -> tuple[float, ConditionalModel]:
    """Joint negative log-likelihood of data, mean parameters and prior scales.

    Deterministic point-estimate phase: posterior variances take no gradient.
    """
    pen_hid, grad_hid = _map_penalty(model.hidden)
    pen_out, grad_out = _map_penalty(model.output)
    grad = ConditionalModel(grad_hid, grad_out)
    loss_nll = _data_nll(model, x, y, grad)
    return loss_nll + pen_hid + pen_out, grad
