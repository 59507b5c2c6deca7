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
against central differences in the test suite. A model is its packed
parameter matrix. The layout, derived from the hidden width alone, is
field-major: the hidden layer's mean_w, the output layer's mean_w, then
both layers' logvar_w, and so on, so each field's blocks of both layers are
one contiguous slice, the hidden layer's hidden_width entries first.
ConditionalModel binds views of the matrix once, when it is built: each
layer's blocks, each field's slice and each block by name in packed order,
so writing into the matrix updates the model in place. A gradient is a
ConditionalModel over its own matrix. The prior terms (the KL and the MAP
penalty) run as one pass of whole-slice operations over both layers; each
layer's sum still runs over its own part of a slice, so it adds what it
added over its block alone, in the same order. Each objective overwrites
every block of its gradient with d(loss)/d(parameter), so the caller's
flat gradient vector holds the result without any packing.

A model may be a stack of models on leading axes: the two directions of a
pair are one model whose weight blocks are (2, A, B) and bias blocks
(2, B), packed into a (2, P) matrix whose row d is direction d's vector.
Inputs, targets, activations and losses carry the same leading axes; the
noise matrices do not, and broadcast over them, so every model of a stack
sees the same draw. All block arithmetic runs over the trailing axes
(per-slice matmul, sums along the last axes), so one forward/backward path
serves a single model and a stack, and each slice of a stack gets the
bytes it would get alone (for the shapes named below). The objectives and
kl_model return one value per model.

Every pass, training or evaluation, goes through one forward/backward pair
per layer: with a noise matrix it is the sampled (local reparameterization)
pass; without one it is the deterministic pass through the posterior means,
which does no variance work and leaves the variance gradients untouched.
A sampled pass takes a stream and draws its own noise from it: an n x H
matrix of standard normals from the stream's "hidden" child and an n x 2
one from its "output" child. ConditionalModel.sampler serves Monte Carlo
evaluation: the hidden layer's pre-activation mean and std do not depend
on the noise, so it computes them once and each sample only adds
std * eps. A sample prices y with _nll, the head training minimizes:
elbo_objective's bytes at beta 0.

The hidden layer's input has width 1, so its pre-activation mean x*w + b
and variance x^2*v_w + v_b are each one BLAS product of the n x 2 design
[x, 1] (or [x^2, 1]) with the stacked 2 x H weights [w; b]. Every entry is
RN(RN(x*w) + b), with a -0.0 product taken as +0.0: a gemm kernel starts
each sum at +0.0 and adds the two terms in column order, which is why the
ones are the second column. These are the bytes of the broadcast form
x*w + (b + 0.0).

Both byte promises, a stacked slice's and the broadcast form's, are made
for at least 2 rows and hidden width at least 2, as every scored pair has
(TrainConfig asks for width >= 2). Other shapes get the same values, but
under some OpenBLAS kernels the design product and the (1 x n) @ (n x 1)
gradient products gave them other bits, and einsum keeps g.sum(axis=-2)'s
order only over 2 or more columns.

Every pass, a training epoch or a Monte Carlo sample, allocates no
data-sized array (numpy may buffer a broadcast operand, at most 8192
elements) and returns one loss per model; ConditionalModel.sampler
allocates the hidden mean and std its samples share once. The noise, the
pre-activations, the squared inputs, the stds, the designs [h, 1] and
stacked weights [w; b], the tanh derivative, the input gradient and the
scaled noise gradients are written with out= or in place into one buffer
per (layer, role), kept for the life of the thread and reallocated only
when its shape changes (a pair of another length). A value whose last use
has passed is overwritten in place (the backward pass turns s_out into
0.5 / s_out and d(loss)/d(h_out) into the scaled noise gradient), so that
few buffers are live and they stay in cache; an in-place product on n x H
arrays also costs about half of one into another array. Each value is
computed by the same operations on the same operands as with fresh
arrays, so the bytes are the same. Every buffer is written before it is
read within one call, so no call sees another's data. Each thread has its
own buffers, so threads scoring at once get the bytes they would get
alone. No value returned to a caller aliases a buffer.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .errors import ArgumentError, NumericError, check_count
from .rng import RngStream, draw_standard_normal

HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)

# pre-link clamp on the log-scale head: keeps exp() in [e^-15, e^15]
LOG_SCALE_LIMIT = 15.0

# initial log posterior variance (-9 -> posterior std ~ 0.011)
INIT_LOGVAR = -9.0

# The scalar operands of the per-epoch arithmetic, as 0-d arrays: numpy turns
# a Python float operand into an array on every call, which costs about as
# much as the operation itself on a parameter-sized block. They hold the
# literals' doubles, so every result keeps its bytes.
_HALF, _ONE, _TWO, _MINUS_TWO = (np.array(v) for v in (0.5, 1.0, 2.0, -2.0))
_HALF_LOG_2PI = np.array(HALF_LOG_2PI)
_LIMIT, _MINUS_LIMIT = np.array(LOG_SCALE_LIMIT), np.array(-LOG_SCALE_LIMIT)


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

    @property
    def out_dim(self) -> int:
        return self.mean_w.shape[-1]


def _layout(hidden_width: int):
    """The packed layout at hidden_width: {(layer, field): (start, end,
    shape)} of each block, and (start, end) of each field's slice over both
    layers, in field order. Fields ending in _w are A x B, the others B."""
    hidden_width = check_count("hidden_width", hidden_width, 1)
    dims = {"hidden": (1, hidden_width), "output": (hidden_width, 2)}
    spans, slices = {}, []
    offset = 0
    for field in fields(VariationalLinearLayer):
        start = offset
        for layer, dim in dims.items():
            shape = dim if field.name.endswith("_w") else dim[1:]
            end = offset + math.prod(shape)
            spans[layer, field.name] = offset, end, shape
            offset = end
        slices.append((start, offset))
    return spans, slices


class ConditionalModel:
    """One-hidden-layer Bayesian network emitting (mean, std) of y given x.

    Output node 0 is the mean; node 1 is clamped to +-LOG_SCALE_LIMIT and
    exponentiated, so the predicted std is always positive and finite.
    The training objectives write their gradient into a ConditionalModel.

    Built from a (..., P) parameter matrix and the hidden width: params's
    leading axes are the stack axes, a (D, P) matrix giving a stack of D
    models. hidden and output are layers of views of params, and
    field_slices holds, per field of VariationalLinearLayer in field order,
    the (..., k) slice of params holding that field's blocks of both layers.
    blocks holds (name, block) in packed order, named like "hidden.mean_w".
    """

    def __init__(self, params: np.ndarray, hidden_width: int):
        spans, slices = _layout(hidden_width)
        size = slices[-1][1]
        if params.shape[-1] != size:
            raise ArgumentError(f"packed vector has {params.shape[-1]} entries, expected {size}")
        views = {}
        for (layer, field), (start, end, shape) in spans.items():
            views.setdefault(layer, {})[field] = params[..., start:end].reshape(
                params.shape[:-1] + shape)
        self.params = params
        self.hidden_width = hidden_width
        self.hidden, self.output = (VariationalLinearLayer(**v) for v in views.values())
        self.field_slices = tuple(params[..., start:end] for start, end in slices)
        self.blocks = [(f"{layer}.{field}", views[layer][field]) for layer, field in spans]

    @classmethod
    def initial(cls, hidden_width: int, stream: RngStream) -> "ConditionalModel":
        """A fresh model: each layer's mean_w uniform in +-1/sqrt(fan_in),
        drawn from the stream's child named after the layer; tiny posterior
        variances; zero biases; unit priors."""
        model = cls(np.zeros(_layout(hidden_width)[1][-1][1]), hidden_width)
        for name, layer in (("hidden", model.hidden), ("output", model.output)):
            layer.logvar_w.fill(INIT_LOGVAR)
            layer.logvar_b.fill(INIT_LOGVAR)
            bound = 1.0 / math.sqrt(layer.mean_w.shape[-2])
            layer.mean_w[...] = stream.child(name).generator().uniform(
                -bound, bound, size=layer.mean_w.shape)
        return model

    # conditional_variational_codelength prices a model through sampler(x, y),
    # stream -> one sampled NLL per model, and kl(): the seam where a test
    # substitutes a stand-in (criterion 8's ScaleToyModel, tests/test_acceptance.py);
    # kl() calls kl_model, which perfbench's tracer wraps by its module name
    def sampler(self, x: np.ndarray, y: np.ndarray) -> Callable[[RngStream], np.ndarray]:
        """The function stream -> NLL of y given x per model, on the sampled
        pass whose noise it draws from stream: the bytes of
        elbo_objective(self, x, y, 0.0, stream, grad).

        The hidden layer's pre-activation mean x*w + b and std
        sqrt(x^2 * v_w + v_b) do not depend on the noise, so they are computed
        here, once, into arrays the returned function owns. A non-finite
        activation is a NumericError naming its layer.
        """
        x, y = _data(self, x, y)
        h_in, shape = x[..., None], x.shape + (self.hidden_width,)
        hidden = self.hidden
        mean = _affine(h_in, hidden.mean_w, hidden.mean_b, np.empty(shape), "hidden")
        std = _layer_std(h_in, np.exp(hidden.logvar_w), np.exp(hidden.logvar_b), "hidden",
                         np.empty(shape))[0]

        def sample(stream: RngStream):
            eps_hidden, eps_output = _draw_noise(self, shape[-2], stream)
            p1 = _sample(mean, std, eps_hidden, _buffer("hidden", "pre", (3,) + shape)[2])
            _check_finite(p1, "hidden")
            p2 = _layer_forward(self.output, np.tanh(p1, out=p1), eps_output, "output")[0]
            _check_finite(p2, "output")
            return _nll(y, p2)[0]

        return sample

    def kl(self):
        return kl_model(self)


def pack_grads(model: ConditionalModel) -> np.ndarray:
    """model.params.copy(); kept only for perfbench's tracer until ROADMAP item 3."""
    return model.params.copy()


def unpack_params(model: ConditionalModel, vec: np.ndarray) -> ConditionalModel:
    """ConditionalModel(vec, model.hidden_width); kept only for perfbench's
    tracer until ROADMAP item 3."""
    return ConditionalModel(vec, model.hidden_width)


def _kl(model: ConditionalModel, scale: float, grad: ConditionalModel | None = None):
    """Per model, the KL from the factorized posteriors to the priors, as
    (hidden layer, output layer). With grad, the gradient of scale * KL
    overwrites its blocks.

    Each operation covers a field of both layers at once; each layer's sum
    runs over its own part of a slice (the first hidden_width entries are
    the hidden layer's), so it has the bytes of a sum over its block alone.
    """
    mu, lv, mu_b, lv_b, ls = model.field_slices
    # per weight ls - 0.5 lv + (v_w + mu^2) / z^2 * 0.5 - 0.5, per bias
    # -0.5 lv_b + (v_b + mu_b^2) * 0.5 - 0.5, each rounded in that order
    # (x - 0.5 lv_b has the bytes of -0.5 lv_b + x)
    inv_z2 = np.exp(_MINUS_TWO * ls)
    v_w = np.exp(lv)
    # (v_w + mu^2) / z^2, shared by the KL and its log-scale gradient
    ratio = v_w + mu * mu
    ratio *= inv_z2
    kl_w = ls - _HALF * lv
    kl_w += ratio * _HALF
    kl_w -= _HALF
    v_b = np.exp(lv_b)
    kl_b = mu_b * mu_b
    kl_b += v_b
    kl_b *= _HALF
    kl_b -= _HALF * lv_b
    kl_b -= _HALF
    if grad is not None:
        g_mu, g_lv, g_mu_b, g_lv_b, g_ls = grad.field_slices
        scale = np.array(scale)
        np.multiply(scale, mu, out=g_mu)
        g_mu *= inv_z2
        np.multiply(_HALF, v_w, out=g_lv)
        g_lv *= inv_z2
        g_lv -= _HALF
        g_lv *= scale
        np.multiply(scale, mu_b, out=g_mu_b)
        np.multiply(_HALF, v_b, out=g_lv_b)
        g_lv_b -= _HALF
        g_lv_b *= scale
        np.subtract(_ONE, ratio, out=g_ls)
        g_ls *= scale
    h = model.hidden_width
    reduce = np.add.reduce
    return (reduce(kl_w[..., :h], -1) + reduce(kl_b[..., :h], -1),
            reduce(kl_w[..., h:], -1) + reduce(kl_b[..., h:], -1))


def kl_model(model: ConditionalModel):
    """Closed-form KL from all factorized posteriors to their priors, in nats, per model."""
    kl_hidden, kl_output = _kl(model, 1.0)
    return kl_hidden + kl_output


def _map_penalty(model: ConditionalModel, grad: ConditionalModel):
    """Per model, the negative log prior of the posterior means with constants
    dropped, as (hidden layer, output layer); its gradient overwrites grad's blocks."""
    mu, _, mu_b, _, ls = model.field_slices
    g_mu, g_lv, g_mu_b, g_lv_b, g_ls = grad.field_slices
    inv_z2 = np.exp(_MINUS_TWO * ls)
    pen_w = _HALF * mu
    pen_w *= mu
    pen_w *= inv_z2
    pen_w += ls
    pen_b = mu_b * mu_b
    np.multiply(mu, inv_z2, out=g_mu)
    g_lv.fill(0.0)
    g_mu_b[...] = mu_b
    g_lv_b.fill(0.0)
    np.multiply(mu, mu, out=g_ls)
    g_ls *= inv_z2
    np.subtract(_ONE, g_ls, out=g_ls)
    h = model.hidden_width
    reduce = np.add.reduce
    return (reduce(pen_w[..., :h], -1) + _HALF * reduce(pen_b[..., :h], -1),
            reduce(pen_w[..., h:], -1) + _HALF * reduce(pen_b[..., h:], -1))


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
    return (draw_standard_normal(stream.child("hidden"),
                                 _buffer("hidden", "eps", (n, model.hidden_width))),
            draw_standard_normal(stream.child("output"), _buffer("output", "eps", (n, 2))))


def _affine(h_in: np.ndarray, w: np.ndarray, b: np.ndarray, out: np.ndarray,
            name: str) -> np.ndarray:
    """h_in @ w + b written into out: a width-1 input through one product
    of the design [h_in, 1] with the stacked [w; b], built in the layer's
    buffers, which has the bytes of the broadcast form (see the module
    docstring); any other input through matmul, then + b."""
    if h_in.shape[-1] != 1:
        np.matmul(h_in, w, out=out)
        out += b[..., None, :]
        return out
    design = _buffer(name, "design", h_in.shape[:-1] + (2,))
    design[..., :1] = h_in
    design[..., 1] = _ONE
    wb = _buffer(name, "wb", w.shape[:-2] + (2, out.shape[-1]))
    wb[..., :1, :] = w
    wb[..., 1, :] = b
    return np.matmul(design, wb, out=out)


def _layer_std(h_in: np.ndarray, v_w: np.ndarray, v_b: np.ndarray, name: str,
               out: np.ndarray):
    """The pre-activation std sqrt(h_in^2 @ v_w + v_b), written into out,
    and the h_in^2 the backward pass needs."""
    h_sq = np.multiply(h_in, h_in, out=_buffer(name, "h_sq", h_in.shape))
    return np.sqrt(_affine(h_sq, v_w, v_b, out, name), out=out), h_sq


def _sample(mean: np.ndarray, std: np.ndarray, eps: np.ndarray, out: np.ndarray) -> np.ndarray:
    """mean + std * eps written into out; mean and std are left as they are."""
    np.multiply(std, eps, out=out)
    return np.add(mean, out, out=out)


def _layer_forward(layer: VariationalLinearLayer, h_in: np.ndarray, eps: np.ndarray | None,
                   name: str):
    """Pre-activations of one layer for the (..., n, A) input h_in and the
    cache its backward pass needs.

    With eps the pre-activations are drawn from their induced Gaussian;
    with eps=None the pass runs through the posterior means only. Both live
    in the buffers of layer name until its next forward pass: its "pre"
    buffer holds the mean, the std and the sample.
    """
    pre = _buffer(name, "pre", (3,) + h_in.shape[:-1] + (layer.out_dim,))
    mean = _affine(h_in, layer.mean_w, layer.mean_b, pre[0], name)
    if eps is None:
        return mean, (h_in, None)
    v_w, v_b = np.exp(layer.logvar_w), np.exp(layer.logvar_b)
    s_out, h_sq = _layer_std(h_in, v_w, v_b, name, pre[1])
    out = _sample(mean, s_out, eps, pre[2])
    return out, (h_in, (h_sq, v_w, v_b, s_out, eps))


def _layer_backward(cache, g_out: np.ndarray, grad: VariationalLinearLayer, name: str,
                    layer: VariationalLinearLayer | None = None):
    """Add the layer's gradient given d(loss)/d(h_out) into grad; given the
    layer itself, return d(loss)/d(h_in) as well.

    The pass writes over what it has used for the last time, since an
    in-place product on n x H arrays costs about half of one into another
    array: g_out becomes the scaled noise gradient g_v and the cache's s_out
    becomes 0.5 / s_out. The caller must not need them afterwards. The
    term 2 h_in (g_v @ v_w^T) is taken as h_in (g_v @ (2 v_w)^T), which
    doubling keeps exact unless a product g_v * v_w is subnormal. The row
    sums run through einsum, which adds the rows in g.sum(axis=-2)'s order
    from +0.0 in fewer, cheaper steps (an n = 500 pair's 2-column sums take
    about a quarter of the time, its 50-column ones about 60 %).
    """
    h_in, noise = cache
    grad.mean_w += h_in.swapaxes(-1, -2) @ g_out
    grad.mean_b += np.einsum("...ij->...j", g_out)
    g_in = None
    if layer is not None:
        g_in, g_v_w = _buffer(name, "input_grad", (2,) + h_in.shape)
        np.matmul(g_out, layer.mean_w.swapaxes(-1, -2), out=g_in)
    if noise is None:
        return g_in
    h_sq, v_w, v_b, s_out, eps = noise
    g_v = np.multiply(g_out, eps, out=g_out)
    g_v *= np.divide(_HALF, s_out, out=s_out)
    grad.logvar_w += (h_sq.swapaxes(-1, -2) @ g_v) * v_w
    grad.logvar_b += np.einsum("...ij->...j", g_v) * v_b
    if layer is not None:
        np.matmul(g_v, (_TWO * v_w).swapaxes(-1, -2), out=g_v_w)
        g_v_w *= h_in
        g_in += g_v_w
    return g_in


def _check_finite(values: np.ndarray, name: str) -> None:
    finite = np.isfinite(values, out=_buffer(name, "finite", values.shape, bool))
    if not np.logical_and.reduce(finite, axis=None):
        raise NumericError(f"non-finite activations in {name} layer")


def _clamped(t: np.ndarray, out: np.ndarray) -> np.ndarray:
    """t clipped to +-LOG_SCALE_LIMIT, written into out (np.clip's ufuncs,
    without its Python-level wrapper)."""
    np.maximum(t, _MINUS_LIMIT, out=out)
    return np.minimum(out, _LIMIT, out=out)


def _data(
    model: ConditionalModel, x, y, grad: ConditionalModel | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(x, y) as float arrays with the model's stack axes followed by one row
    axis, once a grad given is known to have the model's parameter shape and
    hidden width."""
    if grad is not None and (grad.params.shape != model.params.shape
                             or grad.hidden_width != model.hidden_width):
        raise ArgumentError(
            f"grad must have the model's params shape {model.params.shape} and hidden width "
            f"{model.hidden_width}, got shape {grad.params.shape} and width {grad.hidden_width}")
    x = np.asarray(x, dtype=float)
    lead = model.params.shape[:-1]
    if x.ndim != len(lead) + 1 or x.shape[:-1] != lead:
        raise ArgumentError(
            f"x must have shape {lead} + (n,) for a model of stack shape {lead}, "
            f"got shape {x.shape}")
    y = np.asarray(y, dtype=float)
    if y.shape != x.shape:
        raise ArgumentError(f"y must have x's shape {x.shape}, got shape {y.shape}")
    return x, y


def model_forward(model: ConditionalModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Predict (mu, sigma) for each x through the posterior means, sigma =
    exp(clamped log-scale); kept only for perfbench's tracer until ROADMAP item 3."""
    p1 = _layer_forward(model.hidden, np.asarray(x, dtype=float)[..., None], None, "hidden")[0]
    p2 = _layer_forward(model.output, np.tanh(p1, out=p1), None, "output")[0]
    return p2[..., 0].copy(), np.exp(np.clip(p2[..., 1], -LOG_SCALE_LIMIT, LOG_SCALE_LIMIT))


def gaussian_nll(y: np.ndarray, mu: np.ndarray, sigma: np.ndarray):
    """Negative Gaussian log-likelihood in nats, summed over the last axis."""
    y, mu, sigma = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (y, mu, sigma))
    if not y.shape == mu.shape == sigma.shape:
        raise ArgumentError(f"y, mu, sigma shapes differ: {y.shape}, {mu.shape}, {sigma.shape}")
    # written so that a NaN sigma fails too
    if not np.logical_and.reduce(sigma > 0, axis=None):
        raise ArgumentError("sigma must be strictly positive")
    r = y - mu
    return np.add.reduce(_HALF_LOG_2PI + np.log(sigma) + r * r / (_TWO * sigma * sigma), axis=-1)


def _nll(y: np.ndarray, p2: np.ndarray):
    """Per model, the NLL of y under the Gaussian head on the output
    pre-activations p2, log-scale clamped, and the buffers _nll_head reads:
    inv_var, r = y - mu and a free one. The loss term is ((0.5 * r) * r) * inv_var.
    """
    mu = p2[..., 0]
    tc, inv_var, r, term = _buffer("output", "head", (4,) + mu.shape)
    _clamped(p2[..., 1], tc)
    np.multiply(_MINUS_TWO, tc, out=inv_var)
    np.exp(inv_var, out=inv_var)
    np.subtract(y, mu, out=r)
    np.multiply(_HALF, r, out=term)
    term *= r
    term *= inv_var
    # tc's last use: the loss terms HALF_LOG_2PI + tc + term are written over it
    np.add(_HALF_LOG_2PI, tc, out=tc)
    tc += term
    return np.add.reduce(tc, axis=-1), inv_var, r, term


def _nll_head(y: np.ndarray, p2: np.ndarray):
    """_nll's loss and d(loss)/d(p2); the log-scale gradient is 1 - (r * r) * inv_var."""
    loss, inv_var, r, term = _nll(y, p2)
    t = p2[..., 1]
    g_p2 = _buffer("output", "g_p2", p2.shape)
    g_mu = np.negative(r, out=g_p2[..., 0])
    g_mu *= inv_var
    g_log_scale = np.multiply(r, r, out=g_p2[..., 1])
    g_log_scale *= inv_var
    np.subtract(_ONE, g_log_scale, out=g_log_scale)
    # a clamped (or NaN) log-scale passes no gradient; NaN fails the max test too
    size = np.abs(t, out=term)
    if not np.maximum.reduce(size, axis=None) < LOG_SCALE_LIMIT:
        np.copyto(g_log_scale, 0.0, where=~(size < LOG_SCALE_LIMIT))
    return loss, g_p2


def _data_nll(model, x: np.ndarray, y: np.ndarray, grad: ConditionalModel, eps=None):
    """NLL of y given x (arrays _data checked) through the network; its
    gradient is added into grad."""
    eps1, eps2 = (None, None) if eps is None else eps
    p1, cache1 = _layer_forward(model.hidden, x[..., None], eps1, "hidden")
    a = np.tanh(p1, out=p1)
    p2, cache2 = _layer_forward(model.output, a, eps2, "output")
    loss, g_p2 = _nll_head(y, p2)
    g_a = _layer_backward(cache2, g_p2, grad.output, "output", model.output)
    # tanh' = 1 - a^2, formed over a * a: the sampled pass has put it in the
    # output layer's h_sq buffer; on the mean path a is not needed any more
    a_sq = np.multiply(a, a, out=a) if eps2 is None else cache2[1][0]
    g_a *= np.subtract(_ONE, a_sq, out=a_sq)
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
    x, y = _data(model, x, y, grad)
    eps = _draw_noise(model, x.shape[-1], stream)
    kl_hidden, kl_output = _kl(model, beta, grad)
    return _data_nll(model, x, y, grad, eps) + beta * (kl_hidden + kl_output)


def map_objective(
    model: ConditionalModel, x: np.ndarray, y: np.ndarray, grad: ConditionalModel
):
    """Joint negative log-likelihood of data, mean parameters and prior scales, per
    model; its gradient overwrites grad.

    Deterministic point-estimate phase: posterior variances take no gradient (their blocks get 0).
    """
    x, y = _data(model, x, y, grad)
    pen_hidden, pen_output = _map_penalty(model, grad)
    return _data_nll(model, x, y, grad) + pen_hidden + pen_output
