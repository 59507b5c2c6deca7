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
every block of its gradient with d(loss)/d(parameter), so the gradient's
matrix holds the result without any packing.

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
A sampled pass takes a stream and a sign, 1 or -1, and runs on sign times
the stream's noise: an n x H matrix of standard normals from the stream's
"hidden" child and an n x 2 one from its "output" child. Two passes on one
stream with both signs are an antithetic pair (Hammersley & Morton, 1956):
training runs its VI epochs, and evaluation its samples, in such pairs, so
each pair draws its noise once (see _draw_noise). ConditionalModel.sampler
serves Monte Carlo evaluation: the hidden layer's pre-activation mean and
std do not depend on the noise, so it computes them once, and each sample
only adds std * eps to the hidden mean. A sample prices y with _nll, the
head training minimizes: elbo_objective's bytes at beta 0.

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

The data-sized arrays take the data's dtype (data_dtype): float32 for
float32 data, which score_pair hands over, and float64 otherwise, as the
byte-level tests bind. The parameters, their gradient, the KL and each
loss's row sum stay float64. A float32 pass stages the weights it
multiplies in float32 (the hidden layer's [w; b], a cast of the output
layer's H x 2 blocks) and gives its data-sized operations Python literals,
so that no float64 operand makes numpy run them in float64. Its noise is
drawn in float64, which draw_standard_normal fills, and cast.

Every pass, a training epoch or a Monte Carlo sample, runs over a
Workspace, allocates no data-sized array and returns one loss per model.
numpy buffers at most 8192 elements of the (n, 2) output noise it
broadcasts against a pair's (2, n, 2) stack; against a pre-broadcast copy
that costs 0.7 us a product at n = 500 and 2.3 us at n = 2000 (timeit), a
few us an epoch, so the noise is not copied. A workspace is bound to
(model, x, y) once, for training (grad=True) or forward-only:
train_conditional binds a training one per run and ConditionalModel.sampler
a forward-only one per sampler. Binding it checks the inputs, builds the
x-only arrays (see Workspace) and allocates what its passes write: the
noise, each layer's pre-activation mean, std and sample, the stacked
weights [w; b], a^2 and the head's rows; for training, the gradient,
d(loss)/d(p2) and the input gradient; forward-only (the sampler,
model_forward), the finite masks the sampler's checks write. The
objectives refuse a forward-only workspace. A value whose last use has
passed is overwritten in place (the backward pass turns the std into
0.5 / std and d(loss)/d(h_out) into the scaled noise gradient), so that
few arrays are live and stay in cache. Each value is computed by the same
operations on the same operands as with fresh arrays, so the bytes are the
same. A pass writes every array before it reads it, so no pass sees
another's data, save the noise: a workspace keeps its last draw and the
stream it came from, and a pass on that stream reuses it, negated if its
sign differs, which gives the bytes of a fresh draw. Each workspace owns
its arrays, so passes over other workspaces, in other threads too, get the
bytes they would get alone. No value returned to a caller aliases a
workspace's array.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .errors import ArgumentError, NumericError, check_count, check_real
from .rng import RngStream, draw_standard_normal

HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)

# pre-link clamp on the log-scale head: keeps exp() in [e^-15, e^15]
LOG_SCALE_LIMIT = 15.0

# initial log posterior variance (-9 -> posterior std ~ 0.011)
INIT_LOGVAR = -9.0

# Scalar operands. Parameter-sized float64 operations (the KL, the MAP
# penalty) take 0-d arrays: numpy turns a Python float into an array on every
# call, which costs about as much as the operation on a parameter-sized block.
# Data-sized operations take Python literals, which numpy casts to the data's
# dtype; a 0-d float64 array would run a float32 operation in float64.
_HALF, _ONE, _MINUS_TWO = (np.array(v) for v in (0.5, 1.0, -2.0))


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
    # (stream, sign) -> one sampled NLL per model, and kl(): the seam where a
    # test substitutes a stand-in (criterion 8's ScaleToyModel,
    # tests/test_acceptance.py); kl() calls kl_model, which perfbench's tracer
    # wraps by its module name
    def sampler(self, x: np.ndarray, y: np.ndarray) -> Callable[..., np.ndarray]:
        """The function (stream, sign=1) -> NLL of y given x per model, on the
        sampled pass on the noise of (stream, sign) (see _draw_noise): the
        bytes of elbo_objective(Workspace(self, x, y, grad=True), 0.0, stream,
        sign).

        It binds one forward-only Workspace, without gradient arrays. The
        hidden layer's mean x*w + b and std sqrt(x^2 * v_w + v_b) do not
        depend on the noise, so they are computed here, once. A non-finite
        activation is a NumericError naming its layer.
        """
        ws = Workspace(self, x, y)
        hidden, output = self.hidden, self.output
        mean, std, p1 = ws.hidden_pre
        _affine(ws.designs[0], hidden.mean_w, hidden.mean_b, mean, ws.wb)
        np.sqrt(_affine(ws.designs[1], np.exp(hidden.logvar_w), np.exp(hidden.logvar_b), std,
                        ws.wb), out=std)

        def sample(stream: RngStream, sign: int = 1):
            eps_hidden, eps_output = _draw_noise(ws, stream, sign)
            np.add(mean, np.multiply(std, eps_hidden, out=p1), out=p1)
            _check_finite(p1, ws.finite[0], "hidden")
            a = np.tanh(p1, out=p1)
            p2 = _layer_forward(output, a, np.multiply(a, a, out=ws.a_sq), eps_output,
                                ws.output_pre)[0]
            _check_finite(p2, ws.finite[1], "output")
            return _nll(ws.y, p2, ws.head)[0]

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


def data_dtype(x) -> type:
    """The dtype of the data-sized arrays of the passes over x: np.float32
    for float32 data, np.float64 for anything else."""
    return np.float32 if getattr(x, "dtype", None) == np.float32 else np.float64


class Workspace:
    """The arrays of the passes of model over (x, y), bound once (see the
    module docstring). With grad=True, grad is a ConditionalModel over a
    fresh matrix of the model's shape, whose blocks an objective
    overwrites; otherwise grad is None and the workspace is forward-only.

    x and y are copied as arrays of data_dtype(x), of the model's stack axes
    and one row axis; every data-sized array is of that dtype. x and x_sq
    are the hidden layer's (..., n, 1) input and its square, designs its
    [x, 1] and [x^2, 1]. eps is the noise pair; draws are the float64
    matrices draw_standard_normal fills, eps itself for float64 data and
    cast into eps for float32. noise_stream and noise_sign name the pair eps
    holds (see _draw_noise).
    """

    def __init__(self, model: ConditionalModel, x, y, *, grad: bool = False):
        dtype = data_dtype(x)
        x = np.array(x, dtype=dtype)
        lead = model.params.shape[:-1]
        if x.ndim != len(lead) + 1 or x.shape[:-1] != lead:
            raise ArgumentError(
                f"x must have shape {lead} + (n,) for a model of stack shape {lead}, "
                f"got shape {x.shape}")
        self.y = np.array(y, dtype=dtype)
        if self.y.shape != x.shape:
            raise ArgumentError(f"y must have x's shape {x.shape}, got shape {self.y.shape}")
        self.model = model
        rows, width = lead + (x.shape[-1],), model.hidden_width
        self.x = x[..., None]
        self.x_sq = self.x * self.x
        self.designs = np.empty((2,) + rows + (2,), dtype)
        self.designs[..., :1] = self.x, self.x_sq
        self.designs[..., 1] = 1.0
        noise_shapes = rows[-1:] + (width,), rows[-1:] + (2,)
        self.draws = tuple(np.empty(shape) for shape in noise_shapes)
        self.eps = self.draws if dtype is np.float64 else tuple(
            np.empty(shape, dtype) for shape in noise_shapes)
        self.noise_stream, self.noise_sign = None, 1
        # each layer's pre-activation mean, std and sample
        self.hidden_pre, self.output_pre = (np.empty((3,) + rows + (k,), dtype)
                                            for k in (width, 2))
        self.wb = np.empty(lead + (2, width), dtype)
        self.a_sq = np.empty(rows + (width,), dtype)
        self.head = np.empty((4,) + rows, dtype)
        if grad:
            self.grad = ConditionalModel(np.empty_like(model.params), width)
            self.g_p2 = np.empty(rows + (2,), dtype)
            self.input_grad = np.empty((2,) + rows + (width,), dtype)
        else:
            self.grad = None
            self.finite = np.empty(rows + (width,), bool), np.empty(rows + (2,), bool)


def _draw_noise(ws: Workspace, stream: RngStream, sign: int):
    """The noise pair (eps_hidden, eps_output) of a sampled pass on (stream,
    sign), in ws.eps: sign times the standard normals of the "hidden" and
    "output" children of stream, sign being the integer 1 or -1, not a bool
    (an antithetic pair of passes shares a stream and takes both signs).

    The workspace remembers the stream its pair came from and the sign it
    holds: a pass on that stream negates the pair in place when its sign
    differs, and draws nothing. Negation is exact, so every pass gets the
    bytes of a fresh draw.
    """
    if isinstance(sign, bool) or not isinstance(sign, numbers.Integral) or sign not in (1, -1):
        raise ArgumentError(f"sign must be 1 or -1, got {sign!r}")
    if stream != ws.noise_stream:
        for name, draw, eps in zip(("hidden", "output"), ws.draws, ws.eps):
            draw_standard_normal(stream.child(name), draw)
            if eps is not draw:
                np.copyto(eps, draw, casting="same_kind")
        ws.noise_stream, ws.noise_sign = stream, 1
    if sign != ws.noise_sign:
        for eps in ws.eps:
            np.negative(eps, out=eps)
        ws.noise_sign = sign
    return ws.eps


def _affine(h_in: np.ndarray, w: np.ndarray, b: np.ndarray, out: np.ndarray,
            wb: np.ndarray | None = None) -> np.ndarray:
    """h_in @ w + b written into out, with w and b cast to out's dtype. Given
    the (..., 2, B) array wb, h_in is the design [h, 1] of a width-1 input h,
    and the map is one product with [w; b], staged in wb, which has the
    bytes of the broadcast form (see the module docstring)."""
    if wb is None:
        np.matmul(h_in, w.astype(out.dtype, copy=False), out=out)
        out += b.astype(out.dtype, copy=False)[..., None, :]
        return out
    wb[..., :1, :] = w
    wb[..., 1, :] = b
    return np.matmul(h_in, wb, out=out)


def _layer_forward(layer: VariationalLinearLayer, h_in: np.ndarray, h_sq: np.ndarray | None,
                   eps: np.ndarray | None, pre: np.ndarray, wb: np.ndarray | None = None):
    """Pre-activations of one layer for the (..., n, A) input h_in, whose
    square is h_sq, and the noise terms its backward pass needs.

    The pre-activations' mean, std and sample are written into the
    (3, ..., n, B) array pre. With eps they are drawn from their induced
    Gaussian and the noise terms are (v_w, v_b, std, eps); with eps=None the
    pass runs through the posterior means only and has none. Given wb, h_in
    and h_sq are the designs [x, 1] and [x^2, 1] (see _affine).
    """
    mean, std, sample = pre
    _affine(h_in, layer.mean_w, layer.mean_b, mean, wb)
    if eps is None:
        return mean, None
    v_w, v_b = np.exp(layer.logvar_w), np.exp(layer.logvar_b)
    np.sqrt(_affine(h_sq, v_w, v_b, std, wb), out=std)
    np.add(mean, np.multiply(std, eps, out=sample), out=sample)
    return sample, (v_w, v_b, std, eps)


def _layer_backward(h_in: np.ndarray, h_sq: np.ndarray, noise, g_out: np.ndarray,
                    grad: VariationalLinearLayer, w: np.ndarray | None = None,
                    out: np.ndarray | None = None):
    """Add the layer's gradient given its input h_in, its square h_sq, the
    forward pass's noise terms and d(loss)/d(h_out) into grad; given the
    layer's mean_w w, return d(loss)/d(h_in) as well, written into out[0]
    of the (2, ..., n, A) array out.

    The pass writes over what it has used for the last time, since an
    in-place product on n x H arrays costs about half of one into another
    array: g_out becomes the scaled noise gradient g_v and the std becomes
    0.5 / std. The caller must not need them afterwards. The term
    2 h_in (g_v @ v_w^T) is taken as h_in (g_v @ (2 v_w)^T), which doubling
    keeps exact unless a product g_v * v_w is subnormal. The row sums run
    through einsum, which adds the rows in g.sum(axis=-2)'s order from +0.0
    in fewer, cheaper steps (an n = 500 pair's 2-column sums take about a
    quarter of the time, its 50-column ones about 60 %).
    """
    dtype = g_out.dtype
    grad.mean_w += h_in.swapaxes(-1, -2) @ g_out
    grad.mean_b += np.einsum("...ij->...j", g_out)
    g_in = None
    if w is not None:
        g_in, g_v_w = out
        np.matmul(g_out, w.astype(dtype, copy=False).swapaxes(-1, -2), out=g_in)
    if noise is None:
        return g_in
    v_w, v_b, s_out, eps = noise
    g_v = np.multiply(g_out, eps, out=g_out)
    g_v *= np.divide(0.5, s_out, out=s_out)
    grad.logvar_w += (h_sq.swapaxes(-1, -2) @ g_v) * v_w
    grad.logvar_b += np.einsum("...ij->...j", g_v) * v_b
    if w is not None:
        np.matmul(g_v, (v_w + v_w).astype(dtype, copy=False).swapaxes(-1, -2), out=g_v_w)
        g_v_w *= h_in
        g_in += g_v_w
    return g_in


def _check_finite(values: np.ndarray, finite: np.ndarray, name: str) -> None:
    """NumericError naming layer name unless every entry of values is finite;
    the mask is written into finite."""
    if not np.logical_and.reduce(np.isfinite(values, out=finite), axis=None):
        raise NumericError(f"non-finite activations in {name} layer")


def model_forward(model: ConditionalModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Predict (mu, sigma) for each x through the posterior means, sigma =
    exp(clamped log-scale); kept only for perfbench's tracer until ROADMAP item 3."""
    ws = Workspace(model, x, x)  # y is not read
    p1 = _layer_forward(model.hidden, ws.designs[0], None, None, ws.hidden_pre, ws.wb)[0]
    p2 = _layer_forward(model.output, np.tanh(p1, out=p1), None, None, ws.output_pre)[0]
    return p2[..., 0].copy(), np.exp(np.clip(p2[..., 1], -LOG_SCALE_LIMIT, LOG_SCALE_LIMIT))


def gaussian_nll(y: np.ndarray):
    """Negative log-likelihood of the float array y under a standard normal,
    in nats, summed over the last axis."""
    return np.add.reduce(HALF_LOG_2PI + y * y / 2.0, axis=-1)


def _nll(y: np.ndarray, p2: np.ndarray, head: np.ndarray):
    """Per model, the NLL of y under the Gaussian head on the output
    pre-activations p2, log-scale clamped, and the rows of the (4, ..., n)
    array head, which it writes, that _nll_head reads: inv_var, r = y - mu
    and a free one. The loss term is ((0.5 * r) * r) * inv_var. The rows
    are of the data's dtype; the loss sums them in float64."""
    mu = p2[..., 0]
    tc, inv_var, r, term = head
    # np.clip's ufuncs, without its Python-level wrapper
    np.maximum(p2[..., 1], -LOG_SCALE_LIMIT, out=tc)
    np.minimum(tc, LOG_SCALE_LIMIT, out=tc)
    np.multiply(-2.0, tc, out=inv_var)
    np.exp(inv_var, out=inv_var)
    np.subtract(y, mu, out=r)
    np.multiply(0.5, r, out=term)
    term *= r
    term *= inv_var
    # tc's last use: the loss terms HALF_LOG_2PI + tc + term are written over it
    np.add(HALF_LOG_2PI, tc, out=tc)
    tc += term
    return np.add.reduce(tc, axis=-1, dtype=np.float64), inv_var, r, term


def _nll_head(y: np.ndarray, p2: np.ndarray, head: np.ndarray, g_p2: np.ndarray):
    """_nll's loss and d(loss)/d(p2), written into g_p2; the log-scale
    gradient is 1 - (r * r) * inv_var."""
    loss, inv_var, r, term = _nll(y, p2, head)
    t = p2[..., 1]
    g_mu = np.negative(r, out=g_p2[..., 0])
    g_mu *= inv_var
    g_log_scale = np.multiply(r, r, out=g_p2[..., 1])
    g_log_scale *= inv_var
    np.subtract(1.0, g_log_scale, out=g_log_scale)
    # a clamped (or NaN) log-scale passes no gradient; NaN fails the max test too
    size = np.abs(t, out=term)
    if not np.maximum.reduce(size, axis=None) < LOG_SCALE_LIMIT:
        np.copyto(g_log_scale, 0.0, where=~(size < LOG_SCALE_LIMIT))
    return loss, g_p2


def _data_nll(ws: Workspace, eps=None):
    """NLL of ws.y given ws.x per model, on the sampled pass with the noise
    pair eps or on the pass through the posterior means without it; its
    gradient is added into ws.grad."""
    model, grad = ws.model, ws.grad
    eps_hidden, eps_output = (None, None) if eps is None else eps
    p1, noise1 = _layer_forward(model.hidden, *ws.designs, eps_hidden, ws.hidden_pre, ws.wb)
    a = np.tanh(p1, out=p1)
    a_sq = None if eps is None else np.multiply(a, a, out=ws.a_sq)
    p2, noise2 = _layer_forward(model.output, a, a_sq, eps_output, ws.output_pre)
    loss, g_p2 = _nll_head(ws.y, p2, ws.head, ws.g_p2)
    g_a = _layer_backward(a, a_sq, noise2, g_p2, grad.output, model.output.mean_w, ws.input_grad)
    # tanh' = 1 - a^2, written over a^2; the mean path forms a^2 over a, whose
    # last use has passed, as an in-place product costs less than one into a_sq
    a_sq = np.multiply(a, a, out=a) if a_sq is None else a_sq
    g_a *= np.subtract(1.0, a_sq, out=a_sq)
    _layer_backward(ws.x, ws.x_sq, noise1, g_a, grad.hidden)
    return loss


def elbo_objective(ws: Workspace, beta: float, stream: RngStream, sign: int = 1):
    """Sampled NLL plus beta-weighted KL, per model of the workspace; its
    exact gradient under the noise of (stream, sign) (see _draw_noise)
    overwrites ws.grad.

    The objective is a pure function of the model's parameters, the data,
    beta, stream and sign, so calls with the same stream and sign evaluate
    the identical stochastic objective, whatever the workspace drew before.
    """
    if ws.grad is None:
        raise ArgumentError("elbo_objective needs a workspace bound with a gradient")
    beta = check_real("beta", beta)
    if not 0.0 <= beta <= 1.0:
        raise ArgumentError(f"beta must lie in [0, 1], got {beta}")
    eps = _draw_noise(ws, stream, sign)
    kl_hidden, kl_output = _kl(ws.model, beta, ws.grad)
    return _data_nll(ws, eps) + beta * (kl_hidden + kl_output)


def map_objective(ws: Workspace):
    """Joint negative log-likelihood of data, mean parameters and prior
    scales, per model of the workspace; its gradient overwrites ws.grad.

    Deterministic point-estimate phase: posterior variances take no gradient (their blocks get 0).
    """
    if ws.grad is None:
        raise ArgumentError("map_objective needs a workspace bound with a gradient")
    pen_hidden, pen_output = _map_penalty(ws.model, ws.grad)
    return _data_nll(ws) + pen_hidden + pen_output
