"""Direction scoring by codelength comparison.

Each candidate direction is priced as the cost of encoding the hypothesized
cause under a standard normal plus the variational cost of encoding the
effect given the cause under a trained Bayesian network. The difference of
the two direction scores decides the causal direction; its magnitude is the
confidence.

The two directions of a pair are stacked on a leading axis and trained in
one pass, one objective call and one Adam step per epoch, then evaluated
in one pass per Monte Carlo sample. Both take all their randomness,
initial weights and every noise draw, from one stream keyed by the sorted
pair of fingerprints of the standardized columns. The caller draws each
epoch's and each sample's noise once and hands the same matrices to both
directions (common random numbers; each direction's noise is still i.i.d.
standard normal). The key does not depend on which argument slot a column
occupies, and each direction's arithmetic depends only on its own data and
the noise, with no reduction across directions, so score_pair on the
swapped pair is the bit-exact mirror of the original computation.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import bnn
from .bnn import ConditionalModel
from .data import PairDataset, UNDECIDED, X_CAUSES_Y, Y_CAUSES_X, standardize
from .errors import ArgumentError, NumericError, check_count
from .optim import LR_MAX, LR_MIN, adam_step, cosine_lr
from .rng import RngStream, check_seed, draw_standard_normal


@dataclass
class TrainConfig:
    """The two-phase training schedule's settings; optim fixes its learning-rate range."""

    hidden_width: int = 50
    vi_epochs: int = 2500
    warmup_epochs: int = 250
    map_epochs: int = 2500
    mc_eval_samples: int = 64
    seed: int = 0

    def __post_init__(self):
        for name in ("hidden_width", "vi_epochs", "warmup_epochs", "map_epochs",
                     "mc_eval_samples"):
            setattr(self, name, check_count(name, getattr(self, name), 1))
        self.seed = check_seed(self.seed)
        if self.warmup_epochs > self.vi_epochs:
            raise ArgumentError("warmup_epochs must not exceed vi_epochs")


@dataclass
class DirectionReport:
    """Codelengths for one hypothesized direction; delta is their sum."""

    l_marginal_cause: float
    l_conditional_effect: float
    delta: float

    @classmethod
    def of(cls, l_marginal_cause: float, l_conditional_effect: float) -> "DirectionReport":
        return cls(l_marginal_cause, l_conditional_effect,
                   l_marginal_cause + l_conditional_effect)


@dataclass
class PairReport:
    forward: DirectionReport
    backward: DirectionReport
    final_delta: float
    decision: str
    confidence: float


def marginal_gaussian_codelength(x: np.ndarray) -> float:
    """Nats to encode x under a fixed standard normal."""
    x = np.asarray(x, dtype=float)
    return float(bnn.gaussian_nll(x, np.zeros_like(x), np.ones_like(x)))


def _stack_directions(directions, min_samples: int) -> tuple[np.ndarray, np.ndarray]:
    """The causes and the effects as (directions x n) matrices; ArgumentError if one is malformed."""
    causes, effects = [], []
    for x, y in directions:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if (x.ndim != 1 or x.shape != y.shape or x.size < min_samples
                or (causes and x.shape != causes[0].shape)):
            raise ArgumentError(
                f"each direction needs matched vectors of equal length, at least "
                f"{min_samples} samples each; got shapes {x.shape} and {y.shape}")
        causes.append(x)
        effects.append(y)
    if not causes:
        raise ArgumentError("need at least one direction")
    return np.stack(causes), np.stack(effects)


def _draw_noise(stream: RngStream, eps: tuple[np.ndarray, np.ndarray]):
    """Fill the hidden and output noise matrices eps from the "hidden" and
    "output" children of stream; returns eps."""
    for tag, out in zip(("hidden", "output"), eps):
        draw_standard_normal(stream.child(tag), out)
    return eps


def train_conditional(
    directions: Sequence[tuple[np.ndarray, np.ndarray]], cfg: TrainConfig, stream: RngStream
) -> ConditionalModel:
    """Fit a conditional model for each (cause, effect) direction, all in one
    pass: point-estimate pretraining, then variational optimization with a
    linear complexity warm-up. Returns the fitted models stacked along the
    leading axis, in the order of directions.

    Every direction starts from the same initial weights, and each VI
    epoch's noise is drawn once from stream for all directions. The
    parameters are one (directions x P) matrix, bound once to a stacked
    model whose blocks are views of it, and the gradient likewise. Each
    epoch makes one objective call, which overwrites the gradient matrix,
    and one Adam step on the matrices, which updates the parameters and
    the moment matrices m and v in place. No operation mixes directions, so
    each gets the bytes it would get trained alone (for the one BLAS kernel
    exception at hidden width 1, see bnn). Both phases run
    full-batch under Adam with a cosine learning-rate schedule from LR_MAX
    to LR_MIN; the second phase starts from zeroed Adam moments since it
    minimizes a different objective. A NumericError names the direction's
    index, the phase and the epoch, and a non-finite gradient's block and
    offset too.
    """
    x, y = _stack_directions(directions, 2)
    initial = ConditionalModel.initial(cfg.hidden_width, stream.child("init"))
    params = np.tile(bnn.pack_params(initial), (len(x), 1))
    grads = np.empty_like(params)
    model = bnn.unpack_params(initial, params)
    grad_model = bnn.unpack_params(initial, grads)
    eps = (np.empty((x.shape[1], cfg.hidden_width)), np.empty((x.shape[1], 2)))
    vi_stream = stream.child("vi")
    phases = (
        ("MAP", cfg.map_epochs, lambda t: bnn.map_objective(model, x, y, grad_model)),
        ("VI", cfg.vi_epochs, lambda t: bnn.elbo_objective(
            model, x, y, min(1.0, t / cfg.warmup_epochs), _draw_noise(vi_stream.child(t), eps),
            grad_model)),
    )
    for phase, epochs, objective in phases:
        m, v = np.zeros_like(params), np.zeros_like(params)
        for t in range(epochs):
            lr = cosine_lr(t, epochs, LR_MAX, LR_MIN)
            bad = ~np.isfinite(objective(t))
            if bad.any():
                raise NumericError(f"non-finite loss in direction {int(np.argmax(bad))}, "
                                   f"{phase} phase at epoch {t}")
            try:
                adam_step(params, grads, m, v, t + 1, lr)
            except NumericError:
                d, i = np.argwhere(~np.isfinite(grads))[0]
                for name, length in bnn.param_blocks(initial):
                    if i < length:
                        break
                    i -= length
                raise NumericError(f"direction {d}, {phase} phase, epoch {t}: non-finite "
                                   f"gradient in block '{name}' (offset {i})") from None
    return model


def conditional_variational_codelength(
    model, directions: Sequence[tuple[np.ndarray, np.ndarray]],
    mc_eval_samples: int, stream: RngStream,
) -> list[float]:
    """Per direction, the Monte Carlo expected NLL of the effect given the
    cause under the posterior plus the analytic KL.

    model holds one model per direction along its leading axis, as
    train_conditional returns it; it is used through a duck-typed surface:
    hidden_width, sampler(causes) and kl(). Each sample's noise is drawn
    once and shared by all directions, and one pass evaluates them all.
    """
    mc_eval_samples = check_count("mc_eval_samples", mc_eval_samples, 1)
    x, y = _stack_directions(directions, 1)
    eps = (np.empty((x.shape[1], model.hidden_width)), np.empty((x.shape[1], 2)))
    sample = model.sampler(x)
    totals = np.zeros(len(x))
    for m in range(mc_eval_samples):
        mu, sigma = sample(*_draw_noise(stream.child("eval", m), eps))
        totals += bnn.gaussian_nll(y, mu, sigma)
    return [float(value) for value in totals / mc_eval_samples + model.kl()]


def _fingerprint(values: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()[:16]


def score_pair(pair: PairDataset, cfg: TrainConfig) -> PairReport:
    """Score both directions of a pair and decide which column is the cause.

    A positive final_delta means the first column causes the second.
    In a NumericError, direction 0 is x -> y and direction 1 is y -> x.
    """
    zx, _, _ = standardize(pair.x)
    zy, _, _ = standardize(pair.y)
    stream = RngStream(cfg.seed).child("pair", *sorted((_fingerprint(zx), _fingerprint(zy))))
    directions = ((zx, zy), (zy, zx))
    model = train_conditional(directions, cfg, stream)
    l_forward, l_backward = conditional_variational_codelength(
        model, directions, cfg.mc_eval_samples, stream.child("final-eval"))
    forward = DirectionReport.of(marginal_gaussian_codelength(zx), l_forward)
    backward = DirectionReport.of(marginal_gaussian_codelength(zy), l_backward)
    final_delta = backward.delta - forward.delta
    if final_delta > 0:
        decision = X_CAUSES_Y
    elif final_delta < 0:
        decision = Y_CAUSES_X
    else:
        decision = UNDECIDED
    return PairReport(forward, backward, final_delta, decision, abs(final_delta))
