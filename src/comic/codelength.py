"""Direction scoring by codelength comparison.

Each candidate direction is priced as the cost of encoding the hypothesized
cause under a standard normal plus the variational cost of encoding the
effect given the cause under a trained Bayesian network. The difference of
the two direction scores decides the causal direction; its magnitude is the
confidence.

The two directions of a pair train in lockstep, epoch by epoch, and are
evaluated in lockstep, sample by sample. Both take all their randomness,
initial weights and every noise draw, from one stream keyed by the sorted
pair of fingerprints of the standardized columns, so each noise matrix is
generated once per pair and the second direction gets a copy of it (common
random numbers; each direction's noise is still i.i.d. standard normal).
The key does not depend on which argument slot a column occupies, and each
direction's arithmetic depends only on its own data and the stream, so
score_pair on the swapped pair is the bit-exact mirror of the original
computation.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import bnn
from .bnn import ConditionalModel
from .data import PairDataset, UNDECIDED, X_CAUSES_Y, Y_CAUSES_X, standardize
from .errors import ArgumentError, NumericError, check_int, check_real
from .optim import adam_step, cosine_lr
from .rng import RngStream, check_seed


@dataclass
class TrainConfig:
    """All knobs of the two-phase training schedule."""

    hidden_width: int = 50
    vi_epochs: int = 2500
    warmup_epochs: int = 250
    map_epochs: int = 2500
    lr_max: float = 1e-2
    lr_min: float = 1e-6
    mc_eval_samples: int = 64
    seed: int = 0

    def __post_init__(self):
        for name in ("hidden_width", "vi_epochs", "warmup_epochs", "map_epochs",
                     "mc_eval_samples"):
            value = check_int(name, getattr(self, name))
            if value < 1:
                raise ArgumentError(f"{name} must be >= 1")
            setattr(self, name, value)
        self.seed = check_seed(self.seed)
        if self.warmup_epochs > self.vi_epochs:
            raise ArgumentError("warmup_epochs must not exceed vi_epochs")
        self.lr_max = check_real("lr_max", self.lr_max)
        self.lr_min = check_real("lr_min", self.lr_min)
        if not (math.isfinite(self.lr_max) and 0.0 <= self.lr_min < self.lr_max):
            raise ArgumentError(
                f"need finite 0 <= lr_min < lr_max, got lr_min={self.lr_min}, "
                f"lr_max={self.lr_max}")


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
    return float(np.sum(bnn.HALF_LOG_2PI + 0.5 * x * x))


def _check_directions(directions, min_samples: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The (cause, effect) pairs as float vectors; ArgumentError if one is malformed."""
    checked = []
    for x, y in directions:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim != 1 or x.shape != y.shape or x.size < min_samples:
            raise ArgumentError(
                f"each direction needs matched vectors of equal length, at least "
                f"{min_samples} samples each; got shapes {x.shape} and {y.shape}")
        checked.append((x, y))
    if not checked:
        raise ArgumentError("need at least one direction")
    return checked


def train_conditional(
    directions: Sequence[tuple[np.ndarray, np.ndarray]], cfg: TrainConfig, stream: RngStream
) -> list[ConditionalModel]:
    """Fit one conditional model per (cause, effect) direction, all in lockstep:
    point-estimate pretraining, then variational optimization with a linear
    complexity warm-up.

    Every direction starts from the same initial weights and, epoch by
    epoch, draws the same noise from stream, so the noise is generated once
    per epoch. Both phases run full-batch under Adam with a cosine
    learning-rate schedule; the second phase starts from zeroed Adam
    moments since it minimizes a different objective. Each model is bound
    once to a flat parameter vector, and its gradient to a flat gradient
    vector (blocks are views of them). Each objective overwrites the
    gradient vector, and Adam reads it as it is and updates the parameter
    vector and the moment vectors m and v in place, so the model always
    reflects the latest update. A NumericError names the direction's index,
    the phase and the epoch.
    """
    directions = _check_directions(directions, 2)
    initial = ConditionalModel.initial(cfg.hidden_width, stream.child("init"))
    blocks = bnn.param_blocks(initial)
    params = [bnn.pack_params(initial) for _ in directions]
    grads = [np.empty_like(vec) for vec in params]
    models = [bnn.unpack_params(initial, vec) for vec in params]
    grad_models = [bnn.unpack_params(initial, vec) for vec in grads]
    vi_stream = stream.child("vi")
    phases = (
        ("MAP", cfg.map_epochs, lambda t, d: bnn.map_objective(
            models[d], *directions[d], grad_models[d])),
        ("VI", cfg.vi_epochs, lambda t, d: bnn.elbo_objective(
            models[d], *directions[d], min(1.0, t / cfg.warmup_epochs), vi_stream.child(t),
            grad_models[d])),
    )
    for phase, epochs, objective in phases:
        moments = [(np.zeros_like(vec), np.zeros_like(vec)) for vec in params]
        for t in range(epochs):
            lr = cosine_lr(t, epochs, cfg.lr_max, cfg.lr_min)
            for d, (m, v) in enumerate(moments):
                loss = objective(t, d)
                if not np.isfinite(loss):
                    raise NumericError(
                        f"non-finite loss in direction {d}, {phase} phase at epoch {t}")
                try:
                    adam_step(params[d], grads[d], m, v, t + 1, lr, blocks)
                except NumericError as e:
                    raise NumericError(f"direction {d}, {phase} phase, epoch {t}: {e}") from None
    return models


def conditional_variational_codelength(
    models: Sequence, directions: Sequence[tuple[np.ndarray, np.ndarray]],
    mc_eval_samples: int, stream: RngStream,
) -> list[float]:
    """Per direction, the Monte Carlo expected NLL of the effect given the
    cause under the posterior plus the analytic KL.

    The directions are evaluated in lockstep, each sample drawing the same
    noise for every direction, so the noise is generated once per sample.
    """
    mc_eval_samples = check_int("mc_eval_samples", mc_eval_samples)
    if mc_eval_samples < 1:
        raise ArgumentError("mc_eval_samples must be >= 1")
    directions = _check_directions(directions, 1)
    if len(models) != len(directions):
        raise ArgumentError(f"got {len(models)} models for {len(directions)} directions")
    totals = [0.0] * len(models)
    for m in range(mc_eval_samples):
        sample_stream = stream.child("eval", m)
        for d, (model, (x, y)) in enumerate(zip(models, directions)):
            mu, sigma = model.sample_predictions(x, sample_stream)
            totals[d] += bnn.gaussian_nll(y, mu, sigma)
    return [total / mc_eval_samples + model.kl() for total, model in zip(totals, models)]


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
    models = train_conditional(directions, cfg, stream)
    l_forward, l_backward = conditional_variational_codelength(
        models, directions, cfg.mc_eval_samples, stream.child("final-eval"))
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
