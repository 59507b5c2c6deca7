"""Direction scoring by codelength comparison.

Each candidate direction is priced as the cost of encoding the hypothesized
cause under a standard normal plus the variational cost of encoding the
effect given the cause under a trained Bayesian network. The difference of
the two direction scores decides the causal direction; its magnitude is the
confidence.

All randomness used while scoring a pair is keyed by fingerprints of the
standardized columns, never by which argument slot a column occupies. A
column therefore drags its exact training noise along when the pair is
swapped, which makes score_pair on the swapped pair the bit-exact mirror
of the original computation.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

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


def train_conditional(
    x: np.ndarray, y: np.ndarray, cfg: TrainConfig, stream: RngStream
) -> ConditionalModel:
    """Fit the conditional model: point-estimate pretraining, then
    variational optimization with a linear complexity warm-up.

    Both phases run full-batch under Adam with a cosine learning-rate
    schedule; the second phase starts from zeroed Adam moments since it
    minimizes a different objective. The model is bound once to a flat
    parameter vector, and its gradient to a flat gradient vector (blocks are
    views of them). Each objective overwrites the gradient vector, and Adam
    reads it as it is and updates the parameter vector and the moment
    vectors m and v in place, so the model always reflects the latest update.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape or x.size < 2:
        raise ArgumentError("training needs matched vectors with at least 2 samples")

    initial = ConditionalModel.initial(cfg.hidden_width, stream.child("init"))
    params = bnn.pack_params(initial)
    model = bnn.unpack_params(initial, params)
    grads = np.empty_like(params)
    grad = bnn.unpack_params(initial, grads)
    blocks = bnn.param_blocks(model)
    vi_stream = stream.child("vi")
    phases = (
        ("MAP", cfg.map_epochs, lambda t: bnn.map_objective(model, x, y, grad)),
        ("VI", cfg.vi_epochs, lambda t: bnn.elbo_objective(
            model, x, y, min(1.0, t / cfg.warmup_epochs), vi_stream.child(t), grad)),
    )
    for phase, epochs, objective in phases:
        m = np.zeros_like(params)
        v = np.zeros_like(params)
        for t in range(epochs):
            loss = objective(t)
            if not np.isfinite(loss):
                raise NumericError(f"non-finite loss in {phase} phase at epoch {t}")
            lr = cosine_lr(t, epochs, cfg.lr_max, cfg.lr_min)
            try:
                adam_step(params, grads, m, v, t + 1, lr, blocks)
            except NumericError as e:
                raise NumericError(f"{phase} phase, epoch {t}: {e}") from None
    return model


def conditional_variational_codelength(
    model, x: np.ndarray, y: np.ndarray, mc_eval_samples: int, stream: RngStream
) -> float:
    """Monte Carlo expected NLL under the posterior plus the analytic KL."""
    mc_eval_samples = check_int("mc_eval_samples", mc_eval_samples)
    if mc_eval_samples < 1:
        raise ArgumentError("mc_eval_samples must be >= 1")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise ArgumentError("x and y must be 1-D vectors of equal length")
    total = 0.0
    for m in range(mc_eval_samples):
        mu, sigma = model.sample_predictions(x, stream.child("eval", m))
        total += bnn.gaussian_nll(y, mu, sigma)
    return total / mc_eval_samples + model.kl()


def _fingerprint(values: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()[:16]


def _direction_report(
    cause: np.ndarray, effect: np.ndarray, cfg: TrainConfig, stream: RngStream
) -> DirectionReport:
    l_marginal = marginal_gaussian_codelength(cause)
    model = train_conditional(cause, effect, cfg, stream)
    l_conditional = conditional_variational_codelength(
        model, cause, effect, cfg.mc_eval_samples, stream.child("final-eval")
    )
    return DirectionReport.of(l_marginal, l_conditional)


def score_pair(pair: PairDataset, cfg: TrainConfig) -> PairReport:
    """Score both directions of a pair and decide which column is the cause.

    A positive final_delta means the first column causes the second.
    """
    zx, _, _ = standardize(pair.x)
    zy, _, _ = standardize(pair.y)
    hx = _fingerprint(zx)
    hy = _fingerprint(zy)
    root = RngStream(cfg.seed)
    forward = _direction_report(zx, zy, cfg, root.child("cause", hx, "effect", hy))
    backward = _direction_report(zy, zx, cfg, root.child("cause", hy, "effect", hx))
    final_delta = backward.delta - forward.delta
    if final_delta > 0:
        decision = X_CAUSES_Y
    elif final_delta < 0:
        decision = Y_CAUSES_X
    else:
        decision = UNDECIDED
    return PairReport(forward, backward, final_delta, decision, abs(final_delta))
