"""Direction scoring by codelength comparison.

Each candidate direction is priced as the cost of encoding the hypothesized
cause under a standard normal plus the variational cost of encoding the
effect given the cause under a trained Bayesian network. The difference of
the two direction scores decides the causal direction; its magnitude is the
confidence.

A pair is priced as a sample, not as a file: score_pair sorts each
direction's rows by (cause, effect) after standardizing, so any row order
of the pair gives the same bits.

Training and evaluation take the causes x and the effects y as float
(directions x rows) matrices, with the stack axis bnn uses: x[d] and y[d]
hold direction d's data rows, and one direction alone is a (1 x rows)
matrix. score_pair stacks a pair once, each direction in its own row
order, and hands the same two matrices, cast to float32, to both: bnn then
runs every data-sized array in float32, while the parameters, their
gradient, the KL and each loss's row sum stay float64 (see bnn). The
marginals and the stream key are taken from the float64 columns. The
directions are trained in one pass, one objective call and one Adam step
per epoch, then evaluated in one pass per Monte Carlo sample. Both take all their randomness, initial weights
and every noise draw, from one stream keyed by the sorted pair of
fingerprints of the sorted standardized columns. VI epochs and samples
run in antithetic pairs: passes 2k and 2k + 1 hand bnn the same child of
that stream, with signs 1 and -1, so the second runs on the negated noise
of the first, which the workspace keeps; an odd count ends on one plain
draw. Each draw serves both directions (common random numbers; each
direction's noise is still standard normal). The key does not depend on
which argument slot a column occupies, and each direction's arithmetic
depends only on its own data and the noise, with no reduction across
directions, so score_pair on the swapped pair is the bit-exact mirror of
the original computation.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from . import bnn
from .bnn import ConditionalModel
from .data import PairDataset, UNDECIDED, X_CAUSES_Y, Y_CAUSES_X, standardize
from .errors import ArgumentError, NumericError, check_count
from .optim import adam_step, cosine_lr
from .rng import RngStream, check_seed


@dataclass(frozen=True)
class TrainConfig:
    """The two-phase training schedule's settings; optim fixes its learning-rate range.

    hidden_width is at least 2: bnn makes its byte promises, on which the
    swap mirror rests, from width 2 on.
    """

    hidden_width: int = 50
    vi_epochs: int = 2500
    warmup_epochs: int = 250
    map_epochs: int = 2500
    mc_eval_samples: int = 64
    seed: int = 0

    def __post_init__(self):
        for name, least in (("hidden_width", 2), ("vi_epochs", 1), ("warmup_epochs", 1),
                            ("map_epochs", 1), ("mc_eval_samples", 1)):
            object.__setattr__(self, name, check_count(name, getattr(self, name), least))
        object.__setattr__(self, "seed", check_seed(self.seed))
        if self.warmup_epochs > self.vi_epochs:
            raise ArgumentError("warmup_epochs must not exceed vi_epochs")


@dataclass
class PairReport:
    """One scored pair: each direction's codelengths (nats), their sums, the decision."""

    l_marginal_x: float
    l_cond_y_given_x: float
    l_marginal_y: float
    l_cond_x_given_y: float
    delta_xy: float
    delta_yx: float
    final_delta: float
    decision: str
    confidence: float


def marginal_gaussian_codelength(x: np.ndarray) -> float:
    """Nats to encode x under a fixed standard normal."""
    return float(bnn.gaussian_nll(np.asarray(x, dtype=float)))


def _directions(x, y, min_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """x and y as arrays of bnn.data_dtype(x); ArgumentError unless they are
    finite (directions x rows) matrices of one shape with at least one
    direction and min_rows rows."""
    dtype = bnn.data_dtype(x)
    x = np.asarray(x, dtype=dtype)
    y = np.asarray(y, dtype=dtype)
    if x.ndim != 2 or x.shape != y.shape or len(x) < 1 or x.shape[1] < min_rows:
        raise ArgumentError(
            f"x and y must be (directions x rows) matrices of one shape, with at least "
            f"1 direction and {min_rows} rows; got shapes {x.shape} and {y.shape}")
    for name, values in (("x", x), ("y", y)):
        if not np.isfinite(values).all():
            raise ArgumentError(f"{name} must be finite, got {values[~np.isfinite(values)][0]}")
    return x, y


def _antithetic(stream: RngStream, index: int, *tags) -> tuple[RngStream, int]:
    """The (stream, sign) of pass index of a sequence of antithetic pairs:
    passes 2k and 2k + 1 share stream.child(*tags, k), with signs 1 and -1."""
    return stream.child(*tags, index // 2), 1 - 2 * (index % 2)


def train_conditional(x, y, cfg: TrainConfig, stream: RngStream) -> ConditionalModel:
    """Fit a conditional model of y[d] given x[d] for each direction d, all
    in one pass: point-estimate pretraining, then variational optimization
    with a linear complexity warm-up. x and y are (directions x rows)
    matrices with at least 2 rows; returns the fitted models stacked along
    the leading axis, in direction order.

    Every direction starts from the same initial weights, and each VI
    epoch's noise is shared by all directions. VI epochs 2k and 2k + 1 are
    an antithetic pair: epoch 2k + 1 runs on the negated noise of epoch 2k,
    which the workspace keeps, so each pair draws once. The
    parameters are one (directions x P) matrix, which is the stacked model
    (its blocks are views of it). One bnn.Workspace, bound once with
    grad=True, holds the arrays of every pass, the gradient matrix among
    them. Each epoch makes one objective call, which overwrites the
    gradient matrix, and one Adam step on the matrices, which updates the
    parameters and the moment matrices m and v in place. No operation
    mixes directions, so each gets the bytes it would get trained alone
    (see bnn). Both phases run full-batch under Adam with a cosine
    learning-rate schedule from LR_MAX to LR_MIN; the second phase starts
    from zeroed Adam moments since it minimizes a different objective. A
    NumericError names the direction's index, the phase and the epoch, and
    a non-finite gradient's block and offset too.
    """
    x, y = _directions(x, y, 2)
    initial = ConditionalModel.initial(cfg.hidden_width, stream.child("init"))
    model = ConditionalModel(np.tile(initial.params, (len(x), 1)), cfg.hidden_width)
    ws = bnn.Workspace(model, x, y, grad=True)
    params, grads = model.params, ws.grad.params
    vi_stream = stream.child("vi")
    phases = (
        ("MAP", cfg.map_epochs, lambda t: bnn.map_objective(ws)),
        ("VI", cfg.vi_epochs, lambda t: bnn.elbo_objective(
            ws, min(1.0, t / cfg.warmup_epochs), *_antithetic(vi_stream, t))),
    )
    for phase, epochs, objective in phases:
        m, v = np.zeros_like(params), np.zeros_like(params)
        for t in range(epochs):
            lr = cosine_lr(t, epochs)
            bad = ~np.isfinite(objective(t))
            if bad.any():
                raise NumericError(f"non-finite loss in direction {int(np.argmax(bad))}, "
                                   f"{phase} phase at epoch {t}")
            try:
                adam_step(params, grads, m, v, t + 1, lr)
            except NumericError:
                d = int(np.argmin(np.isfinite(grads).all(axis=-1)))
                for name, block in ws.grad.blocks:
                    bad = np.flatnonzero(~np.isfinite(block[d]))
                    if bad.size:
                        raise NumericError(
                            f"direction {d}, {phase} phase, epoch {t}: non-finite "
                            f"gradient in block '{name}' (offset {bad[0]})") from None
                raise
    return model


def conditional_variational_codelength(
    model, x, y, mc_eval_samples: int, stream: RngStream
) -> list[float]:
    """Per direction d of the (directions x rows) matrices x and y, the
    Monte Carlo expected NLL of y[d] given x[d] under the posterior plus the
    analytic KL.

    model holds one model per direction along its leading axis, as
    train_conditional returns it; it is used through a duck-typed surface:
    sampler(x, y), whose function (stream, sign) runs one sample and prices
    it by the NLL training minimizes, on the noise of (stream, sign)
    (bnn.model_forward for a ConditionalModel), and kl() (bnn.kl_model).
    Samples 2k and 2k + 1 are an antithetic pair on stream.child("eval",
    k): sample 2k + 1 takes the negated noise of sample 2k, so an odd
    mc_eval_samples ends on one plain draw. Each sample's noise is shared
    by all directions, and one pass evaluates them all. A non-finite
    codelength (each sample's activations are checked, so it comes from a
    non-finite KL) is a NumericError naming its direction.
    """
    mc_eval_samples = check_count("mc_eval_samples", mc_eval_samples, 1)
    x, y = _directions(x, y, 1)
    kl = model.kl()
    sample = model.sampler(x, y)
    totals = np.zeros(len(x))
    for m in range(mc_eval_samples):
        totals += sample(*_antithetic(stream, m, "eval"))
    codelengths = totals / mc_eval_samples + kl
    bad = ~np.isfinite(codelengths)
    if bad.any():
        raise NumericError(f"non-finite codelength in direction {int(np.argmax(bad))}")
    return codelengths.tolist()


def _fingerprint(values: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()[:16]


def score_pair(pair: PairDataset, cfg: TrainConfig) -> PairReport:
    """Score both directions of a pair and decide which column is the cause.

    Each column is standardized, and each direction's rows are sorted by
    its cause, ties by its effect (np.lexsort), before any pricing: the
    marginal and conditional codelengths and the stream key all see the
    sorted sample, so a row permutation of the pair changes no bit of the
    report. A positive final_delta means the first column causes the
    second; the swapped pair scores its bit-exact negation, save an exact
    tie: columns that standardize to the same bits (x and x.copy() or
    2.0 * x) make a pair that is its own swap, scoring +0.0 and UNDECIDED
    both ways. In a NumericError, direction 0 is x -> y and direction 1 is
    y -> x; an ArgumentError from standardize is prefixed with its column's
    name, x or y.
    """
    columns = []
    for name, column in (("x", pair.x), ("y", pair.y)):
        try:
            columns.append(standardize(column)[0])
        except ArgumentError as e:
            raise ArgumentError(f"{name}: {e}") from None
    zx, zy = columns
    xy, yx = np.lexsort((zy, zx)), np.lexsort((zx, zy))
    causes, effects = np.stack((zx[xy], zy[yx])), np.stack((zy[xy], zx[yx]))
    # causes[0] and causes[1] are the two columns sorted
    stream = RngStream(cfg.seed).child("pair", *sorted(map(_fingerprint, causes)))
    data = causes.astype(np.float32), effects.astype(np.float32)
    model = train_conditional(*data, cfg, stream)
    l_cond_y_given_x, l_cond_x_given_y = conditional_variational_codelength(
        model, *data, cfg.mc_eval_samples, stream.child("final-eval"))
    l_marginal_x = marginal_gaussian_codelength(causes[0])
    l_marginal_y = marginal_gaussian_codelength(causes[1])
    delta_xy = l_marginal_x + l_cond_y_given_x
    delta_yx = l_marginal_y + l_cond_x_given_y
    final_delta = delta_yx - delta_xy
    if final_delta > 0:
        decision = X_CAUSES_Y
    elif final_delta < 0:
        decision = Y_CAUSES_X
    else:
        decision = UNDECIDED
    return PairReport(l_marginal_x, l_cond_y_given_x, l_marginal_y, l_cond_x_given_y,
                      delta_xy, delta_yx, final_delta, decision, abs(final_delta))
