"""Adam and the cosine learning-rate schedule.

Adam's state is two plain float64 arrays, the moments m and v, owned by the
caller next to a parameter array of any shape. adam_step updates all three
in place, elementwise, and returns nothing; every update is deterministic
given its inputs, and a step that raises has written nothing.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ArgumentError, NumericError, check_int


# the learning-rate range every training phase anneals over, fixed like the betas
LR_MAX = 1e-2
LR_MIN = 1e-6


def cosine_lr(t: float, total_epochs: int) -> float:
    """Learning rate at epoch t, annealed from LR_MAX to LR_MIN.

    For this range the formula itself gives exactly LR_MAX at t == 0 and,
    as the cosine of the angle at t == total_epochs rounds to -1.0, exactly
    LR_MIN there.
    """
    if check_int("total_epochs", total_epochs) < 1:
        raise ArgumentError(f"total_epochs must be at least 1, got {total_epochs}")
    if not 0 <= t <= total_epochs:
        raise ArgumentError(f"epoch {t} outside schedule range [0, {total_epochs}]")
    return LR_MIN + 0.5 * (LR_MAX - LR_MIN) * (1.0 + math.cos(math.pi * t / total_epochs))


# Adam's moment decay rates and denominator guard
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8

# adam_step's constant operands as 0-d arrays, which numpy need not convert
# on every call as it does a Python float; the doubles are the same
_BETA1, _BETA2, _EPS = np.array(BETA1), np.array(BETA2), np.array(EPS)
_ONE_MINUS_BETA1, _ONE_MINUS_BETA2 = np.array(1.0 - BETA1), np.array(1.0 - BETA2)


def adam_step(
    params: np.ndarray,
    grads: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    step: int,
    lr: float,
) -> None:
    """One bias-corrected Adam update of params, m and v, in place.

    The four arrays share one shape, so a (D, P) matrix steps as its D rows
    would one by one. step is an integer counting from 1 (the first update
    of a run passes 1), and lr a finite positive real. A non-finite
    gradient is named by its flat index.
    """
    if not params.shape == grads.shape == m.shape == v.shape:
        raise ArgumentError(
            f"length mismatch: params {params.shape}, grads {grads.shape}, "
            f"m {m.shape}, v {v.shape}"
        )
    if check_int("step", step) < 1:
        raise ArgumentError(f"step counts from 1, got {step}")
    if not (lr > 0 and math.isfinite(lr)):
        raise ArgumentError(f"learning rate must be finite and positive, got {lr}")
    finite = np.isfinite(grads)
    if not np.logical_and.reduce(finite, axis=None):
        raise NumericError(f"non-finite gradient in parameter {int(np.argmin(finite))}")
    # m * BETA1 has the bytes of BETA1 * m, and x * lr those of lr * x, so
    # these match the textbook form; two temporaries serve every step
    m *= _BETA1
    scratch = np.multiply(_ONE_MINUS_BETA1, grads)
    m += scratch
    v *= _BETA2
    np.multiply(_ONE_MINUS_BETA2, grads, out=scratch)
    scratch *= grads
    v += scratch
    denom = np.divide(v, 1.0 - BETA2 ** step)
    np.sqrt(denom, out=denom)
    denom += _EPS
    update = np.divide(m, 1.0 - BETA1 ** step, out=scratch)
    update *= lr
    update /= denom
    params -= update
