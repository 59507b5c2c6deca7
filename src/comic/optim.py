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


def cosine_lr(t: float, total_epochs: int, lr_max: float, lr_min: float) -> float:
    """Learning rate at epoch t, annealed from lr_max to lr_min."""
    if not 0 <= t <= total_epochs:
        raise ArgumentError(f"epoch {t} outside schedule range [0, {total_epochs}]")
    # endpoints returned exactly, independent of rounding in the formula
    if t == 0:
        return lr_max
    if t == total_epochs:
        return lr_min
    span = lr_max - lr_min
    return lr_min + 0.5 * span * (1.0 + math.cos(math.pi * t / total_epochs))


# the learning-rate range every training phase anneals over, fixed like the betas
LR_MAX = 1e-2
LR_MIN = 1e-6

# Adam's moment decay rates and denominator guard
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


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
    if not finite.all():
        raise NumericError(f"non-finite gradient in parameter {int(np.argmin(finite))}")
    # m * BETA1 has the bytes of BETA1 * m, so these match the textbook form
    m *= BETA1
    m += (1.0 - BETA1) * grads
    v *= BETA2
    v += (1.0 - BETA2) * grads * grads
    m_hat = m / (1.0 - BETA1 ** step)
    v_hat = v / (1.0 - BETA2 ** step)
    params -= lr * m_hat / (np.sqrt(v_hat) + EPS)
