"""Adam, the cosine learning-rate schedule, and a finite-difference oracle.

All state lives in plain float64 arrays owned by the caller; every update
is deterministic given its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ArgumentError, NumericError


@dataclass
class CosineSchedule:
    lr_max: float
    lr_min: float
    total_epochs: int

    def __post_init__(self):
        if self.total_epochs < 1:
            raise ArgumentError("total_epochs must be >= 1")
        if not self.lr_min <= self.lr_max:
            raise ArgumentError("lr_min must not exceed lr_max")


def cosine_lr(t: float, sched: CosineSchedule) -> float:
    """Learning rate at epoch t, annealed from lr_max to lr_min."""
    if not 0 <= t <= sched.total_epochs:
        raise ArgumentError(
            f"epoch {t} outside schedule range [0, {sched.total_epochs}]"
        )
    # endpoints returned exactly, independent of rounding in the formula
    if t == 0:
        return sched.lr_max
    if t == sched.total_epochs:
        return sched.lr_min
    span = sched.lr_max - sched.lr_min
    return sched.lr_min + 0.5 * span * (1.0 + math.cos(math.pi * t / sched.total_epochs))


# Adam's moment decay rates and denominator guard
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamState:
    step: int
    m: np.ndarray
    v: np.ndarray

    @classmethod
    def initial(cls, n_params: int) -> "AdamState":
        return cls(0, np.zeros(n_params), np.zeros(n_params))


def adam_step(
    state: AdamState,
    params: np.ndarray,
    grads: np.ndarray,
    lr: float,
    param_blocks: Sequence[tuple[str, int]] | None = None,
) -> tuple[AdamState, np.ndarray]:
    """One bias-corrected Adam update; returns new state and parameters.

    param_blocks optionally names contiguous segments of the flat vector
    (name, length) so a non-finite gradient can be reported by block.
    """
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise ArgumentError(
            f"length mismatch: params {params.shape}, grads {grads.shape}, "
            f"state {state.m.shape}"
        )
    if lr <= 0:
        raise ArgumentError(f"learning rate must be positive, got {lr}")
    bad = ~np.isfinite(grads)
    if bad.any():
        raise NumericError(
            "non-finite gradient in " + _locate_block(int(np.argmax(bad)), param_blocks)
        )
    step = state.step + 1
    m = BETA1 * state.m + (1.0 - BETA1) * grads
    v = BETA2 * state.v + (1.0 - BETA2) * grads * grads
    m_hat = m / (1.0 - BETA1 ** step)
    v_hat = v / (1.0 - BETA2 ** step)
    return AdamState(step, m, v), params - lr * m_hat / (np.sqrt(v_hat) + EPS)


def _locate_block(index: int, blocks: Sequence[tuple[str, int]] | None) -> str:
    if blocks is None:
        return f"parameter {index}"
    offset = 0
    for name, length in blocks:
        if index < offset + length:
            return f"block '{name}' (offset {index - offset})"
        offset += length
    return f"parameter {index}"


def finite_diff_grad(
    f: Callable[[np.ndarray], float], x: np.ndarray, h: float
) -> np.ndarray:
    """Central-difference gradient of a scalar function, used as a test oracle."""
    if h <= 0:
        raise ArgumentError(f"step size must be positive, got {h}")
    x = np.asarray(x, dtype=float)
    grad = np.empty_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp.flat[i] += h
        xm.flat[i] -= h
        fp = f(xp)
        fm = f(xm)
        if not (math.isfinite(fp) and math.isfinite(fm)):
            raise NumericError(f"non-finite objective at probe for coordinate {i}")
        grad.flat[i] = (fp - fm) / (2.0 * h)
    return grad
