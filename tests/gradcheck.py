"""Central-difference gradients: the oracle the hand-derived gradients are checked against."""

import math
from typing import Callable

import numpy as np

from comic.errors import ArgumentError, NumericError


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
