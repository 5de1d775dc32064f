"""Central finite-difference helpers shared across the package."""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

__all__ = ["gradient_step", "central_gradient", "central_jacobian"]


# where |x| <= 1e154, no partial sum of x·x exceeds 1e308, the largest
# power of ten below the float maximum
_SQUARES_SAFE = 1e154
# numpy converts ``dtype=float`` to this on every call; given, it is not
_FLOAT = np.dtype(float)


def _squares(v: np.ndarray) -> float:
    """v·v by BLAS.  A square that underflows is no error here: where
    ``np.errstate(under="raise")`` makes it one, the sum is taken again
    with underflow ignored, which gives the same bits."""
    try:
        return v.dot(v)
    except FloatingPointError:
        with np.errstate(under="ignore"):
            return v.dot(v)


def gradient_step(x: np.ndarray) -> float:
    """Step size 1e-6 * max(1, |x|) used for all first derivatives.

    |x| is first taken by ``math.hypot``, which scales the entries and so
    is infinite only where |x| is.  Up to 1e154, where x·x cannot
    overflow, it is taken again as sqrt(x·x) by BLAS, whose last bit every
    finite difference and trajectory depends on.  Neither raises a numpy
    floating-point warning or error, an underflowing square included.
    """
    x = np.asarray(x, dtype=_FLOAT).ravel()
    norm = math.hypot(*x.tolist())
    if norm <= _SQUARES_SAFE:
        norm = math.sqrt(_squares(x))
    return 1e-6 * max(1.0, norm)


def central_gradient(fn: Callable[[np.ndarray], float],
                     x: np.ndarray) -> np.ndarray:
    """Central-difference gradient of a scalar function at ``x``."""
    h = gradient_step(x)
    grad = np.empty(x.shape[0])
    probe = x.astype(float, copy=True)
    for i in range(x.shape[0]):
        xi = probe[i]
        probe[i] = xi + h
        hi = fn(probe)
        probe[i] = xi - h
        lo = fn(probe)
        probe[i] = xi
        grad[i] = (hi - lo) / (2.0 * h)
    return grad


def central_jacobian(fn: Callable[[np.ndarray], np.ndarray],
                     x: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian of a vector function at ``x``: the
    (len(fn(x)), len(x)) matrix of :func:`central_directional` along the
    coordinate axes."""
    return central_directional(fn, x, np.eye(x.shape[0]), len(fn(x)))


def central_directional(fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
                        v: np.ndarray, m: int) -> np.ndarray:
    """Central-difference derivatives of a map R^n -> R^m along the columns
    of ``v``: column j approximates J(x) v_j, J the Jacobian of fn.

    Column j is (fn(x + s v_j) - fn(x - s v_j)) / 2s with
    s = gradient_step(x) / |v_j|, so each probe lies as far from x as a
    coordinate probe of :func:`central_jacobian` does.  A zero column is
    exactly 0 and costs no evaluation.  Returns an (m, v.shape[1]) matrix;
    raises ValueError when fn does not return m values, which numpy would
    otherwise broadcast into the column.
    """
    h = gradient_step(x)
    out = np.zeros((m, v.shape[1]))
    for j in range(v.shape[1]):
        vj = v[:, j]
        norm = math.sqrt(_squares(vj))
        if norm == 0.0:
            continue
        s = h / norm
        d = s * vj
        hi = np.asarray(fn(x + d), dtype=_FLOAT)
        lo = np.asarray(fn(x - d), dtype=_FLOAT)
        if hi.shape != (m,) or lo.shape != (m,):
            raise ValueError(f"expected {m} values, got shapes {hi.shape} "
                             f"and {lo.shape}")
        out[:, j] = (hi - lo) / (2.0 * s)
    return out
