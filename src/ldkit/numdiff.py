"""Central finite-difference helpers shared across the package."""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

__all__ = ["gradient_step", "central_gradient", "central_jacobian"]


def gradient_step(x: np.ndarray) -> float:
    """Step size 1e-6 * max(1, |x|) used for all first derivatives."""
    x = np.asarray(x, dtype=float).ravel()
    return 1e-6 * max(1.0, math.sqrt(x.dot(x)))


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
    """Central-difference Jacobian of a vector function at ``x``.

    Returns a (len(fn(x)), len(x)) matrix.
    """
    h = gradient_step(x)
    probe = x.astype(float, copy=True)
    cols = []
    for i in range(x.shape[0]):
        xi = probe[i]
        probe[i] = xi + h
        hi = np.asarray(fn(probe), dtype=float)
        probe[i] = xi - h
        lo = np.asarray(fn(probe), dtype=float)
        probe[i] = xi
        cols.append((hi - lo) / (2.0 * h))
    return np.column_stack(cols) if cols else np.zeros((0, 0))


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
        norm = math.sqrt(vj.dot(vj))
        if norm == 0.0:
            continue
        s = h / norm
        hi = np.asarray(fn(x + s * vj), dtype=float)
        lo = np.asarray(fn(x - s * vj), dtype=float)
        if hi.shape != (m,) or lo.shape != (m,):
            raise ValueError(f"expected {m} values, got shapes {hi.shape} "
                             f"and {lo.shape}")
        out[:, j] = (hi - lo) / (2.0 * s)
    return out
