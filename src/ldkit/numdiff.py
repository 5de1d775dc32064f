"""Central finite-difference helpers shared across the package."""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

__all__ = ["gradient_step", "central_gradient", "central_jacobian"]


# numpy converts ``dtype=float`` to this on every call; given, it is not
_FLOAT = np.dtype(float)


def gradient_step(x: np.ndarray) -> float:
    """Step size 1e-6 * max(1, |x|) used for all first derivatives.

    |x| is taken by ``math.hypot``, which scales the entries: it is
    infinite only where |x| is, raises no numpy floating-point warning or
    error, and is the same for any memory order of ``x``.
    """
    x = np.asarray(x, dtype=_FLOAT).ravel()
    return 1e-6 * max(1.0, math.hypot(*x.tolist()))


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
    coordinate probe of :func:`central_jacobian` does.  |v_j| is taken by
    ``math.hypot`` as in :func:`gradient_step`, so a column far above
    1e154 still gives a finite step, and ``v`` in C or F order gives the
    same bits.  A zero column, or one so short that s overflows, is
    exactly 0 and costs no evaluation.  Returns an (m, v.shape[1]) matrix;
    raises ValueError when fn does not return m values, which numpy would
    otherwise broadcast into the column.
    """
    h = gradient_step(x)
    out = np.zeros((m, v.shape[1]))
    for j in range(v.shape[1]):
        vj = v[:, j]
        norm = math.hypot(*vj.tolist())
        s = h / norm if norm else math.inf
        if s == math.inf:  # no finite probe along v_j: J v_j is taken as 0
            continue
        d = s * vj
        hi = np.asarray(fn(x + d), dtype=_FLOAT)
        lo = np.asarray(fn(x - d), dtype=_FLOAT)
        if hi.shape != (m,) or lo.shape != (m,):
            raise ValueError(f"expected {m} values, got shapes {hi.shape} "
                             f"and {lo.shape}")
        out[:, j] = (hi - lo) / (2.0 * s)
    return out
