"""Central finite-difference helpers shared across the package."""

from __future__ import annotations

import math
from typing import Callable, Iterable

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
                        directions: Iterable[np.ndarray],
                        m: int) -> np.ndarray:
    """Central-difference derivatives of a map R^n -> R^m along each
    n-vector v_j of ``directions``: column j approximates J(x) v_j, J the
    Jacobian of fn.

    ``directions`` is any sequence of n-vectors, such as the rows of a
    matrix or ``(*g.T, w)``, so that no matrix of directions is assembled.
    Column j is (fn(x + s v_j) - fn(x - s v_j)) / 2s with
    s = gradient_step(x) / |v_j|, so each probe lies as far from x as a
    coordinate probe of :func:`central_jacobian` does.  |v_j| is taken by
    ``math.hypot`` as in :func:`gradient_step`, so a direction far above
    1e154 still gives a finite step, and any memory order gives the same
    bits.  An entry of s v_j that underflows is the 0 or subnormal that
    IEEE rounding gives.  A zero direction, or one so short that s
    overflows, gives a column of exact zeros and costs no evaluation.  For
    m = 1 each quotient is taken in Python floats, the same IEEE
    subtraction and division as numpy's, so the same bits, at less call
    overhead: a quotient that overflows is inf, and one over s = 0 inf or
    nan.  Like the rest of this module, it runs under the floating-point
    rule of the public function that calls it and sets none of its own.
    Returns the C-ordered (m, number of directions) matrix; raises
    ValueError when fn does not return m values, which numpy would
    otherwise broadcast into the column.
    """
    h = gradient_step(x)
    cols: list = []
    for vj in directions:
        norm = math.hypot(*vj.tolist())
        s = h / norm if norm else math.inf
        if s == math.inf:  # no finite probe along v_j: J v_j is taken as 0
            cols.append(0.0 if m == 1 else np.zeros(m))
            continue
        d = s * vj
        hi = np.asarray(fn(x + d), dtype=_FLOAT)
        lo = np.asarray(fn(x - d), dtype=_FLOAT)
        if hi.shape != (m,) or lo.shape != (m,):
            raise ValueError(f"expected {m} values, got shapes {hi.shape} "
                             f"and {lo.shape}")
        if m == 1:
            # s = 0 (|v_j| overflowed) divides as numpy does: q / +0.0
            # is q * inf, nan for q = 0
            q = hi.item() - lo.item()
            cols.append(q / (2.0 * s) if s else q * math.inf)
        else:
            cols.append((hi - lo) / (2.0 * s))
    if m == 1:
        return np.array([cols])
    return np.column_stack(cols) if cols else np.zeros((m, 0))
