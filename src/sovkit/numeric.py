"""Contour quadrature, ODE integration and finite differences.

The quadrature works on piecewise-linear contours in the complex plane; the
ODE stepper is an embedded Dormand--Prince 5(4) pair operating on complex
state vectors.
"""

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import NumericDomainError
from .tolerances import DEFAULT, Tolerances

__all__ = ["PathSpec", "QuadResult", "integrate_path", "ode_solve", "fd_gradient"]


@dataclass(frozen=True)
class PathSpec:
    """Piecewise-linear contour given by its waypoints in the z-plane."""

    waypoints: tuple

    def __post_init__(self):
        pts = tuple(complex(w) for w in self.waypoints)
        if len(pts) < 2:
            raise ValueError("a path needs at least two waypoints")
        for a, b in zip(pts, pts[1:]):
            if a == b:
                raise ValueError("consecutive waypoints must be distinct")
        object.__setattr__(self, "waypoints", pts)

    @property
    def length(self):
        return sum(abs(b - a) for a, b in zip(self.waypoints, self.waypoints[1:]))

    def reversed(self):
        return PathSpec(self.waypoints[::-1])


class QuadResult(NamedTuple):
    value: complex
    error: float


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)


def _gl_panel(f, a, b):
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    zs = mid + half * _GL_NODES
    vals = np.asarray([f(z) for z in zs], dtype=complex)
    return half * np.dot(_GL_WEIGHTS, vals)


def _adaptive(f, a, b, tol_abs, depth):
    if depth > 48:
        raise NumericDomainError("singular path")
    whole = _gl_panel(f, a, b)
    mid = 0.5 * (a + b)
    left = _gl_panel(f, a, mid)
    right = _gl_panel(f, mid, b)
    fine = left + right
    err = abs(fine - whole)
    if err <= max(tol_abs, 1e-15 * abs(fine)):
        return fine, err
    lv, le = _adaptive(f, a, mid, tol_abs / 2, depth + 1)
    rv, re = _adaptive(f, mid, b, tol_abs / 2, depth + 1)
    return lv + rv, le + re


def integrate_path(f: Callable, path: PathSpec, tol: Tolerances = DEFAULT) -> QuadResult:
    """Adaptive Gauss--Legendre quadrature of ``f`` along ``path``.

    Returns the value together with an absolute error estimate; raises
    ``NumericDomainError("singular path")`` when panel refinement does not
    converge (a singularity on or near the contour).
    """
    total = 0.0 + 0.0j
    err = 0.0
    length = path.length
    for a, b in zip(path.waypoints, path.waypoints[1:]):
        budget = tol.quad * abs(b - a) / length
        v, e = _adaptive(f, a, b, budget, 0)
        total += v
        err += e
    return QuadResult(total, err)


# ---------------------------------------------------------------------------
# Dormand--Prince 5(4)
# ---------------------------------------------------------------------------

_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                   -92097 / 339200, 187 / 2100, 1 / 40])


def _dp_step(field, t, y, h):
    k = [np.asarray(field(t, y), dtype=complex)]
    for i in range(1, 7):
        acc = sum(a * kk for a, kk in zip(_DP_A[i], k))
        k.append(np.asarray(field(t + _DP_C[i] * h, y + h * acc), dtype=complex))
    k = np.array(k)
    y5 = y + h * np.tensordot(_DP_B5, k, axes=1)
    err = h * np.tensordot(_DP_B5 - _DP_B4, k, axes=1)
    return y5, err


def ode_solve(field: Callable, x0, t_grid: Sequence[float],
              tol: Tolerances = DEFAULT, fixed_step: float | None = None):
    """Integrate ``dx/dt = field(t, x)`` and return the states at ``t_grid``.

    ``t_grid`` must be increasing and starts at the initial time.  With
    ``fixed_step`` set, classical fixed-step RK5 substeps are used instead of
    adaptive control (useful for convergence-order studies).  Raises
    ``NumericDomainError("stiff or singular flow")`` on step underflow.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 1 or np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be strictly increasing")
    y = np.asarray(x0, dtype=complex).copy()
    out = np.empty((t_grid.size, y.size), dtype=complex)
    out[0] = y
    rtol = tol.ode
    atol = tol.ode * 1e-2
    span = t_grid[-1] - t_grid[0] if t_grid.size > 1 else 1.0

    t = t_grid[0]
    h = fixed_step if fixed_step is not None else max(span * 1e-3, 1e-8)
    for idx in range(1, t_grid.size):
        target = t_grid[idx]
        while t < target:
            # t + (target - t) can round to one ulp short of target; a step
            # clipped to the target therefore lands on it exactly
            clipped = h >= target - t
            h = min(h, target - t)
            if fixed_step is not None:
                y, _ = _dp_step(field, t, y, h)
                t = target if clipped else t + h
                h = fixed_step
                continue
            if h < 1e-14 * max(span, 1.0):
                raise NumericDomainError("stiff or singular flow")
            y_new, err = _dp_step(field, t, y, h)
            scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
            enorm = np.sqrt(np.mean(np.abs(err / scale) ** 2)) if y.size else 0.0
            if enorm <= 1.0:
                t = target if clipped else t + h
                y = y_new
                factor = 5.0 if enorm == 0 else min(5.0, max(0.2, 0.9 * enorm ** -0.2))
                h *= factor
            else:
                h *= max(0.2, 0.9 * enorm ** -0.2)
        out[idx] = y
    return out


def fd_gradient(f: Callable, x, rel_step: float | None = None,
                tol: Tolerances = DEFAULT):
    """Central-difference gradient of a scalar observable.

    The step along coordinate ``i`` is ``h_rel * max(1, |x_i|)`` with a real
    increment; for holomorphic observables this approximates the complex
    derivative.
    """
    x = np.asarray(x, dtype=complex)
    h_rel = tol.fd_step if rel_step is None else rel_step
    grad = np.empty(x.size, dtype=complex)
    for i in range(x.size):
        h = h_rel * max(1.0, abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        grad[i] = (f(xp) - f(xm)) / (2.0 * h)
    return grad
