"""Contour quadrature and ODE integration.

The quadrature works on piecewise-linear contours in the complex plane; the
ODE stepper is an embedded Dormand--Prince 5(4) pair operating on complex
state vectors.
"""

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import NumericDomainError
from .kernel import frozen
from .tolerances import DEFAULT, Tolerances

__all__ = ["PathSpec", "QuadResult", "integrate_path", "ode_solve"]


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


class QuadResult(NamedTuple):
    value: complex
    error: float


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)


def integrate_path(f: Callable, path: PathSpec, tol: Tolerances = DEFAULT) -> QuadResult:
    """Adaptive Gauss--Legendre quadrature of ``f`` along ``path``.

    ``f`` maps a 1-D array of points to values (m,), or (m, k) for a vector
    integrand, and is called once per level on all new nodes in path order.
    Each segment starts as one 12-point panel; a level halves every panel
    whose rule misses the sum over its halves by more than ``tol.quad`` times
    the panel's own integral of ``|f|``, so the error stays below ``tol.quad``
    times the integral of ``|f|`` over the path.  Raises
    ``NumericDomainError("singular path")`` after 48 levels or at a level of
    over 512 panels (a singularity near the path, or noise above ``tol.quad``).
    """
    def rule(a, b):
        """The rule of ``f`` and of ``|f|`` on every panel (a, b)."""
        half = 0.5 * (b - a)
        nodes = (0.5 * (a + b))[:, None] + half[:, None] * _GL_NODES
        vals = np.asarray(f(nodes.ravel()), dtype=complex)
        vals = vals.reshape(nodes.shape + vals.shape[1:])
        weights = half[:, None] * _GL_WEIGHTS
        return (np.einsum("pn,pn...->p...", weights, vals),
                np.einsum("pn,pn...->p...", np.abs(weights), np.abs(vals)))

    a, b = np.array(path.waypoints[:-1]), np.array(path.waypoints[1:])
    whole, _ = rule(a, b)
    total = err = 0.0
    for _ in range(48):
        if a.size > 512:
            break
        mid = 0.5 * (a + b)
        a, b = np.stack([a, mid], axis=1).ravel(), np.stack([mid, b], axis=1).ravel()
        halves, mags = rule(a, b)
        fine = halves[0::2] + halves[1::2]
        diff = np.abs(fine - whole)
        bound = tol.quad * (mags[0::2] + mags[1::2])
        ok = (diff <= bound).reshape(len(diff), -1).all(axis=1)
        total, err = total + fine[ok].sum(axis=0), err + diff[ok].sum(axis=0)
        keep = np.repeat(~ok, 2)
        a, b, whole = a[keep], b[keep], halves[keep]
        if a.size == 0:
            return QuadResult(total, err)
    raise NumericDomainError("singular path")


# ---------------------------------------------------------------------------
# Dormand--Prince 5(4)
# ---------------------------------------------------------------------------

_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = np.array([
    [0.0] * 7,
    [1 / 5] + [0.0] * 6,
    [3 / 40, 9 / 40] + [0.0] * 5,
    [44 / 45, -56 / 15, 32 / 9] + [0.0] * 4,
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0, 0.0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0, 0.0],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0],
])
# the fifth-order weights (the last row of _DP_A) minus the fourth-order ones
_DP_E = _DP_A[6] - np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                             -92097 / 339200, 187 / 2100, 1 / 40])
frozen(_DP_C, _DP_A, _DP_E)


def _dp_step(field, t, y, h, k1):
    """One step from ``(t, y)`` given ``k1 = field(t, y)``: ``(y5, err, k7)``.
    The stages are the rows of one (7, N) array, so each stage state and the
    error are one matmul by a tableau row.  The seventh stage is evaluated at
    ``(t + h, y5)``, so ``k7`` is the next step's ``k1`` ("first same as last")."""
    k = np.empty((7, y.size), dtype=complex)
    k[0] = k1
    for i in range(1, 7):
        y_i = y + (h * _DP_A[i, :i]) @ k[:i]
        k[i] = field(t + _DP_C[i] * h, y_i)
    return y_i, (h * _DP_E) @ k, k[6]


def _rms(v, scale):
    return np.sqrt(np.mean(np.abs(v / scale) ** 2)) if v.size else 0.0


def _initial_step(field, t, y, k1, atol, rtol, floor):
    """The starting step of Hairer, Norsett and Wanner (Solving ODEs I, II.4)
    for an order-4 error estimate, at one more evaluation; at least ``floor``."""
    scale = atol + rtol * np.abs(y)
    d0, d1 = _rms(y, scale), _rms(k1, scale)
    h0 = 0.01 * d0 / d1 if min(d0, d1) >= 1e-5 else 1e-6
    k2 = np.asarray(field(t + h0, y + h0 * k1), dtype=complex)
    d2 = _rms(k2 - k1, scale) / h0
    h1 = (0.01 / max(d1, d2)) ** 0.2 if max(d1, d2) > 1e-15 else max(1e-6, h0 * 1e-3)
    return max(min(100.0 * h0, h1), floor)


def ode_solve(field: Callable, x0, t_grid: Sequence[float],
              tol: Tolerances = DEFAULT):
    """Integrate ``dx/dt = field(t, x)`` and return the states at ``t_grid``.

    ``t_grid`` must be finite and increasing and starts at the initial
    time.  A step clipped to an output time lands on it, and the next one
    resumes at the larger of the step before the clip and the clipped step
    grown.  Raises ``NumericDomainError("stiff or singular flow")`` on step
    underflow.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if (t_grid.ndim != 1 or t_grid.size < 1 or not np.all(np.isfinite(t_grid))
            or np.any(np.diff(t_grid) <= 0)):
        raise ValueError("t_grid must be finite and strictly increasing")
    y = np.asarray(x0, dtype=complex).copy()
    out = np.empty((t_grid.size, y.size), dtype=complex)
    out[0] = y
    if t_grid.size == 1:
        return out
    rtol = tol.ode
    atol = tol.ode * 1e-2
    span = t_grid[-1] - t_grid[0]

    t = t_grid[0]
    k1 = np.asarray(field(t, y), dtype=complex)
    h = _initial_step(field, t, y, k1, atol, rtol, max(span * 1e-3, 1e-8))
    for idx in range(1, t_grid.size):
        target = t_grid[idx]
        while t < target:
            if h < 1e-14 * max(span, 1.0):
                raise NumericDomainError("stiff or singular flow")
            # t + (target - t) can round to one ulp short of target; a step
            # clipped to the target therefore lands on it exactly
            clipped = h >= target - t
            step = target - t if clipped else h
            y_new, err, k7 = _dp_step(field, t, y, step, k1)
            scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
            enorm = _rms(err, scale)
            grown = step * (5.0 if enorm == 0 else min(5.0, max(0.2, 0.9 * enorm ** -0.2)))
            if enorm <= 1.0:
                t = target if clipped else t + step
                y, k1 = y_new, k7
                h = max(h, grown) if clipped else grown
            else:
                h = grown
        out[idx] = y
    return out
