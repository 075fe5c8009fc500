"""Theta machinery on the elliptic curve with periods (1/r, tau/r).

Provides the standard theta series, the shifted families used for odd and
even rank, the quasi-periodic products f_j, the automorphy matrices, and the
branch-tracked basic section s with s_i**r = f_i.

Everything is array-valued.  ``ThetaQuotients`` evaluates theta quotients
(the f_j of both parities, the elliptic Lax basis) and their exact
log-derivatives from one series pass.  ``_continued_log`` is the one
continuation stepper: it evaluates a whole polyline per call, bisects only
the failing steps, and serves the section tracker and the even-rank
calibration.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import ConsistencyError, NumericDomainError
from .kernel import frozen
from .tolerances import DEFAULT, Tolerances

__all__ = [
    "ThetaParams", "ThetaQuotients", "SectionTracker", "riemann_theta", "theta_deriv",
    "theta_kj", "xi_kj", "rho_shift", "f_component", "f_vector", "f_quotients",
    "puncture_distance", "i_matrices",
]


@dataclass(frozen=True)
class ThetaParams:
    """Modular parameter, rank, and series truncation (0 = automatic)."""

    tau: complex
    r: int
    trunc: int = 0

    def __post_init__(self):
        tau = complex(self.tau)
        object.__setattr__(self, "tau", tau)
        if tau.imag < 0.05:
            raise NumericDomainError("tau too degenerate")
        if self.r < 1:
            raise ValueError("rank must be positive")
        if self.trunc == 0:
            # exp(-pi Im(tau) (N^2 - N)) < 1e-16 with one term of margin
            target = 16.0 * math.log(10.0) / (math.pi * tau.imag)
            n = math.ceil(0.5 + math.sqrt(0.25 + target)) + 1
            object.__setattr__(self, "trunc", int(n))

    @property
    def q_root(self) -> complex:
        return np.exp(2j * np.pi / self.r)

    @property
    def omega1(self) -> complex:
        return 1.0 / self.r

    @property
    def omega2(self) -> complex:
        return self.tau / self.r

    @property
    def puncture(self) -> complex:
        return (1.0 + self.tau) / (2.0 * self.r)


def _reduce(z, tau):
    """Split z = z2 + k + m*tau with z2 in the centered fundamental strip."""
    z = np.asarray(z, dtype=complex)
    m = np.rint(z.imag / tau.imag)
    z1 = z - m * tau
    k = np.rint(z1.real)
    z2 = z1 - k
    return z2, z1, m


def _series(z, params: ThetaParams, deriv: bool):
    """theta(z), or (theta(z), theta'(z)) from one pass of the series."""
    tau = params.tau
    z2, z1, m = _reduce(z, tau)
    n = np.arange(-params.trunc, params.trunc + 1)
    terms = np.exp((1j * np.pi * tau) * n ** 2 + (2j * np.pi) * np.multiply.outer(z2, n))
    factor = np.exp(-1j * np.pi * m ** 2 * tau - 2j * np.pi * m * z1)
    value = factor * terms.sum(axis=-1)
    if deriv:
        return value, factor * (terms @ (2j * np.pi * n)) - 2j * np.pi * m * value
    return value


def riemann_theta(z, params: ThetaParams):
    """theta(z) = sum_n exp(pi i n^2 tau + 2 pi i n z), lattice-reduced."""
    out = _series(z, params, False)
    return out if out.shape else complex(out)


def theta_deriv(z, params: ThetaParams):
    """d theta / dz with the same lattice reduction."""
    out = _series(z, params, True)[1]
    return out if out.shape else complex(out)


class ThetaQuotients:
    """Theta quotients ``c_e exp(2 pi i gamma_e u) prod_f theta(u + s_f)**p_ef``
    in ``u = scale * z`` (theta of ``params``), every factor of every element
    from one series pass; elements go on the last axis of every result.
    ``shifts`` (F,) may repeat: equal shifts merge, adding their ``powers``
    (E, F) columns, so each distinct theta factor is evaluated once.
    """

    def __init__(self, params: ThetaParams, shifts, powers, gamma, coef, scale):
        self.params, self.coef, self.scale = params, np.asarray(coef), scale
        self.shifts, inverse = np.unique(np.asarray(shifts, dtype=complex), return_inverse=True)
        # complex, so that the power and the matmul below need no cast
        self.powers = np.asarray(powers, dtype=complex) @ (
            inverse[:, None] == np.arange(self.shifts.size))
        self.phase = 2j * np.pi * np.asarray(gamma, dtype=complex)
        frozen(self.shifts, self.powers, self.phase, self.coef)

    def _quotients(self, u, th):
        return (self.coef * np.exp(self.phase * u[..., None])
                * (th[..., None, :] ** self.powers).prod(axis=-1))

    def __call__(self, z):
        """Every element at ``z`` of shape (...): shape (..., E)."""
        u = self.scale * np.asarray(z, dtype=complex)
        return self._quotients(u, riemann_theta(u[..., None] + self.shifts, self.params))

    def logderivs(self, z):
        """Values and log-derivatives ``d/dz log q_e`` at ``z``, both (..., E)."""
        u = self.scale * np.asarray(z, dtype=complex)
        th, dth = _series(u[..., None] + self.shifts, self.params, True)
        return (self._quotients(u, th),
                self.scale * (self.phase + (dth / th) @ self.powers.T))


def theta_kj(z, k: int, j: int, params: ThetaParams):
    """theta(z + (k + j tau)/r), the odd-rank family."""
    r = params.r
    if not (0 <= k < r and 0 <= j < r):
        raise IndexError("index out of range")
    return riemann_theta(np.asarray(z, dtype=complex) + (k + j * params.tau) / r, params)


def xi_kj(z, k: int, j: int, params: ThetaParams):
    """theta(z + (2k - 1 + 2j tau - tau)/(2r)), the even-rank family."""
    r = params.r
    if not (0 <= k < r and 0 <= j < r):
        raise IndexError("index out of range")
    shift = (2 * k - 1 + (2 * j - 1) * params.tau) / (2 * r)
    return riemann_theta(np.asarray(z, dtype=complex) + shift, params)


def rho_shift(j: int, r: int) -> float:
    """The tau-multiple in the shifted numerator factor of f_j."""
    if r % 2 == 1:
        return (r - 1) / 2.0 - j
    return r / 2.0 - j


def puncture_distance(z, params: ThetaParams):
    """Distance from z to the puncture lattice (1+tau)/(2r) + (1/r)Z + (tau/r)Z."""
    w = np.asarray(z, dtype=complex) - params.puncture
    w1, w2 = params.omega1, params.omega2
    bcoef = w.imag / w2.imag
    acoef = (w.real - bcoef * w2.real) / w1
    a = acoef - np.rint(acoef)
    b = bcoef - np.rint(bcoef)
    return np.abs(a * w1 + b * w2)


def _continued_log(func, nodes, params: ThetaParams, tol: Tolerances):
    """log func(node) - log func(nodes[0]) at every node of the polyline
    ``nodes``, continued along it, and f'/f at every node.

    ``func`` maps an ``(m,)`` array of points to ``(f, f'/f)``, two arrays of
    shape ``(..., m)``; the continued logs and the f'/f at the nodes both have
    shape ``(..., len(nodes))``.  Each segment is
    cut into at least 4 steps of at most 0.05, and the whole path is
    evaluated in one call.  A step is bisected (only those steps, only their
    midpoints evaluated) when its ratio f(z + h)/f(z) has |ratio - 1| > 0.5
    in any entry, so no principal log is taken of a ratio far from 1, or when
    |h| |f'/f| > 1 at one of its ends in any entry, so no step straddles a
    zero: across a zero of even order the ratio comes back close to 1 after
    the argument has turned by a multiple of 2 pi.  A failing step below
    1e-8, or a point inside the puncture radius, raises
    ``NumericDomainError``.
    """
    def evaluate(pts):
        near = puncture_distance(pts, params) < tol.puncture_radius
        if np.any(near):
            raise NumericDomainError(f"branch obstruction near z={pts[near][0]:.6f}")
        vals, logd = func(pts)
        # the steepest entry at every point
        return vals, logd, np.abs(logd).reshape(-1, pts.size).max(axis=0)

    nodes = np.asarray(nodes, dtype=complex)
    delta = nodes[1:] - nodes[:-1]
    steps = np.maximum(4, (np.abs(delta) / 0.05).astype(int) + 1)
    at = np.zeros(nodes.size, dtype=int)  # grid index of every node
    at[1:] = steps.cumsum()
    seg = np.repeat(np.arange(steps.size), steps)
    pts = np.empty(at[-1] + 1, dtype=complex)
    pts[1:] = nodes[seg] + (np.arange(at[-1]) - at[seg] + 1) / steps[seg] * delta[seg]
    pts[at] = nodes
    vals, logd, slope = evaluate(pts)
    node_logd = logd[..., at]
    while True:
        ratio = vals[..., 1:] / vals[..., :-1]
        width = np.abs(np.diff(pts))
        far = (np.abs(ratio - 1.0) > 0.5).reshape(-1, width.size).any(axis=0)
        bad = np.flatnonzero(far | (width * np.maximum(slope[:-1], slope[1:]) > 1.0))
        if bad.size == 0:
            logs = np.zeros(vals.shape, dtype=complex)
            logs[..., 1:] = np.log(ratio).cumsum(axis=-1)
            return logs[..., at], node_logd
        mids = 0.5 * (pts[bad] + pts[bad + 1])
        if width[bad].min() < 1e-8:
            raise NumericDomainError(
                f"branch obstruction near z={mids[width[bad].argmin()]:.6f}")
        new_vals, _, new_slope = evaluate(mids)
        pts = np.insert(pts, bad + 1, mids)
        vals = np.insert(vals, bad + 1, new_vals, axis=-1)
        slope = np.insert(slope, bad + 1, new_slope)
        at += np.searchsorted(bad, at)


# --- the quasi-periodic families f_j: ThetaQuotients over the components ----
#
# For odd r, with theta_kl = theta(z + (k + l tau)/r),
#
#     f_j = c_j prod_k theta_kj^(r-2) theta_kj(. + rho_j tau) / prod_{l != j} theta_kl

@lru_cache(maxsize=32)
def _odd_family(params: ThetaParams):
    r, tau, ks = params.r, params.tau, np.arange(params.r)
    grid = (ks[:, None] + ks * tau) / r  # (k, l)
    own = np.broadcast_to(np.eye(r)[:, None, :], (r, r, r))  # (j, k, l): l == j
    powers = np.stack([(r - 1) * own - 1, own], axis=1).reshape(r, -1)
    coef = np.exp(2j * np.pi * tau * ((r - 1) * ks * (ks + 1 - r) / 2.0))
    return ThetaQuotients(params, np.stack([grid, grid + rho_shift(ks, r) * tau]).ravel(),
                          powers, np.zeros(r), coef, 1.0)


# For even r the puncture-stack zero placement is obstructed (the Abel class
# of stack-supported zeros is off by a half period), so the family is built
# in u = r z coordinates on the (1, r tau) torus as
#
#     H_j(u) = exp(2 pi i j u) Z(u - V_j)^r / prod_m Z(u - u_m),
#
# with Z a theta of modulus r tau (zero at 0), u_m the puncture stack, and
# V_j the zero position mandated by the multiplier equations.  Connection
# constants and the component labelling are calibrated once per (r, tau) from
# the measured shift ratios and tracked root factors.

@lru_cache(maxsize=32)
def _even_family(params: ThetaParams):
    r, tau = params.r, params.tau
    base = ThetaParams(tau=r * tau, r=r)
    stacks = (1.0 + tau) / 2.0 + np.arange(r) * tau
    vs = stacks.sum() / r - np.arange(r) * tau
    half = (1.0 + r * tau) / 2.0
    # numerator shifts, then the puncture-stack shifts of the denominator
    shifts = np.concatenate([half - vs, half - stacks])
    exps = np.hstack([r * np.eye(r), -np.ones((r, r))])
    raw = ThetaQuotients(base, shifts, exps, np.arange(r), 1.0, r)  # all H_j

    zr1 = (0.1529 + 0.2731 * tau) / r
    zr2 = (0.3107 + 0.1381 * tau) / r
    a1, a2, b1, b2 = raw(np.array([zr1 + tau / r, zr2 + tau / r, zr1, zr2]))
    r1, r2 = a1[:-1] / b1[1:], a2[:-1] / b2[1:]
    if np.any(np.abs(r1 - r2) > 1e-8 * np.abs(r1)):
        raise ConsistencyError("even-rank family ratios are not constant")
    kappa = np.concatenate([[1.0 + 0.0j], np.cumprod(r1)])
    if abs(kappa[-1] * a1[-1] / b1[0] - 1.0) > 1e-8:
        raise ConsistencyError("even-rank family does not close")

    # horizontal tracked-root factors fix the component labelling
    za = (0.0917 + 0.3379 * tau) / r
    fac = np.exp(_continued_log(lambda pts: tuple(a.T for a in raw.logderivs(pts)),
                                [za, za + 1.0 / r], params, DEFAULT)[0][:, -1] / r)
    powers = np.round(np.angle(fac) / (2 * np.pi / r)).astype(int) % r
    if np.any(np.abs(fac - params.q_root ** powers) > 1e-8):
        raise ConsistencyError("even-rank root factor is not a root of unity")
    offset = powers[0]
    if np.any((powers - np.arange(r) - offset) % r != 0):
        raise ConsistencyError("even-rank root factors are not consecutive")
    order = (np.arange(r) - offset) % r
    return ThetaQuotients(base, shifts, exps[order], order, kappa[order], r)


def f_quotients(params: ThetaParams) -> ThetaQuotients:
    """The components f_j as one evaluator (elements j = 0..r-1), from which
    ``f_component`` takes its values and the section its log-derivatives."""
    return _odd_family(params) if params.r % 2 else _even_family(params)


def f_component(z, j, params: ThetaParams, tol: Tolerances = DEFAULT):
    """The quasi-periodic products f_j(z).

    ``j`` is an int or an integer array; for an array the components go on a
    leading axis (shape ``j.shape + z.shape``).  Every requested component at
    every point comes from one ``riemann_theta`` call.  Evaluation inside the
    puncture exclusion radius raises ``NumericDomainError("pole")``.
    """
    j = np.asarray(j)
    if np.any((j < 0) | (j >= params.r)):
        raise IndexError("index out of range")
    z = np.asarray(z, dtype=complex)
    if np.any(puncture_distance(z, params) < tol.puncture_radius):
        raise NumericDomainError("pole")
    out = np.moveaxis(f_quotients(params)(z), -1, 0)[j]
    return out if out.shape else complex(out)


def f_vector(z, params: ThetaParams, tol: Tolerances = DEFAULT):
    return f_component(z, np.arange(params.r), params, tol=tol)


def i_matrices(r: int):
    """The automorphy pair: I1 = diag(1, q, ..., q^{r-1}), I2 the cyclic shift."""
    q = np.exp(2j * np.pi / r)
    I1 = np.diag(q ** np.arange(r)).astype(complex)
    I2 = np.zeros((r, r), dtype=complex)
    for i in range(r):
        I2[i, (i + 1) % r] = 1.0
    return I1, I2


# ---------------------------------------------------------------------------
# branch-tracked r-th roots
# ---------------------------------------------------------------------------

class SectionTracker:
    """Continuation state for the basic section s_i = f_i^(1/r).

    The anchor branch fixes s_0 as the principal r-th root (argument in
    (-pi/r, pi/r]) at a real reference point; the remaining components are
    anchored by continuing the whole vector once across the tau/r shift and
    chaining, which realizes the index relations the section must satisfy.
    ``value_at`` continues the whole vector from the last queried point
    through a point or a path of points: one ``_continued_log`` of all r
    components along the polyline, then values are multiplied by exp(L/r).
    ``logderiv`` is f'/f at the points of the last query, in the shape of
    ``value_at``'s result, so ``ds/dz = s logderiv / r`` there.
    """

    def __init__(self, params: ThetaParams, anchor: Optional[complex] = None,
                 tol: Tolerances = DEFAULT):
        self.params = params
        self.tol = tol
        r = params.r
        # generic interior point of the cell, inside the band bordering the
        # real axis (even ranks have a zero row on the axis itself)
        default = (0.1377 + 0.3711 * params.tau) / r
        self.anchor = complex(default if anchor is None else anchor)
        self._f = lambda pts: tuple(a.T for a in f_quotients(params).logderivs(pts))
        f0 = f_vector(self.anchor, params, tol=tol)
        self.logderiv = self._logd = f_quotients(params).logderivs(self.anchor)[1]
        across = np.exp(_continued_log(self._f, [self.anchor, self.anchor + params.omega2],
                                       params, tol)[0][:, -1] / r)
        s = np.zeros(r, dtype=complex)
        s[0] = abs(f0[0]) ** (1.0 / r) * np.exp(1j * np.angle(f0[0]) / r)
        for i in range(1, r):
            carried = s[i - 1] * across[i - 1]
            s[i] = carried * np.exp(np.log(f0[i] / carried ** r) / r)
        self._z = self.anchor
        self._values = s

    def value_at(self, z):
        """Section values at ``z``, continued from the last queried point.

        A scalar ``z`` gives shape (r,).  A 1-D array is read as a path: the
        section is continued through its points in order and the values at
        every point are returned, shape (r, len(z)).  A query that stays at
        the current point costs no evaluation.
        """
        path = np.asarray(z, dtype=complex)
        if not np.isfinite(path).all():
            raise NumericDomainError("continuation target is not finite")
        if (path == self._z).all():
            out = np.repeat(self._values[:, None], path.size, axis=1)
            logd = np.repeat(self._logd[:, None], path.size, axis=1)
        else:
            nodes = np.append(self._z, path)
            logs, logd = _continued_log(self._f, nodes, self.params, self.tol)
            out = self._values[:, None] * np.exp(logs[:, 1:] / self.params.r)
            logd = logd[:, 1:]
            self._z, self._values, self._logd = complex(nodes[-1]), out[:, -1].copy(), logd[:, -1]
        self.logderiv = logd.reshape((-1,) + path.shape)
        return out.reshape((-1,) + path.shape)

