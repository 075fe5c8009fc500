"""Theta machinery on the elliptic curve with periods (1/r, tau/r).

Provides the standard theta series, the shifted families used for odd and
even rank, the quasi-periodic products f_j, the automorphy matrices, and the
branch-tracked basic section s with s_i**r = f_i.

Everything is array-valued: ``f_component`` evaluates any set of components
at any array of points with one ``riemann_theta`` call, and
``_continued_log`` is the one continuation stepper.  It evaluates the steps
of a whole polyline per call, bisects only the steps that fail, and serves
both the section tracker and the even-rank calibration.
"""

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Optional

import numpy as np

from .errors import ConsistencyError, NumericDomainError
from .numeric import PathSpec
from .tolerances import DEFAULT, Tolerances

__all__ = [
    "ThetaParams", "SectionSample", "SectionTracker", "riemann_theta",
    "theta_deriv", "theta_kj", "xi_kj", "rho_shift", "f_component", "f_vector",
    "puncture_distance", "i_matrices", "basic_section",
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


def riemann_theta(z, params: ThetaParams):
    """theta(z) = sum_n exp(pi i n^2 tau + 2 pi i n z), lattice-reduced."""
    tau = params.tau
    z2, z1, m = _reduce(z, tau)
    n = np.arange(-params.trunc, params.trunc + 1)
    expo = (1j * np.pi * tau) * n ** 2 + (2j * np.pi) * np.multiply.outer(z2, n)
    series = np.exp(expo).sum(axis=-1)
    factor = np.exp(-1j * np.pi * m ** 2 * tau - 2j * np.pi * m * z1)
    out = factor * series
    return out if out.shape else complex(out)


def theta_deriv(z, params: ThetaParams):
    """d theta / dz with the same lattice reduction."""
    tau = params.tau
    z2, z1, m = _reduce(z, tau)
    n = np.arange(-params.trunc, params.trunc + 1)
    expo = (1j * np.pi * tau) * n ** 2 + (2j * np.pi) * np.multiply.outer(z2, n)
    terms = np.exp(expo)
    series = terms.sum(axis=-1)
    dseries = (terms * (2j * np.pi * n)).sum(axis=-1)
    factor = np.exp(-1j * np.pi * m ** 2 * tau - 2j * np.pi * m * z1)
    out = factor * (dseries - 2j * np.pi * m * series)
    return out if out.shape else complex(out)


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
    ``nodes``, continued along it.

    ``func`` maps an ``(m,)`` array of points to ``(..., m)`` values; the
    result has shape ``(..., len(nodes))``, the continued log at every node.
    Each segment is cut into at least 4 steps of at most 0.05, and the whole
    path is evaluated in one call.  A step whose ratio func(z + h)/func(z)
    has |ratio - 1| > 0.5 in any entry is bisected (only those steps, only
    their midpoints evaluated), so no principal log is taken of a ratio far
    from 1.  A failing step below 1e-8, or a point inside the puncture radius,
    raises ``NumericDomainError``.
    """
    def evaluate(pts):
        near = puncture_distance(pts, params) < tol.puncture_radius
        if np.any(near):
            raise NumericDomainError(f"branch obstruction near z={pts[near][0]:.6f}")
        return func(pts)

    nodes = np.asarray(nodes, dtype=complex)
    delta = nodes[1:] - nodes[:-1]
    steps = np.maximum(4, (np.abs(delta) / 0.05).astype(int) + 1)
    at = np.zeros(nodes.size, dtype=int)  # grid index of every node
    at[1:] = steps.cumsum()
    seg = np.repeat(np.arange(steps.size), steps)
    pts = np.empty(at[-1] + 1, dtype=complex)
    pts[1:] = nodes[seg] + (np.arange(at[-1]) - at[seg] + 1) / steps[seg] * delta[seg]
    pts[at] = nodes
    vals = evaluate(pts)
    while True:
        ratio = vals[..., 1:] / vals[..., :-1]
        far = np.abs(ratio - 1.0) > 0.5
        bad = np.flatnonzero(far.reshape(-1, far.shape[-1]).any(axis=0))
        if bad.size == 0:
            logs = np.zeros(vals.shape, dtype=complex)
            logs[..., 1:] = np.log(ratio).cumsum(axis=-1)
            return logs[..., at]
        mids = 0.5 * (pts[bad] + pts[bad + 1])
        width = np.abs(pts[bad + 1] - pts[bad])
        if width.min() < 1e-8:
            raise NumericDomainError(
                f"branch obstruction near z={mids[width.argmin()]:.6f}")
        pts = np.insert(pts, bad + 1, mids)
        vals = np.insert(vals, bad + 1, evaluate(mids), axis=-1)
        at += np.searchsorted(bad, at)


# --- even-rank quasi-periodic family ---------------------------------------
#
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
    taub = r * tau
    base = ThetaParams(tau=taub, r=r)
    stacks = (1.0 + tau) / 2.0 + np.arange(r) * tau
    vs = stacks.sum() / r - np.arange(r) * tau
    half = (1.0 + taub) / 2.0
    # numerator shifts, then the puncture-stack shifts of the denominator
    shifts = np.concatenate([half - vs, half - stacks])

    def raw(z):
        """All r components H_j at z, on a leading axis."""
        u = r * np.asarray(z, dtype=complex)
        th = riemann_theta(np.add.outer(shifts, u), base)
        phase = np.exp(2j * np.pi * np.multiply.outer(np.arange(r), u))
        return phase * th[:r] ** r / np.prod(th[r:], axis=0)

    zr1 = (0.1529 + 0.2731 * tau) / r
    zr2 = (0.3107 + 0.1381 * tau) / r
    a1, a2, b1, b2 = raw(np.array([zr1 + tau / r, zr2 + tau / r, zr1, zr2])).T
    r1, r2 = a1[:-1] / b1[1:], a2[:-1] / b2[1:]
    if np.any(np.abs(r1 - r2) > 1e-8 * np.abs(r1)):
        raise ConsistencyError("even-rank family ratios are not constant")
    kappa = np.concatenate([[1.0 + 0.0j], np.cumprod(r1)])
    if abs(kappa[-1] * a1[-1] / b1[0] - 1.0) > 1e-8:
        raise ConsistencyError("even-rank family does not close")

    # horizontal tracked-root factors fix the component labelling
    za = (0.0917 + 0.3379 * tau) / r
    fac = np.exp(_continued_log(raw, [za, za + 1.0 / r], params, DEFAULT)[:, -1] / r)
    powers = np.round(np.angle(fac) / (2 * np.pi / r)).astype(int) % r
    if np.any(np.abs(fac - params.q_root ** powers) > 1e-8):
        raise ConsistencyError("even-rank root factor is not a root of unity")
    offset = powers[0]
    if np.any((powers - np.arange(r) - offset) % r != 0):
        raise ConsistencyError("even-rank root factors are not consecutive")
    order = (np.arange(r) - offset) % r
    return raw, kappa[order], order


def f_component(z, j, params: ThetaParams, parity: Optional[str] = None,
                tol: Tolerances = DEFAULT, guard: bool = True):
    """The quasi-periodic products f_j(z).

    ``j`` is an int or an integer array; for an array the components go on a
    leading axis (shape ``j.shape + z.shape``).  Every requested component at
    every point comes from one ``riemann_theta`` call.  ``parity`` may be
    given explicitly ("odd"/"even") but must match the rank.  Evaluation
    inside the puncture exclusion radius raises ``NumericDomainError("pole")``
    unless ``guard`` is disabled.
    """
    r = params.r
    actual = "odd" if r % 2 == 1 else "even"
    if parity is not None and parity != actual:
        raise ValueError(f"parity {parity!r} does not match rank {r}")
    j = np.asarray(j)
    if np.any((j < 0) | (j >= r)):
        raise IndexError("index out of range")
    z = np.asarray(z, dtype=complex)
    if guard and np.any(puncture_distance(z, params) < tol.puncture_radius):
        raise NumericDomainError("pole")
    zf = z.reshape(-1)
    if actual == "odd":
        # theta_kl(z) and theta_kl(z + rho_l tau) for every (k, l) at once
        tau, ks = params.tau, np.arange(r)
        grid = (ks[:, None] + ks * tau) / r
        th = riemann_theta(np.add.outer(
            np.stack([grid, grid + rho_shift(ks, r) * tau]), zf), params)
        num = np.prod(th[0] ** (r - 2) * th[1], axis=0)
        cols = np.prod(th[0], axis=0)
        den = np.prod(np.where(np.eye(r, dtype=bool)[:, :, None], 1.0, cols), axis=1)
        pref = np.exp(2j * np.pi * tau * (-ks * r * (r - 1) / 2.0
                                          + (r - 1) * ks * (ks + 1) / 2.0))
        vals = pref[:, None] * num / den
    else:
        raw, kappa, order = _even_family(params)
        vals = kappa[:, None] * raw(zf)[order]
    out = vals.reshape((r,) + z.shape)[j]
    return out if out.shape else complex(out)


def f_vector(z, params: ThetaParams, tol: Tolerances = DEFAULT, guard: bool = True):
    return f_component(z, np.arange(params.r), params, tol=tol, guard=guard)


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

@dataclass
class SectionSample:
    """Section values at one point together with the continuation used."""

    z: complex
    values: np.ndarray
    anchor: complex
    path: tuple


class SectionTracker:
    """Continuation state for the basic section s_i = f_i^(1/r).

    The anchor branch fixes s_0 as the principal r-th root (argument in
    (-pi/r, pi/r]) at a real reference point; the remaining components are
    anchored by continuing the whole vector once across the tau/r shift and
    chaining, which realizes the index relations the section must satisfy.
    ``value_at`` continues the whole vector from the last queried point
    through a point or a path of points: one ``_continued_log`` of all r
    components along the polyline, then values are multiplied by exp(L/r).
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
        self._f = partial(f_vector, params=params, tol=tol, guard=False)
        f0 = f_vector(self.anchor, params, tol=tol)
        across = np.exp(_continued_log(self._f, [self.anchor, self.anchor + params.omega2],
                                       params, tol)[:, -1] / r)
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
        else:
            nodes = np.append(self._z, path)
            logs = _continued_log(self._f, nodes, self.params, self.tol)[:, 1:]
            out = self._values[:, None] * np.exp(logs / self.params.r)
            self._z, self._values = complex(nodes[-1]), out[:, -1].copy()
        return out.reshape((-1,) + path.shape)


def basic_section(z, params: ThetaParams, path: Optional[PathSpec] = None,
                  tol: Tolerances = DEFAULT) -> SectionSample:
    """Branch-tracked section values at ``z``.

    The continuation runs along ``path`` (which must start at the tracker's
    anchor) or the straight anchor-to-z segment.
    """
    tracker = SectionTracker(params, tol=tol)
    if path is not None:
        if abs(path.waypoints[0] - tracker.anchor) > 1e-12:
            raise ValueError("path must start at the section anchor")
        if abs(path.waypoints[-1] - complex(z)) > 1e-12:
            raise ValueError("path must end at the requested point")
        stops = path.waypoints[1:]
    else:
        stops = (complex(z),)
    values = tracker.value_at(np.array(stops))[:, -1]
    return SectionSample(z=complex(z), values=values, anchor=tracker.anchor,
                         path=(tracker.anchor,) + stops)
