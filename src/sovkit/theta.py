"""Theta machinery on the elliptic curve with periods (1/r, tau/r).

Provides the standard theta series, the shifted families used for odd and
even rank, the quasi-periodic products f_j, the automorphy matrices, and the
branch-tracked basic section s with s_i**r = f_i.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
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
    m = np.round(z.imag / tau.imag)
    z1 = z - m * tau
    k = np.round(z1.real)
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
    a = acoef - np.round(acoef)
    b = bcoef - np.round(bcoef)
    return np.abs(a * w1 + b * w2)


def _continued_log(func, z_from, z_to, params: ThetaParams, tol: Tolerances):
    """log func(z_to) - log func(z_from), continued along the straight segment.

    The segment is cut into at least 4 steps of at most 0.05; a step whose
    ratio func(z + h)/func(z) has |ratio - 1| > 0.5 is halved, so no principal
    log is taken of a ratio far from 1.  A step below 1e-8 that still fails,
    or a point inside the puncture radius, raises ``NumericDomainError``.
    """
    f_prev = complex(func(z_from))
    total = 0.0 + 0.0j
    z = z_from
    remaining = z_to - z
    step = remaining / max(4, int(abs(remaining) / 0.05) + 1)
    while abs(z - z_to) > 0:
        h = step if abs(step) < abs(z_to - z) else z_to - z
        z_new = z + h
        if puncture_distance(z_new, params) < tol.puncture_radius:
            raise NumericDomainError(f"branch obstruction near z={z_new:.6f}")
        f_new = complex(func(z_new))
        ratio = f_new / f_prev
        if abs(ratio - 1.0) > 0.5:
            if abs(step) < 1e-8:
                raise NumericDomainError(f"branch obstruction near z={z_new:.6f}")
            step = step / 2.0
            continue
        total += np.log(ratio)
        z, f_prev = z_new, f_new
    return total


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
    stacks = tuple((1.0 + tau) / 2.0 + m * tau for m in range(r))
    ssum = sum(stacks)
    vs = tuple(ssum / r - j * tau for j in range(r))
    half = (1.0 + taub) / 2.0

    def raw(z, j):
        u = r * np.asarray(z, dtype=complex)
        num = riemann_theta(u - vs[j] + half, base) ** r
        den = riemann_theta(u - stacks[0] + half, base)
        for m in range(1, r):
            den = den * riemann_theta(u - stacks[m] + half, base)
        return np.exp(2j * np.pi * j * u) * num / den

    zr1 = (0.1529 + 0.2731 * tau) / r
    zr2 = (0.3107 + 0.1381 * tau) / r
    kappa = [1.0 + 0.0j]
    for j in range(r - 1):
        r1 = complex(raw(zr1 + tau / r, j)) / complex(raw(zr1, j + 1))
        r2 = complex(raw(zr2 + tau / r, j)) / complex(raw(zr2, j + 1))
        if abs(r1 - r2) > 1e-8 * abs(r1):
            raise ConsistencyError("even-rank family ratios are not constant")
        kappa.append(kappa[-1] * r1)
    wrap = complex(raw(zr1 + tau / r, r - 1)) / complex(raw(zr1, 0))
    if abs(kappa[-1] * wrap - 1.0) > 1e-8:
        raise ConsistencyError("even-rank family does not close")

    # horizontal tracked-root factors fix the component labelling
    za = (0.0917 + 0.3379 * tau) / r
    q = params.q_root
    powers = []
    for j in range(r):
        fac = np.exp(_continued_log(lambda w, jj=j: raw(w, jj), za, za + 1.0 / r,
                                    params, DEFAULT) / r)
        k = int(np.round(np.angle(fac) / (2 * np.pi / r))) % r
        if abs(fac - q ** k) > 1e-8:
            raise ConsistencyError("even-rank root factor is not a root of unity")
        powers.append(k)
    offset = (powers[0] - 0) % r
    for j in range(r):
        if (powers[j] - j - offset) % r != 0:
            raise ConsistencyError("even-rank root factors are not consecutive")
    shift = (-offset) % r
    return raw, tuple(kappa), shift


def f_component(z, j: int, params: ThetaParams, parity: Optional[str] = None,
                tol: Tolerances = DEFAULT, guard: bool = True):
    """The quasi-periodic product f_j(z).

    ``parity`` may be given explicitly ("odd"/"even") but must match the rank.
    Evaluation inside the puncture exclusion radius raises
    ``NumericDomainError("pole")`` unless ``guard`` is disabled.
    """
    r = params.r
    actual = "odd" if r % 2 == 1 else "even"
    if parity is not None and parity != actual:
        raise ValueError(f"parity {parity!r} does not match rank {r}")
    if not 0 <= j < r:
        raise IndexError("index out of range")
    z = np.asarray(z, dtype=complex)
    if guard and np.any(puncture_distance(z, params) < tol.puncture_radius):
        raise NumericDomainError("pole")
    tau = params.tau

    if actual == "odd":
        rho = rho_shift(j, r)
        pref = np.exp(2j * np.pi * tau * (-j * r * (r - 1) / 2.0
                                          + (r - 1) * j * (j + 1) / 2.0))
        num = np.ones(z.shape, dtype=complex) if z.shape else 1.0 + 0.0j
        den = np.ones(z.shape, dtype=complex) if z.shape else 1.0 + 0.0j
        for k in range(r):
            num = num * theta_kj(z, k, j, params) ** (r - 2) \
                * theta_kj(z + rho * tau, k, j, params)
            for ell in range(r):
                if ell != j:
                    den = den * theta_kj(z, k, ell, params)
        out = pref * num / den
    else:
        raw, kappa, shift = _even_family(params)
        jj = (j + shift) % r
        out = kappa[jj] * raw(z, jj)
    return out if np.asarray(out).shape else complex(out)


def f_vector(z, params: ThetaParams, tol: Tolerances = DEFAULT, guard: bool = True):
    return np.array([f_component(z, j, params, tol=tol, guard=guard)
                     for j in range(params.r)])


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
    anchored by continuing across the tau/r shift, which realizes the index
    relations the section must satisfy.  ``value_at`` continues the whole
    vector along a straight segment (or through ``via`` waypoints) from the
    last queried point: each component is multiplied by exp(L/r), with L the
    continued log of f_j (``_continued_log``, the module's one stepper, which
    also calibrates the even-rank root factors).
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
        f0 = complex(f_component(self.anchor, 0, params, tol=tol))
        s = np.zeros(r, dtype=complex)
        s[0] = abs(f0) ** (1.0 / r) * np.exp(1j * np.angle(f0) / r)
        for i in range(1, r):
            carried = self._continue_component(
                i - 1, self.anchor, s[i - 1], self.anchor + params.omega2)
            fi = complex(f_component(self.anchor, i, params, tol=tol))
            corr = fi / carried ** r
            s[i] = carried * np.exp(np.log(corr) / r)
        self._z = self.anchor
        self._values = s

    @property
    def state(self):
        return self._z, self._values.copy()

    def _continue_component(self, j, z_from, val_from, z_to):
        params, tol = self.params, self.tol
        log_ratio = _continued_log(
            lambda w: f_component(w, j, params, tol=tol, guard=False),
            z_from, z_to, params, tol)
        return val_from * np.exp(log_ratio / params.r)

    def value_at(self, z_target, via=()):
        """Continue every component through ``via`` waypoints to ``z_target``."""
        if not np.isfinite(complex(z_target)):
            raise NumericDomainError("continuation target is not finite")
        for stop in tuple(via) + (complex(z_target),):
            if stop == self._z:
                continue
            self._values = np.array([
                self._continue_component(j, self._z, self._values[j], stop)
                for j in range(self.params.r)
            ])
            self._z = complex(stop)
        return self._values.copy()


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
        via = path.waypoints[1:-1]
        target = path.waypoints[-1]
        if abs(target - complex(z)) > 1e-12:
            raise ValueError("path must end at the requested point")
    else:
        via = ()
        target = complex(z)
    values = tracker.value_at(target, via)
    used = (tracker.anchor,) + tuple(via) + (complex(target),)
    return SectionSample(z=complex(z), values=values, anchor=tracker.anchor,
                         path=used)
