"""Theta machinery on the elliptic curve with periods (1/r, tau/r).

Provides the standard theta series, the shifted families theta_kj and xi_kj,
the quasi-periodic family f_j, the automorphy matrices, and the basic section
s = A (1/h)^(1/r) with s_i**r = f_i.  One construction gives f_j at every
rank; its constants kappa_j = exp(i pi tau j^2) and A's d_j = exp(i pi tau
j^2 / r) are closed forms, which tests/test_theta.py checks against the
ratios of neighbouring f_j and against 1/h continued across tau/r.

Everything is array-valued.  ``ThetaQuotients`` evaluates theta quotients
(theta itself, the f_j, the basic section, the elliptic Lax basis) and their
exact log-derivatives from one series table built per evaluator: a point is
reduced once, one exponent per element carries every factor's
quasi-periodicity, and one matmul sums the series of every factor.  Arrays
broadcast their exponents and take every complex ``exp`` before that matmul:
after an OpenBLAS complex matrix-matrix product (``zgemm``), numpy's complex
``exp`` and ``log`` run 10-30 times slower on AVX-512 hosts until a
vectorized numpy loop runs.
The basic section is one evaluator, the A_j and then 1/h.
``_continued_log`` is the one continuation stepper: it evaluates a whole
polyline per call, bisects only the failing steps, and continues the one
scalar with branches, 1/h, always from the section's anchor.
"""

import copy
import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConsistencyError, NumericDomainError
from .kernel import frozen
from .tolerances import PUNCTURE_RADIUS

__all__ = [
    "ThetaParams", "ThetaQuotients", "SectionTracker", "riemann_theta", "theta_deriv",
    "theta_kj", "xi_kj", "f_component", "f_vector", "f_quotients",
    "lattice_coords", "puncture_distance", "i_matrices", "section_quotients",
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
        if not np.isfinite(tau):
            raise ValueError("tau must be finite")
        if tau.imag < 0.05:
            raise NumericDomainError("tau too degenerate")
        if isinstance(self.r, bool) or not hasattr(self.r, "__index__"):
            raise ValueError(f"rank must be an integer, not {self.r!r}")
        object.__setattr__(self, "r", operator.index(self.r))
        if self.r < 1:
            raise ValueError("rank must be positive")
        if self.trunc < 0:
            raise ValueError("series truncation must be >= 0")
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
    """Split z = v + k + m tau with v in the centred strip: ``(v, m)``."""
    m = np.rint(z.imag / tau.imag)
    v = z - m * tau
    return v - np.rint(v.real), m


def riemann_theta(z, params: ThetaParams):
    """theta(z) = sum_n exp(pi i n^2 tau + 2 pi i n z), lattice-reduced."""
    out = _plain(params)(z)[..., 0]
    return out if out.shape else complex(out)


def theta_deriv(z, params: ThetaParams):
    """d theta / dz with the same lattice reduction: ``theta(z) = e S`` at ``z
    = v + k + m tau``, ``e = exp(-pi i m (m tau + 2 v))``, and theta' = ``e (S'
    - 2 pi i m S)``; theta times its log-derivative would be 0/0 at its zeros."""
    q, z = _plain(params), np.asarray(z, dtype=complex)
    v, m = _reduce(z, params.tau)
    row = np.exp(q._gauss + v[..., None] * q._n)
    S, dS = row @ q._table[:, 0], (row * q._n) @ q._table[:, 0]
    out = np.exp(-1j * np.pi * m * (m * params.tau + 2 * v)) * (dS - 2j * np.pi * m * S)
    return out if out.shape else complex(out)


class ThetaQuotients:
    """Theta quotients ``exp(l_e + 2 pi i gamma_e u) prod_f theta(u + s_f)**p_ef``
    in ``u = scale * z`` (theta of ``params``); elements go on the last axis
    of every result.  ``shifts`` (F,) may repeat: equal shifts merge, adding
    their integer ``powers`` (E, F) columns.  The table ``C[n, f] = exp(pi i
    tau n^2 + 2 pi i n sig_f)``, ``|n| <= trunc + 1``, is built once, for the
    shifts reduced to ``s_f = sig_f + k_f + m_f tau`` in the centred strip,
    with a last column ``[n = 0]``, so that ``S_F = 1`` exactly; a point,
    reduced once to ``u = v + k + m tau``, takes one row ``exp(2 pi i n v)``,
    and ``theta(u + s_f) = exp(-pi i tau M^2 - 2 pi i M (v + sig_f)) S_f``,
    ``S = row @ C``, ``M = m + m_f``.  Over an element's factors these
    exponents sum to one linear form in ``(1, m, m^2, v, m v, u)``, ``K`` (6,
    E); with ``c = -i pi tau``, ``d = -2 pi i``, ``P`` the powers:

        K0 = l_e + c P m_f^2 + d P (m_f sig_f),  K1 = 2c P m_f + d P sig,
        K2 = c P.sum(1),  K3 = d P m_f,  K4 = d P.sum(1),  K5 = 2 pi i gamma.

    An element is ``exp(K0 + m (K1 + m K2) + v (K3 + m K4) + u K5) prod_f
    S_f^p_ef``, one ``exp`` per element and the product of ``S`` at its
    ``_factors`` (no complex power); its ``u``-log-derivative is ``K5 + K3 +
    m K4 + (S'/S) @ P^T``.  The row's exponent ``pi i tau n^2 / 2 + 2 pi i n
    v`` (C keeps the Gaussian's other half) is linear in ``(1, v)`` too, so
    it is frozen with ``K`` as ``_KG = [K | G]`` (6, E + T), G's rows 0 and 3.
    The constants come as logs ``log_coef`` (``l_e``): ``exp(i pi tau j^2)``, say, is below
    the float range at large ``j^2 Im tau``, but its log meets its factors in one exponent.
    """

    def __init__(self, params: ThetaParams, shifts, powers, gamma, log_coef, scale):
        self.params, self.log_coef, self.scale = params, np.asarray(log_coef), scale
        self.shifts, inverse = np.unique(np.asarray(shifts, dtype=complex), return_inverse=True)
        # complex, so that the matmuls below need no cast
        self.powers = np.asarray(powers, dtype=complex) @ (
            inverse[:, None] == np.arange(self.shifts.size))
        self.phase = 2j * np.pi * np.asarray(gamma, dtype=complex)
        # one term more, as |Im(v + sig_f)| reaches Im tau, twice the strip's; C
        # keeps half its Gaussian and the row takes the rest, so neither overflows
        n = np.arange(-params.trunc - 1, params.trunc + 2)
        sig, m = _reduce(self.shifts, params.tau)
        self._gauss, self._n = (0.5j * np.pi * params.tau) * n ** 2, 2j * np.pi * n
        self._table = np.column_stack([np.exp(self._gauss[:, None] + np.multiply.outer(
            self._n, sig)), n == 0])
        c, d, P = -1j * np.pi * params.tau, -2j * np.pi, self.powers
        Pe = P.sum(axis=1)
        self._KG = np.hstack([[self.log_coef + c * (P @ m ** 2) + d * (P @ (m * sig)),
                               2 * c * (P @ m) + d * (P @ sig), c * Pe, d * (P @ m), d * Pe,
                               np.broadcast_to(self.phase, Pe.shape)], np.zeros((6, n.size))])
        self._KG[[0, 3], len(P):] = self._gauss, self._n
        ints = P.real.astype(int)
        if (ints != P).any():
            raise ValueError("theta quotient powers must be integers")
        self._factors = _factor_lists(ints.shape, ints.tobytes())
        frozen(self.shifts, self.powers, self.phase, self.log_coef, self._gauss, self._n,
               self._table, self._KG)

    def _evaluate(self, z, deriv):
        """Every element at ``z`` (...), shape (..., E), and with ``deriv``
        their log-derivatives too.  A number (or 0-d ``z``) is reduced in
        Python arithmetic, and one ``exp`` of ``(1, m, m^2, v, m v, u) @ _KG``
        gives its exponents and series row; an array broadcasts its exponents,
        so that every complex ``exp`` runs before the series matmul."""
        E, tau = len(self.powers), self.params.tau
        if isinstance(z, (int, float, complex)) or np.ndim(z) == 0:
            u = self.scale * complex(z)
            m = round(u.imag / tau.imag)
            v = u - m * tau
            v -= round(v.real)
            y = np.exp(np.array([1, m, m * m, v, m * v, u]) @ self._KG)
            e, row = y[:E], y[E:]
        else:
            K, u = self._KG[:, :E], self.scale * np.asarray(z, dtype=complex)
            v, m = _reduce(u, tau)
            u, v, m = u[..., None], v[..., None], m[..., None]
            e = np.exp(K[0] + m * (K[1] + m * K[2]) + v * (K[3] + m * K[4]) + u * K[5])
            row = np.exp(self._gauss + v * self._n)
        S = row @ self._table
        quotient = np.multiply.reduce(S[..., self._factors], axis=-1)
        values = e * quotient[..., 0] / quotient[..., 1]
        if not deriv:
            return values
        K, dS = self._KG[:, :E], (row * self._n) @ self._table
        return values, self.scale * (K[5] + K[3] + m * K[4] + (dS / S)[..., :-1] @ self.powers.T)

    def __call__(self, z):
        """Every element at ``z`` of shape (...): shape (..., E)."""
        return self._evaluate(z, False)

    def logderivs(self, z):
        """Values and log-derivatives ``d/dz log q_e`` at ``z``, both (..., E)."""
        return self._evaluate(z, True)


@lru_cache(maxsize=256)
def _factor_lists(shape, ints):
    """``ThetaQuotients._factors`` (E, 2, L), read-only, of the integer powers
    (E, F) given as ``shape`` and bytes: the numerator and the denominator
    factors of every element by power, padded with F.  They depend on the
    powers alone, so evaluators with equal powers share one array."""
    ints = np.frombuffer(ints, dtype=int).reshape(shape)
    counts = np.concatenate([ints, -ints], axis=1).clip(0).reshape(len(ints), 2, -1)
    size = counts.sum(axis=-1, keepdims=True)
    counts = np.concatenate([counts, size.max(initial=1) - size], axis=-1)
    return frozen(np.repeat(np.arange(counts.size) % counts.shape[-1],
                            counts.ravel()).reshape(*size.shape[:2], -1))[0]


@lru_cache(maxsize=64)
def _plain(params: ThetaParams) -> ThetaQuotients:
    """theta itself: the one-shift evaluator (shift 0, power 1)."""
    return ThetaQuotients(params, [0.0], [[1.0]], [0.0], 0.0, 1.0)


def theta_kj(z, k: int, j: int, params: ThetaParams):
    """theta(z + (k + j tau)/r), theta shifted by an r-torsion point."""
    r = params.r
    if not (0 <= k < r and 0 <= j < r):
        raise IndexError("index out of range")
    return riemann_theta(np.asarray(z, dtype=complex) + (k + j * params.tau) / r, params)


def xi_kj(z, k: int, j: int, params: ThetaParams):
    """theta(z + (2k - 1 + 2j tau - tau)/(2r)), theta shifted by an r-torsion
    point less (1 + tau)/(2r)."""
    r = params.r
    if not (0 <= k < r and 0 <= j < r):
        raise IndexError("index out of range")
    shift = (2 * k - 1 + (2 * j - 1) * params.tau) / (2 * r)
    return riemann_theta(np.asarray(z, dtype=complex) + shift, params)


def lattice_coords(z, params: ThetaParams, origin=0.0):
    """Real coordinates (a, b) of z (a point or an array) = origin + a omega1
    + b omega2."""
    w = np.asarray(z, dtype=complex) - complex(origin)
    b = w.imag / params.omega2.imag
    return (w.real - b * params.omega2.real) / params.omega1, b


def puncture_distance(z, params: ThetaParams):
    """Distance from z to the puncture lattice (1+tau)/(2r) + (1/r)Z + (tau/r)Z."""
    a, b = lattice_coords(z, params, params.puncture)
    return np.abs((a - np.rint(a)) * params.omega1 + (b - np.rint(b)) * params.omega2)


def _continued_log(func, nodes, params: ThetaParams):
    """log f(node) - log f(nodes[0]) at every node of the polyline ``nodes``,
    continued along it, for one scalar function ``f``.

    ``func`` maps an ``(m,)`` array of points to ``(f, f'/f)``, two arrays of
    shape ``(m,)``.  Each segment is cut into at least 4 steps of at most
    0.05 (one of length 0 into none), and the whole path is evaluated in one
    call.  A step is bisected (only those steps, only their midpoints
    evaluated) when its ratio f(z + h)/f(z) has |ratio - 1| > 0.5, so no
    principal log is taken of a ratio far from 1, or when |h| |f'/f| > 1 at
    one of its ends, so no step straddles a zero: across a zero of even
    order the ratio comes back close to 1 after the argument has turned by a
    multiple of 2 pi.  A failing step below 1e-8, or a point inside the
    puncture radius, raises ``NumericDomainError``.
    """
    def evaluate(pts):
        near = puncture_distance(pts, params) < PUNCTURE_RADIUS
        if np.any(near):
            raise NumericDomainError(f"branch obstruction near z={pts[near][0]:.6f}")
        vals, logd = func(pts)
        return vals, np.abs(logd)

    nodes = np.asarray(nodes, dtype=complex)
    delta = nodes[1:] - nodes[:-1]
    steps = np.where(delta == 0, 0, np.maximum(4, (np.abs(delta) / 0.05).astype(int) + 1))
    at = np.zeros(nodes.size, dtype=int)  # grid index of every node
    at[1:] = steps.cumsum()
    seg = np.repeat(np.arange(steps.size), steps)
    pts = np.empty(at[-1] + 1, dtype=complex)
    pts[1:] = nodes[seg] + (np.arange(at[-1]) - at[seg] + 1) / steps[seg] * delta[seg]
    pts[at] = nodes
    vals, slope = evaluate(pts)
    while True:
        ratio = vals[1:] / vals[:-1]
        width = np.abs(np.diff(pts))
        bad = np.flatnonzero((np.abs(ratio - 1.0) > 0.5)
                             | (width * np.maximum(slope[:-1], slope[1:]) > 1.0))
        if bad.size == 0:
            logs = np.zeros(vals.size, dtype=complex)
            logs[1:] = np.log(ratio).cumsum()
            return logs[at]
        mids = 0.5 * (pts[bad] + pts[bad + 1])
        if width[bad].min() < 1e-8:
            raise NumericDomainError(
                f"branch obstruction near z={mids[width[bad].argmin()]:.6f}")
        new_vals, new_slope = evaluate(mids)
        pts = np.insert(pts, bad + 1, mids)
        vals = np.insert(vals, bad + 1, new_vals)
        slope = np.insert(slope, bad + 1, new_slope)
        at += np.searchsorted(bad, at)


# --- the quasi-periodic family f_j: one ThetaQuotients for every rank --------
#
# In u = r z, with theta of modulus r tau (zero at (1 + r tau)/2),
#
#     f_j(z) = A_j(u)^r / h(u),   h(u) = prod_m theta(u + ((r - 1)/2 - m) tau),
#     A_j(u) = theta[j/r, 0](u | r tau) = d_j exp(2 pi i j u/r) theta(u + j tau),
#
# theta[j/r, 0] the theta with characteristic j/r and d_j = exp(i pi tau j^2 / r); h
# vanishes on the puncture stack z = (1 + tau)/(2r) + m tau/r.  As one quotient, f_j =
# kappa_j exp(2 pi i j u) theta(u + j tau)^r / h with kappa_j = d_j^r = exp(i pi tau j^2).
# Over u -> u + tau, A_j becomes exp(-i pi tau/r - 2 pi i u/r) A_(j+1), A_r = A_0, and h
# becomes exp(-i pi tau - 2 pi i u) h: so f(z + tau/r) = I2 f(z), which the family
# checks once at two points.  tests/test_theta.py measures kappa from the ratios of
# neighbouring quotients without it, and at odd r checks f_j against the product over
# theta_kj, which is exp(-2 pi i tau ((r - 1)/2)^3) f_j.

@lru_cache(maxsize=32)
def _even_family(params: ThetaParams):
    r, tau, js = params.r, params.tau, np.arange(params.r)
    # numerator shifts, then the puncture stack's; at odd r they meet, and merge
    shifts = np.concatenate([js, (r - 1) / 2 - js]) * tau
    exps = np.hstack([r * np.eye(r), -np.ones((r, r))])
    # over a horizontal period (u -> u + 1) f_j^(1/r) = A_j h^(-1/r) gains q^j, so j
    # is the label: A_j gains q^j, and between two puncture rows every theta factor
    # of h has its argument between the zero rows next to the real axis, where
    # theta does not wind
    family = ThetaQuotients(ThetaParams(tau=r * tau, r=r), shifts, exps, js,
                            1j * np.pi * tau * js ** 2, r)
    zs = np.array([0.1529 + 0.2731 * tau, 0.3107 + 0.1381 * tau]) / r
    up, f = np.split(family(np.concatenate([zs + tau / r, zs])), 2)
    if np.any(np.abs(up - np.roll(f, -1, axis=-1)) > 1e-8 * np.abs(up)):
        raise ConsistencyError("f_j family is not quasi-periodic: f(z + tau/r) != I2 f(z)")
    return family


def f_quotients(params: ThetaParams) -> ThetaQuotients:
    """The components f_j as one evaluator (elements j = 0..r-1), from which
    ``f_component`` takes its values and ``section_quotients`` its factors."""
    return _even_family(params)


def f_component(z, j, params: ThetaParams):
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
    if np.any(puncture_distance(z, params) < PUNCTURE_RADIUS):
        raise NumericDomainError("pole")
    out = np.moveaxis(f_quotients(params)(z), -1, 0)[j]
    return out if out.shape else complex(out)


def f_vector(z, params: ThetaParams):
    return f_component(z, np.arange(params.r), params)


def i_matrices(r: int):
    """The automorphy pair: I1 = diag(1, q, ..., q^{r-1}), I2 the cyclic shift."""
    q = np.exp(2j * np.pi / r)
    I1 = np.diag(q ** np.arange(r)).astype(complex)
    I2 = np.zeros((r, r), dtype=complex)
    for i in range(r):
        I2[i, (i + 1) % r] = 1.0
    return I1, I2


# ---------------------------------------------------------------------------
# the basic section s = A (1/h)^(1/r)
# ---------------------------------------------------------------------------

def _anchor(params: ThetaParams) -> complex:
    """A generic interior point of the cell, in the band bordering the real
    axis (even ranks have a zero row on the axis itself)."""
    return complex((0.1377 + 0.3711 * params.tau) / params.r)


@lru_cache(maxsize=32)
def section_quotients(params: ThetaParams) -> ThetaQuotients:
    """The basic section ``s = A (1/h)^(1/r)`` as one evaluator of ``r + 1``
    elements: ``A_j`` (elements j = 0..r-1, single-valued), then ``1/h``
    (element r), all from one series table.

    ``f_j = A_j^r / h``: each theta factor's least power over the components
    (-1 or 0) goes to ``1/h``, the rest (``r`` or 0) over ``r`` to ``A_j``,
    with ``gamma_j / r`` and ``d_j = exp(i pi tau j^2 / r)``, so that ``A_j``
    is the theta with characteristic ``j/r`` (above ``_even_family``).  That
    ``d_j`` is the r-th root of ``kappa_j`` that makes ``s(z + tau/r) = I2
    s(z)`` with ``(1/h)^(1/r)`` continued across ``tau/r`` from the anchor.
    ``1/h`` has ``gamma`` 0 and constant 1.
    """
    f, r = f_quotients(params), params.r
    low = f.powers.real.min(axis=0)
    ones = (f.powers.real - low) / r
    keep = ones.any(axis=0) | (low != 0)  # leave out factors of power 0
    powers, gamma = np.vstack([ones, low])[:, keep], np.append(f.phase / (2j * np.pi * r), 0.0)
    log_d = 1j * np.pi * params.tau * np.arange(r) ** 2 / r
    return ThetaQuotients(f.params, f.shifts[keep], powers, gamma, np.append(log_d, 0.0), f.scale)


def _last(quotients: ThetaQuotients):
    """``w -> (q, q'/q)`` of the last element alone, ``1/h`` of the section (same table)."""
    last, E = copy.copy(quotients), len(quotients.powers)
    last.powers, last._KG, last._factors = last.powers[-1:], last._KG[:, E - 1:], last._factors[-1:]
    return lambda w: tuple(v[..., 0] for v in last.logderivs(w))


class SectionTracker:
    """The basic section s_i = f_i^(1/r), continued from the anchor.

    ``s = A (1/h)^(1/r)`` (``section_quotients``).  ``value_at`` continues
    the scalar ``log(1/h)`` from the anchor along a point or a path (one
    ``_continued_log`` call) and evaluates ``A`` at its points; no query
    changes the tracker.  At the anchor s_0 is the principal r-th root of
    ``f_0 = A_0^r (1/h)`` (argument in (-pi/r, pi/r]); ``A``'s constants
    chain the rest by ``s(z + tau/r) = I2 s(z)``.
    """

    def __init__(self, params: ThetaParams):
        self.params, self.anchor = params, _anchor(params)
        self._s = section_quotients(params)
        a0 = self._s(self.anchor)
        self._root = (a0[0] ** params.r * a0[-1]) ** (1.0 / params.r) / a0[0]  # (1/h)^(1/r)

    def value_at(self, z):
        """Section values at ``z``, continued from the anchor.

        A scalar ``z`` gives shape (r,).  A 1-D array is read as a path: the
        section is continued from the anchor through its points in order and
        the values at every point are returned, shape (r, len(z)).
        """
        path = np.asarray(z, dtype=complex)
        if not np.isfinite(path).all():
            raise NumericDomainError("continuation target is not finite")
        logs = _continued_log(_last(self._s), np.append(self.anchor, path), self.params)
        out = self._s(path.ravel())[:, :-1] * (self._root * np.exp(logs[1:, None] / self.params.r))
        return out.T.reshape((-1,) + path.shape)
