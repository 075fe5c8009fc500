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
The basic section is one evaluator, the A_j and then 1/h.  Its one scalar
with branches, log(1/h), is continued from the section's anchor in closed
form (``_log_inverse_h``): the Jacobi triple product gives a branch of
log theta on every horizontal strip of the lattice, and a path adds one
branch difference per strip it passes through, with no steps.
"""

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


def _log_inverse_h(nodes, params: ThetaParams):
    """log(1/h) at every node of the polyline ``nodes`` less its value at
    ``nodes[0]``, continued along it: shape ``(len(nodes),)``.

    ``1/h = prod_f theta(u + s_f | T)^p_f`` (the last row of
    ``section_quotients``), ``u = r z``, ``T = r tau``.  On strip ``m``,
    ``|Im v - m Im T| < Im T / 2``, the Jacobi triple product gives the branch
    ``log theta(v) = sum_n [log1p(q^(2n-1) w) + log1p(q^(2n-1) / w)] - i pi m
    (m T + 2 v0) + sum_n log(1 - q^(2n))``, ``v0 = v - m T``, ``w = exp(2 pi i
    v0)``, ``q = exp(i pi T)``; every ``log1p`` argument is below 1 in modulus,
    and the terms stop where the tail is below 1e-17.  The zeros of every
    factor lie on the puncture rows ``Im z = (k + 1/2) Im tau / r``, which are
    the strip edges, so each segment is cut where it crosses a row and each
    piece adds its own strips' branches at its two ends.  A node or a crossing
    inside the puncture radius raises ``NumericDomainError``.
    """
    s, r = section_quotients(params), params.r
    T, p = s.params.tau, s.powers[-1].real
    shifts, p = s.shifts[p != 0], p[p != 0]
    decay = 2 * np.pi * T.imag  # |q^(2n-1) w| <= exp(-decay (n - 1)) on the strip
    terms = math.ceil(-math.log(5e-18 * -math.expm1(-decay)) / decay)
    odd = np.exp(1j * np.pi * T * (2 * np.arange(terms) + 1))
    # cut every segment where it crosses a row, y = r Im z / Im tau - 1/2 an integer
    nodes = np.asarray(nodes, dtype=complex)
    y = nodes.imag / params.omega2.imag - 0.5
    k = np.floor(y)
    count = np.abs(np.diff(k)).astype(int)
    seg = np.repeat(np.arange(count.size), count)
    up = np.sign(np.diff(k))[seg]
    rows = k[seg] + (up > 0) + up * (np.arange(seg.size) - (count.cumsum() - count)[seg])
    pts = np.insert(nodes, seg + 1, nodes[seg] + (rows - y[seg]) / (y[seg + 1] - y[seg])
                    * (nodes[seg + 1] - nodes[seg]))
    near = puncture_distance(pts, params) < PUNCTURE_RADIUS
    if near.any():
        raise NumericDomainError(f"branch obstruction near z={pts[near][0]:.6f}")
    u = r * pts
    m = np.rint((((u[1:] + u[:-1]) / 2)[:, None] + shifts).imag / T.imag)
    v = np.stack([u[:-1], u[1:]])[..., None] + shifts - m * T  # v0 at every piece's ends
    w = np.exp(2j * np.pi * v)[..., None]
    branch = (np.log1p(odd * w) + np.log1p(odd / w)).sum(axis=-1)
    steps = (branch[1] - branch[0]) @ p - 2j * np.pi * (m @ p) * np.diff(u)
    return np.append(0.0, steps.cumsum())[np.arange(nodes.size) + np.append(0, count.cumsum())]


class SectionTracker:
    """The basic section s_i = f_i^(1/r), continued from the anchor.

    ``s = A (1/h)^(1/r)`` (``section_quotients``).  ``value_at`` continues
    the scalar ``log(1/h)`` from the anchor along a point or a path in
    closed form (``_log_inverse_h``) and evaluates ``A`` at its points; no query
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
        logs = _log_inverse_h(np.append(self.anchor, path), self.params)
        out = self._s(path.ravel())[:, :-1] * (self._root * np.exp(logs[1:, None] / self.params.r))
        return out.T.reshape((-1,) + path.shape)
