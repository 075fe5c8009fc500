"""Elliptic phase space: quasi-periodic Lax matrices on the (1/r, tau/r)
torus, their spectral invariants, and divisor extraction with the basic
section's factors (``theta.section_quotients``) evaluated pointwise.

A phase point is phi(lambda) = sum c_{ab,m} w_{ab,m}(lambda) T_ab where
T_ab = I1^a I2^b and the w's carry the character multipliers

    w(lambda + 1/r)   = q^{-b} w(lambda),
    w(lambda + tau/r) = q^{a}  w(lambda),

with poles bounded by the lifted divisor.
"""

from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Optional, Sequence

import numpy as np

from . import kernel
from .errors import ConsistencyError, NonGenericError, NumericDomainError
from .numeric import PathSpec, integrate_path
from .theta import ThetaParams, ThetaQuotients, i_matrices, lattice_coords, section_quotients
from .tolerances import (BASIS_MULTIPLIER, BASIS_RANK, DEFAULT, LAX_PERIODICITY,
                         PUNCTURE_RADIUS, Tolerances)

__all__ = [
    "EllipticDivisor", "BasisFunction", "EllipticLax", "FundamentalDomainPoint",
    "reduce_to_domain", "build_basis", "assemble_lax", "spectral_invariants",
    "elliptic_divisor_coords", "slr_reduce", "DivisorCountReport",
]


def reduce_to_domain(z, params: ThetaParams, origin=0.0):
    """Representative of z (a point or an array) in origin + [0,1) omega1 +
    [0,1) omega2."""
    a, b = lattice_coords(z, params, origin)
    return (complex(origin) + (a - np.floor(a)) * params.omega1
            + (b - np.floor(b)) * params.omega2)


@dataclass(frozen=True)
class EllipticDivisor:
    """Positive divisor on the torus: points with multiplicities."""

    points: tuple
    mults: tuple

    def __post_init__(self):
        if len(self.points) != len(self.mults) or not self.points:
            raise ValueError("divisor needs matching nonempty points and mults")
        if any(m < 1 for m in self.mults):
            raise ValueError("multiplicities must be positive")
        object.__setattr__(self, "points", tuple(complex(p) for p in self.points))
        object.__setattr__(self, "mults", tuple(int(m) for m in self.mults))

    @property
    def degree(self) -> int:
        return sum(self.mults)

    def reduced(self, params: ThetaParams) -> "EllipticDivisor":
        return EllipticDivisor(
            points=tuple(reduce_to_domain(p, params) for p in self.points),
            mults=self.mults,
        )


def _quotients(params: ThetaParams, elements) -> ThetaQuotients:
    """Basis elements as one evaluator in ``u = r lambda``: a zero (power +1)
    or pole (power -1) ``w`` is the factor ``chi(u - w) = theta(u + (1+tau)/2 - w)``."""
    half = (1.0 + params.tau) / 2.0
    shifts = [half - w for el in elements for w in el.zeros + el.poles]
    owner = [e for e, el in enumerate(elements) for _ in el.zeros + el.poles]
    signs = [s for el in elements for s in (1.0,) * len(el.zeros) + (-1.0,) * len(el.poles)]
    powers = (np.arange(len(elements))[:, None] == owner) * np.array(signs)
    return ThetaQuotients(params, shifts, powers, [el.gamma for el in elements], 0.0, params.r)


class BasisFunction:
    """One exponential-times-theta-quotient basis element.

    Represents e^{2 pi i gamma u} * prod_s chi(u - zeros_s) / prod_s chi(u - poles_s)
    in the scaled coordinate u = r lambda, where chi(x) = theta(x + (1+tau)/2)
    has a simple zero at the u-lattice (1, tau).  Takes ``lam`` of any shape.
    """

    def __init__(self, params: ThetaParams, character, gamma, zeros, poles):
        self.params = params
        self.character = tuple(character)
        self.gamma = complex(gamma)
        self.zeros = tuple(complex(w) for w in zeros)
        self.poles = tuple(complex(w) for w in poles)

    _evaluator = cached_property(lambda self: _quotients(self.params, [self]))

    def __call__(self, lam):
        return self._evaluator(lam)[..., 0]

    def deriv(self, lam):
        return np.multiply(*self._evaluator.logderivs(lam))[..., 0]


def build_basis(divisor: EllipticDivisor, params: ThetaParams):
    """Basis functions per character (a, b), keyed by dict.

    Every character sector has dimension equal to the divisor degree; the
    multiplier system and the numerical rank are both validated.
    """
    r = params.r
    tau = params.tau
    div = divisor.reduced(params)
    slots = [(i, p) for i, m in enumerate(div.mults) for p in range(1, m + 1)]
    n = len(slots)
    upoints = [r * p for p in div.points]
    beta = [(0.231 + 0.177 * tau) * (s + 1) / (n + 2) for s in range(max(0, max(div.mults) - 1))]

    basis = {}
    for a in range(r):
        for b in range(r):
            gamma = -b / r
            shift = (a + b * tau) / r
            elements = []
            if (a, b) == (0, 0):
                i0 = slots[0][0]
                for idx, (i, p) in enumerate(slots):
                    if idx == 0:
                        elements.append(BasisFunction(params, (a, b), 0.0, (), ()))
                    elif p == 1:
                        zero_sum = upoints[i] + upoints[i0]
                        zpos = (zero_sum - (0.391 + 0.269 * tau), (0.391 + 0.269 * tau))
                        elements.append(BasisFunction(
                            params, (a, b), 0.0, zpos, (upoints[i], upoints[i0])))
                    else:
                        eps = 0.173 + 0.118 * tau
                        zpos = tuple(upoints[i] + eps * (s - (p - 1) / 2.0)
                                     for s in range(p))
                        # recenter so the zero sum matches p * pole
                        correction = (p * upoints[i] - sum(zpos)) / p
                        zpos = tuple(w + correction for w in zpos)
                        elements.append(BasisFunction(
                            params, (a, b), 0.0, zpos, (upoints[i],) * p))
            else:
                for (i, p) in slots:
                    poles = (upoints[i],) * p
                    zextra = tuple(upoints[i] + beta[s] for s in range(p - 1))
                    zmain = upoints[i] + shift - sum(beta[s] for s in range(p - 1))
                    elements.append(BasisFunction(
                        params, (a, b), gamma, (zmain,) + zextra, poles))
            basis[(a, b)] = elements

    _validate_basis(basis, div, params)
    return basis


def _cell_probes(params, points, count, seed, min_dist):
    """``count`` seeded random points of the cell farther than ``min_dist``
    from every one of ``points``."""
    rng = np.random.default_rng(seed)
    probes = []
    while len(probes) < count:
        lam = (rng.uniform(0.05, 0.95) + rng.uniform(0.05, 0.95) * params.tau) / params.r
        if min(abs(complex(lam) - p) for p in points) > min_dist:
            probes.append(lam)
    return np.array(probes)


def _validate_basis(basis, div, params):
    q = params.q_root
    probes = _cell_probes(params, div.points, 10, 7, 5 * PUNCTURE_RADIUS)
    # rows: the probes, then their omega1 and omega2 translates
    shifted = probes + np.array([0.0, params.omega1, params.omega2])[:, None]
    n = div.degree
    values = _quotients(params, [w for elements in basis.values() for w in elements])(shifted)
    ends = np.cumsum([len(elements) for elements in basis.values()])[:-1]
    for (a, b), (v0, v1, v2) in zip(basis, np.split(values, ends, axis=-1)):
        nz = v0 != 0
        r1 = v1[nz] / v0[nz]
        r2 = v2[nz] / v0[nz]
        if np.any(np.abs(r1 - q ** (-b)) > BASIS_MULTIPLIER * np.maximum(1.0, np.abs(r1))) or \
                np.any(np.abs(r2 - q ** a) > BASIS_MULTIPLIER * np.maximum(1.0, np.abs(r2))):
            raise ConsistencyError(
                f"multiplier system violated for character {(a, b)}; "
                f"degenerate divisor configuration")
        s = np.linalg.svd(v0, compute_uv=False)
        if s.size < n or s[n - 1] < BASIS_RANK * s[0]:
            raise ConsistencyError(
                f"character {(a, b)} span has deficient rank; "
                f"degenerate divisor configuration")


@dataclass
class EllipticLax:
    """Assembled quasi-periodic Lax matrix with a translation modulus.

    ``lax(lam)`` takes a scalar or an array ``lam`` of shape (...) and
    returns shape (..., r, r), or (r, r) for a scalar, and ``lax.deriv(lam)``
    returns ``phi`` and ``phi'`` of that shape; every theta factor of every
    basis element is evaluated in one call.
    """

    params: ThetaParams
    divisor: EllipticDivisor
    coeffs: dict
    z0: complex
    basis: dict = field(repr=False)

    def __post_init__(self):
        r = self.params.r
        I1, I2 = i_matrices(r)
        keys = list(self.coeffs)
        self._quotients = _quotients(self.params,
                                     [w for key in keys for w in self.basis[key]])
        T = {(a, b): np.linalg.matrix_power(I1, a) @ np.linalg.matrix_power(I2, b)
             for a, b in keys}
        # each element's coefficient times T_ab of its character: (E, r*r)
        self._mats = np.array([c * T[key] for key in keys for c in self.coeffs[key]],
                              dtype=complex).reshape(-1, r * r)

    def __call__(self, lam):
        phi = self._quotients(lam) @ self._mats
        return phi.reshape(phi.shape[:-1] + (self.params.r,) * 2)

    def deriv(self, lam):
        """``(phi, phi')`` at ``lam`` from one pass of the theta series."""
        values, logd = self._quotients.logderivs(lam)
        shape = values.shape[:-1] + (self.params.r,) * 2
        return (values @ self._mats).reshape(shape), ((values * logd) @ self._mats).reshape(shape)

    @cached_property
    def _invariant_forms(self):
        """``t_1`` and, at r = 2, ``t_2`` as forms in the basis values ``Q``
        (E,): ``[lin | D]`` (E, 1) or (E, 1 + E), ``t_1 = Q @ lin`` and ``t_2
        = Q @ D @ Q`` with ``D`` symmetric, read off ``kernel._monomials``,
        one ``kernel.char_bipoly`` call per degree at the unit (and pair)
        points, once per matrix."""
        r, mats = self.params.r, self._mats
        E = len(mats)

        def t(k):
            return lambda x: kernel.char_bipoly((x @ mats).reshape(-1, r, r))[:, r - k]

        lin = kernel._monomials(t(1), E, 1)[1]  # e_0, e_1, ...
        if r == 1:
            return lin[:, None]
        idx, c = kernel._monomials(t(2), E, 2)
        i, j = idx.T
        D = np.zeros((E, E), dtype=complex)
        D[i, j] = D[j, i] = np.where(i == j, c, c / 2)
        return np.column_stack([lin, D])


def assemble_lax(coeffs, divisor: EllipticDivisor, params: ThetaParams,
                 z0=0.0, basis: Optional[dict] = None) -> EllipticLax:
    """Assemble phi(lambda) = sum c_{ab,m} w_{ab,m}(lambda) I1^a I2^b.

    The conjugation quasi-periodicity phi(lam + omega_i) = I_i phi I_i^{-1}
    is re-verified at random probe points (``LAX_PERIODICITY``) after
    assembly.
    """
    if basis is None:
        basis = build_basis(divisor, params)
    n = divisor.degree
    table = {}
    for key, cvec in coeffs.items():
        a, b = key
        cvec = np.asarray(cvec, dtype=complex)
        if cvec.size != n:
            raise ValueError(f"character {key} needs {n} coefficients")
        table[(int(a) % params.r, int(b) % params.r)] = cvec
    lax = EllipticLax(params=params, divisor=divisor.reduced(params),
                      coeffs=table, z0=complex(z0), basis=basis)

    I1, I2 = i_matrices(params.r)
    probes = _cell_probes(params, lax.divisor.points, 6, 11, 10 * PUNCTURE_RADIUS)
    scale = max(1.0, *(np.abs(v).max() for v in table.values())) if table else 1.0
    base = lax(probes)
    mag = np.maximum(1.0, np.abs(base).max(axis=(1, 2))) * scale
    r1 = np.abs(lax(probes + params.omega1) - I1 @ base @ np.linalg.inv(I1)).max(axis=(1, 2))
    r2 = np.abs(lax(probes + params.omega2) - I2 @ base @ np.linalg.inv(I2)).max(axis=(1, 2))
    if np.any(np.maximum(r1, r2) > LAX_PERIODICITY * mag):
        raise ConsistencyError("assembled Lax matrix violates quasi-periodicity")
    return lax


def spectral_invariants(lax: EllipticLax):
    """The functions t_k(lambda), k = 1..r: coefficients of xi^{r-k} in
    det(phi(lambda) - xi I); each is genuinely elliptic.

    Each ``t_k`` takes a scalar or an array ``lam`` of shape (...) and
    returns a complex or an array of shape (...).  The ``r`` functions share
    one evaluation at the last scalar point they were called at.

    ``phi`` is linear in the basis values ``Q = lax._quotients(lam)``, so
    ``t_k`` is a form of degree ``k`` in ``Q``.  At r <= 2 the forms are read
    off the characteristic polynomial once per matrix (the cached
    ``lax._invariant_forms``), and a point costs the ``Q`` and two products,
    ``v = Q @ [lin | D]``, ``t_1 = v[0]``, ``t_2 = v[1:] @ Q``, with no
    ``phi`` and no recursion.  At r >= 3 a form of degree ``k`` has
    ``O(E^k)`` coefficients, so every point takes
    ``kernel.char_bipoly(lax(lam))``.
    """
    r = lax.params.r
    forms = lax._invariant_forms if r <= 2 else None
    last = [None, None]  # scalar lam as a Python complex, [t_1, ..., t_r] there

    def at_number(lam):
        if forms is None:
            return kernel.char_bipoly(lax(lam)).tolist()[-2::-1]
        Q = lax._quotients._evaluate(lam, False)
        v = Q @ forms
        return [complex(v[0])] if r == 1 else [complex(v[0]), complex(v[1:] @ Q)]

    def maker(k):
        def t_k(lam):
            if isinstance(lam, (int, float, complex)) or np.ndim(lam) == 0:
                key = complex(lam)
                if last[0] != key:
                    last[:] = key, at_number(key)
                return last[1][k - 1]
            if forms is None:
                return kernel.char_bipoly(lax(lam))[..., r - k]
            Q = lax._quotients(lam)
            return Q @ forms[:, 0] if k == 1 else ((Q @ forms[:, 1:]) * Q).sum(axis=-1)
        return t_k

    return [maker(k) for k in range(1, r + 1)]


# ---------------------------------------------------------------------------
# divisor extraction
# ---------------------------------------------------------------------------

@dataclass
class FundamentalDomainPoint:
    z: complex
    xi: complex
    sheet: int


@dataclass
class DivisorCountReport:
    points: list
    validated_count: int  # the zero count of the Krylov determinant B: all validate
    branch_count: int
    genus_prediction: int


def _b_logderiv(lax, zs):
    """``B'/B`` at ``zs`` (m,) for Sklyanin's ``B = det[s, phi s, ...,
    phi^(r-1) s]``, ``s = A (1/h)^(1/r)`` the section.  ``B`` is of degree
    ``r`` in ``s``, so ``B = det K / h`` with ``K = [A, phi A, ...]``, and
    ``B'/B = tr(adj(K) K') / det K + (1/h)'/(1/h)``, ``K' = [A', phi' A +
    phi A', ...]``.  ``K`` and ``K'`` are divided by the column norms of
    ``K`` first: ``B'/B`` is unchanged, and the adjugate keeps its accuracy
    near a pole of ``phi``."""
    r = lax.params.r
    s, logd = section_quotients(lax.params).logderivs(zs)  # A, then 1/h
    phi, dphi = lax.deriv(zs)
    K = kernel.krylov(phi, s[..., :r])
    dK = np.empty(K.shape, dtype=complex)
    dK[..., 0] = s[..., :r] * logd[..., :r]
    for k in range(1, r):
        dK[..., k] = (dphi @ K[..., k - 1, None] + phi @ dK[..., k - 1, None])[..., 0]
    norms = np.linalg.norm(K, axis=-2, keepdims=True)
    K, dK = K / norms, dK / norms
    adj = kernel.adjugate(K)
    det = np.einsum("...ij,...ji->...", adj, K) / r
    return np.einsum("...ij,...ji->...", adj, dK) / det + logd[..., r]


def _disc_logderiv(lax, zs):
    """``D'/D`` at ``zs`` for the discriminant ``D = prod_{i<j} (xi_i - xi_j)^2``
    of ``det(phi - xi I)``: ``2 sum_{i<j} (xi_i' - xi_j') / (xi_i - xi_j)``, with
    ``xi' = diag(V^-1 phi' V)`` from the eigenvectors ``V`` of ``phi``."""
    phi, dphi = lax.deriv(zs)
    xi, V = np.linalg.eig(phi)
    dxi = np.einsum("...ij,...ji->...i", np.linalg.solve(V, dphi), V)
    i, j = np.triu_indices(lax.params.r, 1)
    return 2 * ((dxi[..., i] - dxi[..., j]) / (xi[..., i] - xi[..., j])).sum(axis=-1)


def _loop_moments(logderiv, loop, centre, rho, count):
    """``(1/2 pi i) int ((z - centre)/rho)^k f'/f dz``, k < ``count``, around the
    closed polygon ``loop``, and its error estimate; ``logderiv`` maps the
    quadrature nodes, in path order, to ``f'/f`` there."""
    def integrand(zs):
        return ((zs - centre) / rho)[:, None] ** np.arange(count) * logderiv(zs)[:, None]

    value, error = integrate_path(integrand, PathSpec(tuple(loop)))
    return value / (2j * np.pi), error / (2 * np.pi)


def _cell_zeros(logderiv, params, origin, poles, orders,
                box=((0.0, 1.0), (0.0, 1.0)), depth=0):
    """The zeros of ``f`` in the parallelogram ``box = ((a0, a1), (b0, b1))``,
    that is ``origin + [a0, a1) omega1 + [b0, b1) omega2``, from ``logderiv``,
    which maps an array of points to ``f'/f`` there.

    ``f'/f`` is elliptic on the cell, and ``f`` has poles of the integer
    ``orders`` at ``poles`` (an order 0 marks a point to keep the cuts clear
    of), so it has ``sum(orders)`` zeros in the cell; the whole cell must
    count that many.  The moments of ``f'/f`` round the box
    (``_loop_moments``), plus ``order ((p - c)/rho)^k`` for every pole ``p``
    inside it (the residue theorem), give the zero count (within 1e-8 of an
    integer) and the zeros as the eigenvalues of a Hankel pencil (Delves and
    Lyness, Math. Comp. 21 (1967); Kravanja and Van Barel, LNM 1727 (2000)).
    Each takes up to 3 Newton steps ``z - 1/(f'/f)``, and none once its step
    is below rounding or ``f'/f`` is not finite (at an exact zero).  Where that
    fails (the Hankel matrix is singular to the moments' error, an eigenvalue
    lies far from the box, or the polished zeros do not give back the
    moments) the box is cut in two across its longer side, clear of the
    poles, and each half is searched: a dozen zeros on one contour, or a
    close pair among distant ones, are beyond one pencil.  After 16 cuts a
    singular Hankel matrix is a multiple zero.
    """
    w1, w2 = params.omega1, params.omega2
    (a0, a1), (b0, b1) = box
    corners = origin + np.array([a0, a1, a1, a0, a0]) * w1 + np.array([b0, b0, b1, b1, b0]) * w2
    centre = corners[:4].mean()
    rho = 0.5 * max(abs(corners[2] - corners[0]), abs(corners[3] - corners[1]))
    most = int(orders.sum())
    pa, pb = lattice_coords(poles, params, origin)
    inside = (a0 <= pa) & (pa < a1) & (b0 <= pb) & (pb < b1)
    # the zeroth moment, the count, even where the cell holds no zero
    value, error = _loop_moments(logderiv, corners, centre, rho, max(1, 2 * most))
    value = value + orders[inside] @ (
        ((poles[inside] - centre) / rho)[:, None] ** np.arange(value.size))
    count = int(np.rint(value[0].real))
    if abs(value[0] - count) > 1e-8 or not 0 <= count <= most or (depth == 0 and count < most):
        raise ConsistencyError(f"a box of the cell holds {value[0]:.6g} zeros, "
                               f"of {most} in the cell")
    if count == 0:
        return np.empty(0, dtype=complex)
    hankel = np.add.outer(np.arange(count), np.arange(count))
    singular = np.linalg.svd(value[hankel], compute_uv=False)[-1] <= count * error.max()
    if not singular:
        zs = centre + rho * np.linalg.eigvals(np.linalg.solve(value[hankel],
                                                              value[hankel + 1]))
        if np.all(np.abs(zs - centre) < 1.2 * rho):
            moving = np.ones(count, dtype=bool)
            for _ in range(3):
                with np.errstate(divide="ignore", invalid="ignore"):
                    step = 1.0 / logderiv(zs[moving])
                step[~np.isfinite(step)] = 0.0
                zs[moving] -= step
                moving[moving] = np.abs(step) > np.finfo(float).eps * np.abs(zs[moving])
            # a zero found twice in place of another would not give back the moments
            sums = (((zs - centre) / rho)[:, None] ** np.arange(2 * count)).sum(axis=0)
            if np.all(np.abs(sums - value[:2 * count]) <= error[:2 * count]):
                return zs
    if depth == 16:
        if singular:
            raise NonGenericError(f"a multiple zero near z = {centre:.6g}")
        raise NumericDomainError(f"the {count} zeros near z = {centre:.6g} do not separate")
    # the cut nearest the middle that keeps a tenth of the side from the
    # poles inside, else the one farthest from them
    side = 0 if (a1 - a0) * abs(w1) >= (b1 - b0) * abs(w2) else 1
    lo, hi = box[side]
    cuts = lo + (hi - lo) * np.array([0.5, 0.45, 0.55, 0.4, 0.6, 0.35, 0.65, 0.3, 0.7])
    gaps = np.abs(np.subtract.outer(cuts, (pa, pb)[side][inside])).min(axis=1, initial=1.0)
    cut = cuts[np.argmax(np.minimum(gaps, 0.1 * (hi - lo)))]
    halves = [list(box), list(box)]
    halves[0][side], halves[1][side] = (lo, cut), (cut, hi)
    zs = np.concatenate([_cell_zeros(logderiv, params, origin, poles, orders,
                                     tuple(half), depth + 1) for half in halves])
    if zs.size != count:
        raise ConsistencyError(f"the halves of a box with {count} zeros hold {zs.size}")
    return zs


def _branch_points(lax, origin):
    """The zeros of the discriminant ``D = prod_{i<j} (xi_i - xi_j)^2`` of
    ``det(phi - xi I)`` on the cell at ``origin``, by ``_cell_zeros``: ``D`` is
    elliptic, with a pole of order ``m r(r-1)`` at a divisor point of
    multiplicity ``m`` and no other pole."""
    params, r = lax.params, lax.params.r
    poles = reduce_to_domain(np.array(lax.divisor.points), params, origin)
    return _cell_zeros(partial(_disc_logderiv, lax), params, origin, poles,
                       r * (r - 1) * np.array(lax.divisor.mults))


def elliptic_divisor_coords(lax: EllipticLax, tol: Tolerances = DEFAULT,
                            full_report: bool = False):
    """Separating points in the fundamental domain, over the zeros of
    Sklyanin's ``B = det[s, phi s, ..., phi^(r-1) s]``, ``s`` the section.

    ``s = A (1/h)^(1/r)`` (``theta.section_quotients``), and ``B``, of
    degree ``r`` in ``s``, is ``B(A) / h``: single-valued and elliptic.  So
    ``_cell_zeros`` finds its zeros on the cell from ``B'/B`` at points
    (``_b_logderiv``), with the pole order of ``B`` at each divisor point
    and at the puncture measured around a clockwise 8-gon of radius
    ``2.5 PUNCTURE_RADIUS``.  Each ``xi`` and its residual, which must
    be within ``tol.divisor``, come from ``kernel.divisor_points`` with ``A``
    for ``s``, whose scalar factor the points do not see.  The genus
    prediction is Riemann--Hurwitz over the torus, ``1 + branch_count/2``,
    and ``branch_count = r (r - 1) deg`` by construction: ``_branch_points``
    raises unless the discriminant has that many zeros, and certifies that
    they are simple and separated (else it raises).  Output coordinates are
    (z_mu - z0, xi_mu).
    """
    params = lax.params
    origin = 0.013 * params.omega1 + 0.017 * params.omega2
    logderiv = partial(_b_logderiv, lax)
    singulars = reduce_to_domain(np.array(lax.divisor.points + (params.puncture,)),
                                 params, origin)
    ring = 2.5 * PUNCTURE_RADIUS * np.exp(-2j * np.pi * np.arange(9) / 8)
    measured = np.array([_loop_moments(logderiv, p + ring, p, 1.0, 1)[0][0]
                         for p in singulars])
    orders = np.rint(measured.real).astype(int)
    if np.abs(measured - orders).max() > 1e-8:
        raise ConsistencyError(f"B has poles of orders {measured}, not integers")
    zs = _cell_zeros(logderiv, params, origin, singulars, orders)
    count = zs.size

    phis = lax(zs)
    A = section_quotients(params)(zs)[:, :params.r]
    xis, resid = kernel.divisor_points(phis, A, np.ones(count, dtype=int))
    validated = int(np.count_nonzero(resid <= tol.divisor))
    if validated != count:
        raise ConsistencyError(f"{validated} of the {count} zeros of B are divisor points")

    branch_count = _branch_points(lax, origin).size
    genus_pred = 1 + branch_count // 2

    zred = reduce_to_domain(zs, params, origin)
    sheets = np.abs(np.sort_complex(np.linalg.eigvals(phis)) - xis[:, None]).argmin(axis=1)
    points = [FundamentalDomainPoint(z=reduce_to_domain(zred[i] - lax.z0, params), xi=xis[i],
                                     sheet=int(sheets[i]))
              for i in np.lexsort((zred.imag, zred.real))]

    report = DivisorCountReport(
        points=points, validated_count=validated,
        branch_count=branch_count, genus_prediction=genus_pred)
    return report if full_report else report.points


def slr_reduce(points: Sequence[FundamentalDomainPoint]):
    """Centre-of-mass reduction: output satisfies sum z = 0 and prod xi = 1."""
    pts = list(points)
    if not pts:
        return []
    if any(p.xi == 0 for p in pts):
        raise ValueError("reduction undefined")
    g = len(pts)
    zmean = sum(p.z for p in pts) / g
    logmean = sum(np.log(p.xi) for p in pts) / g
    out = []
    for p in pts:
        out.append(FundamentalDomainPoint(
            z=p.z - zmean, xi=p.xi * np.exp(-logmean), sheet=p.sheet))
    return out
