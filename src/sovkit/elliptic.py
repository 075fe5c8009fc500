"""Elliptic phase space: quasi-periodic Lax matrices on the (1/r, tau/r)
torus, their spectral invariants, and divisor extraction with the basic
section.

A phase point is phi(lambda) = sum c_{ab,m} w_{ab,m}(lambda) T_ab where
T_ab = I1^a I2^b and the w's carry the character multipliers

    w(lambda + 1/r)   = q^{-b} w(lambda),
    w(lambda + tau/r) = q^{a}  w(lambda),

with poles bounded by the lifted divisor.
"""

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import kernel
from .errors import ConsistencyError, ConvergenceError, NumericDomainError
from .theta import SectionTracker, ThetaParams, ThetaQuotients, i_matrices
from .tolerances import DEFAULT, Tolerances

__all__ = [
    "EllipticDivisor", "BasisFunction", "EllipticLax", "FundamentalDomainPoint",
    "reduce_to_domain", "build_basis", "assemble_lax", "spectral_invariants",
    "elliptic_divisor_coords", "slr_reduce", "DivisorCountReport",
]


def reduce_to_domain(z, params: ThetaParams, origin=0.0, period2=None):
    """Representative of z (a point or an array) in origin + [0,1) omega1 +
    [0,1) period2.

    ``period2`` defaults to omega2; divisor extraction passes tau for the
    r-fold tall domain.
    """
    w1 = params.omega1
    w2 = params.omega2 if period2 is None else period2
    w = np.asarray(z, dtype=complex) - complex(origin)
    b = w.imag / w2.imag
    a = (w.real - b * w2.real) / w1
    return complex(origin) + (a - np.floor(a)) * w1 + (b - np.floor(b)) * w2


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
    return ThetaQuotients(params, shifts, powers, [el.gamma for el in elements], 1.0, params.r)


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

    def __call__(self, lam):
        return _quotients(self.params, [self])(lam)[..., 0]

    def deriv(self, lam):
        return np.multiply(*_quotients(self.params, [self]).logderivs(lam))[..., 0]


def build_basis(divisor: EllipticDivisor, params: ThetaParams,
                tol: Tolerances = DEFAULT):
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

    _validate_basis(basis, div, params, tol)
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


def _validate_basis(basis, div, params, tol):
    q = params.q_root
    probes = _cell_probes(params, div.points, 10, 7, 5 * tol.puncture_radius)
    # rows: the probes, then their omega1 and omega2 translates
    shifted = probes + np.array([0.0, params.omega1, params.omega2])[:, None]
    n = div.degree
    bound = tol.basis_multiplier
    for (a, b), elements in basis.items():
        v0, v1, v2 = _quotients(params, elements)(shifted)
        nz = v0 != 0
        r1 = v1[nz] / v0[nz]
        r2 = v2[nz] / v0[nz]
        if np.any(np.abs(r1 - q ** (-b)) > bound * np.maximum(1.0, np.abs(r1))) or \
                np.any(np.abs(r2 - q ** a) > bound * np.maximum(1.0, np.abs(r2))):
            raise ConsistencyError(
                f"multiplier system violated for character {(a, b)}; "
                f"degenerate divisor configuration")
        s = np.linalg.svd(v0, compute_uv=False)
        if s.size < n or s[n - 1] < tol.basis_rank * s[0]:
            raise ConsistencyError(
                f"character {(a, b)} span has deficient rank; "
                f"degenerate divisor configuration")


@dataclass
class EllipticLax:
    """Assembled quasi-periodic Lax matrix with a translation modulus.

    ``lax(lam)`` and ``lax.deriv(lam)`` take a scalar or an array ``lam`` of
    shape (...) and return shape (..., r, r), or (r, r) for a scalar; every
    theta factor of every basis element is evaluated in one call.
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
        r = self.params.r
        return (self._quotients(lam) @ self._mats).reshape(np.shape(lam) + (r, r))

    def deriv(self, lam):
        r = self.params.r
        return (np.multiply(*self._quotients.logderivs(lam))
                @ self._mats).reshape(np.shape(lam) + (r, r))


def assemble_lax(coeffs, divisor: EllipticDivisor, params: ThetaParams,
                 z0=0.0, tol: Tolerances = DEFAULT,
                 basis: Optional[dict] = None) -> EllipticLax:
    """Assemble phi(lambda) = sum c_{ab,m} w_{ab,m}(lambda) I1^a I2^b.

    The conjugation quasi-periodicity phi(lam + omega_i) = I_i phi I_i^{-1}
    is re-verified at random probe points (``tol.lax_periodicity``) after
    assembly.
    """
    if basis is None:
        basis = build_basis(divisor, params, tol)
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
    probes = _cell_probes(params, lax.divisor.points, 6, 11, 10 * tol.puncture_radius)
    scale = max(1.0, *(np.abs(v).max() for v in table.values())) if table else 1.0
    base = lax(probes)
    mag = np.maximum(1.0, np.abs(base).max(axis=(1, 2))) * scale
    r1 = np.abs(lax(probes + params.omega1) - I1 @ base @ np.linalg.inv(I1)).max(axis=(1, 2))
    r2 = np.abs(lax(probes + params.omega2) - I2 @ base @ np.linalg.inv(I2)).max(axis=(1, 2))
    if np.any(np.maximum(r1, r2) > tol.lax_periodicity * mag):
        raise ConsistencyError("assembled Lax matrix violates quasi-periodicity")
    return lax


def spectral_invariants(lax: EllipticLax):
    """The functions t_k(lambda), k = 1..r: coefficients of xi^{r-k} in
    det(phi(lambda) - xi I); each is genuinely elliptic.

    Each ``t_k`` takes a scalar or an array ``lam`` of shape (...) and
    returns a complex or an array of shape (...).  The ``r`` functions share
    one evaluation of ``phi`` and its characteristic polynomial at the last
    scalar point they were called at.
    """
    r = lax.params.r
    last = [None, None]  # scalar lam, char_bipoly(lax(lam))

    def maker(k):
        def t_k(lam):
            if np.ndim(lam):
                return kernel.char_bipoly(lax(lam))[..., r - k]
            key = complex(lam)
            if last[0] != key:
                last[:] = key, kernel.char_bipoly(lax(lam))
            return complex(last[1][r - k])
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
    validated_count: int
    component_only_count: int
    winding_count: int
    branch_count: int
    genus_prediction: int
    attempts: int  # grids tried, 1 when the first one settles


def _winding(func, loop, n0=64, max_refine=7):
    """Winding number of ``func`` around the closed polyline ``loop``.

    Each edge gets ``n0`` samples; while some sample step turns the argument
    by more than 2.4 or the total is not within 1e-3 of an integer, every
    step is halved, up to ``max_refine`` sample sets.  ``func`` is called
    once per set with a 1-D array of points in order along the loop (the
    first set, then the new midpoints).
    """
    def sample(z):
        vals = np.asarray(func(z), dtype=complex)
        if np.any(vals == 0.0) or not np.all(np.isfinite(vals)):
            raise ConsistencyError("winding sample hit a zero or pole")
        return vals

    loop = np.asarray(loop, dtype=complex)
    frac = np.arange(n0) / n0
    pts = np.append((loop[:-1, None] + (loop[1:] - loop[:-1])[:, None] * frac).ravel(),
                    loop[-1])
    vals = sample(pts)
    for level in range(max_refine):
        if level:
            mids = 0.5 * (pts[:-1] + pts[1:])
            at = np.arange(1, pts.size)
            pts, vals = np.insert(pts, at, mids), np.insert(vals, at, sample(mids))
        dphi = np.angle(vals[1:] / vals[:-1])
        total = dphi.sum() / (2 * np.pi)
        if np.abs(dphi).max() <= 2.4 and abs(total - np.round(total)) <= 1e-3:
            return int(np.round(total))
    raise ConsistencyError("winding sampling failed to converge")


def count_zeros_in_domain(func, params: ThetaParams, singulars, origin,
                          period2=None):
    """Zeros of a single-valued function inside the fundamental domain.

    Winding around the domain boundary minus windings around small squares
    at the known singular points (poles of the function).  ``period2``
    (default omega2) is the domain's second side, as in ``reduce_to_domain``.
    ``func`` takes a 1-D array of points, ordered along the loop being
    sampled, and returns their values; it is called once per loop and
    refinement level, so it may continue state (a section) along the points.
    """
    w1 = params.omega1
    w2 = params.omega2 if period2 is None else period2
    total = _winding(func, origin + np.array([0.0, w1, w1 + w2, w2, 0.0]))
    sing = np.asarray(singulars, dtype=complex)
    gaps = np.abs(np.subtract.outer(sing, sing))
    gaps[gaps == 0.0] = np.inf  # a point is not its own neighbour
    rads = np.minimum(0.04 * min(abs(params.omega1), abs(params.omega2)),
                      0.3 * gaps.min(axis=1, initial=np.inf))
    square = np.exp(2j * np.pi * np.arange(5) / 4)
    return total - sum(_winding(func, p + rad * square) for p, rad in zip(sing, rads))


def elliptic_divisor_coords(lax: EllipticLax, component: int = 0,
                            grid=(20, 14), tol: Tolerances = DEFAULT,
                            full_report: bool = False):
    """Separating points in the fundamental domain.

    Finds zeros of the selected component of adj(phi(z) - xi I) s(z) per
    sheet via grid-seeded Newton iterations, validates full-vector vanishing,
    and cross-checks the zero count by the argument principle.  Because the
    omega2 shift permutes section components, the single-valued counting
    function lives on the r-fold vertical cover [0, omega1) x [0, tau); the
    divisor classes each appear r times there.  Output coordinates are
    shifted by the translation modulus: (z_mu - z0, xi_mu).
    """
    for attempt, jitter in enumerate(
            (0.013 + 0.017j, 0.047 + 0.031j, 0.081 + 0.059j)):
        origin = jitter.real * lax.params.omega1 + jitter.imag * lax.params.omega2
        scaled = (grid[0] + 6 * attempt, grid[1] + 4 * attempt)
        try:
            report = _divisor_attempt(lax, component, scaled, tol, origin, attempt + 1)
        except ConsistencyError:
            continue
        return report if full_report else report.points
    raise ConsistencyError("missed zeros, refine grid")


def _tall_singulars(lax, origin):
    """Divisor poles and punctures, all representatives in the tall domain."""
    params = lax.params
    pts = np.array(lax.divisor.points + (params.puncture,))
    return reduce_to_domain(np.add.outer(pts, np.arange(params.r) * params.omega2).ravel(),
                            params, origin, params.tau)


def _sheet_vectors(lax, tracker, zs):
    """Section (r, m), sheets (m, r), adjugates (m, r, r, r) and
    adj(phi - xi I) s (m, r, r) along the path ``zs``, per (point, sheet)."""
    svec = tracker.value_at(zs)
    M = lax(zs)
    xis = np.linalg.eigvals(M)
    adj = kernel.adjugate(M[:, None] - xis[..., None, None] * np.eye(lax.params.r))
    return svec, xis, adj, np.einsum("psij,jp->psi", adj, svec)


def _divisor_attempt(lax, component, grid, tol, origin, attempts):
    params = lax.params
    r = params.r
    w1, wtau = params.omega1, params.tau
    singulars = _tall_singulars(lax, origin)

    def safe(z):
        return np.abs(np.subtract.outer(z, singulars)).min(axis=-1) > 2 * tol.puncture_radius

    # serpentine grid over the tall domain, plus rings around the singular
    # points (zeros frequently pinch into the pole clusters), with section
    # continuation along the node ordering
    na, nb = grid
    nb_tall = nb * r
    ia, ib = np.arange(na), np.arange(nb_tall)[:, None]
    ia = np.where(ib % 2 == 1, na - 1 - ia, ia)
    rows = origin + ((ia + 0.5) / na) * w1 + ((ib + 0.5) / nb_tall) * wtau
    rad = np.array([2.5, 4.0, 7.0, 12.0, 20.0])[:, None] * tol.puncture_radius
    rings = singulars[:, None, None] + rad * np.exp(2j * np.pi * (np.arange(10) + 0.3) / 10)
    nodes = np.concatenate([rows.ravel(), rings.ravel()])
    usable = nodes[safe(nodes)]

    # argument principle for the sheet product of the component over the
    # tall domain, where it is single-valued and doubly periodic; this fixes
    # the target zero count before the Newton sweep
    count_tracker = SectionTracker(params, tol=tol)

    def nfunc(zs):
        return _sheet_vectors(lax, count_tracker, zs)[3][..., component].prod(axis=-1)

    winding = count_zeros_in_domain(nfunc, params, singulars, origin, wtau)

    # Newton seeds: every (node, sheet) pair, by the relative size of the
    # component, then in chunks ordered by position
    tracker = SectionTracker(params, tol=tol)
    svec, xis, adj, v = _sheet_vectors(lax, tracker, usable)
    scale = np.maximum(np.abs(adj).max(axis=(-2, -1)) * np.abs(svec).max(axis=0)[:, None],
                       1e-30)
    order = np.argsort((np.abs(v[..., component]) / scale).ravel(), kind="stable")
    seed_z = np.repeat(usable, r)[order]
    seed_xi = xis.ravel()[order]

    found_tall = []   # (z_tall, xi) with the full vector vanishing
    extras_tall = []  # component-only zeros
    chunk = 60
    for start in range(0, order.size, chunk):
        zc, xic = seed_z[start:start + chunk], seed_xi[start:start + chunk]
        for k in np.lexsort((zc.real, zc.imag)):
            res = _newton_curve_section(lax, tracker, component, complex(zc[k]),
                                        complex(xic[k]), tol)
            if res is None:
                continue
            z, xi, vres_full = res
            ztall = reduce_to_domain(z, params, origin, wtau)
            if not safe(ztall):
                continue
            merge_scale = max(1.0, abs(xi))
            if any(abs(ztall - a) < 1e2 * tol.cluster_merge and
                   abs(xi - b) < 1e2 * tol.cluster_merge * merge_scale
                   for a, b in (found_tall + extras_tall)):
                continue
            (found_tall if vres_full <= 1e-8 else extras_tall).append((ztall, xi))
        if len(found_tall) + len(extras_tall) == winding and len(found_tall) % r == 0:
            break

    if winding != len(found_tall) + len(extras_tall) or len(found_tall) % r != 0:
        raise ConsistencyError("missed zeros, refine grid")

    # collapse the r vertical translates of each divisor class
    classes = []
    for ztall, xi in found_tall:
        zsmall = reduce_to_domain(ztall, params, origin)
        if not any(abs(zsmall - a) < 1e3 * tol.cluster_merge and
                   abs(xi - b) < 1e3 * tol.cluster_merge * max(1.0, abs(b))
                   for a, b in classes):
            classes.append((zsmall, xi))
    if len(classes) * r != len(found_tall):
        raise ConsistencyError("missed zeros, refine grid")

    # genus prediction: the discriminant is elliptic on the small torus
    pairs = np.triu_indices(r, 1)

    def disc(zs):
        xis = np.linalg.eigvals(lax(zs))
        return ((xis[:, pairs[0]] - xis[:, pairs[1]]) ** 2).prod(axis=-1)

    div_small = reduce_to_domain(np.array(lax.divisor.points), params, origin)
    branch_count = count_zeros_in_domain(disc, params, div_small, origin)
    if branch_count % 2 != 0:
        raise NumericDomainError("non-generic elliptic curve: odd branch count")
    genus_pred = 1 + branch_count // 2

    points = []
    for zred, xi in sorted(classes, key=lambda t: (t[0].real, t[0].imag)):
        zshift = reduce_to_domain(zred - lax.z0, params)
        xis = np.sort_complex(np.linalg.eigvals(lax(zred)))
        sheet = int(np.argmin(np.abs(xis - xi)))
        points.append(FundamentalDomainPoint(z=zshift, xi=xi, sheet=sheet))

    return DivisorCountReport(
        points=points, validated_count=len(classes),
        component_only_count=len(extras_tall), winding_count=winding,
        branch_count=branch_count, genus_prediction=genus_pred, attempts=attempts)


def _curve_section_system(lax, tracker, component, z, xi):
    """``(P, h)`` at (z, xi), with ``P = det M``, ``h = (adj(M) s)_c``,
    ``M = phi(z) - xi I`` and ``s`` the section; its exact Jacobian in
    (z, xi); ``adj(M)`` and ``s``.  The characteristic data of the pencil
    ``M + w t phi'`` give ``P``, ``adj(M)`` and their xi- and w-derivatives
    (``d/dz = d/dw / t``); ``t`` brings ``t phi'`` to the size of ``M`` so the
    interpolation inside keeps the residual's precision.
    """
    s = tracker.value_at(z)
    ds = s * tracker.logderiv / lax.params.r
    dphi = lax.deriv(z)
    M = lax(z) - xi * np.eye(lax.params.r)
    t = max(1.0, np.abs(M).max()) / max(1.0, np.abs(dphi).max())
    C, A = kernel.matpoly_char_adj(np.stack([M, t * dphi]))
    adj = A[0, ..., 0]
    h_z = (A[0, ..., 1] @ s / t + adj @ ds)[component]
    # adj(M) has degree r - 1 in xi: the sum is empty, and 0, at r = 1
    h_xi = (A[1:2, ..., 0].sum(axis=0) @ s)[component]
    J = np.array([[C[0, 1] / t, C[1, 0]], [h_z, h_xi]])
    return np.array([C[0, 0], (adj @ s)[component]]), J, adj, s


def _newton_curve_section(lax, tracker, component, z, xi, tol, max_iter=40):
    """Newton on ``_curve_section_system`` from the seed (z, xi): returns
    ``(z, xi, vres_full)``, ``vres_full`` the relative size of the whole
    vector ``adj(M) s``, or None for a seed that leaves the domain, diverges
    or stalls."""
    params = lax.params
    span = abs(params.omega1) + abs(params.tau)
    z_start, step = z, None
    for _ in range(max_iter + 1):
        try:
            F, J, adj, svec = _curve_section_system(lax, tracker, component, z, xi)
            if step is not None and np.abs(step).max() < 1e-13 * max(1.0, abs(z), abs(xi)):
                break
            step = np.linalg.solve(J, F)
        except (NumericDomainError, np.linalg.LinAlgError):
            return None
        if not np.all(np.isfinite(step)) or abs(step[0]) > span:
            return None
        z, xi = z - step[0], xi - step[1]
        if abs(z - z_start) > 2.0 * span:
            return None
    else:
        return None

    scale = max(np.abs(adj).max() * np.abs(svec).max(), 1e-30)
    pscale = max(np.abs(kernel.char_bipoly(lax(z))).max() *
                 max(1.0, abs(xi)) ** params.r, 1e-30)
    resid = max(abs(F[0]) / pscale, abs(F[1]) / scale)
    # Newton has converged to rounding here, so a residual above the gate
    # means the gate is out of reach, not that this seed was unlucky
    if resid > tol.divisor * 10:
        raise ConvergenceError(
            f"divisor Newton converged to residual {resid:.1e}, "
            f"above the gate {tol.divisor * 10:.1e}; tol.divisor is too tight",
            best=(z, xi))
    return z, xi, float(np.abs(adj @ svec).max() / scale)


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
