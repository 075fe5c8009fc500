"""Elliptic phase space: quasi-periodic Lax matrices on the (1/r, tau/r)
torus, their spectral invariants, and divisor extraction with the basic
section.

A phase point is phi(lambda) = sum c_{ab,m} w_{ab,m}(lambda) T_ab where
T_ab = I1^a I2^b and the w's carry the character multipliers

    w(lambda + 1/r)   = q^{-b} w(lambda),
    w(lambda + tau/r) = q^{a}  w(lambda),

with poles bounded by the lifted divisor.
"""

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import kernel
from .errors import ConsistencyError, ConvergenceError, NumericDomainError
from .theta import (SectionTracker, ThetaParams, i_matrices, riemann_theta,
                    theta_deriv)
from .tolerances import DEFAULT, Tolerances

__all__ = [
    "EllipticDivisor", "BasisFunction", "EllipticLax", "FundamentalDomainPoint",
    "reduce_to_domain", "build_basis", "assemble_lax", "spectral_invariants",
    "elliptic_divisor_coords", "slr_reduce", "DivisorCountReport",
]


def reduce_to_domain(z, params: ThetaParams, origin=0.0):
    """Representative of z in origin + [0,1) omega1 + [0,1) omega2."""
    w1, w2 = params.omega1, params.omega2
    w = complex(z) - complex(origin)
    b = w.imag / w2.imag
    a = (w.real - b * w2.real) / w1
    afrac = a - math.floor(a)
    bfrac = b - math.floor(b)
    return complex(origin) + afrac * w1 + bfrac * w2


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


def _chi(u, params: ThetaParams):
    """Theta block with a simple zero at the u-lattice (1, tau)."""
    return riemann_theta(np.asarray(u, dtype=complex) + (1.0 + params.tau) / 2.0, params)


def _chi_deriv(u, params: ThetaParams):
    return theta_deriv(np.asarray(u, dtype=complex) + (1.0 + params.tau) / 2.0, params)


class BasisFunction:
    """One exponential-times-theta-quotient basis element.

    Represents e^{2 pi i gamma u} * prod_s chi(u - zeros_s) / prod_s chi(u - poles_s)
    in the scaled coordinate u = r lambda.
    """

    def __init__(self, params: ThetaParams, character, gamma, zeros, poles):
        self.params = params
        self.character = tuple(character)
        self.gamma = complex(gamma)
        self.zeros = tuple(complex(w) for w in zeros)
        self.poles = tuple(complex(w) for w in poles)

    def __call__(self, lam):
        p = self.params
        u = p.r * np.asarray(lam, dtype=complex)
        out = np.exp(2j * np.pi * self.gamma * u)
        for w in self.zeros:
            out = out * _chi(u - w, p)
        for w in self.poles:
            out = out / _chi(u - w, p)
        return out

    def deriv(self, lam):
        p = self.params
        r = p.r
        u = r * np.asarray(lam, dtype=complex)
        val = self(lam)
        logd = 2j * np.pi * self.gamma * np.ones(np.shape(u) or (), dtype=complex)
        for w in self.zeros:
            logd = logd + _chi_deriv(u - w, p) / _chi(u - w, p)
        for w in self.poles:
            logd = logd - _chi_deriv(u - w, p) / _chi(u - w, p)
        return r * val * logd


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


def _validate_basis(basis, div, params, tol):
    r = params.r
    q = params.q_root
    rng = np.random.default_rng(7)
    probes = []
    while len(probes) < 10:
        lam = (rng.uniform(0.05, 0.95) + rng.uniform(0.05, 0.95) * params.tau) / r
        if min(abs(complex(lam) - p) for p in div.points) > 5 * tol.puncture_radius:
            probes.append(lam)
    for (a, b), elements in basis.items():
        for w in elements:
            for lam in probes:
                v0 = complex(w(lam))
                if v0 == 0:
                    continue
                r1 = complex(w(lam + params.omega1)) / v0
                r2 = complex(w(lam + params.omega2)) / v0
                if abs(r1 - q ** (-b)) > 1e-10 * max(1.0, abs(r1)) or \
                        abs(r2 - q ** a) > 1e-10 * max(1.0, abs(r2)):
                    raise ConsistencyError(
                        f"multiplier system violated for character {(a, b)}; "
                        f"degenerate divisor configuration")
        n = div.degree
        mat = np.array([[complex(w(lam)) for w in elements] for lam in probes])
        s = np.linalg.svd(mat, compute_uv=False)
        if s.size < n or s[n - 1] < 1e-8 * s[0]:
            raise ConsistencyError(
                f"character {(a, b)} span has deficient rank; "
                f"degenerate divisor configuration")


@dataclass
class EllipticLax:
    """Assembled quasi-periodic Lax matrix with a translation modulus."""

    params: ThetaParams
    divisor: EllipticDivisor
    coeffs: dict
    z0: complex
    basis: dict = field(repr=False)

    def __call__(self, lam):
        r = self.params.r
        I1, I2 = i_matrices(r)
        out = np.zeros((r, r), dtype=complex)
        for (a, b), cvec in self.coeffs.items():
            T = np.linalg.matrix_power(I1, a) @ np.linalg.matrix_power(I2, b)
            sector = sum(c * complex(w(lam)) for c, w in zip(cvec, self.basis[(a, b)]))
            out = out + sector * T
        return out

    def deriv(self, lam):
        r = self.params.r
        I1, I2 = i_matrices(r)
        out = np.zeros((r, r), dtype=complex)
        for (a, b), cvec in self.coeffs.items():
            T = np.linalg.matrix_power(I1, a) @ np.linalg.matrix_power(I2, b)
            sector = sum(c * complex(w.deriv(lam)) for c, w in zip(cvec, self.basis[(a, b)]))
            out = out + sector * T
        return out


def assemble_lax(coeffs, divisor: EllipticDivisor, params: ThetaParams,
                 z0=0.0, tol: Tolerances = DEFAULT,
                 basis: Optional[dict] = None) -> EllipticLax:
    """Assemble phi(lambda) = sum c_{ab,m} w_{ab,m}(lambda) I1^a I2^b.

    The conjugation quasi-periodicity phi(lam + omega_i) = I_i phi I_i^{-1}
    is re-verified at random probe points (1e-8) after assembly.
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
    rng = np.random.default_rng(11)
    checked = 0
    scale = max(1.0, *(np.abs(v).max() for v in table.values())) if table else 1.0
    while checked < 6:
        lam = (rng.uniform(0.05, 0.95) + rng.uniform(0.05, 0.95) * params.tau) / params.r
        if min(abs(complex(lam) - p) for p in lax.divisor.points) < 10 * tol.puncture_radius:
            continue
        base = lax(lam)
        mag = max(1.0, np.abs(base).max()) * scale
        r1 = np.abs(lax(lam + params.omega1) - I1 @ base @ np.linalg.inv(I1)).max()
        r2 = np.abs(lax(lam + params.omega2) - I2 @ base @ np.linalg.inv(I2)).max()
        if max(r1, r2) > 1e-8 * mag:
            raise ConsistencyError("assembled Lax matrix violates quasi-periodicity")
        checked += 1
    return lax


def spectral_invariants(lax: EllipticLax):
    """The functions t_k(lambda), k = 1..r: coefficients of xi^{r-k} in
    det(phi(lambda) - xi I); each is genuinely elliptic."""
    r = lax.params.r

    def maker(k):
        def t_k(lam):
            c = kernel.char_bipoly(lax(lam))
            return complex(c[r - k])
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


def _char_xi_roots(M):
    c = kernel.char_bipoly(M)
    return np.roots(c[::-1])


def _winding_along(samples):
    """Total winding of a sampled closed loop; refuses coarse sampling."""
    vals = np.asarray(samples, dtype=complex)
    if np.any(np.abs(vals) == 0.0) or not np.all(np.isfinite(vals)):
        raise ConsistencyError("winding sample hit a zero or pole")
    dphi = np.angle(vals[1:] / vals[:-1])
    if np.abs(dphi).max() > 2.4:
        raise ConsistencyError("winding sampling too coarse")
    total = dphi.sum() / (2 * np.pi)
    rounded = int(np.round(total))
    if abs(total - rounded) > 1e-3:
        raise ConsistencyError("winding did not close to an integer")
    return rounded


def _sample_winding(func, waypoints, n0=64, max_refine=7):
    pts = []
    for a, b in zip(waypoints, waypoints[1:]):
        frac = np.arange(n0) / n0
        pts.extend(a + (b - a) * frac)
    pts.append(waypoints[-1])
    for attempt in range(max_refine):
        try:
            return _winding_along([func(z) for z in pts])
        except ConsistencyError as err:
            if "integer" in str(err) or "coarse" in str(err):
                new_pts = []
                for a, b in zip(pts, pts[1:]):
                    new_pts.extend([a, 0.5 * (a + b)])
                new_pts.append(pts[-1])
                pts = new_pts
            else:
                raise
    raise ConsistencyError("winding sampling failed to converge")


def _circle(center, radius, n=4):
    ang = np.exp(2j * np.pi * np.arange(n + 1) / n)
    return [center + radius * a for a in ang]


def count_zeros_in_domain(func, params: ThetaParams, singulars, origin,
                          radius_cap=None):
    """Zeros of a single-valued function inside the fundamental domain.

    Winding around the domain boundary minus windings around small circles
    at the known singular points (poles of the function).
    """
    w1, w2 = params.omega1, params.omega2
    corners = [origin, origin + w1, origin + w1 + w2, origin + w2, origin]
    total = _sample_winding(func, corners)
    for p in singulars:
        rad = 0.04 * min(abs(w1), abs(w2))
        if radius_cap is not None:
            rad = min(rad, radius_cap)
        others = [q for q in singulars if q != p]
        if others:
            rad = min(rad, 0.3 * min(abs(p - q) for q in others))
        total -= _sample_winding(func, _circle(p, rad, n=4))
    return total


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
        na, nb = grid
        scaled = (na + 6 * attempt, nb + 4 * attempt)
        try:
            return _divisor_attempt(lax, component, scaled, tol, origin,
                                    full_report)
        except ConsistencyError:
            continue
    raise ConsistencyError("missed zeros, refine grid")


def _tall_singulars(lax, origin):
    """Divisor poles and punctures, all representatives in the tall domain."""
    params = lax.params
    r = params.r
    out = []
    for p in list(lax.divisor.points) + [params.puncture]:
        for m in range(r):
            out.append(_reduce_tall(p + m * params.omega2, params, origin))
    return out


def _reduce_tall(z, params, origin):
    """Representative in origin + [0,1) omega1 + [0,1) tau."""
    w1 = params.omega1
    w2 = params.tau
    w = complex(z) - complex(origin)
    b = w.imag / w2.imag
    a = (w.real - b * w2.real) / w1
    return complex(origin) + (a - math.floor(a)) * w1 + (b - math.floor(b)) * w2


def _divisor_attempt(lax, component, grid, tol, origin, full_report):
    params = lax.params
    r = params.r
    w1, wtau = params.omega1, params.tau
    singulars = _tall_singulars(lax, origin)

    def safe(z):
        return (min(abs(z - p) for p in singulars) > 2 * tol.puncture_radius)

    # serpentine grid over the tall domain, plus rings around the singular
    # points (zeros frequently pinch into the pole clusters), with section
    # continuation along the node ordering
    na, nb = grid
    nb_tall = nb * r
    tracker = SectionTracker(params, tol=tol)
    nodes = []
    for ib in range(nb_tall):
        row = [origin + ((ia + 0.5) / na) * w1 + ((ib + 0.5) / nb_tall) * wtau
               for ia in range(na)]
        if ib % 2 == 1:
            row.reverse()
        nodes.extend(row)
    for p in singulars:
        for mult in (2.5, 4.0, 7.0, 12.0, 20.0):
            rad = mult * tol.puncture_radius
            for k in range(10):
                nodes.append(p + rad * np.exp(2j * np.pi * (k + 0.3) / 10))
    usable = [z for z in nodes if safe(z)]

    # argument principle for the sheet product of the component over the
    # tall domain, where it is single-valued and doubly periodic; this fixes
    # the target zero count before the Newton sweep
    count_tracker = SectionTracker(params, tol=tol)

    def nfunc(z):
        svec = count_tracker.value_at(z)
        M = lax(z)
        xis = _char_xi_roots(M)
        out = 1.0 + 0.0j
        for xi in xis:
            v = kernel.adjugate(M - xi * np.eye(r)) @ svec
            out *= v[component]
        return out

    corners = [origin, origin + w1, origin + w1 + wtau, origin + wtau, origin]
    winding = _sample_winding(nfunc, corners)
    for p in singulars:
        rad = 0.04 * min(abs(w1), abs(params.omega2))
        others = [q for q in singulars if q != p]
        if others:
            rad = min(rad, 0.3 * min(abs(p - q) for q in others))
        winding -= _sample_winding(nfunc, _circle(p, rad, n=4))

    records = []
    for z in usable:
        svec = tracker.value_at(z)
        M = lax(z)
        xis = _char_xi_roots(M)
        for xi in xis:
            adj = kernel.adjugate(M - xi * np.eye(r))
            v = adj @ svec
            scale = max(np.abs(adj).max() * np.abs(svec).max(), 1e-30)
            records.append((abs(v[component]) / scale, z, xi))
    records.sort(key=lambda t: t[0])

    found_tall = []   # (z_tall, xi) with the full vector vanishing
    extras_tall = []  # component-only zeros
    chunk = 60
    for start in range(0, len(records), chunk):
        batch = sorted(records[start:start + chunk],
                       key=lambda t: (t[1].imag, t[1].real))
        for _, z0s, xi0s in batch:
            res = _newton_curve_section(lax, tracker, component, z0s, xi0s, tol)
            if res is None:
                continue
            z, xi, vres_full, vres_comp, svec = res
            ztall = _reduce_tall(z, params, origin)
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

    if winding != len(found_tall) + len(extras_tall):
        raise ConsistencyError("missed zeros, refine grid")
    if len(found_tall) % r != 0:
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
    def disc(z):
        xis = _char_xi_roots(lax(z))
        out = 1.0 + 0.0j
        for i in range(r):
            for j in range(i + 1, r):
                out *= (xis[i] - xis[j]) ** 2
        return out

    div_small = [reduce_to_domain(p, params, origin) for p in lax.divisor.points]
    branch_count = count_zeros_in_domain(disc, params, div_small, origin)
    if branch_count % 2 != 0:
        raise NumericDomainError("non-generic elliptic curve: odd branch count")
    genus_pred = 1 + branch_count // 2

    points = []
    for zred, xi in sorted(classes, key=lambda t: (t[0].real, t[0].imag)):
        zshift = reduce_to_domain(zred - lax.z0, params)
        xis = np.sort_complex(_char_xi_roots(lax(zred)))
        sheet = int(np.argmin(np.abs(xis - xi)))
        points.append(FundamentalDomainPoint(z=zshift, xi=xi, sheet=sheet))

    if full_report:
        return DivisorCountReport(
            points=points, validated_count=len(classes),
            component_only_count=len(extras_tall), winding_count=winding,
            branch_count=branch_count, genus_prediction=genus_pred)
    return points


def _newton_curve_section(lax, tracker, component, z, xi, tol, max_iter=40):
    params = lax.params
    r = params.r
    eye = np.eye(r)
    h_fd = 1e-7
    z_start = z

    def h_of(zv, xiv, svec):
        adj = kernel.adjugate(lax(zv) - xiv * eye)
        return (adj @ svec)[component]

    for _ in range(max_iter):
        try:
            svec = tracker.value_at(z)
        except NumericDomainError:
            return None
        M = lax(z) - xi * eye
        adj = kernel.adjugate(M)
        pval = complex(np.linalg.det(lax(z) - xi * eye))
        hval = (adj @ svec)[component]
        dP_dxi = -np.trace(adj)
        dP_dz = np.trace(adj @ lax.deriv(z))
        try:
            s_p = tracker.value_at(z + h_fd)
            s_m = tracker.value_at(z - h_fd)
        except NumericDomainError:
            return None
        dh_dz = (h_of(z + h_fd, xi, s_p) - h_of(z - h_fd, xi, s_m)) / (2 * h_fd)
        dh_dxi = (h_of(z, xi + h_fd, svec) - h_of(z, xi - h_fd, svec)) / (2 * h_fd)
        J = np.array([[dP_dz, dP_dxi], [dh_dz, dh_dxi]])
        try:
            step = np.linalg.solve(J, np.array([pval, hval]))
        except np.linalg.LinAlgError:
            return None
        span = abs(params.omega1) + abs(params.tau)
        if not np.all(np.isfinite(step)) or abs(step[0]) > span:
            return None
        z = z - step[0]
        xi = xi - step[1]
        if abs(z - z_start) > 2.0 * span:
            return None
        if np.abs(step).max() < 1e-13 * max(1.0, abs(z), abs(xi)):
            break
    else:
        return None

    try:
        svec = tracker.value_at(z)
    except NumericDomainError:
        return None
    M = lax(z) - xi * eye
    adj = kernel.adjugate(M)
    v = adj @ svec
    scale = max(np.abs(adj).max() * np.abs(svec).max(), 1e-30)
    vres_full = float(np.abs(v).max() / scale)
    vres_comp = float(abs(v[component]) / scale)
    pscale = max(np.abs(kernel.char_bipoly(lax(z))).max() *
                 max(1.0, abs(xi)) ** r, 1e-30)
    pres = abs(np.linalg.det(M)) / pscale
    # Newton has converged to rounding here, so a residual above the gate
    # means the gate is out of reach, not that this seed was unlucky
    if max(pres, vres_comp) > tol.divisor * 10:
        raise ConvergenceError(
            f"divisor Newton converged to residual {max(pres, vres_comp):.1e}, "
            f"above the gate {tol.divisor * 10:.1e}; tol.divisor is too tight",
            best=(z, xi))
    return z, xi, vres_full, vres_comp, svec


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
