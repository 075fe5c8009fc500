"""Rational-base engine: matrix-polynomial Lax data, the two-parameter
Poisson bracket family, spectral curves, separating divisor coordinates and
their canonical-bracket verification.

Phase-space points are matrix polynomials ``phi(z) = sum_k phi_k z**k`` of
size r and degree <= n; the flattened coordinate vector orders entries as
``x[k*r*r + i*r + j] = phi_k[i, j]``.
"""

import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from . import kernel
from .errors import ConsistencyError, ConvergenceError, MatchingError, NonGenericError
from .numeric import fd_gradient, ode_solve
from .tolerances import DEFAULT, Tolerances

__all__ = [
    "MatPoly", "BracketSpec", "SpectralCurve", "StructureTensor", "DivisorCoords",
    "CanonicalReport", "spectral_positions", "spectral_curve", "genus",
    "structure_tensor", "bracket", "jacobi_max_residual", "casimir_detect",
    "spectral_gradient_matrix", "divisor_coords", "verify_canonical", "flow",
    "random_instance", "involution_max_residual",
]


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MatPoly:
    """Matrix-valued polynomial phi(z) of size r, degree <= n."""

    coeff_mats: np.ndarray  # (n+1, r, r)

    def __post_init__(self):
        cm = np.asarray(self.coeff_mats, dtype=complex)
        if cm.ndim != 3 or cm.shape[1] != cm.shape[2] or cm.shape[1] < 1:
            raise ValueError("coeff_mats must have shape (n+1, r, r)")
        if not np.all(np.isfinite(cm)):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coeff_mats", cm)

    @property
    def r(self) -> int:
        return self.coeff_mats.shape[1]

    @property
    def n(self) -> int:
        return self.coeff_mats.shape[0] - 1

    def __call__(self, z):
        out = np.zeros((self.r, self.r), dtype=complex)
        for k in range(self.n, -1, -1):
            out = out * z + self.coeff_mats[k]
        return out

    def flatten(self) -> np.ndarray:
        return self.coeff_mats.reshape(-1).copy()

    @classmethod
    def from_flat(cls, x, r: int, n: int) -> "MatPoly":
        return cls(np.asarray(x, dtype=complex).reshape(n + 1, r, r))


@dataclass(frozen=True)
class BracketSpec:
    """One member of the Poisson family: polynomial a(z) and constant b."""

    a: tuple
    b: complex

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(complex(c) for c in self.a))
        object.__setattr__(self, "b", complex(self.b))

    @property
    def a_array(self) -> np.ndarray:
        return np.asarray(self.a, dtype=complex)

    def a_eval(self, z):
        return kernel.poly_eval(self.a_array, z)


def spectral_positions(r: int, n: int):
    """Grid positions (k, l) of the nontrivial spectral coefficients."""
    return [(k, l) for k in range(r) for l in range((r - k) * n + 1)]


@dataclass
class SpectralCurve:
    """Bivariate polynomial det(phi(z) - xi I) with its coefficient grid."""

    grid: np.ndarray           # (r+1, r*n+1), grid[k, l] multiplies xi^k z^l
    r: int
    n: int
    hamiltonian_index: Optional[tuple] = None
    casimir_index: Optional[tuple] = None

    def __call__(self, z, xi):
        return kernel.bipoly_eval(self.grid, z, xi)

    def coefficient(self, k: int, l: int) -> complex:
        return self.grid[k, l]

    def dxi(self):
        return kernel.bipoly_dxi(self.grid)

    def dz(self):
        return kernel.bipoly_dz(self.grid)

    def xi_poly(self, z):
        """Coefficients in xi of P(z, .) at fixed z, ascending."""
        return kernel.poly_eval(self.grid.T, z)


@dataclass
class DivisorCoords:
    """Separating points (z_mu, xi_mu) extracted from a phase-space point."""

    z: np.ndarray
    xi: np.ndarray
    s: np.ndarray
    degenerate: bool = False

    @property
    def count(self) -> int:
        return self.z.size


@dataclass
class StructureTensor:
    """Explicit structure constants of one bracket of the family.

    ``{x_a, x_b}(phi) = sum_c lin[a,b,c] x_c + sum_{c,d} quad[a,b,c,d] x_c x_d``.
    """

    r: int
    n: int
    spec: BracketSpec
    lin: np.ndarray    # (N, N, N)
    quad: np.ndarray   # (N, N, N, N), symmetric in the last two slots

    @property
    def dim(self) -> int:
        return (self.n + 1) * self.r * self.r

    def poisson_matrix(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=complex)
        pi = self.lin @ x
        if self.quad.any():
            pi = pi + np.einsum("abcd,c,d->ab", self.quad, x, x)
        return pi

    def poisson_gradient(self, x) -> np.ndarray:
        """d Pi_{ab} / d x_c, shape (N, N, N)."""
        x = np.asarray(x, dtype=complex)
        out = self.lin.copy()
        if self.quad.any():
            out = out + 2.0 * np.einsum("abcd,d->abc", self.quad, x)
        return out


# ---------------------------------------------------------------------------
# spectral curve and genus
# ---------------------------------------------------------------------------

def spectral_curve(phi: MatPoly, probe_seed: int = 0) -> SpectralCurve:
    """Coefficient grid of det(phi(z) - xi I).

    Built by evaluation at roots of unity plus FFT, exact to rounding; the
    grid is cross-checked against direct determinant evaluation at 20 random
    probes.
    """
    r, n = phi.r, phi.n
    grid, _ = kernel.matpoly_char_adj(phi.coeff_mats)
    rng = np.random.default_rng(probe_seed)
    zs = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    xis = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    for z, xi in zip(zs, xis):
        direct = np.linalg.det(phi(z) - xi * np.eye(r))
        ours = kernel.bipoly_eval(grid, z, xi)
        if abs(ours - direct) > 1e-10 * max(1.0, abs(direct)):
            raise ConsistencyError("spectral curve grid disagrees with determinant probe")
    return SpectralCurve(grid=grid, r=r, n=n)


def branch_points(phi: MatPoly, tol: Tolerances = DEFAULT):
    """Roots (with multiplicity tags) of Disc_xi det(phi(z) - xi I)."""
    curve = spectral_curve(phi)
    disc = kernel.resultant(curve.grid, curve.dxi(), "xi", tol)
    return kernel.poly_roots(disc, tol)


def genus(phi: MatPoly, tol: Tolerances = DEFAULT) -> int:
    """Genus by Riemann--Hurwitz over the z-line: g = B/2 - r + 1.

    Requires the generic stratum: simple finite branch points and a leading
    coefficient matrix with separated eigenvalues (no branching over z=inf).
    """
    r, n = phi.r, phi.n
    if r == 1:
        return 0
    lead = phi.coeff_mats[-1]
    eigs, _ = kernel.poly_roots(kernel.char_bipoly(lead), tol)
    if eigs.size > 1:
        gaps = np.abs(eigs[:, None] - eigs[None, :])[np.triu_indices(eigs.size, 1)]
        if eigs.size < r or gaps.min() < tol.disc_gap * max(1.0, np.abs(eigs).max()):
            raise NonGenericError("non-generic curve: leading matrix eigenvalues collide")
    roots, mults = branch_points(phi, tol)
    scale = max(1.0, np.abs(roots).max()) if roots.size else 1.0
    if np.any(mults > 1):
        raise NonGenericError("non-generic curve: non-simple branch point")
    if roots.size > 1:
        gaps = np.abs(roots[:, None] - roots[None, :])[np.triu_indices(roots.size, 1)]
        if gaps.min() < tol.disc_gap * scale:
            raise NonGenericError("non-generic curve: clustered branch points")
    B = roots.size
    if B % 2 != 0:
        raise NonGenericError("non-generic curve: odd branch count")
    return B // 2 - r + 1


# ---------------------------------------------------------------------------
# the bracket family
# ---------------------------------------------------------------------------

def _permutation_matrix(r: int) -> np.ndarray:
    P = np.zeros((r * r, r * r))
    for i in range(r):
        for j in range(r):
            P[i * r + j, j * r + i] = 1.0
    return P


def _bracket_values(cm: np.ndarray, a_coeffs: np.ndarray, b: complex,
                    tol: Tolerances) -> np.ndarray:
    """Tensor {x_a, x_b} evaluated at the phase point ``cm``.

    Expands the commutator with the permutation kernel, divides exactly by
    (lambda - mu) via synthetic division, and reads off the monomial grid.
    The parameter orientation is fixed so that divisor coordinates come out
    canonical: {z_mu, xi_nu} = (a(z_mu) + b xi_mu) delta_mu_nu.
    """
    n1, r, _ = cm.shape
    n = n1 - 1
    N = n1 * r * r
    if r == 1:
        return np.zeros((N, N), dtype=complex)
    L = n + 3
    r2 = r * r
    eye = np.eye(r)
    aeff = np.zeros(L, dtype=complex)
    aeff[: a_coeffs.size] = -a_coeffs
    phi = np.zeros((L, r, r), dtype=complex)
    phi[:n1] = cm

    M = np.zeros((L, L, r2, r2), dtype=complex)
    for pl in range(L):
        for pm in range(L):
            left = np.kron(phi[pl], aeff[pm] * eye - 0.5 * b * phi[pm])
            right = np.kron(aeff[pl] * eye - 0.5 * b * phi[pl], phi[pm])
            M[pl, pm] = left + right
    P = _permutation_matrix(r)
    W = P @ M - M @ P  # batched over the first two axes

    # synthetic division of W(lambda, mu) by (lambda - mu) along the lambda axis
    pad = np.zeros((L, 2 * L, r2, r2), dtype=complex)
    pad[:, :L] = W
    V = np.zeros((L - 1, 2 * L, r2, r2), dtype=complex)
    V[L - 2] = pad[L - 1]
    for p in range(L - 2, 0, -1):
        shifted = np.zeros_like(V[p])
        shifted[1:] = V[p][:-1]
        V[p - 1] = pad[p] + shifted
    shifted = np.zeros_like(V[0])
    shifted[1:] = V[0][:-1]
    rem = pad[0] + shifted
    wscale = max(1.0, np.abs(W).max())
    if np.abs(rem).max() > 1e-9 * wscale:
        raise ConsistencyError("expansion inconsistency")
    if np.abs(V[:, n1:]).max() > 1e-9 * wscale or (
            L - 1 > n1 and np.abs(V[n1:]).max() > 1e-9 * wscale):
        raise ConsistencyError("expansion inconsistency")
    Vt = V[:n1, :n1].reshape(n1, n1, r, r, r, r)
    return Vt.transpose(0, 2, 4, 1, 3, 5).reshape(N, N)


def _unit_cm(n1: int, r: int, flat_index: int) -> np.ndarray:
    cm = np.zeros(n1 * r * r, dtype=complex)
    cm[flat_index] = 1.0
    return cm.reshape(n1, r, r)


@lru_cache(maxsize=64)
def structure_tensor(r: int, n: int, spec: BracketSpec,
                     tol: Tolerances = DEFAULT) -> StructureTensor:
    """Explicit linear and quadratic structure constants of one bracket.

    The linear part is read off by evaluating the expansion on coordinate
    basis points; the quadratic part by polarizing the b-proportional
    quadratic form. Antisymmetry is checked, then enforced exactly.
    """
    a = kernel.poly_trim(spec.a_array, tol)
    if a.size > n + 2:
        raise ValueError("deg(a) must be at most n + 1")
    n1 = n + 1
    N = n1 * r * r
    lin = np.zeros((N, N, N), dtype=complex)
    quad = np.zeros((N, N, N, N), dtype=complex)
    if r == 1:
        return StructureTensor(r=r, n=n, spec=spec, lin=lin, quad=quad)

    if a.size:
        for g in range(N):
            lin[:, :, g] = _bracket_values(_unit_cm(n1, r, g), a, 0.0, tol)
    if spec.b != 0:
        zero_a = np.zeros(0, dtype=complex)
        singles = [
            _bracket_values(_unit_cm(n1, r, g), zero_a, spec.b, tol) for g in range(N)
        ]
        for g in range(N):
            quad[:, :, g, g] = singles[g]
            for d in range(g + 1, N):
                pair_cm = _unit_cm(n1, r, g) + _unit_cm(n1, r, d)
                mixed = 0.5 * (
                    _bracket_values(pair_cm, zero_a, spec.b, tol)
                    - singles[g] - singles[d]
                )
                quad[:, :, g, d] = mixed
                quad[:, :, d, g] = mixed

    skew_lin = np.abs(lin + lin.transpose(1, 0, 2)).max()
    skew_quad = np.abs(quad + quad.transpose(1, 0, 2, 3)).max()
    scale = max(1.0, np.abs(lin).max(), np.abs(quad).max())
    if max(skew_lin, skew_quad) > 1e-9 * scale:
        raise ConsistencyError("expansion inconsistency")
    lin = 0.5 * (lin - lin.transpose(1, 0, 2))
    quad = 0.5 * (quad - quad.transpose(1, 0, 2, 3))
    quad = 0.5 * (quad + quad.transpose(0, 1, 3, 2))
    return StructureTensor(r=r, n=n, spec=spec, lin=lin, quad=quad)


def bracket(F: Callable, G: Callable, phi: MatPoly, spec: BracketSpec,
            grad_f=None, grad_g=None, tol: Tolerances = DEFAULT) -> complex:
    """Poisson bracket {F, G}(phi) = grad(F) . Pi(phi) . grad(G).

    Observables map the flattened coefficient vector to a scalar; analytic
    gradients may be supplied, otherwise central differences are used.
    """
    x = phi.flatten()
    tensor = structure_tensor(phi.r, phi.n, spec, tol)
    gf = np.asarray(grad_f, dtype=complex) if grad_f is not None else fd_gradient(F, x, tol=tol)
    gg = np.asarray(grad_g, dtype=complex) if grad_g is not None else fd_gradient(G, x, tol=tol)
    return complex(gf @ tensor.poisson_matrix(x) @ gg)


def jacobi_max_residual(tensor: StructureTensor, x, triples) -> float:
    """Max cyclic-sum residual over coordinate triples, relative to scale."""
    x = np.asarray(x, dtype=complex)
    pi = tensor.poisson_matrix(x)
    dpi = tensor.poisson_gradient(x)
    scale = max(np.abs(pi).max() * max(np.abs(dpi).max(), 1.0), 1e-30)
    worst = 0.0
    for (al, be, ga) in triples:
        s = (
            pi[al] @ dpi[be, ga]
            + pi[be] @ dpi[ga, al]
            + pi[ga] @ dpi[al, be]
        )
        worst = max(worst, abs(s) / scale)
    return worst


# ---------------------------------------------------------------------------
# spectral gradients, Casimir detection, involution
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _gradient_gather(r: int, n: int):
    """Index arrays into the adjugate array A for spectral_gradient_matrix.

    d C_{k,l} / d phi_p[i, j] = A[k, j, i, l - p].  A negative ``l - p``
    wraps to one of the top n z-slots of A, which are exactly zero because
    deg_z A_k <= (r-1) n.
    """
    k, l = np.array(spectral_positions(r, n)).T.reshape(2, -1, 1, 1, 1)
    p = np.arange(n + 1)[:, None, None]
    i, j = np.indices((r, r))
    return k, j, i, l - p


def spectral_gradient_matrix(phi: MatPoly):
    """Gradients of every spectral coefficient, via the adjugate.

    Returns ``(positions, G)`` where ``G[idx]`` is the gradient of the
    coefficient at ``positions[idx]`` with respect to the flattened phase
    coordinates.
    """
    r, n = phi.r, phi.n
    positions = spectral_positions(r, n)
    _, A = kernel.matpoly_char_adj(phi.coeff_mats)
    G = A[_gradient_gather(r, n)].reshape(len(positions), -1)
    return positions, G


def involution_max_residual(phi: MatPoly, spec: BracketSpec,
                            tol: Tolerances = DEFAULT) -> float:
    """max |{H_i, H_j}| over all spectral-coefficient pairs, relative."""
    _, G = spectral_gradient_matrix(phi)
    tensor = structure_tensor(phi.r, phi.n, spec, tol)
    pi = tensor.poisson_matrix(phi.flatten())
    B = G @ pi @ G.T
    norms = np.linalg.norm(G, axis=1)
    scale = norms[:, None] * norms[None, :] * max(np.linalg.norm(pi), 1e-30)
    return float(np.max(np.abs(B) / np.maximum(scale, 1e-30)))


def casimir_detect(phi: MatPoly, spec: BracketSpec, tol: Tolerances = DEFAULT,
                   seed: int = 1234, n_probe: int = 5):
    """Split the spectral coefficients into Hamiltonians and Casimirs.

    A coefficient is a Casimir when its Hamiltonian vector field vanishes
    (below 1e-8 relative) at ``n_probe`` random phase points. Warns when the
    Hamiltonian count differs from the genus.
    """
    r, n = phi.r, phi.n
    tensor = structure_tensor(r, n, spec, tol)
    rng = np.random.default_rng(seed)
    positions = spectral_positions(r, n)
    is_casimir = np.ones(len(positions), dtype=bool)
    for _ in range(n_probe):
        probe = MatPoly(_random_disk_cm(r, n, rng))
        _, G = spectral_gradient_matrix(probe)
        pi = tensor.poisson_matrix(probe.flatten())
        fields = G @ pi.T  # row idx: components {x_a, H_idx} = -(Pi grad H)_a up to sign
        pnorm = max(np.linalg.norm(pi), 1e-30)
        gnorm = np.maximum(np.linalg.norm(G, axis=1), 1e-30)
        rel = np.linalg.norm(fields, axis=1) / (pnorm * gnorm)
        is_casimir &= rel < 1e-8
    hams = tuple(p for p, c in zip(positions, is_casimir) if not c)
    cass = tuple(p for p, c in zip(positions, is_casimir) if c)
    try:
        g = genus(phi, tol)
    except NonGenericError:
        g = None
    if g is not None and len(hams) != g:
        warnings.warn(
            f"detected {len(hams)} Hamiltonians but genus is {g}",
            RuntimeWarning, stacklevel=2,
        )
    return hams, cass


# ---------------------------------------------------------------------------
# divisor coordinates
# ---------------------------------------------------------------------------

def _adjugate_section_grids(phi: MatPoly, s: np.ndarray, tol: Tolerances):
    """Bivariate grids of v(z, xi) = adj(phi(z) - xi I) . s, one per component."""
    _, A = kernel.matpoly_char_adj(phi.coeff_mats)
    return [kernel.bipoly_trim(grid, tol) for grid in np.einsum("kcjl,j->ckl", A, s)]


def _newton_pair(Pg, Vg, z, xi, tol: Tolerances):
    """Newton iteration on the system (P(z,xi), V(z,xi)) with analytic partials."""
    Pz, Pxi = kernel.bipoly_dz(Pg), kernel.bipoly_dxi(Pg)
    Vz, Vxi = kernel.bipoly_dz(Vg), kernel.bipoly_dxi(Vg)
    for _ in range(50):
        f1 = kernel.bipoly_eval(Pg, z, xi)
        f2 = kernel.bipoly_eval(Vg, z, xi)
        J = np.array([
            [kernel.bipoly_eval(Pz, z, xi), kernel.bipoly_eval(Pxi, z, xi)],
            [kernel.bipoly_eval(Vz, z, xi), kernel.bipoly_eval(Vxi, z, xi)],
        ])
        rhs = np.array([f1, f2])
        try:
            step = np.linalg.solve(J, rhs)
        except np.linalg.LinAlgError:
            return None
        z, xi = z - step[0], xi - step[1]
        if np.abs(step).max() <= 1e-14 * max(1.0, abs(z), abs(xi)):
            return z, xi
    return z, xi


def _bipoly_scale(grid, z, xi):
    return max(float(kernel.bipoly_eval(np.abs(grid), abs(z), abs(xi)).real),
               float(np.abs(grid).max()))


def divisor_coords(phi: MatPoly, s=None, tol: Tolerances = DEFAULT,
                   seed: int = 0) -> DivisorCoords:
    """Separating divisor points: common zeros of the curve and adj(.)s.

    Solves {P = 0, v_1 = 0} by resultant elimination in xi, refines by Newton
    on the pair, and keeps only points where every component of
    adj(phi(z) - xi I) s vanishes. ``s`` defaults to (1, 0, ..., 0) and is
    re-drawn on the unit sphere when validation rejects everything.
    """
    r, n = phi.r, phi.n
    rng = np.random.default_rng(seed)
    curve = spectral_curve(phi)
    Pg = curve.grid

    s_try = np.zeros(r, dtype=complex)
    s_try[0] = 1.0
    if s is not None:
        s_try = np.asarray(s, dtype=complex)

    for attempt in range(3):
        result = _divisor_for_section(phi, Pg, s_try, tol)
        if result is not None:
            zs, xis, degenerate = result
            order = np.lexsort((xis.imag, xis.real, zs.imag, zs.real))
            return DivisorCoords(z=zs[order], xi=xis[order], s=s_try,
                                 degenerate=degenerate)
        if s is not None:
            break  # caller pinned the section; do not silently replace it
        raw = rng.standard_normal(r) + 1j * rng.standard_normal(r)
        s_try = raw / np.linalg.norm(raw)
    warnings.warn("divisor extraction found no validated points", RuntimeWarning,
                  stacklevel=2)
    return DivisorCoords(z=np.zeros(0, dtype=complex), xi=np.zeros(0, dtype=complex),
                         s=s_try, degenerate=False)


def _divisor_for_section(phi, Pg, s, tol: Tolerances):
    r = phi.r
    vgrids = _adjugate_section_grids(phi, s, tol)
    pick = max(range(r), key=lambda c: np.abs(vgrids[c]).max())
    Vg = vgrids[pick]
    if Vg.shape[0] < 2:
        return None  # xi-independent component; section too special
    try:
        res = kernel.resultant(Pg, Vg, "xi", tol)
    except NonGenericError:
        return None
    if res.size <= 1:
        return None
    try:
        zroots, _ = kernel.poly_roots(res, tol)
    except (ConvergenceError, ValueError):
        return None

    found_z, found_xi = [], []
    for z0 in zroots:
        xi_cands, _ = kernel.poly_roots(curve_poly(Pg, z0), tol)
        for xi0 in xi_cands:
            refined = _newton_pair(Pg, Vg, z0, xi0, tol)
            if refined is None:
                warnings.warn("dropping a non-converged divisor candidate",
                              RuntimeWarning, stacklevel=3)
                continue
            z, xi = refined
            pres = abs(kernel.bipoly_eval(Pg, z, xi)) / _bipoly_scale(Pg, z, xi)
            if pres > tol.divisor:
                continue
            vres = max(
                abs(kernel.bipoly_eval(g, z, xi)) / max(_bipoly_scale(g, z, xi), 1e-30)
                for g in vgrids
            )
            if vres > tol.divisor:
                continue
            found_z.append(z)
            found_xi.append(xi)

    if not found_z:
        return None
    zs = np.array(found_z)
    xis = np.array(found_xi)
    # merge duplicates at the clustering radius
    scale = max(1.0, np.abs(zs).max(), np.abs(xis).max())
    keep_z, keep_xi = [], []
    for z, xi in zip(zs, xis):
        dup = any(
            abs(z - kz) < tol.cluster_merge * scale and abs(xi - kxi) < tol.cluster_merge * scale
            for kz, kxi in zip(keep_z, keep_xi)
        )
        if not dup:
            keep_z.append(z)
            keep_xi.append(xi)
    zs = np.array(keep_z)
    xis = np.array(keep_xi)
    degenerate = False
    if zs.size > 1:
        d = np.abs(zs[:, None] - zs[None, :]) + np.abs(xis[:, None] - xis[None, :])
        d = d[np.triu_indices(zs.size, 1)]
        degenerate = bool(d.min() < 100 * tol.cluster_merge * scale)
    return zs, xis, degenerate


def curve_poly(Pg, z):
    """xi-polynomial of the curve at fixed z (ascending coefficients)."""
    return kernel.poly_eval(np.asarray(Pg, dtype=complex).T, z)


# ---------------------------------------------------------------------------
# canonical-bracket verification
# ---------------------------------------------------------------------------

@dataclass
class CanonicalReport:
    points: DivisorCoords
    target_diag: np.ndarray          # a(z_mu) + b xi_mu
    max_zxi_residual: float          # max |{z_mu, xi_nu} - target delta|
    max_zz_residual: float
    max_xixi_residual: float

    @property
    def max_residual(self) -> float:
        return max(self.max_zxi_residual, self.max_zz_residual, self.max_xixi_residual)


def _match_points(base: DivisorCoords, other: DivisorCoords, limit: float):
    """Index of the ``other`` point nearest to each base point."""
    if other.count != base.count:
        raise MatchingError("matching failed, reduce h_rel")
    d = np.abs(base.z[:, None] - other.z[None, :]) + np.abs(base.xi[:, None] - other.xi[None, :])
    idx = np.argmin(d, axis=1)
    if len(set(idx.tolist())) != base.count or np.any(d[np.arange(base.count), idx] > limit):
        raise MatchingError("matching failed, reduce h_rel")
    return idx


def divisor_jacobian(phi: MatPoly, s=None, tol: Tolerances = DEFAULT,
                     h_rel: float = 1e-5, seed: int = 0):
    """d(z_mu)/dx and d(xi_mu)/dx by central differences with point matching."""
    base = divisor_coords(phi, s=s, tol=tol, seed=seed)
    if base.count == 0:
        raise NonGenericError("no divisor points to differentiate")
    if base.count > 1:
        gaps = (np.abs(base.z[:, None] - base.z[None, :])
                + np.abs(base.xi[:, None] - base.xi[None, :]))
        limit = 0.5 * gaps[np.triu_indices(base.count, 1)].min()
    else:
        limit = np.inf
    x = phi.flatten()
    N = x.size
    dz = np.zeros((base.count, N), dtype=complex)
    dxi = np.zeros((base.count, N), dtype=complex)
    for a in range(N):
        h = h_rel * max(1.0, abs(x[a]))
        plus = divisor_coords(MatPoly.from_flat(_bump(x, a, h), phi.r, phi.n),
                              s=base.s, tol=tol, seed=seed)
        minus = divisor_coords(MatPoly.from_flat(_bump(x, a, -h), phi.r, phi.n),
                               s=base.s, tol=tol, seed=seed)
        ip = _match_points(base, plus, limit)
        im = _match_points(base, minus, limit)
        dz[:, a] = (plus.z[ip] - minus.z[im]) / (2 * h)
        dxi[:, a] = (plus.xi[ip] - minus.xi[im]) / (2 * h)
    return base, dz, dxi


def _bump(x, idx, h):
    out = x.copy()
    out[idx] += h
    return out


def verify_canonical(phi: MatPoly, spec: BracketSpec, s=None,
                     tol: Tolerances = DEFAULT, h_rel: float = 1e-5,
                     seed: int = 0) -> CanonicalReport:
    """Check {z_mu, xi_nu} = (a(z_mu) + b xi_mu) delta and the vanishing of
    {z, z} and {xi, xi}, via the finite-difference chain rule."""
    base, dz, dxi = divisor_jacobian(phi, s=s, tol=tol, h_rel=h_rel, seed=seed)
    tensor = structure_tensor(phi.r, phi.n, spec, tol)
    pi = tensor.poisson_matrix(phi.flatten())
    b_zxi = dz @ pi @ dxi.T
    b_zz = dz @ pi @ dz.T
    b_xx = dxi @ pi @ dxi.T
    target = spec.a_eval(base.z) + spec.b * base.xi
    resid = b_zxi - np.diag(np.atleast_1d(target))
    return CanonicalReport(
        points=base,
        target_diag=np.atleast_1d(target),
        max_zxi_residual=float(np.abs(resid).max()),
        max_zz_residual=float(np.abs(b_zz).max()),
        max_xixi_residual=float(np.abs(b_xx).max()),
    )


# ---------------------------------------------------------------------------
# flows
# ---------------------------------------------------------------------------

def flow(phi0: MatPoly, h_position, spec: BracketSpec, t_grid,
         tol: Tolerances = DEFAULT):
    """Integrate the Hamiltonian flow of one spectral coefficient.

    ``h_position`` is the (k, l) grid position of the Hamiltonian. Returns
    the list of MatPoly states at the requested times.
    """
    r, n = phi0.r, phi0.n
    positions = spectral_positions(r, n)
    try:
        h_idx = positions.index(tuple(h_position))
    except ValueError:
        raise ValueError(f"{h_position} is not a spectral coefficient position")
    tensor = structure_tensor(r, n, spec, tol)

    def field(t, x):
        p = MatPoly.from_flat(x, r, n)
        _, G = spectral_gradient_matrix(p)
        pi = tensor.poisson_matrix(x)
        return pi @ G[h_idx]

    states = ode_solve(field, phi0.flatten(), t_grid, tol=tol)
    return [MatPoly.from_flat(row, r, n) for row in states]


# ---------------------------------------------------------------------------
# instance generation
# ---------------------------------------------------------------------------

def _random_disk_cm(r: int, n: int, rng) -> np.ndarray:
    radius = np.sqrt(rng.uniform(0.0, 1.0, (n + 1, r, r)))
    angle = rng.uniform(0.0, 2 * np.pi, (n + 1, r, r))
    return radius * np.exp(1j * angle)


def random_instance(r: int, n: int, rng, tol: Tolerances = DEFAULT,
                    max_tries: int = 60) -> MatPoly:
    """Random phase point in the generic stratum.

    Entries are uniform in the unit disk; instances with clustered branch
    points or colliding leading eigenvalues are rejected.
    """
    for _ in range(max_tries):
        phi = MatPoly(_random_disk_cm(r, n, rng))
        try:
            genus(phi, tol)
        except (NonGenericError, ConvergenceError):
            continue
        return phi
    raise NonGenericError("could not draw a generic instance")
