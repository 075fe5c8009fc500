"""Rational-base engine: matrix-polynomial Lax data, the two-parameter
Poisson bracket family, spectral curves, separating divisor coordinates and
their canonical-bracket verification.

Phase-space points are matrix polynomials ``phi(z) = sum_k phi_k z**k`` of
size r and degree <= n; the flattened coordinate vector orders entries as
``x[k*r*r + i*r + j] = phi_k[i, j]``.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import kernel
from .errors import ConsistencyError, ConvergenceError, NonGenericError
from .numeric import ode_solve
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
        """phi at ``z`` of shape (...): shape (..., r, r)."""
        z = np.asarray(z, dtype=complex)[..., None, None]
        out = np.zeros(z.shape[:-2] + (self.r, self.r), dtype=complex)
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

    def __call__(self, z, xi):
        return kernel.bipoly_eval(self.grid, z, xi)

    def dxi(self):
        return kernel.bipoly_dxi(self.grid)


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


@dataclass(frozen=True)
class StructureTensor:
    """One bracket of the family, evaluated matrix-free at phase points.

    ``poisson_matrix`` evaluates ``Pi(x)`` with the Lax-form contraction
    ``_lax_field`` at the ``N`` unit covectors: column ``c`` is the field of the
    coordinate ``x_c``, so no structure constants are stored. ``a`` is ``spec.a``
    trimmed, checked against the degree bound and padded with zeros to the
    ``2n + 2`` coefficients that ``_lax_field`` reads.
    """

    r: int
    n: int
    spec: BracketSpec
    a: np.ndarray

    @property
    def dim(self) -> int:
        return (self.n + 1) * self.r * self.r

    def poisson_matrix(self, x) -> np.ndarray:
        """``Pi`` at points ``x`` (..., N), shape (..., N, N).  Antisymmetry is
        checked, then enforced exactly."""
        x = np.asarray(x, dtype=complex)
        pi = _lax_field(x.reshape(-1, self.dim), _lax_plan(self.r, self.n)[1], self.a,
                        self.spec.b).reshape(x.shape + (self.dim,))
        if np.abs(pi + pi.swapaxes(-1, -2)).max() > 1e-9 * max(1.0, np.abs(pi).max()):
            raise ConsistencyError("Poisson matrix is not antisymmetric")
        return 0.5 * (pi - pi.swapaxes(-1, -2))

    def poisson_gradient(self, x) -> np.ndarray:
        """d Pi_{ab} / d x_c, shape (N, N, N).

        A central difference with unit step is exact because ``Pi`` is
        quadratic in ``x``; all ``2N`` points go through one batched call.
        """
        E = np.eye(self.dim)
        pis = self.poisson_matrix([x + E, x - E])
        return np.moveaxis(0.5 * (pis[0] - pis[1]), 0, -1)


# ---------------------------------------------------------------------------
# spectral curve and genus
# ---------------------------------------------------------------------------

def spectral_curve(phi: MatPoly) -> SpectralCurve:
    """Coefficient grid of det(phi(z) - xi I).

    Built by evaluation at roots of unity plus FFT, exact to rounding; the
    grid is cross-checked against direct determinant evaluation at 20 random
    probes drawn from seed 0.
    """
    r, n = phi.r, phi.n
    grid, _ = kernel.matpoly_char_adj(phi.coeff_mats)
    rng = np.random.default_rng(0)
    zs = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    xis = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    direct = np.linalg.det(phi(zs) - xis[:, None, None] * np.eye(r))
    ours = kernel.bipoly_eval(grid, zs, xis)
    if np.any(np.abs(ours - direct) > 1e-10 * np.maximum(1.0, np.abs(direct))):
        raise ConsistencyError("spectral curve grid disagrees with determinant probe")
    return SpectralCurve(grid=grid, r=r, n=n)


def branch_points(curve: SpectralCurve, tol: Tolerances = DEFAULT):
    """Roots (with multiplicity tags) of the discriminant Disc_xi of the curve."""
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
    eigs = np.linalg.eigvals(lead)
    if kernel.min_gap(eigs) < tol.disc_gap * max(1.0, np.abs(eigs).max()):
        raise NonGenericError("non-generic curve: leading matrix eigenvalues collide")
    roots, mults = branch_points(spectral_curve(phi), tol)
    scale = max(1.0, np.abs(roots).max()) if roots.size else 1.0
    if np.any(mults > 1):
        raise NonGenericError("non-generic curve: non-simple branch point")
    if kernel.min_gap(roots) < tol.disc_gap * scale:
        raise NonGenericError("non-generic curve: clustered branch points")
    B = roots.size
    if B % 2 != 0:
        raise NonGenericError("non-generic curve: odd branch count")
    return B // 2 - r + 1


# ---------------------------------------------------------------------------
# the bracket family
# ---------------------------------------------------------------------------

def _covector_blocks(grad):
    """``_lax_field``'s blocks of covectors ``grad`` (C, n+1, r, r): ``G_t[k, j]``
    and ``G_t[j, k]`` at ``[(t, k), (c, j)]``, ``G_t = (dH/dphi_t)^T``."""
    _, n1, r, _ = grad.shape
    return np.array([grad.transpose(1, 3, 0, 2),
                     grad.transpose(1, 2, 0, 3)]).reshape(2, n1 * r, -1)


@lru_cache(maxsize=None)
def _lax_plan(r: int, n: int):
    """``_lax_field``'s blocks ``[(A, u), (B, v)]`` of indices into the point, a 0
    and ``a``: ``phi_(B-A)[u, v]``, ``phi_(B-A)[v, u]``, twice ``a_(B-A) delta_uv``,
    ``phi_(A+1+B)[u, v]``, ``phi_(A+1+B)[v, u]``, ``a_(A+1+B) delta_uv`` (the 0 where
    a subscript leaves its range); and the blocks of the ``N`` unit covectors."""
    N = (n + 1) * r * r
    A, u, B, v = np.indices((n + 1, r, n + 1, r))
    phi = [np.where((0 <= p) & (p <= n), p * r * r + flat, N)
           for p in (B - A, A + 1 + B) for flat in (u * r + v, v * r + u)]
    a_toe = np.where((B >= A) & (u == v), N + 1 + B - A, N)
    index = [*phi[:2], a_toe, a_toe, *phi[2:], np.where(u == v, N + 2 + A + B, N)]
    return kernel.frozen(np.array(index).reshape(7, N // r, N // r),
                         _covector_blocks(np.eye(N, dtype=complex).reshape(N, n + 1, r, r)))


def _lax_field(x, g, a, b):
    """``Pi(phi) . grad H`` at points ``x`` (B, N) for ``C`` covectors ``grad =
    dH/dphi_t`` given as ``_covector_blocks`` ``g``; shape (B, N, C).

    No ``N x N`` matrix is formed: in the Lax form ``[P, phi(lambda) (x) S(mu)
    + S(lambda) (x) phi(mu)] / (lambda - mu)``, ``S = -a I - (b/2) phi``, the
    division is a shift of indices.  With ``G_t = (dH/dphi_t)^T`` and ``Y_d``,
    ``Yt_d``, ``alpha_d`` the sums over t of ``phi_(t-d) G_t``, ``G_t
    phi_(t-d)``, ``a_(t-d) G_t``, the field's ``z^s`` coefficient is
    ``sum_(p>s) phi_p (alpha_d + b Yt_d) - (alpha_d + b Y_d) phi_p - a_p (Y_d -
    Yt_d)``, ``d = p - 1 - s``: two batched matmuls of the point's blocks (all
    shifts are there) by blocks with the covectors on the columns.  A product
    with ``phi`` on its right is formed transposed, so at ``r = 1`` the terms
    cancel exactly.  ``a`` is padded to ``2n + 2``.  The orientation makes
    divisor coordinates canonical: ``{z_mu, xi_nu} = (a(z_mu) + b xi_mu) delta_mu_nu``.
    """
    B, N = x.shape
    n1, r = g.shape[1] ** 2 // N, N // g.shape[1]
    src = np.empty((B, N + 1 + a.size), dtype=complex)
    src[:, :N], src[:, N], src[:, N + 1:] = x, 0.0, a
    X = src.take(_lax_plan(r, n1 - 1)[0], axis=1)
    # [d, i, c, j] blocks of Y_d and Yt_d^T, then of alpha_d and alpha_d^T
    Y = (X[:, :4].reshape(B, 2, 2, n1 * r, n1 * r) @ g).reshape(B, 2, 2, n1, r, -1, r)
    rhs = np.concatenate([(Y[:, 1] + b * Y[:, 0]).swapaxes(-3, -1)[:, ::-1],
                          (Y[:, 0, 0] - Y[:, 0, 1].swapaxes(-3, -1))[:, None]], axis=1)
    # [s, i, c, j] blocks of phi (alpha + b Yt), ((alpha + b Y) phi)^T, a (Y - Yt)
    F = (X[:, 4:] @ rhs.reshape(B, 3, n1 * r, -1)).reshape(rhs.shape)
    out = F[:, 0] - F[:, 1].swapaxes(-3, -1) - F[:, 2]
    return out.swapaxes(-2, -1).reshape(B, N, -1)


@lru_cache(maxsize=64)
def structure_tensor(r: int, n: int, spec: BracketSpec,
                     tol: Tolerances = DEFAULT) -> StructureTensor:
    """One bracket of the family, ready to evaluate matrix-free.

    Trims ``spec.a`` at ``tol`` and checks ``deg(a) <= n + 1`` once; the
    returned record stores no structure constants.
    """
    a = kernel.poly_trim(spec.a_array, tol)
    if a.size > n + 2:
        raise ValueError("deg(a) must be at most n + 1")
    a, = kernel.frozen(np.pad(a, (0, 2 * n + 2 - a.size)))
    return StructureTensor(r=r, n=n, spec=spec, a=a)


def bracket(grad_f, grad_g, phi: MatPoly, spec: BracketSpec,
            tol: Tolerances = DEFAULT) -> complex:
    """Poisson bracket {F, G}(phi) = grad(F) . Pi(phi) . grad(G) of two
    observables, given their gradients in the flattened coefficient vector."""
    x = phi.flatten()
    tensor = structure_tensor(phi.r, phi.n, spec, tol)
    gf = np.asarray(grad_f, dtype=complex)
    gg = np.asarray(grad_g, dtype=complex)
    return complex(gf @ tensor.poisson_matrix(x) @ gg)


def jacobi_max_residual(tensor: StructureTensor, x, triples) -> float:
    """Max cyclic-sum residual over coordinate triples, relative to scale."""
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
def _covector_plan(r: int, n: int, positions: tuple):
    """The Vandermonde matrix at the ``K = r n + 1`` roots of unity ``w^s``, and per
    position ``(k, l)`` its level ``r - 1 - k`` of the Faddeev--LeVerrier ``N``
    and its DFT rows (n+1, K).  ``dC_{k,l}/dphi_t[i, j] = A_k[j, i]`` at
    ``z^(l-t)`` and ``A_k = (-1)^(r-1) N_(r-1-k)``, so row ``t`` is ``(-1)^(r-1)
    w^(-(l-t) s) / K``, 0 where ``l - t`` leaves the z-degrees ``0 .. (r-1-k) n``."""
    K = r * n + 1
    k, l = np.array(positions).T[..., None]
    deg = l - np.arange(n + 1)
    dft = (-1.0) ** (r - 1) / K * np.exp(-2j * np.pi * (deg[..., None] * np.arange(K) % K) / K)
    rows = np.where(((deg >= 0) & (deg <= (r - 1 - k) * n))[..., None], dft, 0.0)
    return (kernel._char_adj_plan(r, n)[0],) + kernel.frozen(r - 1 - k.ravel(), rows)


def _spectral_gradients(N, level, rows):
    """``dC_{k,l}/dphi_t`` (..., positions, n+1, r, r) from the Faddeev--LeVerrier
    values ``N`` (..., K, r, r, r) by ``_covector_plan``'s levels and rows."""
    r = N.shape[-1]
    G = rows @ N[..., level, :, :].reshape(N.shape[:-3] + (len(level), r * r)).swapaxes(-3, -2)
    return G.reshape(G.shape[:-1] + (r, r)).swapaxes(-1, -2)


def spectral_gradient_matrix(phi: MatPoly):
    """Gradients of every spectral coefficient, via the adjugate.

    Returns ``(positions, G)`` where ``G[idx]`` is the gradient of the
    coefficient at ``positions[idx]`` with respect to the flattened phase
    coordinates.
    """
    r, n = phi.r, phi.n
    positions = spectral_positions(r, n)
    vander, level, rows = _covector_plan(r, n, tuple(positions))
    _, N = kernel._faddeev_leverrier((vander @ phi.coeff_mats.reshape(n + 1, -1)).reshape(-1, r, r))
    return positions, _spectral_gradients(N, level, rows).reshape(len(positions), -1)


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


def casimir_detect(phi: MatPoly, spec: BracketSpec, tol: Tolerances = DEFAULT):
    """Split the spectral coefficients into Hamiltonians and Casimirs at ``phi``.

    Row ``idx`` of ``F = G . Pi`` is the Hamiltonian field of the coefficient
    at ``positions[idx]`` (up to sign).  The fields span ``rank F`` dimensions,
    counting singular values above ``tol.casimir`` times the largest; on the
    generic stratum that is ``deg B = n r (r-1) / 2 = g + r - 1``, and any
    other rank raises ``NonGenericError``.  The Hamiltonians are the ``rank F``
    positions a greedy pivoted Gram--Schmidt on the rows of ``F`` picks (QR of
    ``F^T`` with column pivoting); the Casimirs are the positions whose field
    vanishes, below ``tol.casimir`` relative to ``|Pi| |grad C|``.  Both come
    back in ``spectral_positions`` order.  Under a general bracket some
    positions are neither: their fields are combinations of the Hamiltonians'
    fields.
    """
    r, n = phi.r, phi.n
    positions, G = spectral_gradient_matrix(phi)
    pi = structure_tensor(r, n, spec, tol).poisson_matrix(phi.flatten())
    F = G @ pi
    sv = np.linalg.svd(F, compute_uv=False)
    deg_b = n * r * (r - 1) // 2
    rank = int(np.count_nonzero(sv > tol.casimir * sv[0]))
    if rank != deg_b:
        raise NonGenericError(f"Hamiltonian fields span {rank} dimensions, not deg B = {deg_b}")
    rest = F.copy()
    picked = []
    for _ in range(rank):
        idx = int(np.linalg.norm(rest, axis=1).argmax())
        q = rest[idx] / np.linalg.norm(rest[idx])
        rest -= np.outer(rest @ q.conj(), q)
        picked.append(idx)
    rel = np.linalg.norm(F, axis=1) / np.maximum(
        np.linalg.norm(pi) * np.linalg.norm(G, axis=1), 1e-30)
    hams = tuple(positions[idx] for idx in sorted(picked))
    cass = tuple(p for p, c in zip(positions, rel < tol.casimir) if c)
    return hams, cass


# ---------------------------------------------------------------------------
# divisor coordinates
# ---------------------------------------------------------------------------

def divisor_coords(phi: MatPoly, s=None, tol: Tolerances = DEFAULT) -> DivisorCoords:
    """Separating divisor points: common zeros of the curve and adj(.)s.

    ``adj(phi(z) - xi I) s`` vanishes on the curve exactly where the left
    eigenvector of ``phi(z)`` for ``xi`` is orthogonal to ``s``, that is over
    the roots of ``B(z) = det[s, phi s, ..., phi^(r-1) s]`` (Sklyanin's B),
    of degree ``deg B = n r (r-1) / 2 = g + r - 1``.  Over a root of
    multiplicity ``m`` there are ``m`` points, from ``kernel.divisor_points``.
    ``s`` defaults to (1, 0, ..., 0).  Returns exactly ``deg B`` points, with
    ``degenerate`` set where ``B`` has a multiple root or two points crowd;
    raises ``NonGenericError`` where ``s`` is special for ``phi`` (``B`` of
    lower degree, or a root of multiplicity ``r`` or more), and
    ``ConsistencyError`` where a point's residual exceeds ``tol.divisor``.
    """
    r, n = phi.r, phi.n
    s = np.eye(r, dtype=complex)[0] if s is None else np.asarray(s, dtype=complex)
    deg_b = n * r * (r - 1) // 2
    if deg_b == 0:
        return DivisorCoords(z=np.zeros(0, dtype=complex), xi=np.zeros(0, dtype=complex), s=s)
    # B at the deg B + 1 roots of unity, then its coefficients by one FFT
    zk = np.exp(2j * np.pi * np.arange(deg_b + 1) / (deg_b + 1))
    B = kernel.poly_trim(np.fft.fft(np.linalg.det(kernel.krylov(phi(zk), s))) / zk.size, tol)
    if B.size - 1 < deg_b:
        raise NonGenericError(f"s = {s} is special for phi: B has degree {B.size - 1} < "
                              f"deg B = {deg_b} (points over z = inf, or B = 0); pass another s")
    zroots, mults = kernel.poly_roots(B, tol)
    # the Krylov space of s has codimension m at an m-fold root (at most r - 1)
    ms = np.minimum(mults, r - 1)
    if ms.sum() < deg_b:
        raise NonGenericError(f"s = {s} is special for phi: a root of B has multiplicity "
                              "r or more; pass another s")
    zs = np.repeat(zroots, ms)
    xis, resid = kernel.divisor_points(phi(zroots), s, ms)
    validated = int(np.count_nonzero(resid <= tol.divisor))
    if validated < deg_b:
        raise ConsistencyError(f"{validated} of the {deg_b} zeros of B are divisor points")
    scale = max(1.0, np.abs(zs).max(), np.abs(xis).max())
    gap = kernel.min_gap(zs, xis)
    order = np.lexsort((xis.imag, xis.real, zs.imag, zs.real))
    return DivisorCoords(z=zs[order], xi=xis[order], s=s, degenerate=bool(
        gap < 100 * tol.cluster_merge * scale or np.any(mults > 1)))


# ---------------------------------------------------------------------------
# canonical-bracket verification
# ---------------------------------------------------------------------------

@dataclass
class CanonicalReport:
    points: DivisorCoords
    target_diag: np.ndarray          # a(z_mu) + b xi_mu
    max_zxi_residual: float          # max |{z_mu, xi_nu} - target delta|, relative
    max_zz_residual: float           # max |{z_mu, z_nu}|, relative
    max_xixi_residual: float         # max |{xi_mu, xi_nu}|, relative

    @property
    def max_residual(self) -> float:
        return max(self.max_zxi_residual, self.max_zz_residual, self.max_xixi_residual)


def divisor_jacobian(phi: MatPoly, s=None, tol: Tolerances = DEFAULT):
    """d(z_mu)/dx and d(xi_mu)/dx by the implicit-function theorem, exact to rounding.

    Each point solves ``F = (P, v_c) = 0`` with ``P = det M``,
    ``M = phi(z) - xi I`` and ``v_c = (adj(M) s)_c``, at each point the
    component with the largest ``|dv_c/dM|``.  For ``x = phi_p[i, j]``,
    ``dF/dx = z^p dF/dM_ij`` with ``dP/dM_ij = adj(M)[j, i]`` and
    ``dv_c/dM_ij = ((adj(M + t E_ij) - adj(M)) s)_c / t`` for any ``t``,
    because each cofactor is linear in every row; so
    ``J = d(P, v_c)/d(z, xi) = dF/dM . [vec phi'(z), -vec I]`` and
    ``d(z, xi)/dx = -J^{-1} dF/dx``.  Returns ``(points, dz, dxi)``, ``dz``
    and ``dxi`` of shape ``(count, N)`` (``count`` 0 for the empty divisor of
    ``deg B = 0``); raises ``NonGenericError`` where
    ``det J`` is within ``tol.divisor`` of the Hadamard bounds of its rows,
    ``max(1, |M|)^(r-1)`` and ``max(1, |M|)^(r-2) |s|``, each times
    ``max(1, |phi'|)``.  It raises as well, before forming ``J``, where the
    divisor is ``degenerate`` (multiple or crowding roots of ``B``): a generic
    perturbation splits a multiple root like a square root, so ``z_mu`` has no
    derivative there.
    """
    base = divisor_coords(phi, s=s, tol=tol)
    if base.count == 0:
        empty = np.zeros((0, phi.coeff_mats.size), dtype=complex)
        return base, empty, empty
    if base.degenerate:
        raise NonGenericError("degenerate divisor: d(z_mu)/dx is singular at a "
                              "multiple or crowding root of B")
    r, n = phi.r, phi.n
    z, xi = base.z, base.xi
    # adj(M + t E_ij) for every (i, j), then adj(M), in one batched recursion;
    # t of the size of M keeps the difference at full relative precision
    M = phi(z) - xi[:, None, None] * np.eye(r)
    t = np.maximum(1.0, np.abs(M).max(axis=(1, 2)))[:, None, None, None]
    E = np.eye(r * r).reshape(r * r, r, r)
    adj = kernel.adjugate(np.concatenate([M[:, None] + t * E, M[:, None]], axis=1))
    dP = adj[:, -1].transpose(0, 2, 1).reshape(-1, r * r)
    dv = ((adj[:, :-1] - adj[:, -1:]) / t) @ base.s                    # (count, r*r, r)
    pick = np.linalg.norm(dv, axis=1).argmax(axis=-1)
    dF_dM = np.stack([dP, np.take_along_axis(dv, pick[:, None, None], 2)[..., 0]], axis=1)
    zp = z[:, None] ** np.arange(n + 1)
    dphi = (zp[:, :-1] * np.arange(1, n + 1)) @ phi.coeff_mats[1:].reshape(n, -1)
    J = np.stack([np.einsum("mfk,mk->mf", dF_dM, dphi),
                  -dF_dM @ np.eye(r).ravel()], axis=-1)                  # (count, 2, 2)
    bound = t.ravel() ** (2 * r - 3) * np.linalg.norm(base.s) * np.maximum(
        1.0, np.abs(dphi).max(axis=-1)) ** 2
    if np.any(np.abs(np.linalg.det(J)) <= tol.divisor * bound):
        raise NonGenericError("divisor point where d(P, v)/d(z, xi) is singular")
    dF = (zp[:, None, :, None] * dF_dM[:, :, None, :]).reshape(base.count, 2, -1)
    dzxi = -np.linalg.solve(J, dF)
    return base, dzxi[:, 0], dzxi[:, 1]


def verify_canonical(phi: MatPoly, spec: BracketSpec, s=None,
                     tol: Tolerances = DEFAULT) -> CanonicalReport:
    """Check {z_mu, xi_nu} = (a(z_mu) + b xi_mu) delta and the vanishing of
    {z, z} and {xi, xi} by the chain rule through ``divisor_jacobian``'s
    implicit-function derivatives.  Each residual entry is divided by
    max(1, |row_mu| |Pi| |row_nu|) of its two chain-rule rows; the empty
    divisor has residuals 0."""
    base, dz, dxi = divisor_jacobian(phi, s=s, tol=tol)
    tensor = structure_tensor(phi.r, phi.n, spec, tol)
    pi = tensor.poisson_matrix(phi.flatten())
    b_zxi = dz @ pi @ dxi.T
    b_zz = dz @ pi @ dz.T
    b_xx = dxi @ pi @ dxi.T
    target = spec.a_eval(base.z) + spec.b * base.xi
    resid = b_zxi - np.diag(np.atleast_1d(target))
    zn, xn = np.linalg.norm(dz, axis=1), np.linalg.norm(dxi, axis=1)

    def relative(block, rows, cols):
        scale = np.outer(rows * np.linalg.norm(pi), cols)
        return float((np.abs(block) / np.maximum(scale, 1.0)).max(initial=0.0))

    return CanonicalReport(
        points=base,
        target_diag=np.atleast_1d(target),
        max_zxi_residual=relative(resid, zn, xn),
        max_zz_residual=relative(b_zz, zn, zn),
        max_xixi_residual=relative(b_xx, xn, xn),
    )


# ---------------------------------------------------------------------------
# flows
# ---------------------------------------------------------------------------

def flow(phi0: MatPoly, h_position, spec: BracketSpec, t_grid,
         tol: Tolerances = DEFAULT):
    """Integrate the Hamiltonian flow of ``H = C_{k,l}``, ``h_position = (k, l)``,
    and return the MatPoly states at the times ``t_grid``.  The field
    ``Pi(phi) grad H`` is ``_lax_field`` with no ``N x N`` matrix; its covector
    blocks are one matmul of the Faddeev--LeVerrier level ``r - 1 - k`` by the
    blocks of that level's unit values' ``_spectral_gradients``.
    """
    r, n = phi0.r, phi0.n
    if tuple(h_position) not in spectral_positions(r, n):
        raise ValueError(f"{h_position} is not a spectral coefficient position")
    a = structure_tensor(r, n, spec, tol).a
    vander, level, rows = _covector_plan(r, n, (tuple(h_position),))
    E = len(vander) * r * r
    unit = _spectral_gradients(np.eye(E).reshape(E, -1, 1, r, r), [0], rows)[:, 0]
    blocks = _covector_blocks(unit).reshape(2, (n + 1) * r, E, r).swapaxes(-2, -1).reshape(-1, E)

    def field(t, x):
        if not np.all(np.isfinite(x)):
            raise ValueError("coefficients must be finite")
        _, N = kernel._faddeev_leverrier((vander @ x.reshape(n + 1, -1)).reshape(-1, r, r))
        g = (blocks @ N[:, level[0]].reshape(-1)).reshape(2, (n + 1) * r, r)
        return _lax_field(x[None], g, a, spec.b).ravel()

    states = ode_solve(field, phi0.flatten(), t_grid, tol=tol)
    return [MatPoly.from_flat(row, r, n) for row in states]


# ---------------------------------------------------------------------------
# instance generation
# ---------------------------------------------------------------------------

def _random_disk_cm(r: int, n: int, rng) -> np.ndarray:
    radius = np.sqrt(rng.uniform(0.0, 1.0, (n + 1, r, r)))
    angle = rng.uniform(0.0, 2 * np.pi, (n + 1, r, r))
    return radius * np.exp(1j * angle)


def random_instance(r: int, n: int, rng, tol: Tolerances = DEFAULT) -> MatPoly:
    """Random phase point in the generic stratum.

    Entries are uniform in the unit disk; instances with clustered branch
    points or colliding leading eigenvalues are rejected, up to 60 draws.
    """
    for _ in range(60):
        phi = MatPoly(_random_disk_cm(r, n, rng))
        try:
            genus(phi, tol)
        except (NonGenericError, ConvergenceError):
            continue
        return phi
    raise NonGenericError("could not draw a generic instance")
