"""Rational-base engine: matrix-polynomial Lax data, the two-parameter
Poisson bracket family, spectral curves, separating divisor coordinates and
their canonical-bracket verification.

Phase-space points are matrix polynomials ``phi(z) = sum_k phi_k z**k`` of
size r and degree <= n; the flattened coordinate vector orders entries as
``x[k*r*r + i*r + j] = phi_k[i, j]``.
"""

import inspect
import weakref
from dataclasses import dataclass, field
from functools import lru_cache, wraps

import numpy as np

from . import kernel
from .errors import ConsistencyError, ConvergenceError, NonGenericError
from .numeric import ode_solve
from .tolerances import CASIMIR, CLUSTER_MERGE, DEFAULT, DISC_GAP, Tolerances

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

@dataclass(frozen=True, eq=False)
class MatPoly:
    """Matrix-valued polynomial phi(z) of size r, degree <= n, immutable: it keeps a
    read-only copy of ``coeff_mats``, so what ``_memoized`` keeps in ``_memo`` holds."""

    coeff_mats: np.ndarray  # (n+1, r, r)
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _flow: tuple = field(default=(), init=False, repr=False, compare=False)  # flow's states, weakly

    def __post_init__(self):
        cm = np.array(self.coeff_mats, dtype=complex)
        if cm.ndim != 3 or cm.shape[1] != cm.shape[2] or cm.shape[1] < 1:
            raise ValueError("coeff_mats must have shape (n+1, r, r)")
        if not np.all(np.isfinite(cm)):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coeff_mats", kernel.frozen(cm)[0])

    def __reduce__(self):  # a copy re-freezes its coefficients, with an empty memo and no _flow
        return MatPoly, (self.coeff_mats,)

    @property
    def r(self) -> int:
        return self.coeff_mats.shape[1]

    @property
    def n(self) -> int:
        return self.coeff_mats.shape[0] - 1

    def __call__(self, z):
        """phi at ``z`` of shape (...): shape (..., r, r)."""
        return kernel.poly_eval(self.coeff_mats, np.asarray(z, dtype=complex)[..., None, None],
                                tensor=False)

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


def _memoized(fn):
    """``fn(phi, ...)`` computed once per point and arguments, kept in ``phi._memo``
    under ``fn``'s name and the arguments with defaults applied (a wrong call's key
    is never stored: ``fn`` raises).  An unhashable argument (an array ``s``)
    computes afresh; an exception is not kept.  ``fn`` returns immutable values."""
    params = list(inspect.signature(fn).parameters.values())[1:]

    @wraps(fn)
    def memo(phi, *args, **kwargs):
        key = (fn.__name__, *args, *(kwargs.get(p.name, p.default) for p in params[len(args):]))
        try:
            known = key in phi._memo
        except TypeError:
            known = None
        if known:
            return phi._memo[key]
        value = fn(phi, *args, **kwargs)
        if known is False:
            phi._memo[key] = value
        return value

    return memo


def spectral_positions(r: int, n: int):
    """Grid positions (k, l) of the nontrivial spectral coefficients."""
    return [(k, l) for k in range(r) for l in range((r - k) * n + 1)]


@dataclass(frozen=True, eq=False)
class SpectralCurve:
    """Bivariate polynomial det(phi(z) - xi I) with its coefficient grid."""

    grid: np.ndarray           # (r+1, r*n+1), grid[k, l] multiplies xi^k z^l
    r: int
    n: int

    def __call__(self, z, xi):
        return kernel.bipoly_eval(self.grid, z, xi)

    def dxi(self):
        return kernel.bipoly_dxi(self.grid)


@dataclass(frozen=True, eq=False)
class DivisorCoords:
    """Separating points (z_mu, xi_mu) extracted from a phase-space point."""

    z: np.ndarray
    xi: np.ndarray
    s: np.ndarray
    degenerate: bool = False

    @property
    def count(self) -> int:
        return self.z.size


@dataclass(frozen=True, eq=False)
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

_PROBE_Z, _PROBE_XI = kernel.frozen(*(
    x + 1j * y for x, y in np.random.default_rng(0).standard_normal((2, 2, 20))))


@_memoized
def spectral_curve(phi: MatPoly) -> SpectralCurve:
    """Coefficient grid of det(phi(z) - xi I), computed once per point, read-only.

    Built by evaluation at roots of unity plus FFT, exact to rounding; the
    grid is cross-checked against direct determinant evaluation at 20 random
    probes, drawn once from seed 0 (``_PROBE_Z``, ``_PROBE_XI``).  A state of a ``flow``
    computes the curves of all its states not yet memoized in one ``_curve_stack`` and
    memoizes each that passes its probe; one that fails raises when asked, as alone.
    """
    key = ("spectral_curve",)  # _memoized's key: a flow's states are memoized together
    stack = [s for ref in phi._flow if (s := ref()) is not None and key not in s._memo] or [phi]
    for state, curve in _curve_stack(stack).items():
        state._memo[key] = curve
    if key not in phi._memo:
        raise ConsistencyError("spectral curve grid disagrees with determinant probe")
    return phi._memo[key]


def _curve_stack(phis):
    """``spectral_curve`` of each state of ``phis`` (one ``r`` and ``n``) that passes its probe,
    by state, bit for bit: one ``matpoly_char_adj`` call and one stacked probe."""
    cms = np.array([phi.coeff_mats for phi in phis]) if len(phis) > 1 else phis[0].coeff_mats
    grids, _ = kernel.matpoly_char_adj(cms)
    at = kernel.poly_eval(cms.swapaxes(0, -3)[..., None, :, :], _PROBE_Z[:, None, None],
                          tensor=False)
    direct = np.linalg.det(at - _PROBE_XI[:, None, None] * np.eye(phis[0].r))
    ours = kernel.bipoly_eval(grids, _PROBE_Z, _PROBE_XI)
    bad = np.any(np.abs(ours - direct) > 1e-10 * np.maximum(1.0, np.abs(direct)), axis=-1)
    return {phi: SpectralCurve(kernel.frozen(g)[0], phi.r, phi.n) for phi, g, b in zip(
        phis, grids.reshape(-1, *grids.shape[-2:]), bad.reshape(-1)) if not b}


def branch_points(curve: SpectralCurve, tol: Tolerances = DEFAULT):
    """Roots (with multiplicity tags) of the discriminant Disc_xi of the curve."""
    disc = kernel.resultant(curve.grid, curve.dxi(), "xi")
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
    if kernel.min_gap(eigs) < DISC_GAP * max(1.0, np.abs(eigs).max()):
        raise NonGenericError("non-generic curve: leading matrix eigenvalues collide")
    roots, mults = branch_points(spectral_curve(phi), tol)
    if np.any(mults > 1):
        raise NonGenericError("non-generic curve: non-simple branch point")
    if kernel.min_gap(roots) < DISC_GAP * np.abs(roots).max(initial=1.0):
        raise NonGenericError("non-generic curve: clustered branch points")
    if roots.size % 2 != 0:
        raise NonGenericError("non-generic curve: odd branch count")
    return roots.size // 2 - r + 1


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
def structure_tensor(r: int, n: int, spec: BracketSpec) -> StructureTensor:
    """One bracket of the family, ready to evaluate matrix-free.

    Trims ``spec.a`` (``kernel.poly_trim``) and checks ``deg(a) <= n + 1`` once; the
    returned record stores no structure constants.
    """
    a = kernel.poly_trim(spec.a_array)
    if a.size > n + 2:
        raise ValueError("deg(a) must be at most n + 1")
    a, = kernel.frozen(np.pad(a, (0, 2 * n + 2 - a.size)))
    return StructureTensor(r=r, n=n, spec=spec, a=a)


def bracket(grad_f, grad_g, phi: MatPoly, spec: BracketSpec) -> complex:
    """Poisson bracket {F, G}(phi) = grad(F) . Pi(phi) . grad(G) of two
    observables, given their gradients in the flattened coefficient vector."""
    gf = np.asarray(grad_f, dtype=complex)
    gg = np.asarray(grad_g, dtype=complex)
    return complex(gf @ _poisson(phi, spec) @ gg)


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


def _levels(x, r, top, vander):
    """Faddeev--LeVerrier ``N`` (..., K, top + 1, r, r) at ``phi`` at the roots, ``x`` (..., N)."""
    phis = vander @ x.reshape(x.shape[:-1] + (len(vander[0]), -1))
    return kernel._faddeev_leverrier(phis.reshape(x.shape[:-1] + (-1, r, r)), top)[1]


@_memoized
def _gradients(phi: MatPoly) -> np.ndarray:
    """``spectral_gradient_matrix``'s ``G``, computed once per point; read-only."""
    r, n = phi.r, phi.n
    vander, level, rows = _covector_plan(r, n, tuple(spectral_positions(r, n)))
    N = _levels(phi.coeff_mats.reshape(-1), r, r - 1, vander)
    return kernel.frozen(_spectral_gradients(N, level, rows).reshape(len(level), -1))[0]


def spectral_gradient_matrix(phi: MatPoly):
    """Gradients of every spectral coefficient, via the adjugate.

    Returns ``(positions, G)`` where ``G[idx]`` is the gradient of the
    coefficient at ``positions[idx]`` with respect to the flattened phase
    coordinates.  ``G`` is computed once per point, read-only; ``positions`` is new.
    """
    return spectral_positions(phi.r, phi.n), _gradients(phi)


@_memoized
def _poisson(phi: MatPoly, spec: BracketSpec) -> np.ndarray:
    """``Pi`` at ``phi`` under ``spec``, once per point and bracket; read-only."""
    return kernel.frozen(structure_tensor(phi.r, phi.n, spec).poisson_matrix(phi.flatten()))[0]


def involution_max_residual(phi: MatPoly, spec: BracketSpec) -> float:
    """max |{H_i, H_j}| over all spectral-coefficient pairs, relative."""
    _, G = spectral_gradient_matrix(phi)
    pi = _poisson(phi, spec)
    B = G @ pi @ G.T
    norms = np.linalg.norm(G, axis=1)
    scale = norms[:, None] * norms[None, :] * max(np.linalg.norm(pi), 1e-30)
    return float(np.max(np.abs(B) / np.maximum(scale, 1e-30)))


@_memoized
def casimir_detect(phi: MatPoly, spec: BracketSpec):
    """Split the spectral coefficients into Hamiltonians and Casimirs at ``phi``.

    Row ``idx`` of ``F = G . Pi`` is the Hamiltonian field of the coefficient
    at ``positions[idx]`` (up to sign).  The fields span ``rank F`` dimensions,
    counting singular values above ``CASIMIR`` times the largest; on the
    generic stratum that is ``deg B = n r (r-1) / 2 = g + r - 1``, and any
    other rank raises ``NonGenericError``.  The Hamiltonians are the ``rank F``
    positions a greedy pivoted Gram--Schmidt on the rows of ``F`` picks (QR of
    ``F^T`` with column pivoting); the Casimirs are the positions whose field
    vanishes, below ``CASIMIR`` relative to ``|Pi| |grad C|``.  Both come
    back in ``spectral_positions`` order.  Under a general bracket some
    positions are neither: their fields are combinations of the Hamiltonians'
    fields.  Computed once per point and bracket.
    """
    r, n = phi.r, phi.n
    positions, G = spectral_gradient_matrix(phi)
    pi = _poisson(phi, spec)
    F = G @ pi
    sv = np.linalg.svd(F, compute_uv=False)
    deg_b = n * r * (r - 1) // 2
    rank = int(np.count_nonzero(sv > CASIMIR * sv[0]))
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
    cass = tuple(p for p, c in zip(positions, rel < CASIMIR) if c)
    return hams, cass


# ---------------------------------------------------------------------------
# divisor coordinates
# ---------------------------------------------------------------------------

@_memoized
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
    Computed once per point, hashable ``s`` and ``tol``; the arrays are read-only.
    The one-state case of ``_divisor_stack``.
    """
    return _divisor_stack([phi], s, tol)[0]


def _divisor_stack(phis, s=None, tol: Tolerances = DEFAULT):
    """``divisor_coords`` of every state of ``phis`` (one ``r`` and ``n``), each
    step by one call over all states: ``B`` by a Krylov determinant and FFT, its
    roots by ``kernel.poly_roots``, the points by ``kernel.divisor_points``.
    Raises where a state raises alone: first the checks on ``B``, then on the points."""
    r, n = phis[0].r, phis[0].n
    s, = kernel.frozen(np.eye(r, dtype=complex)[0] if s is None else np.array(s, dtype=complex))
    deg_b = n * r * (r - 1) // 2
    if deg_b == 0:
        return [DivisorCoords(*kernel.frozen(*np.zeros((2, 0), complex)), s)] * len(phis)
    # B at the deg B + 1 roots of unity, then its coefficients by one FFT
    cms = np.array([phi.coeff_mats for phi in phis]).swapaxes(0, 1)  # (n + 1, states, r, r)
    zk = np.exp(2j * np.pi * np.arange(deg_b + 1) / (deg_b + 1))
    Bs = np.fft.fft(np.linalg.det(kernel.krylov(kernel.poly_eval(
        cms, zk[:, None, None, None], tensor=False), s)), axis=0).T / zk.size
    low = kernel.poly_degree(Bs).min()
    if low < deg_b:
        raise NonGenericError(f"s = {s} is special for phi: B has degree {low} < deg B"
                              f" = {deg_b} (points over z = inf, or B = 0); pass another s")
    zroots, mults = zip(*kernel.poly_roots(Bs, tol))
    counts, mults = [len(m) for m in mults], np.concatenate(mults)
    # the Krylov space of s has codimension m at an m-fold root (at most r - 1)
    if mults.max() >= r:
        raise NonGenericError(f"s = {s} is special for phi: a root of B has "
                              "multiplicity r or more; pass another s")
    zroots, ms = np.concatenate(zroots), np.minimum(mults, r - 1)
    # the deg B points of every state by one call
    xi, resid = (v.reshape(len(phis), deg_b) for v in kernel.divisor_points(kernel.poly_eval(
        cms[:, np.repeat(np.arange(len(phis)), counts)], zroots[:, None, None], tensor=False),
        s, ms))
    valid = resid <= tol.divisor
    if not valid.all():
        raise ConsistencyError(f"{valid.sum(1).min()} of the {deg_b} zeros of B are divisor points")
    zs = np.repeat(zroots, ms).reshape(xi.shape)
    scale = np.abs(np.concatenate([zs, xi], axis=1)).max(axis=1, initial=1.0)
    degenerate = kernel.min_gap(zs, xi) < 100 * CLUSTER_MERGE * scale
    order = np.lexsort((xi.imag, xi.real, zs.imag, zs.real))
    # a state with fewer than deg B roots of B has a multiple one
    return [DivisorCoords(*kernel.frozen(z[o], x[o]), s, degenerate=bool(d or k < deg_b))
            for z, x, o, d, k in zip(zs, xi, order, degenerate, counts)]


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
    pi = _poisson(phi, spec)
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

_PLAN_TRIM = 1e-14  # of g's largest coefficient: rounding residue, so a Casimir's plan is empty
_LINEAR = BracketSpec(a=(1.0,), b=0.0)  # the bracket whose fields the flow plans keep


def _flow_covectors(r: int, n: int, position: tuple):
    """``flow``'s covector blocks ``blocks @ N_top`` of ``H = C_position``, ``N_top`` the
    recursion's level ``top = r - 1 - k`` at ``vander @ x``, so homogeneous of degree ``top``:
    ``(top, vander, blocks)``."""
    vander, level, rows = _covector_plan(r, n, (position,))
    top, E = int(level[0]), len(vander) * r * r
    unit = _spectral_gradients(np.eye(E).reshape(E, -1, 1, r, r), [0], rows)[:, 0]
    blocks = _covector_blocks(unit).reshape(2, (n + 1) * r, E, r).swapaxes(-2, -1).reshape(-1, E)
    return top, vander, blocks


@lru_cache(maxsize=None)
def _flow_plan(r: int, n: int, position: tuple):
    """The linear bracket's field ``X_{k,l}`` of ``H = C_position``, ``position = (k, l)``:
    ``(route, p, q)``, read-only, one per position.

    ``X_{k,l}`` has degree ``top + 1``, ``top = r - 1 - k`` the degree of its covector blocks
    ``g``.  Up to degree 3 the route is ``"monomials"``: ``p`` (degree, M) the sorted indices
    of its monomials into the point, ``q`` (N, M) their coefficients, read off the recursion
    for ``g`` (``kernel._monomials``), then off ``_lax_field`` at the unit points in chunks.
    Above, the route is ``"levels"``, ``(vander, blocks)``, contracted in every stage.
    ``flow_linearize``'s benchmark builds 8 plans and ``suite_isospectral`` 14.
    """
    top, vander, blocks = _flow_covectors(r, n, position)
    if top > 2:
        return ("levels",) + kernel.frozen(vander, blocks)
    N, a = (n + 1) * r * r, structure_tensor(r, n, _LINEAR).a
    gidx, G = kernel._monomials(
        lambda x: _levels(x, r, top, vander)[:, :, top].reshape(len(x), -1) @ blocks.T, N, top)
    size = np.abs(G).max(axis=1)
    floor = _PLAN_TRIM * size.max()
    gidx, G = gidx[size > floor], G[size > floor]
    g = G.T.reshape(2, -1, r, len(G)).swapaxes(-2, -1).reshape(2, (n + 1) * r, -1)
    step = max(1, N * N // max(1, len(G)))  # points per _lax_field call: its memory
    c = np.concatenate([_lax_field(y, g, a, 0.0) for y in np.split(  # at the unit points
        np.eye(N, dtype=complex), range(step, N, step))]).swapaxes(1, 2).reshape(-1, N)
    big = np.abs(c).max(axis=1) > floor
    terms = np.hstack([np.arange(N).repeat(len(G))[:, None], np.tile(gidx, (N, 1))])[big]
    p, which = np.unique(np.sort(terms, axis=1), axis=0, return_inverse=True)
    q = np.zeros((len(p), N), dtype=complex)
    np.add.at(q, which.ravel(), c[big])
    q = np.where(np.abs(q) > floor, q, 0.0)
    return ("monomials",) + kernel.frozen(p[q.any(axis=1)].T, q[q.any(axis=1)].T)


def flow(phi0: MatPoly, h_position, spec: BracketSpec, t_grid,
         tol: Tolerances = DEFAULT):
    """Integrate the Hamiltonian flow of ``H = C_{k,l}``, ``h_position = (k, l)``,
    and return the MatPoly states at the times ``t_grid``, ``phi0`` itself first.

    Under ``a(z) + b xi`` the field is ``sum_j a_j X_{k,l-j} + b X_{k-1,l}`` (Lenard), ``X``
    the linear bracket's fields of ``_flow_plan``: the ``"monomials"`` plans merge into one,
    lower degrees padded with a 1; the ``"levels"`` plans share one recursion and contraction.
    The new states link each other weakly (``_flow``): ``spectral_curve`` stacks them.
    """
    r, n, (k, l) = phi0.r, phi0.n, tuple(h_position)
    if (k, l) not in spectral_positions(r, n):
        raise ValueError(f"{h_position} is not a spectral coefficient position")
    a, N = structure_tensor(r, n, spec).a, (n + 1) * r * r
    terms = [(a[j], (k, l - j)) for j in np.flatnonzero(a[:l + 1])]
    mono, levels = [], []
    for c, pos in terms + [(spec.b, (k - 1, l))] * bool(spec.b and k):
        route, p, q = _flow_plan(r, n, pos)
        (mono if route == "monomials" else levels).append((c, r - 1 - pos[0], p, q))
    if len(mono) == 1 and mono[0][0] == 1:  # the plan as stored: no copy per flow
        p, q = mono[0][2:]
    else:  # each plan padded to degree 3
        p = np.hstack([np.zeros((3, 0), int)] + [np.pad(
            p, ((0, 3 - len(p)), (0, 0)), constant_values=N) for *_, p, _ in mono])
        q = np.hstack([np.zeros((N, 0))] + [c * q for c, _, _, q in mono])
    (first, *rest), pad = p, bool((p == N).any())
    lin_a = structure_tensor(r, n, _LINEAR).a if levels else None

    def field(t, x):
        x1 = np.append(x, 1.0) if pad else x
        m = x1[first]
        for i in rest:
            m = m * x1[i]
        if not levels:
            return q @ m
        Ns = _levels(x, r, levels[-1][1], levels[0][2])  # the b term, last, has the top level
        g = sum(c * (blocks @ Ns[:, lev].reshape(-1)) for c, lev, _, blocks in levels)
        out = _lax_field(x[None], g.reshape(2, -1, r), lin_a, 0.0).ravel()
        return out + q @ m if mono else out

    states = [MatPoly.from_flat(row, r, n) for row in ode_solve(field, phi0.flatten(), t_grid,
                                                                tol=tol)[1:]]
    link = tuple(map(weakref.ref, states))
    for state in states:
        object.__setattr__(state, "_flow", link)
    return [phi0] + states


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
