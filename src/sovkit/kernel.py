"""Complex polynomial and small-matrix kernel.

Conventions used across the package:

* a univariate polynomial is a 1-D ``complex128`` array of coefficients in
  ascending degree order (``c[k]`` multiplies ``x**k``);
* a bivariate polynomial is a 2-D grid ``c[k, l]`` multiplying ``xi**k z**l``;
* matrices are small (r <= 8) dense ``complex128`` arrays.

Everything here is a pure function of its inputs.
"""

import math
from functools import lru_cache

import numpy as np
import numpy.polynomial.polynomial as npoly

from .errors import ConvergenceError, NonGenericError
from .tolerances import DEFAULT, Tolerances

__all__ = [
    "poly_trim", "poly_eval", "poly_der", "companion_roots", "poly_roots", "char_bipoly",
    "adjugate", "matpoly_char_adj", "krylov", "divisor_points", "bipoly_eval",
    "bipoly_dxi", "resultant", "min_gap",
]


# ---------------------------------------------------------------------------
# univariate polynomials
# ---------------------------------------------------------------------------

def poly_trim(c, tol: Tolerances = DEFAULT):
    """Drop trailing coefficients below ``zero_trim * max|c|``.

    The zero polynomial is canonically the empty array.
    """
    c = np.atleast_1d(np.asarray(c, dtype=complex))
    if c.size == 0:
        return c
    top = np.abs(c).max()
    if top == 0.0:
        return c[:0]
    thresh = tol.zero_trim * top
    k = c.size - 1
    while k >= 0 and abs(c[k]) <= thresh:
        k -= 1
    return c[: k + 1].copy()


def poly_eval(c, x):
    c = np.asarray(c, dtype=complex)
    if c.size == 0:
        return np.zeros(np.shape(x), dtype=complex) if np.ndim(x) else 0.0 + 0.0j
    return npoly.polyval(x, c)


def poly_der(c):
    c = np.asarray(c, dtype=complex)
    if c.size <= 1:
        return np.zeros(0, dtype=complex)
    return npoly.polyder(c)


def frozen(*arrays):
    """The arrays, read-only: a cache or module table shares them with every caller."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


def min_gap(*vals):
    """Smallest ``sum_v |v[i] - v[j]|`` over pairs ``i != j`` of points given
    by equal-length 1-D coordinate arrays ``vals``; ``inf`` below two points.
    For stacks ``(..., points)`` it is one gap per leading index."""
    d = sum(np.abs(v[..., :, None] - v[..., None, :]) for v in vals)
    gap = np.where(np.eye(d.shape[-1], dtype=bool), np.inf, d).min(axis=(-2, -1), initial=np.inf)
    return float(gap) if gap.ndim == 0 else gap


def _eval_scale(c, x):
    """Backward-error scale sum |c_k| |x|^k, floored at the max coefficient."""
    mags = npoly.polyval(np.abs(x), np.abs(np.asarray(c, dtype=complex)))
    return np.maximum(mags, np.abs(c).max())


# ---------------------------------------------------------------------------
# roots: companion eigenvalues, Newton-polished, with multiplicity detection
# ---------------------------------------------------------------------------

def companion_roots(c):
    """The roots of every row of a stack ``c`` (..., deg+1) of ascending
    coefficients with a nonzero last entry, shape (..., deg): one stacked
    ``eigvals`` of the companion matrices that ``np.roots`` builds, backward
    stable (Edelman and Murakami, Math. Comp. 64 (1995))."""
    c = np.asarray(c, dtype=complex)[..., ::-1]
    deg = c.shape[-1] - 1
    companion = np.zeros(c.shape[:-1] + (deg, deg), dtype=complex)
    companion[..., 1:, :-1] = np.eye(deg - 1)
    companion[..., 0, :] = -c[..., 1:] / c[..., :1]
    return np.linalg.eigvals(companion)


def _polish_on_derivative(monic, c0, order):
    """Newton-polish ``c0`` on the ``order``-th derivative (simple root there)."""
    p = monic
    for _ in range(order):
        p = poly_der(p)
    dp = poly_der(p)
    c = c0
    for _ in range(60):
        pv = poly_eval(p, c)
        dv = poly_eval(dp, c)
        if abs(dv) < np.finfo(float).tiny:  # a subnormal divisor overflows
            break
        step = pv / dv
        c = c - step
        if abs(step) <= 1e-15 * max(1.0, abs(c)):
            break
    return c


def _validate_cluster(monic, members, tol: Tolerances):
    """The m-fold root ``c`` polished from the mean of the m ``members``, if p
    and its first m-1 derivatives vanish at ``c`` and every member lies within
    ten spreads ``(root_residual S(c) / |p^(q)(c) / q!|)^(1/q)`` of it, ``q >= m``
    the order of the first derivative that does not vanish there; else None."""
    m = len(members)
    c = _polish_on_derivative(monic, np.mean(members), m - 1)
    p = monic
    for q in range(monic.size):  # the deg-th derivative is a nonzero constant
        resid = abs(poly_eval(p, c)) / _eval_scale(p, c)
        if resid > (10.0 * tol.root_residual if q == 0 else tol.cluster_derivative):
            break
        p = poly_der(p)
    if q < m:
        return None
    spread = (tol.root_residual * _eval_scale(monic, c) * math.factorial(q)
              / abs(poly_eval(p, c))) ** (1.0 / q)
    return c if np.abs(np.subtract(members, c)).max() <= 10.0 * spread else None


def poly_roots(p, tol: Tolerances = DEFAULT):
    """All roots of ``p`` with multiplicity tags.

    The companion eigenvalues (``companion_roots``), then two Newton steps,
    each kept where it lowers ``|p|``; every root must satisfy
    ``|p| <= root_residual`` times the evaluation scale, and roots that agree
    to their spread are merged into validated multiple roots.  Returns
    ``(roots, mults)`` with ``sum(mults) == deg(p)``.  Raises
    ``ValueError("undefined roots")`` for the zero polynomial and
    ``ConvergenceError`` (carrying the roots) if a residual stays above that.
    """
    c = poly_trim(p, tol)
    if c.size == 0:
        raise ValueError("undefined roots")
    deg = c.size - 1
    if deg == 0:
        return np.zeros(0, dtype=complex), np.zeros(0, dtype=int)
    monic = c / c[-1]
    dmonic = poly_der(monic)
    z = companion_roots(monic)
    pv = poly_eval(monic, z)
    for _ in range(2):
        # near a multiple root p is rounding noise and p' nearly 0, so a step
        # is kept only where it lowers |p|; a subnormal p' would overflow
        dv = poly_eval(dmonic, z)
        zn = z - np.divide(pv, dv, out=np.zeros_like(z), where=np.abs(dv) >= np.finfo(float).tiny)
        pn = poly_eval(monic, zn)
        lower = np.abs(pn) < np.abs(pv)
        z, pv = np.where(lower, zn, z), np.where(lower, pn, pv)
    if np.any(np.abs(pv) > tol.root_residual * _eval_scale(monic, z)):
        raise ConvergenceError("root residuals above tolerance", best=z)
    scale = max(1.0, np.abs(z).max())

    # agglomerative clustering with adaptive acceptance radius: a candidate
    # m-cluster of double-precision roots spreads like root_residual**(1/m),
    # and a pair inside a higher cluster spreads at the higher rate, hence the
    # m+1 exponent; false merges are rejected by _validate_cluster.
    # Every root has |p| <= root_residual * S (S the evaluation scale), and
    # near an m-fold root x, p ~ t (z - x)**m with t = p^(m)(x) / m!, so the
    # roots may also spread up to (root_residual * S / |t|)**(1/m), which
    # is large when other roots crowd x; the radius covers ten such spreads.
    # At the midpoint of two simple roots t can vanish (a triple root there),
    # so the validation measures the spread again at the polished centre
    clusters = [[zi] for zi in z]
    centers = [zi for zi in z]
    merged = True
    while merged and len(clusters) > 1:
        merged = False
        i, j = np.triu_indices(len(clusters), 1)
        cen = np.array(centers)
        m = np.array([len(cl) for cl in clusters])
        m = m[i] + m[j]
        mid = 0.5 * (cen[i] + cen[j])
        taylor = np.empty(m.shape)
        for mv in set(m.tolist()):
            t = poly_eval(npoly.polyder(monic, mv), mid[m == mv]) / math.factorial(mv)
            taylor[m == mv] = np.maximum(np.abs(t), 1e-300)
        spread = (tol.root_residual * _eval_scale(monic, mid) / taylor) ** (1.0 / m)
        radius = np.maximum(scale * (10.0 * tol.root_residual ** (1.0 / np.minimum(m + 1, deg))
                                     + tol.root_cluster), 10.0 * spread)
        for k in np.flatnonzero(np.abs(cen[i] - cen[j]) <= radius):
            cand = clusters[i[k]] + clusters[j[k]]
            ok = _validate_cluster(monic, cand, tol)
            if ok is not None:
                clusters[i[k]] = cand
                centers[i[k]] = ok
                del clusters[j[k]], centers[j[k]]
                merged = True
                break

    roots = np.array(centers)
    mults = np.array([len(cl) for cl in clusters], dtype=int)
    order = np.lexsort((roots.imag, roots.real))
    return roots[order], mults[order]


# ---------------------------------------------------------------------------
# characteristic polynomial and adjugate (Faddeev--LeVerrier, division-free)
# ---------------------------------------------------------------------------

def _faddeev_leverrier(M):
    """Batched Faddeev--LeVerrier recursion on a stack ``M`` of shape (..., r, r).

    Returns ``(b, N)`` with ``det(xi I - M) = sum_k b[..., k] xi**(r-k)``
    (``b[..., 0] == 1`` exactly) and
    ``adj(xi I - M) = sum_k N[..., k, :, :] xi**(r-1-k)`` for k = 0 .. r-1.
    """
    r = M.shape[-1]
    eye = np.eye(r)
    b = np.zeros(M.shape[:-2] + (r + 1,), dtype=complex)
    N = np.zeros(M.shape[:-2] + (r, r, r), dtype=complex)
    b[..., 0] = 1.0
    N[..., 0, :, :] = eye
    for k in range(1, r):
        Mk = M @ N[..., k - 1, :, :]
        b[..., k] = -np.einsum("...ii->...", Mk) / k
        N[..., k, :, :] = Mk + b[..., k, None, None] * eye
    # the last step needs only the trace of M @ N[r-1], not the product
    b[..., r] = -np.einsum("...ij,...ji->...", M, N[..., r - 1, :, :]) / r
    return b, N


def _square(M):
    M = np.asarray(M, dtype=complex)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise ValueError("matrix must be square")
    return M


def char_bipoly(M):
    """Coefficients of det(M - xi*I) in ascending powers of xi.

    Division-free Faddeev--LeVerrier scheme; the leading coefficient is
    exactly (-1)**r.  A stack ``M`` of shape (..., r, r) gives (..., r+1).
    """
    M = _square(M)
    b, _ = _faddeev_leverrier(M)
    return (-1.0) ** M.shape[-1] * b[..., ::-1]


def adjugate(M):
    """Adjugate (matrix of cofactors transposed): adj(M) @ M = det(M) * I.

    A stack ``M`` of shape (..., r, r) gives the adjugate of every matrix.
    """
    M = _square(M)
    r = M.shape[-1]
    _, N = _faddeev_leverrier(M)
    return (-1.0) ** (r - 1) * N[..., r - 1, :, :]


@lru_cache(maxsize=None)
def _char_adj_plan(r: int, n: int):
    """Vandermonde matrix at the r n + 1 roots of unity; ``keep[k, l] = l <= (r-k) n``."""
    zs = np.exp(2j * np.pi * np.arange(r * n + 1) / (r * n + 1))
    return frozen(np.vander(zs, n + 1, increasing=True), np.arange(r * n + 1) <= (
        r - np.arange(r + 1))[:, None] * n)


def matpoly_char_adj(coeff_mats):
    """Characteristic data of a matrix polynomial phi(z).

    Runs the Faddeev--LeVerrier recursion once on phi evaluated at the
    ``K = r*n + 1`` roots of unity (one matmul with a plan cached per ``(r, n)``)
    and recovers every coefficient in ``z`` with one FFT, exact to rounding.

    Parameters
    ----------
    coeff_mats : array (n+1, r, r)
        Coefficient matrices of phi(z) = sum_k coeff_mats[k] z**k.

    Returns
    -------
    C : array (r+1, r*n+1)
        ``C[k, l]`` multiplies ``xi**k z**l`` in det(phi(z) - xi I); entries
        with ``l > (r-k)*n`` are exactly 0.
    A : array (r, r, r, r*n+1)
        ``adj(phi(z) - xi I) = sum_{k,l} A[k, :, :, l] xi**k z**l``; entries
        with ``l > (r-1-k)*n`` are exactly 0.
    """
    cm = np.asarray(coeff_mats, dtype=complex)
    n1, r, _ = cm.shape
    vander, keep = _char_adj_plan(r, n1 - 1)
    K = vander.shape[0]
    phis = (vander @ cm.reshape(n1, -1)).reshape(K, r, r)
    b, N = _faddeev_leverrier(phis)
    coeffs = np.fft.fft(np.concatenate([b, N.reshape(K, -1)], axis=1), axis=0) / K
    # det(phi - xi I) = (-1)^r det(xi I - phi) and
    # adj(phi - xi I) = (-1)^(r-1) adj(xi I - phi); deg_z C_k <= (r-k) n and
    # deg_z A_k <= (r-1-k) n: where() sets the rounding noise above to +0
    C = np.where(keep, (-1.0) ** r * coeffs[:, r::-1].T, 0.0)
    A = np.where(keep[1:, None, None], (-1.0) ** (r - 1) * coeffs[:, r + 1:].reshape(
        K, r, r, r)[:, ::-1].transpose(1, 2, 3, 0), 0.0)
    return C, A


def krylov(M, s):
    """Krylov matrices [s, M s, ..., M^(r-1) s] of a stack ``M`` (..., r, r);
    ``s`` has shape (r,) or one vector per matrix, (..., r)."""
    cols = [np.broadcast_to(s, M.shape[:-1])]
    for _ in range(M.shape[-1] - 1):
        cols.append(np.einsum("...ij,...j->...i", M, cols[-1]))
    return np.stack(cols, axis=-1)


def divisor_points(phis, s, ms):
    """The separating points over the zeros of Sklyanin's ``B``: the ``xi``
    with ``adj(phi - xi I) s = 0`` for each ``phi`` of a stack (m, r, r), ``s``
    of shape (r,) or (m, r), and one residual per point.

    Over ``phis[i]`` there are ``ms[i]`` points: the eigenvalues of ``phi`` on
    the ``ms[i]``-dimensional left null space of its Krylov matrix
    (``phi``-invariant by Cayley--Hamilton), each given 2 Newton steps on
    ``det(phi - xi I)``.  The residual is the larger of
    ``|det M| / (max |char coeff| max(1, |xi|)^r)`` and
    ``|adj(M) s| / (|adj M| |s|)``, ``M = phi - xi I``.  Returns ``(xi,
    residual)``, each of length ``sum(ms)``, the points of ``phis[i]`` in
    order.
    """
    r = phis.shape[-1]
    U = np.linalg.svd(krylov(phis, s))[0]
    xi = np.concatenate([np.zeros(0, dtype=complex)]
                        + [np.linalg.eigvals(u[:, r - m:].conj().T @ p @ u[:, r - m:])
                           for u, p, m in zip(U, phis, ms)])
    at = np.repeat(np.arange(len(phis)), ms)
    phis, s = phis[at], np.broadcast_to(s, phis.shape[:-1])[at]
    c = char_bipoly(phis).T                     # column i: the coefficients at phis[i]
    for _ in range(2):
        d = npoly.polyval(xi, npoly.polyder(c), tensor=False)
        xi = xi - np.divide(npoly.polyval(xi, c, tensor=False), d,
                            out=np.zeros_like(d), where=d != 0)
    M = phis - xi[:, None, None] * np.eye(r)
    adj = adjugate(M)
    pres = np.abs(np.linalg.det(M)) / (np.abs(c).max(axis=0) * np.maximum(1.0, np.abs(xi)) ** r)
    vres = (np.abs(np.einsum("mij,mj->mi", adj, s)).max(axis=-1)
            / (np.abs(adj).max(axis=(-2, -1)) * np.abs(s).max(axis=-1)))
    return xi, np.maximum(pres, vres)


# ---------------------------------------------------------------------------
# bivariate polynomials: grids c[k, l] ~ xi^k z^l
# ---------------------------------------------------------------------------

def bipoly_eval(c, z, xi):
    """Evaluate sum c[k, l] xi^k z^l (vectorized over broadcastable z, xi)."""
    c = np.asarray(c, dtype=complex)
    z = np.asarray(z, dtype=complex)
    xi = np.asarray(xi, dtype=complex)
    inner = npoly.polyval(z, c.T)        # inner[k, ...] = sum_l c[k,l] z^l
    out = np.zeros(np.broadcast(z, xi).shape, dtype=complex)
    for k in range(c.shape[0] - 1, -1, -1):
        out = out * xi + inner[k]
    return out


def bipoly_dxi(c):
    c = np.asarray(c, dtype=complex)
    if c.shape[0] <= 1:
        return np.zeros((1, c.shape[1]), dtype=complex)
    return c[1:, :] * np.arange(1, c.shape[0])[:, None]


def _xi_degree(c, tol: Tolerances):
    c = np.asarray(c, dtype=complex)
    top = np.abs(c).max()
    if top == 0.0:
        return -1
    rows = np.where((np.abs(c) > tol.zero_trim * top).any(axis=1))[0]
    return int(rows.max()) if rows.size else -1


def resultant(p, q, eliminate="xi", tol: Tolerances = DEFAULT):
    """Sylvester resultant of two bivariate polynomials.

    Eliminates ``xi`` (grid axis 0) or ``z`` (axis 1) and returns a 1-D
    polynomial in the surviving variable.  Uses evaluation at scaled roots of
    unity plus FFT interpolation, which keeps the Vandermonde system unitary.
    """
    p = np.atleast_2d(np.asarray(p, dtype=complex))
    q = np.atleast_2d(np.asarray(q, dtype=complex))
    if eliminate == "z":
        p, q = p.T, q.T
    elif eliminate != "xi":
        raise ValueError("eliminate must be 'xi' or 'z'")
    dp, dq = _xi_degree(p, tol), _xi_degree(q, tol)
    if dp < 1 or dq < 1:
        raise NonGenericError("resultant degenerate")
    p = p[: dp + 1]
    q = q[: dq + 1]
    degz = (p.shape[1] - 1, q.shape[1] - 1)
    bound = dp * degz[1] + dq * degz[0]
    K = bound + 1
    zs = np.exp(2j * np.pi * np.arange(K) / K)
    vals = np.empty(K, dtype=complex)
    n = dp + dq
    for s, zval in enumerate(zs):
        pc = npoly.polyval(zval, p.T)    # coefficients in xi at z = zval
        qc = npoly.polyval(zval, q.T)
        S = np.zeros((n, n), dtype=complex)
        for row in range(dq):
            S[row, row: row + dp + 1] = pc[::-1]
        for row in range(dp):
            S[dq + row, row: row + dq + 1] = qc[::-1]
        vals[s] = np.linalg.det(S)
    coeffs = np.fft.fft(vals) / K
    return poly_trim(coeffs, tol)
