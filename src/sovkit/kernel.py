"""Complex polynomial and small-matrix kernel.

Conventions used across the package:

* a univariate polynomial is a 1-D ``complex128`` array of coefficients in
  ascending degree order (``c[k]`` multiplies ``x**k``);
* a bivariate polynomial is a 2-D grid ``c[k, l]`` multiplying ``xi**k z**l``;
* matrices are small (r <= 8) dense ``complex128`` arrays.

Everything here is a pure function of its inputs.
"""

import numpy as np
import numpy.polynomial.polynomial as npoly

from .errors import ConvergenceError, NonGenericError
from .tolerances import DEFAULT, Tolerances

__all__ = [
    "poly_trim", "poly_eval", "poly_der", "poly_roots", "char_bipoly", "adjugate",
    "matpoly_char_adj", "bipoly_trim", "bipoly_eval", "bipoly_dxi", "bipoly_dz",
    "resultant",
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


def _eval_scale(c, x):
    """Backward-error scale sum |c_k| |x|^k, floored at the max coefficient."""
    mags = npoly.polyval(np.abs(x), np.abs(np.asarray(c, dtype=complex)))
    return np.maximum(mags, np.abs(c).max())


# ---------------------------------------------------------------------------
# roots: Aberth--Ehrlich simultaneous iteration with multiplicity detection
# ---------------------------------------------------------------------------

def _aberth(monic, tol: Tolerances, rng, max_iter=400):
    deg = monic.size - 1
    dmonic = poly_der(monic)
    radius = 1.0 + np.abs(monic[:-1]).max()
    best = None
    best_res = np.inf
    for attempt in range(4):
        ang = 2.0 * np.pi * (np.arange(deg) + 0.37) / deg
        jitter = 1.0 + 0.05 * attempt * rng.standard_normal(deg)
        z = radius * jitter * np.exp(1j * (ang + 0.1 * attempt * rng.standard_normal(deg)))
        for _ in range(max_iter):
            pv = poly_eval(monic, z)
            res = np.abs(pv) / _eval_scale(monic, z)
            if np.all(res <= tol.root_residual):
                return z
            dv = poly_eval(dmonic, z)
            dv = np.where(dv == 0, 1e-300, dv)
            newton = pv / dv
            diff = z[:, None] - z[None, :]
            np.fill_diagonal(diff, 1.0)
            srec = np.sum(1.0 / diff, axis=1) - 1.0  # subtract the diagonal 1/1
            denom = 1.0 - newton * srec
            denom = np.where(np.abs(denom) < 1e-300, 1e-300, denom)
            step = newton / denom
            bad = ~np.isfinite(step)
            if bad.any():
                step = np.where(bad, 0.0, step)
                z = z + 1e-3 * radius * rng.standard_normal(deg) * bad
            z = z - step
        worst = np.max(np.abs(poly_eval(monic, z)) / _eval_scale(monic, z))
        if worst < best_res:
            best_res, best = worst, z.copy()
    raise ConvergenceError("root iteration did not converge", best=best)


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
        if dv == 0:
            break
        step = pv / dv
        c = c - step
        if abs(step) <= 1e-15 * max(1.0, abs(c)):
            break
    return c


def _validate_cluster(monic, center, m, tol: Tolerances):
    """Accept ``center`` as an m-fold root if p and its first m-1 derivatives vanish."""
    c = _polish_on_derivative(monic, center, m - 1)
    p = monic
    for j in range(m):
        resid = abs(poly_eval(p, c)) / _eval_scale(p, c)
        limit = 10.0 * tol.root_residual if j == 0 else 1e-7
        if resid > limit:
            return None
        p = poly_der(p)
    return c


def poly_roots(p, tol: Tolerances = DEFAULT, seed: int = 0):
    """All roots of ``p`` with multiplicity tags.

    Returns ``(roots, mults)`` with ``sum(mults) == deg(p)``. Raises
    ``ValueError("undefined roots")`` for the zero polynomial and
    ``ConvergenceError`` (carrying the best iterate) if the simultaneous
    iteration stalls.
    """
    c = poly_trim(p, tol)
    if c.size == 0:
        raise ValueError("undefined roots")
    deg = c.size - 1
    if deg == 0:
        return np.zeros(0, dtype=complex), np.zeros(0, dtype=int)
    monic = c / c[-1]
    if deg == 1:
        return np.array([-monic[0]]), np.array([1])

    rng = np.random.default_rng(seed)
    z = _aberth(monic, tol, rng)
    scale = max(1.0, np.abs(z).max())

    # agglomerative clustering with adaptive acceptance radius: a candidate
    # m-cluster of double-precision iterates spreads like root_residual**(1/m),
    # and a pair inside a higher cluster spreads at the higher rate, hence the
    # m+1 exponent; false merges are rejected by the derivative validation
    clusters = [[zi] for zi in z]
    centers = [zi for zi in z]
    merged = True
    while merged and len(clusters) > 1:
        merged = False
        nc = len(clusters)
        for i in range(nc):
            for j in range(i + 1, nc):
                m = len(clusters[i]) + len(clusters[j])
                m_eff = min(m + 1, deg)
                radius = scale * (10.0 * tol.root_residual ** (1.0 / m_eff) + tol.root_cluster)
                if abs(centers[i] - centers[j]) <= radius:
                    cand = clusters[i] + clusters[j]
                    ok = _validate_cluster(monic, np.mean(cand), m, tol)
                    if ok is not None:
                        clusters[i] = cand
                        centers[i] = ok
                        del clusters[j], centers[j]
                        merged = True
                        break
            if merged:
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
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("matrix must be square")
    return M


def char_bipoly(M):
    """Coefficients of det(M - xi*I) in ascending powers of xi.

    Division-free Faddeev--LeVerrier scheme; the leading coefficient is
    exactly (-1)**r.
    """
    M = _square(M)
    b, _ = _faddeev_leverrier(M)
    return (-1.0) ** M.shape[0] * b[::-1]


def adjugate(M):
    """Adjugate (matrix of cofactors transposed): adj(M) @ M = det(M) * I."""
    M = _square(M)
    r = M.shape[0]
    _, N = _faddeev_leverrier(M)
    return (-1.0) ** (r - 1) * N[r - 1]


def matpoly_char_adj(coeff_mats):
    """Characteristic data of a matrix polynomial phi(z).

    Runs the Faddeev--LeVerrier recursion once on phi evaluated at the
    ``K = r*n + 1`` roots of unity and recovers every coefficient in ``z``
    with one FFT, exact to rounding.

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
    K = r * (n1 - 1) + 1
    zs = np.exp(2j * np.pi * np.arange(K) / K)
    phis = np.tensordot(np.vander(zs, n1, increasing=True), cm, 1)   # (K, r, r)
    b, N = _faddeev_leverrier(phis)
    coeffs = np.fft.fft(np.concatenate([b, N.reshape(K, -1)], axis=1), axis=0) / K
    # det(phi - xi I) = (-1)^r det(xi I - phi) and
    # adj(phi - xi I) = (-1)^(r-1) adj(xi I - phi)
    C = (-1.0) ** r * coeffs[:, r::-1].T
    A = (-1.0) ** (r - 1) * np.moveaxis(coeffs[:, r + 1:].reshape(K, r, r, r)[:, ::-1],
                                        0, -1)
    # deg_z C_k <= (r-k) n and deg_z A_k <= (r-1-k) n: zero the rounding noise above
    above = np.arange(K) > (r - np.arange(r + 1))[:, None] * (n1 - 1)
    C[above] = 0.0
    A[np.broadcast_to(above[1:, None, None, :], A.shape)] = 0.0
    return C, A


# ---------------------------------------------------------------------------
# bivariate polynomials: grids c[k, l] ~ xi^k z^l
# ---------------------------------------------------------------------------

def bipoly_trim(c, tol: Tolerances = DEFAULT):
    c = np.atleast_2d(np.asarray(c, dtype=complex))
    top = np.abs(c).max() if c.size else 0.0
    if top == 0.0:
        return np.zeros((1, 1), dtype=complex)
    thresh = tol.zero_trim * top
    rows = np.where((np.abs(c) > thresh).any(axis=1))[0]
    cols = np.where((np.abs(c) > thresh).any(axis=0))[0]
    return c[: rows.max() + 1, : cols.max() + 1].copy()


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


def bipoly_dz(c):
    c = np.asarray(c, dtype=complex)
    if c.shape[1] <= 1:
        return np.zeros((c.shape[0], 1), dtype=complex)
    return c[:, 1:] * np.arange(1, c.shape[1])[None, :]


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
