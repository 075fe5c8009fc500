"""Complex polynomial and small-matrix kernel.

Conventions used across the package:

* a univariate polynomial is a 1-D ``complex128`` array of coefficients in
  ascending degree order (``c[k]`` multiplies ``x**k``);
* a bivariate polynomial is a 2-D grid ``c[k, l]`` multiplying ``xi**k z**l``;
* matrices are small (r <= 8) dense ``complex128`` arrays.

Polynomials are evaluated by Horner's rule, bit-identical to numpy.polynomial,
the tests' oracle.  Everything here is a pure function of its inputs.
"""

import math
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, NonGenericError
from .tolerances import CLUSTER_DERIVATIVE, DEFAULT, ROOT_CLUSTER, ZERO_TRIM, Tolerances

__all__ = [
    "poly_trim", "poly_degree", "poly_eval", "poly_der", "companion_roots", "poly_roots",
    "char_bipoly", "adjugate", "matpoly_char_adj", "krylov", "divisor_points", "bipoly_eval",
    "bipoly_dxi", "resultant", "min_gap",
]


# ---------------------------------------------------------------------------
# univariate polynomials
# ---------------------------------------------------------------------------

def poly_trim(c):
    """Drop trailing coefficients below ``ZERO_TRIM * max|c|``.

    The zero polynomial is canonically the empty array.
    """
    c = np.atleast_1d(np.asarray(c, dtype=complex))
    return c[: poly_degree(c) + 1].copy()


def poly_degree(c):
    """The degree of every row of ``c`` (..., k) after ``poly_trim``, -1 if zero."""
    a = np.abs(c)
    keep = ~(a <= ZERO_TRIM * a.max(axis=-1, keepdims=True, initial=0.0))
    return (keep * np.arange(1, a.shape[-1] + 1)).max(axis=-1, initial=0) - 1


def poly_eval(c, x, tensor=True):
    """``sum_k c[k] x**k`` for ``c`` of shape (deg+1, *s) by Horner's rule, in
    ``numpy.polynomial.polynomial.polyval``'s order and with its semantics: a
    scalar ``x`` gives shape ``s``, an array ``s + x.shape`` (``s`` and ``x.shape``
    broadcast if not ``tensor``).  The empty ``c`` is the zero polynomial."""
    c = np.array(c, dtype=complex, ndmin=1, copy=None)
    if c.size == 0:
        return np.zeros(np.shape(x), dtype=complex) if np.ndim(x) else 0.0 + 0.0j
    x = np.asarray(x) if isinstance(x, (tuple, list)) else x
    if tensor and isinstance(x, np.ndarray):
        c = c.reshape(c.shape + (1,) * x.ndim)
    out = c[-1] + x * 0
    for ck in c[-2::-1]:
        out = ck + out * x
    return out


def poly_der(c, m=1):
    """The ``m``-th derivative (deg+1-m, *s) of ``c`` (deg+1, *s): ``polyder``'s
    products ``k c[k]``, but the zero polynomial (empty) where ``deg < m``."""
    c = np.array(c, dtype=complex, ndmin=1, copy=None)
    for _ in range(m):
        if len(c) <= 1:
            return np.zeros((0,) + c.shape[1:], dtype=complex)
        # times 1 first, as polyder scales by ``scl``: the same signed zeros
        c = c[1:] * 1 * np.arange(1, len(c)).reshape((-1,) + (1,) * (c.ndim - 1))
    return c


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
    np.einsum("...ii->...i", d)[...] = np.inf  # d is a fresh array
    gap = d.min(axis=(-2, -1), initial=np.inf)
    return float(gap) if gap.ndim == 0 else gap


def _eval_scale(c, x):
    """Backward-error scale sum |c_k| |x|^k, floored at the max coefficient."""
    a = np.abs(c)
    return np.maximum(poly_eval(a, np.abs(x), tensor=False).real, a.max(axis=0))


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
    p = poly_der(monic, order)
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
        if resid > (10.0 * tol.root_residual if q == 0 else CLUSTER_DERIVATIVE):
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

    A stack ``p`` (m, deg+1) of rows of one trimmed degree (else ``ValueError``)
    gives a list of each row's own result, bit for bit (or the first failing
    row's error), every step run on all rows at once, the merge loop's first
    pair test too; only rows with a pair inside the radius run the loop.  A
    stack of no rows gives ``[]``.
    """
    p = np.atleast_1d(np.asarray(p, dtype=complex))
    degs = set(poly_degree(p).reshape(-1).tolist())
    if not degs:
        return []
    if min(degs) < 0 or len(degs) > 1:
        raise ValueError("undefined roots" if min(degs) < 0 else "rows of different degrees")
    deg = degs.pop()
    c = p.reshape(-1, p.shape[-1])[:, : deg + 1]
    if deg == 0:
        out = [(np.zeros(0, dtype=complex), np.zeros(0, dtype=int))] * len(c)
        return out if p.ndim > 1 else out[0]
    monic = c / c[:, -1:]
    cols = monic.T[..., None]                   # (deg+1, m, 1): one column per row
    dcols = poly_der(cols)
    z = companion_roots(monic)
    pv = poly_eval(cols, z, tensor=False)
    for _ in range(2):
        # near a multiple root p is rounding noise and p' nearly 0, so a step
        # is kept only where it lowers |p|; a subnormal p' would overflow
        dv = poly_eval(dcols, z, tensor=False)
        zn = z - np.divide(pv, dv, out=np.zeros_like(z), where=np.abs(dv) >= np.finfo(float).tiny)
        pn = poly_eval(cols, zn, tensor=False)
        lower = np.abs(pn) < np.abs(pv)
        z, pv = np.where(lower, zn, z), np.where(lower, pn, pv)
    bad = np.any(np.abs(pv) > tol.root_residual * _eval_scale(cols, z), axis=-1)
    if bad.any():
        raise ConvergenceError("root residuals above tolerance", best=z[bad.argmax()])
    scale = np.abs(z).max(axis=-1, keepdims=True, initial=1.0)
    close = _near_pairs(cols, z, np.ones(deg, dtype=int), scale, tol)[2].any(axis=-1)
    out = [(roots[np.lexsort((roots.imag, roots.real))], np.ones(deg, dtype=int)) for roots in z]
    for k in np.flatnonzero(close):
        out[k] = _merge_roots(monic[k], z[k], scale[k], tol)
    return out if p.ndim > 1 else out[0]


@lru_cache(maxsize=None)
def _pairs(k: int):
    return frozen(*np.triu_indices(k, 1))


def _near_pairs(cols, cen, sizes, scale, tol: Tolerances):
    """The merge loop's pair test on rows of monic columns ``cols``: ``i, j`` and the
    mask (rows, pairs) of clusters ``i < j`` (centres ``cen``, ``sizes`` roots) in the radius."""
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
    i, j = _pairs(len(sizes))
    m = sizes[i] + sizes[j]
    mid = 0.5 * (cen[:, i] + cen[:, j])
    taylor = np.empty(mid.shape)
    for mv in set(m.tolist()):
        t = poly_eval(poly_der(cols, mv), mid[:, m == mv], tensor=False) / math.factorial(mv)
        taylor[:, m == mv] = np.maximum(np.abs(t), 1e-300)
    spread = (tol.root_residual * _eval_scale(cols, mid) / taylor) ** (1.0 / m)
    radius = np.maximum(scale * (10.0 * tol.root_residual ** (
        1.0 / np.minimum(m + 1, len(cols) - 1)) + ROOT_CLUSTER), 10.0 * spread)
    return i, j, np.abs(cen[:, i] - cen[:, j]) <= radius


def _merge_roots(monic, z, scale, tol: Tolerances):
    """``poly_roots``' merge loop on the polished roots ``z`` of ``monic``."""
    clusters = [[zi] for zi in z]
    centers = [zi for zi in z]
    merged = True
    while merged and len(clusters) > 1:
        merged = False
        i, j, near = _near_pairs(monic[:, None, None], np.array(centers)[None],
                                 np.array([len(cl) for cl in clusters]), scale, tol)
        for k in np.flatnonzero(near[0]):
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

@lru_cache(maxsize=None)
def _identity(r: int):
    return frozen(np.eye(r))[0]


def _faddeev_leverrier(M, top=None):
    """Batched Faddeev--LeVerrier recursion on a stack ``M`` of shape (..., r, r).

    Returns ``(b, N)`` with ``det(xi I - M) = sum_k b[..., k] xi**(r-k)``
    (``b[..., 0] == 1`` exactly) and
    ``adj(xi I - M) = sum_k N[..., k, :, :] xi**(r-1-k)`` for k = 0 .. r-1.
    Given a level ``top < r``, the recursion stops there and returns only
    ``b[..., :top+1]`` and ``N[..., :top+1, :, :]``: no determinant trace.
    """
    r = M.shape[-1]
    last = r - 1 if top is None else top
    eye = _identity(r)
    b = np.empty(M.shape[:-2] + (r + 1 if top is None else top + 1,), dtype=complex)
    N = np.empty(M.shape[:-2] + (last + 1, r, r), dtype=complex)
    b[..., 0] = 1.0
    N[..., 0, :, :] = eye
    for k in range(1, last + 1):
        Mk = M @ N[..., k - 1, :, :] if k > 1 else M  # N_0 = I
        b[..., k] = -np.einsum("...ii->...", Mk) / k
        N[..., k, :, :] = Mk + b[..., k, None, None] * eye
    if top is None:  # the determinant needs only the trace of M @ N[r-1]
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


def _monomials(form, N: int, degree: int):
    """The monomials of ``form``, homogeneous of ``degree <= 2`` in ``N`` variables: sorted
    index rows (P, degree) and coefficients (P, ...), from one call of ``form`` at points (P,
    N): at 0; at every ``e_i``; by polarization, at every ``2 e_i``, then ``e_i + e_j``, ``i
    < j``, for ``Q(2 e_i) / 4`` and ``Q(e_i + e_j) - Q(e_i) - Q(e_j)``.  A form read off the
    recursion (a flow's covectors, an elliptic spectral invariant) is then a polynomial in
    its point with no recursion left to run."""
    eye = np.eye(N, dtype=complex)
    if degree < 2:
        count = N if degree else 1
        return np.arange(count)[:, None][:, :degree], form(eye[:count] * degree)
    i, j = np.triu_indices(N, 1)
    values = form(np.vstack([2 * eye, eye[i] + eye[j]]))
    diag = values[:N] / 4
    return (np.vstack([np.arange(N)[:, None].repeat(2, axis=1), np.column_stack([i, j])]),
            np.concatenate([diag, values[N:] - diag[i] - diag[j]]))


def adjugate(M):
    """Adjugate (matrix of cofactors transposed): adj(M) @ M = det(M) * I.

    A stack ``M`` of shape (..., r, r) gives the adjugate of every matrix.
    """
    M = _square(M)
    r = M.shape[-1]
    _, N = _faddeev_leverrier(M, r - 1)
    return (-1.0) ** (r - 1) * N[..., r - 1, :, :]


@lru_cache(maxsize=None)
def _char_adj_plan(r: int, n: int):
    """Vandermonde matrix at the r n + 1 roots of unity; ``keep[k, l] = l <= (r-k) n``."""
    zs = np.exp(2j * np.pi * np.arange(r * n + 1) / (r * n + 1))
    return frozen(np.vander(zs, n + 1, increasing=True), np.arange(r * n + 1) <= (
        r - np.arange(r + 1))[:, None] * n)


def matpoly_char_adj(coeff_mats):
    """Characteristic data of ``phi(z) = sum_k coeff_mats[k] z**k``, ``coeff_mats``
    (n+1, r, r), or of every matrix polynomial of a stack (..., n+1, r, r).

    Runs the Faddeev--LeVerrier recursion once on phi evaluated at the
    ``K = r*n + 1`` roots of unity (one matmul with a plan cached per ``(r, n)``)
    and recovers every coefficient in ``z`` with one FFT, exact to rounding; a
    stack is one recursion and one FFT, each row bit for bit its own call.
    Returns ``C`` (..., r+1, K), ``C[k, l]`` multiplying ``xi**k z**l`` in
    det(phi(z) - xi I) and exactly 0 where ``l > (r-k)*n``, and ``A`` (..., r, r,
    r, K) with ``adj(phi(z) - xi I) = sum_{k,l} A[k, :, :, l] xi**k z**l``,
    exactly 0 where ``l > (r-1-k)*n``.
    """
    cm = np.asarray(coeff_mats, dtype=complex)
    *lead, n1, r, _ = cm.shape
    vander, keep = _char_adj_plan(r, n1 - 1)
    K = vander.shape[0]
    phis = (vander @ cm.reshape(*lead, n1, -1)).reshape(*lead, K, r, r)
    b, N = _faddeev_leverrier(phis)
    coeffs = np.fft.fft(np.concatenate([b, N.reshape(*lead, K, -1)], axis=-1), axis=-2) / K
    # det(phi - xi I) = (-1)^r det(xi I - phi) and
    # adj(phi - xi I) = (-1)^(r-1) adj(xi I - phi); deg_z C_k <= (r-k) n and
    # deg_z A_k <= (r-1-k) n: where() sets the rounding noise above to +0
    C = np.where(keep, (-1.0) ** r * coeffs[..., r::-1].swapaxes(-1, -2), 0.0)
    A = np.where(keep[1:, None, None], (-1.0) ** (r - 1) * coeffs[..., r + 1:].reshape(
        *lead, K, r, r, r)[..., ::-1, :, :].transpose(*range(len(lead)), -3, -2, -1, -4), 0.0)
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
    r, ms = phis.shape[-1], np.asarray(ms, dtype=int)
    U, xi = np.linalg.svd(krylov(phis, s))[0], np.empty(ms.sum(), dtype=complex)
    for m in set(ms.tolist()):  # the phis of one multiplicity as one stack
        k, V = ms == m, U[ms == m, :, r - m:]
        xi[(np.cumsum(ms) - ms)[k, None] + np.arange(m)] = np.linalg.eigvals(
            V.conj().swapaxes(-1, -2) @ phis[k] @ V)
    at = np.repeat(np.arange(len(phis)), ms)
    phis, s = phis[at], np.broadcast_to(s, phis.shape[:-1])[at]
    c = char_bipoly(phis).T                     # column i: the coefficients at phis[i]
    dc = poly_der(c)
    for _ in range(2):
        d = poly_eval(dc, xi, tensor=False)
        xi = xi - np.divide(poly_eval(c, xi, tensor=False), d,
                            out=np.zeros_like(d), where=d != 0)
    M = phis - xi[:, None, None] * _identity(r)
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
    inner = poly_eval(np.asarray(c).T, np.asarray(z, dtype=complex))  # sum_l c[k,l] z^l
    return poly_eval(inner, np.asarray(xi, dtype=complex), tensor=False)


def bipoly_dxi(c):
    d = poly_der(c)
    return d if len(d) else np.zeros((1, d.shape[1]), dtype=complex)


def _xi_degree(c):
    c = np.asarray(c, dtype=complex)
    top = np.abs(c).max()
    if top == 0.0:
        return -1
    rows = np.where((np.abs(c) > ZERO_TRIM * top).any(axis=1))[0]
    return int(rows.max()) if rows.size else -1


def resultant(p, q, eliminate="xi"):
    """Sylvester resultant of two bivariate polynomials.

    Eliminates ``xi`` (grid axis 0) or ``z`` (axis 1) and returns a 1-D polynomial
    in the surviving variable: one stacked determinant of its Sylvester matrices at
    ``K`` roots of unity, then an FFT, which keeps the Vandermonde system unitary.
    """
    p = np.atleast_2d(np.asarray(p, dtype=complex))
    q = np.atleast_2d(np.asarray(q, dtype=complex))
    if eliminate == "z":
        p, q = p.T, q.T
    elif eliminate != "xi":
        raise ValueError("eliminate must be 'xi' or 'z'")
    dp, dq = _xi_degree(p), _xi_degree(q)
    if dp < 1 or dq < 1:
        raise NonGenericError("resultant degenerate")
    p = p[: dp + 1]
    q = q[: dq + 1]
    degz = (p.shape[1] - 1, q.shape[1] - 1)
    K = dp * degz[1] + dq * degz[0] + 1  # one more than the degree bound
    zs = np.exp(2j * np.pi * np.arange(K) / K)
    pc = poly_eval(p.T, zs)[::-1].T        # (K, dp+1): descending xi at each node
    qc = poly_eval(q.T, zs)[::-1].T
    S = np.zeros((K, dp + dq, dp + dq), dtype=complex)
    for row in range(dq):
        S[:, row, row: row + dp + 1] = pc
    for row in range(dp):
        S[:, dq + row, row: row + dq + 1] = qc
    coeffs = np.fft.fft(np.linalg.det(S)) / K
    return poly_trim(coeffs)
