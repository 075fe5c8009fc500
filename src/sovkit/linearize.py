"""Linearizing coordinates: sums of Abelian integrals over divisor points.

For a bracket whose surface structure is (a(z) + b xi) dz ^ dxi the conjugate
momentum primitive p(z, xi) satisfies dp/dxi = 1/(a(z) + b xi); the
linearizing coordinate attached to the spectral coefficient H_i is

    Q_i = sum_mu  int_{z0}^{z_mu}  dp/dH_i dz,
    dp/dH_i = -(xi^k z^l) / ((a(z) + b xi) dP/dxi)   at H_i ~ position (k, l),

integrated along the sheet of the curve that ends at (z_mu, xi_mu).  Straight
z-paths are re-routed around branch points (``_routes``).  ``sheet_integrals``
cuts every segment into pieces sized by the predicted sheet move (``_cut``),
steps all pieces of all paths in lockstep (``_walk``: Gauss-Legendre panels,
roots at the step ends, Newton-polished at the nodes) and joins the pieces'
sheets at their junctions; ``linearize`` walks all its paths at once.

The infinitesimal form needs no path: along the flow of H_j the Abel map
moves by ``S = Omega V``, the integrand at the divisor points times the
divisor's velocities, and ``S`` is the identity (``slope_matrix``).
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import kernel
from .errors import ConsistencyError, MatchingError, NonGenericError, NumericDomainError
from .numeric import _GL_NODES as _NODES, _GL_WEIGHTS as _WEIGHTS
from .rational import (BracketSpec, DivisorCoords, MatPoly, SpectralCurve, _divisor_stack,
                       _poisson, branch_points, casimir_detect, divisor_jacobian,
                       spectral_curve, spectral_gradient_matrix)
from .tolerances import BRANCH_AVOID, DEFAULT, Tolerances

__all__ = ["LinearizeResult", "build_path", "sheet_integrals", "slope_matrix",
           "linearize", "pick_base_point"]


# ---------------------------------------------------------------------------
# paths around branch points
# ---------------------------------------------------------------------------

def _segment_clearance(a, b, point):
    """Distance from ``point`` (or each of an array) to segment [a, b] (or each of arrays),
    the closest-approach foot and its parameter; ``hypot`` rounds ``|b - a|`` alike for both."""
    d = b - a
    t = np.clip(np.real(np.conj(d) * (point - a)) / np.hypot(d.real, d.imag) ** 2, 0.0, 1.0)
    foot = a + t * d
    return abs(point - foot), foot, t


def _hits(z0, z1, a, b, branch_pts):
    """On paths ``z0 -> z1`` (...): their scale (..., 1) ``max(|z0|, |z1|, |branch_pts|, 1)``,
    the avoidance radii (..., points) and the mask of the branch points inside whose radius,
    and within half the distance to the nearer end, the segments ``a -> b`` pass."""
    z01, a, b = (np.asarray(v)[..., None] for v in ([z0, z1], a, b))
    scale = np.maximum(np.hypot(z01.real, z01.imag).max(0), np.abs(branch_pts).max(initial=1.0))
    sep = np.abs(branch_pts[:, None] - branch_pts) + np.diag(np.full(branch_pts.size, np.inf))
    radii = np.minimum(BRANCH_AVOID * scale, 0.25 * sep.min(axis=1, initial=np.inf))
    ends = np.minimum(np.abs(branch_pts - a), np.abs(branch_pts - b))
    dist, _, t = _segment_clearance(a, b, branch_pts)
    return scale, radii, (ends >= 1e-12) & (dist < np.minimum(radii, ends / 2)) & (0 < t) & (t < 1)


def build_path(z0, z1, branch_pts):
    """Piecewise-linear path z0 -> z1 avoiding branch points.

    A straight segment passing within a branch point's avoidance radius gets
    a perpendicular detour waypoint at twice that radius, around the first
    such branch point.  The radius is ``BRANCH_AVOID`` times the path scale,
    capped at a quarter of the distance to the nearest other branch point and
    half the distance to the segment's endpoints, so a detour never lands
    inside a neighbour's radius.  After three re-routing rounds the path is
    declared unroutable.
    """
    branch_pts = np.asarray(branch_pts, dtype=complex)
    waypoints = [complex(z0), complex(z1)]
    for _ in range(3):
        out = [waypoints[0]]
        for a, b in zip(waypoints, waypoints[1:]):
            scale, radii, hit = _hits(z0, z1, a, b, branch_pts)
            hit = np.flatnonzero(hit)
            if hit.size:  # the first one, in scalar arithmetic: vector loops round otherwise
                bp = branch_pts[hit[0]]
                r_avoid = min(radii[hit[0]], 0.5 * min(abs(bp - a), abs(bp - b)))
                dist, foot, _ = _segment_clearance(a, b, bp)
                normal = (foot - bp) / dist if dist > 1e-12 * scale else 1j * (b - a) / abs(b - a)
                out.append(bp + 2.0 * r_avoid * normal)
            out.append(b)
        if len(out) == len(waypoints):
            return waypoints
        waypoints = out
    raise NumericDomainError("path could not be routed around branch points")


def _routes(z_start, z_end, branch_pts):
    """``build_path`` of every pair ``z_start -> z_end`` (arrays), bit for bit, by one
    broadcast test: only a straight segment that enters a radius goes through its rounds."""
    detour = _hits(z_start, z_end, z_start, z_end, branch_pts)[2].any(axis=-1)
    return [build_path(a, b, branch_pts) if d else [complex(a), complex(b)]
            for a, b, d in zip(z_start, z_end, detour)]


def pick_base_point(branch_pts):
    """Deterministic base point well away from every branch point."""
    branch_pts = np.asarray(branch_pts, dtype=complex)
    candidates = 1.6 * np.abs(branch_pts).max(initial=1.0) * np.exp(
        2j * np.pi * (np.arange(16) + 0.27) / 16)
    return complex(candidates[np.abs(candidates[:, None] - branch_pts).min(
        axis=1, initial=np.inf).argmax()])


# ---------------------------------------------------------------------------
# sheet-tracked panels
# ---------------------------------------------------------------------------

_FRAC, = kernel.frozen((_NODES + 1.0) / 2.0)
_SAMPLES = np.linspace(0.0, 1.0, 9)  # where ``_cut`` reads the sheets along a segment
_MOVE = 0.2                          # a piece moves the fastest sheet about _MOVE g
_MAX_PIECES = 64                     # per segment


def _curve_roots(Pg_T, z):
    """The xi-roots over every ``z``, shape ``z.shape + (r,)``."""
    return kernel.companion_roots(np.moveaxis(kernel.poly_eval(Pg_T, z), 0, -1))


def _cut(grid, a, b):
    """The segments ``a -> b`` cut into pieces sized by the predicted sheet
    move: ``(seg, start, end)``, each piece's segment and ends, in order.  At
    9 points of a segment (one stacked companion call) the fastest sheet
    moves ``_MOVE g``, ``g`` the sheet gap, over ``|dz| = _MOVE g / max |P_z /
    P_xi|``; the segment is cut at equal steps of the trapezoid integral of
    ``1 / |dz|``, into ``ceil`` of its total (1 to ``_MAX_PIECES``) pieces
    (step-length adaptation, Allgower and Georg, Numerical Continuation
    Methods, 1990)."""
    zs, segs = (a[:, None] + (b - a)[:, None] * _SAMPLES)[..., None], np.arange(a.size)[:, None]
    xi = kernel.companion_roots(np.moveaxis(kernel.poly_eval(grid.T, zs[..., 0]), 0, -1))
    fast = np.abs(b - a)[:, None, None] * np.abs(
        kernel.bipoly_eval(kernel.poly_der(grid.T).T, zs, xi))  # |P_z| |b - a|
    slow = _MOVE * kernel.min_gap(xi)[..., None] * np.abs(
        kernel.bipoly_eval(kernel.bipoly_dxi(grid), zs, xi))   # _MOVE g |P_xi|
    cap = _MAX_PIECES / _SAMPLES[1]
    dens = np.divide(fast, slow, out=np.full(fast.shape, cap), where=slow * cap > fast).max(-1)
    cum = np.cumsum(np.column_stack([np.zeros(a.size), dens[:, 1:] + dens[:, :-1]]), axis=1)
    n = np.clip(np.ceil(cum[:, -1] * 0.5 * _SAMPLES[1]), 1, _MAX_PIECES).astype(int)
    # each segment's cumulative scaled to [s, s + 1]: one interpolation for all cuts
    up = segs + np.divide(cum, cum[:, -1:], out=np.tile(_SAMPLES, (a.size, 1)),
                          where=cum[:, -1:] > 0)
    seg = np.repeat(segs[:, 0], n)
    at = seg + (np.arange(seg.size) - np.repeat(np.cumsum(n) - n, n)) / n[seg]
    start = a[seg] + (np.interp(at, up.ravel(), (segs + _SAMPLES).ravel()) - seg) * (b - a)[seg]
    return seg, start, np.where(np.append(seg[1:] != seg[:-1], True), b[seg], np.roll(start, -1))


def _match_order(ref, roots):
    """Order each row of ``roots`` to follow that of ``ref`` by greedy nearest matching."""
    dist, rows, out = np.abs(ref[:, :, None] - roots[:, None, :]), np.arange(len(ref)), ref.copy()
    for i in range(ref.shape[1]):
        j = np.argmin(dist[:, i], axis=-1)
        out[:, i], dist[rows, :, j] = roots[rows, j], np.inf
    return out


def _polish(c, x):
    """Three Newton steps from ``x`` (..., sheets) on ascending coefficients ``c``
    (deg+1, ..., 1), ``P`` and ``dP`` by one Horner pass: the values, the last step."""
    for _ in range(3):
        p, dp = c[-1], 0.0
        for ck in c[-2::-1]:
            p, dp = p * x + ck, dp * x + p
        x = x - (step := p / dp)
    return x, np.abs(step)


def _walk(Pg_T, a, b, xi):
    """Sheet-tracked Gauss-Legendre panels along the pieces ``a -> b`` whose
    sheets start at ``xi`` (pieces, sheets), all stepped in lockstep.  A round
    takes the roots at every active piece's step end in one companion-matrix
    call and ``_polish``es each sheet's linear interpolant at the 12 nodes.
    With ``g`` the smaller sheet gap at the step's ends, a panel passes when
    ``rho``, the largest sheet move over ``g/4``, is at most 1, each node's
    last Newton step is at most ``1e-6 g`` and each value lies within ``g/8``
    of its interpolant; these are ``g/2`` apart, so the values are all the
    roots (Allgower and Georg, 1990).  A piece's first step is all of it; the
    next is ``h clip(0.8 / rho, 0.1, 0.5)`` after a failed panel (one failing
    at ``h <= 1e-10`` raises) and ``h clip(0.8 / rho, 1, 1.9)`` after a
    passing one (Hairer, Norsett and Wanner, Solving ODEs I, II.4).  Yields
    stacks ``(idx, zs, half, xi_nodes, xi_next)`` of the passing panels:
    pieces, nodes, Jacobians, sheet values there and at the step ends."""
    z, xi, gap, h = a.copy(), xi.copy(), kernel.min_gap(xi), np.abs(b - a)
    live = np.flatnonzero(h > 1e-15 * np.maximum(1.0, np.abs(b)))
    for _ in range(100000):  # every live piece attempts a step in every round
        if not live.size:
            return
        rest = b[live] - z[live]
        whole = h[live] >= np.abs(rest)
        frac = np.divide(h[live], np.abs(rest), out=np.ones(live.size), where=~whole)
        z_next = np.where(whole, b[live], z[live] + frac * rest)
        half = 0.5 * (z_next - z[live])
        zs = (0.5 * (z[live] + z_next))[:, None] + half[:, None] * _NODES
        coef = kernel.poly_eval(Pg_T, np.column_stack([zs, z_next]))
        xi_next = _match_order(xi[live], kernel.companion_roots(coef[:, :, -1].T))
        gap_next = kernel.min_gap(xi_next)
        move, g_min = np.abs(xi_next - xi[live]).max(axis=-1), np.minimum(gap[live], gap_next)
        ok = move <= g_min / 4
        pred = xi[live[ok], None] + (xi_next - xi[live])[ok, None] * _FRAC[:, None]
        xi_nodes, last = _polish(coef[:, ok, :-1, None], pred)
        ok[ok] = converged = ((last.max(axis=(1, 2)) <= 1e-6 * g_min[ok])
                              & (np.abs(xi_nodes - pred).max(axis=(1, 2)) <= g_min[ok] / 8))
        step = 2.0 * np.abs(half)
        if np.any(~ok & (step <= 1e-10)):
            raise ConsistencyError("sheet tracking step fell below 1e-10")
        factor = np.divide(0.2 * g_min, move, out=np.full(move.shape, np.inf), where=move > 0)
        h[live] = step * np.where(ok, np.clip(factor, 1.0, 1.9), np.clip(factor, 0.1, 0.5))
        if ok.any():
            yield live[ok], zs[ok], half[ok], xi_nodes[converged], xi_next[ok]
        z[live[ok]], xi[live[ok]], gap[live[ok]] = z_next[ok], xi_next[ok], gap_next[ok]
        live = live[~(ok & whole)]
    raise ConsistencyError("sheet tracking stalled")


def sheet_integrals(curve: SpectralCurve, integrand, paths, xi=None):
    """Integrate a per-sheet integrand along paths (waypoint lists), tracking
    all sheets of every path in one walk.  ``integrand(z, xi)`` broadcasts: for
    ``z`` and ``xi`` of broadcast shape ``S`` it returns the integrand
    components on a leading axis, shape ``(components,) + S``; ``xi``, the
    sorted sheets at the path starts, is taken here unless given, and the
    roots are taken only at the starts it does not give.  Returns ``(I,
    sheets_end)`` where ``I[path, comp, sheet]`` accumulates the integral along
    each tracked sheet and ``sheets_end[path, sheet]`` gives the tracked
    xi-values at the path end.

    Every segment is ``_cut`` into pieces, all one ``_walk`` stack, each from
    the sorted roots at its start.  At each junction the previous piece's end
    sheets are matched to the next piece's start roots within the
    ``_landing_sheets`` bound, or ``ConsistencyError`` is raised (Deconinck
    and van Hoeij, Physica D 152-153, 2001); the junctions compose along each
    path by pointer doubling, in ``log2`` of its pieces steps.
    """
    Pg_T, r = curve.grid.T.copy(), curve.grid.shape[0] - 1
    ends = [np.asarray(path, dtype=complex) for path in paths]
    seg, z, z_end = _cut(curve.grid, np.concatenate([e[:-1] for e in ends]),
                         np.concatenate([e[1:] for e in ends]))
    path_of = np.repeat(np.arange(len(ends)), [e.size - 1 for e in ends])[seg]
    first = np.searchsorted(path_of, np.arange(len(ends)))
    pos = np.arange(z.size) - first[path_of]
    own = np.ones(z.size, dtype=bool) if xi is None else pos > 0
    start = np.empty((z.size, r), dtype=complex)
    start[own] = np.sort_complex(_curve_roots(Pg_T, z[own]))
    if xi is not None:
        start[first] = xi
    total, end = np.zeros_like(integrand(z[:, None], start).swapaxes(0, 1)), start.copy()
    for idx, zs, half, xi_nodes, xi_next in _walk(Pg_T, z, z_end, start):
        vals = integrand(zs[..., None], xi_nodes)
        total[idx] += half[:, None, None] * np.tensordot(_WEIGHTS, vals, ([0], [2])).swapaxes(0, 1)
        end[idx] = xi_next
    # sheet[k, j]: the sorted start sheet of piece k that path start sheet j runs along
    nxt, sheet = np.flatnonzero(pos > 0), np.tile(np.arange(r), (z.size, 1))
    lands = _landing_sheets(np.repeat(end[nxt - 1], r, axis=0), start[nxt].ravel(),
                            what="the next piece's start").reshape(-1, r)
    if np.any(np.sort(lands, axis=1) != np.arange(r)):
        raise ConsistencyError("sheet tracking junction is not a bijection")
    sheet[nxt] = np.argsort(lands, axis=1)
    for d in 2 ** np.arange(int(pos.max()).bit_length()):
        at = np.flatnonzero(pos >= d)
        sheet[at] = np.take_along_axis(sheet[at], sheet[at - d], axis=1)
    last = np.append(first[1:], z.size) - 1
    return (np.add.reduceat(np.take_along_axis(total, sheet[:, None, :], axis=2), first),
            np.take_along_axis(end[last], sheet[last], axis=1))


def _landing_sheets(xi_fin, xi_end, sheet=None, what="the divisor point"):
    """Per path the tracked sheet (by default the nearest) checked to end at xi_end."""
    if sheet is None:
        sheet = np.argmin(np.abs(xi_fin - xi_end[:, None]), axis=-1)
    miss = np.abs(xi_fin[np.arange(len(xi_end)), sheet] - xi_end)
    if np.any(miss > np.minimum(0.45 * kernel.min_gap(xi_fin),
                                1e-3 * np.maximum(1.0, np.abs(xi_end)))):
        raise ConsistencyError("sheet tracking did not land on " + what)
    return sheet


def _integrals_to_points(curve, integrand, z_start, z_end, xi_end, branch_pts,
                         xi_start=np.nan):
    """Integrals (points, components) along the curve from each ``z_start`` to
    ``(z_end, xi_end)`` by one ``sheet_integrals`` call, on the sheet landing
    there or, for a hop (``xi_start`` given, not nan), the one starting at
    ``xi_start``; a hop of zero length is 0, one past 0.75 of its branch
    clearance (and 1e-3) raises before any step.  The roots at the starts are
    taken once, for the hops' start check and the walk."""
    z_start, z_end, xi_end, xi_start = np.broadcast_arrays(
        *(np.asarray(v, dtype=complex) for v in (z_start, z_end, xi_end, xi_start)))
    hop, dz = ~np.isnan(xi_start), np.abs(z_end - z_start)
    clear = np.abs(np.stack([z_start, z_end])[..., None] - branch_pts).min(
        axis=(0, 2), initial=np.inf)
    if np.any(hop & (dz > 0.75 * clear) & (dz > 1e-3)):
        raise MatchingError("divisor hop exceeds branch clearance; sample the "
                            "trajectory more densely")
    walk = ~hop | (dz >= 1e-14 * np.maximum(1.0, np.abs(z_start)))
    z_start, z_end, xi_end, xi_start, hop = (
        v[walk] for v in (z_start, z_end, xi_end, xi_start, hop))
    start = np.sort_complex(_curve_roots(curve.grid.T, z_start))
    first = np.argmin(np.abs(start[hop] - xi_start[hop, None]), axis=-1)
    if np.any(np.abs(start[hop][np.arange(first.size), first] - xi_start[hop])
              > 1e-3 * np.maximum(1.0, np.abs(xi_start[hop]))):
        raise ConsistencyError("sheet tracking did not start on the divisor point")
    total, xi_fin = sheet_integrals(curve, integrand, _routes(z_start, z_end, branch_pts), start)
    sheet = np.argmin(np.abs(xi_fin - xi_end[:, None]), axis=-1)
    sheet[hop] = first
    out = np.zeros((walk.size, total.shape[1]), dtype=complex)
    out[walk] = total[np.arange(sheet.size), :, _landing_sheets(xi_fin, xi_end, sheet)]
    return out


# ---------------------------------------------------------------------------
# the conjugate integrand and the slope identity
# ---------------------------------------------------------------------------

def _conjugate_integrand(curve: SpectralCurve, spec: BracketSpec, positions):
    dPxi, a_arr, b = curve.dxi(), spec.a_array, spec.b
    ks, ls = np.array(positions, dtype=int).reshape(-1, 2).T

    def integrand(z, xi):
        z, xi = np.asarray(z), np.asarray(xi)
        lead = (-1,) + (1,) * max(z.ndim, xi.ndim)
        denom = (kernel.poly_eval(a_arr, z) + b * xi) * kernel.bipoly_eval(dPxi, z, xi)
        return -(xi ** ks.reshape(lead)) * (z ** ls.reshape(lead)) / denom

    return integrand


def slope_matrix(phi: MatPoly, spec: BracketSpec, tol: Tolerances = DEFAULT):
    """The Hamiltonian positions and ``S[i, j] = dQ_i/dt_j`` at ``phi``, with no path.

    ``S = Omega V``: ``Omega[i, mu]`` is the conjugate integrand of ``H_i`` at
    divisor point ``mu`` and ``V[mu, j] = dz_mu/dt_j = dz . Pi . grad H_j``
    from ``divisor_jacobian``.  The Abel map moves along the flow of ``H_j``
    by ``e_j``, so ``S = I`` (Adams, Harnad and Hurtubise, Commun. Math. Phys.
    155, 1993; Sklyanin, Prog. Theor. Phys. Suppl. 118, 1995).  Raises
    ``NonGenericError`` where the Hamiltonians and Casimirs do not cover every
    spectral position: ``dQ_i/dH_j`` at fixed other coefficients is undefined.
    """
    hams, cass = casimir_detect(phi, spec)
    positions, G = spectral_gradient_matrix(phi)
    if len(hams) + len(cass) < len(positions):
        raise NonGenericError(f"{len(hams)} Hamiltonians and {len(cass)} Casimirs do not "
                              f"cover the {len(positions)} spectral positions")
    points, dz, _ = divisor_jacobian(phi, tol=tol)
    V = dz @ _poisson(phi, spec) @ G[[positions.index(p) for p in hams]].T
    omega = _conjugate_integrand(spectral_curve(phi), spec, hams)(points.z, points.xi)
    return hams, omega @ V


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

@dataclass
class LinearizeResult:
    times: np.ndarray
    positions: tuple          # Hamiltonian grid positions (k, l)
    q_table: np.ndarray       # (len(positions), len(times))
    slopes: np.ndarray
    intercepts: np.ndarray
    fit_residuals: np.ndarray  # relative nonlinear residual per position


def linearize(trajectory: Sequence[MatPoly], times, spec: BracketSpec,
              positions, tol: Tolerances = DEFAULT) -> LinearizeResult:
    """Q_i(t) along a flow trajectory, with per-coordinate linear fits.

    ``positions`` lists the Hamiltonian grid positions to integrate.  The
    divisors of all states, from one ``_divisor_stack``, are matched between
    consecutive states (small-time patches); the integrals accumulate along
    the short hops between them, so the path family deforms continuously, and
    the base-point integral fixes the constant.  One solve fits every line.
    """
    times = np.asarray(times, dtype=float)
    if len(trajectory) != times.size:
        raise ValueError("trajectory and times must have equal length")
    curve = spectral_curve(trajectory[0])
    bps, _ = branch_points(curve, tol)
    z0 = pick_base_point(bps)

    divisors = _divisor_stack(trajectory, tol=tol)
    for k in range(1, len(divisors)):
        d, idx = divisors[k], _nearest_permutation(divisors[k - 1], divisors[k])
        divisors[k] = DivisorCoords(z=d.z[idx], xi=d.xi[idx], s=d.s, degenerate=d.degenerate)

    # one walk: base-point paths give column 0, each hop adds to its later column
    m = divisors[0].count
    terms = _integrals_to_points(
        curve, _conjugate_integrand(curve, spec, positions),
        np.concatenate([np.full(m, z0)] + [d.z for d in divisors[:-1]]),
        np.concatenate([d.z for d in divisors]), np.concatenate([d.xi for d in divisors]),
        bps, np.concatenate([np.full(m, np.nan)] + [d.xi for d in divisors[:-1]])
    ) if m else np.zeros((0, len(positions)), dtype=complex)
    q_table = np.cumsum(terms.reshape(times.size, m, len(positions)).sum(axis=1), axis=0).T

    A = np.column_stack([times, np.ones_like(times)])
    (slopes, intercepts), *_ = np.linalg.lstsq(A, q_table.T, rcond=None)
    resid = (np.abs(q_table - slopes[:, None] * times - intercepts[:, None]).max(axis=1)
             / np.maximum(np.abs(q_table).max(axis=1), 1.0))
    return LinearizeResult(times=times, positions=tuple(positions), q_table=q_table,
                           slopes=slopes, intercepts=intercepts, fit_residuals=resid)


def _nearest_permutation(prev: DivisorCoords, cur: DivisorCoords):
    """Greedy global assignment of current points to previous points."""
    cost = np.abs(prev.z[:, None] - cur.z[None, :]) + np.abs(prev.xi[:, None] - cur.xi[None, :])
    idx = np.full(prev.count, -1, dtype=int)
    for _ in range(prev.count):
        i, j = np.unravel_index(np.argmin(cost), cost.shape)
        idx[i], cost[i, :], cost[:, j] = j, np.inf, np.inf
    if np.any(idx < 0):
        raise MatchingError("divisor matching along the trajectory is ambiguous")
    return idx
