"""Linearizing coordinates: sums of Abelian integrals over divisor points.

For a bracket whose surface structure is (a(z) + b xi) dz ^ dxi the conjugate
momentum primitive p(z, xi) satisfies dp/dxi = 1/(a(z) + b xi); the
linearizing coordinate attached to the spectral coefficient H_i is

    Q_i = sum_mu  int_{z0}^{z_mu}  dp/dH_i dz,
    dp/dH_i = -(xi^k z^l) / ((a(z) + b xi) dP/dxi)   at H_i ~ position (k, l),

integrated along the sheet of the curve that ends at (z_mu, xi_mu).  Straight
z-paths are re-routed around branch points.  One stepper, ``_walk``, steps a
stack of paths in lockstep, tracks every sheet by continuity and yields each
round's Gauss-Legendre panels.  ``sheet_integrals`` cuts long segments into
pieces, walks every piece of every path in one stack, sums the quadrature
over the panels and joins the pieces' sheets at their junctions; the b != 0
generating value continues its logarithm across the panels' ordered nodes
along whole paths.  A ``linearize`` call walks all its paths in one stack.
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import kernel
from .errors import ConsistencyError, MatchingError, NumericDomainError
from .rational import (BracketSpec, DivisorCoords, MatPoly, SpectralCurve,
                       branch_points, divisor_coords, spectral_curve)
from .tolerances import DEFAULT, Tolerances

__all__ = ["LinearizeResult", "build_path", "sheet_integrals", "abel_sums",
           "generating_value", "linearize", "pick_base_point"]


# ---------------------------------------------------------------------------
# paths around branch points
# ---------------------------------------------------------------------------

def _segment_clearance(a, b, point):
    """Distance from ``point`` to segment [a, b] and the closest-approach foot."""
    d = b - a
    t = np.real(np.conj(d) * (point - a)) / abs(d) ** 2
    t = min(1.0, max(0.0, t))
    foot = a + t * d
    return abs(point - foot), foot, t


def build_path(z0, z1, branch_pts, tol: Tolerances = DEFAULT):
    """Piecewise-linear path z0 -> z1 avoiding branch points.

    A straight segment passing within a branch point's avoidance radius gets
    a perpendicular detour waypoint at twice that radius.  The radius is
    ``branch_avoid`` times the path scale, capped at a quarter of the distance
    to the nearest other branch point and half the distance to the segment's
    endpoints, so a detour never lands inside a neighbour's radius.  After
    three re-routing rounds the path is declared unroutable.
    """
    branch_pts = np.asarray(branch_pts, dtype=complex)
    scale = max(1.0, abs(z0), abs(z1),
                np.abs(branch_pts).max() if branch_pts.size else 1.0)
    sep = np.abs(branch_pts[:, None] - branch_pts) + np.diag(np.full(branch_pts.size, np.inf))
    radii = np.minimum(tol.branch_avoid * scale, 0.25 * sep.min(axis=1, initial=np.inf))
    waypoints = [complex(z0), complex(z1)]
    for _ in range(3):
        clean = True
        out = [waypoints[0]]
        for a, b in zip(waypoints, waypoints[1:]):
            insert = None
            for bp, radius in zip(branch_pts, radii):
                ends = min(abs(bp - a), abs(bp - b))
                if ends < 1e-12:
                    continue
                r_avoid = min(radius, 0.5 * ends)
                dist, foot, t = _segment_clearance(a, b, bp)
                if dist < r_avoid and 0.0 < t < 1.0:
                    if dist > 1e-12 * scale:
                        normal = (foot - bp) / dist
                    else:
                        normal = 1j * (b - a) / abs(b - a)
                    insert = bp + 2.0 * r_avoid * normal
                    break
            if insert is not None:
                out.extend([insert, b])
                clean = False
            else:
                out.append(b)
        waypoints = out
        if clean:
            return waypoints
    raise NumericDomainError("path could not be routed around branch points")


def pick_base_point(branch_pts, endpoint_hint=0.0):
    """Deterministic base point well away from every branch point."""
    branch_pts = np.asarray(branch_pts, dtype=complex)
    radius = 1.6 * max(1.0, np.abs(branch_pts).max() if branch_pts.size else 1.0,
                       abs(endpoint_hint))
    candidates = radius * np.exp(2j * np.pi * (np.arange(16) + 0.27) / 16)
    if not branch_pts.size:
        return complex(candidates[0])
    dists = np.min(np.abs(candidates[:, None] - branch_pts[None, :]), axis=1)
    return complex(candidates[int(np.argmax(dists))])


# ---------------------------------------------------------------------------
# sheet-tracked panels
# ---------------------------------------------------------------------------

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(12)
_NODES, _WEIGHTS, _FRAC = kernel.frozen(_NODES, _WEIGHTS, (_NODES + 1.0) / 2.0)


def _curve_roots(Pg_T, z):
    """The xi-roots over every ``z``, shape ``z.shape + (r,)``."""
    return kernel.companion_roots(np.moveaxis(kernel.poly_eval(Pg_T, z), 0, -1))


def _match_order(ref, roots):
    """Order each row of ``roots`` to follow that of ``ref`` by greedy nearest matching."""
    dist, rows, out = np.abs(ref[:, :, None] - roots[:, None, :]), np.arange(len(ref)), ref.copy()
    for i in range(ref.shape[1]):
        j = np.argmin(dist[:, i], axis=-1)
        out[:, i], dist[rows, :, j] = roots[rows, j], np.inf
    return out


def _walk(Pg_T, paths, xi):
    """Sheet-tracked Gauss-Legendre panels along paths whose sheets start at
    ``xi`` (paths, sheets), all stepped in lockstep.  A round takes every
    active path's roots at 12 nodes and the step end in one ``_curve_roots``
    call; a panel passes when ``rho``, the largest sheet move over a quarter
    of the sheet gap, is at most 1.  Per segment a path's step starts at an
    eighth of it; the next is ``h clip(0.8 / rho, 0.1, 0.5)`` after a failed
    panel (one failing at ``h <= 1e-10`` raises) and ``h clip(0.8 / rho, 1,
    1.9)`` after a passing one while ``h`` is below a quarter of the segment
    (Hairer, Norsett and Wanner, Solving ODEs I, II.4).  Passing panels are
    yielded as stacks ``(idx, zs, half, xi_nodes, z_next, xi_next)``: paths,
    nodes, Jacobians, sheet values at the nodes (nearest each sheet's linear
    interpolant), step ends and their sheets.  Sending a mask over the panels
    rejects those: their steps halve."""
    xi, gap = xi.copy(), kernel.min_gap(xi)
    segs = [[(a, b) for a, b in zip(path, path[1:]) if abs(a - b) > 1e-15 * max(1.0, abs(b))]
            for path in paths]
    # path -> [segment, z, step, attempts on the segment]
    live = {p: [0, s[0][0], abs(s[0][1] - s[0][0]) / 8.0, 0] for p, s in enumerate(segs) if s}
    while live:
        idx, h, z_next, half = np.array(list(live)), [], [], []
        z_cur = np.array([st[1] for st in live.values()])
        for p, st in live.items():
            (_, b), z, st[3] = segs[p][st[0]], st[1], st[3] + 1
            if st[3] > 100000:
                raise ConsistencyError("sheet tracking stalled")
            step_dir = (b - z) / abs(b - z)
            h.append(min(st[2], abs(b - z)))
            z_next.append(z + h[-1] * step_dir)
            half.append(0.5 * (z_next[-1] - z))
        h, half = np.array(h), np.array(half)
        zs = (0.5 * (z_cur + z_next))[:, None] + half[:, None] * _NODES
        roots = _curve_roots(Pg_T, np.column_stack([zs, z_next]))
        xi_next = _match_order(xi[idx], roots[:, -1])
        gap_next = kernel.min_gap(xi_next)
        move, bound = np.abs(xi_next - xi[idx]).max(axis=-1), 0.25 * np.minimum(gap[idx], gap_next)
        ok = move <= bound
        if np.any(~ok & (h <= 1e-10)):
            raise ConsistencyError("sheet tracking step fell below 1e-10")
        factor = np.divide(0.8 * bound, move, out=np.full(move.shape, np.inf), where=move > 0)
        factor = np.where(ok, np.clip(factor, 1.0, 1.9), np.clip(factor, 0.1, 0.5))
        if ok.any():
            pred = xi[idx[ok], None] + (xi_next - xi[idx])[ok, None] * _FRAC[:, None]
            pick = np.argmin(np.abs(roots[ok, :-1, None, :] - pred[..., None]), axis=-1)
            reject = yield (idx[ok], zs[ok], half[ok],
                            np.take_along_axis(roots[ok, :-1], pick, axis=-1),
                            np.array(z_next)[ok], xi_next[ok])
            ok[ok] = True if reject is None else ~np.asarray(reject)
        xi[idx[ok]], gap[idx[ok]] = xi_next[ok], gap_next[ok]
        for p, zn, good, hp, g in zip(idx, z_next, ok, h, factor):
            st, (a, b) = live[p], segs[p][live[p][0]]
            if not good:  # a panel the caller rejected passed the gap test, g >= 1
                st[2] = hp * min(g, 0.5)
            elif abs(zn - b) > 1e-15 * max(1.0, abs(b)):
                st[1], st[2] = zn, st[2] * g if st[2] < abs(b - a) / 4 else st[2]
            elif st[0] + 1 < len(segs[p]):
                a, b = segs[p][st[0] + 1]
                live[p] = [st[0] + 1, a, abs(b - a) / 8.0, 0]
            else:
                del live[p]


def _pieces(path):
    """The path's segments as (start, end) pieces, each segment longer than
    5% of ``max(1, |a|, |b|)`` cut into 4 equal ones."""
    out = []
    for a, b in zip(path, path[1:]):
        n = 4 if abs(b - a) > 0.05 * max(1.0, abs(a), abs(b)) else 1
        ends = [a + (b - a) * (k / n) for k in range(n)] + [b]
        out += zip(ends, ends[1:])
    return out


def sheet_integrals(curve: SpectralCurve, integrand, paths, xi=None):
    """Integrate a per-sheet integrand along paths (waypoint lists), tracking
    all sheets of every path in one walk.  ``integrand(z, xi)`` broadcasts: for
    ``z`` and ``xi`` of broadcast shape ``S`` it returns the integrand
    components on a leading axis, shape ``(components,) + S``; ``xi``, the
    sorted sheets at the path starts, is taken here unless given.  Returns ``(I,
    sheets_end)`` where ``I[path, comp, sheet]`` accumulates the integral along
    each tracked sheet and ``sheets_end[path, sheet]`` gives the tracked
    xi-values at the path end.

    The ``_pieces`` of every path are one-segment items of one ``_walk``
    stack, each from the sorted roots at its start.  At each junction the
    previous piece's end sheets are matched to the next piece's start roots
    within the ``_landing_sheets`` bound, or ``ConsistencyError`` is raised
    (sheet continuation of Deconinck and van Hoeij, Physica D 152-153, 2001).
    """
    Pg_T = curve.grid.T.copy()
    per_path = [_pieces(path) for path in paths]
    count = np.array([len(p) for p in per_path], dtype=int)
    first = np.cumsum(count) - count
    pieces = [piece for p in per_path for piece in p]
    z = np.array([a for a, _ in pieces], dtype=complex)
    start = np.sort_complex(_curve_roots(Pg_T, z))
    if xi is not None:
        start[first] = xi
    total, end = np.zeros_like(integrand(z[:, None], start).swapaxes(0, 1)), start.copy()
    for idx, zs, half, xi_nodes, _, xi_next in _walk(Pg_T, pieces, start):
        vals = integrand(zs[..., None], xi_nodes)
        total[idx] += half[:, None, None] * np.tensordot(_WEIGHTS, vals, ([0], [2])).swapaxes(0, 1)
        end[idx] = xi_next
    # sheet[k, j]: the sorted start sheet of piece k that path start sheet j runs along
    r, pos = start.shape[1], np.arange(len(pieces)) - np.repeat(first, count)
    sheet = np.tile(np.arange(r), (len(pieces), 1))
    for k in range(1, pos.max(initial=0) + 1):
        nxt = np.flatnonzero(pos == k)
        lands = _landing_sheets(np.repeat(end[nxt - 1], r, axis=0), start[nxt].ravel(),
                                what="the next piece's start").reshape(-1, r)
        if np.any(np.sort(lands, axis=1) != np.arange(r)):
            raise ConsistencyError("sheet tracking junction is not a bijection")
        sheet[nxt] = np.take_along_axis(np.argsort(lands, axis=1), sheet[nxt - 1], axis=1)
    last = first + count - 1
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


def _integrals_to_points(curve, integrand, z_start, z_end, xi_end, branch_pts, tol,
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
    total, xi_fin = sheet_integrals(curve, integrand, [build_path(a, b, branch_pts, tol)
                                                       for a, b in zip(z_start, z_end)], start)
    sheet = np.argmin(np.abs(xi_fin - xi_end[:, None]), axis=-1)
    sheet[hop] = first
    out = np.zeros((walk.size, total.shape[1]), dtype=complex)
    out[walk] = total[np.arange(sheet.size), :, _landing_sheets(xi_fin, xi_end, sheet)]
    return out


def _log_integrals(curve, a_arr, b, paths):
    """int log(a(z) + b xi) dz along every tracked sheet of every path, shape
    (paths, sheets), and the sheets at the path ends; the log principal at the
    start and continued across each panel's ordered start, nodes and end.  A
    panel with a consecutive ratio |ratio - 1| > 0.5 is rejected, so no
    principal log is ever taken of a ratio far from 1."""
    Pg_T = curve.grid.T.copy()
    z = np.array([path[0] for path in paths], dtype=complex)
    xi = np.sort_complex(_curve_roots(Pg_T, z))
    v = kernel.poly_eval(a_arr, z)[:, None] + b * xi
    log_v = np.log(v)
    total = np.zeros_like(log_v)
    rounds, reject = _walk(Pg_T, paths, xi), None
    while True:
        try:
            idx, zs, half, xi_nodes, z_next, xi_next = rounds.send(reject)
        except StopIteration:
            return total, xi
        w = kernel.poly_eval(a_arr, np.column_stack([zs, z_next]))[..., None]
        vals = np.hstack([v[idx, None], w + b * np.hstack([xi_nodes, xi_next[:, None]])])
        reject = np.abs(vals[:, 1:] / vals[:, :-1] - 1.0).max(axis=(1, 2)) > 0.5
        xi[idx[~reject]] = xi_next[~reject]
        idx, half, vals = idx[~reject], half[~reject], vals[~reject]
        steps = np.cumsum(np.log(vals[:, 1:] / vals[:, :-1]), axis=1)
        total[idx] += half[:, None] * np.tensordot(_WEIGHTS, log_v[idx, None] + steps[:, :-1],
                                                   axes=([0], [1]))
        log_v[idx], v[idx] = log_v[idx] + steps[:, -1], vals[:, -1]


# ---------------------------------------------------------------------------
# the Abelian sums and the generating function
# ---------------------------------------------------------------------------

def _conjugate_integrand(curve: SpectralCurve, spec: BracketSpec, positions):
    dPxi = curve.dxi()
    a_arr = spec.a_array
    b = spec.b
    ks = np.array([k for k, _ in positions])
    ls = np.array([l for _, l in positions])

    def integrand(z, xi):
        z, xi = np.asarray(z), np.asarray(xi)
        lead = (-1,) + (1,) * max(z.ndim, xi.ndim)
        denom = (kernel.poly_eval(a_arr, z) + b * xi) * kernel.bipoly_eval(dPxi, z, xi)
        return -(xi ** ks.reshape(lead)) * (z ** ls.reshape(lead)) / denom

    return integrand


def abel_sums(curve: SpectralCurve, spec: BracketSpec, points: DivisorCoords,
              positions, z0, branch_pts, tol: Tolerances = DEFAULT):
    """Q vector: sums over divisor points of the conjugate Abelian integrals."""
    integrand = _conjugate_integrand(curve, spec, positions)
    q = _integrals_to_points(curve, integrand, z0, points.z, points.xi, branch_pts, tol)
    return sum(q, np.zeros(len(positions), dtype=complex))


def generating_value(curve: SpectralCurve, spec: BracketSpec, points: DivisorCoords,
                     z0, branch_pts, tol: Tolerances = DEFAULT) -> complex:
    """The generating sum F = sum_mu int_{z0}^{z_mu} p(z, xi(z)) dz.

    For b = 0 the primitive is xi/a(z); for b != 0 it is log(a(z)+b xi)/b with
    the logarithm continued along the path.
    """
    a_arr = spec.a_array
    b = spec.b

    def integrand(z, xi):
        return (xi / kernel.poly_eval(a_arr, z))[None]

    if b == 0:
        terms = _integrals_to_points(curve, integrand, z0, points.z, points.xi,
                                     branch_pts, tol)[:, 0]
    else:
        logs, xi_fin = _log_integrals(curve, a_arr, b, [build_path(z0, z, branch_pts, tol)
                                                        for z in points.z])
        terms = logs[np.arange(points.count), _landing_sheets(xi_fin, points.xi)] / b
    return sum(terms, 0.0 + 0.0j)


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
              positions, base_z0=None, s=None,
              tol: Tolerances = DEFAULT) -> LinearizeResult:
    """Q_i(t) along a flow trajectory, with per-coordinate linear fits.

    ``positions`` lists the Hamiltonian grid positions to integrate. Divisor
    points are matched between consecutive states (small-time patches), and
    the integrals are accumulated incrementally along the short hops between
    consecutive divisor positions so the path family deforms continuously;
    the base-point integral only fixes the time-independent constant.
    """
    times = np.asarray(times, dtype=float)
    if len(trajectory) != times.size:
        raise ValueError("trajectory and times must have equal length")
    curve = spectral_curve(trajectory[0])
    bps, _ = branch_points(curve, tol)
    z0 = pick_base_point(bps) if base_z0 is None else complex(base_z0)

    divisors = [divisor_coords(trajectory[0], s=s, tol=tol)]
    for state in trajectory[1:]:
        d = divisor_coords(state, s=s, tol=tol)
        idx = _nearest_permutation(divisors[-1], d)
        divisors.append(DivisorCoords(z=d.z[idx], xi=d.xi[idx], s=d.s, degenerate=d.degenerate))

    # one walk: base-point paths give column 0, each hop adds to its later column
    m = divisors[0].count
    terms = _integrals_to_points(
        curve, _conjugate_integrand(curve, spec, positions),
        np.concatenate([np.full(m, z0)] + [d.z for d in divisors[:-1]]),
        np.concatenate([d.z for d in divisors]), np.concatenate([d.xi for d in divisors]),
        bps, tol, np.concatenate([np.full(m, np.nan)] + [d.xi for d in divisors[:-1]]))
    q_table = np.zeros((len(positions), times.size), dtype=complex)
    np.add.at(q_table.T, np.repeat(np.arange(times.size), m), terms)
    q_table = np.cumsum(q_table, axis=1)

    slopes = np.zeros(len(positions), dtype=complex)
    intercepts = np.zeros(len(positions), dtype=complex)
    resid = np.zeros(len(positions))
    A = np.vstack([times, np.ones_like(times)]).T
    for i in range(len(positions)):
        coef, *_ = np.linalg.lstsq(A, q_table[i], rcond=None)
        slopes[i], intercepts[i] = coef
        fit = A @ coef
        resid[i] = np.abs(q_table[i] - fit).max() / max(np.abs(q_table[i]).max(), 1.0)
    return LinearizeResult(times=times, positions=tuple(positions), q_table=q_table,
                           slopes=slopes, intercepts=intercepts, fit_residuals=resid)


def _nearest_permutation(prev: DivisorCoords, cur: DivisorCoords):
    """Greedy global assignment of current points to previous points."""
    m = prev.count
    d = np.abs(prev.z[:, None] - cur.z[None, :]) + np.abs(prev.xi[:, None] - cur.xi[None, :])
    idx = np.full(m, -1, dtype=int)
    cost = d.copy()
    for _ in range(m):
        i, j = np.unravel_index(np.argmin(cost), cost.shape)
        idx[i] = j
        cost[i, :] = np.inf
        cost[:, j] = np.inf
    if np.any(idx < 0):
        raise MatchingError("divisor matching along the trajectory is ambiguous")
    return idx
