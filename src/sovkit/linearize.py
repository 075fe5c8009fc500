"""Linearizing coordinates: sums of Abelian integrals over divisor points.

For a bracket whose surface structure is (a(z) + b xi) dz ^ dxi the conjugate
momentum primitive p(z, xi) satisfies dp/dxi = 1/(a(z) + b xi); the
linearizing coordinate attached to the spectral coefficient H_i is

    Q_i = sum_mu  int_{z0}^{z_mu}  dp/dH_i dz,
    dp/dH_i = -(xi^k z^l) / ((a(z) + b xi) dP/dxi)   at H_i ~ position (k, l),

integrated along the sheet of the curve that ends at (z_mu, xi_mu).  Straight
z-paths are re-routed around branch points and the sheet is tracked by
continuity.
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import kernel
from .errors import ConsistencyError, MatchingError, NumericDomainError
from .rational import (BracketSpec, DivisorCoords, MatPoly, SpectralCurve,
                       divisor_coords, spectral_curve)
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

    Straight segments passing within ``branch_avoid`` of a branch point get a
    perpendicular detour waypoint; after three re-routing rounds the path is
    declared unroutable.
    """
    branch_pts = np.asarray(branch_pts, dtype=complex)
    scale = max(1.0, abs(z0), abs(z1),
                np.abs(branch_pts).max() if branch_pts.size else 1.0)
    r_avoid = tol.branch_avoid * scale
    waypoints = [complex(z0), complex(z1)]
    for _ in range(3):
        clean = True
        out = [waypoints[0]]
        for a, b in zip(waypoints, waypoints[1:]):
            insert = None
            for bp in branch_pts:
                if min(abs(bp - a), abs(bp - b)) < 1e-12:
                    continue
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
# sheet-tracked quadrature
# ---------------------------------------------------------------------------

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(12)


def _curve_roots(Pg_T, z):
    c = kernel.poly_eval(Pg_T, z)  # ascending xi-coefficients at this z
    return np.roots(c[::-1])


def _match_order(ref, roots):
    """Order ``roots`` to follow ``ref`` by greedy nearest matching."""
    roots = list(roots)
    out = np.empty(len(ref), dtype=complex)
    for i, rv in enumerate(ref):
        j = int(np.argmin([abs(rv - w) for w in roots]))
        out[i] = roots.pop(j)
    return out


def _min_gap(vals):
    if vals.size < 2:
        return np.inf
    d = np.abs(vals[:, None] - vals[None, :])[np.triu_indices(vals.size, 1)]
    return float(d.min())


def sheet_integrals(curve: SpectralCurve, integrand, waypoints,
                    tol: Tolerances = DEFAULT):
    """Integrate a per-sheet integrand along a path, tracking all sheets.

    ``integrand(z, xi)`` maps scalars to a vector of integrand components.
    Returns ``(I, sheets_end)`` where ``I[comp, sheet]`` accumulates the
    integral along each tracked sheet and ``sheets_end`` gives the tracked
    xi-values at the path end.
    """
    Pg_T = curve.grid.T.copy()
    xi_cur = np.sort_complex(_curve_roots(Pg_T, waypoints[0]))
    n_sheet = xi_cur.size
    probe = np.asarray(integrand(waypoints[0], xi_cur[0]), dtype=complex)
    total = np.zeros((probe.size, n_sheet), dtype=complex)

    for a, b in zip(waypoints, waypoints[1:]):
        z_cur = a
        seg = b - a
        step = seg / 8.0
        guard = 0
        while abs(z_cur - b) > 1e-15 * max(1.0, abs(b)):
            guard += 1
            if guard > 100000:
                raise ConsistencyError("sheet tracking stalled")
            step_dir = (b - z_cur) / abs(b - z_cur)
            h = min(abs(step), abs(b - z_cur))
            z_next = z_cur + h * step_dir
            xi_next = _match_order(xi_cur, _curve_roots(Pg_T, z_next))
            move = np.abs(xi_next - xi_cur).max()
            gap = min(_min_gap(xi_cur), _min_gap(xi_next))
            if move > 0.25 * gap and h > 1e-10:
                step = step / 2.0
                continue
            # panel quadrature with per-node sheet selection by interpolation
            mid = 0.5 * (z_cur + z_next)
            half = 0.5 * (z_next - z_cur)
            zs = mid + half * _NODES
            frac = (_NODES + 1.0) / 2.0
            node_roots = [_curve_roots(Pg_T, znode) for znode in zs]
            for sheet in range(n_sheet):
                pred = xi_cur[sheet] + (xi_next[sheet] - xi_cur[sheet]) * frac
                vals = []
                for roots, xpred, znode in zip(node_roots, pred, zs):
                    xi_node = roots[int(np.argmin(np.abs(roots - xpred)))]
                    vals.append(np.asarray(integrand(znode, xi_node), dtype=complex))
                total[:, sheet] += half * np.tensordot(_WEIGHTS, np.array(vals), axes=1)
            xi_cur = xi_next
            z_cur = z_next
            if abs(step) < abs(seg) / 4:
                step = step * 1.9
    return total, xi_cur


def _integral_to_point(curve, integrand, z0, z_end, xi_end, branch_pts, tol):
    waypoints = build_path(z0, z_end, branch_pts, tol)
    total, xi_fin = sheet_integrals(curve, integrand, waypoints, tol)
    gap = _min_gap(xi_fin)
    sheet = int(np.argmin(np.abs(xi_fin - xi_end)))
    if abs(xi_fin[sheet] - xi_end) > min(0.45 * gap, 1e-3 * max(1.0, abs(xi_end))):
        raise ConsistencyError("sheet tracking did not land on the divisor point")
    return total[:, sheet]


def _integral_between(curve, integrand, z_from, xi_from, z_to, xi_to,
                      branch_pts, tol):
    """Integral along the curve from (z_from, xi_from) to (z_to, xi_to)."""
    if abs(z_to - z_from) < 1e-14 * max(1.0, abs(z_from)):
        return 0.0
    waypoints = build_path(z_from, z_to, branch_pts, tol)
    start = np.sort_complex(_curve_roots(curve.grid.T.copy(), waypoints[0]))
    sheet = int(np.argmin(np.abs(start - xi_from)))
    if abs(start[sheet] - xi_from) > 1e-3 * max(1.0, abs(xi_from)):
        raise ConsistencyError("sheet tracking did not start on the divisor point")
    total, xi_fin = sheet_integrals(curve, integrand, waypoints, tol)
    if abs(xi_fin[sheet] - xi_to) > min(0.45 * _min_gap(xi_fin),
                                        1e-3 * max(1.0, abs(xi_to))):
        raise ConsistencyError("sheet tracking did not land on the divisor point")
    return total[:, sheet]


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
        denom = (kernel.poly_eval(a_arr, z) + b * xi) * kernel.bipoly_eval(dPxi, z, xi)
        return -(xi ** ks) * (z ** ls) / denom

    return integrand


def abel_sums(curve: SpectralCurve, spec: BracketSpec, points: DivisorCoords,
              positions, z0, branch_pts, tol: Tolerances = DEFAULT):
    """Q vector: sums over divisor points of the conjugate Abelian integrals."""
    integrand = _conjugate_integrand(curve, spec, positions)
    q = np.zeros(len(positions), dtype=complex)
    for z_end, xi_end in zip(points.z, points.xi):
        q += _integral_to_point(curve, integrand, z0, z_end, xi_end, branch_pts, tol)
    return q


def generating_value(curve: SpectralCurve, spec: BracketSpec, points: DivisorCoords,
                     z0, branch_pts, tol: Tolerances = DEFAULT) -> complex:
    """The generating sum F = sum_mu int_{z0}^{z_mu} p(z, xi(z)) dz.

    For b = 0 the primitive is xi/a(z); for b != 0 it is log(a(z)+b xi)/b with
    the logarithm continued along the path.
    """
    a_arr = spec.a_array
    b = spec.b
    if b == 0:

        def integrand(z, xi):
            return np.array([xi / kernel.poly_eval(a_arr, z)])

        total = 0.0 + 0.0j
        for z_end, xi_end in zip(points.z, points.xi):
            total += _integral_to_point(curve, integrand, z0, z_end, xi_end,
                                        branch_pts, tol)[0]
        return total

    # b != 0: integrate log(a + b xi)/b with a branch-continuous logarithm,
    # accumulated incrementally along the tracked sheet
    def integrand(z, xi):
        return np.array([kernel.poly_eval(a_arr, z) + b * xi])

    total = 0.0 + 0.0j
    for z_end, xi_end in zip(points.z, points.xi):
        waypoints = build_path(z0, z_end, branch_pts, tol)
        val = _log_tracked_integral(curve, a_arr, b, waypoints, xi_end, tol)
        total += val
    return total


def _log_tracked_integral(curve, a_arr, b, waypoints, xi_end, tol):
    """int log(a(z) + b xi(z))/b dz with the log continued along the path."""
    Pg_T = curve.grid.T.copy()
    xi_start = np.sort_complex(_curve_roots(Pg_T, waypoints[0]))
    n_sheet = xi_start.size
    base_log = np.log(kernel.poly_eval(a_arr, waypoints[0]) + b * xi_start)

    log_offset = base_log.copy()   # continued log at the running point
    xi_cur = xi_start.copy()
    total = np.zeros(n_sheet, dtype=complex)
    for a, bb in zip(waypoints, waypoints[1:]):
        z_cur = a
        step = (bb - a) / 16.0
        while abs(z_cur - bb) > 1e-15 * max(1.0, abs(bb)):
            h = min(abs(step), abs(bb - z_cur))
            z_next = z_cur + h * (bb - z_cur) / abs(bb - z_cur)
            xi_next = _match_order(xi_cur, _curve_roots(Pg_T, z_next))
            move = np.abs(xi_next - xi_cur).max()
            gap = min(_min_gap(xi_cur), _min_gap(xi_next))
            if move > 0.25 * gap and h > 1e-10:
                step = step / 2.0
                continue
            v_cur = kernel.poly_eval(a_arr, z_cur) + b * xi_cur
            v_next = kernel.poly_eval(a_arr, z_next) + b * xi_next
            ratio = v_next / v_cur
            if np.abs(ratio - 1.0).max() > 0.5:
                step = step / 2.0
                continue
            log_next = log_offset + np.log(ratio)
            # composite Simpson on the continued log; panels are kept short
            # by the ratio guard so this converges fast
            nsub = 12
            zs = z_cur + (z_next - z_cur) * (np.arange(nsub + 1) / nsub)
            logs = np.empty((nsub + 1, n_sheet), dtype=complex)
            logs[0] = log_offset
            xi_sub = xi_cur.copy()
            v_sub = v_cur.copy()
            lg = log_offset.copy()
            for m in range(1, nsub + 1):
                xi_new = _match_order(xi_sub, _curve_roots(Pg_T, zs[m]))
                v_new = kernel.poly_eval(a_arr, zs[m]) + b * xi_new
                lg = lg + np.log(v_new / v_sub)
                logs[m] = lg
                xi_sub, v_sub = xi_new, v_new
            hsub = (z_next - z_cur) / nsub
            weights = np.ones(nsub + 1)
            weights[1:-1:2] = 4.0
            weights[2:-1:2] = 2.0
            total += (hsub / 3.0) * np.tensordot(weights, logs, axes=1)
            log_offset = log_next
            xi_cur = xi_next
            z_cur = z_next
    gap = _min_gap(xi_cur)
    sheet = int(np.argmin(np.abs(xi_cur - xi_end)))
    if abs(xi_cur[sheet] - xi_end) > min(0.45 * gap, 1e-3 * max(1.0, abs(xi_end))):
        raise ConsistencyError("sheet tracking did not land on the divisor point")
    return total[sheet] / b


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
    disc = kernel.resultant(curve.grid, curve.dxi(), "xi", tol)
    bps, _ = kernel.poly_roots(disc, tol)
    z0 = pick_base_point(bps) if base_z0 is None else complex(base_z0)

    divisors = []
    prev = None
    for state in trajectory:
        d = divisor_coords(state, s=s, tol=tol)
        if prev is not None:
            if d.count != prev.count:
                raise MatchingError("divisor count changed along the trajectory")
            idx = _nearest_permutation(prev, d)
            d = DivisorCoords(z=d.z[idx], xi=d.xi[idx], s=d.s, degenerate=d.degenerate)
        divisors.append(d)
        prev = d

    integrand = _conjugate_integrand(curve, spec, positions)
    q_table = np.zeros((len(positions), times.size), dtype=complex)
    q_table[:, 0] = abel_sums(curve, spec, divisors[0], positions, z0, bps, tol)
    for col in range(1, times.size):
        prev_d, cur_d = divisors[col - 1], divisors[col]
        inc = np.zeros(len(positions), dtype=complex)
        for mu in range(cur_d.count):
            hop = abs(cur_d.z[mu] - prev_d.z[mu])
            if bps.size:
                clearance = min(np.min(np.abs(prev_d.z[mu] - bps)),
                                np.min(np.abs(cur_d.z[mu] - bps)))
                if hop > 0.75 * clearance and hop > 1e-3:
                    raise MatchingError(
                        "divisor hop exceeds branch clearance; sample the "
                        "trajectory more densely")
            inc += _integral_between(
                curve, integrand, prev_d.z[mu], prev_d.xi[mu],
                cur_d.z[mu], cur_d.xi[mu], bps, tol)
        q_table[:, col] = q_table[:, col - 1] + inc

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
