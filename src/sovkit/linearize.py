"""Linearizing coordinates: sums of Abelian integrals over divisor points.

For a bracket whose surface structure is (a(z) + b xi) dz ^ dxi the conjugate
momentum primitive p(z, xi) satisfies dp/dxi = 1/(a(z) + b xi); the
linearizing coordinate attached to the spectral coefficient H_i is

    Q_i = sum_mu  int_{z0}^{z_mu}  dp/dH_i dz,
    dp/dH_i = -(xi^k z^l) / ((a(z) + b xi) dP/dxi)   at H_i ~ position (k, l),

integrated along the sheet of the curve that ends at (z_mu, xi_mu).  Straight
z-paths are re-routed around branch points.  One stepper, ``_panels``, walks
a path, tracks every sheet by continuity and yields Gauss-Legendre panels
with each sheet's value at the nodes; ``sheet_integrals`` is the quadrature
sum over those panels, and the b != 0 generating value continues its
logarithm across the same panels' ordered nodes.
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
_FRAC = (_NODES + 1.0) / 2.0


def _curve_roots(Pg_T, z):
    """The xi-roots over every ``z``, shape ``z.shape + (r,)``."""
    return kernel.companion_roots(np.moveaxis(kernel.poly_eval(Pg_T, z), 0, -1))


def _match_order(ref, roots):
    """Order ``roots`` to follow ``ref`` by greedy nearest matching."""
    roots = list(roots)
    out = np.empty(len(ref), dtype=complex)
    for i, rv in enumerate(ref):
        j = int(np.argmin([abs(rv - w) for w in roots]))
        out[i] = roots.pop(j)
    return out


def _panels(Pg_T, waypoints, xi):
    """Sheet-tracked Gauss-Legendre panels along a path whose sheets start at ``xi``.

    Per segment the step starts at an eighth of it, halves while a sheet moves
    by more than a quarter of the sheet gap, and grows by 1.9 while below a
    quarter of it.  A panel is ``(zs, half, xi_nodes, z_next, xi_next)``: the
    12 nodes, the quadrature Jacobian, the sheet values ``(12, sheets)`` at the
    nodes (the root nearest each sheet's linear interpolant) and at the end.
    Sending ``False`` rejects a panel: the step halves and a shorter one follows.
    """
    gap = kernel.min_gap(xi)
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
            half = 0.5 * (z_next - z_cur)
            zs = 0.5 * (z_cur + z_next) + half * _NODES
            roots = _curve_roots(Pg_T, np.append(zs, z_next))
            xi_next = _match_order(xi, roots[-1])
            move = np.abs(xi_next - xi).max()
            gap_next = kernel.min_gap(xi_next)
            if move > 0.25 * min(gap, gap_next) and h > 1e-10:
                step = step / 2.0
                continue
            pred = xi + (xi_next - xi) * _FRAC[:, None]
            pick = np.argmin(np.abs(roots[:-1, None, :] - pred[:, :, None]), axis=-1)
            xi_nodes = np.take_along_axis(roots[:-1], pick, axis=1)
            if (yield zs, half, xi_nodes, z_next, xi_next) is False:
                step = step / 2.0
                continue
            xi, gap = xi_next, gap_next
            z_cur = z_next
            if abs(step) < abs(seg) / 4:
                step = step * 1.9


def sheet_integrals(curve: SpectralCurve, integrand, waypoints,
                    tol: Tolerances = DEFAULT):
    """Integrate a per-sheet integrand along a path, tracking all sheets.

    ``integrand(z, xi)`` broadcasts: for ``z`` and ``xi`` of broadcast shape
    ``S`` it returns the integrand components on a leading axis, shape
    ``(components,) + S``.  Returns ``(I, sheets_end)`` where ``I[comp, sheet]``
    accumulates the integral along each tracked sheet and ``sheets_end`` gives
    the tracked xi-values at the path end.
    """
    Pg_T = curve.grid.T.copy()
    xi = np.sort_complex(_curve_roots(Pg_T, waypoints[0]))
    total = np.zeros(np.shape(integrand(waypoints[0], xi)), dtype=complex)
    for zs, half, xi_nodes, _, xi in _panels(Pg_T, waypoints, xi):
        vals = integrand(zs[:, None], xi_nodes)
        total += half * np.tensordot(_WEIGHTS, vals, axes=([0], [1]))
    return total, xi


def _landing_sheet(xi_fin, xi_end, sheet=None):
    """The tracked sheet (by default the nearest) checked to end at xi_end."""
    if sheet is None:
        sheet = int(np.argmin(np.abs(xi_fin - xi_end)))
    if abs(xi_fin[sheet] - xi_end) > min(0.45 * kernel.min_gap(xi_fin),
                                         1e-3 * max(1.0, abs(xi_end))):
        raise ConsistencyError("sheet tracking did not land on the divisor point")
    return sheet


def _integral_to_point(curve, integrand, z0, z_end, xi_end, branch_pts, tol,
                       xi0=None):
    """Integral along the curve from z0 to (z_end, xi_end), on the sheet that
    lands there or, given ``xi0``, on the one that starts at (z0, xi0)."""
    if xi0 is not None and abs(z_end - z0) < 1e-14 * max(1.0, abs(z0)):
        return 0.0
    waypoints = build_path(z0, z_end, branch_pts, tol)
    sheet = None
    if xi0 is not None:
        start = np.sort_complex(_curve_roots(curve.grid.T, waypoints[0]))
        sheet = int(np.argmin(np.abs(start - xi0)))
        if abs(start[sheet] - xi0) > 1e-3 * max(1.0, abs(xi0)):
            raise ConsistencyError("sheet tracking did not start on the divisor point")
    total, xi_fin = sheet_integrals(curve, integrand, waypoints, tol)
    return total[:, _landing_sheet(xi_fin, xi_end, sheet)]


def _log_integrals(curve, a_arr, b, waypoints):
    """int log(a(z) + b xi) dz along every tracked sheet, the log principal at
    the start and continued across each panel's ordered start, nodes and end.
    A panel with a consecutive ratio |ratio - 1| > 0.5 is rejected, so no
    principal log is ever taken of a ratio far from 1."""
    Pg_T = curve.grid.T.copy()
    xi = np.sort_complex(_curve_roots(Pg_T, waypoints[0]))
    v = kernel.poly_eval(a_arr, waypoints[0]) + b * xi
    log_v = np.log(v)
    total = np.zeros_like(log_v)

    def chain(panel):
        zs, _, xi_nodes, z_next, xi_next = panel
        return np.vstack([v, kernel.poly_eval(a_arr, zs)[:, None] + b * xi_nodes,
                          kernel.poly_eval(a_arr, z_next) + b * xi_next])

    panels = _panels(Pg_T, waypoints, xi)
    for panel in panels:
        vals = chain(panel)
        while np.abs(vals[1:] / vals[:-1] - 1.0).max() > 0.5:
            panel = panels.send(False)
            vals = chain(panel)
        steps = np.cumsum(np.log(vals[1:] / vals[:-1]), axis=0)
        total += panel[1] * np.tensordot(_WEIGHTS, log_v + steps[:-1], axes=1)
        log_v, v, xi = log_v + steps[-1], vals[-1], panel[4]
    return total, xi


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

    def integrand(z, xi):
        return (xi / kernel.poly_eval(a_arr, z))[None]

    total = 0.0 + 0.0j
    for z_end, xi_end in zip(points.z, points.xi):
        if b == 0:
            total += _integral_to_point(curve, integrand, z0, z_end, xi_end,
                                        branch_pts, tol)[0]
        else:
            logs, xi_fin = _log_integrals(curve, a_arr, b,
                                          build_path(z0, z_end, branch_pts, tol))
            total += logs[_landing_sheet(xi_fin, xi_end)] / b
    return total


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
            inc += _integral_to_point(curve, integrand, prev_d.z[mu], cur_d.z[mu],
                                      cur_d.xi[mu], bps, tol, xi0=prev_d.xi[mu])
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
