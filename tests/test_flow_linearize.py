
import dataclasses
import importlib.util
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sovkit import kernel, linearize
from sovkit import rational as R
from sovkit.acceptance import BRACKETS, RN_COMBOS
from sovkit.errors import ConsistencyError, MatchingError, NonGenericError, NumericDomainError
from sovkit.tolerances import BRANCH_AVOID


def blowup_instance():
    """A (2, 1) point whose flow of C_{1,0} under the quadratic bracket leaves
    the double range before t = 50: the 30th draw of seed 3."""
    rng = np.random.default_rng(3)
    for _ in range(30):
        cm = rng.standard_normal((2, 2, 2)) * 3 + 1j * rng.standard_normal((2, 2, 2)) * 3
    return R.MatPoly(cm)


@pytest.fixture(scope="module")
def instance_r2_n2():
    rng = np.random.default_rng(5)
    phi = R.random_instance(2, 2, rng)
    spec = R.BracketSpec(a=(1.0,), b=0.0)
    hams, cass = R.casimir_detect(phi, spec)
    return phi, spec, hams, cass


@pytest.fixture(scope="module")
def instance_r2_n3():
    rng = np.random.default_rng(21)
    phi = R.random_instance(2, 3, rng)
    spec = R.BracketSpec(a=(1.0,), b=0.0)
    hams, _ = R.casimir_detect(phi, spec)
    return phi, spec, hams


class TestFlow:
    def test_casimir_flow_is_constant(self, instance_r2_n2):
        phi, spec, _, cass = instance_r2_n2
        traj = R.flow(phi, cass[0], spec, np.linspace(0.0, 1.0, 4))
        drift = max(np.abs(p.flatten() - phi.flatten()).max() for p in traj)
        assert drift < 1e-9

    def test_isospectrality(self, instance_r2_n2):
        phi, spec, hams, _ = instance_r2_n2
        base = R.spectral_curve(phi).grid
        scale = max(1.0, np.abs(base).max())
        for pos in hams:
            traj = R.flow(phi, pos, spec, np.linspace(0.0, 1.0, 5))
            drift = max(np.abs(R.spectral_curve(p).grid - base).max() for p in traj)
            assert drift / scale < 1e-8

    def test_flows_commute(self, instance_r2_n2):
        phi, spec, hams, _ = instance_r2_n2
        ta, tb = 0.2, 0.3
        ab = R.flow(R.flow(phi, hams[0], spec, [0, ta])[-1], hams[1], spec, [0, tb])[-1]
        ba = R.flow(R.flow(phi, hams[1], spec, [0, tb])[-1], hams[0], spec, [0, ta])[-1]
        assert np.abs(ab.flatten() - ba.flatten()).max() < 1e-6

    def test_invalid_position_raises(self, instance_r2_n2):
        phi, spec, _, _ = instance_r2_n2
        with pytest.raises(ValueError, match="spectral coefficient"):
            R.flow(phi, (5, 0), spec, [0.0, 1.0])

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(rn=st.sampled_from(RN_COMBOS + ((1, 2), (2, 0))),
           bracket=st.sampled_from(("linear", "quadratic", "random")),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_field_is_pi_times_gradient(self, rn, bracket, seed):
        # the matrix-free Lax-form field equals Pi(x) @ grad C_{k,l} at every
        # spectral position; a Casimir's field vanishes
        r, n = rn
        rng = np.random.default_rng(seed)
        phi = R.random_instance(r, n, rng)
        deg = int(rng.integers(1, n + 3))
        spec = {"linear": R.BracketSpec(a=(1.0,), b=0.0),
                "quadratic": R.BracketSpec(a=(0.0,), b=1.0),
                "random": R.BracketSpec(
                    a=tuple(rng.standard_normal(deg) + 1j * rng.standard_normal(deg)),
                    b=complex(rng.standard_normal(), rng.standard_normal()))}[bracket]
        x0 = phi.flatten()
        pi = R.structure_tensor(r, n, spec).poisson_matrix(x0)
        positions, G = R.spectral_gradient_matrix(phi)
        # deg B = 0 (r = 1 or n = 0): every spectral coefficient is a Casimir
        cass = R.casimir_detect(phi, spec)[1] if r > 1 and n > 0 else positions
        fields = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(R, "ode_solve", lambda field, x, t_grid, tol: fields.append(
                field(0.0, x)) or [x])
            for pos in positions:
                R.flow(phi, pos, spec, [0.0, 1.0])
        for idx, pos in enumerate(positions):
            scale = max(np.linalg.norm(pi) * np.linalg.norm(G[idx]), 1e-300)
            assert np.abs(fields[idx] - pi @ G[idx]).max() <= 1e-13 * scale
            if pos in cass:
                assert np.abs(fields[idx]).max() <= 1e-13 * scale

    def test_non_finite_state_raises(self):
        # this quadratic-bracket flow grows like exp(14 t) and leaves the double
        # range near t = 48: a typed numeric guard, no RuntimeWarning on the way
        phi = blowup_instance()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericDomainError, match="finite range"):
                R.flow(phi, (1, 0), R.BracketSpec(a=(0.0,), b=1.0), np.linspace(0.0, 50.0, 9))
        # a non-finite start is an input error, before any step
        with pytest.raises(ValueError, match="finite"):
            R.MatPoly(np.where(np.eye(2, dtype=bool), np.nan, phi.coeff_mats))


def _build_path_loop(z0, z1, branch_pts):
    """``build_path`` in loop form, the reference for its array form: one
    branch point at a time per segment, the first offending one detoured."""
    branch_pts = np.asarray(branch_pts, dtype=complex)
    scale = max(1.0, abs(z0), abs(z1), np.abs(branch_pts).max() if branch_pts.size else 1.0)
    sep = np.abs(branch_pts[:, None] - branch_pts) + np.diag(np.full(branch_pts.size, np.inf))
    radii = np.minimum(BRANCH_AVOID * scale, 0.25 * sep.min(axis=1, initial=np.inf))
    waypoints = [complex(z0), complex(z1)]
    for _ in range(3):
        clean, out = True, [waypoints[0]]
        for a, b in zip(waypoints, waypoints[1:]):
            insert = None
            for bp, radius in zip(branch_pts, radii):
                ends = min(abs(bp - a), abs(bp - b))
                if ends < 1e-12:
                    continue
                r_avoid = min(radius, 0.5 * ends)
                d = b - a
                t = min(1.0, max(0.0, np.real(np.conj(d) * (bp - a)) / abs(d) ** 2))
                foot = a + t * d
                dist = abs(bp - foot)
                if dist < r_avoid and 0.0 < t < 1.0:
                    normal = (foot - bp) / dist if dist > 1e-12 * scale else 1j * d / abs(d)
                    insert = bp + 2.0 * r_avoid * normal
                    break
            if insert is not None:
                out.append(insert)
                clean = False
            out.append(b)
        waypoints = out
        if clean:
            return waypoints
    raise NumericDomainError("path could not be routed around branch points")


WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


class TestPaths:
    def test_straight_path_when_clear(self):
        pts = linearize.build_path(0.0, 1.0, np.array([2.0 + 2.0j]))
        assert pts == [0.0, 1.0]

    def test_detour_inserted(self):
        bp = np.array([0.5 + 0.0j])
        pts = linearize.build_path(0.0, 1.0, bp)
        assert len(pts) == 3
        dist = min(abs(w - bp[0]) for w in pts)
        assert dist > 1e-2

    def test_routes_between_close_branch_points(self):
        # a (3, 1) instance with the base point far out (|z0| ~ 27, so the
        # uncapped avoidance radius is 0.27) and a divisor point 0.30 and 0.41
        # from two branch points 0.56 apart: each detour used to land beside
        # the other branch point, and routing gave up after three rounds
        z0 = -26.96175823859072 - 2.8694826471154937j
        z1 = -0.11954655036929754 + 0.1733822648114256j
        bps = np.array([-0.3518716078411026 + 0.3652850651649875j,
                        -0.2925587616564978 - 0.19471486157065818j,
                        -0.10858692309773163 - 1.0383047058421757j,
                        0.724958014910418 - 1.043338708929405j,
                        13.937097158105225 - 3.9636558940395052j,
                        16.82260118526929 + 2.043527008422964j])
        pts = linearize.build_path(z0, z1, bps)
        assert pts[0] == z0 and pts[-1] == z1
        clearance = min(linearize._segment_clearance(a, b, bp)[0]
                        for a, b in zip(pts, pts[1:]) for bp in bps)
        assert clearance > 0.1

    def test_detour_clears_neighbouring_branch_point(self):
        # the detour around the first branch point would land 0.05 from the
        # second if its radius were not capped by their 0.55 separation
        bps = np.array([-0.5 + 0.1j, -0.5 - 0.45j])
        pts = linearize.build_path(-30.0, 1.0, bps)
        clearance = min(linearize._segment_clearance(a, b, bp)[0]
                        for a, b in zip(pts, pts[1:]) for bp in bps)
        assert clearance > 0.2

    def test_waypoints_equal_the_loop_over_branch_points(self, monkeypatch):
        # every path that linearize routes in the first 20 rounds of the
        # flow_linearize benchmark pool (seed 1; 13 of them detour), the three
        # routing cases above and an unroutable one, nine branch points in a
        # row along the segment
        spec = importlib.util.spec_from_file_location("workloads", WORKLOADS)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        calls, inner = [], linearize.build_path
        monkeypatch.setattr(linearize, "build_path",
                            lambda *args: calls.append(args) or inner(*args))
        pool = workloads.WORKLOADS["flow_linearize"]
        for rnd in pool.rounds(1)[:20]:
            for _, inst in rnd:
                pool.run(inst, {"window_halvings": 0})
        close = np.array([-0.3518716078411026 + 0.3652850651649875j,
                          -0.2925587616564978 - 0.19471486157065818j,
                          -0.10858692309773163 - 1.0383047058421757j,
                          0.724958014910418 - 1.043338708929405j,
                          13.937097158105225 - 3.9636558940395052j,
                          16.82260118526929 + 2.043527008422964j])
        calls += [(0.0, 1.0, np.array([0.5 + 0.0j])),
                  (-30.0, 1.0, np.array([-0.5 + 0.1j, -0.5 - 0.45j])),
                  (-26.96175823859072 - 2.8694826471154937j,
                   -0.11954655036929754 + 0.1733822648114256j, close)]
        assert len(calls) == 803 and sum(len(inner(*args)) > 2 for args in calls) == 15
        for args in calls:
            assert inner(*args) == _build_path_loop(*args)
        for route in (inner, _build_path_loop):
            with pytest.raises(NumericDomainError, match="could not be routed"):
                route(0.0, 10.0, np.arange(1, 10) + 0.001j)

    def test_base_point_clear_of_branch_points(self):
        bps = np.array([1.0, -1.0, 1j, -1j])
        z0 = linearize.pick_base_point(bps)
        assert np.min(np.abs(z0 - bps)) > 0.5


class TestLinearize:
    def test_path_independence(self, instance_r2_n3):
        phi, spec, hams = instance_r2_n3
        curve = R.spectral_curve(phi)
        disc = kernel.resultant(curve.grid, curve.dxi(), "xi")
        bps, _ = kernel.poly_roots(disc)
        d = R.divisor_coords(phi)
        z0 = linearize.pick_base_point(bps)
        integrand = linearize._conjugate_integrand(curve, spec, hams)
        ze, xe = d.z[0], d.xi[0]
        direct = linearize._integrals_to_points(
            curve, integrand, [z0], [ze], [xe], bps)[0]
        mid = 0.5 * (z0 + ze) + 0.35j * (ze - z0)
        assert np.min(np.abs(mid - bps)) > 0.15
        path = (linearize.build_path(z0, mid, bps)
                + linearize.build_path(mid, ze, bps)[1:])
        total, xi_fin = linearize.sheet_integrals(curve, integrand, [path])
        sheet = int(np.argmin(np.abs(xi_fin[0] - xe)))
        assert np.abs(direct - total[0, :, sheet]).max() < 1e-8

    def test_affine_in_time_with_identity_slopes(self, instance_r2_n3):
        phi, spec, hams = instance_r2_n3
        times = np.linspace(0.0, 0.3, 9)
        traj = R.flow(phi, hams[0], spec, times)
        res = linearize.linearize(traj, times, spec, hams)
        assert res.fit_residuals.max() < 1e-5
        expected = np.zeros(len(hams))
        expected[0] = 1.0
        assert np.abs(res.slopes - expected).max() < 1e-6

    def test_one_solve_fits_as_one_solve_per_position(self):
        # slopes, intercepts and fit residuals against a least-squares solve
        # per position, on the draw of test_sheet_integrals_reference
        phi = R.random_instance(2, 3, np.random.default_rng(7))
        spec = R.BracketSpec(a=(1.0,), b=0.0)
        hams, _ = R.casimir_detect(phi, spec)
        times = np.linspace(0.0, 0.02, 5)
        res = linearize.linearize(R.flow(phi, hams[1], spec, times), times, spec, hams)
        A = np.vstack([times, np.ones_like(times)]).T
        for q, slope, intercept, resid in zip(res.q_table, res.slopes, res.intercepts,
                                              res.fit_residuals):
            coef, *_ = np.linalg.lstsq(A, q, rcond=None)
            scale = max(np.abs(q).max(), 1.0)
            assert abs(slope - coef[0]) <= 1e-14 * max(abs(coef[0]), 1.0)
            assert abs(intercept - coef[1]) <= 1e-15 * scale
            assert abs(resid - np.abs(q - A @ coef).max() / scale) <= 1e-15

    def test_shrinking_time_window_shrinks_residual(self, instance_r2_n3):
        phi, spec, hams = instance_r2_n3
        resids = []
        for t_max in (0.08, 0.04):
            times = np.linspace(0.0, t_max, 9)
            traj = R.flow(phi, hams[1], spec, times)
            res = linearize.linearize(traj, times, spec, hams)
            resids.append(res.fit_residuals.max())
        assert resids[1] <= resids[0] * 1.5 + 1e-12


def _mp_segment(grid, a, b, xi_known, at_end, positions, steps):
    """``int_a^b -(xi^k z^l) / P_xi(z, xi) dz`` for every position ``(k, l)``,
    the linear bracket's conjugate integrand, along the straight segment, by
    ``mpmath.quad`` (Gauss-Legendre).  The sheet through ``xi_known`` at ``a``
    (at ``b`` with ``at_end``) is continued by ``mpmath.polyroots`` over
    ``steps`` equal steps; at a quadrature node it is the root nearest its
    value at the closest step, which must be unambiguous."""
    r = len(grid) - 1
    P = [[mpmath.mpc(complex(v)) for v in row] for row in grid]
    a, b = mpmath.mpc(a), mpmath.mpc(b)

    def roots(s):
        z = a + s * (b - a)
        return mpmath.polyroots([mpmath.polyval(P[k][::-1], z) for k in range(r, -1, -1)])

    grid_s = [mpmath.mpf(j) / steps for j in range(steps + 1)]
    track, prev = {}, mpmath.mpc(xi_known)
    for s in grid_s[::-1] if at_end else grid_s:
        track[s] = prev = min(roots(s), key=lambda x: abs(x - prev))
    sheets = {}

    def sheet(s):
        if s not in sheets:
            near = track[min(grid_s, key=lambda g: abs(g - s))]
            first, second = sorted(roots(s), key=lambda x: abs(x - near))[:2]
            assert abs(first - near) < 0.5 * abs(second - near)
            sheets[s] = first
        return sheets[s]

    def integrand(k, l):
        def f(s):
            xi, z = sheet(s), a + s * (b - a)
            dP = mpmath.fsum(kk * P[kk][ll] * xi ** (kk - 1) * z ** ll
                             for kk in range(1, r + 1) for ll in range(len(P[kk])))
            return -(xi ** k) * z ** l / dP
        return f

    return np.array([complex(mpmath.quad(integrand(k, l), [0, 1], method="gauss-legendre")
                             * (b - a)) for k, l in positions])


class TestValueOracle:
    def test_q_table_against_mpmath(self):
        # Q_i(t) itself, not only its slopes: over each divisor point, the
        # integral along the straight base-point path and then those along the
        # hops between its positions at consecutive times, in mpmath
        phi = R.random_instance(2, 2, np.random.default_rng(8))
        spec = R.BracketSpec(a=(1.0,), b=0.0)
        hams, _ = R.casimir_detect(phi, spec)
        times = np.linspace(0.0, 0.02, 3)
        traj = R.flow(phi, hams[0], spec, times)
        res = linearize.linearize(traj, times, spec, hams)
        curve = R.spectral_curve(phi)
        bps, _ = R.branch_points(curve)
        z0 = linearize.pick_base_point(bps)
        divisors = [R.divisor_coords(p) for p in traj]
        q = np.zeros_like(res.q_table)
        with mpmath.workdps(15):
            for z, xi in zip(divisors[0].z, divisors[0].xi):
                assert len(linearize.build_path(z0, z, bps)) == 2
                acc = _mp_segment(curve.grid, z0, z, xi, True, hams, 16)
                q[:, 0] += acc
                for k, d in enumerate(divisors[1:], 1):
                    j = np.argmin(np.abs(d.z - z) + np.abs(d.xi - xi))
                    acc = acc + _mp_segment(curve.grid, z, d.z[j], xi, False, hams, 1)
                    z, xi = d.z[j], d.xi[j]
                    q[:, k] += acc
        assert np.abs(q - res.q_table).max() <= 1e-10 * np.abs(res.q_table).max()


class TestSlopeMatrix:
    @pytest.mark.parametrize("label", sorted(BRACKETS))
    @pytest.mark.parametrize("rn", RN_COMBOS)
    def test_slopes_are_the_identity(self, rn, label):
        rng = np.random.default_rng(17)
        for _ in range(5):
            phi = R.random_instance(*rn, rng)
            hams, S = linearize.slope_matrix(phi, BRACKETS[label])
            assert hams == R.casimir_detect(phi, BRACKETS[label])[0]
            assert S.shape == (len(hams), len(hams))
            assert np.abs(S - np.eye(len(hams))).max() < 1e-11

    def test_random_bracket_raises(self):
        # here casimir_detect leaves 4 of the 8 positions in neither set
        phi = R.random_instance(2, 2, np.random.default_rng(2))
        spec = R.BracketSpec(a=(0.3 + 0.2j, -0.5 + 1j, 0.7), b=0.4 - 0.9j)
        hams, cass = R.casimir_detect(phi, spec)
        assert len(hams) + len(cass) < len(R.spectral_positions(2, 2))
        with pytest.raises(NonGenericError, match="do not cover"):
            linearize.slope_matrix(phi, spec)

    @pytest.mark.parametrize("label", sorted(BRACKETS))
    def test_swapped_sheets_are_caught(self, label, monkeypatch):
        # Omega on the wrong sheets, as a sheet error in the Abel sums would take it
        inner = linearize.divisor_jacobian

        def swapped(*args, **kwargs):
            points, dz, dxi = inner(*args, **kwargs)
            xi = points.xi.copy()  # the divisor is read-only: swap in a copy
            xi[[0, 1]] = xi[[1, 0]]
            return dataclasses.replace(points, xi=xi), dz, dxi

        monkeypatch.setattr(linearize, "divisor_jacobian", swapped)
        for rn in RN_COMBOS:
            phi = R.random_instance(*rn, np.random.default_rng(17))
            hams, S = linearize.slope_matrix(phi, BRACKETS[label])
            assert np.abs(S - np.eye(len(hams))).max() > 1e-2


@pytest.fixture(scope="module")
def curve_r3_n1():
    phi = R.random_instance(3, 1, np.random.default_rng(3))
    curve = R.spectral_curve(phi)
    disc = kernel.resultant(curve.grid, curve.dxi(), "xi")
    bps, _ = kernel.poly_roots(disc)
    integrand = linearize._conjugate_integrand(
        curve, R.BracketSpec(a=(1.0,), b=0.0), R.spectral_positions(3, 1))
    return curve, bps, integrand


def _loop(centre, radius, vertices=16):
    pts = [centre + radius * np.exp(2j * np.pi * k / vertices) for k in range(vertices)]
    return pts + [pts[0]]


def _start_sheets(curve, z):
    return np.sort_complex(np.roots(kernel.poly_eval(curve.grid.T, z)[::-1]))


class TestSheetTracking:
    def test_loop_around_branch_point_swaps_two_sheets(self, curve_r3_n1):
        curve, bps, integrand = curve_r3_n1
        sep = np.abs(bps[:, None] - bps[None, :])
        np.fill_diagonal(sep, np.inf)
        for i, bp in enumerate(bps):
            loop = _loop(bp, 0.25 * sep[i].min())
            start = _start_sheets(curve, loop[0])
            end = linearize.sheet_integrals(curve, integrand, [loop])[1][0]
            dist = np.abs(end[:, None] - start[None, :])
            perm = np.argmin(dist, axis=1)
            assert dist[np.arange(3), perm].max() < 1e-10
            assert sorted(perm.tolist()) == [0, 1, 2]
            assert int(np.sum(perm != np.arange(3))) == 2

    def test_loop_around_no_branch_point_is_cauchy(self, curve_r3_n1):
        curve, bps, integrand = curve_r3_n1
        centre = 3.0 + 3.0j
        loop = _loop(centre, 0.5 * np.abs(centre - bps).min())
        start = _start_sheets(curve, loop[0])
        total, end = (v[0] for v in linearize.sheet_integrals(curve, integrand, [loop]))
        assert np.abs(end - start).max() < 1e-10
        assert np.abs(integrand(centre, start)).max() > 1.0
        assert np.abs(total).max() < 1e-10

    def test_sheet_integrals_reference(self):
        # the integrals over a one-segment path cut into 23 pieces, walked in
        # 27 panels and 4 rejected attempts, bit for bit; the path ends come
        # from branch_points and divisor_coords
        phi = R.random_instance(2, 3, np.random.default_rng(7))
        curve = R.spectral_curve(phi)
        bps, _ = R.branch_points(curve)
        d = R.divisor_coords(phi)
        integrand = linearize._conjugate_integrand(
            curve, R.BracketSpec(a=(1.0,), b=0.0), [(1, 0), (1, 1), (0, 2)])
        path = linearize.build_path(linearize.pick_base_point(bps), d.z[0], bps)
        total, end = (v[0] for v in linearize.sheet_integrals(curve, integrand, [path]))
        assert np.array_equal(total.ravel(), [
            3.9840044270770285 + 1.0299161544859055j, 2.246395550224871 + 1.8185556215621945j,
            3.7341255774091873 + 7.748899142880276j, 3.937610471263028 + 5.218288821684654j,
            1.429718367224901 - 0.05793742531465225j, -1.4297183672249008 + 0.057937425314652305j])
        assert np.array_equal(end, [2.53207131929456 + 1.057501336559314j,
                                    0.8774556052321555 - 2.3422934648823763j])
        # oracle: the same straight path as 33 waypoints, 32 uncut pieces
        assert len(path) == 2
        fine, fine_end = (v[0] for v in linearize.sheet_integrals(
            curve, integrand, [list(np.linspace(path[0], path[1], 33))]))
        assert np.all(np.abs(total - fine) <= 1e-13 * np.maximum(1.0, np.abs(fine)))
        assert np.array_equal(end, fine_end)


@pytest.fixture(scope="module")
def reference_r2_n3():
    # the draw of test_sheet_integrals_reference
    phi = R.random_instance(2, 3, np.random.default_rng(7))
    curve = R.spectral_curve(phi)
    bps, _ = R.branch_points(curve)
    integrand = linearize._conjugate_integrand(
        curve, R.BracketSpec(a=(1.0,), b=0.0), [(1, 0), (1, 1), (0, 2)])
    return curve, bps, R.divisor_coords(phi), integrand


def _reference_walk(reference):
    """``_walk``'s inputs for the pieces of the reference path."""
    curve, bps, d, _ = reference
    path = linearize.build_path(linearize.pick_base_point(bps), d.z[0], bps)
    Pg_T = curve.grid.T.copy()
    _, a, b = linearize._cut(curve.grid, np.array(path[:-1]), np.array(path[1:]))
    return Pg_T, a, b, np.sort_complex(linearize._curve_roots(Pg_T, a))


class _Counting:
    """Wraps ``linearize.sheet_integrals`` and records the paths of each call."""

    def __init__(self, monkeypatch):
        self.calls, self._inner = [], linearize.sheet_integrals
        monkeypatch.setattr(linearize, "sheet_integrals", self)

    def __call__(self, curve, integrand, paths, *args):
        self.calls.append(len(paths))
        return self._inner(curve, integrand, paths, *args)


class TestBatchedWalk:
    def test_stack_matches_one_path_calls(self, reference_r2_n3):
        curve, bps, d, integrand = reference_r2_n3
        z0 = linearize.pick_base_point(bps)
        sep = np.abs(bps[:, None] - bps[None, :]) + np.diag(np.full(bps.size, np.inf))
        arm = 0.4 * sep[0].min() * np.exp(0.3j)
        detour = linearize.build_path(bps[0] + arm, bps[0] - arm, bps)
        hop = linearize.build_path(d.z[0], d.z[0] + 1e-3, bps)
        reference = linearize.build_path(z0, d.z[0], bps)
        assert len(detour) >= 3 and len(hop) == 2
        paths = [detour, hop, reference]
        total, end = linearize.sheet_integrals(curve, integrand, paths)
        assert total.shape == (3, 3, 2) and end.shape == (3, 2)
        for p, path in enumerate(paths):
            one, one_end = linearize.sheet_integrals(curve, integrand, [path])
            assert np.all(np.abs(total[p] - one[0]) <= 1e-15 * np.maximum(1.0, np.abs(one[0])))
            assert np.array_equal(end[p], one_end[0])

    def test_one_sheet_integrals_call_per_linearize(self, instance_r2_n3, monkeypatch):
        phi, spec, hams = instance_r2_n3
        times = np.linspace(0.0, 0.05, 5)
        traj = R.flow(phi, hams[0], spec, times)
        counting = _Counting(monkeypatch)
        linearize.linearize(traj, times, spec, hams)
        m = R.divisor_coords(phi).count
        assert len(counting.calls) == 1 and 0 < counting.calls[0] <= m * times.size

    def test_start_off_the_divisor_raises_before_stepping(self, reference_r2_n3, monkeypatch):
        curve, bps, d, integrand = reference_r2_n3
        counting = _Counting(monkeypatch)
        z1 = d.z[0] + 1e-3
        with pytest.raises(ConsistencyError, match="did not start"):
            linearize._integrals_to_points(curve, integrand, [d.z[0], d.z[0]], [z1, z1],
                                           [0j, 0j], bps,
                                           [d.xi[0], d.xi[0] + 10.0])
        assert counting.calls == []

    def test_landing_off_the_divisor_raises(self, reference_r2_n3):
        curve, bps, d, integrand = reference_r2_n3
        z0 = linearize.pick_base_point(bps)
        with pytest.raises(ConsistencyError, match="did not land"):
            linearize._integrals_to_points(curve, integrand, z0, d.z[:2],
                                           [d.xi[0], d.xi[1] + 10.0], bps)

    def test_hop_past_clearance_raises_before_stepping(self, reference_r2_n3, monkeypatch):
        curve, bps, d, integrand = reference_r2_n3
        counting = _Counting(monkeypatch)
        with pytest.raises(MatchingError, match="branch clearance"):
            linearize._integrals_to_points(curve, integrand, [d.z[0], bps[0] + 1e-2],
                                           [d.z[0] + 1e-4, bps[0] + 0.5], [0j, 0j], bps, [d.xi[0], 0j])
        assert counting.calls == []

    def test_zero_length_hop_is_zero_and_not_walked(self, reference_r2_n3, monkeypatch):
        curve, bps, d, integrand = reference_r2_n3
        z0 = linearize.pick_base_point(bps)
        counting = _Counting(monkeypatch)
        out = linearize._integrals_to_points(curve, integrand, [d.z[0], z0], d.z[:2], d.xi[:2],
                                             bps, [d.xi[0] + 10.0, np.nan])
        alone = linearize._integrals_to_points(curve, integrand, z0, d.z[1:2], d.xi[1:2], bps)
        assert counting.calls == [1, 1]
        assert not out[0].any() and np.array_equal(out[1], alone[0])

    def test_step_floor_raises(self):
        # a straight path through a branch point: the sheets meet there, so
        # no step passes the gap test and the walk must not accept one
        phi = R.random_instance(2, 2, np.random.default_rng(3))
        curve = R.spectral_curve(phi)
        bps, _ = R.branch_points(curve)
        integrand = linearize._conjugate_integrand(
            curve, R.BracketSpec(a=(1.0,), b=0.0), [(1, 0)])
        with pytest.raises(ConsistencyError, match="below 1e-10"):
            linearize.sheet_integrals(curve, integrand,
                                      [[bps[0] - (0.3 + 0.2j), bps[0] + (0.3 + 0.2j)]])

    def test_junction_off_the_next_start_raises(self, reference_r2_n3, monkeypatch):
        curve, bps, d, integrand = reference_r2_n3
        path = linearize.build_path(linearize.pick_base_point(bps), d.z[0], bps)
        start = _start_sheets(curve, path[0])[None]
        calls, inner = [], linearize._curve_roots

        def shifted_starts(Pg_T, z):
            # only the piece starts: the walk takes its step ends' roots itself
            calls.append(np.shape(z))
            return inner(Pg_T, z) + 0.01

        monkeypatch.setattr(linearize, "_curve_roots", shifted_starts)
        with pytest.raises(ConsistencyError, match="did not land on the next piece"):
            linearize.sheet_integrals(curve, integrand, [path], start)
        assert calls == [(22,)]

    def test_split_path_matches_whole(self, reference_r2_n3):
        curve, bps, d, integrand = reference_r2_n3
        a, b = linearize.build_path(linearize.pick_base_point(bps), d.z[0], bps)
        whole, whole_end = linearize.sheet_integrals(curve, integrand, [[a, b]])
        split, split_end = linearize.sheet_integrals(curve, integrand,
                                                     [[a, a + 0.37 * (b - a), b]])
        assert np.all(np.abs(split - whole) <= 1e-14 * np.maximum(1.0, np.abs(whole)))
        assert np.all(np.abs(split_end - whole_end) <= 1e-14 * np.abs(whole_end))

    def test_reference_path_round_count(self, reference_r2_n3, monkeypatch):
        # one companion call for the cut's 9 samples of the one segment, one
        # for the roots at the 23 piece starts, then one for the step ends of
        # each of 3 lockstep rounds; the walk must not take more than 4
        curve, bps, d, integrand = reference_r2_n3
        path = linearize.build_path(linearize.pick_base_point(bps), d.z[0], bps)
        calls, inner = [], kernel.companion_roots
        monkeypatch.setattr(kernel, "companion_roots",
                            lambda c: calls.append(np.shape(c)) or inner(c))
        linearize.sheet_integrals(curve, integrand, [path])
        assert calls[:2] == [(1, 9, 3), (23, 3)] and len(calls) - 2 <= 4
        assert len(calls) == 5

    def test_node_values_are_the_curve_roots(self, reference_r2_n3):
        # oracle: the Newton-polished node values are the companion roots there
        Pg_T, a, b, start = _reference_walk(reference_r2_n3)
        panels = 0
        for idx, zs, _, xi_nodes, _ in linearize._walk(Pg_T, a, b, start):
            roots = linearize._curve_roots(Pg_T, zs)
            dist = np.abs(xi_nodes[..., :, None] - roots[..., None, :])
            assert np.all(dist.min(axis=-1) <= 1e-13 * np.maximum(1.0, np.abs(xi_nodes)))
            assert np.all(np.sort(dist.argmin(axis=-1), axis=-1) == np.arange(roots.shape[-1]))
            panels += idx.size
        assert panels == 27

    def test_unconverged_polish_is_retried_smaller(self, reference_r2_n3, monkeypatch):
        # the first round's polish reports a last Newton step of 1: none of its
        # panels is yielded, and every piece retries at most at half its first
        # step, all of it; 4 of the 23 pieces move too far to be polished
        Pg_T, a, b, start = _reference_walk(reference_r2_n3)
        calls, inner = [], linearize._polish

        def failing_first(c, x):
            calls.append(len(x))
            xi_nodes, last = inner(c, x)
            return xi_nodes, last + (1.0 if len(calls) == 1 else 0.0)

        monkeypatch.setattr(linearize, "_polish", failing_first)
        idx, _, half, _, _ = next(linearize._walk(Pg_T, a, b, start))
        assert len(calls) == 2 and calls[0] == a.size - 4
        for p, hp in zip(idx, half):
            assert abs(2 * hp) <= abs(b[p] - a[p]) / 2 * (1 + 1e-12)

    def test_polish_that_never_converges_hits_the_floor(self, reference_r2_n3, monkeypatch):
        Pg_T, a, b, start = _reference_walk(reference_r2_n3)
        inner = linearize._polish
        monkeypatch.setattr(linearize, "_polish",
                            lambda c, x: (inner(c, x)[0], np.ones(x.shape)))
        with pytest.raises(ConsistencyError, match="below 1e-10"):
            for _ in linearize._walk(Pg_T, a, b, start):
                pytest.fail("a panel whose polish did not converge was yielded")

    def test_one_companion_matrix_per_active_path_a_round(self, reference_r2_n3, monkeypatch):
        curve, bps, d, integrand = reference_r2_n3
        z0 = linearize.pick_base_point(bps)
        paths = [linearize.build_path(z0, z, bps) for z in d.z]
        assert all(len(p) == 2 for p in paths)
        pieces, _, _ = linearize._cut(curve.grid, *np.array(paths).T)
        shapes, active = [], []
        companion, match = kernel.companion_roots, linearize._match_order
        monkeypatch.setattr(kernel, "companion_roots",
                            lambda c: shapes.append(np.shape(c)) or companion(c))
        monkeypatch.setattr(linearize, "_match_order",
                            lambda ref, roots: active.append(len(ref)) or match(ref, roots))
        linearize.sheet_integrals(curve, integrand, paths)
        r = curve.grid.shape[0] - 1
        # the first call takes the roots at the cut's samples, the second
        # those at the piece starts
        assert shapes[:2] == [(len(paths), 9, r + 1), (pieces.size, r + 1)]
        assert len(active) > 1 and shapes[2:] == [(p, r + 1) for p in active]

    def test_match_order_takes_each_root_once(self):
        ref = np.array([[0.0, 0.1, 3.0], [1.0, 2.0, 3.0]], dtype=complex)
        roots = np.array([[0.05, 5.0, 2.9], [3.1, 1.1, 1.9]], dtype=complex)
        assert np.array_equal(linearize._match_order(ref, roots),
                              [[0.05, 2.9, 5.0], [1.1, 1.9, 3.1]])
