
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sovkit import kernel, linearize
from sovkit import rational as R
from sovkit.acceptance import RN_COMBOS
from sovkit.errors import ConsistencyError, MatchingError


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

    def test_non_finite_state_raises(self, instance_r2_n2, monkeypatch):
        phi, spec, hams, _ = instance_r2_n2
        x = phi.flatten()
        x[3] = np.nan
        fields = []
        monkeypatch.setattr(R, "ode_solve", lambda field, x0, t_grid, tol: fields.append(
            field) or [x0])
        R.flow(phi, hams[0], spec, [0.0, 1.0])
        with pytest.raises(ValueError, match="finite"):
            fields[0](0.0, x)


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
            curve, integrand, [z0], [ze], [xe], bps, linearize.DEFAULT)[0]
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

    def test_generating_function_gradient(self, instance_r2_n3):
        phi, spec, hams = instance_r2_n3
        curve = R.spectral_curve(phi)
        disc = kernel.resultant(curve.grid, curve.dxi(), "xi")
        bps, _ = kernel.poly_roots(disc)
        d = R.divisor_coords(phi)
        z0 = linearize.pick_base_point(bps)
        qs = linearize.abel_sums(curve, spec, d, hams, z0, bps)

        def f_of(grid):
            c2 = R.SpectralCurve(grid=grid, r=2, n=3)
            return linearize.generating_value(c2, spec, d, z0, bps)

        delta = 1e-6
        for idx, (k, l) in enumerate(hams):
            gp = curve.grid.copy()
            gm = curve.grid.copy()
            gp[k, l] += delta
            gm[k, l] -= delta
            fd = (f_of(gp) - f_of(gm)) / (2 * delta)
            assert abs(fd - qs[idx]) < 1e-6

    def test_generating_function_quadratic_bracket(self):
        # b != 0 route: the log-tracked primitive must agree with the
        # quadrature formula as well
        rng = np.random.default_rng(33)
        phi = R.random_instance(2, 2, rng)
        spec = R.BracketSpec(a=(0.0,), b=1.0)
        hams, _ = R.casimir_detect(phi, spec)
        curve = R.spectral_curve(phi)
        disc = kernel.resultant(curve.grid, curve.dxi(), "xi")
        bps, _ = kernel.poly_roots(disc)
        d = R.divisor_coords(phi)
        z0 = linearize.pick_base_point(bps)
        qs = linearize.abel_sums(curve, spec, d, hams, z0, bps)

        def f_of(grid):
            c2 = R.SpectralCurve(grid=grid, r=2, n=2)
            return linearize.generating_value(c2, spec, d, z0, bps)

        delta = 1e-6
        for idx, (k, l) in enumerate(hams):
            gp = curve.grid.copy()
            gm = curve.grid.copy()
            gp[k, l] += delta
            gm[k, l] -= delta
            fd = (f_of(gp) - f_of(gm)) / (2 * delta)
            assert abs(fd - qs[idx]) < 1e-6

    def test_shrinking_time_window_shrinks_residual(self, instance_r2_n3):
        phi, spec, hams = instance_r2_n3
        resids = []
        for t_max in (0.08, 0.04):
            times = np.linspace(0.0, t_max, 9)
            traj = R.flow(phi, hams[1], spec, times)
            res = linearize.linearize(traj, times, spec, hams)
            resids.append(res.fit_residuals.max())
        assert resids[1] <= resids[0] * 1.5 + 1e-12


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

    def test_log_continued_around_a_zero(self):
        # one sheet xi = z^2 of P = z^2 - xi: the path passes 0.005 from the
        # double zero of xi, where whole panels would turn arg(xi) by more
        # than pi, then winds once around it
        curve = R.SpectralCurve(grid=np.array([[0, 0, 1], [-1, 0, 0]], dtype=complex),
                                r=1, n=2)
        path = [1.0 + 0j, -1.0 + 0.01j, -1.0 - 0.5j, 1.0 - 0.5j]
        total, _ = linearize._log_integrals(curve, np.array([0.0 + 0j]), 1.0, [path])
        ze = path[-1]
        exact = 2 * (ze * (np.log(ze) + 2j * np.pi - 1) + 1)  # int 2 log z dz, continued
        assert abs(total[0, 0] - exact) < 1e-9

    def test_sheet_integrals_reference(self):
        # the integrals over a one-segment path cut into 4 pieces, walked in
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
            3.9840044270770285 + 1.0299161544859055j, 2.2463955502248716 + 1.8185556215621947j,
            3.734125577409187 + 7.7488991428802745j, 3.937610471263029 + 5.218288821684654j,
            1.4297183672249005 - 0.05793742531465218j, -1.4297183672249008 + 0.05793742531465222j])
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
                                           [0j, 0j], bps, linearize.DEFAULT,
                                           [d.xi[0], d.xi[0] + 10.0])
        assert counting.calls == []

    def test_landing_off_the_divisor_raises(self, reference_r2_n3):
        curve, bps, d, integrand = reference_r2_n3
        z0 = linearize.pick_base_point(bps)
        with pytest.raises(ConsistencyError, match="did not land"):
            linearize._integrals_to_points(curve, integrand, z0, d.z[:2],
                                           [d.xi[0], d.xi[1] + 10.0], bps, linearize.DEFAULT)

    def test_hop_past_clearance_raises_before_stepping(self, reference_r2_n3, monkeypatch):
        curve, bps, d, integrand = reference_r2_n3
        counting = _Counting(monkeypatch)
        with pytest.raises(MatchingError, match="branch clearance"):
            linearize._integrals_to_points(curve, integrand, [d.z[0], bps[0] + 1e-2],
                                           [d.z[0] + 1e-4, bps[0] + 0.5], [0j, 0j], bps,
                                           linearize.DEFAULT, [d.xi[0], 0j])
        assert counting.calls == []

    def test_zero_length_hop_is_zero_and_not_walked(self, reference_r2_n3, monkeypatch):
        curve, bps, d, integrand = reference_r2_n3
        z0 = linearize.pick_base_point(bps)
        counting = _Counting(monkeypatch)
        out = linearize._integrals_to_points(curve, integrand, [d.z[0], z0], d.z[:2], d.xi[:2],
                                             bps, linearize.DEFAULT, [d.xi[0] + 10.0, np.nan])
        alone = linearize._integrals_to_points(curve, integrand, z0, d.z[1:2], d.xi[1:2], bps,
                                               linearize.DEFAULT)
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
        inner = linearize._curve_roots

        def shifted_starts(Pg_T, z):
            # the piece starts come in one 1-D call, the walk's nodes in 2-D ones
            return inner(Pg_T, z) + (0.05 if np.ndim(z) == 1 else 0.0)

        monkeypatch.setattr(linearize, "_curve_roots", shifted_starts)
        with pytest.raises(ConsistencyError, match="did not land on the next piece"):
            linearize.sheet_integrals(curve, integrand, [path], start)

    def test_split_path_matches_whole(self, reference_r2_n3):
        curve, bps, d, integrand = reference_r2_n3
        a, b = linearize.build_path(linearize.pick_base_point(bps), d.z[0], bps)
        whole, whole_end = linearize.sheet_integrals(curve, integrand, [[a, b]])
        split, split_end = linearize.sheet_integrals(curve, integrand,
                                                     [[a, a + 0.37 * (b - a), b]])
        assert np.all(np.abs(split - whole) <= 1e-14 * np.maximum(1.0, np.abs(whole)))
        assert np.all(np.abs(split_end - whole_end) <= 1e-14 * np.abs(whole_end))

    def test_reference_path_round_count(self, reference_r2_n3, monkeypatch):
        # one call for the roots at the 4 piece starts, then 13 lockstep rounds
        curve, bps, d, integrand = reference_r2_n3
        path = linearize.build_path(linearize.pick_base_point(bps), d.z[0], bps)
        calls, inner = [], linearize._curve_roots
        monkeypatch.setattr(linearize, "_curve_roots",
                            lambda Pg_T, z: calls.append(np.shape(z)) or inner(Pg_T, z))
        linearize.sheet_integrals(curve, integrand, [path])
        assert len(calls) == 14 and calls[0] == (4,)

    def test_match_order_takes_each_root_once(self):
        ref = np.array([[0.0, 0.1, 3.0], [1.0, 2.0, 3.0]], dtype=complex)
        roots = np.array([[0.05, 5.0, 2.9], [3.1, 1.1, 1.9]], dtype=complex)
        assert np.array_equal(linearize._match_order(ref, roots),
                              [[0.05, 2.9, 5.0], [1.1, 1.9, 3.1]])
