import pickle
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from sovkit import kernel
from sovkit import rational as R
from sovkit.acceptance import RN_COMBOS
from sovkit.errors import ConsistencyError, NonGenericError
from sovkit.tolerances import DEFAULT
from test_kernel import hadamard_scale, mp_det_adj


def unit_disk_matpoly(rng, r, n):
    radius = np.sqrt(rng.uniform(0.0, 1.0, (n + 1, r, r)))
    angle = rng.uniform(0.0, 2 * np.pi, (n + 1, r, r))
    return R.MatPoly(radius * np.exp(1j * angle))


def mp_discriminant(grid):
    """``Res_xi(P, dP/dxi)`` of the grid ``P[k, l]`` (``xi^k z^l``) at the working
    precision, ascending in ``z``: Sylvester determinants at ``kernel.resultant``'s
    ``K`` roots of unity, interpolated by an exact DFT."""
    P = [[mpmath.mpc(complex(v)) for v in row] for row in grid]
    Q = [[k * v for v in row] for k, row in enumerate(P)][1:]
    dp, dq = len(P) - 1, len(Q) - 1
    K = (dp + dq) * (len(P[0]) - 1) + 1
    vals = []
    for s in range(K):
        w = mpmath.expjpi(mpmath.mpf(2 * s) / K)
        pc, qc = ([mpmath.polyval(row[::-1], w) for row in X][::-1] for X in (P, Q))
        vals.append(mpmath.det(mpmath.matrix(
            [[0] * k + pc + [0] * (dq - 1 - k) for k in range(dq)]
            + [[0] * k + qc + [0] * (dp - 1 - k) for k in range(dp)])))
    return [mpmath.fsum(v * mpmath.expjpi(mpmath.mpf(-2 * s * j) / K) for s, v in enumerate(vals)) / K
            for j in range(K)]


class TestSpectralCurve:
    def test_scalar_case(self):
        phi = R.MatPoly(np.array([[[2.0]], [[1.0j]]]))  # phi(z) = 2 + i z
        curve = R.spectral_curve(phi)
        # P = phi(z) - xi
        assert np.allclose(curve.grid[0], [2.0, 1.0j])
        assert np.allclose(curve.grid[1], [-1.0, 0.0])

    def test_diagonal_case(self):
        p = np.array([1.0, 2.0, 0.5])   # p(z)
        q = np.array([-0.3, 1.0j])      # q(z)
        cm = np.zeros((3, 2, 2), dtype=complex)
        cm[:, 0, 0] = p
        cm[:2, 1, 1] = q
        curve = R.spectral_curve(R.MatPoly(cm))
        # (p - xi)(q - xi) expanded by independent polynomial arithmetic
        pq = np.polynomial.polynomial.polymul(p, q)
        assert np.allclose(curve.grid[0, : pq.size], pq)
        minus_sum = -(np.pad(q, (0, 1)) + p)
        assert np.allclose(curve.grid[1, :3], minus_sum)
        assert np.allclose(curve.grid[2, 0], 1.0)

    def test_random_against_determinant(self):
        rng = np.random.default_rng(0)
        phi = unit_disk_matpoly(rng, 2, 2)
        curve = R.spectral_curve(phi)
        for _ in range(25):
            z = rng.standard_normal() + 1j * rng.standard_normal()
            xi = rng.standard_normal() + 1j * rng.standard_normal()
            direct = np.linalg.det(phi(z) - xi * np.eye(2))
            assert abs(curve(z, xi) - direct) < 1e-10 * max(1.0, abs(direct))

    def test_probes_catch_a_perturbed_grid(self, monkeypatch):
        # the 20 stacked determinant probes see one coefficient off by 1e-6
        phi = unit_disk_matpoly(np.random.default_rng(1), 2, 3)
        char_adj = kernel.matpoly_char_adj

        def perturbed(cm):
            C, A = char_adj(cm)
            C = C.copy()
            C[1, 2] += 1e-6
            return C, A

        monkeypatch.setattr(kernel, "matpoly_char_adj", perturbed)
        with pytest.raises(ConsistencyError, match="determinant probe"):
            R.spectral_curve(phi)


class TestGenus:
    @pytest.mark.parametrize("r,n,expected_B,expected_g",
                             [(2, 2, 4, 1), (2, 3, 6, 2)])
    def test_branch_count_oracle(self, r, n, expected_B, expected_g):
        rng = np.random.default_rng(5)
        phi = R.random_instance(r, n, rng)
        # independent oracle for r=2: discriminant = tr^2 - 4 det via numpy
        tr = np.zeros(n + 1, dtype=complex)
        for k in range(n + 1):
            tr[k] = np.trace(phi.coeff_mats[k])
        det = np.zeros(2 * n + 1, dtype=complex)
        cm = phi.coeff_mats
        for k1 in range(n + 1):
            for k2 in range(n + 1):
                det[k1 + k2] += (cm[k1, 0, 0] * cm[k2, 1, 1]
                                 - cm[k1, 0, 1] * cm[k2, 1, 0])
        disc = np.polynomial.polynomial.polymul(tr, tr)
        disc[: 2 * n + 1] -= 4 * det
        roots = np.roots(disc[::-1])
        assert roots.size == expected_B
        assert R.genus(phi) == expected_g

    def test_r1_genus_zero(self):
        phi = R.MatPoly(np.array([[[1.0]], [[2.0]], [[0.5j]]]))
        assert R.genus(phi) == 0

    def test_degenerate_raises(self):
        cm = np.zeros((3, 2, 2), dtype=complex)
        cm[:, 0, 0] = [1.0, 2.0, 0.5]
        cm[:, 1, 1] = [0.3, -1.0, 0.2j]
        with pytest.raises(NonGenericError, match="non-generic"):
            R.genus(R.MatPoly(cm))  # diagonal: all branch points collide

    def test_equal_leading_eigenvalues_raise(self):
        # the two eigenvalues of 0.7 I are equal: their gap is 0
        cm = R._random_disk_cm(2, 2, np.random.default_rng(0))
        cm[-1] = 0.7 * np.eye(2)
        with pytest.raises(NonGenericError, match="leading matrix eigenvalues collide"):
            R.genus(R.MatPoly(cm))

    @pytest.mark.parametrize("r, n", RN_COMBOS)
    def test_branch_points_against_mpmath(self, r, n):
        # the roots of the same discriminant coefficients, to 30 digits
        rng = np.random.default_rng(0)
        for _ in range(10):
            curve = R.spectral_curve(R.random_instance(r, n, rng))
            ours, mults = R.branch_points(curve)
            disc = kernel.resultant(curve.grid, curve.dxi(), "xi")
            with mpmath.workdps(30):
                exact = np.array([complex(v) for v in mpmath.polyroots(
                    [mpmath.mpc(complex(v)) for v in disc[::-1]], maxsteps=200, extraprec=60)])
            assert mults.sum() == exact.size == ours.size
            err = np.abs(exact[:, None] - ours).min(axis=1).max()
            assert err <= 1e-13 * max(1.0, np.abs(exact).max())

    @pytest.mark.parametrize("r, n", RN_COMBOS)
    def test_discriminant_against_50_digit_sylvester(self, r, n):
        # the grid's discriminant has degree n r (r - 1) (a_k = grid[k] has
        # z-degree (r - k) n); each branch point lies within 1e-12 times its
        # condition number sum |D_k| |z|^k / |D'(z)| of an exact root
        rng = np.random.default_rng(0)
        for _ in range(3):
            curve = R.spectral_curve(R.random_instance(r, n, rng))
            disc = kernel.resultant(curve.grid, curve.dxi(), "xi")
            with mpmath.workdps(50):
                exact = mp_discriminant(curve.grid)
                assert max(abs(c) for c in exact[n * r * (r - 1) + 1:]) <= 1e-40
                exact = exact[: n * r * (r - 1) + 1]
                roots = mpmath.polyroots(exact[::-1], maxsteps=200, extraprec=100)
                slope = [k * c for k, c in enumerate(exact)][1:]
                cond = np.array([float(sum(abs(c) * abs(z) ** k for k, c in enumerate(exact))
                                       / abs(mpmath.polyval(slope[::-1], z))) for z in roots])
                roots = np.array([complex(z) for z in roots])
                exact = np.array([complex(c) for c in exact])
            assert disc.size == exact.size
            assert np.abs(disc - exact).max() <= 1e-13 * np.abs(exact).max()
            ours, mults = R.branch_points(curve)
            assert mults.sum() == ours.size == roots.size
            assert np.all(np.abs(roots[:, None] - ours).min(axis=1) <= 1e-12 * cond)


class TestStructureTensor:
    def test_r1_all_zero(self):
        spec = R.BracketSpec(a=(1.0, 0.5), b=2.0)
        t = R.structure_tensor(1, 2, spec)
        x = unit_disk_matpoly(np.random.default_rng(0), 1, 2).flatten()
        assert not t.poisson_matrix(x).any() and not t.poisson_gradient(x).any()

    def test_linear_bracket_closed_form(self):
        # frozen oracle: for a = 1, b = 0 the coordinate brackets are
        # {x^{(p)}_{ij}, x^{(q)}_{uv}} = phi^{(k)}_{iv} d_{uj} - d_{iv} phi^{(k)}_{uj},
        # k = p + q + 1 (zero when k > n)
        r, n = 2, 2
        rng = np.random.default_rng(1)
        phi = unit_disk_matpoly(rng, r, n)
        cm = phi.coeff_mats
        tensor = R.structure_tensor(r, n, R.BracketSpec(a=(1.0,), b=0.0))
        pi = tensor.poisson_matrix(phi.flatten())

        def flat(k, i, j):
            return k * r * r + i * r + j

        for p in range(n + 1):
            for q in range(n + 1):
                for i in range(r):
                    for j in range(r):
                        for u in range(r):
                            for v in range(r):
                                k = p + q + 1
                                expect = 0.0
                                if k <= n:
                                    expect = (cm[k][i, v] * (u == j)
                                              - (i == v) * cm[k][u, j])
                                got = pi[flat(p, i, j), flat(q, u, v)]
                                assert abs(got - expect) < 1e-12

    def test_top_coefficient_is_central(self):
        tensor = R.structure_tensor(2, 2, R.BracketSpec(a=(1.0,), b=0.0))
        rng = np.random.default_rng(2)
        x = unit_disk_matpoly(rng, 2, 2).flatten()
        pi = tensor.poisson_matrix(x)
        top = slice(2 * 4, 3 * 4)  # entries of phi^(n)
        assert np.abs(pi[top, :]).max() < 1e-14

    def test_antisymmetry_exhaustive_r2_n1(self):
        spec = R.BracketSpec(a=(0.3 - 0.1j, 0.2), b=0.7 + 0.4j)
        tensor = R.structure_tensor(2, 1, spec)
        rng = np.random.default_rng(11)
        for _ in range(3):
            x = unit_disk_matpoly(rng, 2, 1).flatten()
            pi = tensor.poisson_matrix(x)
            dpi = tensor.poisson_gradient(x)
            assert np.abs(pi + pi.T).max() == 0.0
            assert np.abs(dpi + dpi.transpose(1, 0, 2)).max() == 0.0

    @pytest.mark.parametrize("r,n", [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (1, 2), (2, 0)])
    def test_direct_kron_oracle(self, r, n):
        # independent oracle: evaluate the defining commutator with plain
        # numpy kron at numeric (lambda, mu) and compare with the assembled
        # tensor summed against the monomial grid
        rng = np.random.default_rng(10 + r + n)
        a = tuple(rng.standard_normal(n + 2) + 1j * rng.standard_normal(n + 2))
        b = complex(rng.standard_normal() + 1j * rng.standard_normal())
        spec = R.BracketSpec(a=a, b=b)
        tensor = R.structure_tensor(r, n, spec)
        phi = unit_disk_matpoly(rng, r, n)
        pi = tensor.poisson_matrix(phi.flatten())
        lam, mu = 0.31 - 0.7j, -0.45 + 0.2j
        eye = np.eye(r)
        P = np.zeros((r * r, r * r))
        for i in range(r):
            for j in range(r):
                P[i * r + j, j * r + i] = 1.0
        aval = lambda z: kernel.poly_eval(np.asarray(a), z)
        M = (np.kron(phi(lam), -aval(mu) * eye - 0.5 * b * phi(mu))
             + np.kron(-aval(lam) * eye - 0.5 * b * phi(lam), phi(mu)))
        W_direct = (P @ M - M @ P) / (lam - mu)
        W_impl = np.zeros((r * r, r * r), dtype=complex)
        for p in range(n + 1):
            for q in range(n + 1):
                for i in range(r):
                    for j in range(r):
                        for u in range(r):
                            for v in range(r):
                                W_impl[i * r + u, j * r + v] += (
                                    lam ** p * mu ** q
                                    * pi[p * r * r + i * r + j,
                                         q * r * r + u * r + v])
        assert np.abs(W_impl - W_direct).max() < 1e-13 * max(1.0, np.abs(W_direct).max())

    @pytest.mark.parametrize("r,n", [(2, 2), (3, 1), (1, 2), (2, 0)])
    def test_stack_of_points_matches_per_point(self, r, n):
        rng = np.random.default_rng(20 + r + n)
        spec = R.BracketSpec(a=tuple(rng.standard_normal(n + 2)), b=0.4 - 0.3j)
        tensor = R.structure_tensor(r, n, spec)
        xs = np.stack([[unit_disk_matpoly(rng, r, n).flatten() for _ in range(2)]
                       for _ in range(3)])
        pis = tensor.poisson_matrix(xs)
        assert pis.shape == (3, 2, tensor.dim, tensor.dim)
        for idx in np.ndindex(3, 2):
            assert np.abs(pis[idx] - tensor.poisson_matrix(xs[idx])).max() < 1e-15

    def test_family_is_affine(self):
        spec1 = R.BracketSpec(a=(0.5, -0.2j), b=0.3)
        spec2 = R.BracketSpec(a=(0.1j, 0.7, -0.4), b=-1.1 + 0.2j)
        spec_sum = R.BracketSpec(
            a=(0.5 + 0.1j, -0.2j + 0.7, -0.4), b=0.3 - 1.1 + 0.2j)
        t1 = R.structure_tensor(2, 2, spec1)
        t2 = R.structure_tensor(2, 2, spec2)
        ts = R.structure_tensor(2, 2, spec_sum)
        rng = np.random.default_rng(14)
        for _ in range(4):
            x = unit_disk_matpoly(rng, 2, 2).flatten()
            assert np.abs(ts.poisson_matrix(x)
                          - (t1.poisson_matrix(x) + t2.poisson_matrix(x))).max() < 1e-12
            assert np.abs(ts.poisson_gradient(x)
                          - (t1.poisson_gradient(x) + t2.poisson_gradient(x))).max() < 1e-12


class TestBracketOp:
    def test_self_bracket_vanishes(self):
        rng = np.random.default_rng(3)
        phi = unit_disk_matpoly(rng, 2, 1)
        spec = R.BracketSpec(a=(1.0, 0.2j), b=0.5)
        A = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        x = phi.flatten()
        grad = (A + A.T) @ x  # of F(x) = x A x
        val = R.bracket(grad, grad, phi, spec)
        assert abs(val) < 1e-8

    def test_coordinate_functions_match_tensor(self):
        rng = np.random.default_rng(4)
        phi = unit_disk_matpoly(rng, 2, 1)
        spec = R.BracketSpec(a=(1.0,), b=0.0)
        tensor = R.structure_tensor(2, 1, spec)
        pi = tensor.poisson_matrix(phi.flatten())
        al, be = 1, 6
        # the coordinate functions x[al] and x[be] have unit-vector gradients
        E = np.eye(tensor.dim)
        val = R.bracket(E[al], E[be], phi, spec)
        assert abs(val - pi[al, be]) < 1e-8

    def test_jacobi_identity(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            deg = int(rng.integers(1, 4))
            spec = R.BracketSpec(
                a=tuple(rng.standard_normal(deg) + 1j * rng.standard_normal(deg)),
                b=complex(rng.standard_normal(), rng.standard_normal()))
            tensor = R.structure_tensor(2, 2, spec)
            x = unit_disk_matpoly(rng, 2, 2).flatten()
            triples = [tuple(rng.integers(0, tensor.dim, 3)) for _ in range(10)]
            assert R.jacobi_max_residual(tensor, x, triples) < 1e-10

    def test_poisson_gradient_matches_fd(self):
        rng = np.random.default_rng(7)
        spec = R.BracketSpec(a=(0.2,), b=1.0 - 0.5j)
        tensor = R.structure_tensor(2, 1, spec)
        x = unit_disk_matpoly(rng, 2, 1).flatten()
        dpi = tensor.poisson_gradient(x)
        h = 1e-6
        for c in (0, 3, 5):
            xp = x.copy(); xp[c] += h
            xm = x.copy(); xm[c] -= h
            fd = (tensor.poisson_matrix(xp) - tensor.poisson_matrix(xm)) / (2 * h)
            assert np.abs(dpi[:, :, c] - fd).max() < 1e-7


def adjugate_gradient_oracle(phi):
    """Every spectral gradient read from ``matpoly_char_adj``'s ``A``:
    ``dC_{k,l}/dphi_p[i, j] = A[k, j, i, l - p]``, 0 for ``l < p``."""
    r, n = phi.r, phi.n
    _, A = kernel.matpoly_char_adj(phi.coeff_mats)
    positions = R.spectral_positions(r, n)
    G = np.zeros((len(positions), n + 1, r, r), dtype=complex)
    for c, (k, l) in enumerate(positions):
        for p in range(min(l, n) + 1):
            G[c, p] = A[k, :, :, l - p].T
    return positions, G.reshape(len(positions), -1), np.abs(A).max()


def captured_flow_field(phi, pos, spec, monkeypatch):
    """The field ``flow`` hands to the ODE solver, captured without stepping."""
    fields = []
    with monkeypatch.context() as m:
        m.setattr(R, "ode_solve", lambda field, x0, *args, **kw: fields.append(field)
                  or np.array([x0]))
        R.flow(phi, pos, spec, [0.0, 1.0])
    return fields[0]


COVECTOR_SHAPES = [(1, 2), (2, 0), (2, 2), (2, 3), (3, 1), (4, 1)]


class TestCovectorPlan:
    @pytest.mark.parametrize("r,n", COVECTOR_SHAPES)
    def test_gradient_matrix_matches_adjugate(self, r, n):
        rng = np.random.default_rng(40 + 10 * r + n)
        phi = unit_disk_matpoly(rng, r, n)
        positions, G = R.spectral_gradient_matrix(phi)
        oracle_positions, oracle, scale = adjugate_gradient_oracle(phi)
        assert positions == oracle_positions
        assert np.abs(G - oracle).max() <= 1e-13 * scale

    @pytest.mark.parametrize("r,n", COVECTOR_SHAPES)
    def test_flow_field_matches_adjugate(self, r, n, monkeypatch):
        rng = np.random.default_rng(50 + 10 * r + n)
        phi = unit_disk_matpoly(rng, r, n)
        x = phi.flatten()
        a = rng.standard_normal(n + 2) + 1j * rng.standard_normal(n + 2)
        random = R.BracketSpec(a=tuple(a), b=complex(rng.standard_normal(), rng.standard_normal()))
        positions, oracle, _ = adjugate_gradient_oracle(phi)
        for spec in (R.BracketSpec(a=(1.0,), b=0.0), R.BracketSpec(a=(0.0,), b=1.0), random):
            pi = R.structure_tensor(r, n, spec).poisson_matrix(x)
            for pos, grad in zip(positions, oracle):
                field = captured_flow_field(phi, pos, spec, monkeypatch)(0.0, x)
                scale = max(np.linalg.norm(pi) * np.linalg.norm(grad), 1e-300)
                assert np.abs(field - pi @ grad).max() <= 1e-13 * scale, (spec, pos)

    def test_flow_stage_makes_no_char_adj_call(self, monkeypatch):
        # a stage reads its covector through the cached flow plan, never through
        # matpoly_char_adj (no FFT over every adjugate column); where the field
        # has degree <= 3 (levels 0 and 1, and level 2 under b = 0) it is a
        # monomial list, so a stage runs no recursion at all, and at level 3
        # (r = 4, k = 0) one, stopped at level 3
        rng = np.random.default_rng(61)
        cases = [(R.random_instance(2, 2, rng), R.BracketSpec(a=(1.0,), b=0.0), 1),
                 (R.random_instance(2, 2, rng), R.BracketSpec(a=(0.0,), b=1.0), 0),
                 (R.random_instance(3, 1, rng), R.BracketSpec(a=(1.0,), b=0.0), 2),
                 (R.random_instance(4, 1, rng), R.BracketSpec(a=(1.0,), b=0.0), 3)]
        recursion = kernel._faddeev_leverrier
        for phi, spec, level in cases:
            hams, _ = R.casimir_detect(phi, spec)
            pos = next(p for p in hams if phi.r - 1 - p[0] == level)
            R.flow(phi, pos, spec, [0.0, 1e-3])      # plans and tensor cached
            counts, shapes = {"char_adj": 0, "field": 0}, []

            def counted(name, fn):
                return lambda *a, **kw: counts.__setitem__(name, counts[name] + 1) or fn(*a, **kw)

            def recorded(*args):
                b, N = recursion(*args)
                shapes.append((b.shape, N.shape))
                return b, N

            with monkeypatch.context() as m:
                m.setattr(kernel, "matpoly_char_adj", counted("char_adj", kernel.matpoly_char_adj))
                m.setattr(kernel, "_faddeev_leverrier", recorded)
                solve = R.ode_solve
                m.setattr(R, "ode_solve", lambda field, *a, **kw: solve(
                    counted("field", field), *a, **kw))
                R.flow(phi, pos, spec, np.linspace(0.0, 0.2, 3))
            K, r = phi.r * phi.n + 1, phi.r
            assert counts["field"] > 2
            assert counts["char_adj"] == 0
            assert shapes == ([((K, 4), (K, 4, r, r))] * counts["field"] if level == 3 else [])

    @pytest.mark.parametrize("position", [(1, 2), (0, 3)])
    def test_flow_stage_stops_at_its_level(self, position, monkeypatch):
        # H = C_{k,l} reads level r - 1 - k of the recursion and nothing above
        # it.  Levels 0 and 1 run it only while the plan is built, once, at the
        # points that read off the covectors' monomials (0 at level 0, all of
        # e_1, ..., e_N at level 1), and never in a stage
        rng = np.random.default_rng(62)
        phi = R.random_instance(2, 2, rng)
        level = phi.r - 1 - position[0]
        shapes, recursion = [], kernel._faddeev_leverrier

        def recorded(*args):
            b, N = recursion(*args)
            shapes.append((b.shape, N.shape))
            return b, N

        monkeypatch.setattr(kernel, "_faddeev_leverrier", recorded)
        R._flow_plan.cache_clear()
        R.flow(phi, position, R.BracketSpec(a=(1.0,), b=0.0), np.linspace(0.0, 0.2, 3))
        K, points = phi.r * phi.n + 1, phi.coeff_mats.size if level else 1
        assert shapes == [((points, K, level + 1), (points, K, level + 1, phi.r, phi.r))]

    @pytest.mark.parametrize("r,n", [(2, 1), (2, 3), (3, 1), (3, 2), (4, 1)])
    def test_affine_plan_matches_the_recursion(self, r, n):
        # below level 2 the covectors are affine in the point: their monomials,
        # read off the recursion at 0 (level 0) or at the e_c (level 1), give the
        # covector blocks of the adjugate gradient at any x, not only on the unit disk
        rng = np.random.default_rng(64 + 10 * r + n)
        N = (n + 1) * r * r
        x = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        positions, G = R.spectral_gradient_matrix(R.MatPoly.from_flat(x, r, n))
        checked = 0
        for pos, grad in zip(positions, G):
            top, vander, blocks = R._flow_covectors(r, n, pos)
            if top > 1:
                continue
            idx, coef = kernel._monomials(lambda y: R._levels(
                y, r, top, vander)[:, :, top].reshape(len(y), -1) @ blocks.T, N, top)
            route = R._covector_blocks(grad.reshape(1, n + 1, r, r)).ravel()
            plan = coef.T @ x[idx].prod(axis=1)
            assert np.abs(plan - route).max() <= 1e-13 * np.abs(route).max(), pos
            checked += 1
        assert checked == sum(r - 1 - k <= 1 for k, _ in positions)


MONOMIAL_SHAPES = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1)]
LINEAR, QUADRATIC = R.BracketSpec(a=(1.0,), b=0.0), R.BracketSpec(a=(0.0,), b=1.0)


def flow_brackets(n, rng):
    """The two fixed brackets, a general one (``deg a = n + 1``, ``b != 0``) and its
    ``a`` under ``b = 0``."""
    a = tuple(rng.standard_normal(n + 2) + 1j * rng.standard_normal(n + 2))
    return [LINEAR, QUADRATIC,
            R.BracketSpec(a=a, b=complex(rng.standard_normal(), rng.standard_normal())),
            R.BracketSpec(a=a, b=0.0)]


def field_degree(r, pos, spec):
    """The degree of the flow field of ``C_pos`` as a polynomial in the point."""
    return r - 1 - pos[0] + (1 if spec.b == 0 else 2)


def contraction_field(r, n, pos, spec):
    """``flow``'s field through ``_lax_field`` on the covector blocks ``blocks @ N_top``: the
    ``"levels"`` route, which every field of degree 4 or more takes."""
    top, vander, blocks = R._flow_covectors(r, n, pos)
    a = R.structure_tensor(r, n, spec).a
    def field(t, x):
        g = blocks @ R._levels(x, r, top, vander)[:, top].reshape(-1)
        return R._lax_field(x[None], g.reshape(2, -1, r), a, spec.b).ravel()
    return field


def plan_position(pos, spec):
    """The position whose linear-bracket plan carries ``C_pos``'s field under ``LINEAR`` or
    ``QUADRATIC`` (the Lenard shift ``(k - 1, l)``), None where that field is 0."""
    k, l = pos
    return pos if spec == LINEAR else (k - 1, l) if k else None


def monomial_field(p, q, x):
    """A ``"monomials"`` plan's field at ``x``: ``q @ prod(x1[p])``, ``x1`` the point and a 1."""
    return q @ np.append(x, 1.0)[p].prod(axis=0)


class TestMonomialFlowField:
    @pytest.mark.parametrize("r,n", MONOMIAL_SHAPES)
    def test_monomials_match_the_contraction(self, r, n):
        # a plan, the linear bracket's field, is a monomial list exactly where its
        # degree is <= 3, and that list equals the "levels" contraction at 5 seeded points
        rng = np.random.default_rng(90 + 10 * r + n)
        positions = R.spectral_positions(r, n)
        checked = 0
        for pos in positions:
            route, p, C = R._flow_plan(r, n, pos)
            if field_degree(r, pos, LINEAR) > 3:
                assert route == "levels", pos
                continue
            assert route == "monomials" and p.shape == (field_degree(r, pos, LINEAR), C.shape[1])
            contraction = contraction_field(r, n, pos, LINEAR)
            for _ in range(5):
                x = rng.standard_normal(C.shape[0]) + 1j * rng.standard_normal(C.shape[0])
                pi = R.structure_tensor(r, n, LINEAR).poisson_matrix(x)
                grad = R.spectral_gradient_matrix(R.MatPoly.from_flat(x, r, n))[1]
                scale = np.linalg.norm(pi) * np.linalg.norm(grad[positions.index(pos)])
                field = monomial_field(p, C, x)
                assert np.abs(field - contraction(0.0, x)).max() <= 1e-13 * scale, pos
            checked += 1
        assert checked == sum(field_degree(r, p, LINEAR) <= 3 for p in positions)

    @pytest.mark.parametrize("degree", [0, 1, 2])
    def test_monomials_of_a_form(self, degree):
        # the read-off on a form with every monomial, squares included (no flow
        # field has a square x_i^2 in a polarized part): x^T S x, v . x or c
        rng = np.random.default_rng(94)
        N = 5
        S = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        S, v, c = S + S.T, S[0], S[0, 0]
        form = [lambda x: np.full((len(x), 1), c), lambda x: (x @ v)[:, None],
                lambda x: np.einsum("pi,ij,pj->p", x, S, x)[:, None]][degree]
        idx, coef = kernel._monomials(form, N, degree)
        assert idx.shape == (N * (N + 1) // 2 if degree == 2 else N ** degree, degree)
        assert (np.diff(idx, axis=1) >= 0).all()
        expected = {0: lambda: c, 1: lambda: v[idx[:, 0]],
                    2: lambda: np.where(idx[:, 0] == idx[:, 1], 1, 2) * S[idx[:, 0], idx[:, 1]]}
        assert np.abs(coef[:, 0] - expected[degree]()).max() <= 1e-14 * np.abs(S).max()

    @pytest.mark.parametrize("r,n", MONOMIAL_SHAPES)
    def test_no_linear_part(self, r, n):
        # the a part of a level-0 field, _lax_field(x, g0, a, 0), is linear in x and
        # vanishes exactly at every x; above level 0 the covectors vanish exactly at
        # x = 0, so their read-off has no constant term.  No plan carries the padded
        # 1, which only flow's merge of several plans adds
        N = (n + 1) * r * r
        for spec in flow_brackets(n, np.random.default_rng(95 + 10 * r + n)):
            a = R.structure_tensor(r, n, spec).a
            for pos in R.spectral_positions(r, n):
                top, vander, blocks = R._flow_covectors(r, n, pos)
                zero = np.zeros(N, dtype=complex)
                g0 = blocks @ R._levels(zero, r, top, vander)[:, top].reshape(-1)
                if top == 0:
                    linear = R._lax_field(np.eye(N, dtype=complex), g0.reshape(2, -1, r), a, 0)
                    assert not linear.any(), (spec, pos)
                else:
                    assert not g0.any(), pos
        for pos in R.spectral_positions(r, n):
            route, p, _ = R._flow_plan(r, n, pos)
            assert route == "levels" or not (p == N).any(), pos

    @pytest.mark.parametrize("r,n", [(2, 2), (3, 1)])
    def test_level_zero_without_b_stays_put(self, r, n):
        # under b = 0 a trace coefficient C_{r-1,l} is a Casimir by construction:
        # its plan has no monomials and its flow never leaves phi0
        rng = np.random.default_rng(97)
        phi = R.random_instance(r, n, rng)
        N = phi.coeff_mats.size
        for spec in (LINEAR, R.BracketSpec(a=tuple(rng.standard_normal(n + 2)), b=0.0)):
            for l in range(n + 1):
                route, idx, C = R._flow_plan(r, n, (r - 1, l))
                assert route == "monomials" and idx.shape == (1, 0) and C.shape == (N, 0)
                traj = R.flow(phi, (r - 1, l), spec, np.linspace(0.0, 0.5, 3))
                assert all(np.array_equal(p.coeff_mats, phi.coeff_mats) for p in traj)

    @pytest.mark.parametrize("r,n", [(2, 2), (3, 1)])
    @pytest.mark.parametrize("spec", [LINEAR, QUADRATIC], ids=["linear", "quadratic"])
    def test_casimir_plans_are_empty(self, r, n, spec):
        # the field of a Casimir is identically 0, and the plan its flow reads (its
        # own under LINEAR, the Lenard shift's under QUADRATIC, none at k = 0) keeps
        # no rounding residue of the read-off (the trim is against the largest
        # covector coefficient, not the largest field coefficient): its flow
        # returns phi0's coefficients exactly
        phi = R.random_instance(r, n, np.random.default_rng(96))
        _, cass = R.casimir_detect(phi, spec)
        monomial = [pos for pos in cass if field_degree(r, pos, spec) <= 3]
        assert (r, n, spec) != (2, 2, LINEAR) or (0, 2) in monomial
        for pos in monomial:
            if plan_position(pos, spec) is not None:
                route, idx, C = R._flow_plan(r, n, plan_position(pos, spec))
                assert route == "monomials" and idx.shape[1] == 0
                assert C.shape == (phi.coeff_mats.size, 0)
            traj = R.flow(phi, pos, spec, np.linspace(0.0, 0.5, 3))
            assert all(np.array_equal(p.coeff_mats, phi.coeff_mats) for p in traj), pos

    def test_monomial_stages_make_no_contraction(self, monkeypatch):
        # a stage of a flow of degree <= 3 is the monomial product alone; a degree-4
        # flow (level 2 under b != 0, or level 3) still contracts once per stage.  A
        # quadratic C_{k,l} flows the linear C_{k-1,l}'s field, so the quadratic cases
        # are Hamiltonians with k >= 1 (a quadratic C_{0,l} is a Casimir)
        rng = np.random.default_rng(98)
        cases = [(R.random_instance(2, 2, rng), LINEAR, (0, 0), 2),
                 (R.random_instance(2, 2, rng), QUADRATIC, (1, 0), 2),
                 (R.random_instance(3, 1, rng), LINEAR, (1, 0), 2),
                 (R.random_instance(3, 1, rng), QUADRATIC, (1, 0), 3),
                 (R.random_instance(3, 1, rng), LINEAR, (0, 0), 3),
                 (R.random_instance(4, 1, rng), QUADRATIC, (1, 0), 4),
                 (R.random_instance(4, 1, rng), LINEAR, (0, 0), 4)]
        for phi, spec, pos, degree in cases:
            R.flow(phi, pos, spec, [0.0, 1e-3])      # the plan is built and cached
            counts = {"field": 0, "lax": 0}
            solve, lax = R.ode_solve, R._lax_field

            def counted_field(field):
                return lambda t, x: counts.__setitem__("field", counts["field"] + 1) or field(t, x)

            def counted_lax(*args):
                counts["lax"] += 1
                return lax(*args)

            with monkeypatch.context() as m:
                m.setattr(R, "_lax_field", counted_lax)
                m.setattr(R, "ode_solve", lambda field, *a, **kw: solve(counted_field(field),
                                                                          *a, **kw))
                R.flow(phi, pos, spec, np.linspace(0.0, 0.2, 3))
            assert counts["field"] > 2
            assert counts["lax"] == (counts["field"] if degree == 4 else 0), (spec, pos)

    @pytest.mark.parametrize("r,n", [(2, 2), (2, 3), (3, 1)])
    @pytest.mark.parametrize("spec", [LINEAR, QUADRATIC], ids=["linear", "quadratic"])
    def test_trajectory_matches_the_contraction(self, r, n, spec):
        # on the benchmark's shapes and brackets a monomial flow follows the
        # contraction's to 1e-11 at t = 0.25; a degree-4 flow is the contraction
        phi = R.random_instance(r, n, np.random.default_rng(99 + 10 * r + n))
        hams, _ = R.casimir_detect(phi, spec)
        x0, times = phi.flatten(), [0.0, 0.25]
        for pos in hams:
            end = R.flow(phi, pos, spec, times)[-1].flatten()
            if field_degree(r, pos, spec) <= 3:
                ref = R.ode_solve(contraction_field(r, n, pos, spec), x0, times)[-1]
                assert np.abs(end - ref).max() <= 1e-11 * np.abs(ref).max(), pos
            else:
                assert R._flow_plan(r, n, plan_position(pos, spec))[0] == "levels"

    def test_plan_cache_is_bounded(self):
        # plans are kept per position, not per bracket: 100 flows under random
        # brackets build one plan per position of the shape, once
        rng = np.random.default_rng(100)
        phi = R.random_instance(2, 1, rng)
        positions = R.spectral_positions(2, 1)
        R._flow_plan.cache_clear()
        for k in range(100):
            b = 0.0 if k % 2 else complex(rng.standard_normal(), rng.standard_normal())
            spec = R.BracketSpec(a=tuple(rng.standard_normal(3)), b=b)
            R.flow(phi, positions[k % len(positions)], spec, [0.0, 1e-3])
        info = R._flow_plan.cache_info()
        assert info.currsize == info.misses == len(positions)


class TestLenardMagri:
    @pytest.mark.parametrize("r,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1)])
    def test_linear_field_of_c_kl_is_quadratic_field_of_c_k1l(self, r, n):
        # the b terms of _lax_field against its a terms: the linear bracket
        # (a = 1, b = 0) flows C_{k,l} as the quadratic one (a = 0, b = 1)
        # flows C_{k+1,l}; C_{0,l} is quadratic-Casimir, and a linear field
        # with no such partner vanishes
        phi = unit_disk_matpoly(np.random.default_rng(70 + 10 * r + n), r, n)
        x = phi.flatten()
        positions, G = R.spectral_gradient_matrix(phi)
        linear, quadratic = (R.structure_tensor(r, n, spec).poisson_matrix(x) @ G.T
                             for spec in (R.BracketSpec(a=(1.0,), b=0.0),
                                          R.BracketSpec(a=(0.0,), b=1.0)))
        scale = max(np.abs(linear).max(), np.abs(quadratic).max())
        pairs = 0
        for i, (k, l) in enumerate(positions):
            if (k + 1, l) in positions:
                partner = quadratic[:, positions.index((k + 1, l))]
                assert np.abs(linear[:, i] - partner).max() <= 1e-13 * scale, (k, l)
                pairs += np.abs(partner).max() > 0.01 * scale
            else:
                assert np.abs(linear[:, i]).max() <= 1e-13 * scale, (k, l)
            if k == 0:
                assert np.abs(quadratic[:, i]).max() <= 1e-13 * scale, (k, l)
        assert pairs > 0

    @pytest.mark.parametrize("r,n", MONOMIAL_SHAPES)
    def test_flow_field_is_the_brackets_field(self, r, n, monkeypatch):
        # flow sums the linear bracket's plans by the recursion; under a random
        # (a, b) with deg a = n + 1 (every shift up to j = n + 1) its stage field is
        # Pi(x) grad C_{k,l}, the gradient read off matpoly_char_adj, at 5 seeded points
        rng = np.random.default_rng(130 + 10 * r + n)
        a = rng.standard_normal(n + 2) + 1j * rng.standard_normal(n + 2)
        spec = R.BracketSpec(a=tuple(a), b=complex(rng.standard_normal(), rng.standard_normal()))
        phi = R.random_instance(r, n, rng)
        positions = R.spectral_positions(r, n)
        fields = [captured_flow_field(phi, pos, spec, monkeypatch) for pos in positions]
        for _ in range(5):
            x = unit_disk_matpoly(rng, r, n).flatten()
            pi = R.structure_tensor(r, n, spec).poisson_matrix(x)
            _, oracle, _ = adjugate_gradient_oracle(R.MatPoly.from_flat(x, r, n))
            for pos, field, grad in zip(positions, fields, oracle):
                scale = np.linalg.norm(pi) * np.linalg.norm(grad)
                assert np.abs(field(0.0, x) - pi @ grad).max() <= 1e-12 * scale, pos

    @pytest.mark.parametrize("r,n", MONOMIAL_SHAPES)
    def test_casimir_detect_follows_the_rule(self, r, n):
        # the linear bracket's Hamiltonians are the positions with l <= (r - k) n -
        # n - 1, its Casimirs the rest; the quadratic bracket's are their shifts
        # (k + 1, l), its Casimirs the rest (every C_{0,l} among them)
        positions = R.spectral_positions(r, n)
        linear = tuple((k, l) for k, l in positions if l <= (r - k) * n - n - 1)
        quadratic = tuple((k + 1, l) for k, l in linear)
        rng = np.random.default_rng(140 + 10 * r + n)
        for _ in range(3):
            phi = R.random_instance(r, n, rng)
            for spec, hams in ((LINEAR, linear), (QUADRATIC, quadratic)):
                assert R.casimir_detect(phi, spec) == (
                    hams, tuple(p for p in positions if p not in hams)), spec


class TestInvolutionAndCasimirs:
    def test_involution_random_bracket(self):
        rng = np.random.default_rng(8)
        phi = R.random_instance(2, 2, rng)
        spec = R.BracketSpec(
            a=tuple(rng.standard_normal(3) + 1j * rng.standard_normal(3)),
            b=complex(rng.standard_normal(), rng.standard_normal()))
        assert R.involution_max_residual(phi, spec) < 1e-12

    def test_linear_bracket_split_r2_n2(self):
        # derived split: traces and the top two det coefficients are Casimirs;
        # the z^0, z^1 det coefficients generate the flows
        rng = np.random.default_rng(9)
        phi = R.random_instance(2, 2, rng)
        hams, cass = R.casimir_detect(phi, R.BracketSpec(a=(1.0,), b=0.0))
        assert set(hams) == {(0, 0), (0, 1)}
        assert set(cass) == {(0, 2), (0, 3), (0, 4), (1, 0), (1, 1), (1, 2)}

    def test_r1_everything_casimir(self):
        phi = R.MatPoly(np.array([[[1.0]], [[0.5j]]]))
        hams, cass = R.casimir_detect(phi, R.BracketSpec(a=(1.0,), b=0.0))
        assert hams == ()
        assert len(cass) == 2

    def test_diagonal_point_raises(self):
        # at a diagonal phi every spectral field vanishes: rank F = 0 < deg B = 2
        cm = np.zeros((3, 2, 2), dtype=complex)
        cm[:, 0, 0] = [0.5, 1.0, 0.3]
        cm[:, 1, 1] = [-0.2, 0.4, 1.0]
        with pytest.raises(NonGenericError, match="span 0 dimensions"):
            R.casimir_detect(R.MatPoly(cm), R.BracketSpec(a=(1.0,), b=0.0))

    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(rn=st.sampled_from(RN_COMBOS), seed=st.integers(0, 2 ** 32 - 1))
    def test_split_is_a_basis_of_the_fields(self, rn, seed):
        # the Hamiltonians' fields are a basis of all the spectral fields, and
        # a Casimir's flow stays put
        r, n = rn
        rng = np.random.default_rng(seed)
        phi = R.random_instance(r, n, rng)
        deg = int(rng.integers(1, n + 3))
        spec = R.BracketSpec(a=tuple(rng.standard_normal(deg) + 1j * rng.standard_normal(deg)),
                             b=complex(rng.standard_normal(), rng.standard_normal()))
        hams, cass = R.casimir_detect(phi, spec)
        assert len(hams) == n * r * (r - 1) // 2
        positions, G = R.spectral_gradient_matrix(phi)
        F = G @ R.structure_tensor(r, n, spec).poisson_matrix(phi.flatten())
        basis = F[[positions.index(p) for p in hams]]
        assert np.linalg.matrix_rank(basis) == len(hams)
        coef, *_ = np.linalg.lstsq(basis.T, F.T, rcond=None)
        assert np.abs(basis.T @ coef - F.T).max() <= 1e-10 * np.abs(F).max()
        traj = R.flow(phi, cass[0], spec, np.linspace(0.0, 1.0, 4))
        assert max(np.abs(p.flatten() - phi.flatten()).max() for p in traj) < 1e-9

    def test_generic_draws_do_not_warn(self):
        rng = np.random.default_rng(12)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for (r, n) in RN_COMBOS:
                phi = R.random_instance(r, n, rng)
                for spec in (R.BracketSpec(a=(1.0,), b=0.0), R.BracketSpec(a=(0.0,), b=1.0),
                             R.BracketSpec(a=(0.3, -1.2j), b=0.8 + 0.5j)):
                    R.casimir_detect(phi, spec)

    def test_detection_margin(self):
        # the classifier must separate sharply: Casimir fields orders of
        # magnitude below the threshold, Hamiltonian fields orders above
        rng = np.random.default_rng(13)
        phi = R.random_instance(2, 2, rng)
        spec = R.BracketSpec(a=(1.0,), b=0.0)
        tensor = R.structure_tensor(2, 2, spec)
        hams, cass = R.casimir_detect(phi, spec)
        positions, G = R.spectral_gradient_matrix(phi)
        pi = tensor.poisson_matrix(phi.flatten())
        for idx, pos in enumerate(positions):
            field = pi @ G[idx]
            rel = np.linalg.norm(field) / (np.linalg.norm(pi) * np.linalg.norm(G[idx]))
            if pos in hams:
                assert rel > 1e-6
            else:
                assert rel < 1e-10


def special_section_matpoly():
    """r = 2, n = 2 (genus 1, deg B = 2) with a triangular leading matrix, so
    e1 is its eigenvector and B = phi_10(z) has degree 1."""
    rng = np.random.default_rng(9)
    cm = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
    cm[2, 1, 0] = 0
    return R.MatPoly(cm)


def fail_first_divisor_point(monkeypatch):
    """Make ``kernel.divisor_points`` report the first point's residual as 1."""
    points = kernel.divisor_points

    def one_bad(*args):
        xis, resid = points(*args)
        return xis, np.where(np.arange(resid.size) == 0, 1.0, resid)

    monkeypatch.setattr(kernel, "divisor_points", one_bad)


class TestDivisor:
    def test_stack_is_each_state_alone(self, monkeypatch):
        # the stack of a trajectory's states gives each state's divisor bit for
        # bit, and raises where a state raises alone
        phi = R.random_instance(2, 2, np.random.default_rng(11))
        spec = R.BracketSpec(a=(1.0,), b=0.0)
        traj = R.flow(phi, R.casimir_detect(phi, spec)[0][0], spec, np.linspace(0.0, 0.05, 5))
        alone = [R.divisor_coords(R.MatPoly(p.coeff_mats)) for p in traj]
        for one, stacked in zip(alone, R._divisor_stack(traj)):
            assert np.array_equal(one.z, stacked.z) and np.array_equal(one.xi, stacked.xi)
            assert one.degenerate == stacked.degenerate
        with pytest.raises(NonGenericError, match="pass another s"):
            R._divisor_stack([traj[0], special_section_matpoly(), traj[1]])
        fail_first_divisor_point(monkeypatch)
        with pytest.raises(ConsistencyError, match="zeros of B are divisor points"):
            R._divisor_stack(traj)

    def test_stack_roots_all_states_in_one_call(self, monkeypatch):
        phi = R.random_instance(2, 2, np.random.default_rng(11))
        spec = R.BracketSpec(a=(1.0,), b=0.0)
        traj = R.flow(phi, R.casimir_detect(phi, spec)[0][0], spec, np.linspace(0.0, 0.05, 5))
        calls, poly_roots = [], kernel.poly_roots
        monkeypatch.setattr(kernel, "poly_roots", lambda *a: calls.append(a) or poly_roots(*a))
        assert len(R._divisor_stack(traj)) == 5 and len(calls) == 1
        assert calls[0][0].shape == (5, 3)

    def test_special_section_raises(self):
        phi = special_section_matpoly()
        assert R.genus(phi) == 1
        with pytest.raises(NonGenericError, match="pass another s"):
            R.divisor_coords(phi)
        assert R.divisor_coords(phi, s=np.array([0.0, 1.0])).count == 2

    @pytest.mark.parametrize("cm", [
        np.array([[[1.2]], [[0.4j]], [[0.7]]]),                 # r = 1
        np.arange(9.0).reshape(1, 3, 3) + 1j,                   # n = 0
    ])
    def test_empty_divisor(self, cm):
        phi = R.MatPoly(cm)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = R.divisor_coords(phi)
            rep = R.verify_canonical(phi, R.BracketSpec(a=(0.3, 1.0), b=0.5))
        assert d.count == 0 and not d.degenerate
        assert rep.points.count == 0 and rep.target_diag.size == 0
        assert (rep.max_zxi_residual, rep.max_zz_residual, rep.max_xixi_residual) == (0, 0, 0)

    def test_failed_point_raises(self, monkeypatch):
        # one point whose residual exceeds tol.divisor: no silently short divisor
        fail_first_divisor_point(monkeypatch)
        phi = R.random_instance(2, 2, np.random.default_rng(17))
        with pytest.raises(ConsistencyError, match="1 of the 2 zeros of B"):
            R.divisor_coords(phi)

    def test_closed_form_offdiagonal(self):
        # phi = [[0, 1], [c(z), 0]] with s = e1: divisor = roots of c at xi = 0
        w1, w2 = 0.4 - 0.3j, -1.1 + 0.2j
        c = np.polynomial.polynomial.polyfromroots([w1, w2])
        cm = np.zeros((3, 2, 2), dtype=complex)
        cm[0, 0, 1] = 1.0
        cm[:, 1, 0] = c
        phi = R.MatPoly(cm)
        d = R.divisor_coords(phi, s=np.array([1.0, 0.0]))
        assert d.count == 2
        assert np.allclose(np.sort_complex(d.z), np.sort_complex([w1, w2]), atol=1e-9)
        assert np.abs(d.xi).max() < 1e-9

    @pytest.mark.parametrize("seed", range(4))
    def test_self_validation(self, seed):
        rng = np.random.default_rng(100 + seed)
        phi = R.random_instance(2, 2, rng)
        curve = R.spectral_curve(phi)
        d = R.divisor_coords(phi)
        assert d.count == 2  # = n for r = 2 with the default constant section
        for z, xi in zip(d.z, d.xi):
            assert abs(curve(z, xi)) < 1e-9 * max(1.0, abs(xi)) ** 2
            v = kernel.adjugate(phi(z) - xi * np.eye(2)) @ d.s
            assert np.abs(v).max() < 1e-8

    def test_count_constant_r3(self):
        counts = set()
        for seed in range(6):
            phi = R.random_instance(3, 1, np.random.default_rng(200 + seed))
            counts.add(R.divisor_coords(phi).count)
        assert len(counts) == 1
        assert counts.pop() == 3  # empirical count g + r - 1, recorded

    def test_two_points_over_one_z_are_both_kept(self):
        # phi(0) is diagonal and s = e1, so B(z) = det[s, phi s, phi^2 s] has
        # a double root at z = 0 and two of the g + r - 1 = 3 points lie there
        rng = np.random.default_rng(3)
        cm = np.zeros((2, 3, 3), dtype=complex)
        cm[0] = np.diag([0.3 + 0.1j, -0.5 + 0.2j, 0.7 - 0.4j])
        cm[1] = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        phi = R.MatPoly(cm)
        s = np.array([1.0, 0.0, 0.0])
        assert R.genus(phi) == 1
        d = R.divisor_coords(phi, s=s)
        assert d.count == 3 and d.degenerate
        at_zero = np.abs(d.z) < 1e-12
        assert np.allclose(np.sort_complex(d.xi[at_zero]), [-0.5 + 0.2j, 0.7 - 0.4j], atol=1e-12)
        # the pair (P, v_c) is singular at (0, -0.5 + 0.2j): no silent success
        with pytest.raises(NonGenericError, match="singular"):
            R.verify_canonical(phi, R.BracketSpec(a=(1.0,), b=0.0), s=s)

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(r=st.integers(2, 4), n=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
    def test_points_against_mpmath(self, r, n, seed):
        phi = R.random_instance(r, n, np.random.default_rng(seed))
        d = R.divisor_coords(phi)
        assert d.count == n * r * (r - 1) // 2
        for z, xi in zip(d.z, d.xi):
            M = phi(z) - xi * np.eye(r)
            det, adj = mp_det_adj(M)
            scale = hadamard_scale(M)
            assert abs(det) <= 1e-10 * scale
            assert np.abs(adj @ d.s).max() <= 1e-10 * scale * np.linalg.norm(d.s)

    def test_points_sorted_deterministically(self):
        rng = np.random.default_rng(14)
        phi = R.random_instance(2, 3, rng)
        d1 = R.divisor_coords(phi)
        d2 = R.divisor_coords(phi)
        assert np.array_equal(d1.z, d2.z)
        assert np.array_equal(d1.xi, d2.xi)


class TestVerifyCanonical:
    @pytest.mark.parametrize("label,a,b,tol", [
        ("linear", (1.0,), 0.0, 1e-9),
        ("quadratic", (0.0,), 1.0, 1e-9),
    ])
    def test_canonical_brackets(self, label, a, b, tol):
        rng = np.random.default_rng(7)
        phi = R.random_instance(2, 2, rng)
        rep = R.verify_canonical(phi, R.BracketSpec(a=a, b=b))
        assert rep.max_zxi_residual < tol
        assert rep.max_zz_residual < tol
        assert rep.max_xixi_residual < tol

    def test_quadratic_diag_target_is_xi(self):
        rng = np.random.default_rng(7)
        phi = R.random_instance(2, 2, rng)
        rep = R.verify_canonical(phi, R.BracketSpec(a=(0.0,), b=1.0))
        assert np.allclose(rep.target_diag, rep.points.xi)


def fd_divisor_jacobian(phi, base, cols, h_rel=1e-5):
    """Oracle: central differences of re-extracted divisors along the
    coordinates ``cols``, each perturbed point matched to its nearest base
    point.  Returns None where matching is undefined (a count change or an
    ambiguous nearest point)."""
    gaps = np.abs(base.z[:, None] - base.z[None]) + np.abs(base.xi[:, None] - base.xi[None])
    limit = 0.5 * gaps[np.triu_indices(base.count, 1)].min() if base.count > 1 else np.inf
    x = phi.flatten()
    dz = np.zeros((base.count, len(cols)), dtype=complex)
    dxi = np.zeros_like(dz)
    for col, c in enumerate(cols):
        h = h_rel * max(1.0, abs(x[c]))
        ends = []
        for sign in (1.0, -1.0):
            xp = x.copy()
            xp[c] += sign * h
            d = R.divisor_coords(R.MatPoly.from_flat(xp, phi.r, phi.n), s=base.s)
            if d.count != base.count:
                return None
            dist = (np.abs(base.z[:, None] - d.z[None])
                    + np.abs(base.xi[:, None] - d.xi[None]))
            idx = np.argmin(dist, axis=1)
            if len(set(idx.tolist())) != base.count or dist[np.arange(base.count), idx].max() > limit:
                return None
            ends.append((d.z[idx], d.xi[idx]))
        (zp, xip), (zm, xim) = ends
        dz[:, col] = (zp - zm) / (2 * h)
        dxi[:, col] = (xip - xim) / (2 * h)
    return dz, dxi


jacobian_settings = settings(max_examples=3, deadline=None,
                             suppress_health_check=[HealthCheck.too_slow])


class TestDivisorJacobian:
    @pytest.mark.parametrize("r,n", [(2, 2), (2, 3), (3, 1), (3, 2), (4, 1)])
    @jacobian_settings
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_finite_differences(self, r, n, seed):
        rng = np.random.default_rng(seed)
        phi = R.random_instance(r, n, rng)
        base, dz, dxi = R.divisor_jacobian(phi)
        cols = rng.permutation(dz.shape[1])[:12]  # 2 re-extractions per column
        oracle = fd_divisor_jacobian(phi, base, cols)
        assume(oracle is not None)  # the oracle, not the Jacobian, needs matching
        fz, fxi = oracle
        assert np.abs(dz[:, cols] - fz).max() <= 1e-6 * max(1.0, np.abs(fz).max())
        assert np.abs(dxi[:, cols] - fxi).max() <= 1e-6 * max(1.0, np.abs(fxi).max())

    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(rn=st.sampled_from([(2, 2), (2, 3), (3, 1)]), seed=st.integers(0, 2 ** 32 - 1))
    def test_canonical_under_random_brackets(self, rn, seed):
        r, n = rn
        rng = np.random.default_rng(seed)
        phi = R.random_instance(r, n, rng)
        deg = int(rng.integers(1, n + 3))
        spec = R.BracketSpec(a=tuple(rng.standard_normal(deg) + 1j * rng.standard_normal(deg)),
                             b=complex(rng.standard_normal(), rng.standard_normal()))
        rep = R.verify_canonical(phi, spec)
        # residuals are relative to the chain-rule row norms, so a divisor
        # point far out (|z| ~ 1e2 in about one draw in 300) meets the gate too
        assert rep.max_residual < 1e-9

    def test_far_divisor_point_is_relative(self):
        # a point at z = 77 + 149j carries a target a(z) + b xi ~ 2.2e4; its
        # absolute {z, z} residual read 3.9e-8, 1.8e-12 of the target
        rng = np.random.default_rng(2000048)
        phi = R.random_instance(3, 1, rng)
        deg = int(rng.integers(1, 4))
        spec = R.BracketSpec(a=tuple(rng.standard_normal(deg) + 1j * rng.standard_normal(deg)),
                             b=complex(rng.standard_normal(), rng.standard_normal()))
        rep = R.verify_canonical(phi, spec)
        assert np.abs(rep.points.z).max() > 100.0
        assert rep.max_residual < 1e-9

    def test_singular_point_raises(self, monkeypatch):
        # phi = diag(p, q): the curve (p - xi)(q - xi) has a node where p = q,
        # and there both partials of P vanish, so J is singular
        p = np.array([0.5, 1.0, 0.3])
        q = np.array([-0.2, 0.4, 1.0])
        cm = np.zeros((3, 2, 2), dtype=complex)
        cm[:, 0, 0] = p
        cm[:, 1, 1] = q
        phi = R.MatPoly(cm)
        z0 = np.polynomial.polynomial.polyroots(p - q)[0]
        node = R.DivisorCoords(z=np.array([z0]), xi=np.array([kernel.poly_eval(p, z0)]),
                               s=np.array([1.0, 0.0], dtype=complex))
        monkeypatch.setattr(R, "divisor_coords", lambda *args, **kwargs: node)
        with pytest.raises(NonGenericError, match="singular"):
            R.divisor_jacobian(phi)


def counted(monkeypatch, owner, name, fail=False):
    """Replace ``owner.name`` by a wrapper that counts its calls (and raises
    ``ConsistencyError`` on each when ``fail``); returns the call list."""
    inner, calls = getattr(owner, name), []

    def wrapper(*args, **kwargs):
        calls.append(args)
        if fail:
            raise ConsistencyError("injected")
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


class TestMemo:
    LINEAR = R.BracketSpec(a=(1.0,), b=0.0)
    QUADRATIC = R.BracketSpec(a=(0.0,), b=1.0)

    @pytest.fixture
    def phi(self):
        return R.random_instance(2, 2, np.random.default_rng(5))

    def test_coefficients_are_a_frozen_copy(self, phi):
        cm = np.array(phi.coeff_mats)
        fresh = R.MatPoly(cm)
        grid = R.spectral_curve(fresh).grid.copy()
        cm[0, 0, 0] += 1.0
        assert not np.shares_memory(fresh.coeff_mats, cm)
        assert np.array_equal(fresh.coeff_mats, phi.coeff_mats)
        assert np.array_equal(R.spectral_curve(fresh).grid, grid)
        with pytest.raises(ValueError):
            fresh.coeff_mats[0, 0, 0] = 1

    def test_memoized_values_are_read_only(self, phi):
        d = R.divisor_coords(phi)
        for arr in (R.spectral_curve(phi).grid, d.z, d.xi, d.s,
                    R.spectral_gradient_matrix(phi)[1], R._poisson(phi, self.LINEAR)):
            with pytest.raises(ValueError):
                arr[0] = 1
        with pytest.raises(AttributeError):
            d.z = d.xi

    def test_a_copy_starts_afresh(self, phi):
        R.spectral_curve(phi)
        twin = pickle.loads(pickle.dumps(phi))
        assert twin._memo == {} and not twin.coeff_mats.flags.writeable
        assert np.array_equal(twin.coeff_mats, phi.coeff_mats)

    def test_equality_is_identity_and_points_hash(self, phi):
        # array fields: a field-wise == would ask numpy for one truth value
        twin = R.MatPoly(phi.coeff_mats.copy())
        tensor = R.structure_tensor(2, 2, self.LINEAR)
        for obj, other in ((phi, twin),
                           (R.spectral_curve(phi), R.spectral_curve(twin)),
                           (R.divisor_coords(phi), R.divisor_coords(twin)),
                           (tensor, R.StructureTensor(2, 2, self.LINEAR, tensor.a.copy()))):
            assert obj == obj and obj != other and hash(obj) == hash(obj)
            assert len({obj, other, obj}) == 2 and {obj: 1, other: 2}[obj] == 1

    def test_curve_then_genus_builds_one_grid(self, phi, monkeypatch):
        fresh = R.MatPoly(phi.coeff_mats)
        calls = counted(monkeypatch, kernel, "matpoly_char_adj")
        R.spectral_curve(fresh)
        assert R.genus(fresh) == 1
        assert len(calls) == 1

    def test_divisor_then_verify_extracts_once(self, phi, monkeypatch):
        calls = counted(monkeypatch, kernel, "divisor_points")
        d = R.divisor_coords(phi)
        rep = R.verify_canonical(phi, self.LINEAR)
        assert rep.points is d and len(calls) == 1

    def test_default_spellings_share_an_entry(self, phi):
        d = R.divisor_coords(phi)
        assert R.divisor_coords(phi, None) is d
        assert R.divisor_coords(phi, s=None, tol=DEFAULT) is d
        assert R.casimir_detect(phi, self.LINEAR) is R.casimir_detect(phi, spec=self.LINEAR)

    def test_other_arguments_compute_afresh(self, phi, monkeypatch):
        calls = counted(monkeypatch, kernel, "divisor_points")
        d = R.divisor_coords(phi)
        tight = R.divisor_coords(phi, tol=DEFAULT.scaled(0.5))
        s = np.array([1.0, 0.0])
        by_array = [R.divisor_coords(phi, s=s) for _ in range(2)]
        assert len(calls) == 4 and tight is not d and by_array[0] is not by_array[1]
        assert np.array_equal(by_array[0].z, d.z) and np.array_equal(tight.xi, d.xi)

    def test_a_raising_call_is_not_kept(self, phi, monkeypatch):
        calls = counted(monkeypatch, kernel, "divisor_points", fail=True)
        for _ in range(2):
            with pytest.raises(ConsistencyError, match="injected"):
                R.divisor_coords(phi)
        assert len(calls) == 2
        monkeypatch.undo()
        for _ in range(2):
            with pytest.raises(TypeError):
                R.divisor_coords(phi, bogus=1)
        assert R.divisor_coords(phi).count == 2

    def test_two_brackets_share_one_gradient_matrix(self, phi, monkeypatch):
        fresh = R.MatPoly(phi.coeff_mats)
        calls = counted(monkeypatch, kernel, "_faddeev_leverrier")
        R.casimir_detect(fresh, self.LINEAR)
        R.casimir_detect(fresh, self.QUADRATIC)
        (p1, g1), (p2, g2) = (R.spectral_gradient_matrix(fresh) for _ in range(2))
        assert len(calls) == 1 and g1 is g2 and p1 == p2 and p1 is not p2

    def test_flow_starts_at_the_point_itself(self, phi):
        hams, _ = R.casimir_detect(phi, self.LINEAR)
        traj = R.flow(phi, hams[0], self.LINEAR, [0.0, 1e-3])
        assert traj[0] is phi and traj[1] is not phi
