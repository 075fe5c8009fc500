import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sovkit import kernel, linearize, numeric, rational, theta
from sovkit.errors import ConvergenceError, NonGenericError
from sovkit.tolerances import Tolerances


def random_poly(rng, deg):
    # coefficients uniform in the unit disk, nonzero leading coefficient
    c = np.sqrt(rng.uniform(0.05, 1.0, deg + 1)) * np.exp(2j * np.pi * rng.uniform(size=deg + 1))
    return c


class TestPolyRoots:
    def test_quadratic_symmetry(self):
        roots, mults = kernel.poly_roots(np.array([1.0, 0.0, 1.0]))
        assert np.allclose(sorted(roots, key=lambda r: r.imag), [-1j, 1j], atol=1e-12)
        assert list(mults) == [1, 1]

    def test_triple_root(self):
        # (xi - 2)^3 = -8 + 12 xi - 6 xi^2 + xi^3
        roots, mults = kernel.poly_roots(np.array([-8.0, 12.0, -6.0, 1.0]))
        assert roots.size == 1
        assert mults[0] == 3
        assert abs(roots[0] - 2.0) < 1e-8

    @pytest.mark.parametrize("seed", range(6))
    def test_random_degree_10_residuals(self, seed):
        rng = np.random.default_rng(seed)
        c = random_poly(rng, 10)
        roots, mults = kernel.poly_roots(c)
        assert mults.sum() == 10
        resid = np.abs(kernel.poly_eval(c, roots))
        assert np.all(resid < 1e-10 * np.abs(c).max() * np.maximum(1.0, np.abs(roots)) ** 10)

    def test_matches_numpy_roots(self):
        rng = np.random.default_rng(42)
        c = random_poly(rng, 7)
        ours, _ = kernel.poly_roots(c)
        ref = np.sort_complex(np.roots(c[::-1]))
        assert np.allclose(np.sort_complex(ours), ref, atol=1e-8)

    def test_zero_polynomial(self):
        with pytest.raises(ValueError, match="undefined roots"):
            kernel.poly_roots(np.zeros(4))

    @pytest.mark.parametrize("root", [5e-324j, 1e-160j])
    def test_multiple_root_with_underflowing_coefficients(self, root):
        # the companion matrix gives exact zeros and subnormal roots here
        c = np.polynomial.polynomial.polyfromroots([root, root, root, 0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            roots, mults = kernel.poly_roots(c)
        assert list(mults) == [3, 1] and np.abs(roots - [root, 0.5]).max() < 1e-12

    def test_unreachable_residual_raises(self):
        c = random_poly(np.random.default_rng(1), 6)
        with pytest.raises(ConvergenceError, match="root residuals") as err:
            kernel.poly_roots(c, Tolerances(root_residual=1e-24))
        assert err.value.best.size == 6

    def test_companion_roots_equal_np_roots(self):
        rows = random_poly(np.random.default_rng(4), 5 * 12 - 1).reshape(12, 5)
        stacked = kernel.companion_roots(rows.reshape(3, 4, 5))
        assert stacked.shape == (3, 4, 4)
        for c, roots in zip(rows, stacked.reshape(12, 4)):
            assert np.array_equal(roots, np.roots(c[::-1]))

    def test_multiplicity_sum_property(self):
        rng = np.random.default_rng(3)
        for deg in (2, 3, 5, 8):
            c = random_poly(rng, deg)
            roots, mults = kernel.poly_roots(c)
            assert mults.sum() == deg
            # self-consistency: the char poly vanishes on its own roots
            assert np.all(np.abs(kernel.poly_eval(c, roots)) < 1e-9)


class TestCharAdj:
    def test_identity_3x3(self):
        c = kernel.char_bipoly(np.eye(3))
        # (1 - xi)^3
        assert np.allclose(c, [1.0, -3.0, 3.0, -1.0])

    def test_diagonal(self):
        c = kernel.char_bipoly(np.diag([1.0, 2.0]))
        assert np.allclose(c, [2.0, -3.0, 1.0])

    def test_random_4x4_against_det(self):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        c = kernel.char_bipoly(M)
        for xi in rng.standard_normal(5) + 1j * rng.standard_normal(5):
            direct = np.linalg.det(M - xi * np.eye(4))
            ours = kernel.poly_eval(c, xi)
            assert abs(ours - direct) < 1e-10 * max(1.0, abs(direct))

    def test_char_roots_are_eigenvalues(self):
        rng = np.random.default_rng(7)
        M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        roots, _ = kernel.poly_roots(kernel.char_bipoly(M))
        eigs = np.sort_complex(np.linalg.eigvals(M))
        assert np.allclose(np.sort_complex(roots), eigs, atol=1e-8)

    def test_adjugate_identity_cases(self):
        assert np.allclose(kernel.adjugate(np.eye(3)), np.eye(3))
        a, b, c, d = 1.3, -0.2 + 1j, 2.0j, 0.7
        M = np.array([[a, b], [c, d]])
        assert np.allclose(kernel.adjugate(M), [[d, -b], [-c, a]])

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_adjugate_times_matrix(self, n):
        rng = np.random.default_rng(n)
        for _ in range(25):
            M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            adj = kernel.adjugate(M)
            det = np.linalg.det(M)
            resid = np.linalg.norm(adj @ M - det * np.eye(n))
            assert resid < 1e-10 * np.linalg.norm(M) ** 3

    def test_adjugate_rank_one_on_singular(self):
        rng = np.random.default_rng(5)
        B = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        C = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        M = B @ C  # rank 3 = n - 1
        s = np.linalg.svd(kernel.adjugate(M), compute_uv=False)
        assert s[0] > 1e-6
        assert np.all(s[1:] < 1e-8 * s[0])

    def test_stack_matches_each_matrix(self):
        rng = np.random.default_rng(9)
        M = rng.standard_normal((3, 2, 4, 4)) + 1j * rng.standard_normal((3, 2, 4, 4))
        adj, char = kernel.adjugate(M), kernel.char_bipoly(M)
        assert adj.shape == M.shape and char.shape == (3, 2, 5)
        for idx in np.ndindex(3, 2):
            ref = kernel.adjugate(M[idx])
            assert np.abs(adj[idx] - ref).max() < 1e-13 * np.abs(ref).max()
            ref = kernel.char_bipoly(M[idx])
            assert np.abs(char[idx] - ref).max() < 1e-13 * np.abs(ref).max()
        for bad in (np.ones(3), np.ones((2, 3, 4))):
            with pytest.raises(ValueError, match="square"):
                kernel.adjugate(bad)


class TestMatpolyCharAdj:
    def test_matches_pointwise_eval(self):
        rng = np.random.default_rng(1)
        r, n = 3, 2
        cm = rng.standard_normal((n + 1, r, r)) + 1j * rng.standard_normal((n + 1, r, r))
        C, A = kernel.matpoly_char_adj(cm)
        for _ in range(5):
            z = rng.standard_normal() + 1j * rng.standard_normal()
            xi = rng.standard_normal() + 1j * rng.standard_normal()
            M = sum(cm[k] * z ** k for k in range(n + 1)) - xi * np.eye(r)
            det_direct = np.linalg.det(M)
            det_ours = sum(kernel.poly_eval(C[k], z) * xi ** k for k in range(r + 1))
            assert abs(det_ours - det_direct) < 1e-9 * max(1.0, abs(det_direct))
            adj_direct = kernel.adjugate(M)
            adj_ours = np.zeros((r, r), dtype=complex)
            for k in range(r):
                for i in range(r):
                    for j in range(r):
                        adj_ours[i, j] += kernel.poly_eval(A[k][i][j], z) * xi ** k
            assert np.allclose(adj_ours, adj_direct, atol=1e-8)


class TestDivisorPoints:
    def test_residual_small_at_zeros_of_b_only(self):
        rng = np.random.default_rng(5)
        r, n = 3, 2
        cm = rng.standard_normal((n + 1, r, r)) + 1j * rng.standard_normal((n + 1, r, r))
        s = rng.standard_normal(r) + 1j * rng.standard_normal(r)
        phi = lambda z: np.tensordot(z[:, None] ** np.arange(n + 1), cm, 1)
        # B(z) = det[s, phi s, phi^2 s] from its values at deg B + 1 roots of unity
        K = n * r * (r - 1) // 2 + 1
        zk = np.exp(2j * np.pi * np.arange(K) / K)
        zs, ms = kernel.poly_roots(np.fft.fft(np.linalg.det(kernel.krylov(phi(zk), s))) / K)
        xi, resid = kernel.divisor_points(phi(zs), s, ms)
        assert xi.size == K - 1 and resid.max() <= 1e-12
        _, resid = kernel.divisor_points(phi(0.5 * (zs[:1] + zs[1:2])), s, [1])
        assert resid[0] > 1e-6

    def test_two_points_over_one_z(self):
        # the Krylov space of e1 under a diagonal matrix is one line, so both
        # remaining eigenvalues are divisor points
        phi0 = np.diag([0.3 + 0.1j, -0.5 + 0.2j, 0.7 - 0.4j])
        xi, resid = kernel.divisor_points(phi0[None], np.array([1.0, 0.0, 0.0]), [2])
        assert np.allclose(np.sort_complex(xi), [-0.5 + 0.2j, 0.7 - 0.4j], rtol=0, atol=1e-14)
        assert resid.max() <= 1e-14


def mp_det(rows):
    """Laplace expansion along the first row; the empty matrix has det 1."""
    if not rows:
        return mpmath.mpc(1)
    return mpmath.fsum((-1) ** j * rows[0][j]
                       * mp_det([row[:j] + row[j + 1:] for row in rows[1:]])
                       for j in range(len(rows)))


def mp_det_adj(M):
    """Determinant and cofactor adjugate of a complex matrix at 30 digits."""
    r = M.shape[0]
    with mpmath.workdps(30):
        rows = [[mpmath.mpc(complex(v)) for v in row] for row in M]
        det = complex(mp_det(rows))
        adj = np.empty((r, r), dtype=complex)
        for i in range(r):
            for j in range(r):
                minor = [row[:i] + row[i + 1:] for a, row in enumerate(rows) if a != j]
                adj[i, j] = (-1) ** (i + j) * complex(mp_det(minor))
    return det, adj


def hadamard_scale(M):
    """Bounds |det M| and every cofactor of M: prod_i max(1, |row_i|)."""
    return float(np.prod(np.maximum(1.0, np.linalg.norm(M, axis=1))))


unit_disk = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)
probe = st.complex_numbers(max_magnitude=1.5, allow_nan=False, allow_infinity=False)
oracle_settings = settings(max_examples=60, deadline=None,
                           suppress_health_check=[HealthCheck.too_slow])


@st.composite
def matrix_polynomials(draw):
    r = draw(st.integers(1, 4))
    n = draw(st.integers(0, 3))
    return draw(arrays(complex, (n + 1, r, r), elements=unit_disk))


class TestKernelAgainstMpmath:
    @oracle_settings
    @given(cm=matrix_polynomials(), z=probe, xi=probe)
    def test_matpoly_char_adj(self, cm, z, xi):
        n1, r, _ = cm.shape
        n = n1 - 1
        C, A = kernel.matpoly_char_adj(cm)
        assert C.shape == (r + 1, r * n + 1)
        assert A.shape == (r, r, r, r * n + 1)
        for k in range(r + 1):
            assert np.all(C[k, (r - k) * n + 1:] == 0)
        for k in range(r):
            assert np.all(A[k, :, :, (r - 1 - k) * n + 1:] == 0)
        M = np.tensordot(z ** np.arange(n1), cm, 1) - xi * np.eye(r)
        det, adj = mp_det_adj(M)
        scale = hadamard_scale(M)
        assert abs(kernel.bipoly_eval(C, z, xi) - det) <= 1e-11 * scale
        ours = np.einsum("kijl,k,l->ij", A, xi ** np.arange(r), z ** np.arange(r * n + 1))
        assert np.abs(ours - adj).max() <= 1e-11 * scale

    @oracle_settings
    @given(M=st.integers(1, 4).flatmap(lambda r: arrays(complex, (r, r), elements=unit_disk)),
           xi=probe)
    def test_char_bipoly_and_adjugate(self, M, xi):
        r = M.shape[0]
        c = kernel.char_bipoly(M)
        assert c[r] == (-1.0) ** r
        shifted = M - xi * np.eye(r)
        det, _ = mp_det_adj(shifted)
        assert abs(kernel.poly_eval(c, xi) - det) <= 1e-11 * hadamard_scale(shifted)
        _, adj = mp_det_adj(M)
        assert np.abs(kernel.adjugate(M) - adj).max() <= 1e-11 * hadamard_scale(M)


@st.composite
def planted_roots(draw):
    """Up to three roots at least 0.3 apart (distinct cells of a 0.5-spaced
    lattice, each moved by at most 0.1), with multiplicities 1..3."""
    cells = draw(st.lists(st.integers(0, 24), min_size=1, max_size=3, unique=True))
    offsets = draw(st.lists(st.complex_numbers(max_magnitude=0.1),
                            min_size=len(cells), max_size=len(cells)))
    roots = [complex(0.5 * (c % 5 - 2), 0.5 * (c // 5 - 2)) + w
             for c, w in zip(cells, offsets)]
    mults = draw(st.lists(st.integers(1, 3), min_size=len(cells), max_size=len(cells)))
    return roots, mults


def mp_sylvester_det(pc, qc):
    """Resultant of two univariate polynomials (ascending mpc coefficients)
    as the determinant of their Sylvester matrix."""
    dp, dq = len(pc) - 1, len(qc) - 1
    rows = ([[mpmath.mpc(0)] * k + pc[::-1] + [mpmath.mpc(0)] * (dq - 1 - k)
             for k in range(dq)]
            + [[mpmath.mpc(0)] * k + qc[::-1] + [mpmath.mpc(0)] * (dp - 1 - k)
               for k in range(dp)])
    return mp_det(rows)


@st.composite
def eliminable_grids(draw):
    """A grid ``c[k, l]`` of degree 1..3 in the variable of axis 0 (the one
    eliminated) and 0..2 in the other, with ``|c[-1, 0]| >= 0.5`` so that the
    degree in the eliminated variable is exact."""
    c = draw(st.tuples(st.integers(1, 3), st.integers(0, 2)).flatmap(
        lambda d: arrays(complex, (d[0] + 1, d[1] + 1), elements=unit_disk)))
    lead = draw(st.complex_numbers(min_magnitude=0.5, max_magnitude=1.0))
    c[-1, 0] = lead
    return c


class TestPolyRootsAndResultantAgainstMpmath:
    @oracle_settings
    @given(planted=planted_roots())
    # a plain Newton step from the companion roots leaves the triple root
    # with a residual of 1e-12
    @example(planted=([-0.9999999999 + 0.5j, 0.5 + 0.9749251844777421j, 0.4j], [3, 1, 2]))
    # two simple roots whose midpoint is a triple root are not one double root
    @example(planted=([-1 - 1j, -0.5 - 1j, -1j], [1, 3, 1]))
    def test_poly_roots_planted_multiplicities(self, planted):
        roots, mults = planted
        c = np.polynomial.polynomial.polyfromroots(np.repeat(roots, mults))
        ours, our_mults = kernel.poly_roots(c)
        assert sorted(our_mults.tolist()) == sorted(mults)
        # oracle: the roots of the rounded coefficients to double accuracy,
        # iterated with 250 extra bits so that Durand-Kerner also settles on
        # an exact multiple root; a planted m-fold root is m of them (split by
        # the coefficient rounding or not), and their centroid is well
        # conditioned
        with mpmath.workdps(15):
            exact = mpmath.polyroots([mpmath.mpc(complex(v)) for v in c[::-1]],
                                     maxsteps=400, extraprec=250)
            exact = np.array([complex(v) for v in exact])
        for root, m in zip(roots, mults):
            cluster = exact[np.argsort(np.abs(exact - root))[:m]]
            k = np.argmin(np.abs(ours - root))
            assert our_mults[k] == m
            assert abs(ours[k] - cluster.mean()) <= 1e-9

    @oracle_settings
    @given(p=eliminable_grids(), q=eliminable_grids(),
           eliminate=st.sampled_from(["xi", "z"]), w=unit_disk)
    def test_resultant_against_sylvester_determinant(self, p, q, eliminate, w):
        # grid axis 0 is the eliminated variable; resultant wants xi on axis 0
        if eliminate == "xi":
            res = kernel.resultant(p, q, "xi")
        else:
            res = kernel.resultant(p.T, q.T, "z")
        # coefficients in the eliminated variable at the surviving value w
        with mpmath.workdps(30):
            pc = [mpmath.polyval([mpmath.mpc(complex(v)) for v in row[::-1]], w) for row in p]
            qc = [mpmath.polyval([mpmath.mpc(complex(v)) for v in row[::-1]], w) for row in q]
            det = complex(mp_sylvester_det(pc, qc))
        # Hadamard bound of the Sylvester matrix over the whole unit disk
        prow = np.linalg.norm(np.abs(p).sum(axis=1))
        qrow = np.linalg.norm(np.abs(q).sum(axis=1))
        scale = max(1.0, prow) ** (q.shape[0] - 1) * max(1.0, qrow) ** (p.shape[0] - 1)
        assert abs(kernel.poly_eval(res, w) - det) <= 1e-11 * scale


class TestResultant:
    def test_linear_case(self):
        # res_xi(xi - a(z), xi - b(z)) = +-(a(z) - b(z))
        a = np.array([1.0, 2.0, 0.5])
        b = np.array([-0.5, 1.0])
        p = np.zeros((2, 3), dtype=complex)
        p[0, :] = -a
        p[1, 0] = 1.0
        q = np.zeros((2, 3), dtype=complex)
        q[0, :2] = -b
        q[1, 0] = 1.0
        res = kernel.resultant(p, q, "xi")
        diff = kernel.poly_trim(a - np.pad(b, (0, 1)))
        match_plus = np.allclose(res, diff, atol=1e-12)
        match_minus = np.allclose(res, -diff, atol=1e-12)
        assert match_plus or match_minus

    def test_constructed_common_root(self):
        rng = np.random.default_rng(2)
        z0, xi0 = 0.3 - 0.2j, 1.1 + 0.4j
        # p = (xi - xi0)(xi - (z + 1)),  q = (xi - xi0)(xi + z**2) at z = z0 share xi0
        p = np.zeros((3, 2), dtype=complex)
        p[2, 0] = 1.0
        p[1, 0] = -xi0 - 1.0
        p[1, 1] = -1.0
        p[0, 0] = xi0
        p[0, 1] = xi0
        q = np.zeros((3, 3), dtype=complex)
        q[2, 0] = 1.0
        q[1, 0] = -xi0
        q[1, 2] = 1.0
        q[0, 2] = -xi0
        res = kernel.resultant(p, q, "xi")
        # the common root is engineered for every z, so the resultant vanishes at z0
        assert abs(kernel.poly_eval(res, z0)) < 1e-9

    def test_roots_against_common_root_search(self):
        rng = np.random.default_rng(11)
        p = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        q = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        res = kernel.resultant(p, q, "xi")
        roots, _ = kernel.poly_roots(res)
        # oracle: at each resultant root the two xi-slices share a root (via numpy)
        for z in roots:
            pc = kernel.poly_eval(p.T, z)  # xi-coefficients at this z (ascending)
            qc = kernel.poly_eval(q.T, z)
            pr = np.roots(pc[::-1])
            qr = np.roots(qc[::-1])
            gap = np.min(np.abs(pr[:, None] - qr[None, :]))
            assert gap < 1e-6
        # oracle completeness: a brute common root must show up in the resultant roots
        zs = rng.standard_normal(200) + 1j * rng.standard_normal(200)
        for z in zs:
            pc = kernel.poly_eval(p.T, z)
            qc = kernel.poly_eval(q.T, z)
            gap = np.min(np.abs(np.roots(pc[::-1])[:, None] - np.roots(qc[::-1])[None, :]))
            if gap < 1e-8:
                assert np.min(np.abs(roots - z)) < 1e-6

    def test_degenerate_raises(self):
        p = np.zeros((1, 3), dtype=complex)
        p[0] = [1.0, 2.0, 3.0]
        with pytest.raises(NonGenericError, match="resultant degenerate"):
            kernel.resultant(p, p, "xi")


class TestBiPoly:
    def test_eval_and_partials(self):
        rng = np.random.default_rng(4)
        c = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        z, xi = 0.3 + 0.1j, -0.7 + 0.9j
        direct = sum(c[k, l] * xi ** k * z ** l for k in range(3) for l in range(4))
        assert abs(kernel.bipoly_eval(c, z, xi) - direct) < 1e-12
        h = 1e-6
        dxi_fd = (kernel.bipoly_eval(c, z, xi + h) - kernel.bipoly_eval(c, z, xi - h)) / (2 * h)
        assert abs(kernel.bipoly_eval(kernel.bipoly_dxi(c), z, xi) - dxi_fd) < 1e-7


class TestMinGap:
    def test_equals_upper_triangle_minimum(self):
        # the diagonal mask gives the minimum over i < j bit for bit, for one
        # coordinate and for the sum of two (the divisor crowding gap)
        rng = np.random.default_rng(2)
        for size in range(2, 9):
            z, xi = rng.standard_normal((2, size)) + 1j * rng.standard_normal((2, size))
            pairs = np.triu_indices(size, 1)
            d = np.abs(z[:, None] - z)
            assert kernel.min_gap(z) == d[pairs].min()
            d = d + np.abs(xi[:, None] - xi)
            assert kernel.min_gap(z, xi) == d[pairs].min()

    def test_stack_is_one_gap_per_row(self):
        rng = np.random.default_rng(3)
        z = rng.standard_normal((4, 3, 5)) + 1j * rng.standard_normal((4, 3, 5))
        gaps = kernel.min_gap(z)
        assert gaps.shape == (4, 3)
        assert all(gaps[i, j] == kernel.min_gap(z[i, j]) for i in range(4) for j in range(3))
        assert np.array_equal(kernel.min_gap(z[:, :, :1]), np.full((4, 3), np.inf))

    def test_below_two_points_is_inf(self):
        assert kernel.min_gap(np.zeros(0, dtype=complex)) == np.inf
        assert kernel.min_gap(np.array([1.0 + 1j]), np.array([2.0])) == np.inf


def test_cached_plans_and_tables_are_read_only():
    # lru_cache and module tables hand one array to every caller
    quotients = [theta.f_quotients(theta.ThetaParams(tau=0.3 + 1.1j, r=r)) for r in (2, 3)]
    for arr in [*kernel._char_adj_plan(2, 3), *rational._lax_plan(2, 2),
                *rational._covector_plan(2, 2, ((1, 0), (0, 3))),
                rational.structure_tensor(2, 2, rational.BracketSpec(a=(1.0,), b=0.0)).a,
                *(getattr(q, name) for q in quotients
                  for name in ("shifts", "powers", "phase", "coef")),
                linearize._NODES, linearize._WEIGHTS, linearize._FRAC,
                numeric._DP_C, numeric._DP_A, numeric._DP_E]:
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = arr[(0,) * arr.ndim]
