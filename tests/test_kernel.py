import warnings

import mpmath
import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sovkit import kernel, linearize, numeric, rational, theta
from sovkit.errors import ConvergenceError, NonGenericError
from sovkit.tolerances import ZERO_TRIM, Tolerances


def random_poly(rng, deg):
    # coefficients uniform in the unit disk, nonzero leading coefficient
    c = np.sqrt(rng.uniform(0.05, 1.0, deg + 1)) * np.exp(2j * np.pi * rng.uniform(size=deg + 1))
    return c


class TestTrim:
    def test_degree_is_the_trim_loop(self):
        def loop_degree(c):
            # the trailing-coefficient loop poly_trim ran on one polynomial
            top = max((abs(v) for v in c), default=0.0)
            k = len(c) - 1
            while k >= 0 and abs(c[k]) <= ZERO_TRIM * top:
                k -= 1
            return k

        rows = random_poly(np.random.default_rng(5), 6 * 5 - 1).reshape(5, 6)
        rows[1, 4:] *= 1e-15                    # two trailing noise coefficients
        rows[2, -1] = 0.0
        rows[3] = 0.0                           # the zero polynomial
        rows[4] = [1e-14, 0, 0, 0, 0, 0]
        degrees = kernel.poly_degree(rows)
        assert degrees.tolist() == [loop_degree(r) for r in rows] == [5, 3, 4, -1, 0]
        for row, deg in zip(rows, degrees):
            assert np.array_equal(kernel.poly_trim(row), row[: deg + 1])
        assert kernel.poly_trim(np.zeros(0)).size == 0


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

    @pytest.mark.parametrize("shape", [(0, 3), (0, 1), (2, 0, 3)])
    def test_empty_stack(self, shape):
        assert kernel.poly_roots(np.zeros(shape)) == []

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

    def test_stack_raises_where_a_row_raises(self):
        # x^3 and (x-1)(x-2)(x-3) reach a zero residual, the random row does not
        rows = np.array([[0.0, 0.0, 0.0, 1.0], npoly.polyfromroots([1.0, 2.0, 3.0]),
                         random_poly(np.random.default_rng(1), 3)])
        tight = Tolerances(root_residual=1e-24)
        for row in rows[:2]:
            kernel.poly_roots(row, tight)
        with pytest.raises(ConvergenceError, match="root residuals") as alone:
            kernel.poly_roots(rows[2], tight)
        with pytest.raises(ConvergenceError, match="root residuals") as stacked:
            kernel.poly_roots(rows, tight)
        assert np.array_equal(stacked.value.best, alone.value.best)

    def test_stack_with_a_zero_row(self):
        with pytest.raises(ValueError, match="undefined roots"):
            kernel.poly_roots(np.array([[1.0, 2.0, 1.0], [0.0, 0.0, 0.0]]))

    def test_stack_rows_of_unequal_degree(self):
        # the second row trims to degree 1
        with pytest.raises(ValueError, match="different degrees"):
            kernel.poly_roots(np.array([[1.0, 2.0, 1.0], [1.0, 1.0, 1e-20]]))

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


def textbook_faddeev_leverrier(M):
    """The recursion as written in textbooks: every product ``M N_(k-1)`` is
    formed, ``M N_0 = M I`` included; the last level needs only a trace."""
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
    b[..., r] = -np.einsum("...ij,...ji->...", M, N[..., r - 1, :, :]) / r
    return b, N


class TestCharAdj:
    @pytest.mark.parametrize("stack", [(), (6,), (2, 3)])
    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_recursion_matches_textbook_bit_for_bit(self, r, stack):
        # the product with N_0 = I is skipped: M @ I == M exactly
        rng = np.random.default_rng(10 * r + len(stack))
        M = rng.standard_normal(stack + (r, r)) + 1j * rng.standard_normal(stack + (r, r))
        b, N = kernel._faddeev_leverrier(M)
        ref_b, ref_N = textbook_faddeev_leverrier(M)
        assert b.shape == ref_b.shape and N.shape == ref_N.shape
        assert b.tobytes() == ref_b.tobytes() and N.tobytes() == ref_N.tobytes()
        for top in range(r):
            # stopped at a level: the leading levels, without the closing trace
            b, N = kernel._faddeev_leverrier(M, top)
            assert b.shape == stack + (top + 1,) and N.shape == stack + (top + 1, r, r)
            assert b.tobytes() == ref_b[..., : top + 1].tobytes()
            assert N.tobytes() == ref_N[..., : top + 1, :, :].tobytes()

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

    @pytest.mark.parametrize("r,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1)])
    def test_stack_rows_are_their_own_calls(self, r, n):
        # a stack of 5 (and the same as 1 x 5) is each row's lone call, bit for bit
        rng = np.random.default_rng(r * 10 + n)
        cms = (rng.standard_normal((5, n + 1, r, r)) + 1j * rng.standard_normal(
            (5, n + 1, r, r))) * rng.uniform(0.1, 30.0, (5, 1, 1, 1))
        C, A = kernel.matpoly_char_adj(cms)
        C2, A2 = kernel.matpoly_char_adj(cms[None])
        assert C.shape == (5, r + 1, r * n + 1) and A.shape == (5, r, r, r, r * n + 1)
        for i, cm in enumerate(cms):
            lone = kernel.matpoly_char_adj(cm)
            for ours, theirs in ((C[i], lone[0]), (A[i], lone[1]), (C2[0, i], lone[0]),
                                 (A2[0, i], lone[1])):
                assert ours.tobytes() == theirs.tobytes()


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


@st.composite
def planted_stacks(draw):
    """1..5 rows of one degree 1..6, each the roots of ``planted_roots``'
    lattice with multiplicities 1..3 summing to the degree, times a leading
    coefficient of modulus 0.5..2: rows with clusters and rows without."""
    deg, rows = draw(st.integers(1, 6)), []
    for _ in range(draw(st.integers(1, 5))):
        mults = []
        while sum(mults) < deg:
            mults.append(draw(st.integers(1, min(3, deg - sum(mults)))))
        cells = draw(st.lists(st.integers(0, 24), min_size=len(mults), max_size=len(mults),
                              unique=True))
        offsets = draw(st.lists(st.complex_numbers(max_magnitude=0.1),
                                min_size=len(mults), max_size=len(mults)))
        lead = draw(st.complex_numbers(min_magnitude=0.5, max_magnitude=2.0))
        roots = [complex(0.5 * (c % 5 - 2), 0.5 * (c // 5 - 2)) + w
                 for c, w in zip(cells, offsets)]
        rows.append(lead * np.polynomial.polynomial.polyfromroots(np.repeat(roots, mults)))
    return np.array(rows)


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
    @given(rows=planted_stacks())
    @example(rows=np.array([np.polynomial.polynomial.polyfromroots(r) for r in (
        [0.5, 0.5, -1j], [1.0, 2.0, 3.0], [0.2j, 0.2j, 0.2j], [-1.0, 0.5j, 1.5])]))
    def test_stack_rows_are_their_own_calls(self, rows):
        stacked = kernel.poly_roots(rows)
        assert len(stacked) == len(rows)
        for row, (roots, mults) in zip(rows, stacked):
            alone = kernel.poly_roots(row)
            assert np.array_equal(roots, alone[0]) and np.array_equal(mults, alone[1])
            assert mults.dtype == alone[1].dtype

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

    @staticmethod
    def node_loop_resultant(p, q, eliminate):
        """The reference: one Sylvester matrix and one ``det`` per node."""
        p = np.atleast_2d(np.asarray(p, dtype=complex))
        q = np.atleast_2d(np.asarray(q, dtype=complex))
        if eliminate == "z":
            p, q = p.T, q.T
        dp, dq = kernel._xi_degree(p), kernel._xi_degree(q)
        p, q = p[: dp + 1], q[: dq + 1]
        K = dp * (q.shape[1] - 1) + dq * (p.shape[1] - 1) + 1
        vals = np.empty(K, dtype=complex)
        for s, zval in enumerate(np.exp(2j * np.pi * np.arange(K) / K)):
            pc, qc = kernel.poly_eval(p.T, zval), kernel.poly_eval(q.T, zval)
            S = np.zeros((dp + dq, dp + dq), dtype=complex)
            for row in range(dq):
                S[row, row: row + dp + 1] = pc[::-1]
            for row in range(dp):
                S[dq + row, row: row + dq + 1] = qc[::-1]
            vals[s] = np.linalg.det(S)
        return kernel.poly_trim(np.fft.fft(vals) / K)

    @pytest.mark.parametrize("eliminate", ["xi", "z"])
    @pytest.mark.parametrize("dp,dq", [(1, 1), (1, 3), (2, 2), (3, 1), (4, 3), (5, 4)])
    def test_stacked_determinant_matches_node_loop(self, dp, dq, eliminate):
        # the same LU per matrix and the same Horner per node: equal bit for bit
        rng = np.random.default_rng(100 + 10 * dp + dq)
        for _ in range(5):
            p, q = (rng.standard_normal((d + 1, e + 1, 2)) @ [1, 1j]
                    for d, e in zip((dp, dq), rng.integers(0, 5, 2)))
            p *= 10.0 ** rng.uniform(-3, 3)
            if eliminate == "z":
                p, q = p.T, q.T
            ours = kernel.resultant(p, q, eliminate)
            ref = self.node_loop_resultant(p, q, eliminate)
            assert ours.shape == ref.shape
            assert np.array_equal(ours.view(float), ref.view(float))

    def test_one_determinant_call(self, monkeypatch):
        calls = []
        det = np.linalg.det
        monkeypatch.setattr(np.linalg, "det", lambda a: calls.append(np.shape(a)) or det(a))
        rng = np.random.default_rng(3)
        grid = rng.standard_normal((4, 7)) + 1j * rng.standard_normal((4, 7))
        kernel.resultant(grid, kernel.bipoly_dxi(grid), "xi")
        # degree bound 3 * 6 + 2 * 6, so 31 nodes of 5 x 5 Sylvester matrices
        assert calls == [(31, 5, 5)]


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


# finite coefficients and points, signed zeros included: the products and sums
# must agree with numpy.polynomial's to the last bit, zeros' signs too
finite = (st.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False)
          | st.sampled_from([0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]))
coefficients = arrays(complex, st.tuples(st.integers(1, 13))
                      | st.tuples(st.integers(1, 13), st.integers(1, 3)), elements=finite)
points = finite | arrays(complex, st.tuples(st.integers(0, 4))
                         | st.tuples(st.integers(1, 3), st.integers(1, 4)), elements=finite)


class TestHorner:
    @settings(max_examples=150, deadline=None)
    @given(c=coefficients, x=points, data=st.data())
    def test_poly_eval_is_polyval_bit_for_bit(self, c, x, data):
        ours, ref = kernel.poly_eval(c, x), npoly.polyval(x, c)
        assert type(ours) is type(ref) and np.shape(ours) == np.shape(ref)
        assert np.asarray(ours).tobytes() == np.asarray(ref).tobytes()
        # tensor=False: one point per trailing coefficient column
        x = data.draw(arrays(complex, c.shape[1:], elements=finite))
        ours, ref = kernel.poly_eval(c, x, tensor=False), npoly.polyval(x, c, tensor=False)
        assert np.shape(ours) == np.shape(ref)
        assert np.asarray(ours).tobytes() == np.asarray(ref).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(c=coefficients, m=st.integers(1, 3))
    def test_poly_der_is_polyder_bit_for_bit(self, c, m):
        ours, ref = kernel.poly_der(c, m), npoly.polyder(c, m)
        if len(c) <= m:
            # numpy returns the constant 0; the kernel's zero polynomial is empty
            assert ref.shape == (1,) + c.shape[1:] and not ref.any()
            assert ours.shape == (0,) + c.shape[1:] and ours.dtype == complex
        else:
            assert ours.shape == ref.shape and ours.tobytes() == ref.tobytes()

    def test_empty_coefficients_are_the_zero_polynomial(self):
        x = np.array([[1.0 + 2j, -3.0], [0.5j, 4.0]])
        assert kernel.poly_eval(np.zeros(0), 2.0 + 1j) == 0j
        assert np.array_equal(kernel.poly_eval([], x), np.zeros((2, 2), dtype=complex))
        assert kernel.poly_der(np.zeros(0)).shape == (0,)
        assert kernel.poly_der(np.ones((1, 3))).shape == (0, 3)


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
    params = [theta.ThetaParams(tau=0.3 + 1.1j, r=r) for r in (2, 3)]
    quotients = [theta.f_quotients(p) for p in params] + [theta._plain(params[0])]
    linear = rational.BracketSpec(a=(1.0,), b=0.0)
    for arr in [*kernel._char_adj_plan(2, 3), kernel._identity(3), *rational._lax_plan(2, 2),
                *rational._covector_plan(2, 2, ((1, 0), (0, 3))),
                *(arr for plan in (rational._flow_plan(2, 2, (0, 1)),
                                   rational._flow_plan(2, 2, (0, 0)),
                                   rational._flow_plan(3, 1, (0, 1)),
                                   rational._flow_plan(4, 1, (0, 1)))
                  for arr in plan[1:]),
                rational.structure_tensor(2, 2, linear).a,
                *(getattr(q, name) for q in quotients
                  for name in ("shifts", "powers", "phase", "coef", "_table", "_KG", "_factors")),
                linearize._FRAC, numeric._GL_NODES, numeric._GL_WEIGHTS,
                numeric._DP_C, numeric._DP_A, numeric._DP_E]:
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = arr[(0,) * arr.ndim]
