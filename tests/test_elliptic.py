import re

import mpmath
import numpy as np
import pytest

from sovkit import elliptic as E
from sovkit import kernel, theta
from sovkit.errors import ConsistencyError, NumericDomainError
from sovkit.numeric import PathSpec, integrate_path
from sovkit.theta import ThetaParams, i_matrices, section_quotients
from sovkit.tolerances import DEFAULT

TAU = 0.15 + 1.05j


@pytest.fixture(scope="module")
def setup_r2_n1():
    params = ThetaParams(tau=TAU, r=2)
    rng = np.random.default_rng(3)
    pts = tuple((rng.uniform(0.15, 0.85) + rng.uniform(0.15, 0.85) * TAU) / 2
                for _ in range(1))
    div = E.EllipticDivisor(points=pts, mults=(1,))
    coeffs = {(a, b): rng.standard_normal(1) + 1j * rng.standard_normal(1)
              for a in range(2) for b in range(2)}
    lax = E.assemble_lax(coeffs, div, params, z0=0.0)
    return params, div, coeffs, lax


@pytest.fixture(scope="module")
def report_r2_n1(setup_r2_n1):
    _, _, _, lax = setup_r2_n1
    return E.elliptic_divisor_coords(lax, full_report=True)


class TestDomainReduction:
    def test_reduce_is_lattice_equivalent(self):
        params = ThetaParams(tau=TAU, r=2)
        rng = np.random.default_rng(0)
        w1, w2 = params.omega1, params.omega2
        for _ in range(20):
            z = complex(rng.standard_normal() * 3, rng.standard_normal() * 3)
            zr = E.reduce_to_domain(z, params)
            diff = z - zr
            b = diff.imag / w2.imag
            a = (diff.real - b * w2.real) / w1
            assert abs(a - round(a)) < 1e-9
            assert abs(b - round(b)) < 1e-9
            # representative inside [0,1) x [0,1)
            br = zr.imag / w2.imag
            ar = (zr.real - br * w2.real) / w1
            assert -1e-12 <= ar < 1.0 and -1e-12 <= br < 1.0


class TestBasis:
    @pytest.mark.parametrize("r", [2, 3])
    def test_multipliers(self, r):
        params = ThetaParams(tau=TAU, r=r)
        rng = np.random.default_rng(1)
        pts = tuple((rng.uniform(0.2, 0.8) + rng.uniform(0.2, 0.8) * TAU) / r
                    for _ in range(2))
        div = E.EllipticDivisor(points=pts, mults=(1, 1))
        basis = E.build_basis(div, params)
        q = params.q_root
        worst = 0.0
        for (a, b), elements in basis.items():
            for w in elements:
                for _ in range(10):
                    lam = (rng.uniform(0.05, 0.95) + rng.uniform(0.05, 0.95) * TAU) / r
                    if min(abs(complex(lam) - p) for p in div.points) < 5e-3:
                        continue
                    v0 = complex(w(lam))
                    worst = max(worst,
                                abs(complex(w(lam + params.omega1)) / v0 - q ** (-b)),
                                abs(complex(w(lam + params.omega2)) / v0 - q ** a))
        assert worst < 1e-10

    def test_character_dimensions(self):
        params = ThetaParams(tau=TAU, r=2)
        rng = np.random.default_rng(2)
        for n in (1, 2):
            pts = tuple((rng.uniform(0.2, 0.8) + rng.uniform(0.2, 0.8) * TAU) / 2
                        for _ in range(n))
            div = E.EllipticDivisor(points=pts, mults=(1,) * n)
            basis = E.build_basis(div, params)
            assert set(basis) == {(a, b) for a in range(2) for b in range(2)}
            for elements in basis.values():
                assert len(elements) == n

    def test_r1_contains_constant(self):
        params = ThetaParams(tau=TAU, r=1)
        div = E.EllipticDivisor(points=(0.3 + 0.4j * TAU,), mults=(1,))
        basis = E.build_basis(div, params)
        w = basis[(0, 0)][0]
        assert abs(complex(w(0.11)) - complex(w(0.47 + 0.2j))) < 1e-12

    def test_basis_derivative_matches_fd(self):
        params = ThetaParams(tau=TAU, r=2)
        div = E.EllipticDivisor(points=(0.2 + 0.3 * TAU,), mults=(1,))
        basis = E.build_basis(div, params)
        w = basis[(1, 1)][0]
        lam = 0.31 + 0.12 * TAU
        h = 1e-6
        fd = (complex(w(lam + h)) - complex(w(lam - h))) / (2 * h)
        assert abs(complex(w.deriv(lam)) - fd) < 1e-5 * max(1.0, abs(fd))

    def test_element_builds_its_evaluator_once(self, monkeypatch):
        params = ThetaParams(tau=TAU, r=2)
        div = E.EllipticDivisor(points=(0.2 + 0.3 * TAU,), mults=(1,))
        w = E.build_basis(div, params)[(1, 1)][0]
        built = []
        monkeypatch.setattr(E, "ThetaQuotients",
                            lambda *args: built.append(args) or theta.ThetaQuotients(*args))
        lam = np.array([0.31 + 0.12 * TAU, 0.17 + 0.4 * TAU])
        first = w(lam)
        assert np.array_equal(w.deriv(lam), w.deriv(lam))
        assert np.array_equal(w(lam), first)
        assert len(built) == 1

    def test_validation_builds_one_evaluator(self, monkeypatch):
        # every character's elements from one evaluator, not one per character
        params = ThetaParams(tau=TAU, r=3)
        div = E.EllipticDivisor(points=(0.2 + 0.3 * TAU, 0.5 + 0.6 * TAU), mults=(1, 1))
        built = []
        monkeypatch.setattr(E, "ThetaQuotients",
                            lambda *args: built.append(args) or theta.ThetaQuotients(*args))
        basis = E.build_basis(div, params)
        assert len(built) == 1 and len(basis) == 9

    @pytest.mark.parametrize("r", [2, 3])
    @pytest.mark.parametrize("key", [(1, 0), (-1, -1)])
    def test_validation_names_the_faulty_character(self, r, key, monkeypatch):
        # each character is checked on its own columns of the one evaluation:
        # a gamma off by 1/(2r) in one character breaks its multipliers, and
        # a repeated element its rank, and the error names that character
        key = (key[0] % r, key[1] % r)
        params = ThetaParams(tau=TAU, r=r)
        div = E.EllipticDivisor(points=((0.2 + 0.3 * TAU) / r, (0.6 + 0.5 * TAU) / r),
                                mults=(1, 1))
        basis = E.build_basis(div, params)
        repeated = {k: ([v[0], v[0]] if k == key else v) for k, v in basis.items()}
        with pytest.raises(ConsistencyError,
                           match=re.escape(f"character {key} span has deficient rank")):
            E._validate_basis(repeated, div.reduced(params), params)

        class Shifted(E.BasisFunction):
            def __init__(self, params, character, gamma, zeros, poles):
                gamma += (tuple(character) == key) / (2 * params.r)
                super().__init__(params, character, gamma, zeros, poles)

        monkeypatch.setattr(E, "BasisFunction", Shifted)
        with pytest.raises(ConsistencyError,
                           match=re.escape(f"multiplier system violated for character {key};")):
            E.build_basis(div, params)


class TestAssembly:
    def test_zero_coefficients_are_valid(self, setup_r2_n1):
        params, div, _, _ = setup_r2_n1
        coeffs = {(a, b): np.zeros(1) for a in range(2) for b in range(2)}
        lax = E.assemble_lax(coeffs, div, params)
        assert np.abs(lax(0.2 + 0.1j)).max() == 0.0

    def test_quasi_periodicity(self, setup_r2_n1):
        params, _, _, lax = setup_r2_n1
        I1, I2 = i_matrices(2)
        rng = np.random.default_rng(4)
        worst = 0.0
        checked = 0
        while checked < 8:
            lam = (rng.uniform(0.05, 0.95) + rng.uniform(0.05, 0.95) * TAU) / 2
            if min(abs(complex(lam) - p) for p in lax.divisor.points) < 5e-2:
                continue
            base = lax(lam)
            mag = max(1.0, np.abs(base).max())
            worst = max(
                worst,
                np.abs(lax(lam + params.omega1) - I1 @ base @ np.linalg.inv(I1)).max() / mag,
                np.abs(lax(lam + params.omega2) - I2 @ base @ np.linalg.inv(I2)).max() / mag)
            checked += 1
        assert worst < 1e-8

    def test_pole_bound_laurent(self, setup_r2_n1):
        # order >= 2 Laurent coefficient vanishes at a simple divisor point:
        # (1/2 pi i) contour integral of (z - nu) phi(z) dz is ~ 0
        params, div, _, lax = setup_r2_n1
        nu = lax.divisor.points[0]
        rad = 2e-2
        square = PathSpec((nu + rad, nu + rad * 1j, nu - rad, nu - rad * 1j, nu + rad))
        worst = 0.0
        for i in range(2):
            for j in range(2):
                val, _ = integrate_path(lambda z, i=i, j=j: (z - nu) * lax(z)[..., i, j],
                                        square)
                a_minus2 = val / (2j * np.pi)
                # compare against the actual residue scale
                val1, _ = integrate_path(lambda z, i=i, j=j: lax(z)[..., i, j], square)
                scale = max(1.0, abs(val1 / (2j * np.pi)))
                worst = max(worst, abs(a_minus2) / scale)
        assert worst < 1e-8


class TestInvariants:
    def test_r1_invariant_is_phi(self):
        params = ThetaParams(tau=TAU, r=1)
        div = E.EllipticDivisor(points=(0.3 + 0.4 * TAU,), mults=(1,))
        basis = E.build_basis(div, params)
        coeffs = {(0, 0): np.array([1.3 - 0.2j])}
        lax = E.assemble_lax(coeffs, div, params, basis=basis)
        t1 = E.spectral_invariants(lax)[0]
        lam = 0.41 + 0.23 * TAU
        assert abs(t1(lam) - lax(lam)[0, 0]) < 1e-12

    def test_ellipticity(self, setup_r2_n1):
        params, _, _, lax = setup_r2_n1
        ts = E.spectral_invariants(lax)
        rng = np.random.default_rng(5)
        worst = 0.0
        checked = 0
        while checked < 6:
            lam = (rng.uniform(0.05, 0.95) + rng.uniform(0.05, 0.95) * TAU) / 2
            if min(abs(complex(lam) - p) for p in lax.divisor.points) < 5e-2:
                continue
            for t in ts:
                v = t(lam)
                sc = max(1.0, abs(v))
                worst = max(worst, abs(t(lam + params.omega1) - v) / sc,
                            abs(t(lam + params.omega2) - v) / sc)
            checked += 1
        assert worst < 1e-8

    def test_residue_sum_vanishes(self, setup_r2_n1):
        # the elliptic function t1 = tr phi has residue sum zero over a cell
        params, _, _, lax = setup_r2_n1
        t1 = E.spectral_invariants(lax)[0]
        origin = 0.011 * params.omega1 + 0.019 * params.omega2
        corners = (origin, origin + params.omega1,
                   origin + params.omega1 + params.omega2,
                   origin + params.omega2, origin)
        val, _ = integrate_path(lambda z: t1(z), PathSpec(corners))
        assert abs(val / (2j * np.pi)) < 1e-6


class TestInvariantForms:
    @pytest.mark.parametrize("r", [1, 2])
    @pytest.mark.parametrize("n", [1, 2])
    def test_forms_against_30_digit_oracle(self, r, n):
        # at r <= 2, t_k is a form of degree k in the basis values Q: from the
        # same float Q, the 30-digit characteristic polynomial of Q @ mats (its
        # determinant at xi = 0..r, interpolated) gives t_k on both paths
        lax, lams = _lax_and_probes(r, n)
        ts = E.spectral_invariants(lax)
        mats = lax._mats.reshape(-1, r, r)
        with mpmath.workdps(30):
            for lam in lams.ravel()[:6]:
                Q = lax._quotients(complex(lam))
                phi = mpmath.matrix(r, r)
                for q, m in zip(Q, mats):
                    phi += mpmath.mpc(q) * mpmath.matrix(m.tolist())
                vander = mpmath.matrix([[x ** j for j in range(r + 1)] for x in range(r + 1)])
                dets = mpmath.matrix([mpmath.det(phi - x * mpmath.eye(r)) for x in range(r + 1)])
                char = mpmath.lu_solve(vander, dets)
                for k, t in enumerate(ts, start=1):
                    oracle = complex(char[r - k])
                    for value in (t(complex(lam)), t(np.array([lam]))[0]):
                        assert abs(value - oracle) <= 1e-14 * _form_scale(lax, lam, k), (k, lam)

    @pytest.mark.parametrize("r", [1, 2])
    def test_forms_take_one_char_bipoly_call_per_degree(self, r, monkeypatch):
        # t_1 from the unit points in one call, t_2 from the doubled unit and
        # the pair points in one more
        lax, _ = _lax_and_probes(r, 2)
        calls = []
        monkeypatch.setattr(kernel, "char_bipoly", lambda M, f=kernel.char_bipoly:
                            calls.append(M.shape) or f(M))
        E._invariant_forms(lax)
        size = len(lax._mats)
        assert calls == [(size, r, r), (size * (size + 1) // 2, r, r)][:r]

    @pytest.mark.parametrize("r, n", [(1, 2), (2, 1), (2, 2), (3, 1)])
    def test_no_recursion_per_point_below_rank_3(self, r, n, monkeypatch):
        # once the invariants are built, r <= 2 evaluates its forms: no
        # char_bipoly and no Faddeev--LeVerrier recursion at a number or an
        # array; r = 3 takes the characteristic polynomial at every point
        lax, lams = _lax_and_probes(r, n)
        ts = E.spectral_invariants(lax)
        calls = []
        for name in ("char_bipoly", "_faddeev_leverrier"):
            monkeypatch.setattr(kernel, name, lambda *a, f=getattr(kernel, name), name=name:
                                calls.append(name) or f(*a))
        for lam in lams.ravel()[:3]:
            [t(complex(lam)) for t in ts]
        [t(lams) for t in ts]
        if r <= 2:
            assert calls == []
        else:
            assert calls == ["char_bipoly", "_faddeev_leverrier"] * (3 + r)


def _lax_and_probes(r, n, seed=8):
    """A random Lax matrix and a (3, 4) array of points away from its poles."""
    params = ThetaParams(tau=TAU, r=r)
    rng = np.random.default_rng(seed)
    pts = tuple((rng.uniform(0.15, 0.85) + rng.uniform(0.15, 0.85) * TAU) / r
                for _ in range(n))
    div = E.EllipticDivisor(points=pts, mults=(1,) * n)
    coeffs = {(a, b): rng.standard_normal(n) + 1j * rng.standard_normal(n)
              for a in range(r) for b in range(r)}
    lax = E.assemble_lax(coeffs, div, params)
    lams = []
    while len(lams) < 12:
        lam = (rng.uniform(0.0, 1.0) + rng.uniform(0.0, 1.0) * TAU) / r
        if min(abs(lam - p) for p in lax.divisor.points) > 5e-2:
            lams.append(lam)
    return lax, np.array(lams).reshape(3, 4)


def _form_scale(lax, lam, k):
    """The size of a degree-``k`` form in ``phi`` at ``lam``: ``max(1, |phi|)^k``."""
    return max(1.0, float(np.abs(lax(lam)).max())) ** k


def _rel_err(batched, stacked):
    """Largest per-point error relative to the point's largest entry (the
    derivative of a constant is exactly 0 on both sides)."""
    axes = tuple(range(2, batched.ndim))
    scale = np.maximum(np.abs(stacked).max(axis=axes), np.finfo(float).tiny)
    return float((np.abs(batched - stacked).max(axis=axes) / scale).max())


class TestArrayEvaluation:
    @pytest.mark.parametrize("r", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2])
    def test_array_matches_scalar_calls(self, r, n):
        lax, lams = _lax_and_probes(r, n)
        phi, dphi = lax.deriv(lams)
        # deriv's values come from the same series pass as lax's
        assert (phi == lax(lams)).all()
        for fn, batched in ((lax, phi), (lambda lam: lax.deriv(lam)[1], dphi)):
            assert batched.shape == (3, 4, r, r)
            stacked = np.array([[fn(lam) for lam in row] for row in lams])
            assert stacked.shape == (3, 4, r, r)
            assert _rel_err(batched, stacked) <= 1e-13

    @pytest.mark.parametrize("r", [2, 3])
    @pytest.mark.parametrize("n", [1, 2])
    def test_deriv_matches_central_difference(self, r, n):
        lax, lams = _lax_and_probes(r, n)
        h = 1e-6
        fd = (lax(lams + h) - lax(lams - h)) / (2 * h)
        scale = np.maximum(1.0, np.abs(fd).max(axis=(2, 3)))
        assert (np.abs(lax.deriv(lams)[1] - fd).max(axis=(2, 3)) / scale).max() < 1e-6

    @pytest.mark.parametrize("r", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2])
    def test_invariants_on_arrays_match_scalar_calls(self, r, n):
        lax, lams = _lax_and_probes(r, n)
        ts = E.spectral_invariants(lax)
        # interleaved scalar calls exercise the shared per-point evaluation
        stacked = np.array([[[t(lam) for t in ts] for lam in row] for row in lams])
        batched = np.stack([t(lams) for t in ts], axis=-1)
        assert batched.shape == (3, 4, r)
        assert _rel_err(batched, stacked) <= 1e-13
        # and each agrees with the characteristic polynomial of lax(lam): at
        # r = 3 it is that polynomial; at r <= 2 a form in the basis values
        # (test_forms_against_30_digit_oracle), to rounding of its scale
        lam = lams[1, 2]
        for k, t in enumerate(ts, start=1):
            error = abs(t(lam) - kernel.char_bipoly(lax(lam))[r - k])
            assert error == 0.0 if r == 3 else error <= 1e-14 * _form_scale(lax, lam, k)

    @pytest.mark.parametrize("r", [2, 3])
    @pytest.mark.parametrize("n", [1, 2])
    def test_number_path_is_the_zero_d_array_path(self, r, n):
        # a number lam is evaluated with no 0-d array: lax, lax.deriv and the
        # invariants' memoized scalar path give the 0-d array's values bit for
        # bit; the invariants are char_bipoly's at r = 3 and, at r = 2, agree
        # with it to rounding of their scale
        lax, lams = _lax_and_probes(r, n)
        ts = E.spectral_invariants(lax)
        for lam in lams.ravel()[:4]:
            lam = complex(lam)
            assert np.array_equal(lax(lam), lax(np.asarray(lam)))
            for number, array in zip(lax.deriv(lam), lax.deriv(np.asarray(lam))):
                assert np.array_equal(number, array)
            char = kernel.char_bipoly(lax(np.asarray(lam)))
            values = [t(lam) for t in ts]
            assert all(type(v) is complex for v in values)
            fresh = E.spectral_invariants(lax)  # no memo of lam
            assert [t(np.asarray(lam)) for t in fresh] == values
            expected = [complex(char[r - k]) for k in range(1, r + 1)]
            if r == 3:
                assert values == expected
            else:
                for k, (v, c) in enumerate(zip(values, expected), start=1):
                    assert abs(v - c) <= 1e-14 * _form_scale(lax, lam, k)

    @pytest.mark.parametrize("r, n", [(2, 2), (3, 1)])
    def test_number_takes_no_shape_query(self, r, n, monkeypatch):
        # a Python number reaches the number path with no np.ndim or np.shape
        # call (about 1 us each); a 0-d array and a numpy scalar still ask
        lax, lams = _lax_and_probes(r, n)
        ts = E.spectral_invariants(lax)
        calls = []
        for name in ("ndim", "shape"):
            monkeypatch.setattr(np, name, lambda a, f=getattr(np, name): calls.append(a) or f(a))
        for lam in lams.ravel()[:3]:
            lax(complex(lam))
            [t(complex(lam)) for t in ts]
            [t(complex(lam) + 0.01) for t in ts]
        assert calls == []
        ts[0](np.asarray(lams[0, 0] + 0.02))
        assert len(calls) == 1  # t_k's, which then passes lax a number


def _sequential_draws(r, seed):
    """The n = 1 and n = 2 Lax matrices drawn one after the other from one
    generator."""
    params = ThetaParams(tau=TAU, r=r)
    rng = np.random.default_rng(seed)
    out = []
    for n in (1, 2):
        pts = tuple((rng.uniform(0.15, 0.85) + rng.uniform(0.15, 0.85) * TAU) / r
                    for _ in range(n))
        div = E.EllipticDivisor(points=pts, mults=(1,) * n)
        coeffs = {(a, b): rng.standard_normal(n) + 1j * rng.standard_normal(n)
                  for a in range(r) for b in range(r)}
        out.append(E.assemble_lax(coeffs, div, params))
    return out


def _section(params, z):
    """The basic section at ``z``, up to a factor of modulus 1: ``A |1/h|^(1/r)``."""
    s = section_quotients(params)(z)  # A, then 1/h
    return s[..., :-1] * np.abs(s[..., -1:]) ** (1.0 / params.r)


def _residuals(lax, points):
    """|det(phi - xi I)| and the full vector |adj(phi - xi I) s|, relative to
    max(|adj| |s|, 1), at every point."""
    out = []
    for p in points:
        z = p.z + lax.z0
        M = lax(z) - p.xi * np.eye(lax.params.r)
        s = _section(lax.params, z)
        adj = kernel.adjugate(M)
        out.append((abs(np.linalg.det(M)),
                    np.abs(adj @ s).max() / max(np.abs(adj).max() * np.abs(s).max(), 1.0)))
    return np.array(out)


def _det_krylov(lax, z, s):
    return np.linalg.det(kernel.krylov(lax(z), s))


class TestDivisorExtraction:
    def test_count_matches_argument_principle_and_genus(self, report_r2_n1):
        rep = report_r2_n1
        assert rep.validated_count == rep.genus_prediction == 2

    def test_point_residuals(self, setup_r2_n1, report_r2_n1):
        _, _, _, lax = setup_r2_n1
        assert _residuals(lax, report_r2_n1.points).max() < 1e-8

    @pytest.mark.parametrize("seed", [0, 1, 2, 4])
    def test_rank_3_extraction(self, seed):
        for lax, genus in zip(_sequential_draws(3, seed), (4, 7)):
            rep = E.elliptic_divisor_coords(lax, full_report=True)
            assert rep.validated_count == rep.genus_prediction == genus
            assert _residuals(lax, rep.points)[:, 1].max() <= 1e-8

    def test_scaled_tolerances_leave_the_quadrature(self):
        # QUAD is no field of Tolerances: at 1e-13 the quadrature left this draw at
        # "singular path"
        lax = _sequential_draws(3, 0)[1]
        rep = E.elliptic_divisor_coords(lax, tol=DEFAULT.scaled(1e-3), full_report=True)
        assert rep.validated_count == 7

    def test_rank_4_extraction_cuts_the_cell(self, monkeypatch):
        # B has 13 zeros in the cell, too many for one Hankel pencil: the
        # cell is cut into boxes with a few zeros each
        tau, r, n = 1j, 4, 2
        params = ThetaParams(tau=tau, r=r)
        rng = np.random.default_rng([11, r, n])
        pts = tuple((rng.uniform(0.15, 0.85) + rng.uniform(0.15, 0.85) * tau) / r
                    for _ in range(n))
        div = E.EllipticDivisor(points=pts, mults=(1,) * n)
        coeffs = {(a, b): rng.standard_normal(n) + 1j * rng.standard_normal(n)
                  for a in range(r) for b in range(r)}
        lax = E.assemble_lax(coeffs, div, params)
        boxes = []
        search = E._cell_zeros

        def counted(logderiv, *args):
            # the boxes searched for the zeros of B, not of the discriminant
            if getattr(logderiv, "func", None) is not E._disc_logderiv:
                boxes.append(args)
            return search(logderiv, *args)

        monkeypatch.setattr(E, "_cell_zeros", counted)
        rep = E.elliptic_divisor_coords(lax, full_report=True)
        assert len(boxes) > 1
        assert rep.validated_count == rep.genus_prediction == 13
        assert _residuals(lax, rep.points)[:, 1].max() <= 1e-8

    @pytest.mark.parametrize("r", [2, 3])
    def test_krylov_logderivative_matches_central_difference(self, r):
        # B'/B for s = A (1/h)^(1/r): the Krylov log-derivative of A from its
        # exact log-derivatives, plus (1/h)'/(1/h), since B is of degree r in s
        lax, lams = _lax_and_probes(r, 2)
        S = section_quotients(lax.params)  # A, then 1/h
        zs = lams.ravel()[:4]

        def det(z):  # s with the principal (1/h)^(1/r), continuous near the probes
            s = S(z)
            return _det_krylov(lax, z, s[:r] * s[r] ** (1.0 / r))

        h = 1e-6
        for z, ratio in zip(zs, E._b_logderiv(lax, zs)):
            fd = (det(z + h) - det(z - h)) / (2 * h * det(z))
            assert abs(ratio - fd) < 1e-6 * abs(fd)

    def test_b_logderiv_sums_two_series(self, monkeypatch):
        # one for the section (A and 1/h together), one for the Lax matrix
        lax, lams = _lax_and_probes(3, 2)
        E._b_logderiv(lax, lams.ravel()[:4])  # A's constants now cached
        calls, series = [], theta.ThetaQuotients._evaluate

        def counted(self, *args):
            calls.append(self)
            return series(self, *args)

        monkeypatch.setattr(theta.ThetaQuotients, "_evaluate", counted)
        E._b_logderiv(lax, lams.ravel()[:4])
        assert len(calls) == 2 and calls[0] is section_quotients(lax.params)

    def test_extraction_continues_nothing(self, setup_r2_n1, report_r2_n1, monkeypatch):
        # the section's factors are evaluated pointwise; A's constants are
        # cached per params, so a second extraction walks no path at all
        _, _, _, lax = setup_r2_n1
        walks = []
        monkeypatch.setattr(theta, "_continued_log", lambda *args: walks.append(args))
        rep = E.elliptic_divisor_coords(lax, full_report=True)
        assert walks == []
        assert [(p.z, p.xi) for p in rep.points] == [(p.z, p.xi) for p in report_r2_n1.points]

    def test_translation_modulus_shifts_coordinates(self, setup_r2_n1, report_r2_n1):
        params, div, coeffs, _ = setup_r2_n1
        z0 = 0.21 + 0.05j
        lax2 = E.assemble_lax(coeffs, div, params, z0=z0)
        rep2 = E.elliptic_divisor_coords(lax2, full_report=True)
        za = sorted((E.reduce_to_domain(p.z + z0, params) for p in rep2.points),
                    key=lambda w: (round(w.real, 8), round(w.imag, 8)))
        zb = sorted((E.reduce_to_domain(p.z, params) for p in report_r2_n1.points),
                    key=lambda w: (round(w.real, 8), round(w.imag, 8)))
        assert max(abs(a - b) for a, b in zip(za, zb)) < 1e-10


SQUARE = 0.3 + 0.2j + 0.1 * np.array([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j, 1 + 1j])
CIRCLE = 0.3 + 0.2j + 0.01 * np.exp(2j * np.pi * np.arange(5) / 4)
UNIT = 0.5 * np.array([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j, 1 + 1j])


class Counted:
    """Wraps a loop function and records the size of every call."""

    def __init__(self, func):
        self.func = func
        self.sizes = []

    def __call__(self, z):
        assert np.ndim(z) == 1
        self.sizes.append(np.size(z))
        return self.func(z)


class TestWinding:
    """The winding number of ``f`` round a loop is the 0th moment of ``f'/f``."""

    @pytest.mark.parametrize("k", [1, -1, 2, -2])
    @pytest.mark.parametrize("loop", [SQUARE, CIRCLE], ids=["square", "circle"])
    def test_power_inside_and_outside(self, loop, k):
        # f = (z - a)^k: the moments are k ((a - c)/rho)^j inside, 0 outside
        centre = loop[:-1].mean()
        rho = abs(loop[0] - centre)
        for a, inside in ((centre + 0.002 - 0.001j, True), (centre + 0.5, False)):
            value, error = E._loop_moments(lambda z: k / (z - a), loop, centre, rho, 4)
            expected = inside * k * ((a - centre) / rho) ** np.arange(4)
            assert np.abs(value - expected).max() <= 1e-10
            assert error.max() <= 1e-10

    def test_loop_through_a_zero_raises(self):
        with pytest.raises(NumericDomainError, match="singular path"):
            E._loop_moments(lambda z: 1.0 / (z - SQUARE[1]), SQUARE, 0.3 + 0.2j, 0.1, 1)

    def test_zero_near_the_loop_is_refined(self):
        # the zeros sit 1e-3 off the top edge: only the panels near them are
        # halved until they resolve it
        x = -0.3137 / 64
        for a, expected in ((x + 0.501j, 0), (x + 0.499j, 1)):
            func = Counted(lambda z: 1.0 / (z - a))
            value, _ = E._loop_moments(func, UNIT, 0.0, 0.5, 1)
            assert abs(value[0] - expected) <= 1e-10
            # one call per level, on whole panels of 12 nodes
            assert func.sizes[:2] == [4 * 12, 8 * 12]
            assert len(func.sizes) > 4
            assert all(n % 24 == 0 and n <= 4 * 24 for n in func.sizes[2:])

    def test_extraction_samples_whole_loops(self, setup_r2_n1, monkeypatch):
        # every moment integrand of the extraction (B'/B and the
        # discriminant's D'/D) is evaluated on arrays: one call per loop and
        # quadrature level, on whole panels, never one per point
        _, _, _, lax = setup_r2_n1
        calls = []
        integrate = E.integrate_path

        def counted(f, path):
            calls.append((Counted(f), len(path.waypoints) - 1))
            return integrate(calls[-1][0], path)

        monkeypatch.setattr(E, "integrate_path", counted)
        E.elliptic_divisor_coords(lax)
        assert len(calls) >= 3
        for c, edges in calls:
            assert c.sizes[0] == 12 * edges
            assert all(n % 24 == 0 for n in c.sizes[1:])


class TestCellZeros:
    PARAMS = ThetaParams(tau=TAU, r=2)
    ORIGIN = 0.013 * PARAMS.omega1 + 0.017 * PARAMS.omega2

    def search(self, zeros, poles, monkeypatch):
        """``_cell_zeros`` on ``prod (z - zeros) / prod (z - poles)``: the zeros
        found, the boxes searched and whether ``f'/f`` was asked for at a zero."""
        boxes, at_zero = [], []
        search = E._cell_zeros

        def counted(*args):
            boxes.append(args)
            return search(*args)

        def logderiv(z):
            at_zero.append(np.isin(z, zeros).any())
            return (1.0 / (z - zeros[:, None]) - 1.0 / (z - poles[:, None])).sum(axis=0)

        monkeypatch.setattr(E, "_cell_zeros", counted)
        found = E._cell_zeros(logderiv, self.PARAMS, self.ORIGIN, poles,
                              np.ones(poles.size, dtype=int))
        return found, boxes, any(at_zero)

    def test_rational_function_on_the_cell(self, monkeypatch):
        # f = (z - a)(z - b) / ((z - p)(z - q)): the moments round the cell
        # plus the residues at the poles give both zeros from one box
        # (a, b), then (p, q), in cell coordinates
        u, v = np.array([[0.4, 0.8], [0.7, 0.2]]), np.array([[0.6, 0.3], [0.2, 0.3]])
        zeros, poles = self.ORIGIN + u * self.PARAMS.omega1 + v * self.PARAMS.omega2
        found, boxes, _ = self.search(zeros, poles, monkeypatch)
        assert len(boxes) == 1
        assert np.abs(np.sort_complex(found) - np.sort_complex(zeros)).max() <= 1e-12

    def test_newton_step_onto_a_zero(self, monkeypatch):
        # the pencil puts these dyadic zeros a few ulps off; one Newton step
        # lands on them exactly, where f'/f divides by zero: such a point
        # takes no further step, and no warning escapes
        zeros = np.array([0.25 + 0.375j, 0.125 + 0.25j, 0.5 + 0.125j])
        poles = np.array([0.372775 + 0.113925j, 0.130275 + 0.166425j, 0.3 + 0.4j])
        found, boxes, at_zero = self.search(zeros, poles, monkeypatch)
        assert len(boxes) == 1 and at_zero
        assert np.array_equal(np.sort_complex(found), np.sort_complex(zeros))


class TestBranchPoints:
    @pytest.mark.parametrize("r,seed", [(2, 35), (3, 1), (3, 4)])
    def test_discriminant_zeros_are_branch_points(self, r, seed):
        # D has as many zeros as poles, sum m r(r-1); two eigenvalues of phi
        # meet at each (to about sqrt(eps): they split like sqrt(z - z_b))
        lax = _sequential_draws(r, seed)[1]
        params = lax.params
        origin = 0.013 * params.omega1 + 0.017 * params.omega2
        zs = E._branch_points(lax, origin)
        assert zs.size == r * (r - 1) * sum(lax.divisor.mults)
        phi = lax(zs)
        xi = np.linalg.eigvals(phi)
        gaps = np.abs(xi[:, :, None] - xi[:, None, :]) + np.where(np.eye(r), np.inf, 0.0)
        assert (gaps.min(axis=(1, 2)) <= 1e-6 * np.linalg.norm(phi, axis=(1, 2))).all()
        assert kernel.min_gap(zs) > 1e-4

    @pytest.mark.parametrize("r", [2, 3])
    def test_branch_count_is_the_pole_order(self, r):
        # the search certifies that D's zeros are simple and separated; the
        # count it reports is r (r - 1) deg by construction
        for lax in _sequential_draws(r, 0):
            rep = E.elliptic_divisor_coords(lax, full_report=True)
            assert rep.branch_count == r * (r - 1) * sum(lax.divisor.mults)
            assert rep.genus_prediction == 1 + rep.branch_count // 2

    def test_branch_point_near_a_pole(self):
        # a branch point 5e-3 from a divisor point
        rep = E.elliptic_divisor_coords(_sequential_draws(2, 35)[1], full_report=True)
        assert (rep.validated_count, rep.branch_count, rep.genus_prediction) == (3, 4, 3)


class TestSlrReduce:
    def test_single_point(self):
        pts = [E.FundamentalDomainPoint(z=0.3 + 0.1j, xi=2.0 - 1.0j, sheet=0)]
        out = E.slr_reduce(pts)
        assert abs(out[0].z) < 1e-15
        assert abs(out[0].xi - 1.0) < 1e-15

    def test_postconditions_random(self):
        rng = np.random.default_rng(6)
        pts = [E.FundamentalDomainPoint(
            z=complex(rng.standard_normal(), rng.standard_normal()),
            xi=complex(rng.standard_normal(), rng.standard_normal()) + 3.0,
            sheet=0) for _ in range(4)]
        out = E.slr_reduce(pts)
        assert abs(sum(p.z for p in out)) < 1e-12
        assert abs(np.prod([p.xi for p in out]) - 1.0) < 1e-12

    def test_matches_displayed_map_for_single_point(self):
        # worked pair: for one point the displayed centre-of-mass map gives
        # (z - z, xi / xi) = (0, 1)
        pts = [E.FundamentalDomainPoint(z=-1.7 + 0.4j, xi=0.3 + 2.2j, sheet=1)]
        out = E.slr_reduce(pts)
        z_display = pts[0].z - pts[0].z
        xi_display = pts[0].xi / pts[0].xi
        assert abs(out[0].z - z_display) < 1e-15
        assert abs(out[0].xi - xi_display) < 1e-15

    def test_zero_xi_rejected(self):
        pts = [E.FundamentalDomainPoint(z=0.0, xi=0.0, sheet=0)]
        with pytest.raises(ValueError, match="reduction undefined"):
            E.slr_reduce(pts)
