import copy

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sovkit import acceptance
from sovkit import elliptic as E
from sovkit import theta as T
from sovkit.errors import NumericDomainError

TAUS = (1j, 0.2 + 1.1j)


class TestRiemannTheta:
    @pytest.mark.parametrize("tau", TAUS)
    def test_against_mpmath(self, tau):
        # theta(z | tau) = jtheta(3, pi z, exp(pi i tau))
        params = T.ThetaParams(tau=tau, r=2)
        rng = np.random.default_rng(0)
        q = mp.exp(1j * mp.pi * mp.mpc(tau))
        for _ in range(10):
            z = complex(rng.standard_normal() * 2, rng.standard_normal() * 2)
            ours = T.riemann_theta(z, params)
            ref = complex(mp.jtheta(3, mp.pi * mp.mpc(z), q))
            assert abs(ours - ref) < 1e-12 * max(1.0, abs(ref))

    @settings(max_examples=40, deadline=None)
    @given(tau=st.builds(complex, st.floats(-0.5, 0.5), st.floats(0.6, 1.5)),
           z=arrays(complex, st.tuples(st.integers(1, 3), st.integers(1, 4)),
                    elements=st.complex_numbers(max_magnitude=2.5, allow_nan=False,
                                                allow_infinity=False)))
    @example(tau=0.6j, z=np.array([[1.5 + 1.5j]]))  # a zero of theta
    def test_batched_against_mpmath(self, tau, z):
        params = T.ThetaParams(tau=tau, r=2)
        ours = T.riemann_theta(z, params)
        assert ours.shape == z.shape
        with mp.workdps(30):
            tau_mp = mp.mpc(tau)
            q = mp.exp(1j * mp.pi * tau_mp)
            for idx in np.ndindex(z.shape):
                z_mp = mp.mpc(z[idx])
                ref = complex(mp.jtheta(3, mp.pi * z_mp, q))
                # the sum of the moduli of the series terms: rounding error
                # scales with it, and it exceeds |ref| only where terms cancel
                terms = float(mp.fsum(
                    abs(mp.exp(1j * mp.pi * n ** 2 * tau_mp + 2j * mp.pi * n * z_mp))
                    for n in range(-40, 41)))
                assert abs(ours[idx] - ref) < 1e-12 * max(1.0, abs(ref), terms)

    @pytest.mark.parametrize("tau", TAUS)
    def test_zero_at_half_periods(self, tau):
        params = T.ThetaParams(tau=tau, r=3)
        assert abs(T.riemann_theta((1 + tau) / 2, params)) < 1e-12

    def test_periodicity_and_tau_shift(self):
        tau = 0.2 + 1.1j
        params = T.ThetaParams(tau=tau, r=2)
        rng = np.random.default_rng(1)
        for _ in range(10):
            z = complex(rng.standard_normal(), rng.standard_normal())
            v = T.riemann_theta(z, params)
            assert abs(T.riemann_theta(z + 1, params) - v) < 1e-12 * max(1, abs(v))
            fac = np.exp(-1j * np.pi * tau - 2j * np.pi * z)
            v2 = T.riemann_theta(z + tau, params)
            assert abs(v2 - fac * v) < 1e-12 * max(1.0, abs(v2))

    def test_even_function(self):
        params = T.ThetaParams(tau=1j, r=2)
        rng = np.random.default_rng(2)
        for _ in range(8):
            z = complex(rng.standard_normal(), rng.standard_normal())
            v1 = T.riemann_theta(z, params)
            v2 = T.riemann_theta(-z, params)
            assert abs(v1 - v2) < 1e-12 * max(1.0, abs(v1))

    def test_truncation_converged(self):
        for tau in TAUS:
            p1 = T.ThetaParams(tau=tau, r=2)
            p2 = T.ThetaParams(tau=tau, r=2, trunc=2 * p1.trunc)
            z = 0.3 + 0.21j
            v1, v2 = T.riemann_theta(z, p1), T.riemann_theta(z, p2)
            assert abs(v1 - v2) < 1e-15 * max(1.0, abs(v2))

    @settings(max_examples=30, deadline=None)
    @given(tau=st.builds(complex, st.floats(-0.5, 0.5), st.floats(0.6, 1.5)),
           z=arrays(complex, st.tuples(st.integers(1, 3), st.integers(1, 4)),
                    elements=st.complex_numbers(max_magnitude=2.5, allow_nan=False,
                                                allow_infinity=False)))
    @example(tau=0.2 + 1.1j, z=np.array([[0.17 - 0.23j]]))
    def test_derivative_against_mpmath(self, tau, z):
        # theta'(z | tau) = pi * jtheta(3, pi z, exp(pi i tau), 1)
        params = T.ThetaParams(tau=tau, r=2)
        ours = T.theta_deriv(z, params)
        assert ours.shape == z.shape
        with mp.workdps(30):
            tau_mp = mp.mpc(tau)
            q = mp.exp(1j * mp.pi * tau_mp)
            for idx in np.ndindex(z.shape):
                z_mp = mp.mpc(z[idx])
                ref = complex(mp.pi * mp.jtheta(3, mp.pi * z_mp, q, 1))
                # the sum of the moduli of the derivative series' terms, the
                # scale of its rounding error
                terms = float(mp.fsum(
                    2 * mp.pi * abs(n) * abs(mp.exp(1j * mp.pi * n ** 2 * tau_mp
                                                    + 2j * mp.pi * n * z_mp))
                    for n in range(-40, 41)))
                assert abs(ours[idx] - ref) < 1e-12 * max(1.0, abs(ref), terms)

    @settings(max_examples=30, deadline=None)
    @given(kind=st.sampled_from(["odd", "even", "lax"]),
           tau=st.builds(complex, st.floats(-0.5, 0.5), st.floats(0.7, 1.5)),
           cells=arrays(float, (2, 2), elements=st.floats(-2.0, 2.0)),
           seed=st.integers(0, 2 ** 16))
    def test_quotients_against_mpmath_products(self, kind, tau, cells, seed):
        # c_e exp(2 pi i gamma_e u) prod_f theta(u + s_f)^p_ef and its
        # log-derivative against 30-digit products, at points u and shifts s_f
        # spread over +-2 cells of the evaluator's lattice: the power
        # structure of the odd family (r = 3), the even family (base r tau,
        # scale r, r = 2) and the elliptic Lax basis (r = 2, two poles)
        if kind == "lax":
            params = T.ThetaParams(tau=tau, r=2)
            div = E.EllipticDivisor(points=((0.31 + 0.42 * tau) / 2, (0.67 + 0.18 * tau) / 2),
                                    mults=(1, 1))
            family = E._quotients(params, [w for els in E.build_basis(div, params).values()
                                           for w in els])
        else:
            family = T.f_quotients(T.ThetaParams(tau=tau, r=3 if kind == "odd" else 2))
        base = family.params.tau
        k, ell = np.random.default_rng(seed).integers(-2, 3, (2, family.shifts.size))
        shifts, powers = family.shifts + k + ell * base, family.powers.real.astype(int)
        gamma = family.phase / (2j * np.pi)
        coef = np.broadcast_to(family.coef, gamma.shape)
        quotients = T.ThetaQuotients(family.params, shifts, powers, gamma, coef, family.scale)
        # off the rational points, where factors of the families have exact zeros
        u = (cells[0] + 0.0137) + (cells[1] + 0.0291) * base
        vals, logd = quotients.logderivs(u / family.scale)
        assert np.array_equal(vals, quotients(u / family.scale))
        with mp.workdps(30):
            tau_mp = mp.mpc(base)
            q = mp.exp(1j * mp.pi * tau_mp)
            for i, ui in enumerate(u):
                # per factor: theta, theta'/theta, and the rounding scale of
                # each relative to theta (the sums of the moduli of the series
                # terms, as in test_batched_against_mpmath, over |theta|)
                th, ld, cond, dcond = [], [], [], []
                for s in shifts:
                    w = mp.mpc(ui) + mp.mpc(s)
                    t = mp.jtheta(3, mp.pi * w, q)
                    dt = mp.pi * mp.jtheta(3, mp.pi * w, q, 1)
                    moduli = [abs(mp.exp(1j * mp.pi * n ** 2 * tau_mp + 2j * mp.pi * n * w))
                              for n in range(-40, 41)]
                    terms = float(mp.fsum(moduli))
                    dterms = float(mp.fsum(2 * mp.pi * abs(n) * m
                                           for n, m in zip(range(-40, 41), moduli)))
                    th.append(t)
                    ld.append(complex(dt / t))
                    cond.append(max(1.0, abs(t), terms) / abs(t))
                    dcond.append(max(1.0, abs(dt), dterms) / abs(t) + abs(ld[-1]) * cond[-1])
                cond, dcond, ld = np.array(cond), np.array(dcond), np.array(ld)
                for e in range(gamma.size):
                    ref = mp.mpc(coef[e]) * mp.exp(2j * mp.pi * mp.mpc(gamma[e]) * mp.mpc(ui))
                    for f, t in enumerate(th):
                        ref *= t ** int(powers[e, f])
                    ref_logd = family.scale * (2j * np.pi * gamma[e] + powers[e] @ ld)
                    assert (abs(vals[i, e] - complex(ref))
                            < 1e-12 * abs(complex(ref)) * (1 + np.abs(powers[e]) @ cond))
                    assert (abs(logd[i, e] - ref_logd)
                            < 1e-12 * family.scale * (1 + abs(2 * np.pi * gamma[e])
                                                      + np.abs(powers[e]) @ dcond))

    @pytest.mark.parametrize("tau", TAUS)
    def test_one_extra_term_covers_the_doubled_strip(self, tau):
        # a point and a shift both at the edge of the centred strip put
        # v + sig_f at Im(v + sig_f) = +-Im tau, twice the strip's reach: the
        # table's trunc + 1 terms must still be converged there
        edge = 0.5 * (1.0 - 1e-12)
        shifts = np.array([0.3 + edge * tau, -0.2 - edge * tau])
        z = np.array([0.1 + edge * tau, 0.4 - edge * tau])
        assert (T._reduce(shifts, tau)[1] == 0).all() and (T._reduce(z, tau)[1] == 0).all()
        p1 = T.ThetaParams(tau=tau, r=2)
        p2 = T.ThetaParams(tau=tau, r=2, trunc=2 * p1.trunc)
        v1, d1 = T.ThetaQuotients(p1, shifts, np.eye(2), np.zeros(2), 1.0, 1.0).logderivs(z)
        v2, d2 = T.ThetaQuotients(p2, shifts, np.eye(2), np.zeros(2), 1.0, 1.0).logderivs(z)
        assert abs(abs((z + shifts).imag) - tau.imag).max() < 1e-11
        assert (np.abs(v1 - v2) < 1e-15 * np.abs(v2)).all()
        assert (np.abs(d1 - d2) < 1e-15 * np.abs(d2)).all()

    def test_tau_guard(self):
        with pytest.raises(NumericDomainError, match="tau too degenerate"):
            T.ThetaParams(tau=0.5 + 0.01j, r=2)

    @pytest.mark.parametrize("tau", [complex(np.nan, 1.0), complex(0.0, np.inf),
                                     complex(np.inf, 1.0)])
    def test_non_finite_tau_raises(self, tau):
        with pytest.raises(ValueError, match="tau must be finite"):
            T.ThetaParams(tau=tau, r=2)

    @pytest.mark.parametrize("r", [2.5, 2.0, True, "2"])
    def test_non_integer_rank_raises(self, r):
        with pytest.raises(ValueError, match="rank must be an integer"):
            T.ThetaParams(tau=1j, r=r)

    def test_rank_below_one_raises(self):
        with pytest.raises(ValueError, match="rank must be positive"):
            T.ThetaParams(tau=1j, r=0)

    def test_numpy_integer_rank_is_an_int(self):
        params = T.ThetaParams(tau=1j, r=np.int64(3))
        assert type(params.r) is int and params == T.ThetaParams(tau=1j, r=3)

    def test_negative_truncation_raises(self):
        # it would give an empty series, and theta = 0 everywhere
        with pytest.raises(ValueError, match="truncation"):
            T.ThetaParams(tau=1j, r=2, trunc=-3)


class TestShiftedFamilies:
    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    @pytest.mark.parametrize("tau", TAUS)
    def test_translation_relations(self, r, tau):
        params = T.ThetaParams(tau=tau, r=r)
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(4):
            z = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.3, 0.3))
            for k in range(r):
                for j in range(r):
                    for fam, shift in (
                            (T.theta_kj, (k + j * tau) / r),
                            (T.xi_kj, (2 * k - 1 + (2 * j - 1) * tau) / (2 * r))):
                        v0 = fam(z, k, j, params)
                        sc = max(1.0, abs(v0))
                        worst = max(worst, abs(fam(z + 3.0, k, j, params) - v0) / sc)
                        fac = np.exp(-1j * np.pi * tau - 2j * np.pi * (z + shift))
                        v1 = fam(z + tau, k, j, params)
                        worst = max(worst, abs(v1 - fac * v0) / max(1.0, abs(v1)))
                        if k < r - 1:
                            worst = max(worst, abs(fam(z + 1 / r, k, j, params)
                                                   - fam(z, k + 1, j, params)) / sc)
                        if j < r - 1:
                            worst = max(worst, abs(fam(z + tau / r, k, j, params)
                                                   - fam(z, k, j + 1, params)) / sc)
            for k in range(r):
                # wrap-around relations for both families
                v0 = T.theta_kj(z, k, 0, params)
                fac = np.exp(-1j * np.pi * tau - 2j * np.pi * (z + k / r))
                v1 = T.theta_kj(z + tau / r, k, r - 1, params)
                worst = max(worst, abs(v1 - fac * v0) / max(1.0, abs(v1)))
                w0 = T.xi_kj(z, k, 0, params)
                facx = np.exp(-1j * np.pi * tau
                              - 2j * np.pi * (z + (2 * k - 1 - tau) / (2 * r)))
                w1 = T.xi_kj(z + tau / r, k, r - 1, params)
                worst = max(worst, abs(w1 - facx * w0) / max(1.0, abs(w1)))
        assert worst < 1e-12

    def test_index_range(self):
        params = T.ThetaParams(tau=1j, r=3)
        with pytest.raises(IndexError, match="index out of range"):
            T.theta_kj(0.1, 3, 0, params)
        with pytest.raises(IndexError, match="index out of range"):
            T.xi_kj(0.1, 0, -1, params)

    def test_rho_values_r3(self):
        assert [T.rho_shift(j, 3) for j in range(3)] == [1.0, 0.0, -1.0]


class TestProducts:
    @pytest.mark.parametrize("r", [2, 3, 4])
    @pytest.mark.parametrize("tau", TAUS)
    def test_period_relations(self, r, tau):
        params = T.ThetaParams(tau=tau, r=r)
        _, I2 = T.i_matrices(r)
        rng = np.random.default_rng(4)
        worst = 0.0
        used = 0
        while used < 6:
            z = (rng.uniform(0.02, 0.44) + rng.uniform(0.08, 0.44) * tau) / r
            pts = (z, z + 1.0 / r, z + tau / r)
            if any(T.puncture_distance(w, params) < 3e-2 for w in pts):
                continue
            F0 = T.f_vector(z, params)
            scale = np.abs(F0).max()
            worst = max(worst, np.abs(T.f_vector(z + 1.0 / r, params) - F0).max() / scale)
            worst = max(worst, np.abs(T.f_vector(z + tau / r, params) - I2 @ F0).max() / scale)
            used += 1
        assert worst < 1e-10

    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
    def test_array_components_match_scalar_and_definition(self, r):
        tau = 0.2 + 1.1j
        params = T.ThetaParams(tau=tau, r=r)
        rng = np.random.default_rng(7)
        z = (rng.uniform(0.05, 0.4, (3, 4)) + rng.uniform(0.05, 0.4, (3, 4)) * tau) / r
        js = np.arange(r)[::-1]
        batch = T.f_component(z, js, params)
        assert batch.shape == (r, 3, 4)
        assert np.array_equal(T.f_vector(z, params), batch[::-1])
        pair = T.f_component(z, np.array([[0, r - 1]]), params)
        assert pair.shape == (1, 2, 3, 4)
        worst = 0.0
        for idx in np.ndindex(z.shape):
            for a, j in enumerate(js):
                ref = T.f_component(z[idx], int(j), params)
                worst = max(worst, abs(batch[(a,) + idx] - ref) / abs(ref))
            worst = max(worst, abs(pair[(0, 1) + idx] - batch[(0,) + idx])
                        / abs(batch[(0,) + idx]))
            if r % 2 == 1:
                # the definitional product over the odd-rank family
                for j in range(r):
                    rho = T.rho_shift(j, r)
                    val = np.exp(2j * np.pi * tau * (-j * r * (r - 1) / 2.0
                                                     + (r - 1) * j * (j + 1) / 2.0))
                    for k in range(r):
                        val *= T.theta_kj(z[idx], k, j, params) ** (r - 2) \
                            * T.theta_kj(z[idx] + rho * tau, k, j, params)
                        for ell in range(r):
                            if ell != j:
                                val /= T.theta_kj(z[idx], k, ell, params)
                    got = batch[(r - 1 - j,) + idx]
                    worst = max(worst, abs(got - val) / abs(val))
        assert worst < 1e-12

    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
    def test_log_derivatives_against_mpmath(self, r):
        # f_j'/f_j of the evaluator against mpmath's derivative of the
        # definitional product: the odd-rank theta_kj product, or for even r
        # H_j(u) = exp(2 pi i j u) Z(u - V_j)^r / prod_m Z(u - u_m) in u = r z,
        # whose calibrated constants drop out of f'/f
        tau = 0.2 + 1.1j
        params = T.ThetaParams(tau=tau, r=r)
        zs = (np.array([0.23, 0.67]) + np.array([0.61, 0.18]) * tau) / r
        vals, logd = T.f_quotients(params).logderivs(zs)
        assert np.array_equal(vals, T.f_vector(zs, params).T)
        with mp.workdps(30):
            tau_mp = mp.mpc(tau)

            def theta(x, t=tau_mp):
                return mp.jtheta(3, mp.pi * x, mp.exp(1j * mp.pi * t))

            if r % 2:
                def f(j, z):
                    val = mp.mpf(1)
                    for k in range(r):
                        val *= theta(z + (k + j * tau_mp) / r) ** (r - 2) * theta(
                            z + (k + j * tau_mp) / r + T.rho_shift(j, r) * tau_mp)
                        for ell in range(r):
                            if ell != j:
                                val /= theta(z + (k + ell * tau_mp) / r)
                    return val
            else:
                stacks = [(1 + tau_mp) / 2 + m * tau_mp for m in range(r)]
                half = (1 + r * tau_mp) / 2

                def f(j, z):
                    u = r * z
                    val = mp.exp(2j * mp.pi * j * u) * theta(
                        u - sum(stacks) / r + j * tau_mp + half, r * tau_mp) ** r
                    for um in stacks:
                        val /= theta(u - um + half, r * tau_mp)
                    return val

            ref = np.array([[complex(mp.diff(lambda x: f(j, x), mp.mpc(z)) / f(j, mp.mpc(z)))
                             for j in range(r)] for z in zs])
        if r % 2 == 0:
            # the components are the H_j in the calibrated labelling
            match = np.abs(logd[:, :, None] - ref[:, None, :]).argmin(axis=-1)
            assert (np.sort(match, axis=-1) == np.arange(r)).all()
            assert (match == match[0]).all()
            ref = ref[:, match[0]]
        assert np.abs(logd - ref).max() < 1e-11 * max(1.0, np.abs(ref).max())

    @pytest.mark.parametrize("r", [3, 5, 7])
    def test_merged_odd_family_matches_the_shifted_product(self, r):
        # the oracle: f_j = c_j prod_k theta_kj^(r-2) theta_kj(. + rho_j tau) /
        # prod_{l != j} theta_kl with the rho_j tau shift kept as its own factor
        tau = 0.2 + 1.1j
        params = T.ThetaParams(tau=tau, r=r)
        ks = np.arange(r)
        grid = (ks[:, None] + ks * tau) / r
        own = np.broadcast_to(np.eye(r)[:, None, :], (r, r, r))
        oracle = T.ThetaQuotients(
            params, np.stack([grid, grid + T.rho_shift(ks, r) * tau]).ravel(),
            np.stack([(r - 1) * own - 1, own], axis=1).reshape(r, -1), np.zeros(r),
            np.exp(2j * np.pi * tau * ((r - 1) * ks * (ks + 1 - r) / 2.0)), 1.0)
        rng = np.random.default_rng(r)
        z = (rng.uniform(0.0, 1.0, 40) + rng.uniform(-1.0, 2.0, 40) * tau) / r
        z = z[T.puncture_distance(z, params) > 1e-2]
        vals, logd = T.f_quotients(params).logderivs(z)
        ref_vals, ref_logd = oracle.logderivs(z)
        assert len(T.f_quotients(params).shifts) == r * r
        assert np.abs(vals / ref_vals - 1.0).max() < 1e-13
        assert (np.abs(logd - ref_logd).max(axis=-1)
                < 1e-13 * np.abs(ref_logd).max(axis=-1)).all()

    def test_component_index_range(self):
        params = T.ThetaParams(tau=1j, r=3)
        with pytest.raises(IndexError, match="index out of range"):
            T.f_component(0.1 + 0.1j, np.array([0, 3]), params)

    def test_puncture_guard(self):
        params = T.ThetaParams(tau=1j, r=3)
        with pytest.raises(NumericDomainError, match="pole"):
            T.f_component(params.puncture, 0, params)

    @pytest.mark.parametrize("r", [2, 3])
    def test_pole_structure_at_puncture(self, r):
        # f_j = zeta^{-1} (holomorphic)^r near the puncture: zeta * f_j tends
        # to a finite limit along 4 radial directions, and when that limit is
        # zero (the hol part vanishes there) the order is exactly r - 1
        tau = 0.2 + 1.1j
        params = T.ThetaParams(tau=tau, r=r)
        p = params.puncture
        for j in range(r):
            limits = []
            for direction in np.exp(1j * np.array([0.4, 1.9, 3.5, 5.2])):
                vals = []
                for eps in (1e-4, 1e-5):
                    zeta = eps * direction
                    vals.append(zeta * T.f_quotients(params)(p + zeta)[j])
                scale = max(abs(vals[1]), 1e-10)
                assert abs(vals[0] - vals[1]) < 1e-2 * scale + 1e-8
                limits.append(vals[1])
            mags = np.abs(limits)
            if mags.max() < 1e-8:
                zero_vals = [abs(T.f_quotients(params)(p + eps)[j])
                             / eps ** (r - 1) for eps in (1e-4, 1e-5)]
                assert zero_vals[1] > 1e-10
                assert abs(zero_vals[0] - zero_vals[1]) < 1e-2 * zero_vals[1]
            else:
                assert mags.min() > 1e-10


class TestContinuedLog:
    PARAMS = T.ThetaParams(tau=1j, r=3)

    def test_loop_winds_only_around_the_enclosed_zero(self):
        # f = (w - a) (w - b)^2: the loop encloses a, not the double zero b
        a, b = 0.02 + 0.03j, 0.3 + 0.01j

        def func(w):
            return (w - a) * (w - b) ** 2, 1 / (w - a) + 2 / (w - b)

        corners = [a + 0.05 * c for c in (1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j, 1 + 1j)]
        logs = T._continued_log(func, corners, self.PARAMS)
        assert logs.shape == (5,)
        assert abs(logs[-1] - 2j * np.pi) < 1e-12

    def test_near_miss_is_bisected_and_matches_closed_form(self):
        z_from, z_to = 0.02 + 0.05j, 0.22 + 0.05j
        a = 0.5 * (z_from + z_to) + 1e-4j
        seen = []

        def func(w):
            seen.append(w.size)
            return w - a, 1 / (w - a)

        got = T._continued_log(func, [z_from, z_to], self.PARAMS)[-1]
        ref = np.log((z_to - a) / (z_from - a))
        assert abs(ref.imag) > 3.0  # the argument turns by nearly pi
        assert abs(got - ref) < 1e-12
        # the grid of 5 steps is evaluated once, then only the midpoints of
        # the few steps next to the zero
        assert seen[0] == 6 and len(seen) > 1 and max(seen[1:]) < 6

    def test_double_zero_beside_a_step_is_not_straddled(self):
        # the first step passes 1e-4 from a double zero: its ratio comes back
        # within 0.02 of 1 with the argument turned by about 2 pi, which only
        # the log-derivative bound sees; the loop winds twice around the zero
        z0 = 0.2 + 0.2j
        a = z0 + 0.02 + 1e-4j

        def func(w):
            return (w - a) ** 2, 2 / (w - a)

        corners = z0 + np.array([0.0, 0.16, 0.16 + 0.16j, 0.16j, 0.0])
        total = T._continued_log(func, corners, self.PARAMS)[-1]
        assert abs(total - 4j * np.pi) < 1e-12

    def test_segment_through_a_zero_raises(self):
        a = 0.0731 + 0.05j
        with pytest.raises(NumericDomainError, match="branch obstruction"):
            T._continued_log(lambda w: (w - a, 1 / (w - a)),
                             [0.02 + 0.05j, 0.22 + 0.05j], self.PARAMS)

    def test_segment_into_a_puncture_raises(self):
        p = self.PARAMS.puncture
        with pytest.raises(NumericDomainError, match="branch obstruction"):
            T._continued_log(lambda w: (np.ones(w.size), np.zeros(w.size)),
                             [p - 0.1, p], self.PARAMS)

    def test_zero_length_segment_takes_no_step(self):
        # a segment of length 0 adds no point and an increment of exactly 0,
        # but its node is still checked against the puncture radius
        z0, z1 = 0.02 + 0.05j, 0.12 + 0.05j
        seen = []

        def func(w):
            seen.append(w.size)
            return w - 0.4, 1 / (w - 0.4)

        logs = T._continued_log(func, [z0, z0, z1, z1], self.PARAMS)
        assert logs[1] == 0 and logs[3] == logs[2]
        assert seen == [5]  # z0, then the 4 steps to z1
        assert (T._continued_log(func, [z0, z0], self.PARAMS) == 0).all()
        assert seen == [5, 1]
        p = self.PARAMS.puncture
        with pytest.raises(NumericDomainError, match="branch obstruction"):
            T._continued_log(func, [p, p], self.PARAMS)

    def test_node_logs_match_closed_form(self):
        a, b = 0.4 + 0.3j, -0.2 - 0.25j
        nodes = np.array([0.02 + 0.05j, 0.17 + 0.02j, 0.11 + 0.19j])

        def func(w):
            return (w - a) * (w - b) ** 2, 1 / (w - a) + 2 / (w - b)

        got = T._continued_log(func, nodes, self.PARAMS)
        ref = np.log((nodes - a) / (nodes[0] - a)) + 2 * np.log((nodes - b) / (nodes[0] - b))
        assert got.shape == (3,)
        assert np.abs(got - ref).max() < 1e-12


def _cell_and_puncture_path(params, anchor):
    """From the anchor, round the cell at the extraction's origin, then out
    to a circle round the puncture and round it."""
    r = params.r
    origin = 0.013 * params.omega1 + 0.017 * params.omega2
    cell = origin + np.array([0.0, params.omega1, params.omega1 + params.omega2,
                              params.omega2, 0.0])
    near = params.puncture + 0.45 / r * np.exp(2j * np.pi * np.arange(65) / 64)
    lead, out = np.linspace(anchor, origin, 9), np.linspace(origin, near[0], 9)
    return np.concatenate([lead, cell, out, near])


class TestBasicSection:
    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    @pytest.mark.parametrize("tau", TAUS)
    def test_roots_relations(self, r, tau):
        params = T.ThetaParams(tau=tau, r=r)
        q = params.q_root
        I1, I2 = T.i_matrices(r)
        trk = T.SectionTracker(params)
        z0 = trk.anchor
        s0 = trk.value_at(z0)
        # invariant: values^r = f
        f0 = T.f_vector(z0, params)
        assert np.abs(s0 ** r - f0).max() < 1e-10 * np.abs(f0).max()
        # horizontal: s_i(z + 1/r) = q^i s_i(z)
        s1 = trk.value_at(z0 + 1.0 / r)
        assert np.abs(s1 / s0 - q ** np.arange(r)).max() < 1e-8
        # vertical: s(z + tau/r) = I2 s(z)
        trk2 = T.SectionTracker(params)
        s0b = trk2.value_at(z0)
        s2 = trk2.value_at(z0 + tau / r)
        assert np.abs(s2 - I2 @ s0b).max() < 1e-8 * np.abs(s0b).max()

    def test_monodromy_around_puncture(self):
        params = T.ThetaParams(tau=1j, r=3)
        r = params.r
        trk = T.SectionTracker(params)
        p = params.puncture
        # square loop enclosing exactly one puncture, walked twice in one path
        rad = 0.45 / r
        loop = [p + rad * 1j, p - rad, p - rad * 1j, p + rad]
        vals = trk.value_at(np.array([p + rad] + loop + loop))
        s_ref, s_back, s_back2 = vals[:, 0], vals[:, 4], vals[:, 8]
        ratio = s_back / s_ref
        q = params.q_root
        powers = np.round(np.angle(ratio) / (2 * np.pi / r)).astype(int) % r
        assert np.abs(ratio - q ** powers.astype(float)).max() < 1e-8
        assert len(set(powers.tolist())) == 1  # one global root of unity
        assert powers[0] != 0  # the loop does turn the section
        # repeating the same loop gives the same root (homotopy invariance)
        ratio2 = s_back2 / s_back
        assert np.abs(ratio2 - ratio).max() < 1e-8

    def test_contractible_loop_is_trivial(self):
        params = T.ThetaParams(tau=1j, r=3)
        trk = T.SectionTracker(params)
        z0 = trk.anchor + 0.01
        vals = trk.value_at(np.array([z0, z0 + 0.02, z0 + 0.02 + 0.02j, z0 + 0.02j, z0]))
        s0, s1 = vals[:, 0], vals[:, -1]
        assert np.abs(s1 - s0).max() < 1e-10 * np.abs(s0).max()

    def test_collinear_waypoints_match_one_segment(self):
        params = T.ThetaParams(tau=0.2 + 1.1j, r=3)
        trk = T.SectionTracker(params)
        target = trk.anchor + 0.21 + 0.08j
        direct = trk.value_at(target)
        trk2 = T.SectionTracker(params)
        via = trk2.value_at(trk2.anchor + np.array([0.3, 0.55, 1.0])
                            * (target - trk2.anchor))[:, -1]
        assert np.abs(via - direct).max() < 1e-13 * np.abs(direct).max()

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    def test_path_matches_successive_points(self, r):
        # every query continues from the anchor: the value at a path's k-th
        # point is the last value of the path cut there
        params = T.ThetaParams(tau=0.2 + 1.1j, r=r)
        trk = T.SectionTracker(params)
        # a repeated point, a loop around a puncture and back
        p = params.puncture
        rad = 0.45 / r
        path = np.array([trk.anchor, trk.anchor + 0.05, p + rad, p + rad * 1j,
                         p - rad, p - rad * 1j, p + rad, p + rad, trk.anchor])
        got = trk.value_at(path)
        assert got.shape == (r, path.size)
        ref = np.array([trk.value_at(path[:k + 1])[:, -1] for k in range(path.size)]).T
        assert np.abs(got - ref).max() < 1e-13 * np.abs(ref).max()
        # the loop turns the section, and a later query does not see it
        assert np.abs(got[:, -1] - got[:, 0]).max() > 1e-3 * np.abs(ref).max()
        assert np.abs(trk.value_at(path[0]) - got[:, 0]).max() < 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
    def test_values_are_roots_of_f_along_a_path(self, r):
        params = T.ThetaParams(tau=0.2 + 1.1j, r=r)
        trk = T.SectionTracker(params)
        path = _cell_and_puncture_path(params, trk.anchor)
        f = T.f_vector(path, params)
        assert np.abs(trk.value_at(path) ** r / f - 1.0).max() < 1e-12

    @pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
    def test_matches_every_component_continued(self, r):
        # the oracle continues the log of every f_j from the anchor, the
        # anchor rules applied to the values there (s_0 the principal root,
        # s_(j+1) = s_j continued across tau/r): s = A (1/h)^(1/r) with only
        # log(1/h) continued must give the same values along the path
        params = T.ThetaParams(tau=0.2 + 1.1j, r=r)
        trk = T.SectionTracker(params)
        a = trk.anchor
        f = T.f_quotients(params)

        def logs(j, nodes):
            return T._continued_log(lambda w: tuple(v[..., j] for v in f.logderivs(w)),
                                    nodes, params)

        f0 = T.f_vector(a, params)
        s = np.empty(r, dtype=complex)
        s[0] = abs(f0[0]) ** (1.0 / r) * np.exp(1j * np.angle(f0[0]) / r)
        for j in range(1, r):
            carried = s[j - 1] * np.exp(logs(j - 1, [a, a + params.omega2])[-1] / r)
            s[j] = carried * np.exp(np.log(f0[j] / carried ** r) / r)
        path = _cell_and_puncture_path(params, a)
        ref = s[:, None] * np.exp(np.array([logs(j, np.append(a, path))[1:]
                                            for j in range(r)]) / r)
        assert np.abs(trk.value_at(path) / ref - 1.0).max() < 1e-13

    def test_one_value_at_continues_one_scalar(self, monkeypatch):
        params = T.ThetaParams(tau=0.2 + 1.1j, r=4)
        trk = T.SectionTracker(params)
        continued, calls, shapes = T._continued_log, [], []

        def counted(func, *args):
            def checked(w):
                vals, logd = func(w)
                shapes.append((vals.shape, logd.shape, w.shape))
                return vals, logd
            calls.append(args)
            return continued(checked, *args)

        monkeypatch.setattr(T, "_continued_log", counted)
        trk.value_at(trk.anchor + np.array([0.05, 0.1 + 0.2j, 0.3]))
        assert len(calls) == 1 and shapes
        assert all(v == d == w and len(w) == 1 for v, d, w in shapes)

    @pytest.mark.parametrize("r", [2, 3, 5])
    def test_continuation_evaluates_only_one_over_h(self, r, monkeypatch):
        # the continued scalar is element r of the section evaluator alone: its
        # values and log-derivative are the full evaluator's to 1e-15 relative,
        # and every quotient product along the path has one element; the r + 1
        # elements are formed only at the path's points, for A
        params = T.ThetaParams(tau=0.2 + 1.1j, r=r)
        s = T.section_quotients(params)
        zs = T._anchor(params) + np.array([0.0, 0.05 + 0.02j, 0.3 / r + 0.2j / r, -0.1])
        for one, full in zip(T._last(s)(zs), s.logderivs(zs)):
            assert np.abs(one - full[:, -1]).max() <= 1e-15 * np.abs(full[:, -1]).max()
        series, widths = T.ThetaQuotients._evaluate, []
        monkeypatch.setattr(T.ThetaQuotients, "_evaluate",
                            lambda self, z, deriv: widths.append(self.powers.shape[0])
                            or series(self, z, deriv))
        trk = T.SectionTracker(params)
        widths.clear()
        trk.value_at(trk.anchor + np.array([0.05, 0.1 + 0.2j, 0.3]))
        assert widths == [1] * (len(widths) - 1) + [r + 1] and len(widths) > 1

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    def test_circuits_turn_every_component_alike(self, r):
        # round the cell and round the puncture, s gains exp(-2 pi i/r),
        # common to its components (which B, of degree r, does not see)
        params = T.ThetaParams(tau=0.2 + 1.1j, r=r)
        trk = T.SectionTracker(params)
        vals = trk.value_at(_cell_and_puncture_path(params, trk.anchor))
        for start, end in ((9, 13), (23, 87)):  # the cell's corners, the circle's ends
            turn = vals[:, end] / vals[:, start]
            assert np.abs(turn - np.exp(-2j * np.pi / r)).max() < 1e-13

    @pytest.mark.parametrize("r", [2, 4, 6])
    @pytest.mark.parametrize("tau", [1j, 0.2 + 1.1j, 0.15 + 1.05j, -0.3 + 0.9j])
    def test_even_labelling_matches_the_per_component_calibration(self, r, tau):
        # the oracle continues the r-th root of every raw H_j over a
        # horizontal period at a row between two puncture rows: the roots of
        # unity they gain are consecutive powers of q, and the first one's
        # power is the labelling's offset
        params = T.ThetaParams(tau=tau, r=r)
        base = T.ThetaParams(tau=r * tau, r=r)
        stacks = (1.0 + tau) / 2.0 + np.arange(r) * tau
        vs = stacks.sum() / r - np.arange(r) * tau
        half = (1.0 + r * tau) / 2.0
        raw = T.ThetaQuotients(base, np.concatenate([half - vs, half - stacks]),
                               np.hstack([r * np.eye(r), -np.ones((r, r))]), np.arange(r),
                               1.0, r)
        za = (0.0917 + 0.3379 * tau) / r
        fac = np.exp([T._continued_log(lambda w: tuple(v[..., j] for v in raw.logderivs(w)),
                                       [za, za + 1.0 / r], params)[-1] / r
                      for j in range(r)])
        powers = np.round(np.angle(fac) / (2 * np.pi / r)).astype(int) % r
        assert np.abs(fac - params.q_root ** powers).max() < 1e-8
        assert ((powers - np.arange(r) - powers[0]) % r == 0).all()
        order = (np.arange(r) - powers[0]) % r
        got = np.rint(T.f_quotients(params).phase.imag / (2 * np.pi)).astype(int)
        assert (got == order).all()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.1, np.inf)])
    def test_non_finite_path_point_raises(self, bad):
        params = T.ThetaParams(tau=1j, r=3)
        trk = T.SectionTracker(params)
        path = np.array([trk.anchor + 0.05, bad, trk.anchor + 0.1])
        with pytest.raises(NumericDomainError, match="not finite"):
            trk.value_at(path)
        with pytest.raises(NumericDomainError, match="not finite"):
            trk.value_at(bad)


class TestNumberPath:
    @pytest.mark.parametrize("r", [2, 3])
    def test_number_and_zero_d_array_agree_bit_for_bit(self, r):
        # a number z stays a number through ThetaQuotients (no 0-d arrays) and
        # gives the values the 0-d array np.asarray(z) gives, bit for bit
        params = T.ThetaParams(tau=0.2 + 1.1j, r=r)
        for q in (T.f_quotients(params), T.section_quotients(params), T._plain(params)):
            for z in (0.11 + 0.07j, -0.37 + 0.81j, 2.4 - 1.3j, 0.25, 1):
                assert np.array_equal(q(z), q(np.asarray(z)))
                for number, array in zip(q.logderivs(z), q.logderivs(np.asarray(z))):
                    assert np.array_equal(number, array)
        z = 0.3 + 0.1j
        assert T.riemann_theta(z, params) == T.riemann_theta(np.asarray(z), params)

    @pytest.mark.parametrize("kind", ["lax 1", "lax 2", "lax 3", "f 2", "f 3", "f 4",
                                      "section 2", "section 3"])
    def test_number_path_matches_the_array_path(self, kind):
        # a number takes its exponents and series row from one product with
        # [K | G], an array from broadcast exponents and its own row: values
        # and log-derivatives agree to 1e-14 relative (log-derivatives to the
        # largest at the point, as they cancel to near 0) within half a cell
        # of the origin; farther out an exponent's own rounding, |exponent|
        # times eps, grows past that on either path
        q = _fold_case(kind)
        a, b = np.random.default_rng(6).uniform(-0.5, 0.5, (2, 30))
        z = (a + b * q.params.tau) / q.scale
        vals, logd = q.logderivs(z)
        for w, ref_vals, ref_logd in zip(z, vals, logd):
            got_vals, got_logd = q.logderivs(complex(w))
            assert np.array_equal(got_vals, q(complex(w)))
            assert (np.abs(got_vals - ref_vals) <= 1e-14 * np.abs(ref_vals)).all()
            assert (np.abs(got_logd - ref_logd) <= 1e-14 * np.abs(ref_logd).max()).all()

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    def test_last_element_alone(self, r):
        # _last slices the folded [K | G] with the powers and the factor lists:
        # at a number, a 0-d array and an array it gives the section's last
        # element, 1/h, and its log-derivative
        q = T.section_quotients(T.ThetaParams(tau=0.2 + 1.1j, r=r))
        zs = T._anchor(q.params) + np.array([0.0, 0.05 + 0.02j, 0.3 / r + 0.2j / r, -0.1])
        for z in (complex(zs[1]), np.asarray(zs[2]), zs):
            for one, full in zip(T._last(q)(z), q.logderivs(z)):
                assert np.shape(one) == np.shape(z)
                assert np.all(np.abs(one - full[..., -1]) <= 1e-14 * np.abs(full[..., -1]))


def _per_factor(q, z):
    """The elements of ``q`` and their log-derivatives at the points ``z`` (m,),
    one quasi-periodicity factor per theta factor: ``c_e exp(2 pi i gamma_e
    u) prod_f (exp(-pi i tau M_f^2 - 2 pi i M_f (v + sig_f)) S_f)^p_ef``."""
    tau = q.params.tau
    u = q.scale * np.asarray(z, dtype=complex)
    v, m = T._reduce(u, tau)
    sig, mf = T._reduce(q.shifts, tau)
    M = m[:, None] + mf
    factor = np.exp(-1j * np.pi * tau * M ** 2 - 2j * np.pi * M * (v[:, None] + sig))
    row = np.exp(q._gauss + v[:, None] * q._n)
    table = q._table[:, :-1]  # the last column is the evaluator's exact 1
    th, dth = factor * (row @ table), factor * ((row * q._n) @ table)
    dth -= 2j * np.pi * M * th
    vals = q.coef * np.exp(q.phase * u[:, None]) * (th[:, None, :] ** q.powers).prod(axis=-1)
    return vals, q.scale * (q.phase + (dth / th) @ q.powers.T)


def _fold_case(kind):
    family, r = (kind + " 2").split()[:2]
    params = T.ThetaParams(tau=0.2 + 1.1j, r=int(r))
    if family == "lax":
        div = E.EllipticDivisor(points=((0.31 + 0.42 * params.tau) / params.r,
                                        (0.67 + 0.18 * params.tau) / params.r), mults=(1, 1))
        return E._quotients(params, [w for els in E.build_basis(div, params).values()
                                     for w in els])
    return T.f_quotients(params) if family == "f" else T.section_quotients(params)


class TestFold:
    @pytest.mark.parametrize("kind, cells", [("f 3", 3), ("f 2", 3), ("f 4", 2), ("lax", 3),
                                             ("section 3", 3), ("section 4", 3)])
    def test_matches_the_per_factor_product(self, kind, cells):
        # the one exponent per element against one factor per theta factor,
        # on arrays and on numbers, at points up to ``cells`` cells out of the
        # evaluator's lattice: the odd family (r = 3), the even family (r = 2,
        # 4), a Lax basis and the section, whose A_j (of nonzero total power)
        # alone see K2 and K4.  Values to 1e-13 relative, log-derivatives to
        # 1e-13 of the largest at the point (they cancel to near 0).  At r = 4
        # the reference's fourth powers of single factors overflow three cells
        # out, where the fold's one exponent does not
        q = _fold_case(kind)
        a, b = np.random.default_rng(5).uniform(-cells, cells, (2, 40))
        z = (a + b * q.params.tau) / q.scale
        ref_vals, ref_logd = _per_factor(q, z)
        vals, logd = q.logderivs(z)
        assert np.array_equal(vals, q(z))
        numbers = [q.logderivs(complex(w)) for w in z]
        for got_vals, got_logd in ((vals, logd), np.array(numbers).transpose(1, 0, 2)):
            assert (np.abs(got_vals - ref_vals) <= 1e-13 * np.abs(ref_vals)).all()
            scale = np.abs(ref_logd).max(axis=1, keepdims=True)
            assert (np.abs(got_logd - ref_logd) <= 1e-13 * scale).all()

    @pytest.mark.parametrize("kind", ["f 2", "lax", "section 3"])
    def test_power_zero_elements_survive_an_exact_zero(self, kind):
        # a factor's series sum exactly 0 (its table column zeroed) leaves the
        # elements of power 0 on it unchanged, on arrays and on numbers
        q = _fold_case(kind)
        f = np.flatnonzero((q.powers == 0).any(axis=0))[0]
        zeroed = copy.copy(q)
        zeroed._table = q._table * (np.arange(q.shifts.size + 1) != f)
        z = (0.137 + 0.291 * q.params.tau) / q.scale + np.array([0.0, 1.3 + 0.4j, -2.1 - 1.7j])
        keep = q.powers[:, f] == 0
        with np.errstate(divide="ignore", invalid="ignore"):
            for point in (z, complex(z[1])):
                got, full = zeroed(point), q(point)
                assert np.isfinite(got[..., keep]).all()
                assert np.array_equal(got[..., keep], full[..., keep])
                assert not np.array_equal(got[..., ~keep], full[..., ~keep])

    def test_equal_powers_share_one_frozen_factor_list(self):
        # the factor lists depend on the integer powers alone: evaluators with
        # equal powers on other shifts and moduli share one read-only array
        powers = [[1.0, -1.0, 0.0], [2.0, 0.0, -2.0]]
        one, two, other = (T.ThetaQuotients(T.ThetaParams(tau=tau, r=r), shifts, p,
                                            [0.0, 0.5], 1.0, r)
                           for tau, r, shifts, p in (
                               (0.2 + 1.1j, 2, [0.1, 0.3j, 0.5], powers),
                               (-0.1 + 0.9j, 3, [0.2, 0.4j, 0.7], powers),
                               (0.2 + 1.1j, 2, [0.1, 0.3j, 0.5], [[1.0, -1.0, 0.0]] * 2)))
        assert one._factors is two._factors and not one._factors.flags.writeable
        assert other._factors is not one._factors

    def test_powers_must_be_integers(self):
        # the elements are products of S by index: a fractional power has none
        params = T.ThetaParams(tau=0.2 + 1.1j, r=2)
        with pytest.raises(ValueError, match="integers"):
            T.ThetaQuotients(params, [0.0, 0.5], [[1.0, 0.5]], [0.0], 1.0, 1.0)


class TestSectionEvaluator:
    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("tau", TAUS)
    def test_split_gives_f(self, r, tau):
        # the elements are the A_j, then 1/h: f_j = A_j^r (1/h)
        params = T.ThetaParams(tau=tau, r=r)
        zs = T._anchor(params) + np.array([0.0, 0.05 + 0.02j, 0.3 / r + 0.2j / r, -0.1])
        s = T.section_quotients(params)(zs)
        assert s.shape == (zs.size, r + 1)
        f = T.f_quotients(params)(zs)
        assert np.abs(s[:, :r] ** r * s[:, r:] / f - 1.0).max() < 1e-12


def _mutated_f_quotients(monkeypatch):
    """Give every f_j the extra factor theta(u + c1)/theta(u + c2): it goes
    wholly to 1/h, so the calibration and the tracker both see it."""
    unmutated = T.f_quotients

    def mutated(params):
        f = unmutated(params)
        extra = (np.array([0.21 + 0.13 * params.tau, 0.37 + 0.29 * params.tau])
                 * f.scale / params.r)
        powers = np.hstack([f.powers.real, np.tile([1.0, -1.0], (params.r, 1))])
        return T.ThetaQuotients(f.params, np.append(f.shifts, extra), powers,
                                f.phase / (2j * np.pi), f.coef, f.scale)

    monkeypatch.setattr(T, "f_quotients", mutated)
    T.section_quotients.cache_clear()


class TestThetaRootsCheck:
    @pytest.fixture(autouse=True)
    def _fresh_sections(self):
        T.section_quotients.cache_clear()
        yield
        T.section_quotients.cache_clear()

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    @pytest.mark.parametrize("tau", TAUS)
    def test_shared_factor_of_h_fails_it(self, r, tau, monkeypatch):
        # at the anchor the calibration makes s(z + tau/r) = I2 s(z) hold in
        # the components j <= r - 2 whatever 1/h is; at the sampled points
        # the extra factor shows in them
        params = T.ThetaParams(tau=tau, r=r)
        pairs, value_at = [], T.SectionTracker.value_at

        def recorded(self, z):
            pairs.append((np.asarray(z), value_at(self, z)))
            return pairs[-1][1]

        _mutated_f_quotients(monkeypatch)
        monkeypatch.setattr(T.SectionTracker, "value_at", recorded)
        checks = {c.name: c for c in acceptance.theta_cell(params, 2024)}
        assert not checks["theta_roots"].passed
        assert len(pairs) == 6 and all(path[0] != T._anchor(params) for path, _ in pairs)
        assert _shift_residuals(params, pairs)[:r - 1].max() > 1e-8
        if r % 2 == 0:  # at the anchor only component r - 1 sees it
            trk, a = T.SectionTracker(params), T._anchor(params)
            at_anchor = _shift_residuals(params, [
                (path, trk.value_at(path)) for path in ([a, a + params.omega1],
                                                        [a, a + params.omega2])])
            assert at_anchor[:r - 1].max() < 1e-12 < 1e-8 < at_anchor[r - 1]


def _shift_residuals(params, pairs):
    """Per component, the worst of ``theta_roots``' two relations over
    ``(path, values)`` pairs, each path ``[z, z + omega]``."""
    r, q, I2 = params.r, params.q_root, T.i_matrices(params.r)[1]
    worst = np.zeros(r)
    for path, (s0, s1) in ((path, vals.T) for path, vals in pairs):
        if np.isclose(path[1] - path[0], params.omega1):
            worst = np.maximum(worst, np.abs(s1 / s0 - q ** np.arange(r)))
        else:
            worst = np.maximum(worst, np.abs(s1 - I2 @ s0) / np.abs(s0).max())
    return worst


class TestIMatrices:
    def test_r2_explicit(self):
        I1, I2 = T.i_matrices(2)
        assert np.allclose(I1, np.diag([1.0, -1.0]))
        assert np.allclose(I2, [[0.0, 1.0], [1.0, 0.0]])

    @pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
    def test_braiding_and_orders(self, r):
        I1, I2 = T.i_matrices(r)
        q = np.exp(2j * np.pi / r)
        # direct multiplication oracle: I2 I1 = q I1 I2
        assert np.abs(I2 @ I1 - q * I1 @ I2).max() < 1e-12
        assert np.abs(np.linalg.matrix_power(I1, r) - np.eye(r)).max() < 1e-12
        assert np.abs(np.linalg.matrix_power(I2, r) - np.eye(r)).max() < 1e-12

    def test_r1_trivial(self):
        I1, I2 = T.i_matrices(1)
        assert np.allclose(I1, [[1.0]])
        assert np.allclose(I2, [[1.0]])
