import numpy as np
import pytest

from sovkit import kernel
from sovkit.errors import NumericDomainError
from sovkit.numeric import PathSpec, fd_gradient, integrate_path, ode_solve


class TestIntegratePath:
    def test_linear_integrand(self):
        value, err = integrate_path(lambda z: z, PathSpec((0.0, 1.0)))
        assert abs(value - 0.5) < 1e-14
        assert err < 1e-12

    def test_cauchy_unit_square(self):
        square = PathSpec((1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j, 1 + 1j))
        value, _ = integrate_path(lambda z: 1.0 / z, square)
        assert abs(value - 2j * np.pi) < 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_polynomial_antiderivative(self, seed):
        rng = np.random.default_rng(seed)
        c = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        a = rng.standard_normal() + 1j * rng.standard_normal()
        b = rng.standard_normal() + 1j * rng.standard_normal()
        anti = np.concatenate([[0.0], c / np.arange(1, 8)])
        expected = kernel.poly_eval(anti, b) - kernel.poly_eval(anti, a)
        value, _ = integrate_path(lambda z: kernel.poly_eval(c, z), PathSpec((a, b)))
        assert abs(value - expected) < 1e-12 * max(1.0, abs(expected))

    def test_concatenation_and_reversal(self):
        rng = np.random.default_rng(9)
        c = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        f = lambda z: kernel.poly_eval(c, z) + np.exp(0.3 * z)
        a, m, b = 0.1 - 0.4j, 0.6 + 0.2j, -0.8 + 0.9j
        whole, _ = integrate_path(f, PathSpec((a, m, b)))
        first, _ = integrate_path(f, PathSpec((a, m)))
        second, _ = integrate_path(f, PathSpec((m, b)))
        assert abs(whole - (first + second)) < 1e-12
        back, _ = integrate_path(f, PathSpec((a, m, b)).reversed())
        assert abs(whole + back) < 1e-12

    def test_singular_path_raises(self):
        # pole strictly inside the segment, away from any symmetric cancellation
        with pytest.raises(NumericDomainError, match="singular path"):
            integrate_path(lambda z: 1.0 / z, PathSpec((-1.0, 2.0)))

    def test_pathspec_validation(self):
        with pytest.raises(ValueError):
            PathSpec((1.0,))
        with pytest.raises(ValueError):
            PathSpec((1.0, 1.0))


class TestOdeSolve:
    def test_exponential_decay(self):
        out = ode_solve(lambda t, y: -y, np.array([1.0]), [0.0, 1.0])
        assert abs(out[-1, 0] - np.exp(-1.0)) < 1e-9

    def test_harmonic_energy_drift(self):
        def field(t, y):
            return np.array([y[1], -y[0]])

        ts = np.linspace(0.0, 10.0, 21)
        out = ode_solve(field, np.array([1.0, 0.0]), ts)
        energy = np.abs(out[:, 0]) ** 2 + np.abs(out[:, 1]) ** 2
        assert np.max(np.abs(energy - energy[0])) < 1e-8

    def test_fixed_step_order(self):
        # fifth-order method: halving the step shrinks the error ~32x
        def field(t, y):
            return np.array([np.cos(t) * y[0]])

        exact = np.exp(np.sin(1.0))
        errs = []
        for h in (0.1, 0.05):
            out = ode_solve(field, np.array([1.0]), [0.0, 1.0], fixed_step=h)
            errs.append(abs(out[-1, 0] - exact))
        assert errs[0] / errs[1] > 16.0

    def test_tightening_tolerance_reduces_error(self):
        from sovkit.tolerances import Tolerances

        def field(t, y):
            return np.array([y[0] * np.sin(3 * t)])

        exact = np.exp((1 - np.cos(3.0)) / 3.0)
        coarse = ode_solve(field, np.array([1.0]), [0.0, 1.0], tol=Tolerances(ode=1e-5))
        fine = ode_solve(field, np.array([1.0]), [0.0, 1.0], tol=Tolerances(ode=1e-11))
        assert abs(fine[-1, 0] - exact) < abs(coarse[-1, 0] - exact)
        assert abs(fine[-1, 0] - exact) < 1e-9

    def test_step_clipped_to_output_time_lands_on_it(self):
        # a smooth flow whose clipped step used to end one ulp short of an
        # output time, leaving a sub-ulp remainder that tripped the guard
        w = 4.236517050892637
        ts = np.linspace(0.0, 0.05409381656964706, 9)
        out = ode_solve(lambda t, y: np.array([1j * w * y[0], -y[1] * y[0]]),
                        np.array([1.0, 0.5]), ts)
        assert np.allclose(out[:, 0], np.exp(1j * w * ts), atol=1e-9)

    def test_stiff_guard(self):
        def field(t, y):
            return np.array([y[0] ** 2])  # blows up at t = 1

        with pytest.raises(NumericDomainError, match="stiff or singular"):
            ode_solve(field, np.array([1.0]), [0.0, 2.0])


class TestFdGradient:
    def test_quadratic(self):
        x = np.array([0.4, -1.2, 2.5], dtype=complex)
        grad = fd_gradient(lambda v: np.sum(v ** 2), x)
        assert np.max(np.abs(grad - 2 * x)) < 1e-9

    def test_constant(self):
        grad = fd_gradient(lambda v: 3.7 + 0j, np.array([1.0, 2.0], dtype=complex))
        assert np.max(np.abs(grad)) < 1e-12

    def test_random_polynomial_observable(self):
        rng = np.random.default_rng(13)
        A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        f = lambda v: v @ A @ v + b @ v
        grad = fd_gradient(f, x)
        exact = (A + A.T) @ x + b
        assert np.max(np.abs(grad - exact)) < 1e-6 * max(1.0, np.max(np.abs(exact)))
