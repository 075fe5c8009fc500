import warnings

import numpy as np
import pytest

from sovkit import kernel, numeric
from sovkit.errors import NumericDomainError
from sovkit.numeric import PathSpec, integrate_path, ode_solve
from sovkit.tolerances import DEFAULT


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
        back, _ = integrate_path(f, PathSpec((b, m, a)))
        assert abs(whole + back) < 1e-12

    def test_vector_integrand_and_one_call_per_level(self):
        # the powers z^k, k < 4, on one call per level whose nodes run along
        # the path; the peak at 0.3 + 0.01i makes some panels refine
        calls = []

        def f(z):
            calls.append(z)
            return z[:, None] ** np.arange(4) / (z - (0.3 + 0.01j))[:, None]

        path = PathSpec((-1.0, 1.0, 1.0 + 1j))
        value, err = integrate_path(f, path)
        assert value.shape == err.shape == (4,)
        # only the panels that fail their check are halved: the levels stay
        # small while the refinement closes in on the peak
        assert len(calls) > 4 and max(z.size for z in calls) <= 4 * calls[0].size
        for z in calls:
            t = np.where(z.imag == 0.0, z.real, 1.0 + z.imag)  # the path parameter
            assert np.all(np.diff(t) > 0)
        # z^k / (z - c) = sum_{j<k} c^(k-1-j) z^j + c^k / (z - c)
        c = 0.3 + 0.01j
        # the path passes below c, clear of the cut of log(z - c)
        log = np.log(1.0 + 1j - c) - np.log(-1.0 - c)
        anti = lambda z, k: sum(c ** (k - 1 - j) * z ** (j + 1) / (j + 1) for j in range(k))
        exact = [anti(1.0 + 1j, k) - anti(-1.0, k) + c ** k * log for k in range(4)]
        assert np.abs(value - exact).max() < 1e-11

    def test_pole_close_to_the_path(self):
        # each panel answers for its own share of the integral of |f|, so the
        # panels far from the pole stop refining while those near it go on
        a = 0.5 + 1e-6j
        value, err = integrate_path(lambda z: 1.0 / (z - a), PathSpec((0.0, 1.0)))
        # the path passes below a, clear of the cut of log(z - a)
        assert abs(value - (np.log(1.0 - a) - np.log(-a))) < 1e-10
        assert err < 1e-9

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

    def test_dp_step_is_fifth_order(self):
        # one step of y' = cos(t) y: the local error is O(h^6), so halving h
        # shrinks it by more than 2^5; the last stage is the field at the result
        def field(t, y):
            return np.cos(t) * y

        t0 = 0.3
        y0 = np.array([np.exp(np.sin(t0))], dtype=complex)
        errs = []
        for h in (0.2, 0.1):
            y1, _, k7 = numeric._dp_step(field, t0, y0, h, field(t0, y0))
            errs.append(abs(y1[0] - np.exp(np.sin(t0 + h))))
            assert np.array_equal(k7, field(t0 + h, y1))
        assert errs[0] / errs[1] > 2.0 ** 5

    @staticmethod
    def _counted(monkeypatch, field, t_grid):
        """The result, the field evaluations and the start times of the
        attempted steps of one ``ode_solve``."""
        evals, starts = [], []
        step = numeric._dp_step
        monkeypatch.setattr(numeric, "_dp_step", lambda *a: starts.append(a[1]) or step(*a))
        out = ode_solve(lambda t, y: evals.append(t) or field(t, y), np.array([1.0]), t_grid)
        return out, len(evals), starts

    def test_field_evaluations(self, monkeypatch):
        # the last stage is the next first one and a rejected step keeps its
        # first stage: 6 evaluations a step, plus f(x0) and the starting-step
        # probe.  Over [0, 1] the step count is set by the step controller, so
        # the saving is the reused stage plus the ramp-up and the clipped
        # steps: 182 evaluations against 210 when every step evaluated 7
        # stages from a start at 1e-3 of the span
        _, evals, starts = self._counted(monkeypatch, lambda t, y: -y, np.linspace(0.0, 1.0, 5))
        assert evals == 6 * len(starts) + 2
        assert evals <= 0.87 * 210
        # a short flow, as a probe flow is, was all ramp-up: 42 evaluations
        _, evals, starts = self._counted(monkeypatch, lambda t, y: -y, [0.0, 2e-3])
        assert evals == 6 * len(starts) + 2
        assert evals <= 0.7 * 42
        # rejected steps (a step that starts where the last one did) cost 6 too
        _, evals, starts = self._counted(monkeypatch, lambda t, y: y * np.sin(30 * t),
                                         np.linspace(0.0, 1.0, 5))
        assert len(set(starts)) < len(starts)
        assert evals == 6 * len(starts) + 2

    @pytest.mark.parametrize("lam", [-0.5 + 2.0j, 1.5j, 0.4 - 3.0j])
    def test_complex_linear_matches_exponential(self, lam):
        # tol.ode bounds each step's relative error; over t the relative
        # error may grow with the phase |lam| t swept (1.2e-10 at lam t = 6.1)
        ts = np.linspace(0.0, 2.0, 7)
        out = ode_solve(lambda t, y: lam * y, np.array([1.0 + 0.5j]), ts)
        exact = (1.0 + 0.5j) * np.exp(lam * ts)
        bound = DEFAULT.ode * np.maximum(1.0, abs(lam) * ts) * np.abs(exact)
        assert np.all(np.abs(out[:, 0] - exact) <= bound)

    def test_output_grid_independence(self):
        # resuming the step after an output time keeps the dense grid on the
        # coarse grid's accuracy
        coarse = ode_solve(lambda t, y: -y, np.array([1.0]), [0.0, 1.0])
        dense = ode_solve(lambda t, y: -y, np.array([1.0]), np.linspace(0.0, 1.0, 9))
        assert abs(coarse[-1, 0] - dense[-1, 0]) <= 10 * DEFAULT.ode

    def test_zero_field_evaluations(self, monkeypatch):
        # a Casimir's flow: the field is zero and the step grows from 1e-3 of
        # the span, never below it; 42 evaluations when the stages were not reused
        out, evals, _ = self._counted(monkeypatch, lambda t, y: 0.0 * y, [0.0, 1.0])
        assert np.array_equal(out[-1], [1.0])
        assert evals <= 42

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

    @pytest.mark.parametrize("t_grid", [[0.0, np.nan], [0.0, np.inf], [np.nan, 1.0],
                                        [0.0, 0.5, np.nan]])
    def test_non_finite_grid_rejected(self, t_grid):
        # ``while t < nan`` never steps: every row would be x0
        with pytest.raises(ValueError, match="finite"):
            ode_solve(lambda t, y: -y, np.array([1.0]), t_grid)

    def test_stiff_guard(self):
        def field(t, y):
            return np.array([y[0] ** 2])  # blows up at t = 1

        with pytest.raises(NumericDomainError, match="stiff or singular"):
            ode_solve(field, np.array([1.0]), [0.0, 2.0])

    def test_non_finite_start_rejected(self):
        with pytest.raises(ValueError, match="x0 must be finite"):
            ode_solve(lambda t, y: -y, np.array([1.0, np.inf]), [0.0, 1.0])

    def test_state_leaving_the_finite_range_raises(self):
        # the stages overflow on the first step: the numeric guard, and the
        # overflow and invalid-value warnings stay inside the solver
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericDomainError, match="finite range"):
                ode_solve(lambda t, y: 1e300 * y, np.array([1.0 + 1.0j]), [0.0, 1.0])
