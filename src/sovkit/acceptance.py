"""Acceptance suites: the structural claims run as executable checks.

Each suite returns CheckResult records; the runner assembles them into a
deterministic machine-readable report. Suites are independent and may run
in parallel, one worker process each, up to a configured worker count.
"""

import multiprocessing
import platform
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import elliptic as ell
from . import linearize, rational, theta
from .errors import MatchingError, NonGenericError

__all__ = ["COUNT_GATE", "CheckResult", "ExperimentConfig", "GATES", "Report", "SUITES",
           "TAGS", "run_acceptance", "theta_cell"]

RN_COMBOS = ((2, 2), (2, 3), (3, 1), (4, 1))
BRACKETS = {"linear": rational.BracketSpec(a=(1.0,), b=0.0),
            "quadratic": rational.BracketSpec(a=(0.0,), b=1.0)}

# A check's family is its name less its shape, tau and bracket tags
TAGS = re.compile(r"(_(r\d+|n\d+|tau[a-z]|linear|quadratic|mixed))+$")
# The gate of each family at tol_scale 1; a check's tolerance is GATES[family] * tol_scale
GATES = {
    "involution": 1e-6, "jacobi": 1e-10, "isospectral": 1e-8, "lenard": 1e-12, "canonical": 1e-9,
    "slopes": 1e-9, "linearization_fit": 1e-5, "linearization_slopes": 1e-6,
    "linearization_path_independence": 1e-8,
    "theta_zero": 1e-12, "theta_relations": 1e-12, "theta_period": 1e-10, "theta_roots": 1e-8,
    "elliptic_quasiperiodicity": 1e-8, "elliptic_slr": 1e-12, "elliptic_translation_shift": 1e-8,
}
# The gate of a count check, whose residual is 0 (the count holds) or 1; not scaled
COUNT_GATE = 0.5


@dataclass
class CheckResult:
    name: str
    residual: float
    tolerance: float
    passed: bool
    details: dict = field(default_factory=dict)

    @classmethod
    def from_residual(cls, name, residual, tolerance, **details):
        return cls(name=name, residual=float(residual), tolerance=float(tolerance),
                   passed=bool(residual < tolerance), details=details)

    @classmethod
    def gated(cls, name, residual, tol_scale, **details):
        """``from_residual`` at the gate of ``name``'s family times ``tol_scale``."""
        return cls.from_residual(name, residual, GATES[TAGS.sub("", name)] * tol_scale, **details)


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 2024
    suites: tuple = ()
    tol_scale: float = 1.0
    workers: int = 1

    def resolved_suites(self):
        return tuple(self.suites) if self.suites else tuple(SUITES)


def _random_specs(rng, n, count=5):
    specs = []
    for _ in range(count):
        deg = int(rng.integers(1, n + 3))
        a = tuple(rng.standard_normal(deg) + 1j * rng.standard_normal(deg))
        b = complex(rng.standard_normal() + 1j * rng.standard_normal())
        specs.append(rational.BracketSpec(a=a, b=b))
    return specs


def suite_involution(config: ExperimentConfig):
    out = []
    for (r, n) in RN_COMBOS:
        rng = np.random.default_rng(config.seed + 11)
        specs = _random_specs(rng, n)
        worst = 0.0
        for _ in range(20):
            phi = rational.random_instance(r, n, rng)
            for spec in specs:
                worst = max(worst, rational.involution_max_residual(phi, spec))
        out.append(CheckResult.gated(
            f"involution_r{r}_n{n}", worst, config.tol_scale, instances=20, specs=len(specs)))
    return out


def suite_jacobi(config: ExperimentConfig):
    out = []
    for (r, n) in RN_COMBOS:
        rng = np.random.default_rng(config.seed + 23)
        specs = _random_specs(rng, n)
        worst = 0.0
        for spec in specs:
            tensor = rational.structure_tensor(r, n, spec)
            x = rational.MatPoly(rational._random_disk_cm(r, n, rng)).flatten()
            triples = [tuple(rng.integers(0, tensor.dim, 3)) for _ in range(10)]
            worst = max(worst, rational.jacobi_max_residual(tensor, x, triples))
        out.append(CheckResult.gated(
            f"jacobi_r{r}_n{n}", worst, config.tol_scale, triples=10, specs=len(specs)))
    return out


def suite_isospectral(config: ExperimentConfig):
    # each distinct field flows once: a quadratic C_{k,l} flows the linear C_{k-1,l}'s field
    # (Lenard); the lenard checks test that and Pi_z grad C_{k,l} = Pi_lin grad C_{k,l-1}
    out, lenard_specs = [], (*BRACKETS.values(), rational.BracketSpec(a=(0.0, 1.0), b=0.0))
    for (r, n) in RN_COMBOS:
        rng = np.random.default_rng(config.seed + 37)
        drifts, lenard = [], 0.0
        for _ in range(2):
            phi = rational.random_instance(r, n, rng)
            base = rational.spectral_curve(phi).grid
            for pos in rational.casimir_detect(phi, BRACKETS["linear"])[0]:
                traj = rational.flow(phi, pos, BRACKETS["linear"], np.linspace(0.0, 1.0, 5))
                drifts.append(max(np.abs(rational.spectral_curve(p).grid - base).max()
                                  for p in traj) / max(1.0, np.abs(base).max()))
            positions, G = rational.spectral_gradient_matrix(phi)
            lin, quad, z = (G @ rational._poisson(phi, spec) for spec in lenard_specs)
            rows = dict(zip(positions, lin))  # C_{k,l}'s linear field, 0 off the positions
            lenard = max(lenard, *(np.abs(F[i] - rows.get((k - dk, l - dl), 0.0)).max()
                                   / np.abs(lin).max() for F, dk, dl in ((quad, 1, 0), (z, 0, 1))
                                   for i, (k, l) in enumerate(positions)))
        out += [CheckResult.gated(f"isospectral_r{r}_n{n}", max(drifts), config.tol_scale,
                                  flows=len(drifts)),
                CheckResult.gated(f"lenard_r{r}_n{n}", lenard, config.tol_scale, instances=2)]
    return out


def suite_canonical(config: ExperimentConfig):
    out = []
    rng = np.random.default_rng(config.seed + 41)
    a_rand = tuple(rng.standard_normal(3) + 1j * rng.standard_normal(3))
    b_rand = complex(rng.standard_normal() + 1j * rng.standard_normal())
    brackets = {**BRACKETS, "mixed": rational.BracketSpec(a=a_rand, b=b_rand)}
    for n in (2, 3):
        phi = rational.random_instance(2, n, rng)
        for label, spec in brackets.items():
            rep = rational.verify_canonical(phi, spec)
            out.append(CheckResult.gated(f"canonical_n{n}_{label}", rep.max_residual,
                                         config.tol_scale, points=rep.points.count))
    return out


def _linearization_instance(rng):
    """Generic r = 2, n = 3 instance whose divisor points clear the branch
    points, so the straight-line quadrature paths satisfy the
    branch-avoidance precondition; up to 40 draws."""
    for _ in range(40):
        phi = rational.random_instance(2, 3, rng)
        curve = rational.spectral_curve(phi)
        bps, _ = rational.branch_points(curve)
        d = rational.divisor_coords(phi)
        gap = np.min(np.abs(d.z[:, None] - bps[None, :]))
        if gap > 0.15:
            return phi, curve, bps, d
    raise NonGenericError("could not draw a linearization instance")


def _triangle_contains(a, b, c, p):
    cross = [(np.conj(v - u) * (p - u)).imag for u, v in ((a, b), (b, c), (c, a))]
    return all(s >= 0 for s in cross) or all(s <= 0 for s in cross)


def suite_linearization(config: ExperimentConfig):
    out = []
    # the slope identity dQ_i/dt_j = delta_ij in closed form, on every shape
    for (r, n) in RN_COMBOS:
        rng = np.random.default_rng(config.seed + 59)
        phis = [rational.random_instance(r, n, rng) for _ in range(5)]
        for label, spec in BRACKETS.items():
            worst = 0.0
            for phi in phis:
                hams, S = linearize.slope_matrix(phi, spec)
                worst = max(worst, float(np.abs(S - np.eye(len(hams))).max()))
            out.append(CheckResult.gated(
                f"slopes_r{r}_n{n}_{label}", worst, config.tol_scale,
                instances=len(phis), hamiltonians=len(hams)))

    rng = np.random.default_rng(config.seed + 53)
    spec = BRACKETS["linear"]
    phi, curve, bps, d = _linearization_instance(rng)
    hams, S = linearize.slope_matrix(phi, spec)
    worst_fit = slope_dev = 0.0
    for j, flow_pos in enumerate(hams):
        # keep every divisor hop well inside one matching patch: scale the
        # time window by the measured divisor speed of this flow, backing off
        # further whenever a hop still exceeds its branch clearance
        probe_dt = 2e-3
        probe = rational.flow(phi, flow_pos, spec, [0.0, probe_dt])
        d_probe = rational.divisor_coords(probe[-1])
        idx = linearize._nearest_permutation(d, d_probe)
        speed = float(np.abs(d_probe.z[idx] - d.z).max()) / probe_dt
        t_max = min(0.3, 0.2 / max(speed, 1.0))
        for _ in range(5):
            times = np.linspace(0.0, t_max, 9)
            traj = rational.flow(phi, flow_pos, spec, times)
            try:
                res = linearize.linearize(traj, times, spec, hams)
                break
            except MatchingError:
                t_max /= 2.0
        else:
            raise MatchingError("linearization window could not be stabilized")
        worst_fit = max(worst_fit, float(res.fit_residuals.max()))
        slope_dev = max(slope_dev, float(np.abs(res.slopes - S[:, j]).max()))
    out.append(CheckResult.gated(
        "linearization_fit_r2_n3", worst_fit, config.tol_scale, hamiltonians=len(hams)))
    # the path-integral slopes against S at t = 0: a sheet error in the Abel
    # sums fails here instead of fitting a wrong line
    out.append(CheckResult.gated(
        "linearization_slopes_r2_n3", slope_dev, config.tol_scale, hamiltonians=len(hams)))

    # path independence within a branch-free homotopy class: the detour
    # midpoint is chosen so the triangle (z0, mid, ze) contains no branch
    # point, keeping both routes homotopic
    z0 = linearize.pick_base_point(bps)
    integrand = linearize._conjugate_integrand(curve, spec, hams)
    ze, xe = d.z[0], d.xi[0]
    direct = linearize._integrals_to_points(curve, integrand, [z0], [ze], [xe], bps)[0]
    for offset in (0.3j, -0.3j, 0.15j, -0.15j, 0.08j, -0.08j):
        mid = 0.5 * (z0 + ze) + offset * (ze - z0)
        clear = np.min(np.abs(mid - bps)) > 0.12 if bps.size else True
        if clear and not any(_triangle_contains(z0, mid, ze, bp) for bp in bps):
            break
    else:
        mid = 0.5 * (z0 + ze)
    path = linearize.build_path(z0, mid, bps) + linearize.build_path(mid, ze, bps)[1:]
    total, xi_fin = linearize.sheet_integrals(curve, integrand, [path])
    sheet = int(np.argmin(np.abs(xi_fin[0] - xe)))
    detour = total[0, :, sheet]
    out.append(CheckResult.gated(
        "linearization_path_independence", float(np.abs(direct - detour).max()),
        config.tol_scale))
    return out


def suite_genus_counts(config: ExperimentConfig):
    out = []
    for (r, n) in RN_COMBOS:
        rng = np.random.default_rng(config.seed + 67)
        expected_g = r * (r - 1) * n // 2 - r + 1
        genus_ok = True
        counts = []
        for _ in range(20):
            phi = rational.random_instance(r, n, rng)
            genus_ok &= (rational.genus(phi) == expected_g)
            counts.append(rational.divisor_coords(phi).count)
        constant = len(set(counts)) == 1
        out.append(CheckResult.from_residual(
            f"genus_count_r{r}_n{n}", 0.0 if (genus_ok and constant) else 1.0, COUNT_GATE,
            expected_genus=expected_g, divisor_count=counts[0], instances=20))
    return out


def theta_cell(params, seed: int, tol_scale: float = 1.0):
    """The theta battery at one ``(r, tau)``: the theta zero, the translation
    and quasi-periodicity relations of ``theta_kj``/``xi_kj``, the period
    relations of ``f_vector`` and the roots-of-unity action on the section.

    Returns checks named ``theta_zero``, ``theta_relations``, ``theta_period``
    and ``theta_roots`` (at the first 3 of ``theta_period``'s points); points
    are drawn from ``default_rng(seed + 71)``.
    """
    r, tau = params.r, params.tau
    rng = np.random.default_rng(seed + 71)
    out = []

    zero = abs(theta.riemann_theta((1.0 + tau) / 2.0, params))
    out.append(CheckResult.gated("theta_zero", zero, tol_scale))

    worst = 0.0
    for _ in range(5):
        z = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.3, 0.3))
        for k in range(r):
            for j in range(r):
                for fam, shift in (
                        (theta.theta_kj, (k + j * tau) / r),
                        (theta.xi_kj, (2 * k - 1 + (2 * j - 1) * tau) / (2 * r))):
                    v0 = fam(z, k, j, params)
                    sc = max(1.0, abs(v0))
                    worst = max(worst, abs(fam(z + 2.0, k, j, params) - v0) / sc)
                    fac = np.exp(-1j * np.pi * tau - 2j * np.pi * (z + shift))
                    v1 = fam(z + tau, k, j, params)
                    worst = max(worst, abs(v1 - fac * v0) / max(1.0, abs(v1)))
                    if k < r - 1:
                        worst = max(worst, abs(
                            fam(z + 1.0 / r, k, j, params)
                            - fam(z, k + 1, j, params)) / sc)
                    if j < r - 1:
                        worst = max(worst, abs(
                            fam(z + tau / r, k, j, params)
                            - fam(z, k, j + 1, params)) / sc)
        for k in range(r):
            v0 = theta.theta_kj(z, k, 0, params)
            fac = np.exp(-1j * np.pi * tau - 2j * np.pi * (z + k / r))
            v1 = theta.theta_kj(z + tau / r, k, r - 1, params)
            worst = max(worst, abs(v1 - fac * v0) / max(1.0, abs(v1)))
            w0 = theta.xi_kj(z, k, 0, params)
            facx = np.exp(-1j * np.pi * tau
                          - 2j * np.pi * (z + (2 * k - 1 - tau) / (2 * r)))
            w1 = theta.xi_kj(z + tau / r, k, r - 1, params)
            worst = max(worst, abs(w1 - facx * w0) / max(1.0, abs(w1)))
    out.append(CheckResult.gated("theta_relations", worst, tol_scale))

    _, I2 = theta.i_matrices(r)
    worst_p = 0.0
    used = []
    attempts = 0
    while len(used) < 6 and attempts < 40:
        attempts += 1
        z = (rng.uniform(0.02, 0.44) + rng.uniform(0.08, 0.44) * tau) / r
        pts = (z, z + 1.0 / r, z + tau / r)
        if any(theta.puncture_distance(w, params) < 3e-2 for w in pts):
            continue
        F0 = theta.f_vector(z, params)
        F1 = theta.f_vector(z + 1.0 / r, params)
        F2 = theta.f_vector(z + tau / r, params)
        scale = np.abs(F0).max()
        worst_p = max(worst_p, float(np.abs(F1 - F0).max() / scale))
        worst_p = max(worst_p, float(np.abs(F2 - I2 @ F0).max() / scale))
        used.append(z)
    out.append(CheckResult.gated("theta_period", worst_p, tol_scale, points=len(used)))

    q, trk, worst_s = params.q_root, theta.SectionTracker(params), 0.0
    for z in used[:3]:  # away from the anchor, where d is calibrated to I2
        s0, s1 = trk.value_at([z, z + 1.0 / r]).T
        t0, s2 = trk.value_at([z, z + tau / r]).T
        worst_s = max(worst_s, np.abs(s1 / s0 - q ** np.arange(r)).max(),
                      np.abs(s2 - I2 @ t0).max() / np.abs(t0).max())
    out.append(CheckResult.gated("theta_roots", worst_s, tol_scale))
    return out


def suite_theta(config: ExperimentConfig):
    out = []
    for r in (2, 3, 4, 5):
        for tau in (1j, 0.2 + 1.1j):
            label = f"r{r}_tau{'i' if tau == 1j else 'c'}"
            cell = theta_cell(theta.ThetaParams(tau=tau, r=r), config.seed,
                              config.tol_scale)
            out.extend(replace(check, name=f"{check.name}_{label}") for check in cell)
    return out


def suite_elliptic(config: ExperimentConfig):
    out = []
    tau = 0.15 + 1.05j
    r = 2
    params = theta.ThetaParams(tau=tau, r=r)
    rng = np.random.default_rng(config.seed + 83)
    I1, I2 = theta.i_matrices(r)
    for n in (1, 2):
        pts = tuple((rng.uniform(0.15, 0.85) + rng.uniform(0.15, 0.85) * tau) / r
                    for _ in range(n))
        div = ell.EllipticDivisor(points=pts, mults=(1,) * n)
        coeffs = {(a, b): rng.standard_normal(n) + 1j * rng.standard_normal(n)
                  for a in range(r) for b in range(r)}
        lax = ell.assemble_lax(coeffs, div, params, z0=0.0)
        invariants = ell.spectral_invariants(lax)

        worst_qp = 0.0
        checked = 0
        while checked < 5:
            lam = (rng.uniform(0.05, 0.95) + rng.uniform(0.05, 0.95) * tau) / r
            if min(abs(complex(lam) - p) for p in lax.divisor.points) < 5e-2:
                continue
            base = lax(lam)
            mag = max(1.0, float(np.abs(base).max()))
            r1 = np.abs(lax(lam + params.omega1) - I1 @ base @ np.linalg.inv(I1)).max()
            r2 = np.abs(lax(lam + params.omega2) - I2 @ base @ np.linalg.inv(I2)).max()
            worst_qp = max(worst_qp, float(max(r1, r2) / mag))
            for t in invariants:
                tv = t(lam)
                sc = max(1.0, abs(tv))
                worst_qp = max(worst_qp, abs(t(lam + params.omega1) - tv) / sc,
                               abs(t(lam + params.omega2) - tv) / sc)
            checked += 1
        out.append(CheckResult.gated(
            f"elliptic_quasiperiodicity_n{n}", worst_qp, config.tol_scale))

        rep = ell.elliptic_divisor_coords(lax, full_report=True)
        count_ok = rep.validated_count == rep.genus_prediction
        out.append(CheckResult.from_residual(
            f"elliptic_count_n{n}", 0.0 if count_ok else 1.0, COUNT_GATE,
            validated=rep.validated_count, branch_points=rep.branch_count,
            genus_prediction=rep.genus_prediction))

        red = ell.slr_reduce(rep.points)
        slr_resid = max(abs(sum(p.z for p in red)),
                        abs(np.prod([p.xi for p in red]) - 1.0))
        out.append(CheckResult.gated(f"elliptic_slr_n{n}", slr_resid, config.tol_scale))

        if n == 1:
            z0 = 0.21 + 0.05j
            lax2 = ell.assemble_lax(coeffs, div, params, z0=z0)
            rep2 = ell.elliptic_divisor_coords(lax2, full_report=True)
            za = sorted((ell.reduce_to_domain(p.z + z0, params) for p in rep2.points),
                        key=lambda w: (round(w.real, 8), round(w.imag, 8)))
            zb = sorted((ell.reduce_to_domain(p.z, params) for p in rep.points),
                        key=lambda w: (round(w.real, 8), round(w.imag, 8)))
            shift_dev = max(abs(a - b) for a, b in zip(za, zb)) if za else 0.0
            out.append(CheckResult.gated(
                "elliptic_translation_shift", shift_dev, config.tol_scale))
    return out


SUITES = {
    "involution": suite_involution,
    "jacobi": suite_jacobi,
    "isospectral": suite_isospectral,
    "canonical": suite_canonical,
    "linearization": suite_linearization,
    "genus_counts": suite_genus_counts,
    "theta": suite_theta,
    "elliptic": suite_elliptic,
}


@dataclass
class Report:
    records: list
    config: ExperimentConfig
    passed: bool

    def to_dict(self):
        return {
            "overall_passed": self.passed,
            "config": {
                "seed": self.config.seed,
                "suites": list(self.config.resolved_suites()),
                "tol_scale": self.config.tol_scale,
                "workers": self.config.workers,
            },
            "environment": {
                "python": sys.version.split()[0],
                "platform": platform.system(),
            },
            "checks": [
                {
                    "name": c.name,
                    "residual": c.residual,
                    "tolerance": c.tolerance,
                    "passed": c.passed,
                    "details": _jsonable(c.details),
                }
                for c in self.records
            ],
        }

    def summary_lines(self):
        lines = []
        for c in self.records:
            status = "PASS" if c.passed else "FAIL"
            lines.append(f"{status} {c.name}: residual {c.residual:.3e} "
                         f"(tolerance {c.tolerance:.1e})")
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return lines


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    return obj


def run_acceptance(config: ExperimentConfig) -> Report:
    names = config.resolved_suites()
    unknown = [s for s in names if s not in SUITES]
    if unknown:
        raise ValueError(f"unknown suites: {unknown}")
    records = []
    if config.workers > 1:
        # spawned, not forked: a forked child inherits the parent's threads' locks
        with ProcessPoolExecutor(max_workers=config.workers,
                                 mp_context=multiprocessing.get_context("spawn")) as pool:
            futures = [pool.submit(SUITES[s], config) for s in names]
            for fut in futures:
                records.extend(fut.result())
    else:
        for s in names:
            records.extend(SUITES[s](config))
    records.sort(key=lambda c: c.name)
    return Report(records=records, config=config,
                  passed=all(c.passed for c in records))
