"""Seeded workload inputs and the per-instance pipelines of the benchmark.

Inputs are drawn with numpy alone, never through ``sovkit.random_instance``:
that helper rejection-samples through ``genus``, so a numerics change would
silently change the inputs.  Every pipeline calls sovkit through module
attributes (``rational.flow(...)``) so that the traced run sees the wrappers
``tracing.py`` installs.

A workload is a cycle of shapes; one *round* is one instance of each shape,
and a run executes whole rounds.  Every workload has a fixed pool of
``POOL_ROUNDS`` rounds drawn from its salt alone; the rounds on which the
program fails at the commit the pool was vetted on are listed in
``excluded.json`` (written and re-checked by ``defects.py``) and left out,
and ``--seed`` picks where in the pool a run starts.  Each pipeline returns
the instance's
accuracy headroom, ``log10(gate / residual)`` for its tightest gate, or
raises ``GateMiss`` (residual at or over its gate; it carries the negative
headroom) or ``CountMiss`` (a count identity fails, e.g. an empty divisor)
when an output fails its check.
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from sovkit import elliptic, linearize, rational, theta
from sovkit.errors import MatchingError

# acceptance gates, as in sovkit.acceptance at tol_scale 1
CANONICAL_GATE = 1e-4
DRIFT_GATE = 1e-8
FIT_GATE = 1e-5
SECTION_GATE = 1e-8  # suite_theta's section-root relations
PERIOD_GATE = 1e-8   # assemble_lax's quasi-periodicity probe

EDGE_SAMPLES = 128  # discriminant samples per edge of the period cell

POOL_ROUNDS = 64  # rounds in a workload's pool; a 35 s run completes fewer
EXCLUDED_FILE = Path(__file__).with_name("excluded.json")

FLOW_T = 0.25  # isospectral flows run to this time
LINEARIZE_WINDOW = 0.02  # how far the fastest divisor point moves in the window

TENSOR_CACHE = rational.structure_tensor  # the lru_cache object itself

LINEAR = rational.BracketSpec(a=(1.0,), b=0.0)
QUADRATIC = rational.BracketSpec(a=(0.0,), b=1.0)


class GateMiss(Exception):
    """A residual reached its acceptance gate: a wrong answer.

    ``headroom`` is the (non-positive) headroom of the worst residual, or
    None when that residual is not a finite number.
    """

    def __init__(self, message, headroom):
        super().__init__(message)
        self.headroom = headroom


class CountMiss(Exception):
    """A count identity failed (wrong number of points): a failed instance."""


def _headroom(gate, residual):
    return math.log10(gate / max(float(residual), 1e-300))


def _gated(what, gate, residuals):
    """The headroom of the worst of ``residuals`` under ``gate``; raises
    ``GateMiss`` when any of them is at or over the gate (or not finite)."""
    worst = max(float(res) for res in residuals)
    if not math.isfinite(worst):
        raise GateMiss(f"{what} {worst}", None)
    headroom = _headroom(gate, worst)
    if not headroom > 0.0:
        raise GateMiss(f"{what} {worst:.3e}", headroom)
    return headroom


def _disk_matrices(rng, r, n):
    """Coefficient matrices with entries uniform in the unit disk."""
    radius = np.sqrt(rng.uniform(0.0, 1.0, (n + 1, r, r)))
    angle = rng.uniform(0.0, 2.0 * np.pi, (n + 1, r, r))
    return radius * np.exp(1j * angle)


# ---------------------------------------------------------------------------
# rational_sov: separation under a freshly drawn bracket
# ---------------------------------------------------------------------------

def _draw_rational_sov(rng, shape, phase):
    r, n = shape
    cm = _disk_matrices(rng, r, n)
    deg = int(rng.integers(1, n + 3))  # a(z) of degree <= n + 1
    a = rng.standard_normal(deg) + 1j * rng.standard_normal(deg)
    b = np.array([rng.standard_normal() + 1j * rng.standard_normal()])
    return {"cm": cm, "a": a, "b": b}


def _run_rational_sov(inst, ctx):
    phi = rational.MatPoly(inst["cm"])
    spec = rational.BracketSpec(a=tuple(inst["a"]), b=complex(inst["b"][0]))
    rational.spectral_curve(phi)
    g = rational.genus(phi)
    rational.casimir_detect(phi, spec)
    expected = g + phi.r - 1
    d = rational.divisor_coords(phi)
    if d.count != expected:
        raise CountMiss(f"divisor count {d.count} != g + r - 1 = {expected}")
    rep = rational.verify_canonical(phi, spec)
    if rep.points.count != expected:
        raise CountMiss(f"verified count {rep.points.count} != {expected}")
    return _gated("canonical residual", CANONICAL_GATE, [rep.max_residual])


# ---------------------------------------------------------------------------
# flow_linearize: isospectral flows and Q_i(t) under the fixed brackets
# ---------------------------------------------------------------------------

def _draw_flow_linearize(rng, shape, phase):
    r, n = shape
    # ``pick`` selects the flowed Hamiltonian among those casimir_detect finds
    return {"cm": _disk_matrices(rng, r, n), "pick": np.array([phase])}


def _linearization_window(phi, d, pos, hams, ctx):
    """A tenth of suite_linearization's speed-scaled window, sampled at 5
    times rather than 9, halved on MatchingError (see README.md for why)."""
    probe_dt = 2e-3
    probe = rational.flow(phi, pos, LINEAR, [0.0, probe_dt])
    d_probe = rational.divisor_coords(probe[-1])
    idx = linearize._nearest_permutation(d, d_probe)
    speed = float(np.abs(d_probe.z[idx] - d.z).max()) / probe_dt
    t_max = LINEARIZE_WINDOW / max(speed, 1.0)
    for _ in range(5):
        times = np.linspace(0.0, t_max, 5)
        traj = rational.flow(phi, pos, LINEAR, times)
        try:
            return linearize.linearize(traj, times, LINEAR, hams)
        except MatchingError:
            ctx["window_halvings"] += 1
            t_max /= 2.0
    raise MatchingError("linearization window could not be stabilized")


def _run_flow_linearize(inst, ctx):
    phi = rational.MatPoly(inst["cm"])
    pick = float(inst["pick"][0])
    base = rational.spectral_curve(phi).grid
    scale = max(1.0, float(np.abs(base).max()))
    drift = 0.0
    for spec in (LINEAR, QUADRATIC):
        hams, _ = rational.casimir_detect(phi, spec)
        if not hams:
            raise CountMiss("no Hamiltonians detected")
        pos = hams[int(pick * len(hams))]
        traj = rational.flow(phi, pos, spec, np.linspace(0.0, FLOW_T, 5))
        drift = max(drift, max(
            float(np.abs(rational.spectral_curve(p).grid - base).max())
            for p in traj) / scale)
    drift_headroom = _gated("isospectral drift", DRIFT_GATE, [drift])

    # hams and pos are the linear bracket's (the second loop pass is quadratic)
    hams, _ = rational.casimir_detect(phi, LINEAR)
    j = int(pick * len(hams))
    d = rational.divisor_coords(phi)
    if d.count == 0:
        raise CountMiss("empty divisor")
    res = _linearization_window(phi, d, hams[j], hams, ctx)
    expected = np.zeros(len(hams))
    expected[j] = 1.0
    fit = float(res.fit_residuals.max())
    slope_dev = float(np.abs(res.slopes - expected).max())
    return min(drift_headroom, _gated("linearization fit / slope-identity "
                                      "deviation", FIT_GATE, [fit, slope_dev]))


# ---------------------------------------------------------------------------
# elliptic_spectral: assembly, discriminant periodicity and section on the torus
# ---------------------------------------------------------------------------

def _draw_elliptic_spectral(rng, shape, phase):
    r, n = shape
    tau = rng.uniform(-0.3, 0.3) + 1j * rng.uniform(0.9, 1.4)
    u = rng.uniform(0.0, 1.0, n)
    v = rng.uniform(0.0, 1.0, n)
    poles = (u + v * tau) / r  # uniform in the (1/r, tau/r) cell
    coeffs = rng.standard_normal((r, r, n)) + 1j * rng.standard_normal((r, r, n))
    return {"tau": np.array([tau]), "poles": poles, "coeffs": coeffs}


def _run_elliptic_spectral(inst, ctx):
    coeffs = inst["coeffs"]
    r, _, n = coeffs.shape
    params = theta.ThetaParams(tau=complex(inst["tau"][0]), r=r)
    div = elliptic.EllipticDivisor(points=tuple(inst["poles"]), mults=(1,) * n)
    basis = elliptic.build_basis(div, params)
    table = {(a, b): coeffs[a, b] for a in range(r) for b in range(r)}
    lax = elliptic.assemble_lax(table, div, params, z0=0.0, basis=basis)

    # the discriminant of the spectral curve is an elliptic function: sampled
    # on the boundary of a period cell (the contour of the argument principle,
    # at count_zeros_in_domain's offset), opposite edges must agree
    t1, t2 = elliptic.spectral_invariants(lax)

    def disc(z):
        return t1(z) ** 2 - 4.0 * t2(z)

    w1, w2 = params.omega1, params.omega2
    origin = 0.013 * w1 + 0.017 * w2
    steps = np.arange(EDGE_SAMPLES) / EDGE_SAMPLES
    periods = []
    for edge, shift in ((w1, w2), (w2, w1)):
        near = np.array([disc(origin + t * edge) for t in steps])
        far = np.array([disc(origin + t * edge + shift) for t in steps])
        periods.append(np.abs(far - near).max() / np.abs(near).max())
    period_headroom = _gated("discriminant periodicity residual", PERIOD_GATE,
                             periods)

    # basic section continued across both periods of the cell
    q = params.q_root
    tracker = theta.SectionTracker(params)
    s0 = tracker.value_at(tracker.anchor)
    s1 = tracker.value_at(tracker.anchor + params.omega1)
    horizontal = float(np.abs(s1 / s0 - q ** np.arange(r)).max())
    tracker = theta.SectionTracker(params)
    s0 = tracker.value_at(tracker.anchor)
    s2 = tracker.value_at(tracker.anchor + params.omega2)
    _, I2 = theta.i_matrices(r)
    vertical = float(np.abs(s2 - I2 @ s0).max() / np.abs(s0).max())
    return min(period_headroom, _gated("section multiplier residual",
                                       SECTION_GATE, [horizontal, vertical]))


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_GOLDEN = (5 ** 0.5 - 1) / 2


class Workload:
    """A seeded cycle of shapes and its per-instance pipeline.

    ``fresh_tensors`` empties the ``structure_tensor`` cache before each
    instance (see README.md).
    """

    def __init__(self, name, shapes, draw, run, salt, fresh_tensors=False):
        self.name = name
        self.shapes = shapes
        self._draw = draw
        self.run = run  # run(instance, ctx) -> headroom
        self._salt = salt
        self.fresh_tensors = fresh_tensors

    def pool(self):
        """All ``POOL_ROUNDS`` rounds of the pool, in pool order; every
        instance carries its round's pool ``index``."""
        rng = np.random.default_rng(self._salt)
        # a per-round phase in [0, 1) that a golden-ratio sequence spreads
        # evenly over the rounds: a draw that chooses among a few discrete
        # cases uses it, so that consecutive rounds cover those cases alike
        start = rng.uniform(0.0, 1.0)
        return [[(shape, dict(self._draw(rng, shape, (start + k * _GOLDEN) % 1.0),
                              index=k))
                 for shape in self.shapes]
                for k in range(POOL_ROUNDS)]

    def rounds(self, seed):
        """The pool's rounds less the excluded ones, in pool order from a
        starting round that ``seed`` picks, wrapping around."""
        pool = self.pool()
        excluded = {entry["index"] for entry in
                    json.loads(EXCLUDED_FILE.read_text()).get(self.name, [])}
        start = int(np.random.default_rng([self._salt, seed]).integers(POOL_ROUNDS))
        return [pool[k] for k in np.roll(np.arange(POOL_ROUNDS), -start)
                if k not in excluded]


def inputs_digest(rounds):
    h = hashlib.sha256()
    for rnd in rounds:
        for shape, inst in rnd:
            h.update(repr(shape).encode())
            for key in sorted(inst):
                arr = np.ascontiguousarray(inst[key], dtype=complex)
                h.update(key.encode())
                h.update(repr(arr.shape).encode())
                h.update(arr.tobytes())
    return h.hexdigest()


WORKLOADS = {
    w.name: w for w in (
        Workload("rational_sov", ((2, 2), (2, 3), (3, 1)),
                 _draw_rational_sov, _run_rational_sov, 1, fresh_tensors=True),
        Workload("flow_linearize", ((2, 2), (2, 3), (3, 1)),
                 _draw_flow_linearize, _run_flow_linearize, 2),
        Workload("elliptic_spectral", ((2, 1), (2, 2)),
                 _draw_elliptic_spectral, _run_elliptic_spectral, 3),
    )
}
