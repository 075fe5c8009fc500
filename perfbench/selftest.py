"""Self-test of the benchmark itself; run from the root of a checkout:

    python3 perfbench/selftest.py

It checks that

* a tiny per-instance budget becomes a counted failure, not a crash, the
  alarm is disarmed afterwards, and a run whose instances all fail is not
  ``correct``;
* the traced run reports every per-layer metric, each metric is non-zero on
  the workload that should exercise it, and the bypass predictions hold
  (no theta work on the rational workloads, no ODE work off
  ``flow_linearize``, no resultant on the elliptic workload, at most one
  tensor build per bracket and shape on ``flow_linearize``);
* the divisor-extraction spans, which no workload drives (see README.md),
  still record calls;
* the tracer puts every patched attribute back.

About two minutes on one core.  Exits non-zero on the first failed check.
"""

import math
import signal
import sys

import run  # pins the BLAS threads before numpy is imported

run.import_sovkit()

import workloads  # noqa: E402
import tracing  # noqa: E402
from sovkit import elliptic, theta  # noqa: E402

# metrics that must be non-zero on the named workload ("X.calls" implies
# "X.self_s" where the latter is reported)
EXERCISED = {
    "rational_sov": [
        "kernel.poly_roots.calls", "kernel.resultant.calls",
        "kernel.matpoly_char_adj.calls", "kernel.char_bipoly.calls",
        "rational.structure_tensor.calls", "rational.structure_tensor.miss_ratio",
        "rational.StructureTensor.poisson_matrix.calls",
        "rational.spectral_gradient_matrix.calls", "rational.divisor_coords.calls",
        "rational.divisor_jacobian.self_s", "rational.verify_canonical.self_s",
        "rational.casimir_detect.self_s", "rational.genus.self_s",
        "rational.spectral_curve.self_s", "rational.warnings",
    ],
    "flow_linearize": [
        "kernel.poly_roots.calls", "kernel.matpoly_char_adj.calls",
        "rational.StructureTensor.poisson_matrix.calls",
        "rational.spectral_gradient_matrix.calls", "rational.flow.self_s",
        "numeric.ode_solve.calls", "numeric.ode_solve.field_evals",
        "linearize.linearize.calls", "linearize.sheet_integrals.calls",
    ],
    "elliptic_spectral": [
        "kernel.char_bipoly.calls", "theta.riemann_theta.calls",
        "theta.f_component.calls", "theta.SectionTracker.value_at.calls",
        "elliptic.EllipticLax.__call__.calls", "elliptic.build_basis.self_s",
        "elliptic.assemble_lax.self_s",
    ],
}

THETA_CALLS = ["theta.riemann_theta.calls", "theta.f_component.calls",
               "theta.SectionTracker.value_at.calls"]
# metrics that must be exactly zero on the named workload
BYPASSED = {
    "rational_sov": THETA_CALLS + ["numeric.ode_solve.calls",
                                   "elliptic.EllipticLax.__call__.calls"],
    "flow_linearize": THETA_CALLS + ["elliptic.EllipticLax.__call__.calls"],
    "elliptic_spectral": ["numeric.ode_solve.calls", "kernel.resultant.calls",
                          "kernel.poly_roots.calls",
                          "rational.structure_tensor.calls"],
}


def check(cond, message):
    if not cond:
        raise SystemExit(f"selftest FAILED: {message}")
    print(f"ok   {message}")


def sovkit_namespaces():
    mods = [m for k, m in sorted(sys.modules.items())
            if k == "sovkit" or k.startswith("sovkit.")]
    owners = mods + [owner for _, owner, _ in tracing.TARGETS if isinstance(owner, type)]
    return {id(o): dict(vars(o)) for o in owners}


def same_namespaces(before, after):
    return all(before[key].keys() == after[key].keys()
               and all(before[key][k] is after[key][k] for k in before[key])
               for key in before)


def test_budget():
    wl = workloads.WORKLOADS["rational_sov"]
    _, inst = wl.rounds(0)[0][-1]  # the (3, 1) draw, about a second of work
    rec = run.run_instance(wl, inst, 0.05)
    check(rec["status"] == "over_budget",
          f"a 0.05 s budget stops an instance as over_budget ({rec['status']})")
    check(signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0),
          "the budget alarm is disarmed after the instance")
    result = run.measure(wl, wl.rounds(0)[:2], 1.0, 0.05,
                         probe=lambda: (0.3, run.REF_S))
    records = result["records"]
    statuses = [rec["status"] for rec in records]
    check(len(records) >= len(wl.shapes)
          and statuses == ["over_budget"] * len(records),
          f"a whole run under a tiny budget counts every instance as "
          f"over_budget ({statuses})")
    check(run.failures(records) == len(records),
          "every such instance is counted as failed, so the run is not correct")
    metrics, _ = run.end_to_end(result, len(wl.shapes))
    check(all(math.isfinite(v) for v, _ in metrics.values()),
          "its end-to-end metrics are still finite")


def test_matrix():
    before = sovkit_namespaces()
    for name, wl in workloads.WORKLOADS.items():
        rounds = wl.rounds(0)[:2]
        _, records, metrics, detail = run.run_traced(wl, rounds, 0.0, run.BUDGET_S)
        values = {k: v for k, (v, _) in metrics.items()}
        check(list(values) == [k for k, _ in tracing.PER_LAYER],
              f"{name}: every per-layer metric is reported")
        check(all(isinstance(v, (int, float)) and math.isfinite(v)
                  for v in values.values()), f"{name}: every value is finite")
        for key in EXERCISED[name]:
            keys = [key]
            if key.endswith(".calls") and key[:-6] + ".self_s" in values:
                keys.append(key[:-6] + ".self_s")
            for k in keys:
                check(values[k] > 0, f"{name}: {k} = {values[k]:.6g} > 0")
        for key in BYPASSED[name]:
            check(values[key] == 0, f"{name}: {key} == 0")
        if name == "flow_linearize":
            misses = detail["structure_tensor_misses"]
            shapes = len({tuple(rec["shape"]) for rec in records})
            check(misses <= 2 * shapes,
                  f"{name}: {misses} structure_tensor builds <= 2 brackets x "
                  f"{shapes} shapes")
    check(same_namespaces(before, sovkit_namespaces()),
          "every patched attribute is restored after the traced runs")


def test_divisor_spans():
    """elliptic_divisor_coords and EllipticLax.deriv are wrapped and counted."""
    inst = workloads.WORKLOADS["elliptic_spectral"].rounds(0)[0][0][1]
    coeffs = inst["coeffs"]
    r, _, n = coeffs.shape
    params = theta.ThetaParams(tau=complex(inst["tau"][0]), r=r)
    div = elliptic.EllipticDivisor(points=tuple(inst["poles"]), mults=(1,) * n)
    table = {(a, b): coeffs[a, b] for a in range(r) for b in range(r)}
    with tracing.Tracer() as tracer:
        lax = elliptic.assemble_lax(table, div, params, z0=0.0)
        elliptic.elliptic_divisor_coords(lax, full_report=True)
    values = tracer.metrics({})
    for key in ("elliptic.elliptic_divisor_coords.calls",
                "elliptic.elliptic_divisor_coords.self_s",
                "elliptic.EllipticLax.deriv.calls", "kernel.adjugate.calls",
                "kernel.adjugate.self_s"):
        check(values[key] > 0, f"divisor extraction: {key} = {values[key]:.6g} > 0")


if __name__ == "__main__":
    test_budget()
    test_matrix()
    test_divisor_spans()
    print("selftest passed")
