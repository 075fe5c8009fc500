"""The program's failures that the benchmark's workloads leave out.

    python3 perfbench/defects.py           # re-run them, report which remain
    python3 perfbench/defects.py --vet     # re-vet every pool, rewrite excluded.json

Run from the root of a checkout.  No timed instance may fail, so the
benchmark steers around the seed commit's failures in two ways (see
README.md):

* Two steps that fail on many draws are replaced.  ``count_zeros_in_domain``
  miscounts the branch points (the zeros of the discriminant, 2n of them)
  of about one n=2 ``elliptic_spectral`` draw in three; linearizing over
  ``suite_linearization``'s full window at 9 samples fails on about one
  ``flow_linearize`` draw in twenty (``ode_solve`` reports a stiff flow on
  a round-off remainder, or ``linearize`` returns wrong slopes without an
  error).  The default run repeats both steps on the first pool rounds.
* The pool rounds on which the workloads' own pipelines fail are listed in
  ``excluded.json`` and left out of every run.  The default run re-runs
  them; ``--vet`` runs every pool round again and rewrites the list.
"""

import json
import sys
import warnings

import numpy as np

import run  # pins the BLAS threads before numpy is used

run.import_sovkit()

import workloads  # noqa: E402
from sovkit import elliptic, linearize, rational, theta  # noqa: E402

SURVEY_ROUNDS = 16  # pool rounds the replaced steps are repeated on


def vet(names):
    """Run every pool round of ``names`` and rewrite their excluded lists."""
    table = json.loads(workloads.EXCLUDED_FILE.read_text())
    for name in names:
        wl = workloads.WORKLOADS[name]
        table[name] = []
        for rnd in wl.pool():
            for shape, inst in rnd:
                rec = run.run_instance(wl, inst, run.BUDGET_S)
                if rec["status"] != "ok":
                    table[name].append({"index": inst["index"], "shape": list(shape),
                                        "status": rec["status"], "note": rec["note"]})
        print(f"{name}: {len(table[name])} of {workloads.POOL_ROUNDS} pool rounds "
              f"fail")
    workloads.EXCLUDED_FILE.write_text(json.dumps(table, indent=1) + "\n")


def rerun_excluded():
    """Re-run every excluded instance; return how many still fail."""
    failing = 0
    for name, entries in json.loads(workloads.EXCLUDED_FILE.read_text()).items():
        wl = workloads.WORKLOADS[name]
        pool = wl.pool()
        for entry in entries:
            inst = dict(pool[entry["index"]])[tuple(entry["shape"])]
            rec = run.run_instance(wl, inst, run.BUDGET_S)
            failing += rec["status"] != "ok"
            print(f"{'still fails' if rec['status'] != 'ok' else 'passes':11}  {name} "
                  f"round {entry['index']} {tuple(entry['shape'])}: {rec['status']} "
                  f"{rec['note']}")
    return failing


def branch_count(inst):
    coeffs = inst["coeffs"]
    r, _, n = coeffs.shape
    params = theta.ThetaParams(tau=complex(inst["tau"][0]), r=r)
    div = elliptic.EllipticDivisor(points=tuple(inst["poles"]), mults=(1,) * n)
    table = {(a, b): coeffs[a, b] for a in range(r) for b in range(r)}
    lax = elliptic.assemble_lax(table, div, params, z0=0.0)
    t1, t2 = elliptic.spectral_invariants(lax)
    origin = 0.013 * params.omega1 + 0.017 * params.omega2
    poles = [elliptic.reduce_to_domain(p, params, origin) for p in lax.divisor.points]
    count = elliptic.count_zeros_in_domain(
        lambda z: t1(z) ** 2 - 4.0 * t2(z), params, poles, origin)
    return count == 2 * n


def full_window(inst):
    """suite_linearization's window and sampling on one draw; True when it
    passes its gates."""
    phi = rational.MatPoly(inst["cm"])
    hams, _ = rational.casimir_detect(phi, workloads.LINEAR)
    j = int(float(inst["pick"][0]) * len(hams))
    d = rational.divisor_coords(phi)
    probe = rational.flow(phi, hams[j], workloads.LINEAR, [0.0, 2e-3])
    d_probe = rational.divisor_coords(probe[-1])
    idx = linearize._nearest_permutation(d, d_probe)
    speed = float(np.abs(d_probe.z[idx] - d.z).max()) / 2e-3
    t_max = min(0.3, 0.2 / max(speed, 1.0))
    for _ in range(5):
        times = np.linspace(0.0, t_max, 9)
        try:
            traj = rational.flow(phi, hams[j], workloads.LINEAR, times)
            res = linearize.linearize(traj, times, workloads.LINEAR, hams)
        except workloads.MatchingError:
            t_max /= 2.0
            continue
        except Exception:
            return False
        expected = np.zeros(len(hams))
        expected[j] = 1.0
        return max(float(res.fit_residuals.max()),
                   float(np.abs(res.slopes - expected).max())) < workloads.FIT_GATE
    return False


def replaced_steps():
    """Repeat the replaced steps on the first pool rounds; return how many
    of those instances fail them."""
    failing = 0
    for name, step in (("elliptic_spectral", branch_count),
                       ("flow_linearize", full_window)):
        draws = [inst for rnd in workloads.WORKLOADS[name].pool()[:SURVEY_ROUNDS]
                 for shape, inst in rnd if name != "elliptic_spectral" or shape == (2, 2)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fails = [inst["index"] for inst in draws if not step(inst)]
        failing += len(fails)
        print(f"{name}: {step.__name__} fails {len(fails)} of {len(draws)} draws "
              f"(pool rounds {fails})")
    return failing


def main(argv):
    if argv[:1] == ["--vet"]:
        vet(argv[1:] or list(workloads.WORKLOADS))
        return 0
    still = rerun_excluded()
    replaced = replaced_steps()
    print(f"{still} excluded instances still fail; the replaced steps fail "
          f"{replaced} draws")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
