"""Command-line surface.

Subcommands: spectral, sov, flow, theta, elliptic, accept.
Exit codes: 0 ok, 1 acceptance failure, 2 schema error, 3 non-generic
instance, 4 numeric-domain guard.
"""

import argparse
import datetime
import json
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from . import documents as docs
from . import elliptic as ell
from . import linearize, rational, theta
from .acceptance import ExperimentConfig, run_acceptance
from .errors import (ConsistencyError, ConvergenceError, MatchingError,
                     NonGenericError, NumericDomainError, SchemaError)
from .tolerances import DEFAULT

EXIT_OK = 0
EXIT_ACCEPT_FAIL = 1
EXIT_SCHEMA = 2
EXIT_NON_GENERIC = 3
EXIT_NUMERIC_GUARD = 4

OUT_ENV = "SOVKIT_OUT"


def _out_dir(args) -> Path:
    out = args.out or os.environ.get(OUT_ENV) or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_bracket_arg(value):
    if value is None:
        return rational.BracketSpec(a=(1.0,), b=0.0)
    return docs.load_bracket(value)


def _write_json(path: Path, payload: dict):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def cmd_spectral(args) -> int:
    phi = docs.load_lax(args.input)
    spec = _load_bracket_arg(args.bracket)
    tol = DEFAULT.scaled(args.tol_scale)
    curve = rational.spectral_curve(phi)
    try:
        g = rational.genus(phi, tol)
    except NonGenericError as err:
        print(f"non-generic instance: {err}", file=sys.stderr)
        return EXIT_NON_GENERIC
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        hams, cass = rational.casimir_detect(phi, spec, tol, seed=args.seed)
    out = _out_dir(args)
    _write_json(out / "curve.json", docs.dump_curve(curve, g, hams, cass))
    print(f"genus {g}; {len(hams)} Hamiltonians, {len(cass)} Casimirs; "
          f"wrote {out / 'curve.json'}")
    return EXIT_OK


def cmd_sov(args) -> int:
    phi = docs.load_lax(args.input)
    spec = _load_bracket_arg(args.bracket)
    tol = DEFAULT.scaled(args.tol_scale)
    out = _out_dir(args)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        probe = rational.divisor_coords(phi, tol=tol, seed=args.seed)
    if probe.count == 0:
        docs.write_csv(out / "divisor.csv",
                       ["mu", "z_re", "z_im", "xi_re", "xi_im"], [])
        _write_json(out / "sov_report.json",
                    {"count": 0, "degenerate": False, "diag_target": [],
                     "max_zxi_residual": 0.0, "max_zz_residual": 0.0,
                     "max_xixi_residual": 0.0})
        print("empty divisor; nothing to verify")
        return EXIT_OK
    report = rational.verify_canonical(phi, spec, tol=tol, seed=args.seed)
    pts = report.points
    rows = [(mu, pts.z[mu].real, pts.z[mu].imag, pts.xi[mu].real, pts.xi[mu].imag)
            for mu in range(pts.count)]
    docs.write_csv(out / "divisor.csv",
                   ["mu", "z_re", "z_im", "xi_re", "xi_im"], rows)
    payload = {
        "count": pts.count,
        "degenerate": pts.degenerate,
        "diag_target": [docs.complex_to_pair(t) for t in report.target_diag],
        "max_zxi_residual": report.max_zxi_residual,
        "max_zz_residual": report.max_zz_residual,
        "max_xixi_residual": report.max_xixi_residual,
    }
    _write_json(out / "sov_report.json", payload)
    print(f"{pts.count} divisor points; canonical residuals "
          f"zxi={report.max_zxi_residual:.3e} zz={report.max_zz_residual:.3e} "
          f"xixi={report.max_xixi_residual:.3e}")
    return EXIT_OK


def cmd_flow(args) -> int:
    phi = docs.load_lax(args.input)
    spec = _load_bracket_arg(args.bracket)
    try:
        k_str, l_str = args.hamiltonian.split(",")
        pos = (int(k_str), int(l_str))
    except ValueError:
        raise SchemaError('flag --hamiltonian must be "k,l"') from None
    tol = DEFAULT.scaled(args.tol_scale)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        hams, cass = rational.casimir_detect(phi, spec, tol, seed=args.seed)
    times = np.linspace(0.0, args.t_max, args.samples)
    traj = rational.flow(phi, pos, spec, times, tol)
    base = rational.spectral_curve(traj[0]).grid
    scale = max(1.0, float(np.abs(base).max()))
    drift = [float(np.abs(rational.spectral_curve(p).grid - base).max()) / scale
             for p in traj]
    out = _out_dir(args)
    if pos in cass:
        rows = [(t, d) for t, d in zip(times, drift)]
        docs.write_csv(out / "flow.csv", ["t", "spectral_drift"], rows)
        payload = {"hamiltonian": list(pos), "casimir": True,
                   "max_drift": max(drift)}
    else:
        res = linearize.linearize(traj, times, spec, hams, tol=tol)
        header = ["t", "spectral_drift"]
        for (k, l) in hams:
            header += [f"q_{k}_{l}_re", f"q_{k}_{l}_im", f"fit_residual_{k}_{l}"]
        rows = []
        for col, (t, d) in enumerate(zip(times, drift)):
            row = [t, d]
            for i in range(len(hams)):
                row += [res.q_table[i, col].real, res.q_table[i, col].imag,
                        res.fit_residuals[i]]
            rows.append(row)
        docs.write_csv(out / "flow.csv", header, rows)
        payload = {
            "hamiltonian": list(pos), "casimir": False,
            "max_drift": max(drift),
            "fit_residuals": {f"{k},{l}": float(r)
                              for (k, l), r in zip(hams, res.fit_residuals)},
            "slopes": {f"{k},{l}": docs.complex_to_pair(s)
                       for (k, l), s in zip(hams, res.slopes)},
        }
    _write_json(out / "flow_report.json", payload)
    print(f"flow of H{pos}: max spectral drift {max(drift):.3e}; "
          f"wrote {out / 'flow.csv'}")
    return EXIT_OK


def cmd_theta(args) -> int:
    tau = complex(args.tau_re, args.tau_im)
    params = theta.ThetaParams(tau=tau, r=args.rank)
    rows = []
    # run only the requested (r, tau) cell of the theta battery
    rng = np.random.default_rng(args.seed)
    zero = abs(theta.riemann_theta((1.0 + tau) / 2.0, params))
    rows.append(("theta_zero", zero, 1e-12 * args.tol_scale))
    worst = 0.0
    for _ in range(5):
        z = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.3, 0.3))
        for k in range(params.r):
            for j in range(params.r):
                for fam in (theta.theta_kj, theta.xi_kj):
                    v0 = fam(z, k, j, params)
                    sc = max(1.0, abs(v0))
                    worst = max(worst, abs(fam(z + 1.0, k, j, params) - v0) / sc)
    rows.append(("translation_relations", worst, 1e-12 * args.tol_scale))
    I1, I2 = theta.i_matrices(params.r)
    worst_p = 0.0
    used = 0
    while used < 4:
        z = (rng.uniform(0.02, 0.44) + rng.uniform(0.08, 0.44) * tau) / params.r
        if any(theta.puncture_distance(w, params) < 3e-2
               for w in (z, z + 1.0 / params.r, z + tau / params.r)):
            continue
        F0 = theta.f_vector(z, params)
        scale = np.abs(F0).max()
        worst_p = max(worst_p,
                      float(np.abs(theta.f_vector(z + 1.0 / params.r, params) - F0).max() / scale),
                      float(np.abs(theta.f_vector(z + tau / params.r, params) - I2 @ F0).max() / scale))
        used += 1
    rows.append(("period_relations", worst_p, 1e-10 * args.tol_scale))
    trk = theta.SectionTracker(params)
    s0 = trk.value_at(trk.anchor)
    s1 = trk.value_at(trk.anchor + 1.0 / params.r)
    hor = float(np.abs(s1 / s0 - params.q_root ** np.arange(params.r)).max())
    rows.append(("roots_relations", hor, 1e-8 * args.tol_scale))

    out = _out_dir(args)
    docs.write_csv(out / "theta_report.csv",
                   ["relation", "residual", "tolerance"],
                   [(name, res, tolv) for name, res, tolv in rows])
    ok = all(res < tolv for _, res, tolv in rows)
    for name, res, tolv in rows:
        print(f"{'PASS' if res < tolv else 'FAIL'} {name}: {res:.3e} < {tolv:.1e}")
    return EXIT_OK if ok else EXIT_ACCEPT_FAIL


def cmd_elliptic(args) -> int:
    params, divisor, coeffs, z0 = docs.load_elliptic(args.input)
    tol = DEFAULT.scaled(args.tol_scale)
    lax = ell.assemble_lax(coeffs, divisor, params, z0=z0, tol=tol)
    rep = ell.elliptic_divisor_coords(lax, tol=tol, full_report=True)
    out = _out_dir(args)
    rows = [(i, p.z.real, p.z.imag, p.xi.real, p.xi.imag, p.sheet)
            for i, p in enumerate(rep.points)]
    docs.write_csv(out / "elliptic_divisor.csv",
                   ["mu", "z_re", "z_im", "xi_re", "xi_im", "sheet"], rows)
    payload = {
        "validated_count": rep.validated_count,
        "component_only_count": rep.component_only_count,
        "winding_count": rep.winding_count,
        "branch_points": rep.branch_count,
        "genus_prediction": rep.genus_prediction,
    }
    _write_json(out / "elliptic_report.json", payload)
    print(f"{rep.validated_count} divisor points (genus prediction "
          f"{rep.genus_prediction}); wrote {out / 'elliptic_divisor.csv'}")
    return EXIT_OK


def cmd_accept(args) -> int:
    suites = tuple(s.strip() for s in args.suites.split(",")) if args.suites else ()
    config = ExperimentConfig(seed=args.seed, suites=suites,
                              tol_scale=args.tol_scale, workers=args.workers)
    report = run_acceptance(config)
    out = _out_dir(args)
    payload = report.to_dict()
    payload["generated_at"] = datetime.datetime.now(
        datetime.timezone.utc).isoformat()
    _write_json(out / "acceptance_report.json", payload)
    summary = "\n".join(report.summary_lines())
    (out / "acceptance_summary.txt").write_text(summary + "\n")
    print(summary)
    if not report.passed:
        failing = [c.name for c in report.records if not c.passed]
        print(f"failing checks: {', '.join(failing)}", file=sys.stderr)
        return EXIT_ACCEPT_FAIL
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sovkit",
        description="Separation-of-variables engine for spectral-curve systems")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input=True):
        if needs_input:
            p.add_argument("--input", required=True, help="instance document (JSON)")
        p.add_argument("--seed", type=int, default=2024)
        p.add_argument("--tol-scale", type=float, default=1.0, dest="tol_scale")
        p.add_argument("--out", default=None, help=f"output dir (or ${OUT_ENV})")

    p = sub.add_parser("spectral", help="spectral curve, genus, coefficient split")
    common(p)
    p.add_argument("--bracket", default=None, help="bracket document (JSON)")
    p.set_defaults(func=cmd_spectral)

    p = sub.add_parser("sov", help="divisor coordinates and canonical residuals")
    common(p)
    p.add_argument("--bracket", default=None)
    p.set_defaults(func=cmd_sov)

    p = sub.add_parser("flow", help="Hamiltonian flow with linearizing coordinates")
    common(p)
    p.add_argument("--bracket", default=None)
    p.add_argument("--hamiltonian", required=True, help='grid position "k,l"')
    p.add_argument("--t-max", type=float, default=0.3, dest="t_max")
    p.add_argument("--samples", type=int, default=9)
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("theta", help="theta relations battery")
    common(p, needs_input=False)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--tau-re", type=float, default=0.0, dest="tau_re")
    p.add_argument("--tau-im", type=float, required=True, dest="tau_im")
    p.set_defaults(func=cmd_theta)

    p = sub.add_parser("elliptic", help="elliptic instance pipeline")
    common(p)
    p.set_defaults(func=cmd_elliptic)

    p = sub.add_parser("accept", help="run the acceptance matrix")
    common(p, needs_input=False)
    p.add_argument("--suites", default=None,
                   help="comma-separated suite names (default: all)")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_accept)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_SCHEMA if err.code not in (0, None) else 0
    try:
        return args.func(args)
    except (SchemaError, ValueError) as err:
        print(f"schema error: {err}", file=sys.stderr)
        return EXIT_SCHEMA
    except NonGenericError as err:
        print(f"non-generic instance: {err}", file=sys.stderr)
        return EXIT_NON_GENERIC
    except (NumericDomainError, ConsistencyError, MatchingError, ConvergenceError) as err:
        print(f"numeric guard: {err}", file=sys.stderr)
        return EXIT_NUMERIC_GUARD


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
