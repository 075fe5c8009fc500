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
from pathlib import Path

import numpy as np

from . import documents as docs
from . import elliptic as ell
from . import linearize, rational, theta
from .acceptance import ExperimentConfig, run_acceptance, theta_cell
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


def _number(kind, ok, what):
    """An argparse ``type``: ``kind(text)`` if finite and ``ok``; otherwise the
    parser exits 2 naming ``what``."""
    def parse(text):
        value = kind(text)
        if not (np.isfinite(value) and ok(value)):
            raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
        return value
    parse.__name__ = kind.__name__  # argparse names it when kind(text) fails
    return parse


_positive = _number(float, lambda v: v > 0, "a finite number > 0")


def _write_json(path: Path, payload: dict):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def cmd_spectral(args) -> int:
    phi = docs.load_lax(args.input)
    spec = _load_bracket_arg(args.bracket)
    curve = rational.spectral_curve(phi)
    g = rational.genus(phi, DEFAULT.scaled(args.tol_scale))
    hams, cass = rational.casimir_detect(phi, spec)
    out = _out_dir(args)
    _write_json(out / "curve.json", docs.dump_curve(curve, g, hams, cass))
    print(f"genus {g}; {len(hams)} Hamiltonians, {len(cass)} Casimirs; "
          f"wrote {out / 'curve.json'}")
    return EXIT_OK


def cmd_sov(args) -> int:
    phi = docs.load_lax(args.input)
    spec = _load_bracket_arg(args.bracket)
    if args.section is not None and not 0 <= args.section < phi.r:
        raise SchemaError(f"flag --section must be in 0 .. {phi.r - 1} (r = {phi.r})")
    s = None if args.section is None else np.eye(phi.r)[args.section]
    report = rational.verify_canonical(phi, spec, s=s, tol=DEFAULT.scaled(args.tol_scale))
    pts = report.points
    out = _out_dir(args)
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
    hams, cass = rational.casimir_detect(phi, spec)
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
        rows = [[t, d, *(v for q, fit in zip(res.q_table[:, col], res.fit_residuals)
                         for v in (q.real, q.imag, fit))]
                for col, (t, d) in enumerate(zip(times, drift))]
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


THETA_ROWS = {"theta_zero": "theta_zero", "theta_relations": "translation_relations",
              "theta_period": "period_relations", "theta_roots": "roots_relations"}


def cmd_theta(args) -> int:
    params = theta.ThetaParams(tau=complex(args.tau_re, args.tau_im), r=args.rank)
    # the (r, tau) cell of the acceptance theta battery, under the CLI's row names
    rows = [(THETA_ROWS[c.name], c.residual, c.tolerance)
            for c in theta_cell(params, args.seed, args.tol_scale)]
    out = _out_dir(args)
    docs.write_csv(out / "theta_report.csv", ["relation", "residual", "tolerance"], rows)
    ok = all(res < tolv for _, res, tolv in rows)
    for name, res, tolv in rows:
        print(f"{'PASS' if res < tolv else 'FAIL'} {name}: {res:.3e} < {tolv:.1e}")
    return EXIT_OK if ok else EXIT_ACCEPT_FAIL


def cmd_elliptic(args) -> int:
    params, divisor, coeffs, z0 = docs.load_elliptic(args.input)
    lax = ell.assemble_lax(coeffs, divisor, params, z0=z0)
    rep = ell.elliptic_divisor_coords(lax, tol=DEFAULT.scaled(args.tol_scale),
                                      full_report=True)
    out = _out_dir(args)
    rows = [(i, p.z.real, p.z.imag, p.xi.real, p.xi.imag, p.sheet)
            for i, p in enumerate(rep.points)]
    docs.write_csv(out / "elliptic_divisor.csv",
                   ["mu", "z_re", "z_im", "xi_re", "xi_im", "sheet"], rows)
    payload = {
        "validated_count": rep.validated_count,
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
    tolerances = "every field of Tolerances: root_residual, ode and divisor"
    gates = "every gate of acceptance.GATES; the count checks' COUNT_GATE stays"

    def common(p, scales, needs_input=True):
        if needs_input:
            p.add_argument("--input", required=True, help="instance document (JSON)")
        p.add_argument("--tol-scale", type=_positive, default=1.0, dest="tol_scale",
                       help=f"factor on {scales} (default 1)")
        p.add_argument("--out", default=None, help=f"output dir (or ${OUT_ENV})")

    p = sub.add_parser("spectral", help="spectral curve, genus, coefficient split")
    common(p, tolerances)
    p.add_argument("--bracket", default=None, help="bracket document (JSON)")
    p.set_defaults(func=cmd_spectral)

    p = sub.add_parser("sov", help="divisor coordinates and canonical residuals")
    common(p, tolerances)
    p.add_argument("--bracket", default=None)
    p.add_argument("--section", type=int, default=None, help="divisor section e_K, 0 <= K < r")
    p.set_defaults(func=cmd_sov)

    p = sub.add_parser("flow", help="Hamiltonian flow with linearizing coordinates")
    common(p, tolerances)
    p.add_argument("--bracket", default=None)
    p.add_argument("--hamiltonian", required=True, help='grid position "k,l"')
    p.add_argument("--t-max", type=_positive, default=0.3, dest="t_max")
    p.add_argument("--samples", type=_number(int, lambda v: v >= 3, "an integer >= 3"),
                   default=9)
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("theta", help="theta relations battery")
    common(p, gates, needs_input=False)
    p.add_argument("--rank", type=_number(int, lambda v: v >= 1, "an integer >= 1"), required=True)
    p.add_argument("--tau-re", type=_number(float, lambda v: True, "a finite number"),
                   default=0.0, dest="tau_re")
    p.add_argument("--tau-im", type=_positive, required=True, dest="tau_im")
    p.set_defaults(func=cmd_theta)

    p = sub.add_parser("elliptic", help="elliptic instance pipeline")
    common(p, tolerances)
    p.set_defaults(func=cmd_elliptic)

    p = sub.add_parser("accept", help="run the acceptance matrix")
    common(p, gates, needs_input=False)
    p.add_argument("--suites", default=None,
                   help="comma-separated suite names (default: all)")
    p.add_argument("--workers", type=_number(int, lambda v: v >= 1, "an integer >= 1"),
                   default=1)
    p.set_defaults(func=cmd_accept)
    # only the theta battery and the acceptance draws use random numbers;
    # spectral, sov, flow and elliptic take no seed
    for name in ("theta", "accept"):
        sub.choices[name].add_argument("--seed", type=int, default=2024)
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
