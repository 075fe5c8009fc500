"""Record a benchmark baseline: every workload once untraced and once traced.

    python3 perfbench/baseline.py --seed 1 --seconds 35 --label seed-commit

Run from the root of a checkout.  Writes ``perfbench/baseline.json`` (the
result and detail lines of every run, plus the machine) and
``perfbench/BASELINE.md`` (the end-to-end and per-layer tables).
"""

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def commit():
    proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                          text=True, cwd=ROOT)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _table(baseline, run, names):
    """Rows of one metric table: every metric of ``run`` per workload."""
    def result(name):
        return baseline["workloads"][name][run]["result"]

    rows = ["| metric | unit | " + " | ".join(names) + " |",
            "|---|---|" + "---:|" * len(names)]
    for key, val in result(names[0])["metrics"].items():
        cells = [f"{result(n)['metrics'][key]['value']:.4g}" for n in names]
        rows.append(f"| {key} | {val['unit']} | " + " | ".join(cells) + " |")
    if run == "untraced":
        for label in ("attempted", "failed"):
            cells = [str(result(n)[label]) for n in names]
            rows.append(f"| {label} | count | " + " | ".join(cells) + " |")
    return rows


def render(baseline):
    names = list(baseline["workloads"])
    env = baseline["environment"]
    return "\n".join(
        [f"# Benchmark baseline: {baseline['label']}", "",
         f"Commit `{baseline['commit']}`, seed {baseline['seed']}, "
         f"{baseline['seconds']} s per run, {baseline['cpu']}, {env['nproc']} "
         f"cores, Python {env['python']}, numpy {env['numpy']} ({env['blas']}), "
         f"BLAS threads pinned to 1.", "",
         "## End to end (untraced)", ""]
        + _table(baseline, "untraced", names)
        + ["", "## Per layer (traced run)", ""]
        + _table(baseline, "traced", names)) + "\n"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--label", default="baseline")
    args = parser.parse_args()
    sys.path.insert(0, str(HERE))
    import run
    run.import_sovkit()
    from workloads import WORKLOADS

    baseline = {"label": args.label, "commit": commit(), "seed": args.seed,
                "seconds": args.seconds, "cpu": cpu_model(), "workloads": {}}
    for name in WORKLOADS:
        entry = {}
        for trace, key in ((0, "untraced"), (1, "traced")):
            result, detail = run_once(name, args.seed, args.seconds, trace)
            entry[key] = {"result": result, "detail": detail}
            print(name, key, json.dumps(result), flush=True)
        baseline["workloads"][name] = entry
    baseline["environment"] = entry["untraced"]["detail"]["environment"]
    (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")
    (HERE / "BASELINE.md").write_text(render(baseline))


if __name__ == "__main__":
    main()
