"""sovkit benchmark: one seeded workload, closed loop, one process.

    python3 perfbench/run.py --workload rational_sov --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; sovkit is imported from its ``src``
directory, never from an installed copy.  The workload's instances come from
its fixed pool (numpy only), from a round that ``--seed`` picks, and run one
at a time, in whole rounds, until the next round would take the rounds'
time past ``--seconds``.  Each
instance runs under a per-instance time budget enforced by an
``ITIMER_REAL`` alarm on the main thread; an overrun, a refused
(non-generic) draw, a typed error and an output that fails a check all count
as failed.  The pool rounds on which the program fails are excluded
(``excluded.json``), so no instance fails at the commit the pool was vetted
on, and ``correct`` is false as soon as one instance fails.

The time metrics are scaled to a fixed machine speed: a reference kernel
(``reference.py``) that shares no code with sovkit is timed in this process
before the first round and after every round, each instance time is
multiplied by ``REF_S`` over the mean of the two kernel times around its
round, and each set-up time by ``REF_S`` over the kernel time of a fresh
process started right after it (see README.md for why); the raw times are
in the details.

With ``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` the run spends half of ``--seconds`` untraced, then repeats the
same rounds with every layer wrapped (``tracing.py``) and reports the
per-layer metrics.  The line before the last carries the details: input
digest, per-instance records, environment, and in traced runs the span table.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # pinned before numpy is imported

import argparse
import json
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
BUDGET_S = 30.0     # per-instance time budget
PROBES = 9          # set-up and reference processes, spaced over the run
FIXED_ROUNDS = 5    # rounds that accuracy_digits and peak_rss_mb are read over
REF_S = 0.05        # seconds the reference kernel takes at the nominal speed


class BudgetExceeded(BaseException):
    """Raised by the alarm; a BaseException so library handlers let it pass."""


def _on_alarm(signum, frame):
    raise BudgetExceeded()


def import_sovkit():
    package = SRC / "sovkit"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no sovkit sources at {package}")
    sys.path.insert(0, str(SRC))
    import sovkit
    if Path(sovkit.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported sovkit from {sovkit.__file__}, "
                 f"not from {package}")


def run_instance(workload, inst, budget_s):
    from sovkit.errors import NonGenericError
    from workloads import TENSOR_CACHE, CountMiss, GateMiss

    ctx = {"window_halvings": 0}
    status, headroom, note = "ok", None, ""
    if workload.fresh_tensors:
        TENSOR_CACHE.cache_clear()  # also zeroes its hit and miss counters
    cache_before = TENSOR_CACHE.cache_info()
    signal.signal(signal.SIGALRM, _on_alarm)
    t0 = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            signal.setitimer(signal.ITIMER_REAL, budget_s)
            try:
                headroom = workload.run(inst, ctx)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except BudgetExceeded:
            status = "over_budget"
        except GateMiss as err:
            status, note, headroom = "gate_miss", str(err), err.headroom
        except CountMiss as err:
            status, note = "count_miss", str(err)
        except NonGenericError as err:
            status, note = "refused", str(err)
        except Exception as err:  # a failed instance must not end the run
            status, note = "error", f"{type(err).__name__}: {err}"
    seconds = time.perf_counter() - t0
    cache_after = TENSOR_CACHE.cache_info()
    return {"seconds": seconds, "status": status, "headroom": headroom,
            "note": note, "window_halvings": ctx["window_halvings"],
            "warnings": sum(issubclass(w.category, RuntimeWarning) for w in caught),
            "tensor_hits": cache_after.hits - cache_before.hits,
            "tensor_misses": cache_after.misses - cache_before.misses}


def measure(workload, rounds, seconds, budget_s, probe=None):
    """Run whole rounds until the next one would take the rounds' time past
    ``seconds``; return the pass as a dict.

    ``rss_mb`` is the peak resident memory after the first ``FIXED_ROUNDS``
    rounds (or after all, if fewer ran), which like the headroom of those
    rounds repeats exactly for a seed however many rounds the run completes.
    The reference kernel also runs in this process before the first round
    and after every round; each instance's ``scaled_s`` is its time times
    ``REF_S`` over the mean of the two samples around its round, so that a
    change of machine speed between rounds cancels.  With ``probe``,
    ``PROBES`` set-up and reference-process times are taken between rounds,
    spaced evenly over the run.  Neither is counted in ``seconds``.
    """
    run = {"records": [], "rounds_s": [], "rss_mb": None, "setup_s": [],
           "reference_s": [], "local_reference_s": []}
    reference.reference_work()  # warm-up
    run["local_reference_s"].append(_reference_sample())
    for rnd in rounds:
        spent = sum(run["rounds_s"])
        if run["rounds_s"] and spent + statistics.median(run["rounds_s"]) > seconds:
            break
        if probe and spent >= len(run["setup_s"]) * seconds / PROBES:
            _probe(run, probe)
        t0 = time.perf_counter()
        records = []
        for shape, inst in rnd:
            rec = run_instance(workload, inst, budget_s)
            rec["shape"] = list(shape)
            rec["index"] = inst["index"]
            records.append(rec)
        run["rounds_s"].append(time.perf_counter() - t0)
        run["local_reference_s"].append(_reference_sample())
        speed = REF_S / statistics.mean(run["local_reference_s"][-2:])
        for rec in records:
            rec["scaled_s"] = rec["seconds"] * speed
        run["records"].extend(records)
        if len(run["rounds_s"]) <= FIXED_ROUNDS:
            run["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while probe and len(run["setup_s"]) < PROBES:
        _probe(run, probe)
    return run


def _reference_sample():
    t0 = time.perf_counter()
    reference.reference_work()
    return time.perf_counter() - t0


def _probe(run, probe):
    setup_s, reference_s = probe()
    run["setup_s"].append(setup_s)
    run["reference_s"].append(reference_s)


def _per_shape_medians(records, key):
    by_shape = {}
    for rec in records:
        if rec[key] is not None:
            by_shape.setdefault(tuple(rec["shape"]), []).append(rec[key])
    return [statistics.median(v) for v in by_shape.values()]


def failures(records):
    return sum(rec["status"] != "ok" for rec in records)


def end_to_end(run, shapes):
    """The end-to-end metrics of an untraced pass.  Times and headroom are
    medians per shape first, so that the number of instances of each shape a
    run completes does not move them.  ``round_s`` and ``instance_s_p50``
    are taken over the instances' ``scaled_s``, so that they read in
    seconds at a fixed machine speed; each ``setup_s`` sample is scaled by
    the reference-process time taken right after it.

    A run in which an instance fails is not correct, so a change which
    makes instances fail early cannot pass for a speed-up.
    ``instance_s_p50`` is the geometric mean of the per-shape medians, which
    weighs every shape alike rather than letting the middle shape alone
    decide.  ``accuracy_digits`` is the mean of the per-shape median
    headrooms, over the first ``FIXED_ROUNDS`` rounds only so that it
    repeats exactly for a seed; every shape weighs alike, so a drop on any
    one shape shows."""
    records = run["records"]
    times = _per_shape_medians(records, "scaled_s")
    raw_times = _per_shape_medians(records, "seconds")
    headrooms = _per_shape_medians(records[:FIXED_ROUNDS * shapes], "headroom")
    return {
        "round_s": (sum(times), "s"),
        "instance_s_p50": (statistics.geometric_mean(times), "s"),
        # with no residual at all, below any headroom a residual can give
        "accuracy_digits": (statistics.mean(headrooms) if headrooms else -300.0,
                            "log10"),
        "peak_rss_mb": (run["rss_mb"], "MB"),
        "setup_s": (statistics.median(
            s * REF_S / r for s, r in zip(run["setup_s"], run["reference_s"])), "s"),
    }, {"raw_round_s": sum(raw_times),
        "raw_instance_s_p50": statistics.geometric_mean(raw_times),
        "raw_setup_s": statistics.median(run["setup_s"])}


def _child(cmd):
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        sys.exit(f"perfbench: {cmd[1]} failed: {proc.stderr[-500:]}")
    return proc.stdout


def make_probe(args):
    """A function that times one fresh process doing the run's set-up (start
    the interpreter, import sovkit, generate the inputs, exit), then runs
    the reference kernel in another fresh process; it returns both times."""
    setup = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)]
    reference = [sys.executable, str(HERE / "reference.py")]

    def probe():
        t0 = time.perf_counter()
        _child(setup)
        setup_s = time.perf_counter() - t0
        return setup_s, float(_child(reference))

    return probe


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "threads": {v: os.environ[v] for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def run_traced(workload, rounds, seconds, budget_s):
    """Half the window untraced, then the same rounds traced.

    One untimed round first warms the interpreter, so that neither pass
    carries the process's first-call costs; every pass starts with sovkit's
    memo caches empty.
    """
    import tracing

    measure(workload, rounds[:1], 0.0, budget_s)
    tracing.clear_caches()
    plain_run = measure(workload, rounds, seconds / 2.0, budget_s)
    plain, plain_times = plain_run["records"], plain_run["rounds_s"]
    tracing.clear_caches()
    with tracing.Tracer() as tracer:
        traced_run = measure(workload, rounds[:len(plain_times)], float("inf"),
                             budget_s)
    traced, traced_times = traced_run["records"], traced_run["rounds_s"]
    hits = sum(rec["tensor_hits"] for rec in traced)
    misses = sum(rec["tensor_misses"] for rec in traced)
    extra = {
        "rational.structure_tensor.miss_ratio":
            misses / (hits + misses) if hits + misses else 0.0,
        "rational.warnings": sum(rec["warnings"] for rec in traced),
        "linearize.window_halvings": sum(rec["window_halvings"] for rec in traced),
        "elliptic.over_budget": sum(rec["status"] == "over_budget" for rec in traced),
        "trace.overhead_frac": (sum(rec["scaled_s"] for rec in traced)
                                / sum(rec["scaled_s"] for rec in plain) - 1.0),
    }
    spans = {name: {"calls": st.calls, "total_s": st.total_s,
                    "self_s": st.self_s, "errors": st.errors}
             for name, st in sorted(tracer.stats.items())}
    values = tracer.metrics(extra)
    metrics = {key: (values[key], unit) for key, unit in tracing.PER_LAYER}
    return plain, traced, metrics, {"spans": spans, "structure_tensor_misses": misses,
                                    "untraced_rounds_s": plain_times,
                                    "traced_rounds_s": traced_times}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_sovkit()
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    rounds = workload.rounds(args.seed)
    digest = workloads.inputs_digest(rounds)
    if args.setup_probe:
        return 0

    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "budget_s": BUDGET_S, "inputs_sha256": digest,
              "environment": environment()}
    if args.trace:
        plain, records, metrics, trace_detail = run_traced(
            workload, rounds, args.seconds, BUDGET_S)
        detail.update(trace_detail)
        correct = failures(plain) == 0 and failures(records) == 0
    else:
        run = measure(workload, rounds, args.seconds, BUDGET_S, make_probe(args))
        metrics, raw = end_to_end(run, len(workload.shapes))
        records = run.pop("records")
        detail.update(run)
        detail.update(raw)
        correct = failures(records) == 0
    detail["instances"] = records
    statuses = [rec["status"] for rec in records]
    detail["failures"] = {s: statuses.count(s) for s in sorted(set(statuses)) if s != "ok"}

    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": failures(records),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
