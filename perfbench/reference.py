"""The reference kernel that scales the benchmark's time metrics.

    python3 perfbench/reference.py

prints the median time of three runs of ``reference_work`` (after one
untimed run) in a fresh process that imports numpy and nothing of sovkit;
``run.py`` starts it after each set-up probe.  ``run.py`` also calls
``reference_work`` in the workload process around every round.  The
machine's speed drifts between runs a few minutes apart and switches within
a run, and this kernel, which shares no code with sovkit, slows and speeds
up with it.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # pinned before numpy is imported

import statistics
import time

import numpy as np


def reference_work():
    """Fixed work of the kinds the workloads' hot loops do: dict and list
    churn on Python objects, a sort, many small complex numpy arrays and
    small dense linear algebra.  About 0.05 s, and a few MB of memory, so
    that running it inside the workload process leaves ``peak_rss_mb``
    alone."""
    rng = np.random.default_rng(7)
    counts = {}
    for i in range(40_000):
        counts[i % 997] = counts.get(i % 997, 0) + i
    ordered = sorted(rng.standard_normal(15_000).tolist())
    small = [np.ones(16, complex) * k for k in range(3_000)]
    total = sum(abs(a.sum()) for a in small)
    mats = rng.standard_normal((600, 4, 4)) + 1j * rng.standard_normal((600, 4, 4))
    total += sum(abs(np.linalg.det(m)) for m in mats)
    return total + ordered[0] + len(counts)


def main():
    reference_work()
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - t0)
    print(statistics.median(times))


if __name__ == "__main__":
    main()
