"""Run the acceptance suites over a range of seeds in one process.

    PYTHONPATH=src python tools/seed_sweep.py --seeds 1-40
    PYTHONPATH=src python tools/seed_sweep.py --seeds 7 --suites canonical,jacobi

For each check family (a check's name less its shape, tau and bracket tags,
so ``isospectral_r4_n1`` is in ``isospectral``) it prints the worst residual
over all seeds, relative to its gate (``nan`` if any check of the family read
NaN), that residual's gate and every seed at which a check of the family
fails.  A suite that raises one of ``sovkit.errors``' exceptions at a seed
reports no checks there; it is listed as an abort with the exception, and the
sweep goes on.  The output depends on the code and the arguments alone.  Exit
status 1 when a check fails or a suite aborts, else 0.
"""

import argparse
import math
import sys
from collections import defaultdict

from sovkit import errors
from sovkit.acceptance import SUITES, TAGS, ExperimentConfig

TYPED = tuple(cls for cls in vars(errors).values()
              if isinstance(cls, type) and cls.__module__ == errors.__name__)


def seed_range(text):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def sweep(seeds, suites):
    """``(families, aborts)``: per family the worst ``(residual / gate,
    residual, gate)`` and the failing seeds; per abort ``(seed, suite, error)``."""
    families = defaultdict(lambda: [(-1.0, 0.0, 0.0), []])
    aborts = []
    for seed in seeds:
        config = ExperimentConfig(seed=seed)
        for suite in suites:
            try:
                checks = SUITES[suite](config)
            except TYPED as exc:
                aborts.append((seed, suite, f"{type(exc).__name__}: {exc}"))
                continue
            for check in checks:
                fam = families[TAGS.sub("", check.name)]
                # a NaN ratio is the worst, and stays so
                fam[0] = max(fam[0], (check.residual / check.tolerance, check.residual,
                                      check.tolerance), key=lambda e: (math.isnan(e[0]), e))
                if not check.passed and seed not in fam[1]:
                    fam[1].append(seed)
    return dict(families), aborts


def report(families, aborts):
    lines = [f"{'family':<32} {'worst':>9} {'gate':>9}  failing seeds"]
    for name, ((_, worst, gate), failing) in sorted(families.items()):
        seeds = ", ".join(map(str, failing)) or "-"
        lines.append(f"{name:<32} {worst:9.1e} {gate:9.0e}  {seeds}")
    lines += [f"abort: seed {seed} {suite}: {error}" for seed, suite, error in aborts]
    failing = sorted({s for _, f in families.values() for s in f} | {a[0] for a in aborts})
    lines.append(f"failing seeds: {', '.join(map(str, failing)) or 'none'}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-40"),
                        help="one seed or an inclusive range A-B (default 1-40)")
    parser.add_argument("--suites", default=",".join(SUITES),
                        help="comma-separated suite names (default: all)")
    args = parser.parse_args(argv)
    suites = args.suites.split(",")
    unknown = sorted(set(suites) - set(SUITES))
    if unknown:
        parser.error(f"unknown suites: {unknown}")
    families, aborts = sweep(args.seeds, suites)
    print("\n".join(report(families, aborts)))
    return int(bool(aborts) or any(failing for _, failing in families.values()))


if __name__ == "__main__":
    sys.exit(main())
