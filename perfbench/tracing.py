"""Outside-in per-layer tracing for the benchmark's traced run.

The program has no spans of its own yet, so the traced run wraps the public
functions of each layer from here: a function is replaced in the module that
defines it and in every sovkit module that imported it by name, a method is
replaced on its class, and ``Tracer.restore`` puts every original back.

Spans are aggregated in memory per name (calls, inclusive time, self time,
exceptions).  A span's self time is its duration minus the time covered by
its direct child spans.  ``spectral_gradient_matrix`` spans whose parent span
is ``ode_solve`` are counted as ODE field evaluations.
"""

import sys
import time
from collections import defaultdict

from sovkit import elliptic, kernel, linearize, numeric, rational, theta
from workloads import TENSOR_CACHE

# (metric prefix, owner, attribute); owner is a module or a class
TARGETS = (
    ("kernel.poly_roots", kernel, "poly_roots"),
    ("kernel.resultant", kernel, "resultant"),
    ("kernel.matpoly_char_adj", kernel, "matpoly_char_adj"),
    ("kernel.adjugate", kernel, "adjugate"),
    ("kernel.char_bipoly", kernel, "char_bipoly"),
    ("rational.structure_tensor", rational, "structure_tensor"),
    ("rational.StructureTensor.poisson_matrix", rational.StructureTensor,
     "poisson_matrix"),
    ("rational.spectral_gradient_matrix", rational, "spectral_gradient_matrix"),
    ("rational.divisor_coords", rational, "divisor_coords"),
    ("rational.divisor_jacobian", rational, "divisor_jacobian"),
    ("rational.verify_canonical", rational, "verify_canonical"),
    ("rational.casimir_detect", rational, "casimir_detect"),
    ("rational.genus", rational, "genus"),
    ("rational.spectral_curve", rational, "spectral_curve"),
    ("rational.flow", rational, "flow"),
    ("numeric.ode_solve", numeric, "ode_solve"),
    ("linearize.linearize", linearize, "linearize"),
    ("linearize.sheet_integrals", linearize, "sheet_integrals"),
    ("theta.riemann_theta", theta, "riemann_theta"),
    ("theta.f_component", theta, "f_component"),
    ("theta.SectionTracker.value_at", theta.SectionTracker, "value_at"),
    ("elliptic.EllipticLax.__call__", elliptic.EllipticLax, "__call__"),
    ("elliptic.EllipticLax.deriv", elliptic.EllipticLax, "deriv"),
    ("elliptic.elliptic_divisor_coords", elliptic, "elliptic_divisor_coords"),
    ("elliptic.build_basis", elliptic, "build_basis"),
    ("elliptic.assemble_lax", elliptic, "assemble_lax"),
)

# the per-layer metrics the traced run reports, with their units; for every
# one of them lower is better
PER_LAYER = (
    [(f"{p}.{s}", u) for p in ("kernel.poly_roots", "kernel.resultant",
                               "kernel.matpoly_char_adj", "kernel.adjugate",
                               "kernel.char_bipoly")
     for s, u in (("calls", "count"), ("self_s", "s"))]
    + [("rational.structure_tensor.calls", "count"),
       ("rational.structure_tensor.self_s", "s"),
       ("rational.structure_tensor.miss_ratio", "1"),
       ("rational.StructureTensor.poisson_matrix.calls", "count"),
       ("rational.StructureTensor.poisson_matrix.self_s", "s"),
       ("rational.spectral_gradient_matrix.calls", "count"),
       ("rational.spectral_gradient_matrix.self_s", "s"),
       ("rational.divisor_coords.calls", "count"),
       ("rational.divisor_coords.self_s", "s"),
       ("rational.divisor_coords.empty", "count"),
       ("rational.divisor_jacobian.self_s", "s"),
       ("rational.verify_canonical.self_s", "s"),
       ("rational.casimir_detect.self_s", "s"),
       ("rational.genus.self_s", "s"),
       ("rational.spectral_curve.self_s", "s"),
       ("rational.flow.self_s", "s"),
       ("rational.warnings", "count"),
       ("numeric.ode_solve.calls", "count"),
       ("numeric.ode_solve.self_s", "s"),
       ("numeric.ode_solve.field_evals", "count"),
       ("linearize.linearize.calls", "count"),
       ("linearize.linearize.self_s", "s"),
       ("linearize.linearize.errors", "count"),
       ("linearize.sheet_integrals.calls", "count"),
       ("linearize.sheet_integrals.self_s", "s"),
       ("linearize.window_halvings", "count"),
       ("theta.riemann_theta.calls", "count"),
       ("theta.riemann_theta.self_s", "s"),
       ("theta.f_component.calls", "count"),
       ("theta.f_component.self_s", "s"),
       ("theta.SectionTracker.value_at.calls", "count"),
       ("theta.SectionTracker.value_at.self_s", "s"),
       ("elliptic.EllipticLax.__call__.calls", "count"),
       ("elliptic.EllipticLax.__call__.self_s", "s"),
       ("elliptic.EllipticLax.deriv.calls", "count"),
       ("elliptic.elliptic_divisor_coords.calls", "count"),
       ("elliptic.elliptic_divisor_coords.self_s", "s"),
       ("elliptic.elliptic_divisor_coords.errors", "count"),
       ("elliptic.build_basis.self_s", "s"),
       ("elliptic.assemble_lax.self_s", "s"),
       ("elliptic.over_budget", "count"),
       ("trace.overhead_frac", "1")]
)


class _Stat:
    __slots__ = ("calls", "total_s", "self_s", "errors")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.errors = 0


class Tracer:
    """Installs span wrappers on ``TARGETS`` and aggregates their spans."""

    def __init__(self):
        self.stats = defaultdict(_Stat)
        self.counts = defaultdict(int)
        self._stack = []  # [name, child_time] per open span
        self._patched = []  # (owner, attribute, original)

    def _wrap(self, name, fn):
        stats, counts, stack = self.stats, self.counts, self._stack
        clock = time.perf_counter

        def span(*args, **kwargs):
            frame = [name, 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                stats[name].errors += 1
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                st = stats[name]
                st.calls += 1
                st.total_s += dt
                st.self_s += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                if parent == "numeric.ode_solve" and \
                        name == "rational.spectral_gradient_matrix":
                    counts["numeric.ode_solve.field_evals"] += 1
            if name == "rational.divisor_coords" and out.count == 0:
                counts["rational.divisor_coords.empty"] += 1
            return out

        span.__wrapped__ = fn
        span.__name__ = getattr(fn, "__name__", name)
        for attr in ("cache_info", "cache_clear"):  # lru_cache's interface
            if hasattr(fn, attr):
                setattr(span, attr, getattr(fn, attr))
        return span

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "sovkit" or key.startswith("sovkit.")]
        for name, owner, attr in TARGETS:
            original = owner.__dict__[attr]
            wrapper = self._wrap(name, original)
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapper)
                continue
            for mod in modules:  # the defining module and every by-name import
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._patch(mod, key, original, wrapper)
        return self

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
        return False

    def metrics(self, extra):
        """Every per-layer metric, zero where the layer was not exercised.

        ``extra`` supplies the metrics measured outside the spans (cache miss
        ratio, captured warnings, window halvings, budget overruns, tracing
        overhead).
        """
        unknown = set(extra) - {key for key, _ in PER_LAYER}
        if unknown:
            raise KeyError(f"not per-layer metrics: {sorted(unknown)}")
        values = {}
        for key, _ in PER_LAYER:
            prefix, _, leaf = key.rpartition(".")
            st = self.stats.get(prefix)
            if leaf in _Stat.__slots__:
                values[key] = getattr(st, leaf) if st else 0
            else:
                values[key] = self.counts.get(key, 0)
        values.update(extra)
        return values


def clear_caches():
    """Empty sovkit's memo caches so that every pass starts cold."""
    TENSOR_CACHE.cache_clear()
    theta._even_family.cache_clear()
