import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import sovkit

# __main__ runs the command line when imported
MODULES = ["sovkit"] + [f"sovkit.{m.name}" for m in pkgutil.iter_modules(sovkit.__path__)
                        if m.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def _traced_targets():
    """``perfbench/tracing.py``'s ``TARGETS`` as ``(prefix, owner, attribute)``
    source strings, read without importing the benchmark."""
    tree = ast.parse((Path(__file__).parents[1] / "perfbench" / "tracing.py").read_text())
    value = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets] == ["TARGETS"])
    return [(e.elts[0].value, ast.unparse(e.elts[1]), e.elts[2].value) for e in value.elts]


@pytest.mark.parametrize("prefix,owner,attribute", _traced_targets())
def test_every_traced_target_resolves(prefix, owner, attribute):
    # the benchmark's traced run wraps these; a rename in src/ must fail here
    module, *rest = owner.split(".")
    obj = importlib.import_module(f"sovkit.{module}")
    for name in rest:
        obj = getattr(obj, name)
    assert callable(getattr(obj, attribute))


def _numpy_polynomial_uses(path):
    """The ``numpy.polynomial`` names a module imports, and those it reads as
    ``np.polynomial...`` attributes (every prefix of a chain), as dotted names."""
    imports, reads = set(), set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            imports |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            imports |= {f"{node.module}.{a.name}" for a in node.names}
        elif isinstance(node, ast.Attribute):
            reads.add(ast.unparse(node).replace("np.", "numpy.", 1))
    return ({n for n in imports if n.startswith("numpy.polynomial")},
            {n for n in reads if n.startswith("numpy.polynomial")})


@pytest.mark.parametrize("path", sorted(Path(sovkit.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_numpy_polynomial_stays_out_of_the_package(path):
    # the kernel's Horner poly_eval and poly_der replace numpy.polynomial's
    # per-call wrappers; numeric's Gauss-Legendre table is the one use left
    leggauss = {"numpy.polynomial", "numpy.polynomial.legendre",
                "numpy.polynomial.legendre.leggauss"}
    assert _numpy_polynomial_uses(path) == (set(), leggauss if path.name == "numeric.py"
                                            else set())


def _imported_modules(path):
    """The ``sovkit`` modules a module of the package imports, or imports
    names from, as dotted names."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            out |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["sovkit", node.module])) if node.level else node.module
            out.add(base)
            out |= {f"{base}.{a.name}" for a in node.names}
    return {n for n in out if n.startswith("sovkit.")}


def test_elliptic_walks_no_rational_paths():
    # the elliptic divisor is located pointwise from the closed-form section:
    # no path routing or rational-base code may creep back into it
    names = _imported_modules(Path(sovkit.__file__).parent / "elliptic.py")
    assert "sovkit.kernel" in names
    assert not {n for n in names if n.startswith(("sovkit.linearize", "sovkit.rational"))}
