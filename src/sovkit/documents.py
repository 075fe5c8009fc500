"""Interchange documents.

JSON with complex numbers as [re, im] pairs and matrices as row-major nested
arrays; CSV with fixed documented columns and 17-significant-digit floats so
every value round-trips losslessly.
"""

import json
import math
from pathlib import Path

import numpy as np

from .elliptic import EllipticDivisor
from .errors import SchemaError
from .rational import BracketSpec, MatPoly, SpectralCurve
from .theta import ThetaParams

__all__ = [
    "load_document", "pair_to_complex", "complex_to_pair",
    "load_lax", "dump_lax", "load_bracket", "dump_bracket",
    "dump_curve", "load_elliptic", "fmt_float", "write_csv", "read_csv",
]


def load_document(source):
    """Parse a JSON document from a path, a JSON string, or a mapping."""
    if isinstance(source, dict):
        return source
    text = None
    path = Path(str(source))
    try:
        exists = path.is_file()
    except OSError:
        exists = False
    if exists:
        text = path.read_text()
    elif isinstance(source, str):
        text = source
    else:
        raise SchemaError(f"cannot read document from {source!r}")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as err:
        raise SchemaError(f"invalid JSON: {err}") from None
    if not isinstance(obj, dict):
        raise SchemaError("document root must be an object")
    return obj


def pair_to_complex(value, field):
    if (not isinstance(value, (list, tuple)) or len(value) != 2
            or not all(isinstance(v, (int, float)) for v in value)):
        raise SchemaError(f'field "{field}" must be an [re, im] pair')
    z = complex(value[0], value[1])
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise SchemaError(f'field "{field}" must be finite')
    return z


def complex_to_pair(z):
    z = complex(z)
    return [z.real, z.imag]


def _require(obj, field):
    if field not in obj:
        raise SchemaError(f'missing field "{field}"')
    return obj[field]


def _integer(value, field, least):
    """``value`` if it is an integer, not a bool, of at least ``least`` (0 or 1)."""
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        kind = "positive" if least else "nonnegative"
        raise SchemaError(f'field "{field}" must be a {kind} integer')
    return value


def load_lax(source) -> MatPoly:
    """Lax interchange document: fields r, n, coeffs[k][i][j] = [re, im]."""
    obj = load_document(source)
    r = _integer(_require(obj, "r"), "r", 1)
    n = _integer(_require(obj, "n"), "n", 0)
    coeffs = _require(obj, "coeffs")
    if not isinstance(coeffs, list) or len(coeffs) != n + 1:
        raise SchemaError('field "coeffs" must list n + 1 coefficient matrices')
    cm = np.zeros((n + 1, r, r), dtype=complex)
    for k, mat in enumerate(coeffs):
        if not isinstance(mat, list) or len(mat) != r:
            raise SchemaError(f'field "coeffs[{k}]" must be an {r}x{r} matrix')
        for i, row in enumerate(mat):
            if not isinstance(row, list) or len(row) != r:
                raise SchemaError(f'field "coeffs[{k}][{i}]" must have {r} entries')
            for j, entry in enumerate(row):
                cm[k, i, j] = pair_to_complex(entry, f"coeffs[{k}][{i}][{j}]")
    return MatPoly(cm)


def dump_lax(phi: MatPoly) -> dict:
    return {
        "r": phi.r,
        "n": phi.n,
        "coeffs": [[[complex_to_pair(phi.coeff_mats[k, i, j])
                     for j in range(phi.r)] for i in range(phi.r)]
                   for k in range(phi.n + 1)],
    }


def load_bracket(source) -> BracketSpec:
    """Bracket document: {"a": [[re, im], ...], "b": [re, im]}."""
    obj = load_document(source)
    a = _require(obj, "a")
    b = _require(obj, "b")
    if not isinstance(a, list) or not a:
        raise SchemaError('field "a" must be a nonempty coefficient list')
    acoef = tuple(pair_to_complex(c, f"a[{i}]") for i, c in enumerate(a))
    return BracketSpec(a=acoef, b=pair_to_complex(b, "b"))


def dump_bracket(spec: BracketSpec) -> dict:
    return {"a": [complex_to_pair(c) for c in spec.a],
            "b": complex_to_pair(spec.b)}


def dump_curve(curve: SpectralCurve, genus_value, hamiltonians, casimirs) -> dict:
    return {
        "r": curve.r,
        "n": curve.n,
        "genus": genus_value,
        "grid": [[complex_to_pair(curve.grid[k, l])
                  for l in range(curve.grid.shape[1])]
                 for k in range(curve.grid.shape[0])],
        "hamiltonian_index": [list(p) for p in hamiltonians],
        "casimir_index": [list(p) for p in casimirs],
    }


def load_elliptic(source):
    """Elliptic instance document.

    Schema: {tau: [re,im], r, divisor: [{nu: [re,im], mult}], coeffs:
    [{a, b, values: [[re,im], ...]}], z0: [re,im]}.
    Returns (params, divisor, coeffs dict, z0).
    """
    obj = load_document(source)
    tau = pair_to_complex(_require(obj, "tau"), "tau")
    r = _integer(_require(obj, "r"), "r", 1)
    div_list = _require(obj, "divisor")
    if not isinstance(div_list, list) or not div_list:
        raise SchemaError('field "divisor" must be a nonempty list')
    points, mults = [], []
    for i, entry in enumerate(div_list):
        if not isinstance(entry, dict):
            raise SchemaError(f'field "divisor[{i}]" must be an object')
        if "nu" not in entry:
            raise SchemaError(f'missing field "divisor[{i}].nu"')
        points.append(pair_to_complex(entry["nu"], f"divisor[{i}].nu"))
        mults.append(_integer(entry.get("mult", 1), f"divisor[{i}].mult", 1))
    coeffs_list = _require(obj, "coeffs")
    if not isinstance(coeffs_list, list):
        raise SchemaError('field "coeffs" must be a list')
    coeffs = {}
    for i, entry in enumerate(coeffs_list):
        if not isinstance(entry, dict):
            raise SchemaError(f'field "coeffs[{i}]" must be an object')
        a = _require(entry, "a")
        b = _require(entry, "b")
        values = _require(entry, "values")
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in (a, b)):
            raise SchemaError(f'fields "coeffs[{i}].a" and "coeffs[{i}].b" must be integers')
        if (a, b) in coeffs:
            raise SchemaError(f'field "coeffs[{i}]" repeats the character ({a}, {b})')
        if not isinstance(values, list):
            raise SchemaError(f'field "coeffs[{i}].values" must be a list')
        coeffs[(a, b)] = np.array(
            [pair_to_complex(v, f"coeffs[{i}].values[{k}]")
             for k, v in enumerate(values)])
    z0 = pair_to_complex(obj.get("z0", [0.0, 0.0]), "z0")
    params = ThetaParams(tau=tau, r=r)
    divisor = EllipticDivisor(points=tuple(points), mults=tuple(mults))
    return params, divisor, coeffs, z0


def fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, (int, np.integer)):
                cells.append(str(int(v)))
            elif isinstance(v, str):
                cells.append(v)
            else:
                cells.append(fmt_float(v))
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n")


def read_csv(path):
    lines = Path(path).read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows
