"""JSON file formats for algebras, cocycles, and matrices.

All rational values are carried as strings ("−3/2" style literals) so no
float ever enters the exact pipeline.  Writers emit a canonical form:
records sorted by index, rationals normalized, two-space indentation, a
trailing newline.  Reading a canonical file and writing it back is
bit-identical.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from . import core
from .cohomology import BilinearForm
from .core import Algebra, algebra_from_products
from .linalg import Matrix


class FileFormatError(ValueError):
    """The file is readable but not a valid document of the expected kind."""


def _rational(value: Any, where: str) -> Fraction:
    if isinstance(value, bool) or isinstance(value, float):
        raise FileFormatError("%s must be an integer or a rational string, got %r" % (where, value))
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise FileFormatError("%s is not a rational literal: %r" % (where, value)) from None
    raise FileFormatError("%s must be an integer or a rational string, got %r" % (where, value))


def _index(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise FileFormatError("%s must be an integer, got %r" % (where, value))
    return value


def _size(value: Any, where: str) -> int:
    """A dimension or component count in 0..core.MAX_DIM."""
    size = _index(value, where)
    if size < 0:
        raise FileFormatError("%s must be nonnegative" % where)
    if size > core.MAX_DIM:
        raise FileFormatError("%s = %d exceeds the limit of %d" % (where, size, core.MAX_DIM))
    return size


def _expect_dict(value: Any, where: str) -> dict:
    if not isinstance(value, dict):
        raise FileFormatError("%s must be an object" % where)
    return value


def _expect_list(value: Any, where: str) -> list:
    if not isinstance(value, list):
        raise FileFormatError("%s must be an array" % where)
    return value


def dumps_canonical(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _load_json(text: str, kind: str) -> dict:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError("not valid JSON: %s" % exc) from None
    return _expect_dict(data, "the %s document" % kind)


def algebra_to_dict(a: Algebra, name: str | None = None, params: dict[str, Fraction] | None = None) -> dict:
    payload: dict[str, Any] = {"dim": a.dim}
    if name is not None:
        payload["name"] = name
    if params:
        payload["params"] = {key: str(params[key]) for key in sorted(params)}
    payload["brackets"] = [
        {"i": i, "j": j, "k": k, "c": str(c)} for i, j, k, c in sorted(a.products())
    ]
    return payload


def algebra_from_dict(data: dict) -> tuple[Algebra, dict]:
    """Parse an algebra document; returns the algebra and its metadata.

    The Leibniz identity is deliberately not checked here; `validate` and
    the operations that need it decide that themselves.  A dim above
    `core.MAX_DIM` is refused before anything is allocated.
    """
    dim = _size(data.get("dim"), "dim")
    records = _expect_list(data.get("brackets", []), "brackets")
    products: dict[tuple[int, int], dict[int, Fraction]] = {}
    seen: set[tuple[int, int, int]] = set()
    for pos, record in enumerate(records):
        rec = _expect_dict(record, "brackets[%d]" % pos)
        i = _index(rec.get("i"), "brackets[%d].i" % pos)
        j = _index(rec.get("j"), "brackets[%d].j" % pos)
        k = _index(rec.get("k"), "brackets[%d].k" % pos)
        c = _rational(rec.get("c"), "brackets[%d].c" % pos)
        for name, value in (("i", i), ("j", j), ("k", k)):
            if not 1 <= value <= dim:
                raise FileFormatError(
                    "brackets[%d].%s = %d outside 1..%d" % (pos, name, value, dim)
                )
        if (i, j, k) in seen:
            raise FileFormatError("duplicate bracket record (%d, %d, %d)" % (i, j, k))
        seen.add((i, j, k))
        products.setdefault((i, j), {})[k] = c
    try:
        algebra = algebra_from_products(dim, products, check=False)
    except ValueError as exc:
        raise FileFormatError(str(exc)) from None
    meta = {}
    if "name" in data:
        meta["name"] = data["name"]
    if "params" in data:
        meta["params"] = data["params"]
    return algebra, meta


def forms_to_dict(dim: int, forms: tuple[BilinearForm, ...]) -> dict:
    entries = []
    for t, form in enumerate(forms, start=1):
        for i in range(dim):
            for j in range(dim):
                c = form.values[i][j]
                if c:
                    entries.append({"t": t, "i": i + 1, "j": j + 1, "c": str(c)})
    entries.sort(key=lambda e: (e["t"], e["i"], e["j"]))
    return {"dim": dim, "k": len(forms), "entries": entries}


def forms_from_dict(data: dict) -> tuple[int, tuple[BilinearForm, ...]]:
    """Parse a cocycle document; dim and k above `core.MAX_DIM` are refused."""
    dim = _size(data.get("dim"), "dim")
    k = _size(data.get("k", 1), "k")
    records = _expect_list(data.get("entries", []), "entries")
    grids = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(k)]
    seen: set[tuple[int, int, int]] = set()
    for pos, record in enumerate(records):
        rec = _expect_dict(record, "entries[%d]" % pos)
        t = _index(rec.get("t", 1), "entries[%d].t" % pos)
        i = _index(rec.get("i"), "entries[%d].i" % pos)
        j = _index(rec.get("j"), "entries[%d].j" % pos)
        c = _rational(rec.get("c"), "entries[%d].c" % pos)
        if not 1 <= t <= k:
            raise FileFormatError("entries[%d].t = %d outside 1..%d" % (pos, t, k))
        for name, value in (("i", i), ("j", j)):
            if not 1 <= value <= dim:
                raise FileFormatError(
                    "entries[%d].%s = %d outside 1..%d" % (pos, name, value, dim)
                )
        if (t, i, j) in seen:
            raise FileFormatError("duplicate cocycle entry (%d, %d, %d)" % (t, i, j))
        seen.add((t, i, j))
        grids[t - 1][i - 1][j - 1] = c
    forms = tuple(BilinearForm(dim, tuple(tuple(row) for row in grid)) for grid in grids)
    return dim, forms


def matrix_to_dict(m: Matrix) -> dict:
    return {
        "rows": m.rows,
        "cols": m.cols,
        "entries": [[str(x) for x in row] for row in m.data],
    }


def matrix_from_dict(data: dict) -> Matrix:
    rows = _index(data.get("rows"), "rows")
    cols = _index(data.get("cols"), "cols")
    if rows < 0 or cols < 0:
        raise FileFormatError("rows and cols must be nonnegative")
    entries = _expect_list(data.get("entries"), "entries")
    if len(entries) != rows:
        raise FileFormatError("expected %d rows, got %d" % (rows, len(entries)))
    grid = []
    for r, row in enumerate(entries):
        row = _expect_list(row, "entries[%d]" % r)
        if len(row) != cols:
            raise FileFormatError("row %d has %d entries, expected %d" % (r, len(row), cols))
        grid.append(tuple(_rational(x, "entries[%d][%d]" % (r, c)) for c, x in enumerate(row)))
    return Matrix(grid, cols=cols)


def read_algebra_file(path: str) -> tuple[Algebra, dict]:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return algebra_from_dict(_load_json(text, "algebra"))


def write_algebra_file(path: str, a: Algebra, name: str | None = None,
                       params: dict[str, Fraction] | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(algebra_to_dict(a, name, params)))


def read_cocycle_file(path: str) -> tuple[int, tuple[BilinearForm, ...]]:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return forms_from_dict(_load_json(text, "cocycle"))


def write_cocycle_file(path: str, dim: int, forms: tuple[BilinearForm, ...]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(forms_to_dict(dim, forms)))


def read_matrix_file(path: str) -> Matrix:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return matrix_from_dict(_load_json(text, "matrix"))


def write_matrix_file(path: str, m: Matrix) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(matrix_to_dict(m)))
