"""JSON file formats for algebras, cocycles, and matrices.

All rational values are carried as strings ("−3/2" style literals) or
JSON integers, so no float ever enters the exact pipeline.  Each literal
is parsed by `linalg.parse_rational` into an int pair in lowest terms
(plain "-?digits" and "-?digits/digits" directly, anything else through
`Fraction`, with exponents refused).  An algebra document is validated
record by record, once, and its int records go straight to the table
builder `core._from_int_records`; reading one of plain literals builds
no `Fraction`.  Writers emit a canonical form: records sorted by index,
rationals in lowest terms, two-space indentation, a trailing newline.
An algebra is written from its integer table in stored order, each
constant reduced by one gcd, and `dumps_canonical` writes the JSON
itself, byte for byte what `json.dumps(payload, indent=2)` gives plus a
newline.  Reading a canonical file and writing it back is bit-identical.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Any

from . import core
from .cohomology import BilinearForm, _form_from_rationals
from .core import Algebra
from .linalg import Matrix, frac, parse_rational


class FileFormatError(ValueError):
    """The file is readable but not a valid document of the expected kind."""


def _pair(value: Any, where: str, *at: int) -> tuple[int, int]:
    """A rational value of a document as (numerator, denominator) in lowest terms.

    The value sits at `where % at`, which is formatted only for an error.
    """
    if isinstance(value, str):
        try:
            return parse_rational(value)
        except (ValueError, ZeroDivisionError):
            raise FileFormatError("%s is not a rational literal: %r" % (where % at, value)) from None
    if isinstance(value, int) and not isinstance(value, bool):
        return value, 1
    raise FileFormatError("%s must be an integer or a rational string, got %r" % (where % at, value))


def _rational(value: Any, where: str, *at: int) -> Fraction:
    return Fraction(*_pair(value, where, *at))


def _literal(x: int, den: int) -> str:
    """The canonical literal of x/den, as `str(Fraction(x, den))` writes it, for den > 0."""
    if den != 1:
        g = math.gcd(x, den)
        if g != den:
            return "%d/%d" % (x // g, den // g)
        x //= g
    return int.__repr__(x)


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


_encode_str = json.encoder.encode_basestring_ascii
# The writers of the two leaf types a document is made of, by exact type.
_LEAF = {str: _encode_str, int: int.__repr__}


def dumps_canonical(payload: dict) -> str:
    """`json.dumps(payload, indent=2) + "\\n"`, written directly.

    Takes dicts with str keys, lists, str, int, bool and None, and
    raises TypeError on anything else: a float, as `frac` refuses one,
    a tuple or a non-str key.  Strings are escaped by `json`'s own
    ASCII encoder and ints written by `int.__repr__`, as `json.dumps`
    does, without its pure-Python indenting encoder.
    """
    return _encode(payload, "\n") + "\n"


def _encode(value: Any, newline: str) -> str:
    """The JSON text of value; `newline` is a line break and the indent of value's own line."""
    leaf = _LEAF.get(type(value))
    if leaf is not None:
        return leaf(value)
    inner = newline + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = []
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError("keys must be str, not %s" % type(key).__name__)
            leaf = _LEAF.get(type(item))
            items.append(_encode_str(key) + ": " + (leaf(item) if leaf else _encode(item, inner)))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(value, list):
        if not value:
            return "[]"
        items = [leaf(item) if (leaf := _LEAF.get(type(item))) else _encode(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(value, str):
        return _encode_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError("Object of type %s is not JSON serializable" % type(value).__name__)


def _load_json(text: str, kind: str) -> dict:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError("not valid JSON: %s" % exc) from None
    return _expect_dict(data, "the %s document" % kind)


def algebra_to_dict(a: Algebra, name: str | None = None,
                    params: dict[str, int | str | Fraction] | None = None) -> dict:
    """The algebra document; its records are the table's, in its stored (i, j, k) order.

    Each param is written as its canonical literal, `str(frac(value))`,
    so a float raises `frac`'s TypeError.
    """
    payload: dict[str, Any] = {"dim": a.dim}
    if name is not None:
        payload["name"] = name
    if params:
        payload["params"] = {key: str(frac(params[key])) for key in sorted(params)}
    den = a.table.denominator
    payload["brackets"] = [
        {"i": i + 1, "j": j + 1, "k": k + 1, "c": _literal(c, den)}
        for (i, j), terms in a.table.products.items()
        for k, c in terms
    ]
    return payload


def algebra_from_dict(data: dict) -> tuple[Algebra, dict]:
    """Parse an algebra document; returns the algebra and its metadata.

    Each record is validated once and handed to `core._from_int_records`
    as ints; a `name` must be a string, since it is written back into
    JSON answers, and `params` an object whose values are rational values
    as in a record, kept in the metadata as canonical literals.  The
    Leibniz identity is deliberately not checked here; `validate` and the
    operations that need it decide that themselves.
    A dim above `core.MAX_DIM` is refused before anything is allocated,
    and a document without `brackets`, so a cocycle document is never
    read as the abelian algebra of its dim.
    """
    if "brackets" not in data:
        raise FileFormatError("not an algebra document: it has no 'brackets'")
    dim = _size(data.get("dim"), "dim")
    records = _expect_list(data["brackets"], "brackets")
    ints: list[tuple[int, int, int, int, int]] = []
    seen: set[tuple[int, int, int]] = set()
    for pos, record in enumerate(records):
        rec = _expect_dict(record, "brackets[%d]" % pos)
        i, j, k, c = rec.get("i"), rec.get("j"), rec.get("k"), rec.get("c")
        if not (type(i) is int and type(j) is int and type(k) is int):
            i = _index(i, "brackets[%d].i" % pos)
            j = _index(j, "brackets[%d].j" % pos)
            k = _index(k, "brackets[%d].k" % pos)
        p, q = _pair(c, "brackets[%d].c", pos)
        if not (1 <= i <= dim and 1 <= j <= dim and 1 <= k <= dim):
            name, value = next((n, v) for n, v in (("i", i), ("j", j), ("k", k)) if not 1 <= v <= dim)
            raise FileFormatError("brackets[%d].%s = %d outside 1..%d" % (pos, name, value, dim))
        key = (i, j, k)
        if key in seen:
            raise FileFormatError("duplicate bracket record (%d, %d, %d)" % key)
        seen.add(key)
        ints.append((i, j, k, p, q))
    algebra = core._from_int_records(dim, ints)
    meta = {}
    if "name" in data:
        if not isinstance(data["name"], str):
            raise FileFormatError("name must be a string, got %r" % (data["name"],))
        meta["name"] = data["name"]
    if "params" in data:
        params = _expect_dict(data["params"], "params")
        for key in params:
            if not isinstance(key, str):
                raise FileFormatError("params keys must be strings, got %r" % (key,))
        meta["params"] = {key: _literal(*_pair(value, "params[%r]", key)) for key, value in params.items()}
    return algebra, meta


def forms_to_dict(dim: int, forms: tuple[BilinearForm, ...]) -> dict:
    """The cocycle document; each form's terms come in (i, j) order, so records sort by (t, i, j)."""
    entries = [
        {"t": t, "i": i, "j": j, "c": str(c)}
        for t, form in enumerate(forms, start=1)
        for i, j, c in form.terms()
    ]
    return {"dim": dim, "k": len(forms), "entries": entries}


def forms_from_dict(data: dict) -> tuple[int, tuple[BilinearForm, ...]]:
    """Parse a cocycle document; dim and k above `core.MAX_DIM` are refused.

    Each component is built from its sparse entries alone, so no dense
    k x dim x dim grid is allocated.  A document without `entries` is
    refused, so an algebra document is never read as the zero cocycle.
    """
    if "entries" not in data:
        raise FileFormatError("not a cocycle document: it has no 'entries'")
    dim = _size(data.get("dim"), "dim")
    k = _size(data.get("k", 1), "k")
    records = _expect_list(data["entries"], "entries")
    components: list[list[tuple[int, Fraction]]] = [[] for _ in range(k)]
    seen: set[tuple[int, int, int]] = set()
    for pos, record in enumerate(records):
        rec = _expect_dict(record, "entries[%d]" % pos)
        t = _index(rec.get("t", 1), "entries[%d].t" % pos)
        i = _index(rec.get("i"), "entries[%d].i" % pos)
        j = _index(rec.get("j"), "entries[%d].j" % pos)
        c = _rational(rec.get("c"), "entries[%d].c", pos)
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
        components[t - 1].append(((i - 1) * dim + j - 1, c))
    return dim, tuple(_form_from_rationals(dim, flat) for flat in components)


def matrix_to_dict(m: Matrix) -> dict:
    """The matrix document, written from the int rows that `Matrix` stores."""
    rows, den = m._int_rows()
    entries = []
    for row in rows:
        out = ["0"] * m.cols
        for j, x in row:
            out[j] = _literal(x, den)
        entries.append(out)
    return {"rows": m.rows, "cols": m.cols, "entries": entries}


def matrix_from_dict(data: dict) -> Matrix:
    rows = _size(data.get("rows"), "rows")
    cols = _size(data.get("cols"), "cols")
    entries = _expect_list(data.get("entries"), "entries")
    if len(entries) != rows:
        raise FileFormatError("expected %d rows, got %d" % (rows, len(entries)))
    grid = []
    for r, row in enumerate(entries):
        row = _expect_list(row, "entries[%d]" % r)
        if len(row) != cols:
            raise FileFormatError("row %d has %d entries, expected %d" % (r, len(row), cols))
        grid.append(tuple(_rational(x, "entries[%d][%d]", r, c) for c, x in enumerate(row)))
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
