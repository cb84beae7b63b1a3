"""Exact linear algebra over the rationals.

The scalar type is `fractions.Fraction`: arbitrary-precision rationals,
always in lowest terms with positive denominator, so every computation in
this module is exact.  Matrices are immutable, row-major grids of
Fractions.

Elimination has one kernel, `Echelon`: rows are sparse dicts
{column: Fraction}, each incoming row is reduced against the pivot rows
already found, its leftmost nonzero column becomes a new pivot, and that
column is eliminated from the earlier pivot rows.  The cocycle systems
this package solves have n^3 rows over n^2 unknowns with only a few
nonzeros per row, which is where the sparse rows pay.  `rref`, `rank`,
`kernel_basis`, `solve`, `inverse` and `core.Subspace.span` all go
through it.  Rank sequences of powers of a matrix (Jordan types) use
fraction-free Bareiss elimination over the integers instead, which is
faster on those small dense grids.  `core` builds those grids as ints
straight from an algebra's integer structure constants and feeds them
to the Bareiss rank sequence; `integer_grid` clears the denominators of
a `Matrix` for the same rank sequence.

Determinism conventions, relied on throughout the package:

* The reduced row echelon form of a row space is unique, so `rref` and
  the pivot list are canonical whatever the order in which rows were
  added or eliminated.
* `kernel_basis` enumerates free columns in increasing order and sets the
  free coordinate of each basis vector to 1.
* `solve` returns the particular solution with all free variables zero.

Floats are refused at construction time; the one floating-point helper
lives elsewhere and never feeds back into exact results.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

Scalar = Fraction
Vector = tuple[Fraction, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def frac(value: int | str | Fraction) -> Fraction:
    """Coerce an int, a string like '-3/2', or a Fraction to a Fraction.

    Floats are rejected: silent binary-to-rational conversion is how
    inexactness sneaks into an exact pipeline.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError("refusing to coerce float %r to an exact rational" % (value,))
    return Fraction(value)


def vec(entries: Iterable[int | str | Fraction]) -> Vector:
    return tuple(frac(x) for x in entries)


def zero_vector(n: int) -> Vector:
    return (_ZERO,) * n


def unit_vector(n: int, i: int) -> Vector:
    if not 0 <= i < n:
        raise IndexError("unit vector index %d out of range for length %d" % (i, n))
    return tuple(_ONE if j == i else _ZERO for j in range(n))


def vec_add(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vec_sub(u: Vector, v: Vector) -> Vector:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vec_scale(c: Fraction, v: Vector) -> Vector:
    return tuple(c * a for a in v)


def is_zero_vector(v: Vector) -> bool:
    return not any(v)


class Matrix:
    """Immutable dense matrix of Fractions.

    `data` is a tuple of row tuples.  An explicit `cols` count is required
    when constructing a matrix with zero rows, since the width cannot be
    inferred.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Iterable[Iterable[int | str | Fraction]], cols: int | None = None):
        grid = tuple(tuple(frac(x) for x in row) for row in data)
        if grid:
            width = len(grid[0])
            if any(len(row) != width for row in grid):
                raise ValueError("ragged rows in matrix literal")
            if cols is not None and cols != width:
                raise ValueError("declared column count %d does not match rows of width %d" % (cols, width))
            cols = width
        elif cols is None:
            raise ValueError("a matrix with no rows needs an explicit column count")
        self.data: tuple[Vector, ...] = grid
        self.rows: int = len(grid)
        self.cols: int = cols

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix([[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)], cols=n)

    @staticmethod
    def zeros(rows: int, cols: int) -> "Matrix":
        return Matrix([[_ZERO] * cols for _ in range(rows)], cols=cols)

    @staticmethod
    def from_columns(columns: Sequence[Vector]) -> "Matrix":
        if not columns:
            raise ValueError("from_columns needs at least one column")
        height = len(columns[0])
        return Matrix([[col[i] for col in columns] for i in range(height)], cols=len(columns))

    def entry(self, i: int, j: int) -> Fraction:
        return self.data[i][j]

    def row(self, i: int) -> Vector:
        return self.data[i]

    def column(self, j: int) -> Vector:
        return tuple(row[j] for row in self.data)

    def transpose(self) -> "Matrix":
        return Matrix([self.column(j) for j in range(self.cols)], cols=self.rows)

    def apply(self, v: Sequence[Fraction]) -> Vector:
        """Matrix-vector product."""
        if len(v) != self.cols:
            raise ValueError("vector of length %d against %d columns" % (len(v), self.cols))
        out = []
        for row in self.data:
            acc = _ZERO
            for a, x in zip(row, v):
                if a and x:
                    acc += a * x
            out.append(acc)
        return tuple(out)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch %dx%d @ %dx%d" % (self.rows, self.cols, other.rows, other.cols))
        cols = other.transpose().data
        return Matrix(
            [[sum((a * b for a, b in zip(row, col) if a and b), _ZERO) for col in cols] for row in self.data],
            cols=other.cols,
        )

    def is_zero(self) -> bool:
        return all(not x for row in self.data for x in row)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Matrix) and self.cols == other.cols and self.data == other.data

    def __hash__(self) -> int:
        return hash((self.cols, self.data))

    def __repr__(self) -> str:
        return "Matrix(%d x %d)" % (self.rows, self.cols)

    def pretty(self) -> str:
        cells = [[str(x) for x in row] for row in self.data]
        width = max((len(c) for row in cells for c in row), default=1)
        return "\n".join(" ".join(c.rjust(width) for c in row) for row in cells)


def _axpy(y: dict[int, Fraction], a: Fraction, x: Mapping[int, Fraction]) -> None:
    """y += a * x on sparse rows, dropping entries that cancel."""
    for j, v in x.items():
        if j in y:
            w = y[j] + a * v
            if w:
                y[j] = w
            else:
                del y[j]
        else:
            y[j] = a * v


class Echelon:
    """The reduced row echelon form of a growing row space, as sparse rows.

    `rows` maps each pivot column to its row, a dict {column: nonzero
    Fraction} with a 1 at the pivot, no entries left of it and zeros in
    every other pivot column.  `add` reduces an incoming row against the
    rows already held; a nonzero residue is scaled so that its leftmost
    column becomes a new pivot, and that column is then eliminated from
    the earlier rows.

    The rows given to the constructor are added lightest first, as in
    structured Gaussian elimination: sparse pivot rows cause less fill-in.
    The order changes the cost only, never the result.
    """

    __slots__ = ("cols", "rows")

    def __init__(self, cols: int, rows: Iterable[Mapping[int, Fraction]] = ()):
        self.cols = cols
        self.rows: dict[int, dict[int, Fraction]] = {}
        for row in sorted(rows, key=len):
            self.add(row)

    def reduce(self, row: Mapping[int, Fraction]) -> dict[int, Fraction]:
        """Residue of a sparse row after elimination against the held rows.

        A held row is zero in every other pivot column, so one pass over
        the pivot columns of the input suffices.
        """
        out = dict(row)
        for p in [c for c in out if c in self.rows]:
            _axpy(out, -out[p], self.rows[p])
        return out

    def add(self, row: Mapping[int, Fraction]) -> bool:
        """Extend the row space by `row`; False when it was already inside."""
        residue = self.reduce(row)
        if not residue:
            return False
        lead = min(residue)
        scale = residue[lead]
        if scale != 1:
            residue = {j: x / scale for j, x in residue.items()}
        for held in self.rows.values():
            f = held.get(lead)
            if f:
                _axpy(held, -f, residue)
        self.rows[lead] = residue
        return True

    @property
    def pivots(self) -> tuple[int, ...]:
        return tuple(sorted(self.rows))

    def dense_rows(self) -> tuple[Vector, ...]:
        """The reduced rows in pivot order, as dense vectors."""
        width = range(self.cols)
        return tuple(tuple(self.rows[p].get(j, _ZERO) for j in width) for p in self.pivots)

    def kernel(self) -> tuple[Vector, ...]:
        """Basis of {v : row . v = 0 for every row}, in free-column order.

        Each vector has a 1 in its free coordinate and zeros in the other
        free coordinates.
        """
        basis: list[Vector] = []
        for free in range(self.cols):
            if free in self.rows:
                continue
            v = [_ZERO] * self.cols
            v[free] = _ONE
            for p, row in self.rows.items():
                x = row.get(free)
                if x:
                    v[p] = -x
            basis.append(tuple(v))
        return tuple(basis)


def sparse(v: Iterable[int | str | Fraction]) -> dict[int, Fraction]:
    """The nonzero entries of a dense vector, keyed by index."""
    return {j: x for j, x in enumerate(map(frac, v)) if x}


def _echelon(m: Matrix) -> Echelon:
    return Echelon(m.cols, map(sparse, m.data))


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and the tuple of pivot columns.

    The zero rows follow the pivot rows, so the shape is that of m.  The
    result is the unique reduced form of the row space.
    """
    e = _echelon(m)
    zeros = (zero_vector(m.cols),) * (m.rows - len(e.rows))
    return Matrix(e.dense_rows() + zeros, cols=m.cols), e.pivots


def rank(m: Matrix) -> int:
    return len(_echelon(m).rows)


def kernel_basis(m: Matrix) -> tuple[Vector, ...]:
    """Basis of the right null space {v : m v = 0}, as `Echelon.kernel`."""
    return _echelon(m).kernel()


def solve(m: Matrix, rhs: Sequence[Fraction]) -> Vector | None:
    """One solution of m x = rhs with all free variables zero, or None.

    None signals an inconsistent system.  When the system is consistent
    the returned solution is canonical (free coordinates zero).
    """
    if len(rhs) != m.rows:
        raise ValueError("rhs of length %d against %d rows" % (len(rhs), m.rows))
    n = m.cols
    e = Echelon(n + 1, (sparse(row + (b,)) for row, b in zip(m.data, map(frac, rhs))))
    if n in e.rows:
        return None
    x = [_ZERO] * n
    for p, row in e.rows.items():
        x[p] = row.get(n, _ZERO)
    return tuple(x)


def inverse(m: Matrix) -> Matrix | None:
    """Inverse of a square matrix, or None when singular."""
    if m.rows != m.cols:
        raise ValueError("inverse of a non-square %dx%d matrix" % (m.rows, m.cols))
    n = m.rows
    e = Echelon(2 * n, ({**sparse(row), n + i: _ONE} for i, row in enumerate(m.data)))
    if any(p not in e.rows for p in range(n)):
        return None
    return Matrix([[e.rows[p].get(n + j, _ZERO) for j in range(n)] for p in range(n)], cols=n)


def common_denominator(values: Iterable[Fraction]) -> int:
    """Least common denominator of rationals (1 for none)."""
    den = 1
    for x in values:
        d = x.denominator
        if d != 1:
            den = den // math.gcd(den, d) * d
    return den


def integer_grid(m: Matrix) -> list[list[int]]:
    """The entries times their least common denominator, as plain ints.

    A nonzero multiple has the same rank as m, and its powers the same
    ranks as the powers of m, so rank sequences can use fraction-free
    elimination, which is much cheaper than Fraction arithmetic.
    """
    scale = common_denominator(x for row in m.data for x in row)
    return [[x.numerator * (scale // x.denominator) for x in row] for row in m.data]


def integer_matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """Product of integer grids (a is r x n, b is n x c)."""
    rows_b = len(b)
    cols_b = len(b[0]) if b else 0
    result = []
    for row in a:
        acc = [0] * cols_b
        for idx in range(rows_b):
            f = row[idx]
            if f:
                brow = b[idx]
                for j in range(cols_b):
                    if brow[j]:
                        acc[j] += f * brow[j]
        result.append(acc)
    return result


def integer_rank(grid: Sequence[Sequence[int]], cols: int) -> int:
    """Rank of an integer matrix by fraction-free (Bareiss) elimination.

    Every row below the pivot is updated with the one-step Bareiss rule,
    including rows with a zero in the pivot column: that scaling is what
    keeps every later division by the previous pivot exact.  Agrees with
    rank(Matrix(...)) on all inputs; exercised against it in the tests.
    """
    m = [list(row) for row in grid if any(row)]
    if not m:
        return 0
    r = 0
    prev = 1
    for c in range(cols):
        pivot_row = None
        for i in range(r, len(m)):
            if m[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        piv = m[r][c]
        top = m[r]
        for i in range(r + 1, len(m)):
            cur = m[i]
            f = cur[c]
            for j in range(c + 1, cols):
                cur[j] = (piv * cur[j] - f * top[j]) // prev
            cur[c] = 0
        prev = piv
        r += 1
        if r == len(m):
            break
    return r
