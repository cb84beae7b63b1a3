"""Exact linear algebra over the rationals.

The scalar type is `fractions.Fraction`: arbitrary-precision rationals,
always in lowest terms with positive denominator, so every computation in
this module is exact.  A `Matrix` is immutable and stored once, as
sparse int rows over one denominator in canonical form, so a consumer
that works on ints, as `rank`, `inverse`, `verify_isomorphism` and
`files.matrix_to_dict` do, never builds its Fractions; its `Fraction`
grid `data` is derived on first read.

Elimination has one kernel, `Echelon`, and it is fraction-free: rows
are sparse dicts {column: int}, held primitive (content 1) with a
positive pivot entry, so each is a positive multiple of its reduced row.
An incoming row of ints or Fractions has its denominators cleared once,
is reduced against the pivot rows already found, its leftmost nonzero
column becomes a new pivot, and that column is eliminated from the
earlier pivot rows; `Fraction`s appear only where a reduced row, a
residue or a `kernel_basis` vector is handed back.  The cocycle
systems this package eliminates have n^3 integer rows over n^2 unknowns with
only a few nonzeros per row, which is where the sparse rows pay.
`rank`, `kernel_basis`, `inverse`, `core.Subspace`, the class
echelon of `cohomology`, which also yields coboundary preimages, the
class algebra of `extension.reduce_extension` (one echelon per call,
whose pivot entries also give the inverse of its row operations) and
the singularity test of `isomorphism.verify_isomorphism` all go through
it.  Bareiss elimination (`integer_rank`) on dense int grids serves
only the rank sequences of powers of a matrix (Jordan types): on the
5-8-dimensional dense grids of the characteristic sequence, whose sweep
mostly stops at the first rank, that rank took 9-24 us against 28-62 us
by `Echelon` on a 2-vCPU host.  `core` builds those grids as ints, from
an algebra's integer table or from `Matrix._int_rows`.

Determinism conventions, relied on throughout the package:

* The reduced row echelon form of a row space is unique, so the rows
  and pivots of an `Echelon` are canonical whatever the order in which
  rows were added or eliminated.
* `kernel_basis` enumerates free columns in increasing order and sets the
  free coordinate of each basis vector to 1.

A rational vector from outside the kernel is read by one reader,
`_integer_vector`: the `Matrix` constructor, `Matrix.apply`,
`core.bracket`, `core.right_mult_operator`, `core.Subspace` and
`cohomology.BilinearForm.evaluate` all clear theirs with it, so each
takes ints, Fractions and literals like "1/2" and refuses floats.
`Echelon` takes only ints and Fractions (`_exact_row`).
`parse_rational`, the one parser of rational literals behind `frac`,
refuses exponents.  No module of the package holds a float: witnesses
that need irrational entries are certified exactly by
`isomorphism.verify_scaling`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

Scalar = Fraction
Vector = tuple[Fraction, ...]
# The rows of a matrix times a common denominator: the nonzero (column, int) pairs of each row.
IntRows = tuple[tuple[tuple[int, int], ...], ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def parse_rational(text: str) -> tuple[int, int]:
    """The rational literal `text` as (numerator, denominator), in lowest terms, denominator positive.

    The one parser of rational literals.  Plain ASCII "-?digits" and
    "-?digits/digits" are read by `int` directly; every other literal
    goes through `Fraction(text)`, so the spellings it accepts ("1_0",
    " 3", "+3", "1.5", non-ASCII digits) keep their values, and a zero
    denominator or a numeral beyond `int`'s digit limit raises its error.
    A literal with an exponent is refused first: `Fraction("1e4000000")`
    builds 10^4000000 before any check.
    """
    body = text[1:] if text[:1] == "-" else text
    num, slash, den = body.partition("/")
    if body.isascii() and num.isdigit() and (not slash or den.isdigit()):
        try:
            p, q = int(num), int(den) if slash else 1
        except ValueError:  # past the digit limit: Fraction raises the same error below
            pass
        else:
            if q:
                if body is not text:
                    p = -p
                g = math.gcd(p, q)
                return (p // g, q // g) if g != 1 else (p, q)
    if "e" in text or "E" in text:
        raise ValueError("refusing rational literal with an exponent: %r" % (text,))
    x = Fraction(text)
    return x.numerator, x.denominator


def frac(value: int | str | Fraction) -> Fraction:
    """Coerce an int, a string like '-3/2', or a Fraction to a Fraction.

    Floats are rejected: silent binary-to-rational conversion is how
    inexactness sneaks into an exact pipeline.  Strings go through
    `parse_rational`, which refuses exponents.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError("refusing to coerce float %r to an exact rational" % (value,))
    if isinstance(value, str):
        return Fraction(*parse_rational(value))
    return Fraction(value)


def vec(entries: Iterable[int | str | Fraction]) -> Vector:
    return tuple(frac(x) for x in entries)


def zero_vector(n: int) -> Vector:
    return (_ZERO,) * n


def unit_vector(n: int, i: int) -> Vector:
    if not 0 <= i < n:
        raise IndexError("unit vector index %d out of range for length %d" % (i, n))
    return tuple(_ONE if j == i else _ZERO for j in range(n))


def _integer_vector(x: Iterable[int | str | Fraction]) -> tuple[list[int], int]:
    """x as ints over their least common denominator, with that denominator.

    Entries that are not ints or `Fraction`s go through `frac`, so a float is refused.
    """
    x = [v if type(v) is Fraction or type(v) is int else frac(v) for v in x]
    den = common_denominator(x)
    if den == 1:
        return [v.numerator for v in x], 1
    return [v.numerator * (den // v.denominator) for v in x], den


class Matrix:
    """Immutable matrix of rationals, stored once: sparse int rows over one denominator.

    `_ints` is (rows, den): each row the nonzero (column, int) pairs in
    column order, den > 0, and no common factor of den and the entries,
    so equal matrices have equal `_ints`, which equality and the hash
    compare.  Entries given to the constructor are read by
    `_integer_vector`, so ints, Fractions and literals like "-3/2" are
    taken and floats and exponent literals refused; `_from_ints` builds
    from int rows directly.  An explicit `cols` count is required when
    constructing a matrix with zero rows, since the width cannot be
    inferred.  `data`, the rows as tuples of Fractions, is derived on
    first read.
    """

    __slots__ = ("rows", "cols", "_data", "_ints")

    def __init__(self, data: Iterable[Iterable[int | str | Fraction]], cols: int | None = None):
        grid = [list(row) for row in data]
        if grid:
            width = len(grid[0])
            if any(len(row) != width for row in grid):
                raise ValueError("ragged rows in matrix literal")
            if cols is not None and cols != width:
                raise ValueError("declared column count %d does not match rows of width %d" % (cols, width))
            cols = width
        elif cols is None:
            raise ValueError("a matrix with no rows needs an explicit column count")
        # Over the least common denominator of the entries, the rows are already canonical.
        xs, den = _integer_vector([x for row in grid for x in row])
        self._data, self.rows, self.cols = None, len(grid), cols
        self._ints = (tuple(tuple((j, x) for j, x in enumerate(xs[i * cols:i * cols + cols]) if x)
                            for i in range(len(grid))), den)

    @staticmethod
    def _from_ints(rows: Sequence[Mapping[int, int]], den: int, cols: int) -> "Matrix":
        """The matrix rows / den, from sparse int rows {column: int} over one nonzero den, made canonical."""
        g = math.gcd(den, *(x for row in rows for x in row.values()))
        if den < 0:
            g = -g
        ints = tuple(tuple((j, x // g) for j, x in sorted(row.items()) if x) for row in rows)
        m = Matrix.__new__(Matrix)
        m._data, m.rows, m.cols, m._ints = None, len(ints), cols, (ints, den // g)
        return m

    @property
    def data(self) -> tuple[Vector, ...]:
        """The rows as tuples of Fractions, derived from `_ints` on first read."""
        if self._data is None:
            ints, den = self._ints
            grid = []
            for row in ints:
                v = [_ZERO] * self.cols
                for j, x in row:
                    v[j] = Fraction(x, den)
                grid.append(tuple(v))
            self._data = tuple(grid)
        return self._data

    def _int_rows(self) -> tuple[IntRows, int]:
        """The rows times their least common denominator d, as sparse (column, int) pairs, and d."""
        return self._ints

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix._from_ints([{i: 1} for i in range(n)], 1, n)

    @staticmethod
    def zeros(rows: int, cols: int) -> "Matrix":
        return Matrix._from_ints([{}] * rows, 1, cols)

    @staticmethod
    def from_columns(columns: Sequence[Vector]) -> "Matrix":
        if not columns:
            raise ValueError("from_columns needs at least one column")
        height = len(columns[0])
        return Matrix([[col[i] for col in columns] for i in range(height)], cols=len(columns))

    def row(self, i: int) -> Vector:
        return self.data[i]

    def column(self, j: int) -> Vector:
        return tuple(row[j] for row in self.data)

    def transpose(self) -> "Matrix":
        ints, den = self._ints
        out: list[dict[int, int]] = [{} for _ in range(self.cols)]
        for i, row in enumerate(ints):
            for j, x in row:
                out[j][i] = x
        return Matrix._from_ints(out, den, self.rows)

    def apply(self, v: Sequence[int | str | Fraction]) -> Vector:
        """Matrix-vector product, in `Fraction`s.

        v is read by `_integer_vector`, as the constructor reads entries, and
        multiplied into the int rows, so each entry of the result is one
        `Fraction` built from an int sum.
        """
        if len(v) != self.cols:
            raise ValueError("vector of length %d against %d columns" % (len(v), self.cols))
        xs, dv = _integer_vector(v)
        rows, d = self._ints
        den = d * dv
        return tuple(Fraction(s, den) if (s := sum([c * xs[j] for j, c in row])) else _ZERO for row in rows)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch %dx%d @ %dx%d" % (self.rows, self.cols, other.rows, other.cols))
        (left, da), (right, db) = self._ints, other._ints
        out = []
        for row in left:
            acc: dict[int, int] = {}
            for k, x in row:
                for j, y in right[k]:
                    acc[j] = acc.get(j, 0) + x * y
            out.append(acc)
        return Matrix._from_ints(out, da * db, other.cols)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Matrix) and self.cols == other.cols and self._ints == other._ints

    def __hash__(self) -> int:
        return hash((self.cols, self._ints))

    def __repr__(self) -> str:
        return "Matrix(%d x %d)" % (self.rows, self.cols)


def _exact_row(row: Mapping[int, int | Fraction]) -> tuple[dict[int, int], int]:
    """The nonzero entries of a row times their common denominator d, and d.

    Only ints and Fractions are exact; anything else is refused, as in
    `frac`, before it can enter an elimination.
    """
    den = 1
    for x in row.values():
        if type(x) is not int:
            if isinstance(x, Fraction):
                d = x.denominator
                if den % d:
                    den = den // math.gcd(den, d) * d
            elif not isinstance(x, int):
                raise TypeError("refusing to eliminate %s %r as an exact rational" % (type(x).__name__, x))
    if den == 1:
        return {j: x.numerator for j, x in row.items() if x}, 1
    return {j: x.numerator * (den // x.denominator) for j, x in row.items() if x}, den


def _cancel(row: dict[int, int], p: int, by: Mapping[int, int]) -> int:
    """Zero column p of an int row in place by row <- m*row - f*by; return m.

    m = by[p] / gcd(by[p], row[p]) is positive whenever by[p] is, and the
    entries that cancel are dropped.
    """
    q = by[p]
    f = row[p]
    g = math.gcd(q, f)
    m = q // g
    if m != 1:
        for j in row:
            row[j] *= m
    f //= g
    for j, v in by.items():
        w = row.get(j, 0) - f * v
        if w:
            row[j] = w
        else:
            del row[j]
    return m


class Echelon:
    """The reduced row echelon form of a growing row space, fraction-free.

    `held` maps each pivot column to its row, a dict {column: nonzero
    int} that is primitive (its entries have gcd 1), positive at the
    pivot, empty left of it and zero in every other pivot column: a
    positive multiple of the row of the reduced row echelon form.  An
    incoming row of ints or Fractions has its denominators cleared once;
    `add` reduces it against the held rows, makes a nonzero residue
    primitive with a positive leading entry, and eliminates that new pivot
    column from the earlier rows; it is `reduce_ints`, which returns the
    int residue with the factor it was scaled by, followed by `insert`.
    Elimination runs on ints only, and so does `kernel`; `dense_rows`
    divides by the pivot, where a Fraction is handed back.

    The rows given to the constructor are added lightest first, as in
    structured Gaussian elimination: sparse pivot rows cause less fill-in.
    The order changes the cost only, never the result.
    """

    __slots__ = ("cols", "held")

    def __init__(self, cols: int, rows: Iterable[Mapping[int, int | Fraction]] = ()):
        self.cols = cols
        self.held: dict[int, dict[int, int]] = {}
        for row in sorted(rows, key=len):
            self.add(row)

    def _eliminate(self, row: dict[int, int]) -> int:
        """Reduce an int row in place against the held rows; return the factor it was scaled by.

        A held row is zero in every other pivot column, so one pass over
        the pivot columns of the input suffices.
        """
        held = self.held
        scale = 1
        for p in [c for c in row if c in held]:
            scale *= _cancel(row, p, held[p])
        return scale

    def reduce_ints(self, row: Mapping[int, int]) -> tuple[dict[int, int], int]:
        """Residue of a sparse int row against the held rows, and its scale s.

        The residue is s times (row minus a combination of the held rows),
        so the exact residue is residue / s; it is empty exactly when the
        row lies in the row space.  The input is not modified.
        """
        residue = dict(row)
        return residue, self._eliminate(residue)

    def add(self, row: Mapping[int, int | Fraction]) -> bool:
        """Extend the row space by `row`; False when it was already inside."""
        residue, _ = _exact_row(row)
        self._eliminate(residue)
        return self.insert(residue)

    def insert(self, residue: dict[int, int]) -> bool:
        """Make a residue of `reduce_ints` a new pivot row; False when it is empty.

        The residue must be reduced against the held rows as they are now;
        the dict is taken over, not copied.
        """
        if not residue:
            return False
        lead = min(residue)
        g = math.gcd(*residue.values())
        if residue[lead] < 0:
            g = -g
        if g != 1:
            residue = {j: x // g for j, x in residue.items()}
        for held in self.held.values():
            if lead in held:
                _cancel(held, lead, residue)
                g = math.gcd(*held.values())
                if g != 1:
                    for j in held:
                        held[j] //= g
        self.held[lead] = residue
        return True

    @property
    def pivots(self) -> tuple[int, ...]:
        return tuple(sorted(self.held))

    def dense_rows(self) -> tuple[Vector, ...]:
        """The reduced rows in pivot order, as dense vectors."""
        out = []
        for p in self.pivots:
            row = self.held[p]
            q = row[p]
            v = [_ZERO] * self.cols
            for j, x in row.items():
                v[j] = Fraction(x, q)
            # Cached bases hold these rows; a shared 1 at each pivot keeps
            # them from holding one more Fraction per row.
            v[p] = _ONE
            out.append(tuple(v))
        return tuple(out)

    def kernel(self) -> tuple[dict[int, int], ...]:
        """Basis of {v : row . v = 0 for every row}, in free-column order, as sparse int rows.

        Each row is primitive, positive at its free coordinate and zero at
        the other free coordinates.
        """
        basis = []
        for free in range(self.cols):
            if free in self.held:
                continue
            terms = [(p, row[p], x) for p, row in self.held.items() if (x := row.get(free))]
            scale = math.lcm(*(q // math.gcd(q, x) for _, q, x in terms))
            basis.append({free: scale, **{p: -x * scale // q for p, q, x in terms}})
        return tuple(basis)


def sparse(v: Iterable[int | Fraction]) -> dict[int, int | Fraction]:
    """The nonzero entries of a dense vector, keyed by index.

    Entries pass through as they are: `Echelon` refuses inexact ones.
    """
    return {j: x for j, x in enumerate(v) if x}


def _echelon(m: Matrix) -> Echelon:
    return Echelon(m.cols, map(dict, m._ints[0]))


def rank(m: Matrix) -> int:
    return len(_echelon(m).held)


def kernel_basis(m: Matrix) -> tuple[Vector, ...]:
    """Basis of the right null space {v : m v = 0}, as `Echelon.kernel` with a 1 at each free coordinate."""
    e = _echelon(m)
    frees = [c for c in range(m.cols) if c not in e.held]
    return tuple(tuple(Fraction(v.get(j, 0), v[f]) for j in range(m.cols)) for f, v in zip(frees, e.kernel()))


def inverse(m: Matrix) -> Matrix | None:
    """Inverse of a square matrix, or None when singular: with m = R / d, the rref of [R | d*I] is [I | m^-1]."""
    if m.rows != m.cols:
        raise ValueError("inverse of a non-square %dx%d matrix" % (m.rows, m.cols))
    n = m.rows
    rows, d = m._ints
    e = Echelon(2 * n, ({**dict(row), n + i: d} for i, row in enumerate(rows)))
    if any(p not in e.held for p in range(n)):
        return None
    held = sorted(e.held.items())  # each row is its rref row times its pivot entry
    den = math.lcm(*(row[p] for p, row in held))
    return Matrix._from_ints([{j - n: x * den // row[p] for j, x in row.items() if j >= n} for p, row in held], den, n)


def common_denominator(values: Iterable[Fraction]) -> int:
    """Least common denominator of rationals (1 for none)."""
    den = 1
    for x in values:
        d = x.denominator
        if d != 1:
            den = den // math.gcd(den, d) * d
    return den


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
