"""Finite-dimensional Leibniz algebras over the rationals.

An algebra is a dimension together with structure constants for a
bilinear bracket satisfying the (right) Leibniz identity

    [x, [y, z]] = [[x, y], z] - [[x, z], y].

Everything downstream (lower central series, center, annihilators,
characteristic sequence, natural gradation) is computed exactly with the
fraction-free elimination of `linalg`, and a subspace is stored once, as
the `Echelon` of sparse int rows that span it (`Subspace`); its dense
rref `basis` is a view.  All values are immutable; the
module-level operations are pure functions, and the expensive structural
ones are memoized on the algebra value.

An algebra stores its structure constants in one form, the canonical
integer table (`Algebra.table`): the least common denominator D of the
structure constants and the nonzero products D*c as plain ints, keyed by
basis pair.  Every constructor hands 1-based (i, j, k, c) records, the
same records `Algebra.products()` yields, to `_from_records`, the
`Fraction` front of the one function that makes that table,
`_from_int_records`; `files` reads a document straight into int records
for it.  Only `extension.central_extension` puts its table together from
the base's table and the cocycle's int entries, in the same canonical
order.
Brackets, the Leibniz
check, the lower central series, the center, annihilator and squares
systems and the right multiplication grids of the characteristic
sequence run on machine ints and divide by D only where a rational
result is returned.  Equality and
the hash of an algebra are computed from the table, the hash once, so a
memo lookup does not walk n^3 entries.  The dense n x n x n `Fraction`
grid `Algebra.sc` is a view derived on demand, for display and for
reference checks; no code in the package reads it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from . import linalg
from .linalg import (
    Echelon,
    Matrix,
    Vector,
    _integer_vector,
    frac,
    inverse,
    sparse,
)

_ZERO = Fraction(0)

# Fixed seed for the pseudo-random probe vectors of characteristic_sequence.
CHARSEQ_SEED = 1729
CHARSEQ_RANDOM_TRIALS = 32

# Largest dimension accepted where an algebra or a cochain is built from
# sparse input; a dim^3 table is allocated right after this check.
MAX_DIM = 64


def require_dim(dim: int) -> None:
    """Refuse a dimension above MAX_DIM before anything is allocated."""
    if dim > MAX_DIM:
        raise ValueError("dimension %d exceeds the limit of %d" % (dim, MAX_DIM))


class NotNilpotentError(ValueError):
    """Raised by operations that require a nilpotent algebra."""


class LeibnizViolation(NamedTuple):
    """One failing instance of the Leibniz identity on basis vectors.

    Indices are 1-based to match printed multiplication tables; `defect`
    is [e_i,[e_j,e_k]] - [[e_i,e_j],e_k] + [[e_i,e_k],e_j] in coordinates.
    """

    i: int
    j: int
    k: int
    defect: Vector


class LeibnizError(ValueError):
    def __init__(self, violation: LeibnizViolation, total: int):
        self.violation = violation
        self.total = total
        super().__init__(
            "Leibniz identity fails on (e%d, e%d, e%d), defect %s (%d violating triple%s)"
            % (violation.i, violation.j, violation.k, violation.defect, total, "s" if total != 1 else "")
        )


class IntegerTable(NamedTuple):
    """The structure constants over their least common denominator.

    `products[(i, j)]` holds the nonzero (k, D*c) of [e_i, e_j], 0-based,
    k ascending; pairs with a zero bracket are absent and the keys run in
    (i, j) sweep order.  D is the least common denominator, so equal
    tables have equal views.
    """

    denominator: int
    products: dict[tuple[int, int], tuple[tuple[int, int], ...]]


def _rational_vector(ints: Sequence[int], den: int) -> Vector:
    """The vector ints / den, back in Fractions."""
    return tuple(Fraction(v, den) if v else _ZERO for v in ints)


@dataclass(frozen=True, eq=False)
class Algebra:
    """A finite-dimensional algebra given by its integer structure table.

    `table` is the canonical integer form of the structure constants, the
    only one stored; `sc[i][j]`, the coordinate vector of [e_i, e_j]
    (0-based), is a dense view derived from it.  Labels are presentation
    only and do not take part in equality or hashing.  `checked` records
    whether the Leibniz identity was verified at construction; it is
    metadata, not part of the value.  Equality and the hash compare
    `table`.
    """

    dim: int
    table: IntegerTable
    labels: tuple[str, ...] | None = field(default=None, compare=False)
    checked: bool = field(default=False, compare=False)

    def __post_init__(self) -> None:
        if self.dim < 0:
            raise ValueError("negative dimension")

    @cached_property
    def sc(self) -> tuple[tuple[Vector, ...], ...]:
        """The dense dim x dim grid of bracket vectors, built on first use."""
        n = self.dim
        grid = [[[_ZERO] * n for _ in range(n)] for _ in range(n)]
        for i, j, k, c in self.products():
            grid[i - 1][j - 1][k - 1] = c
        return tuple(tuple(tuple(v) for v in row) for row in grid)

    @cached_property
    def _hash(self) -> int:
        table = self.table
        return hash((self.dim, table.denominator, tuple(table.products.items())))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Algebra):
            return NotImplemented
        return self is other or (self.dim == other.dim and self.table == other.table)

    def __hash__(self) -> int:
        return self._hash

    def label(self, i: int) -> str:
        """Display name of basis vector i (0-based)."""
        if self.labels is not None:
            return self.labels[i]
        return "e%d" % (i + 1)

    def products(self) -> Iterable[tuple[int, int, int, Fraction]]:
        """Nonzero structure constants as 1-based (i, j, k, c) records."""
        den = self.table.denominator
        for (i, j), terms in self.table.products.items():
            for k, c in terms:
                yield (i + 1, j + 1, k + 1, Fraction(c, den))


def _from_int_records(
    dim: int,
    records: Iterable[tuple[int, int, int, int, int]],
    labels: Sequence[str] | None = None,
    checked: bool = False,
) -> Algebra:
    """The algebra whose structure constants are 1-based (i, j, k, p, q) records, c = p/q.

    The one builder of `Algebra.table`.  Each (i, j, k) occurs at most
    once and omitted ones are zero; p/q is in lowest terms with q > 0.
    Zero records are dropped, the rest sorted into (i, j) sweep order with
    k ascending and put over their least common denominator, so equal
    constants give equal tables whatever order they came in.
    """
    nonzero = sorted(record for record in records if record[3])
    den = math.lcm(*(q for *_, q in nonzero))
    products: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for i, j, k, p, q in nonzero:
        products.setdefault((i - 1, j - 1), []).append((k - 1, p * (den // q)))
    table = IntegerTable(den, {key: tuple(terms) for key, terms in products.items()})
    return Algebra(dim, table, tuple(labels) if labels is not None else None, checked)


def _from_records(
    dim: int,
    records: Iterable[tuple[int, int, int, Fraction]],
    labels: Sequence[str] | None = None,
    checked: bool = False,
) -> Algebra:
    """The algebra whose structure constants are 1-based (i, j, k, c) records, c rational.

    `_from_int_records` on each c as its lowest terms.
    """
    return _from_int_records(
        dim, ((i, j, k, c.numerator, c.denominator) for i, j, k, c in records), labels, checked
    )


def algebra_from_products(
    dim: int,
    products: Mapping[tuple[int, int], Mapping[int, int | str | Fraction]],
    labels: Sequence[str] | None = None,
    check: bool = True,
) -> Algebra:
    """Build an algebra from a sparse 1-based multiplication table.

    `products[(i, j)][k] = c` means [e_i, e_j] has coefficient c on e_k;
    omitted products are zero.  With `check=True` (the default) the
    Leibniz identity is verified and the first violation raised.  A
    dimension above MAX_DIM is refused before the table is allocated.
    """
    require_dim(dim)
    records = []
    for (i, j), targets in products.items():
        if not (1 <= i <= dim and 1 <= j <= dim):
            raise ValueError("product index (%d, %d) out of range for dim %d" % (i, j, dim))
        for k, c in targets.items():
            if not 1 <= k <= dim:
                raise ValueError("target index %d out of range for dim %d" % (k, dim))
            records.append((i, j, k, frac(c)))
    algebra = _from_records(dim, records, labels)
    if check:
        violations = check_leibniz(algebra)
        if violations:
            raise LeibnizError(violations[0], len(violations))
        object.__setattr__(algebra, "checked", True)
    return algebra


def abelian_algebra(dim: int) -> Algebra:
    return _from_records(dim, (), checked=True)


def direct_sum(a: Algebra, b: Algebra) -> Algebra:
    """Direct sum with b's basis appended after a's."""
    n = a.dim
    shifted = ((i + n, j + n, k + n, c) for i, j, k, c in b.products())
    return _from_records(n + b.dim, [*a.products(), *shifted], checked=a.checked and b.checked)


def transform_algebra(a: Algebra, q: Matrix) -> Algebra:
    """The algebra on the basis whose q-columns express it in a's coordinates.

    The result is isomorphic to a via q by construction.
    """
    if q.rows != a.dim or q.cols != a.dim:
        raise ValueError("change of basis must be %d x %d" % (a.dim, a.dim))
    qinv = inverse(q)
    if qinv is None:
        raise ValueError("change of basis is singular")
    n = a.dim
    rows, d = q._int_rows()
    cols = [[0] * n for _ in range(n)]  # column j of d*q, dense
    for r, row in enumerate(rows):
        for j, x in row:
            cols[j][r] = x
    inv_rows, d_inv = qinv._int_rows()
    den = d_inv * d * d * a.table.denominator
    records = []
    for i, x in enumerate(cols):
        for j, y in enumerate(cols):
            acc = _bracket_ints(a, x, y)  # d*d*D_a times [q e_i, q e_j], in a's coordinates
            for k, row in enumerate(inv_rows):
                v = sum([c * acc[t] for t, c in row])
                if v:
                    g = math.gcd(v, den)
                    records.append((i + 1, j + 1, k + 1, v // g, den // g))
    return _from_int_records(n, records, checked=a.checked)


def bracket(a: Algebra, x: Sequence[Fraction], y: Sequence[Fraction]) -> Vector:
    """Bilinear extension of the bracket to coordinate vectors."""
    if len(x) != a.dim or len(y) != a.dim:
        raise ValueError("vectors must have length %d" % a.dim)
    xs, dx = _integer_vector(x)
    ys, dy = _integer_vector(y)
    return _rational_vector(_bracket_ints(a, xs, ys), dx * dy * a.table.denominator)


def _bracket_ints(a: Algebra, xs: Sequence[int], ys: Sequence[int]) -> list[int]:
    """D_a times the bracket of two int coordinate vectors, on a's integer products."""
    acc = [0] * a.dim
    for (i, j), terms in a.table.products.items():
        f = xs[i] * ys[j]
        if f:
            for k, c in terms:
                acc[k] += f * c
    return acc


def _products_by_row(a: Algebra) -> list[list[tuple[int, tuple[tuple[int, int], ...]]]]:
    """a's integer products grouped by their first index: row i lists (j, terms of [e_i, e_j])."""
    out = [[] for _ in range(a.dim)]
    for (i, j), terms in a.table.products.items():
        out[i].append((j, terms))
    return out


def check_leibniz(a: Algebra) -> list[LeibnizViolation]:
    """All violating basis triples, 1-based, in (i, j, k) order, with their defect vectors.

    The defect of (e_i, e_j, e_k) is [e_i,[e_j,e_k]] - [[e_i,e_j],e_k]
    + [[e_i,e_k],e_j]; on the integer products it comes out times D^2.
    It is scattered one first index i at a time, over pairs of nonzero
    products only: each product [e_i, e_m] meets every product with e_m
    in its target, which gives the first term of all (j, k) at once, and
    each product [e_i, e_x] with coefficient c on e_m meets every product
    [e_m, e_y], which gives the second term at (x, y) and the third at
    (y, x).  Only the sums of one i are held, in one flat int dict, and a
    triple whose sum is zero is no violation, so the result is that of
    the sweep over all n^3 triples.
    """
    n = a.dim
    table = a.table
    by_left = _products_by_row(a)
    by_target: list[list[tuple[int, int]]] = [[] for _ in range(n)]  # m -> ((j*n + k)*n, coefficient of e_m)
    for (j, k), terms in table.products.items():
        for m, c in terms:
            by_target[m].append(((j * n + k) * n, c))
    scale = table.denominator**2
    violations = []
    for i in range(n):
        sums: dict[int, int] = {}  # (j*n + k)*n + t -> entry t of the defect at (i, j, k)
        get = sums.get
        for m, terms in by_left[i]:
            for jk, c in by_target[m]:
                for t, s in terms:
                    sums[jk + t] = get(jk + t, 0) + c * s
        for x, terms in by_left[i]:
            for m, c in terms:
                for y, products in by_left[m]:
                    if y == x:  # the second and third terms cancel
                        continue
                    minus, plus = (x * n + y) * n, (y * n + x) * n
                    for t, s in products:
                        f = c * s
                        sums[minus + t] = get(minus + t, 0) - f
                        sums[plus + t] = get(plus + t, 0) + f
        defect: list[int] = []
        last = -1
        for key in sorted(key for key, v in sums.items() if v):
            jk, t = divmod(key, n)
            if jk != last:
                if defect:
                    violations.append(_violation(i, last, n, defect, scale))
                defect, last = [0] * n, jk
            defect[t] = sums[key]
        if defect:
            violations.append(_violation(i, last, n, defect, scale))
    return violations


def _violation(i: int, jk: int, n: int, defect: list[int], scale: int) -> LeibnizViolation:
    j, k = divmod(jk, n)
    return LeibnizViolation(i + 1, j + 1, k + 1, _rational_vector(defect, scale))


def _check_ambient(size: int, ambient: int) -> None:
    if size != ambient:
        raise ValueError("ambient dimension %d against %d" % (size, ambient))


class Subspace:
    """Subspace of Q^ambient, stored once: the fraction-free `Echelon` of a spanning set.

    Its held rows, the rref as primitive ints, are unique, so equality and
    the hash compare them; `basis`, the rref as dense `Fraction` rows, is
    derived on each use and not kept.  `Subspace(ambient, rows)` spans
    sparse rows {column: int or Fraction}; `span`, `reduce` and `contains`
    read dense vectors by `_integer_vector`.  The echelon is never changed
    after construction: subspaces are memoized.
    """

    __slots__ = ("ambient", "_echelon")

    def __init__(self, ambient: int, rows: Iterable[Mapping[int, int | Fraction]]):
        self.ambient = ambient
        self._echelon = Echelon(ambient, rows)

    @staticmethod
    def span(ambient: int, vectors: Iterable[Sequence[Fraction]]) -> "Subspace":
        rows = []
        for v in vectors:
            _check_ambient(len(v), ambient)
            rows.append(sparse(_integer_vector(v)[0]))
        return Subspace(ambient, rows)

    @staticmethod
    def full(ambient: int) -> "Subspace":
        return Subspace(ambient, ({i: 1} for i in range(ambient)))

    @property
    def basis(self) -> tuple[Vector, ...]:
        """The rref rows in pivot order, each with a 1 at its pivot."""
        return self._echelon.dense_rows()

    @property
    def pivots(self) -> tuple[int, ...]:
        return self._echelon.pivots

    @property
    def dim(self) -> int:
        return len(self._echelon.held)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient == other.ambient and self._echelon.held == other._echelon.held

    def __hash__(self) -> int:
        held = self._echelon.held
        return hash((self.ambient, tuple((p, tuple(sorted(held[p].items()))) for p in sorted(held))))

    def __repr__(self) -> str:
        return "Subspace(ambient=%d, pivots=%r)" % (self.ambient, self.pivots)

    def reduce(self, v: Sequence[Fraction]) -> Vector:
        """Residue of v after elimination against the rref basis."""
        _check_ambient(len(v), self.ambient)
        xs, den = _integer_vector(v)
        residue, scale = self._echelon.reduce_ints(sparse(xs))
        return tuple(Fraction(residue.get(j, 0), den * scale) for j in range(self.ambient))

    def contains(self, v: Sequence[Fraction]) -> bool:
        _check_ambient(len(v), self.ambient)
        return not self._echelon.reduce_ints(sparse(_integer_vector(v)[0]))[0]

    def contains_subspace(self, other: "Subspace") -> bool:
        _check_ambient(other.ambient, self.ambient)
        return not any(self._echelon.reduce_ints(row)[0] for row in other._echelon.held.values())

    def sum(self, other: "Subspace") -> "Subspace":
        _check_ambient(other.ambient, self.ambient)
        return Subspace(self.ambient, [*self._echelon.held.values(), *other._echelon.held.values()])


def complement_inside(outer: Subspace, inner: Subspace) -> tuple[Vector, ...]:
    """Deterministic complement of `inner` inside `outer`.

    Returns the rref basis rows of `outer` whose pivot columns are not
    pivot columns of `inner`.  Because inner is contained in outer, its
    pivots are a subset of outer's and the selected rows span a
    complement.
    """
    if not outer.contains_subspace(inner):
        raise ValueError("inner subspace is not contained in outer")
    inner_pivots = set(inner.pivots)
    return tuple(row for row, p in zip(outer.basis, outer.pivots) if p not in inner_pivots)


def _right_brackets(a: Algebra, u: Mapping[int, int]) -> list[dict[int, int]]:
    """Sparse int rows proportional to [u, e_j] for a sparse int row u, one per j with a nonzero bracket."""
    rows: dict[int, dict[int, int]] = {}
    for (i, j), terms in a.table.products.items():
        x = u.get(i)
        if x:
            row = rows.setdefault(j, {})
            for k, c in terms:
                row[k] = row.get(k, 0) + x * c
    return list(rows.values())


@lru_cache(maxsize=None)
def lower_central_series(a: Algebra) -> tuple[Subspace, ...]:
    """L^1 (the whole space) down to the first repeated term.

    L^{k+1} = [L^k, L^1].  For a nilpotent algebra the last entry is the
    zero subspace; otherwise the series stabilizes at a nonzero term.
    """
    series = [Subspace.full(a.dim)]
    while True:
        nxt = Subspace(a.dim, (r for u in series[-1]._echelon.held.values() for r in _right_brackets(a, u)))
        if nxt == series[-1]:
            break
        series.append(nxt)
        if nxt.dim == 0:
            break
    return tuple(series)


def nilindex(a: Algebra) -> int | None:
    """Minimal s with L^s = 0, or None when the series stabilizes above 0."""
    series = lower_central_series(a)
    if series[-1].dim != 0:
        return None
    return len(series)


def series_dims(a: Algebra) -> tuple[int, ...]:
    return tuple(s.dim for s in lower_central_series(a))


def classify_shape(a: Algebra) -> str:
    """One of 'null-filiform', 'filiform', 'quasi-filiform', 'other'.

    Tested in that order against the lower-central-series dimensions:
    null-filiform means dim L^i = n+1-i for all i; filiform means
    dim L^i = n-i for i >= 2; quasi-filiform means L^{n-2} != 0 and
    L^{n-1} = 0.  Raises NotNilpotentError when the series does not
    reach zero.
    """
    s = nilindex(a)
    if s is None:
        raise NotNilpotentError("shape classification needs a nilpotent algebra")
    n = a.dim
    dims = list(series_dims(a))
    if dims == list(range(n, -1, -1)):
        return "null-filiform"
    if n >= 2 and dims == [n] + list(range(n - 2, -1, -1)):
        return "filiform"
    if s == n - 1:
        return "quasi-filiform"
    return "other"


def _stacked_kernel(a: Algebra, use_left: bool, use_right: bool) -> Subspace:
    """Kernel of the linear conditions [z, e_j] = 0 and/or [e_j, z] = 0.

    One sparse row per (side, j, k) with a nonzero coefficient; the rows
    are the integer products, D times the conditions, same kernel.
    """
    rows: dict[tuple[bool, int, int], dict[int, int]] = {}
    for (i, j), terms in a.table.products.items():
        for k, c in terms:
            if use_left:
                rows.setdefault((True, j, k), {})[i] = c
            if use_right:
                rows.setdefault((False, i, k), {})[j] = c
    return Subspace(a.dim, Echelon(a.dim, rows.values()).kernel())


@lru_cache(maxsize=None)
def center(a: Algebra) -> Subspace:
    """{z : [z, L] = 0 and [L, z] = 0}."""
    return _stacked_kernel(a, use_left=True, use_right=True)


@lru_cache(maxsize=None)
def left_annihilator(a: Algebra) -> Subspace:
    """{x : [x, L] = 0}."""
    return _stacked_kernel(a, use_left=True, use_right=False)


@lru_cache(maxsize=None)
def right_annihilator(a: Algebra) -> Subspace:
    """{x : [L, x] = 0}."""
    return _stacked_kernel(a, use_left=False, use_right=True)


@lru_cache(maxsize=None)
def squares_subspace(a: Algebra) -> Subspace:
    """Span of {[x, x] : x in L}, via polarization on the basis.

    The rows are [e_i, e_i] and [e_i, e_j] + [e_j, e_i] for i < j, times D.
    """
    rows: dict[tuple[int, int], dict[int, int]] = {}
    for (i, j), terms in a.table.products.items():
        row = rows.setdefault((min(i, j), max(i, j)), {})
        for k, c in terms:
            row[k] = row.get(k, 0) + c
    return Subspace(a.dim, rows.values())


def right_mult_operator(a: Algebra, x: Sequence[Fraction]) -> Matrix:
    """Matrix of y -> [y, x] in the standard basis (columns are images).

    x is cleared to ints over dx once; R_x is `_right_mult_grid` over D*dx.
    """
    if len(x) != a.dim:
        raise ValueError("vector must have length %d" % a.dim)
    xs, dx = _integer_vector(x)
    grid = _right_mult_grid(a, xs)
    return Matrix._from_ints([dict(enumerate(row)) for row in grid], dx * a.table.denominator, a.dim)


def _right_mult_grid(a: Algebra, x: Sequence[int]) -> list[list[int]]:
    """D times R_x for an integer vector x, as an int grid (rows are k)."""
    n = a.dim
    grid = [[0] * n for _ in range(n)]
    for (j, i), terms in a.table.products.items():
        xi = x[i]
        if xi:
            for k, c in terms:
                grid[k][j] += xi * c
    return grid


@dataclass(frozen=True, order=True)
class CharSeq:
    """Weakly decreasing Jordan block sizes; ordered lexicographically."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(p <= 0 for p in self.parts):
            raise ValueError("block sizes must be positive")
        if any(self.parts[i] < self.parts[i + 1] for i in range(len(self.parts) - 1)):
            raise ValueError("block sizes must be weakly decreasing")

    def __str__(self) -> str:
        return "(" + ", ".join(str(p) for p in self.parts) + ")"


def jordan_type_nilpotent(m: Matrix) -> CharSeq:
    """Jordan block sizes of a nilpotent matrix from its rank sequence.

    The number of blocks of size >= s is rank(m^{s-1}) - rank(m^s).
    Raises NotNilpotentError when m^rows != 0.  The ranks are those of the
    powers of m with its denominators cleared, which are the same, found
    by fraction-free (Bareiss) elimination.
    """
    if m.rows != m.cols:
        raise ValueError("Jordan type of a non-square matrix")
    grid = [[row.get(j, 0) for j in range(m.cols)] for row in map(dict, m._int_rows()[0])]
    return _jordan_type_of_grid(grid, m.rows)


def _jordan_type_of_grid(
    grid: list[list[int]], n: int, floor: CharSeq | None = None, cap: int | None = None
) -> CharSeq | None:
    """Jordan type of a nilpotent n x n int grid, by Bareiss rank sequence.

    With a `floor`, which needs `cap`, only a type above the floor is
    returned, and None otherwise: after each rank, `_rank_completion`
    bounds every type with the ranks found so far and no block above
    `cap`, and the chain stops as soon as that bound is at most the floor.
    """
    ranks = [n]
    power = grid
    while True:
        r = linalg.integer_rank(power, n)
        ranks.append(r)
        if floor is not None and _rank_completion(ranks, cap) <= floor.parts:
            return None
        if r == 0:
            break
        if len(ranks) > n + 1:
            raise NotNilpotentError("matrix is not nilpotent")
        power = linalg.integer_matmul(power, grid)
    return _parts_from_ranks(ranks)


def _parts_from_ranks(ranks: list[int]) -> CharSeq:
    parts: list[int] = []
    count_ge = [ranks[s - 1] - ranks[s] for s in range(1, len(ranks))]
    count_ge.append(0)
    for s in range(len(count_ge) - 1, 0, -1):
        exactly = count_ge[s - 1] - count_ge[s]
        parts.extend([s] * exactly)
    parts.sort(reverse=True)
    return CharSeq(tuple(parts))


def _rank_completion(ranks: list[int], cap: int) -> tuple[int, ...]:
    """The largest Jordan type, blocks at most `cap`, whose ranks begin with `ranks`.

    With r_0..r_K known, the blocks below K are fixed (r_{s-1} - 2 r_s +
    r_{s+1} of size s), and the blocks of size >= K number
    c = r_{K-1} - r_K and sum to K c + r_K.  Those are taken greedily,
    each as large as `cap` and the blocks still to come allow, so every
    type with these ranks is at most the result.
    """
    k = len(ranks) - 1
    count = ranks[k - 1] - ranks[k]
    total = k * count + ranks[k]
    parts = []
    for left in range(count - 1, -1, -1):
        p = min(cap, total - k * left)
        parts.append(p)
        total -= p
    for s in range(k - 1, 0, -1):
        parts.extend([s] * (ranks[s - 1] - 2 * ranks[s] + ranks[s + 1]))
    return tuple(parts)


class CharSeqWitness(NamedTuple):
    seq: CharSeq
    witness: Vector
    exact: bool


def _greedy_max_charseq(n: int, cap: int, limits: Sequence[int] = ()) -> CharSeq:
    """Lexicographically largest Jordan type of size n within rank limits.

    Blocks are at most `cap`, and the rank sum(max(p - k, 0)) of the k-th
    power is at most limits[k - 1] for each k it covers.  A block of 1
    adds no rank, so each block is taken as large as the limits allow and
    the rest filled in the same way; the limits only tighten as blocks
    are added, so the blocks come out weakly decreasing.
    """
    parts: list[int] = []
    ranks = [0] * cap
    remaining = n
    while remaining > 0:
        p = min(cap, remaining)
        while p > 1 and any(ranks[k] + p - k > limit for k, limit in enumerate(limits[: p - 1], start=1)):
            p -= 1
        for k in range(1, p):
            ranks[k] += p - k
        parts.append(p)
        remaining -= p
    return CharSeq(tuple(parts))


@lru_cache(maxsize=32)
def _charseq_probes(n: int) -> tuple[tuple[int, ...], ...]:
    """The nonzero candidate vectors in sweep order, as ints.

    Every candidate has integer entries.  A random one is drawn as n
    rationals r/q and scaled by the least common denominator of their
    lowest terms: the Jordan type of R_x is scale-invariant.
    """
    units = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    candidates = list(units)
    for i in range(n):
        for j in range(i + 1, n):
            for sign in (1, -1):
                candidates.append(tuple(x + sign * y for x, y in zip(units[i], units[j])))
    rng = random.Random(CHARSEQ_SEED)
    for _ in range(CHARSEQ_RANDOM_TRIALS):
        draws = [(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(n)]
        scale = math.lcm(*(q // math.gcd(r, q) for r, q in draws))
        candidates.append(tuple(r * scale // q for r, q in draws))
    return tuple(ints for ints in candidates if any(ints))


def _probes_outside(space: Subspace) -> Iterator[tuple[int, ...]]:
    """The probes of `_charseq_probes` outside `space`, in sweep order.

    The int rows of its `Echelon.kernel` are functionals whose common
    kernel is the space, so a probe is inside when each vanishes on it.
    """
    functionals = space._echelon.kernel()
    for ints in _charseq_probes(space.ambient):
        if any(sum(ints[k] * v for k, v in f.items()) for f in functionals):
            yield ints


def _charseq_bound(a: Algebra) -> CharSeq:
    """A certified upper bound on the Jordan type of every R_x.

    R_x^k maps L into L^{k+1}, and its kernel contains the left
    annihilator {y : [y, L] = 0}, so for k >= 1 its rank is at most
    min(dim L^{k+1}, n - dim Ann_left(L)); no block exceeds nilindex - 1.
    The bound is the largest type within those limits.  `a` must be
    nilpotent and nonzero.
    """
    dims = series_dims(a)
    kernel_limit = a.dim - left_annihilator(a).dim
    limits = [min(d, kernel_limit) for d in dims[1:]]
    return _greedy_max_charseq(a.dim, len(dims) - 1, limits)


@lru_cache(maxsize=None)
def characteristic_sequence(a: Algebra) -> CharSeqWitness:
    """Best Jordan type of R_x over a deterministic candidate sweep.

    Candidates are the basis vectors, all pairwise sums e_i +/- e_j, and
    CHARSEQ_RANDOM_TRIALS pseudo-random rational vectors drawn with
    CHARSEQ_SEED, each restricted to lie outside L^2.  The result is the
    lexicographically largest type found, with the first candidate that
    reaches it as witness; `exact` is True only when it reaches the
    a-priori maximum compatible with the nilindex (the largest block of
    R_x is at most nilindex - 1 because R_x^k maps into L^{k+1}).

    Two steps skip only work that cannot change that result.  The sweep
    stops once the best type equals the certified upper bound of
    `_charseq_bound`, which no candidate can exceed.  And each
    candidate's rank chain stops as soon as its ranks so far rule out a
    type above the best one (`_jordan_type_of_grid` with a floor), so a
    later candidate that only ties never replaces the witness.
    """
    s = nilindex(a)
    if s is None:
        raise NotNilpotentError("characteristic sequence needs a nilpotent algebra")
    n = a.dim
    if n == 0:
        return CharSeqWitness(CharSeq(()), (), True)
    cap = s - 1
    # No block of R_x exceeds s - 1: R_x^k maps everything into L^{k+1}.
    target = _greedy_max_charseq(n, cap)
    bound = _charseq_bound(a)
    best: CharSeq | None = None
    witness: tuple[int, ...] | None = None
    for ints in _probes_outside(lower_central_series(a)[1]):
        seq = _jordan_type_of_grid(_right_mult_grid(a, ints), n, best, cap)
        if seq is not None:
            best, witness = seq, ints
            if best == bound:
                break
    if best is None or witness is None:
        raise ValueError("no candidate found outside L^2; algebra is zero-dimensional or degenerate")
    return CharSeqWitness(best, tuple(map(Fraction, witness)), best == target)


@dataclass(frozen=True)
class GradedAlgebra:
    """The associated graded algebra of the lower central series.

    `layer_dims[i]` is dim L^{i+1}/L^{i+2}; `algebra` carries the induced
    bracket on the adapted basis; `adapted_basis` columns express that
    basis in the original coordinates.
    """

    layer_dims: tuple[int, ...]
    algebra: Algebra
    adapted_basis: Matrix

    def layer_of(self, t: int) -> int:
        """1-based layer index of adapted basis vector t (0-based)."""
        acc = 0
        for layer, d in enumerate(self.layer_dims, start=1):
            acc += d
            if t < acc:
                return layer
        raise IndexError("basis index %d outside the gradation" % t)


def natural_gradation(a: Algebra) -> GradedAlgebra:
    """Graded algebra on layers L^i/L^{i+1} with the induced bracket.

    Complement bases are taken deterministically (rref rows of L^i whose
    pivots are not pivots of L^{i+1}).  The induced bracket of layer-i and
    layer-j vectors is the original bracket with every component outside
    layer i+j zeroed; components in layers below i+j cannot occur because
    [L^i, L^j] is contained in L^{i+j}.
    """
    if nilindex(a) is None:
        raise NotNilpotentError("natural gradation needs a nilpotent algebra")
    series = list(lower_central_series(a))
    n = a.dim
    adapted: list[Vector] = []
    layers: list[int] = []
    layer_dims: list[int] = []
    for i in range(len(series) - 1):
        section = complement_inside(series[i], series[i + 1])
        layer_dims.append(len(section))
        for v in section:
            adapted.append(v)
            layers.append(i + 1)
    basis_matrix = Matrix.from_columns(adapted) if adapted else Matrix.zeros(n, 0)
    records = (
        (u, v, t, c)
        for u, v, t, c in transform_algebra(a, basis_matrix).products()
        if layers[t - 1] == layers[u - 1] + layers[v - 1]
    )
    return GradedAlgebra(tuple(layer_dims), _from_records(n, records), basis_matrix)
