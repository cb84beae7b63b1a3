"""Finite-dimensional Leibniz algebras over the rationals.

An algebra is a dimension together with structure constants for a
bilinear bracket satisfying the (right) Leibniz identity

    [x, [y, z]] = [[x, y], z] - [[x, z], y].

Everything downstream (lower central series, center, annihilators,
characteristic sequence, natural gradation) is computed exactly with the
rational linear algebra in `linalg`.  All values are immutable; the
module-level operations are pure functions, and the expensive structural
ones are memoized on the algebra value.

`Algebra.sc` is the dense table as given.  The hot loops read a second,
canonical view of it instead, built once per algebra: the least common
denominator D of the structure constants and the nonzero products D*c as
plain ints, keyed by basis pair (`Algebra.table`).  Brackets, the
Leibniz check, the lower central series, the center, annihilator and
squares systems and the right multiplication grids of the characteristic
sequence run on machine ints and divide by D only where a rational
result is returned.  Equality and the hash of an algebra are computed
from the same view, the hash once, so a memo lookup does not walk the
n^3 table.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Mapping, NamedTuple, Sequence

from . import linalg
from .linalg import (
    Echelon,
    Matrix,
    Vector,
    common_denominator,
    frac,
    inverse,
    is_zero_vector,
    sparse,
    unit_vector,
    vec_add,
    vec_sub,
    zero_vector,
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


def _integer_vector(x: Sequence[Fraction]) -> tuple[list[int], int]:
    """x as ints over their least common denominator, with that denominator."""
    den = common_denominator(x)
    return [v.numerator * (den // v.denominator) for v in x], den


def _rational_vector(ints: Sequence[int], den: int) -> Vector:
    """The vector ints / den, back in Fractions."""
    return tuple(Fraction(v, den) if v else _ZERO for v in ints)


@dataclass(frozen=True, eq=False)
class Algebra:
    """A finite-dimensional algebra given by structure constants.

    `sc[i][j]` is the coordinate vector of [e_i, e_j] (0-based).  Labels
    are presentation only and do not take part in equality or hashing.
    `checked` records whether the Leibniz identity was verified at
    construction; it is metadata, not part of the value.  Equality and
    the hash compare `table`, the canonical integer view of `sc`.
    """

    dim: int
    sc: tuple[tuple[Vector, ...], ...]
    labels: tuple[str, ...] | None = field(default=None, compare=False)
    checked: bool = field(default=False, compare=False)

    def __post_init__(self) -> None:
        if self.dim < 0:
            raise ValueError("negative dimension")
        if len(self.sc) != self.dim or any(
            len(row) != self.dim or any(len(v) != self.dim for v in row) for row in self.sc
        ):
            raise ValueError("structure constants must form a dim x dim grid of dim-vectors")

    @cached_property
    def table(self) -> IntegerTable:
        """The canonical integer view of `sc`, built on first use."""
        nonzero: dict[tuple[int, int], list[tuple[int, Fraction]]] = {}
        for i, row in enumerate(self.sc):
            for j, cell in enumerate(row):
                terms = [(k, c) for k, c in enumerate(cell) if c]
                if terms:
                    nonzero[i, j] = terms
        den = common_denominator(c for terms in nonzero.values() for _, c in terms)
        return IntegerTable(den, {
            key: tuple((k, c.numerator * (den // c.denominator)) for k, c in terms)
            for key, terms in nonzero.items()
        })

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
    table = [[list(zero_vector(dim)) for _ in range(dim)] for _ in range(dim)]
    for (i, j), targets in products.items():
        if not (1 <= i <= dim and 1 <= j <= dim):
            raise ValueError("product index (%d, %d) out of range for dim %d" % (i, j, dim))
        for k, c in targets.items():
            if not 1 <= k <= dim:
                raise ValueError("target index %d out of range for dim %d" % (k, dim))
            table[i - 1][j - 1][k - 1] = frac(c)
    algebra = Algebra(
        dim=dim,
        sc=tuple(tuple(tuple(v) for v in row) for row in table),
        labels=tuple(labels) if labels is not None else None,
        checked=False,
    )
    if check:
        violations = check_leibniz(algebra)
        if violations:
            raise LeibnizError(violations[0], len(violations))
        object.__setattr__(algebra, "checked", True)
    return algebra


def abelian_algebra(dim: int) -> Algebra:
    zero = zero_vector(dim)
    return Algebra(dim=dim, sc=tuple(tuple(zero for _ in range(dim)) for _ in range(dim)), checked=True)


def direct_sum(a: Algebra, b: Algebra) -> Algebra:
    """Direct sum with b's basis appended after a's."""
    n, m = a.dim, b.dim
    dim = n + m
    rows = []
    for i in range(dim):
        row = []
        for j in range(dim):
            if i < n and j < n:
                row.append(a.sc[i][j] + zero_vector(m))
            elif i >= n and j >= n:
                row.append(zero_vector(n) + b.sc[i - n][j - n])
            else:
                row.append(zero_vector(dim))
        rows.append(tuple(row))
    return Algebra(dim=dim, sc=tuple(rows), checked=a.checked and b.checked)


def bracket(a: Algebra, x: Sequence[Fraction], y: Sequence[Fraction]) -> Vector:
    """Bilinear extension of the bracket to coordinate vectors."""
    if len(x) != a.dim or len(y) != a.dim:
        raise ValueError("vectors must have length %d" % a.dim)
    xs, dx = _integer_vector(x)
    ys, dy = _integer_vector(y)
    acc = [0] * a.dim
    for (i, j), terms in a.table.products.items():
        f = xs[i] * ys[j]
        if f:
            for k, c in terms:
                acc[k] += f * c
    return _rational_vector(acc, dx * dy * a.table.denominator)


def check_leibniz(a: Algebra) -> list[LeibnizViolation]:
    """All violating basis triples, 1-based, with their defect vectors.

    The defect of (e_i, e_j, e_k) is [e_i,[e_j,e_k]] - [[e_i,e_j],e_k]
    + [[e_i,e_k],e_j]; on the integer products it comes out times D^2.
    """
    n = a.dim
    table = a.table
    get = table.products.get
    violations = []
    for i in range(n):
        for j in range(n):
            ij = get((i, j), ())
            for k in range(n):
                jk, ik = get((j, k), ()), get((i, k), ())
                if not (jk or ij or ik):
                    continue
                acc = [0] * n
                for m, c in jk:
                    for t, s in get((i, m), ()):
                        acc[t] += c * s
                for m, c in ij:
                    for t, s in get((m, k), ()):
                        acc[t] -= c * s
                for m, c in ik:
                    for t, s in get((m, j), ()):
                        acc[t] += c * s
                if any(acc):
                    defect = _rational_vector(acc, table.denominator**2)
                    violations.append(LeibnizViolation(i + 1, j + 1, k + 1, defect))
    return violations


@dataclass(frozen=True)
class Subspace:
    """Subspace of Q^ambient in canonical (rref) form.

    The basis rows are the reduced row echelon form of any spanning set,
    so two equal subspaces compare equal structurally.
    """

    ambient: int
    basis: tuple[Vector, ...]
    pivots: tuple[int, ...]

    @staticmethod
    def span(ambient: int, vectors: Iterable[Sequence[Fraction]]) -> "Subspace":
        e = Echelon(ambient, map(sparse, vectors))
        return Subspace(ambient, e.dense_rows(), e.pivots)

    @staticmethod
    def full(ambient: int) -> "Subspace":
        return Subspace.span(ambient, [unit_vector(ambient, i) for i in range(ambient)])

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def _echelon(self) -> Echelon:
        return Echelon(self.ambient, map(sparse, self.basis))

    def reduce(self, v: Sequence[Fraction]) -> Vector:
        """Residue of v after elimination against the rref basis."""
        residue = self._echelon.reduce(sparse(v))
        return tuple(residue.get(j, Fraction(0)) for j in range(len(v)))

    def contains(self, v: Sequence[Fraction]) -> bool:
        return not self._echelon.reduce(sparse(v))

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(v) for v in other.basis)

    def sum(self, other: "Subspace") -> "Subspace":
        if self.ambient != other.ambient:
            raise ValueError("ambient dimensions differ")
        return Subspace.span(self.ambient, self.basis + other.basis)


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


def _span_int_rows(n: int, rows: Iterable[Mapping[int, int]]) -> Subspace:
    """Span of sparse integer rows {column: int}; zero entries are dropped."""
    e = Echelon(n, ({k: Fraction(v) for k, v in row.items() if v} for row in rows))
    return Subspace(n, e.dense_rows(), e.pivots)


def _right_brackets(a: Algebra, u: Sequence[Fraction]) -> list[dict[int, int]]:
    """Sparse int rows proportional to [u, e_j], one per j with a nonzero bracket."""
    xs, _ = _integer_vector(u)
    rows: dict[int, dict[int, int]] = {}
    for (i, j), terms in a.table.products.items():
        x = xs[i]
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
        nxt = _span_int_rows(a.dim, (row for u in series[-1].basis for row in _right_brackets(a, u)))
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
    rows: dict[tuple[bool, int, int], dict[int, Fraction]] = {}
    for (i, j), terms in a.table.products.items():
        for k, c in terms:
            if use_left:
                rows.setdefault((True, j, k), {})[i] = Fraction(c)
            if use_right:
                rows.setdefault((False, i, k), {})[j] = Fraction(c)
    return Subspace.span(a.dim, Echelon(a.dim, rows.values()).kernel())


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
    return _span_int_rows(a.dim, rows.values())


def right_mult_operator(a: Algebra, x: Sequence[Fraction]) -> Matrix:
    """Matrix of y -> [y, x] in the standard basis (columns are images)."""
    if len(x) != a.dim:
        raise ValueError("vector must have length %d" % a.dim)
    return Matrix.from_columns([bracket(a, unit_vector(a.dim, j), x) for j in range(a.dim)])


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


@dataclass(frozen=True)
class CharSeq:
    """Weakly decreasing Jordan block sizes; ordered lexicographically."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(p <= 0 for p in self.parts):
            raise ValueError("block sizes must be positive")
        if any(self.parts[i] < self.parts[i + 1] for i in range(len(self.parts) - 1)):
            raise ValueError("block sizes must be weakly decreasing")

    def __lt__(self, other: "CharSeq") -> bool:
        return self.parts < other.parts

    def __le__(self, other: "CharSeq") -> bool:
        return self.parts <= other.parts

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
    return _jordan_type_of_grid(linalg.integer_grid(m), m.rows)


def _jordan_type_of_grid(grid: list[list[int]], n: int) -> CharSeq:
    """Jordan type of a nilpotent n x n int grid, by Bareiss rank sequence."""
    ranks = [n]
    power = grid
    while True:
        r = linalg.integer_rank(power, n)
        ranks.append(r)
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


class CharSeqWitness(NamedTuple):
    seq: CharSeq
    witness: Vector
    exact: bool


def _greedy_max_charseq(n: int, cap: int) -> CharSeq:
    """Lexicographically maximal weakly decreasing composition of n with parts <= cap."""
    parts = []
    remaining = n
    while remaining > 0:
        p = min(cap, remaining)
        parts.append(p)
        remaining -= p
    return CharSeq(tuple(parts))


def _random_rational_vector(rng: random.Random, n: int) -> Vector:
    return tuple(Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(n))


def characteristic_sequence(
    a: Algebra, trials: int = CHARSEQ_RANDOM_TRIALS, seed: int = CHARSEQ_SEED
) -> CharSeqWitness:
    """Best Jordan type of R_x over a deterministic candidate sweep.

    Candidates are the basis vectors, all pairwise sums e_i +/- e_j, and
    `trials` seeded pseudo-random rational vectors, each restricted to lie
    outside L^2.  The result is a certified lower bound in the
    lexicographic order; `exact` is True only when the sequence reaches
    the a-priori maximum compatible with the nilindex (the largest block
    of R_x is at most nilindex - 1 because R_x^k maps into L^{k+1}).
    """
    if trials == CHARSEQ_RANDOM_TRIALS and seed == CHARSEQ_SEED:
        return _charseq_cached(a)
    return _charseq_impl(a, trials, seed)


@lru_cache(maxsize=None)
def _charseq_cached(a: Algebra) -> CharSeqWitness:
    return _charseq_impl(a, CHARSEQ_RANDOM_TRIALS, CHARSEQ_SEED)


def _scale_to_integers(v: Vector) -> Vector:
    """Clear denominators; the Jordan type of R_x is scale-invariant."""
    lcm = common_denominator(v)
    if lcm == 1:
        return v
    c = Fraction(lcm)
    return tuple(x * c for x in v)


@lru_cache(maxsize=32)
def _charseq_probes(n: int, trials: int, seed: int) -> tuple[tuple[Vector, tuple[int, ...]], ...]:
    """The nonzero candidate vectors in sweep order, each with its ints.

    Every candidate has integer entries, so the ints are its numerators.
    """
    candidates: list[Vector] = [unit_vector(n, i) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            candidates.append(vec_add(unit_vector(n, i), unit_vector(n, j)))
            candidates.append(vec_sub(unit_vector(n, i), unit_vector(n, j)))
    rng = random.Random(seed)
    for _ in range(trials):
        candidates.append(_scale_to_integers(_random_rational_vector(rng, n)))
    return tuple((x, tuple(v.numerator for v in x)) for x in candidates if not is_zero_vector(x))


def _quotient_functionals(space: Subspace) -> list[list[tuple[int, int]]]:
    """Sparse integer functionals whose common kernel is `space`.

    One per free column c of the rref basis: x_c - sum_p row_p[c] x_p,
    times the common denominator of its coefficients.
    """
    functionals = []
    pivots = set(space.pivots)
    for c in range(space.ambient):
        if c in pivots:
            continue
        f = {c: Fraction(1)}
        for p, row in zip(space.pivots, space.basis):
            if row[c]:
                f[p] = -row[c]
        den = common_denominator(f.values())
        functionals.append([(k, v.numerator * (den // v.denominator)) for k, v in f.items()])
    return functionals


def _charseq_impl(a: Algebra, trials: int, seed: int) -> CharSeqWitness:
    s = nilindex(a)
    if s is None:
        raise NotNilpotentError("characteristic sequence needs a nilpotent algebra")
    n = a.dim
    if n == 0:
        return CharSeqWitness(CharSeq(()), (), True)
    derived = lower_central_series(a)[1] if len(lower_central_series(a)) > 1 else Subspace.span(n, [])
    cap = s - 1
    # No block of R_x exceeds s - 1: R_x^k maps everything into L^{k+1}.
    target = _greedy_max_charseq(n, cap) if cap >= 1 else CharSeq((1,) * n)
    quotient = _quotient_functionals(derived)
    best: CharSeq | None = None
    witness: Vector | None = None
    for x, ints in _charseq_probes(n, trials, seed):
        if not any(sum(ints[k] * v for k, v in f) for f in quotient):
            continue  # x lies in L^2
        seq = _jordan_type_of_grid(_right_mult_grid(a, ints), n)
        if best is None or best < seq:
            best, witness = seq, x
            if best == target:
                break
    if best is None or witness is None:
        raise ValueError("no candidate found outside L^2; algebra is zero-dimensional or degenerate")
    return CharSeqWitness(best, witness, best == target)


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
    inv = inverse(basis_matrix) if n else None
    if n and inv is None:
        raise RuntimeError("adapted basis is singular; series computation is inconsistent")
    rows = []
    for u in range(n):
        row = []
        for v in range(n):
            w = bracket(a, adapted[u], adapted[v])
            coords = list(inv.apply(w)) if inv is not None else []
            target = layers[u] + layers[v]
            for t in range(n):
                if layers[t] != target:
                    coords[t] = Fraction(0)
            row.append(tuple(coords))
        rows.append(tuple(row))
    graded = Algebra(dim=n, sc=tuple(rows), checked=False)
    return GradedAlgebra(tuple(layer_dims), graded, basis_matrix)
