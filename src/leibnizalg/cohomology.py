"""Second cohomology of a Leibniz algebra with central coefficients.

A scalar 2-cochain is a bilinear form on the algebra.  A form is stored
once, the way an algebra stores its integer table: the least common
denominator of its values and the nonzero values times it, as ints
keyed by the flat index p*n + q (`BilinearForm.entries`).  Combinations,
cocycle defects, class reductions and extension tables read those ints;
the dense grid `BilinearForm.values` is a view derived on demand.
Cocycles satisfy

    theta(x, [y, z]) = theta([x, y], z) - theta([x, z], y),

coboundaries are the forms phi([x, y]) for linear functionals phi, and
the quotient is represented by an explicit complement basis.  Coefficient
spaces of dimension k factor componentwise (the coefficients are central,
so the defining conditions never couple components): all spaces here are
computed with scalar coefficients, and k-dimensional statements are the
k-fold copies.

The identity is written once, in the scatter `_half_rows`: D times the
identity at the triples (i, j, k) with j < k, D the denominator of the
algebra's integer table, scattered from the table's nonzero products.
`_condition_rows` derives the view per triple from it, all n^3 rows
sorted into canonical (i, j, k) order, since for any table row(i, k, j)
is theta(e_i, [e_j, e_k] + [e_k, e_j]) minus row(i, j, k), and row(i, j, j)
is theta(e_i, [e_j, e_j]).  The defect of a form at a basis triple is
(row . theta) / D; violation reports and the cocycle test read those
rows.  The ZL^2 kernel eliminates, as ints, a smaller system with the
same row space: the rows with j < k and theta(e_t, b) for every t and
every held row b of `core.squares_subspace`.  `condition_matrix` is the
per-triple rows over D as a `Matrix`, for display and measurement, not
the system that is eliminated.

The coboundary map is encoded once too, as the rows of
`_coboundary_rows`, D times delta(e_m^*).  BL^2 spans them, and they
seed one echelon per base, `CohomologyBasis.classes`, cached with the
basis: reducing a form against it leaves a residue whose form part is
empty exactly for cocycles, and whose tag parts are minus the class
coordinates and minus a coboundary preimage of the rest.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Sequence

from .core import Algebra, Subspace, squares_subspace
from .linalg import Echelon, Matrix, Vector, _integer_vector, common_denominator, frac, rank

_ZERO = Fraction(0)


class BilinearForm:
    """Scalar bilinear form theta on an algebra of dimension `dim`.

    Stored in one form, the way `Algebra.table` stores structure
    constants: `denominator` is the least common denominator D of the
    nonzero values, and `entries` maps the flat index p*dim + q of each
    nonzero theta(e_{p+1}, e_{q+1}) to D times it, an int, in increasing
    index order.  Equal forms have equal fields, so equality and the hash
    compare them.  `values[i][j]` = theta(e_{i+1}, e_{j+1}) and
    `flatten()` are dense `Fraction` views derived from the entries, for
    display and reference checks.  `BilinearForm(dim, values)` builds a
    form from such a dense grid; every entry goes through `frac`, so a
    float is refused there.
    """

    __slots__ = ("dim", "denominator", "entries", "_values")

    def __init__(self, dim: int, values: Sequence[Sequence[int | str | Fraction]]):
        if len(values) != dim or any(len(row) != dim for row in values):
            raise ValueError("values must be a dim x dim grid")
        form = _form_from_rationals(
            dim, [(i * dim + j, frac(x)) for i, row in enumerate(values) for j, x in enumerate(row)]
        )
        _set_fields(self, dim, form.denominator, form.entries)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("BilinearForm is immutable")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BilinearForm):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.denominator == other.denominator
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.dim, self.denominator, tuple(self.entries.items())))

    def __repr__(self) -> str:
        return "BilinearForm(dim=%d, denominator=%d, entries=%r)" % (self.dim, self.denominator, self.entries)

    @property
    def values(self) -> tuple[Vector, ...]:
        """The dense dim x dim grid of values, built on first use."""
        try:
            return self._values
        except AttributeError:
            n = self.dim
            grid = [[_ZERO] * n for _ in range(n)]
            for i, j, c in self.terms():
                grid[i - 1][j - 1] = c
            view = tuple(tuple(row) for row in grid)
            object.__setattr__(self, "_values", view)
            return view

    @staticmethod
    def zero(dim: int) -> "BilinearForm":
        return _form(dim, 1, {})

    @staticmethod
    def from_entries(dim: int, entries: Mapping[tuple[int, int], int | str | Fraction]) -> "BilinearForm":
        """Build from sparse 1-based entries {(i, j): c}."""
        flat = []
        for (i, j), c in entries.items():
            if not (1 <= i <= dim and 1 <= j <= dim):
                raise ValueError("entry index (%d, %d) out of range for dim %d" % (i, j, dim))
            flat.append(((i - 1) * dim + j - 1, frac(c)))
        return _form_from_rationals(dim, flat)

    @staticmethod
    def singleton(dim: int, i: int, j: int, c: int | str | Fraction = 1) -> "BilinearForm":
        """The form with a single 1-based entry (i, j) -> c."""
        return BilinearForm.from_entries(dim, {(i, j): c})

    @staticmethod
    def from_flat(dim: int, flat: Sequence[int | str | Fraction]) -> "BilinearForm":
        if len(flat) != dim * dim:
            raise ValueError("flat vector of length %d for dim %d" % (len(flat), dim))
        return _form_from_rationals(dim, [(p, frac(x)) for p, x in enumerate(flat)])

    def flatten(self) -> Vector:
        """Row-major length-dim^2 coordinate vector."""
        return tuple(x for row in self.values for x in row)

    def terms(self) -> Iterator[tuple[int, int, Fraction]]:
        """Nonzero values as 1-based (i, j, c) records, row-major order."""
        n, den = self.dim, self.denominator
        for p, c in self.entries.items():
            i, j = divmod(p, n)
            yield i + 1, j + 1, Fraction(c, den)

    def support(self) -> tuple[tuple[int, int], ...]:
        """1-based index pairs carrying a nonzero value, row-major order."""
        n = self.dim
        return tuple((p // n + 1, p % n + 1) for p in self.entries)

    def evaluate(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> Fraction:
        n = self.dim
        if len(x) != n or len(y) != n:
            raise ValueError("vectors must have length %d" % n)
        xs, dx = _integer_vector(x)
        ys, dy = _integer_vector(y)
        acc = sum(xs[p // n] * ys[p % n] * c for p, c in self.entries.items())
        return Fraction(acc, dx * dy * self.denominator)

    def scale(self, c: int | str | Fraction) -> "BilinearForm":
        c = frac(c)
        num = c.numerator
        scaled = {p: x * num for p, x in self.entries.items()}
        return _form_over(self.dim, self.denominator * c.denominator, scaled)

    def add(self, other: "BilinearForm") -> "BilinearForm":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return combine((self, other), (1, 1))

    def is_zero(self) -> bool:
        return not self.entries


def _set_fields(form: BilinearForm, dim: int, denominator: int, entries: dict[int, int]) -> None:
    object.__setattr__(form, "dim", dim)
    object.__setattr__(form, "denominator", denominator)
    object.__setattr__(form, "entries", entries)


def _form(dim: int, denominator: int, entries: dict[int, int]) -> BilinearForm:
    """The form with these fields, which must already be canonical."""
    form = object.__new__(BilinearForm)
    _set_fields(form, dim, denominator, entries)
    return form


def _form_from_rationals(dim: int, flat: Iterable[tuple[int, Fraction]]) -> BilinearForm:
    """The form with rational value c at each flat index p of (p, c); each index at most once.

    The one builder from rational values: zeros are dropped, the indices
    sorted and the values put over their least common denominator.  The
    constructor, `from_entries`, `from_flat` and the cocycle file reader
    all call it.
    """
    nonzero = sorted((p, c) for p, c in flat if c)
    den = common_denominator(c for _, c in nonzero)
    return _form(dim, den, {p: c.numerator * (den // c.denominator) for p, c in nonzero})


def _form_over(dim: int, denominator: int, acc: Mapping[int, int]) -> BilinearForm:
    """The form acc / denominator, acc ints by flat index (zeros allowed), over its least denominator."""
    entries = {p: x for p, x in sorted(acc.items()) if x}
    g = math.gcd(denominator, *entries.values())
    if g != 1:
        denominator //= g
        entries = {p: x // g for p, x in entries.items()}
    return _form(dim, denominator, entries)


def combine(forms: Sequence[BilinearForm], coeffs: Sequence[int | str | Fraction]) -> BilinearForm:
    """Linear combination sum coeffs[t] * forms[t], accumulated as ints."""
    if not forms:
        raise ValueError("empty combination")
    if len(forms) != len(coeffs):
        raise ValueError("coefficient count mismatch")
    coeffs = [frac(c) for c in coeffs]
    den = common_denominator(coeffs)
    return _combine_ints(forms, [c.numerator * (den // c.denominator) for c in coeffs], den)


def _combine_ints(forms: Sequence[BilinearForm], nums: Sequence[int], den: int) -> BilinearForm:
    """sum nums[t] * forms[t] / den, for int coefficients over one denominator den > 0."""
    n = forms[0].dim
    lcm = 1
    terms = []
    for form, c in zip(forms, nums):
        if c:
            if form.dim != n:
                raise ValueError("dimension mismatch")
            d = form.denominator
            lcm = lcm // math.gcd(lcm, d) * d
            terms.append((form.entries, c, d))
    acc: dict[int, int] = {}
    for entries, c, d in terms:
        f = c * (lcm // d)
        for p, x in entries.items():
            acc[p] = acc.get(p, 0) + f * x
    return _form_over(n, lcm * den, acc)


ConditionRow = tuple[tuple[int, int, int], dict[int, int]]


def _half_rows(a: Algebra) -> defaultdict[int, dict[int, int]]:
    """The cocycle identity at the triples (i, j, k) with j < k, keyed by i*n^2 + j*n + k.

    The only place the identity is written.  The unknowns are theta_{pq}
    at flat index p*n + q, and each row holds D times the coefficients of
    the identity as ints, D the denominator of `Algebra.table`, so the
    defect of a form at a triple is (row . flatten(theta)) / D.  A nonzero
    product [e_u, e_v] enters the rows of (t, u, v) when u < v, and the
    row of (u, t, v) or (u, v, t) for each t != v, so the rows are
    scattered from the table rather than swept over the triples.  Entries
    may cancel to zero, and vacuous triples are absent.
    """
    n = a.dim
    acc: defaultdict[int, dict[int, int]] = defaultdict(dict)
    for (u, v), terms in a.table.products.items():
        for m, c in terms:
            if u < v:
                # theta(e_t, [e_u, e_v]) in the row of (t, u, v)
                for t in range(n):
                    row, p = acc[(t * n + u) * n + v], t * n + m
                    row[p] = row.get(p, 0) + c
            # +theta([e_u, e_v], e_t) in the row of (u, t, v) for t < v and
            # -theta([e_u, e_v], e_t) in the row of (u, v, t) for t > v
            for t in range(v):
                row, p = acc[(u * n + t) * n + v], m * n + t
                row[p] = row.get(p, 0) + c
            for t in range(v + 1, n):
                row, p = acc[(u * n + v) * n + t], m * n + t
                row[p] = row.get(p, 0) - c
    return acc


def _condition_rows(a: Algebra) -> list[ConditionRow]:
    """The cocycle identity as one sparse integer condition per basis triple.

    A view derived from `_half_rows`, which holds the triples with j < k.
    Expanding the identity at two triples of one i gives, for any table,

        row(i, k, j) = theta(e_i, [e_j, e_k] + [e_k, e_j]) - row(i, j, k),
        row(i, j, j) = theta(e_i, [e_j, e_j]),

    and the other rows are read off those.  Each row is tagged with its
    1-based (i, j, k); entries that cancel and vacuous triples are dropped
    and the rows are sorted into the (i, j, k) sweep order, so the system
    is canonical.
    """
    n = a.dim
    acc = _half_rows(a)
    for triple, row in list(acc.items()):
        i, jk = divmod(triple, n * n)
        j, k = divmod(jk, n)
        acc[(i * n + k) * n + j] = {p: -c for p, c in row.items()}
    for (u, v), terms in a.table.products.items():
        for t in range(n):
            row = acc[(t * n + max(u, v)) * n + min(u, v)]
            for m, c in terms:
                row[t * n + m] = row.get(t * n + m, 0) + c
    rows: list[ConditionRow] = []
    for triple in sorted(acc):
        row = acc[triple]
        if 0 in row.values():
            row = {p: c for p, c in row.items() if c}
        if row:
            i, jk = divmod(triple, n * n)
            j, k = divmod(jk, n)
            rows.append(((i + 1, j + 1, k + 1), row))
    return rows


def _check_form_dim(a: Algebra, form: BilinearForm) -> None:
    if form.dim != a.dim:
        raise ValueError("form dimension %d against algebra dimension %d" % (form.dim, a.dim))


def _defects(
    a: Algebra, rows: Sequence[ConditionRow], form: BilinearForm
) -> Iterator[tuple[tuple[int, int, int], Fraction]]:
    """(triple, defect) for each condition row with row . theta != 0, in row order.

    Both sides are ints: the row over the table's denominator and the
    form's entries over the form's, so a defect is one int dot product.
    """
    _check_form_dim(a, form)
    theta = form.entries
    den = a.table.denominator * form.denominator
    for triple, row in rows:
        defect = 0
        for p, c in row.items():
            t = theta.get(p)
            if t:
                defect += c * t
        if defect:
            yield triple, Fraction(defect, den)


def cocycle_violations(a: Algebra, form: BilinearForm) -> list[tuple[int, int, int, Fraction]]:
    """Basis triples (1-based) where the cocycle identity fails, with defects."""
    return [(i, j, k, d) for (i, j, k), d in _defects(a, _condition_rows(a), form)]


def is_cocycle(a: Algebra, form: BilinearForm) -> bool:
    return next(_defects(a, _condition_rows(a), form), None) is None


def condition_matrix(a: Algebra) -> Matrix:
    """The cocycle-condition system as a matrix over the n^2 unknowns: `_condition_rows` over D."""
    return Matrix._from_ints([row for _, row in _condition_rows(a)], a.table.denominator, a.dim * a.dim)


@dataclass(frozen=True)
class CochainSpace:
    """A subspace of bilinear forms, held as the rref of their flat entries in primitive ints.

    A held row r with pivot p is the form's entries over their least
    common denominator r[p], so `forms()` and `contains` build no Fraction.
    """

    dim: int
    space: Subspace

    @property
    def rank(self) -> int:
        return self.space.dim

    def forms(self) -> tuple[BilinearForm, ...]:
        return tuple(_form_over(self.dim, r[p], r) for p, r in sorted(self.space._echelon.held.items()))

    def contains(self, form: BilinearForm) -> bool:
        if form.dim != self.dim:
            raise ValueError("form dimension %d against cochain dimension %d" % (form.dim, self.dim))
        return not self.space._echelon.reduce_ints(form.entries)[0]


@lru_cache(maxsize=None)
def cocycle_space(a: Algebra) -> CochainSpace:
    """ZL^2 with scalar coefficients: kernel of the condition system.

    By the identities of `_condition_rows`, the rows of `_half_rows` and
    theta(e_t, b) for every t and every held row b of `squares_subspace`
    span the same rows as the whole system, so only those are eliminated.
    """
    n = a.dim
    rows = list(_half_rows(a).values())
    squares = squares_subspace(a)._echelon.held.values()
    rows += ({t * n + m: c for m, c in b.items()} for b in squares for t in range(n))
    kernel = Echelon(n * n, rows).kernel()
    return CochainSpace(n, Subspace(n * n, kernel))


def _coboundary_rows(a: Algebra) -> list[dict[int, int]]:
    """Row m is D delta(e_m^*) as a sparse int row over the flat form coordinates.

    The only place the coboundary map is written: the entry at p*n + q is
    the e_{m+1} entry of [e_p, e_q] in `Algebra.table` (D times the
    coordinate), scattered from the table's nonzero products.
    """
    n = a.dim
    rows: list[dict[int, int]] = [{} for _ in range(n)]
    for (u, v), terms in a.table.products.items():
        for m, c in terms:
            rows[m][u * n + v] = c
    return rows


def coboundary_generator(a: Algebra, m: int) -> BilinearForm:
    """The coboundary of the m-th (0-based) coordinate functional.

    Its value at (e_i, e_j) is the e_{m+1}-coordinate of [e_i, e_j].
    """
    n = a.dim
    if not 0 <= m < n:
        raise IndexError("functional index %d out of range for dimension %d" % (m, n))
    return _form_over(n, a.table.denominator, _coboundary_rows(a)[m])


@lru_cache(maxsize=None)
def coboundary_space(a: Algebra) -> CochainSpace:
    """BL^2 with scalar coefficients; its rank equals dim L^2."""
    n = a.dim
    return CochainSpace(n, Subspace(n * n, _coboundary_rows(a)))


@dataclass(frozen=True)
class CohomologyBasis:
    """ZL^2, BL^2, complement representatives, and the class echelon.

    `classes` has n^2 form columns, dim class tag columns and n preimage
    tag columns, functional m at column n - 1 - m of that block.  Its rows
    are [D delta(e_m^*) | 0 | D e_(n-1-m)] for each nonzero row of
    `_coboundary_rows` and [rep_t | e_t | 0] for each representative, so
    a form reduces to [0 | -c | -psi] exactly when it equals
    sum_t c_t rep_t + delta(psi).  The relations among the coboundary
    rows pivot on preimage columns; reversed, those are the m with
    delta(e_m^*) in the span of delta(e_0^*), ..., delta(e_(m-1)^*), so
    psi is zero there: it is the preimage with every free coordinate zero
    when the generators are eliminated in natural order.
    """

    cocycles: CochainSpace
    coboundaries: CochainSpace
    representatives: tuple[BilinearForm, ...]
    classes: Echelon = field(repr=False, compare=False)

    @property
    def dim(self) -> int:
        return len(self.representatives)


@lru_cache(maxsize=None)
def cohomology_basis(a: Algebra) -> CohomologyBasis:
    """Extend the BL^2 basis to ZL^2; the added cocycles represent HL^2.

    The candidates are the canonical ZL^2 basis, taken in order; each is
    reduced once against `classes`, tagged with its would-be class
    column.  A candidate is kept when it is independent of BL^2 plus the
    candidates already kept, that is when that residue has a form part,
    and the residue is then inserted into `classes` as it is.  The kept
    forms are returned verbatim (not re-reduced), so each representative
    is an actual ZL^2 basis vector.
    """
    n = a.dim
    z, b = cocycle_space(a), coboundary_space(a)
    width = n * n
    last = width + (z.rank - b.rank) + n - 1  # the preimage tag of functional 0
    den = a.table.denominator
    classes = Echelon(last + 1, ({**row, last - m: den} for m, row in enumerate(_coboundary_rows(a)) if row))
    reps: list[BilinearForm] = []
    for form in z.forms():
        residue, _ = classes.reduce_ints({**form.entries, width + len(reps): form.denominator})
        if any(p < width for p in residue):
            classes.insert(residue)
            reps.append(form)
    return CohomologyBasis(z, b, tuple(reps), classes)


def cohomology_dim(a: Algebra) -> int:
    return cohomology_basis(a).dim


def _class_and_preimage(a: Algebra, form: BilinearForm) -> tuple[tuple[Fraction, ...], Vector] | None:
    """(c, psi) with form = sum_t c_t rep_t + delta(psi), or None for a non-cocycle.

    One reduce of the form's int entries against
    `CohomologyBasis.classes`; psi is the preimage described there.
    Fractions are built only for the tags returned.
    """
    _check_form_dim(a, form)
    basis = cohomology_basis(a)
    width = a.dim * a.dim
    residue, scale = basis.classes.reduce_ints(form.entries)
    if any(p < width for p in residue):
        return None
    den = -scale * form.denominator
    tags = [Fraction(residue[p], den) if p in residue else _ZERO for p in range(width, basis.classes.cols)]
    return tuple(tags[: basis.dim]), tuple(reversed(tags[basis.dim :]))


def _has_class(a: Algebra, form: BilinearForm) -> bool:
    """Whether the form reduces into the span of `CohomologyBasis.classes`.

    The span is ZL^2, so over a Leibniz base this is the cocycle test: one
    int reduce, with no Fraction built.
    """
    _check_form_dim(a, form)
    width = a.dim * a.dim
    residue, _ = cohomology_basis(a).classes.reduce_ints(form.entries)
    return all(p >= width for p in residue)


def cohomology_class(a: Algebra, form: BilinearForm) -> tuple[Fraction, ...] | None:
    """Coordinates of the class of `form` against the representatives.

    None when the form is not a cocycle.  A zero tuple means the form is a
    coboundary.
    """
    found = _class_and_preimage(a, form)
    return None if found is None else found[0]


def preferred_cohomology_basis(
    a: Algebra, patterns: Iterable[tuple[int, int]]
) -> tuple[BilinearForm, ...] | None:
    """Representatives supported on the given 1-based index pairs, if valid.

    Each pattern (i, j) proposes the singleton form at that entry.  The
    proposal is accepted only when every singleton is a cocycle and their
    classes span the whole quotient independently; otherwise None, and the
    default complement stands.
    """
    basis = cohomology_basis(a)
    pats = list(patterns)
    if len(pats) != basis.dim:
        return None
    candidates = [BilinearForm.singleton(a.dim, i, j) for i, j in pats]
    class_rows = []
    for form in candidates:
        coords = cohomology_class(a, form)
        if coords is None:
            return None
        class_rows.append(coords)
    if not class_rows:
        return ()
    if rank(Matrix(class_rows, cols=basis.dim)) != basis.dim:
        return None
    return tuple(candidates)
