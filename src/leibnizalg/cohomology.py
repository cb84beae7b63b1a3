"""Second cohomology of a Leibniz algebra with central coefficients.

A scalar 2-cochain is a bilinear form on the algebra.  Cocycles satisfy

    theta(x, [y, z]) = theta([x, y], z) - theta([x, z], y),

coboundaries are the forms phi([x, y]) for linear functionals phi, and
the quotient is represented by an explicit complement basis.  Coefficient
spaces of dimension k factor componentwise (the coefficients are central,
so the defining conditions never couple components): all spaces here are
computed with scalar coefficients, and k-dimensional statements are the
k-fold copies.

The identity is encoded once, as the sparse rows of `_condition_rows`:
the defect of a form at a basis triple is row . theta, and violation
reports, the cocycle test and the ZL^2 kernel all read those rows.
`condition_matrix` is a dense view of them for display and measurement,
not the path to ZL^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Sequence

from .core import Algebra, Subspace
from .linalg import Echelon, Matrix, Vector, frac, rank, solve, sparse, zero_vector


@dataclass(frozen=True)
class BilinearForm:
    """Scalar bilinear form; values[i][j] = theta(e_{i+1}, e_{j+1})."""

    dim: int
    values: tuple[Vector, ...]

    def __post_init__(self) -> None:
        if len(self.values) != self.dim or any(len(row) != self.dim for row in self.values):
            raise ValueError("values must be a dim x dim grid")

    @staticmethod
    def zero(dim: int) -> "BilinearForm":
        return BilinearForm(dim, tuple(zero_vector(dim) for _ in range(dim)))

    @staticmethod
    def from_entries(dim: int, entries: Mapping[tuple[int, int], int | str | Fraction]) -> "BilinearForm":
        """Build from sparse 1-based entries {(i, j): c}."""
        grid = [[Fraction(0)] * dim for _ in range(dim)]
        for (i, j), c in entries.items():
            if not (1 <= i <= dim and 1 <= j <= dim):
                raise ValueError("entry index (%d, %d) out of range for dim %d" % (i, j, dim))
            grid[i - 1][j - 1] = frac(c)
        return BilinearForm(dim, tuple(tuple(row) for row in grid))

    @staticmethod
    def singleton(dim: int, i: int, j: int, c: int | str | Fraction = 1) -> "BilinearForm":
        """The form with a single 1-based entry (i, j) -> c."""
        return BilinearForm.from_entries(dim, {(i, j): c})

    @staticmethod
    def from_flat(dim: int, flat: Sequence[Fraction]) -> "BilinearForm":
        if len(flat) != dim * dim:
            raise ValueError("flat vector of length %d for dim %d" % (len(flat), dim))
        return BilinearForm(dim, tuple(tuple(flat[i * dim : (i + 1) * dim]) for i in range(dim)))

    def flatten(self) -> Vector:
        """Row-major length-dim^2 coordinate vector."""
        return tuple(x for row in self.values for x in row)

    def support(self) -> tuple[tuple[int, int], ...]:
        """1-based index pairs carrying a nonzero value, row-major order."""
        return tuple(
            (i + 1, j + 1)
            for i in range(self.dim)
            for j in range(self.dim)
            if self.values[i][j]
        )

    def evaluate(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> Fraction:
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("vectors must have length %d" % self.dim)
        acc = Fraction(0)
        for i, xi in enumerate(x):
            if not xi:
                continue
            row = self.values[i]
            for j, yj in enumerate(y):
                if yj and row[j]:
                    acc += xi * yj * row[j]
        return acc

    def scale(self, c: Fraction) -> "BilinearForm":
        return BilinearForm(self.dim, tuple(tuple(c * x for x in row) for row in self.values))

    def add(self, other: "BilinearForm") -> "BilinearForm":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return BilinearForm(
            self.dim,
            tuple(
                tuple(x + y for x, y in zip(r1, r2))
                for r1, r2 in zip(self.values, other.values)
            ),
        )

    def is_zero(self) -> bool:
        return all(not x for row in self.values for x in row)


def combine(forms: Sequence[BilinearForm], coeffs: Sequence[Fraction]) -> BilinearForm:
    """Linear combination sum coeffs[t] * forms[t]."""
    if not forms:
        raise ValueError("empty combination")
    if len(forms) != len(coeffs):
        raise ValueError("coefficient count mismatch")
    acc = BilinearForm.zero(forms[0].dim)
    for form, c in zip(forms, coeffs):
        if c:
            acc = acc.add(form.scale(c))
    return acc


ConditionRow = tuple[tuple[int, int, int], dict[int, Fraction]]


def _condition_rows(a: Algebra) -> list[ConditionRow]:
    """The cocycle identity as one sparse linear condition per basis triple.

    The only place the identity is written.  The unknowns are theta_{pq}
    at flat index p*n + q, so the defect of a form at a triple is
    row . flatten(theta); each row is tagged with its 1-based (i, j, k).
    Vacuous triples are dropped and the order is the (i, j, k) sweep, so
    the system is canonical.
    """
    n = a.dim
    den = a.table.denominator
    support = {
        key: [(m, Fraction(c, den)) for m, c in terms] for key, terms in a.table.products.items()
    }
    get = support.get
    rows: list[ConditionRow] = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                terms = [(i * n + m, c) for m, c in get((j, k), ())]
                terms += [(m * n + k, -c) for m, c in get((i, j), ())]
                terms += [(m * n + j, c) for m, c in get((i, k), ())]
                row: dict[int, Fraction] = {}
                for p, c in terms:
                    row[p] = row[p] + c if p in row else c
                row = {p: c for p, c in row.items() if c}
                if row:
                    rows.append(((i + 1, j + 1, k + 1), row))
    return rows


def _check_form_dim(a: Algebra, form: BilinearForm) -> None:
    if form.dim != a.dim:
        raise ValueError("form dimension %d against algebra dimension %d" % (form.dim, a.dim))


def _defects(
    a: Algebra, rows: Sequence[ConditionRow], form: BilinearForm
) -> Iterator[tuple[tuple[int, int, int], Fraction]]:
    """(triple, defect) for each condition row with row . theta != 0, in row order."""
    _check_form_dim(a, form)
    theta = form.flatten()
    for triple, row in rows:
        defect = sum((c * theta[p] for p, c in row.items() if theta[p]), Fraction(0))
        if defect:
            yield triple, defect


def cocycle_violations(a: Algebra, form: BilinearForm) -> list[tuple[int, int, int, Fraction]]:
    """Basis triples (1-based) where the cocycle identity fails, with defects."""
    return [(i, j, k, d) for (i, j, k), d in _defects(a, _condition_rows(a), form)]


def is_cocycle(a: Algebra, form: BilinearForm) -> bool:
    return next(_defects(a, _condition_rows(a), form), None) is None


def condition_matrix(a: Algebra) -> Matrix:
    """The cocycle-condition system as a dense matrix over the n^2 unknowns."""
    width, zero = a.dim * a.dim, Fraction(0)
    return Matrix([[row.get(p, zero) for p in range(width)] for _, row in _condition_rows(a)], cols=width)


@dataclass(frozen=True)
class CochainSpace:
    """A subspace of bilinear forms, held as flattened vectors in rref."""

    dim: int
    space: Subspace

    @property
    def rank(self) -> int:
        return self.space.dim

    def forms(self) -> tuple[BilinearForm, ...]:
        return tuple(BilinearForm.from_flat(self.dim, v) for v in self.space.basis)

    def contains(self, form: BilinearForm) -> bool:
        return self.space.contains(form.flatten())


@lru_cache(maxsize=None)
def cocycle_space(a: Algebra) -> CochainSpace:
    """ZL^2 with scalar coefficients: kernel of the condition system."""
    n = a.dim
    kernel = Echelon(n * n, (row for _, row in _condition_rows(a))).kernel()
    return CochainSpace(n, Subspace.span(n * n, kernel))


def coboundary_generator(a: Algebra, m: int) -> BilinearForm:
    """The coboundary of the m-th (0-based) coordinate functional.

    Its value at (e_i, e_j) is the e_{m+1}-coordinate of [e_i, e_j].
    """
    n = a.dim
    return BilinearForm(n, tuple(tuple(a.sc[i][j][m] for j in range(n)) for i in range(n)))


@lru_cache(maxsize=None)
def coboundary_space(a: Algebra) -> CochainSpace:
    """BL^2 with scalar coefficients; its rank equals dim L^2."""
    n = a.dim
    vectors = [coboundary_generator(a, m).flatten() for m in range(n)]
    return CochainSpace(n, Subspace.span(n * n, vectors))


@dataclass(frozen=True)
class CohomologyBasis:
    """ZL^2, BL^2, and complement representatives for the quotient."""

    cocycles: CochainSpace
    coboundaries: CochainSpace
    representatives: tuple[BilinearForm, ...]

    @property
    def dim(self) -> int:
        return len(self.representatives)


@lru_cache(maxsize=None)
def cohomology_basis(a: Algebra) -> CohomologyBasis:
    """Extend the BL^2 basis to ZL^2; the added cocycles represent HL^2.

    The candidates are the canonical ZL^2 basis, taken in order; a
    candidate is kept when it is independent of BL^2 plus the candidates
    already kept, which one growing echelon decides.  The kept forms are
    returned verbatim (not re-reduced), so each representative is an
    actual ZL^2 basis vector.
    """
    z = cocycle_space(a)
    b = coboundary_space(a)
    echelon = Echelon(a.dim * a.dim, map(sparse, b.space.basis))
    reps = tuple(
        BilinearForm.from_flat(a.dim, v) for v in z.space.basis if echelon.add(sparse(v))
    )
    return CohomologyBasis(z, b, reps)


def cohomology_dim(a: Algebra) -> int:
    return cohomology_basis(a).dim


def cohomology_class(a: Algebra, form: BilinearForm) -> tuple[Fraction, ...] | None:
    """Coordinates of the class of `form` against the representatives.

    None when the form is not a cocycle.  A zero tuple means the form is a
    coboundary.
    """
    _check_form_dim(a, form)
    basis = cohomology_basis(a)
    b_vectors = list(basis.coboundaries.space.basis)
    h_vectors = [rep.flatten() for rep in basis.representatives]
    columns = b_vectors + h_vectors
    if not columns:
        return () if form.is_zero() else None
    system = Matrix.from_columns([tuple(col) for col in columns])
    solution = solve(system, form.flatten())
    if solution is None:
        return None
    return tuple(solution[len(b_vectors) :])


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
