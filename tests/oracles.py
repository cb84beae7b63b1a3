"""Reference code shared by several test modules; not part of the package.

`solve` is the earlier `linalg.solve`, kept verbatim: one solution of
m x = rhs with every free variable zero, or None for an inconsistent
system.  The package no longer solves linear systems this way (the
cached class echelon of `cohomology` returns coboundary preimages), so
it lives here only, as the oracle for those preimages and for the
classes they came with.

`DenseBilinearForm` is the earlier `cohomology.BilinearForm`, which
stored the dense grid `values` of `Fraction`s, and `dense_combine` the
earlier `combine`, which accumulated a dense flat vector;
`dense_cocycle_violations` is the earlier `cocycle_violations`, which
evaluated the condition rows against `flatten()`.  They are kept
verbatim apart from their names, as references for the form stored as
sparse ints over one denominator.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from leibnizalg.cohomology import _condition_rows
from leibnizalg.linalg import Echelon, Matrix, Vector, frac, sparse, zero_vector

_ZERO = Fraction(0)


def solve(m: Matrix, rhs: Sequence[Fraction]) -> Vector | None:
    """One solution of m x = rhs with all free variables zero, or None.

    None signals an inconsistent system.  When the system is consistent
    the returned solution is canonical (free coordinates zero).
    """
    if len(rhs) != m.rows:
        raise ValueError("rhs of length %d against %d rows" % (len(rhs), m.rows))
    n = m.cols
    e = Echelon(n + 1, (sparse(row + (b,)) for row, b in zip(m.data, map(frac, rhs))))
    if n in e.held:
        return None
    x = [_ZERO] * n
    for p, row in e.held.items():
        b = row.get(n)
        if b:
            x[p] = Fraction(b, row[p])
    return tuple(x)


@dataclass(frozen=True)
class DenseBilinearForm:
    """Scalar bilinear form; values[i][j] = theta(e_{i+1}, e_{j+1})."""

    dim: int
    values: tuple[Vector, ...]

    def __post_init__(self) -> None:
        if len(self.values) != self.dim or any(len(row) != self.dim for row in self.values):
            raise ValueError("values must be a dim x dim grid")

    @staticmethod
    def zero(dim: int) -> "DenseBilinearForm":
        return DenseBilinearForm(dim, tuple(zero_vector(dim) for _ in range(dim)))

    @staticmethod
    def from_entries(
        dim: int, entries: Mapping[tuple[int, int], int | str | Fraction]
    ) -> "DenseBilinearForm":
        """Build from sparse 1-based entries {(i, j): c}."""
        grid = [[Fraction(0)] * dim for _ in range(dim)]
        for (i, j), c in entries.items():
            if not (1 <= i <= dim and 1 <= j <= dim):
                raise ValueError("entry index (%d, %d) out of range for dim %d" % (i, j, dim))
            grid[i - 1][j - 1] = frac(c)
        return DenseBilinearForm(dim, tuple(tuple(row) for row in grid))

    @staticmethod
    def singleton(dim: int, i: int, j: int, c: int | str | Fraction = 1) -> "DenseBilinearForm":
        """The form with a single 1-based entry (i, j) -> c."""
        return DenseBilinearForm.from_entries(dim, {(i, j): c})

    @staticmethod
    def from_flat(dim: int, flat: Sequence[Fraction]) -> "DenseBilinearForm":
        if len(flat) != dim * dim:
            raise ValueError("flat vector of length %d for dim %d" % (len(flat), dim))
        return DenseBilinearForm(dim, tuple(tuple(flat[i * dim : (i + 1) * dim]) for i in range(dim)))

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

    def scale(self, c: Fraction) -> "DenseBilinearForm":
        return DenseBilinearForm(self.dim, tuple(tuple(c * x for x in row) for row in self.values))

    def add(self, other: "DenseBilinearForm") -> "DenseBilinearForm":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return DenseBilinearForm(
            self.dim,
            tuple(
                tuple(x + y for x, y in zip(r1, r2))
                for r1, r2 in zip(self.values, other.values)
            ),
        )

    def is_zero(self) -> bool:
        return all(not x for row in self.values for x in row)


def dense_combine(forms: Sequence[DenseBilinearForm], coeffs: Sequence[Fraction]) -> DenseBilinearForm:
    """Linear combination sum coeffs[t] * forms[t]."""
    if not forms:
        raise ValueError("empty combination")
    if len(forms) != len(coeffs):
        raise ValueError("coefficient count mismatch")
    n = forms[0].dim
    acc = [Fraction(0)] * (n * n)
    for form, c in zip(forms, coeffs):
        if c:
            if form.dim != n:
                raise ValueError("dimension mismatch")
            for p, x in enumerate(form.flatten()):
                if x:
                    acc[p] += c * x
    return DenseBilinearForm.from_flat(n, acc)


def dense_cocycle_violations(a, form: DenseBilinearForm) -> list[tuple[int, int, int, Fraction]]:
    """Basis triples (1-based) where the cocycle identity fails, with defects."""
    theta = form.flatten()
    den = a.table.denominator
    out = []
    for (i, j, k), row in _condition_rows(a):
        defect = sum((c * theta[p] for p, c in row.items() if theta[p]), Fraction(0))
        if defect:
            out.append((i, j, k, defect / den))
    return out
