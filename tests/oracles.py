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

`rref` is the earlier `linalg.rref`, moved here verbatim once the
package had no caller left for it; the kernel tests check `Echelon`
against it.  `fraction_reduce_extension` is the earlier
`reduce_extension`, which did its class algebra on dense `Fraction`
matrices (`rref` of [classes | identity], `inverse`, the shifts as
Fraction sums), and `bareiss_verify_isomorphism` the earlier
`verify_isomorphism`, which decided singularity by the Bareiss rank of
the dense integer grid and then checked the brackets pair by pair with
`brackets_match`, on the sparse integer columns of `_integer_columns`
(moved here from `isomorphism` once the row-by-row scatter of
`verify_isomorphism` had replaced it).  `brackets_match` is the earlier
`isomorphism._brackets_match`, the search's exact filter, moved here
once the projected filter `isomorphism._passing` had replaced it.  They are kept
verbatim apart from their names, as references for the int echelons and
the scatter that replaced them.

`echelon_reduce` is the earlier `linalg.Echelon.reduce`, moved here
once the package had no caller left for it: the residue of a sparse row
against an `Echelon`, handed back as `Fraction`s.

`integer_grid` is the earlier `linalg.integer_grid`, moved here once
`core.jordan_type_nilpotent` read its grid off `Matrix._int_rows`: the
dense int grid of a `Matrix`, for the Bareiss checks here and in the
tests.

`sweep_check_leibniz` is the earlier `core.check_leibniz`, which swept
all n^3 basis triples with three table lookups each; `fraction_frac` is
the earlier `linalg.frac`, which parsed every string literal with
`Fraction(str)`, and `fraction_rational` the earlier `files._rational`
on top of it.  They are kept verbatim apart from their names, as
references for the scattered check and for `linalg.parse_rational`.

`flag_breaking_change` draws a basis change that is a lower times a
unit upper triangular matrix.  A triangular basis keeps the flag
span(e_j, ..., e_n), so code that depends on column order would still
see the catalog's order; the product mixes it.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Mapping, Sequence

from hypothesis import strategies as st

from leibnizalg.cohomology import _class_and_preimage, _condition_rows, cohomology_basis, combine
from leibnizalg.core import LeibnizViolation, _rational_vector, require_leibniz
from leibnizalg.extension import SplitReport, validate_cocycle
from leibnizalg.files import FileFormatError
from leibnizalg.isomorphism import Columns, IsoCheck
from leibnizalg.linalg import (
    Echelon,
    Matrix,
    Vector,
    _echelon,
    _exact_row,
    common_denominator,
    frac,
    integer_rank,
    inverse,
    sparse,
    unit_vector,
    zero_vector,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


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


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and the tuple of pivot columns.

    The zero rows follow the pivot rows, so the shape is that of m.  The
    result is the unique reduced form of the row space.
    """
    e = _echelon(m)
    zeros = (zero_vector(m.cols),) * (m.rows - len(e.held))
    return Matrix(e.dense_rows() + zeros, cols=m.cols), e.pivots


def fraction_reduce_extension(spec) -> SplitReport:
    """Split the cocycle into independent classes plus absorbed coboundaries.

    Row-reducing the k x dim-H matrix of cohomology classes (augmented by
    the identity to record the row operations) yields an invertible U with
    the last k - d transformed components of zero class; those components
    are coboundaries phi o bracket and are absorbed by shifting the
    section e_i -> e_i + sum_s phi_s(e_i) c_s over the trailing adapted
    central vectors c_s.

    One reduce per component gives its class and a coboundary preimage
    psi_t of the rest (`cohomology._class_and_preimage`), so the shift of
    trailing component s is sum_t U[s][t] psi_t.  Over a Leibniz base a
    form lacks a class exactly when it is not a cocycle, so the class
    computation is the only validation needed.
    """
    base = spec.base
    require_leibniz(base)
    n, k = base.dim, spec.k
    h = cohomology_basis(base).dim
    if k == 0:
        empty = Matrix.zeros(0, 0)
        return SplitReport(0, 0, empty, (), (), Matrix.identity(n))
    found = []
    for form in spec.forms:
        pair = _class_and_preimage(base, form)
        if pair is None:
            validate_cocycle(spec)  # raises, naming the first violating triple
        assert pair is not None
        found.append(pair)
    classes, preimages = zip(*found)
    augmented = Matrix(
        [tuple(row) + unit_vector(k, t) for t, row in enumerate(classes)], cols=h + k
    )
    reduced_rows, pivots = rref(augmented)
    d = sum(1 for p in pivots if p < h)
    u = Matrix([row[h:] for row in reduced_rows.data], cols=k)
    w = inverse(u)
    assert w is not None  # row operations are invertible
    shifts = [
        tuple(sum((c * psi[i] for c, psi in zip(u.row(s), preimages) if c), Fraction(0)) for i in range(n))
        for s in range(d, k)
    ]
    columns: list[Vector] = []
    for i in range(n):
        col = [Fraction(0)] * (n + k)
        col[i] = Fraction(1)
        for s in range(d, k):
            f = shifts[s - d][i]
            if f:
                for t in range(k):
                    col[n + t] += f * w.data[t][s]
        columns.append(tuple(col))
    for s in range(k):
        col = [Fraction(0)] * (n + k)
        for t in range(k):
            col[n + t] = w.data[t][s]
        columns.append(tuple(col))
    return SplitReport(
        class_rank=d,
        abelian_dim=k - d,
        v_basis=w,
        reduced=tuple(combine(spec.forms, u.row(s)) for s in range(d)),
        section_shift=tuple(shifts),
        change_of_basis=Matrix.from_columns(columns),
    )


def echelon_reduce(e: Echelon, row: Mapping[int, int | Fraction]) -> dict[int, Fraction]:
    """Residue of a sparse row after elimination against the reduced rows."""
    out, den = _exact_row(row)
    residue, scale = e.reduce_ints(out)
    den *= scale
    return {j: Fraction(x, den) for j, x in residue.items()}


def integer_grid(m: Matrix) -> list[list[int]]:
    """The entries times their least common denominator, as plain ints.

    A nonzero multiple has the same rank as m, and its powers the same
    ranks as the powers of m, so rank sequences can use fraction-free
    elimination, which is much cheaper than Fraction arithmetic.
    """
    scale = common_denominator(x for row in m.data for x in row)
    return [[x.numerator * (scale // x.denominator) for x in row] for row in m.data]


def _integer_columns(p: Matrix) -> tuple[Columns, int]:
    """The columns of d*p as sparse integer columns, and d."""
    d = common_denominator(x for row in p.data for x in row)
    return tuple(
        tuple((r, x.numerator * (d // x.denominator)) for r, x in enumerate(p.column(j)) if x)
        for j in range(p.cols)
    ), d


def brackets_match(a, b, cols: Columns, d: int) -> tuple[int, int] | None:
    """First 1-based basis pair where p = cols/d breaks the bracket, else None.

    With P = d*p and integer products C_a = D_a*c_a, C_b = D_b*c_b, the
    condition p([e_i, e_j]_a) = [p e_i, p e_j]_b reads
    d*D_b*(P C_a[i,j]) = D_a * sum_{k,l} P_ki P_lj C_b[k,l].

    This was the search's filter.  It gathers, pair by pair: for (i, j) it
    looks up b's product of each pair of nonzero entries of columns i and
    j, so most wrong candidates are dropped after the first pair or a few.
    The row-by-row scatter of `verify_isomorphism` must build a whole row
    of right-hand sides before its first comparison, which pays on a full
    check but not on a candidate that fails early.
    """
    n = a.dim
    get_a = a.table.products.get
    get_b = b.table.products.get
    left, right = d * b.table.denominator, a.table.denominator
    g = math.gcd(left, right)
    left, right = left // g, right // g
    for i in range(n):
        col_i = cols[i]
        for j in range(n):
            lhs = [0] * n
            for m, c in get_a((i, j), ()):
                for t, x in cols[m]:
                    lhs[t] += c * x
            rhs = [0] * n
            for k, x in col_i:
                for l, y in cols[j]:
                    terms = get_b((k, l))
                    if terms:
                        f = x * y
                        for t, c in terms:
                            rhs[t] += f * c
            if left != 1:
                lhs = [left * v for v in lhs]
            if right != 1:
                rhs = [right * v for v in rhs]
            if lhs != rhs:
                return (i + 1, j + 1)
    return None


def bareiss_verify_isomorphism(a, b, p: Matrix) -> IsoCheck:
    """Check that p maps a onto b: p([x, y]_a) = [p x, p y]_b, p invertible.

    Columns of p are the images of a's basis vectors in b's coordinates.
    """
    if a.dim != b.dim:
        raise ValueError("dimension mismatch: %d vs %d" % (a.dim, b.dim))
    if p.rows != a.dim or p.cols != a.dim:
        raise ValueError("change of basis must be %d x %d" % (a.dim, a.dim))
    if integer_rank(integer_grid(p), p.cols) < p.cols:
        return IsoCheck(False, None, "matrix is singular")
    pair = brackets_match(a, b, *_integer_columns(p))
    if pair is not None:
        return IsoCheck(False, pair, "bracket images differ at (e%d, e%d)" % pair)
    return IsoCheck(True)


def flag_breaking_change(draw, dim: int, rational: bool = False) -> Matrix:
    """A lower triangular times a unit upper triangular matrix, entries +-1.

    With `rational`, each column is then scaled by one of 1/2, -2/3, 3/2.
    """
    sign = st.sampled_from((_ONE, -_ONE))
    lower = [[_ZERO] * dim for _ in range(dim)]
    upper = [[_ZERO] * dim for _ in range(dim)]
    for r in range(dim):
        for c in range(r + 1):
            lower[r][c] = draw(sign)
            upper[c][r] = draw(sign) if c < r else _ONE
    q = Matrix(lower, cols=dim) @ Matrix(upper, cols=dim)
    if not rational:
        return q
    scale = [draw(st.sampled_from((Fraction(1, 2), Fraction(-2, 3), Fraction(3, 2)))) for _ in range(dim)]
    return Matrix([[x * scale[c] for c, x in enumerate(row)] for row in q.data], cols=dim)


def sweep_check_leibniz(a) -> list[LeibnizViolation]:
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


def fraction_frac(value: int | str | Fraction) -> Fraction:
    """Coerce an int, a string like '-3/2', or a Fraction to a Fraction.

    Floats are rejected: silent binary-to-rational conversion is how
    inexactness sneaks into an exact pipeline.  So are strings with an
    exponent: `Fraction("1e4000000")` builds 10^4000000 before any check.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError("refusing to coerce float %r to an exact rational" % (value,))
    if isinstance(value, str) and ("e" in value or "E" in value):
        raise ValueError("refusing rational literal with an exponent: %r" % (value,))
    return Fraction(value)


def fraction_rational(value: Any, where: str) -> Fraction:
    if isinstance(value, bool) or isinstance(value, float):
        raise FileFormatError("%s must be an integer or a rational string, got %r" % (where, value))
    if isinstance(value, (int, str)):
        try:
            return fraction_frac(value)
        except (ValueError, ZeroDivisionError):
            raise FileFormatError("%s is not a rational literal: %r" % (where, value)) from None
    raise FileFormatError("%s must be an integer or a rational string, got %r" % (where, value))
