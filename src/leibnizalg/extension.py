"""Central extensions of Leibniz algebras and the split/non-split test.

An extension spec is a base algebra L of dimension n together with a
k-component cocycle theta.  The extension lives on L + V (dim n + k) with

    [x + u, y + v] = [x, y] + theta(x, y),

so the adjoined directions are central.  Reduction finds an invertible
change of V-basis after which the trailing components of theta are
coboundaries, absorbs them into the section, and reports the abelian
summand this splits off.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .cohomology import (
    BilinearForm,
    _condition_rows,
    _defects,
    _has_class,
    cocycle_space,
    cohomology_basis,
    combine,
)
from .core import Algebra, IntegerTable, LeibnizError, Subspace, center, check_leibniz
from .linalg import Echelon, Matrix, Vector, unit_vector

_ZERO = Fraction(0)


class InvalidCocycleError(ValueError):
    """A cocycle component violates the defining identity.

    `component` is 1-based; `triple` is the first violating 1-based basis
    triple and `defect` the scalar amount by which the identity fails.
    """

    def __init__(self, component: int, triple: tuple[int, int, int], defect: Fraction):
        self.component = component
        self.triple = triple
        self.defect = defect
        super().__init__(
            "cocycle component %d fails on (e%d, e%d, e%d) with defect %s"
            % (component, triple[0], triple[1], triple[2], defect)
        )


@dataclass(frozen=True)
class ExtensionSpec:
    """Base algebra plus the components of a V-valued cocycle."""

    base: Algebra
    forms: tuple[BilinearForm, ...]

    def __post_init__(self) -> None:
        for form in self.forms:
            if form.dim != self.base.dim:
                raise ValueError(
                    "cocycle component of dimension %d against base dimension %d"
                    % (form.dim, self.base.dim)
                )

    @property
    def k(self) -> int:
        return len(self.forms)


def make_spec(base: Algebra, *forms: BilinearForm) -> ExtensionSpec:
    return ExtensionSpec(base, tuple(forms))


def validate_cocycle(spec: ExtensionSpec) -> None:
    """Raise InvalidCocycleError on the first failing component.

    The error names the component's first violating triple in (i, j, k)
    sweep order.
    """
    rows = _condition_rows(spec.base)
    for t, form in enumerate(spec.forms):
        for triple, defect in _defects(spec.base, rows, form):
            raise InvalidCocycleError(t + 1, triple, defect)


def _require_leibniz(base: Algebra) -> None:
    if not base.checked:
        violations = check_leibniz(base)
        if violations:
            raise LeibnizError(violations[0], len(violations))


def central_extension(spec: ExtensionSpec) -> Algebra:
    """The algebra on base + V defined by the cocycle.

    The base's structure constants occupy the first n coordinates and the
    t-th cocycle component feeds coordinate n + t; the adjoined directions
    are central.  The result is Leibniz exactly because the components are
    cocycles, so it is returned pre-checked.

    Each component is validated by a membership test on its int entries:
    over a Leibniz base a form is a cocycle exactly when it reduces into
    the span of the class echelon.  A rejected component is handed to
    `validate_cocycle`, whose error names the first violating triple in
    (i, j, k) sweep order.

    The integer table is put together from the base's table and the
    forms' entries over the least common multiple of their denominators,
    the least common denominator of all the constants, in the order
    `core._from_records` would give it.
    """
    base = spec.base
    _require_leibniz(base)
    if not all(_has_class(base, form) for form in spec.forms):
        validate_cocycle(spec)  # raises, naming the first violating triple
    n, k = base.dim, spec.k
    table = base.table
    den = math.lcm(table.denominator, *(form.denominator for form in spec.forms))
    f = den // table.denominator
    products = {key: [(m, c * f) for m, c in terms] for key, terms in table.products.items()}
    for t, form in enumerate(spec.forms):
        f = den // form.denominator
        for p, c in form.entries.items():
            products.setdefault(divmod(p, n), []).append((n + t, c * f))
    base_labels = tuple(base.label(i) for i in range(n))
    ext_labels = base_labels + tuple("x%d" % (t + 1) for t in range(k))
    ext = IntegerTable(den, {key: tuple(products[key]) for key in sorted(products)})
    return Algebra(n + k, ext, ext_labels, checked=True)


def adjoined_subspace(spec: ExtensionSpec) -> Subspace:
    """V inside the extension, spanned by the last k coordinates."""
    dim = spec.base.dim + spec.k
    return Subspace.span(dim, [unit_vector(dim, spec.base.dim + t) for t in range(spec.k)])


def centrality_report(spec: ExtensionSpec) -> tuple[bool, bool]:
    """(V lies in the center, V equals the center) for the extension.

    The first flag holds by construction but is recomputed; the second
    depends on the base and the cocycle.
    """
    ext = central_extension(spec)
    v = adjoined_subspace(spec)
    z = center(ext)
    return (z.contains_subspace(v), z.contains_subspace(v) and v.contains_subspace(z))


@dataclass(frozen=True)
class SplitReport:
    """Outcome of splitting abelian directions off a central extension.

    `v_basis` columns are the adapted central basis in the original V
    coordinates; the first `class_rank` of them carry the reduced cocycle
    components and the remaining `abelian_dim` are direct abelian
    summands.  `section_shift[s]` is the functional (as a coefficient
    vector over the base) absorbed into the section for the s-th trailing
    direction.  `change_of_basis` maps the rebuilt reduced extension onto
    the original one.
    """

    class_rank: int
    abelian_dim: int
    v_basis: Matrix
    reduced: tuple[BilinearForm, ...]
    section_shift: tuple[Vector, ...]
    change_of_basis: Matrix

    @property
    def split(self) -> bool:
        return self.abelian_dim >= 1


def reduce_extension(spec: ExtensionSpec) -> SplitReport:
    """Split the cocycle into independent classes plus absorbed coboundaries.

    Row-reducing the k x (dim H + k) matrix of cohomology classes augmented
    by the identity yields, in the identity block, an invertible U that
    records the row operations, with the last k - d transformed components
    of zero class; those components are coboundaries phi o bracket and are
    absorbed by shifting the section e_i -> e_i + sum_s phi_s(e_i) c_s over
    the trailing adapted central vectors c_s.

    One int reduce per component against `CohomologyBasis.classes` gives
    its class and a coboundary preimage psi_t of the rest, so component t
    becomes the int row [class | e_t | psi_t] of one fraction-free
    `Echelon`.  The psi block holds no pivot, so reduced row s carries
    U[s] in its unit block and sum_t U[s][t] psi_t, the shift of trailing
    component s, in its psi block.  W = U^-1 comes from a k x 2k `Echelon`
    on [U | identity].  Elimination runs on ints; Fractions are built only
    for the report's fields.  Over a Leibniz base a form lacks a class
    exactly when it is not a cocycle, so the class computation is the
    only validation needed.
    """
    base = spec.base
    _require_leibniz(base)
    n, k = base.dim, spec.k
    basis = cohomology_basis(base)
    h = basis.dim
    if k == 0:
        return SplitReport(0, 0, Matrix.zeros(0, 0), (), (), Matrix.identity(n))
    width, psi = n * n, h + k
    # `classes` holds the preimage tag of functional m at column cols - 1 - m.
    last = psi + basis.classes.cols - 1
    e = Echelon(psi + n)
    for t, form in enumerate(spec.forms):
        residue, scale = basis.classes.reduce_ints(form.entries)
        if any(p < width for p in residue):
            validate_cocycle(spec)  # raises, naming the first violating triple
        row = {p - width if p < width + h else last - p: x for p, x in residue.items()}
        row[h + t] = -scale * form.denominator  # the residue is -scale * D * [class | psi]
        e.add(row)
    pivots = e.pivots
    held = [e.held[p] for p in pivots]
    q = [row[p] for p, row in zip(pivots, held)]
    d = sum(1 for p in pivots if p < h)
    # Row s of [U | I] times q[s], the pivot entry of reduced row s.
    u = ({j - h: x for j, x in row.items() if h <= j < psi} | {k + s: q[s]} for s, row in enumerate(held))
    w = [row for _, row in sorted(Echelon(2 * k, u).held.items())]
    v_basis = tuple(_fractions(row, row[t], range(k, 2 * k)) for t, row in enumerate(w))
    lcm = math.lcm(*q[d:])
    # Row n + t of the change of basis is sum_{s >= d} W[t][s] shift_s on the base columns, then W[t].
    grid = [unit_vector(n + k, i) for i in range(n)]
    for t, row in enumerate(w):
        f = [(held[s], lcm // q[s] * row[k + s]) for s in range(d, k) if k + s in row]
        shear = (sum(c * r.get(j, 0) for r, c in f) for j in range(psi, psi + n))
        grid.append(tuple(Fraction(x, lcm * row[t]) if x else _ZERO for x in shear) + v_basis[t])
    return SplitReport(
        class_rank=d,
        abelian_dim=k - d,
        v_basis=Matrix(v_basis, cols=k),
        reduced=tuple(combine(spec.forms, _fractions(held[s], q[s], range(h, psi))) for s in range(d)),
        section_shift=tuple(_fractions(held[s], q[s], range(psi, psi + n)) for s in range(d, k)),
        change_of_basis=Matrix(grid, cols=n + k),
    )


def _fractions(row: dict[int, int], q: int, cols: range) -> Vector:
    """The entries of row / q in the given columns, as a dense vector."""
    return tuple(Fraction(row[j], q) if j in row else _ZERO for j in cols)


def reduced_spec(spec: ExtensionSpec, report: SplitReport) -> ExtensionSpec:
    """The reduced cocycle padded with zero components to the original k."""
    zero = BilinearForm.zero(spec.base.dim)
    return ExtensionSpec(spec.base, report.reduced + (zero,) * report.abelian_dim)


def is_split(spec: ExtensionSpec) -> tuple[bool, Vector | None]:
    """Whether the extension has an abelian direct summand inside V.

    The witness is the last adapted central direction as a vector of the
    extension (zero on the base coordinates); it spans a 1-dimensional
    abelian direct summand exactly when the report says split.
    """
    report = reduce_extension(spec)
    if not report.split:
        return (False, None)
    n, k = spec.base.dim, spec.k
    witness = report.change_of_basis.column(n + k - 1)
    return (True, witness)


def random_cocycle_forms(
    base: Algebra, k: int, rng: random.Random
) -> tuple[BilinearForm, ...]:
    """k components drawn as random rational combinations of the cocycle basis."""
    z = cocycle_space(base)
    basis = z.forms()
    out = []
    for _ in range(k):
        coeffs = [Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in basis]
        out.append(combine(basis, coeffs) if basis else BilinearForm.zero(base.dim))
    return tuple(out)
