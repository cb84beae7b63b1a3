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
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .cohomology import (
    BilinearForm,
    _combine_ints,
    _condition_rows,
    _defects,
    _has_class,
    cocycle_space,
    cohomology_basis,
    combine,
)
from .core import Algebra, IntegerTable, Subspace, center, require_leibniz
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

    @cached_property
    def _cocycles(self) -> tuple[BilinearForm, ...]:
        """`forms`, once the base is known Leibniz and every component a cocycle.

        A derived view, like `Algebra._hash`, computed on first use and
        kept on this spec only when it succeeds: a refused spec raises
        again, and an equal spec built separately is validated on its own.
        Each component is tested by a membership test on its int entries:
        over a Leibniz base a form is a cocycle exactly when it reduces
        into the span of the class echelon.  A rejected component is
        handed to `validate_cocycle`, whose error names the first
        violating triple in (i, j, k) sweep order.  `reduce_extension` and
        `reduced_spec` set the view where their own work has proved it
        (`_known_cocycles`).
        """
        require_leibniz(self.base)
        if not all(_has_class(self.base, form) for form in self.forms):
            validate_cocycle(self)  # raises, naming the first violating triple
        return self.forms


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


def central_extension(spec: ExtensionSpec) -> Algebra:
    """The algebra on base + V defined by the cocycle.

    The base's structure constants occupy the first n coordinates and the
    t-th cocycle component feeds coordinate n + t; the adjoined directions
    are central.  The result is Leibniz exactly because the components are
    cocycles, so it is returned pre-checked.

    The components are validated once per spec (`ExtensionSpec._cocycles`):
    a spec that `reduce_extension` accepted, or that `reduced_spec` made
    from its report, is not reduced against the class echelon again, and
    any other spec is, in full.

    The integer table is put together from the base's table and the
    forms' entries over the least common multiple of their denominators,
    the least common denominator of all the constants, in the order
    `core._from_records` would give it.
    """
    forms = spec._cocycles
    base = spec.base
    n, k = base.dim, spec.k
    table = base.table
    den = math.lcm(table.denominator, *(form.denominator for form in forms))
    f = den // table.denominator
    products = {key: [(m, c * f) for m, c in terms] for key, terms in table.products.items()}
    for t, form in enumerate(forms):
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

    `_cocycles_of` is not a constructor argument: `reduce_extension` sets
    it to the base over which the `reduced` components are known
    cocycles, so `reduced_spec` need not validate them again.  A report
    built by hand, or by `dataclasses.replace`, leaves it None, and its
    components are validated in full when the reduced spec is used.
    """

    class_rank: int
    abelian_dim: int
    v_basis: Matrix
    reduced: tuple[BilinearForm, ...]
    section_shift: tuple[Vector, ...]
    change_of_basis: Matrix
    _cocycles_of: Algebra | None = field(default=None, init=False, repr=False, compare=False)

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
    becomes the int row r_t = [class | e_t | psi_t] (scaled) of one
    fraction-free `Echelon`, the only one.  The psi block holds no pivot,
    so reduced row s carries U[s] in its unit block and
    sum_t U[s][t] psi_t, the shift of trailing component s, in its psi
    block.  W = U^-1 is read off the pivots: r_t = sum_s W[t][s] (reduced
    row s), and a reduced row is zero at every other pivot, so W[t][s] is
    the entry of r_t at pivot s, a unit delta when that pivot lies in the
    unit block.  So row n + t of the change of basis is [the shift of the
    pivot at column h + t, if it is one | W[t]].  The reduced components
    are int combinations of the forms (`cohomology._combine_ints`), and
    `change_of_basis` and `v_basis` are built from int rows
    (`Matrix._from_ints`), which `verify_isomorphism` reads as they are.

    Over a Leibniz base a form lacks a class exactly when it is not a
    cocycle, so the class computation is the only validation needed; it
    is recorded on the spec (`ExtensionSpec._cocycles`) and, for the
    reduced components, on the report, so `central_extension` does not
    repeat it.
    """
    base = spec.base
    require_leibniz(base)
    n, k = base.dim, spec.k
    basis = cohomology_basis(base)
    h = basis.dim
    width, psi = n * n, h + k
    # `classes` holds the preimage tag of functional m at column cols - 1 - m.
    last = psi + basis.classes.cols - 1
    e = Echelon(psi + n)
    rows = []
    for t, form in enumerate(spec.forms):
        residue, scale = basis.classes.reduce_ints(form.entries)
        if any(p < width for p in residue):
            validate_cocycle(spec)  # raises, naming the first violating triple
        row = {p - width if p < width + h else last - p: x for p, x in residue.items()}
        row[h + t] = -scale * form.denominator  # the residue is -scale * D * [class | psi]
        e.add(row)
        rows.append(row)
    _known_cocycles(spec)
    pivots = e.pivots
    held = [e.held[p] for p in pivots]
    q = [row[p] for p, row in zip(pivots, held)]
    d = sum(1 for p in pivots if p < h)
    unit = {p - h: s for s, p in enumerate(pivots) if p >= h}  # t -> the s with pivot h + t
    # W[t][s] = rows[t][pivots[s]] / rows[t][h + t], over one denominator.
    den = math.lcm(*(row[h + t] for t, row in enumerate(rows)))
    w = []
    for t, row in enumerate(rows):
        f = den // row[h + t]
        w.append({s: row[p] * f for s, p in enumerate(pivots[:d]) if p in row})
        if t in unit:
            w[t][unit[t]] = den
    # Row n + t of the change of basis: [shift of the pivot at h + t, if it is one | W[t]], over den * lcm.
    lcm = math.lcm(*q[d:])
    grid: list[dict[int, int]] = [{i: den * lcm} for i in range(n)]
    for t, row in enumerate(w):
        out = {n + s: x * lcm for s, x in row.items()}
        if t in unit:
            s = unit[t]
            f = den * (lcm // q[s])
            out.update((j - psi, x * f) for j, x in held[s].items() if j >= psi)
        grid.append(out)
    report = SplitReport(
        class_rank=d,
        abelian_dim=k - d,
        v_basis=Matrix._from_ints(w, den, k),
        reduced=tuple(
            _combine_ints(spec.forms, [held[s].get(h + t, 0) for t in range(k)], q[s]) for s in range(d)
        ),
        section_shift=tuple(
            tuple(Fraction(held[s][j], q[s]) if j in held[s] else _ZERO for j in range(psi, psi + n))
            for s in range(d, k)
        ),
        change_of_basis=Matrix._from_ints(grid, den * lcm, n + k),
    )
    object.__setattr__(report, "_cocycles_of", base)
    return report


def _known_cocycles(spec: ExtensionSpec) -> None:
    """Set `spec._cocycles` where the caller's own work has proved it, as `cached_property` would."""
    spec.__dict__["_cocycles"] = spec.forms


def reduced_spec(spec: ExtensionSpec, report: SplitReport) -> ExtensionSpec:
    """The reduced cocycle padded with zero components to the original k.

    When `reduce_extension` made the report over this base, the reduced
    components are combinations of validated cocycles, and the result is
    recorded as valid; a hand-built report's components are validated in
    full when the result is used.
    """
    zero = BilinearForm.zero(spec.base.dim)
    out = ExtensionSpec(spec.base, report.reduced + (zero,) * report.abelian_dim)
    if report._cocycles_of is not None and report._cocycles_of == spec.base:
        _known_cocycles(out)
    return out


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
