"""Cohomology classes from the cached tagged echelon against the code it replaced.

`oracle_cohomology_class` is the earlier `cohomology_class`, which solved
one fresh system [BL^2 | representatives] per form, and `oracle_combine`
the earlier `combine`, which scaled and added dense forms.
`oracle_coboundary_generator` is the earlier `coboundary_generator`,
read from `products()`, and `oracle_reduce_extension` the earlier
`reduce_extension`, which solved its own dense n^2 x n grid of
coboundary generators (`oracle_generator_matrix`) with `solve` for every
absorbed component.  They live here only, as references for
`CohomologyBasis.classes`, the coboundary preimages it returns, the
coboundary rows and the flat accumulation in `combine`.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from leibnizalg import catalog
from leibnizalg.cohomology import (
    BilinearForm,
    _class_and_preimage,
    coboundary_generator,
    coboundary_space,
    cocycle_space,
    cohomology_basis,
    cohomology_class,
    combine,
    is_cocycle,
)
from leibnizalg.core import Subspace, require_leibniz
from leibnizalg.extension import (
    SplitReport,
    make_spec,
    random_cocycle_forms,
    reduce_extension,
    validate_cocycle,
)
from leibnizalg.isomorphism import transform_algebra
from leibnizalg.linalg import Matrix, Vector, inverse, unit_vector
from oracles import flag_breaking_change, rref, solve

_ZERO = Fraction(0)
_ONE = Fraction(1)


def oracle_cohomology_class(a, form):
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


def oracle_combine(forms, coeffs):
    if not forms:
        raise ValueError("empty combination")
    if len(forms) != len(coeffs):
        raise ValueError("coefficient count mismatch")
    acc = BilinearForm.zero(forms[0].dim)
    for form, c in zip(forms, coeffs):
        if c:
            acc = acc.add(form.scale(c))
    return acc


def oracle_coboundary_generator(a, m):
    return BilinearForm.from_entries(a.dim, {(i, j): c for i, j, k, c in a.products() if k == m + 1})


def oracle_generator_matrix(a):
    n = a.dim
    # Column m is the flattened coboundary of the m-th coordinate functional.
    grid = [[Fraction(0)] * n for _ in range(n * n)]
    for i, j, m, c in a.products():
        grid[(i - 1) * n + j - 1][m - 1] = c
    return Matrix(grid, cols=n)


def oracle_reduce_extension(spec):
    base = spec.base
    require_leibniz(base)
    n, k = base.dim, spec.k
    h = cohomology_basis(base).dim
    if k == 0:
        empty = Matrix.zeros(0, 0)
        return SplitReport(0, 0, empty, (), (), Matrix.identity(n))
    classes = []
    for form in spec.forms:
        coords = oracle_cohomology_class(base, form)
        if coords is None:
            validate_cocycle(spec)  # raises, naming the first violating triple
        assert coords is not None
        classes.append(coords)
    augmented = Matrix(
        [tuple(row) + unit_vector(k, t) for t, row in enumerate(classes)], cols=h + k
    )
    reduced_rows, pivots = rref(augmented)
    d = sum(1 for p in pivots if p < h)
    u = Matrix([row[h:] for row in reduced_rows.data], cols=k)
    w = inverse(u)
    assert w is not None  # row operations are invertible
    transformed = [oracle_combine(spec.forms, u.row(s)) for s in range(k)]
    generators = oracle_generator_matrix(base)
    shifts: list[Vector] = []
    for s in range(d, k):
        phi = solve(generators, transformed[s].flatten())
        assert phi is not None  # zero class means a coboundary
        shifts.append(phi)
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
        reduced=tuple(transformed[:d]),
        section_shift=tuple(shifts),
        change_of_basis=Matrix.from_columns(columns),
    )


MEMBERS = (
    ("abelian", 0, {}),
    ("abelian", 3, {}),
    ("NF", 1, {}),
    ("NF", 4, {}),
    ("F1", 5, {}),
    ("F2", 6, {}),
    ("F3", 6, {"alpha": 1}),
    ("F1param", 5, {"alpha4": "1/2", "theta": "2/3"}),
    ("F2param", 5, {"beta4": "-3/2"}),
    ("L4l", 5, {"lam": "2/3"}),
    ("Lstar", 6, {}),
    ("Nstar", 6, {}),
)

small = st.fractions(min_value=-2, max_value=2, max_denominator=3)


@st.composite
def members(draw):
    """A catalog member in its own basis, a dense integer or a dense rational one."""
    family, dim, params = draw(st.sampled_from(MEMBERS))
    a = catalog.make(family, dim, **params)
    kind = draw(st.sampled_from(("catalog", "dense-integer", "dense-rational")))
    if kind == "catalog" or dim == 0:
        return a
    return transform_algebra(a, flag_breaking_change(draw, dim, kind == "dense-rational"))


def random_combination(draw, forms, dim):
    coeffs = [draw(small) for _ in forms]
    return oracle_combine(forms, coeffs) if forms else BilinearForm.zero(dim)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_class_of_cocycle_matches_solve_oracle(data):
    a = data.draw(members())
    form = random_combination(data.draw, cocycle_space(a).forms(), a.dim)
    expected = oracle_cohomology_class(a, form)
    assert expected is not None
    assert cohomology_class(a, form) == expected


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_class_of_coboundary_is_zero(data):
    a = data.draw(members())
    generators = [coboundary_generator(a, m) for m in range(a.dim)]
    form = random_combination(data.draw, generators, a.dim)
    h = cohomology_basis(a).dim
    assert cohomology_class(a, form) == oracle_cohomology_class(a, form) == (_ZERO,) * h


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_preimage_of_coboundary_matches_solve_oracle(data):
    a = data.draw(members())
    generators = [coboundary_generator(a, m) for m in range(a.dim)]
    form = random_combination(data.draw, generators, a.dim)
    h = cohomology_basis(a).dim
    expected = solve(oracle_generator_matrix(a), form.flatten())
    assert expected is not None
    assert _class_and_preimage(a, form) == ((_ZERO,) * h, expected)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_class_and_preimage_of_cocycle_match_oracles(data):
    a = data.draw(members())
    form = random_combination(data.draw, cocycle_space(a).forms(), a.dim)
    coords = oracle_cohomology_class(a, form)
    assert coords is not None
    reps = cohomology_basis(a).representatives
    rest = form.add(oracle_combine(reps, coords).scale(-_ONE)) if reps else form
    expected = solve(oracle_generator_matrix(a), rest.flatten())
    assert expected is not None
    assert _class_and_preimage(a, form) == (coords, expected)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_reduce_extension_matches_solve_oracle(data):
    a = data.draw(members())
    k = data.draw(st.integers(0, 6))
    spec = make_spec(a, *random_cocycle_forms(a, k, random.Random(data.draw(st.integers(0, 2**16)))))
    assert reduce_extension(spec) == oracle_reduce_extension(spec)


@settings(max_examples=40, deadline=None)
@given(members())
def test_coboundary_rows_match_products_oracle(a):
    generators = [oracle_coboundary_generator(a, m) for m in range(a.dim)]
    assert [coboundary_generator(a, m) for m in range(a.dim)] == generators
    span = Subspace.span(a.dim * a.dim, [g.flatten() for g in generators])
    assert coboundary_space(a).space == span


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_perturbed_cocycle_has_no_class(data):
    a = data.draw(members())
    n = a.dim
    broken = [
        (i, j)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if not is_cocycle(a, BilinearForm.singleton(n, i, j))
    ]
    assume(broken)
    i, j = data.draw(st.sampled_from(broken))
    form = random_combination(data.draw, cocycle_space(a).forms(), n)
    form = form.add(BilinearForm.singleton(n, i, j, data.draw(small.filter(bool))))
    assert oracle_cohomology_class(a, form) is None
    assert cohomology_class(a, form) is None


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_combine_matches_dense_oracle(data):
    n = data.draw(st.integers(0, 5))
    cells = st.lists(st.tuples(st.integers(1, max(n, 1)), st.integers(1, max(n, 1)), small), max_size=8)
    forms = [
        BilinearForm.from_entries(n, {(i, j): c for i, j, c in data.draw(cells) if n})
        for _ in range(data.draw(st.integers(1, 4)))
    ]
    coeffs = [data.draw(st.one_of(small, st.integers(-2, 2))) for _ in forms]
    assert combine(forms, coeffs) == oracle_combine(forms, coeffs)


def test_combine_refuses_what_the_oracle_refused():
    one, two = BilinearForm.zero(1), BilinearForm.zero(2)
    with pytest.raises(ValueError, match="empty combination"):
        combine([], [])
    with pytest.raises(ValueError, match="coefficient count mismatch"):
        combine([one], [])
    with pytest.raises(ValueError, match="dimension mismatch"):
        oracle_combine([one, two], [_ONE, _ONE])
    with pytest.raises(ValueError, match="dimension mismatch"):
        combine([one, two], [_ONE, _ONE])
    assert combine([one, two], [_ONE, _ZERO]) == oracle_combine([one, two], [_ONE, _ZERO])


def test_class_of_form_holding_a_float_is_refused():
    # The form is refused when it is built, before it can meet the echelon.
    values = [[_ZERO] * 5 for _ in range(5)]
    values[0][4] = 0.5
    with pytest.raises(TypeError, match="refusing to coerce float"):
        BilinearForm(5, tuple(tuple(row) for row in values))
