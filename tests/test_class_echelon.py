"""Cohomology classes from the cached tagged echelon against the code it replaced.

`oracle_cohomology_class` is the earlier `cohomology_class`, which solved
one fresh system [BL^2 | representatives] per form, and `oracle_combine`
the earlier `combine`, which scaled and added dense forms.  They live
here only, as references for `CohomologyBasis.classes` and the flat
accumulation in `combine`.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from leibnizalg import catalog
from leibnizalg.cohomology import (
    BilinearForm,
    coboundary_generator,
    cocycle_space,
    cohomology_basis,
    cohomology_class,
    combine,
    is_cocycle,
)
from leibnizalg.isomorphism import transform_algebra
from leibnizalg.linalg import Matrix, solve

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
    sign = st.sampled_from((_ONE, -_ONE))
    q = [[_ZERO] * dim for _ in range(dim)]
    for r in range(dim):
        for c in range(r + 1):
            q[r][c] = draw(sign)
    if kind == "dense-rational":
        scale = [draw(st.sampled_from((Fraction(1, 2), Fraction(-2, 3), Fraction(3, 2)))) for _ in range(dim)]
        q = [[x * scale[c] for c, x in enumerate(row)] for row in q]
    return transform_algebra(a, Matrix(q, cols=dim))


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
    a = catalog.make("F1", 5)
    values = [[_ZERO] * 5 for _ in range(5)]
    values[0][4] = 0.5
    form = BilinearForm(5, tuple(tuple(row) for row in values))
    with pytest.raises(TypeError, match="refusing to eliminate float"):
        cohomology_class(a, form)
