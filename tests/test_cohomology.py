"""Second cohomology with central coefficients: frozen dimensions and laws."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leibnizalg import catalog
from leibnizalg.cohomology import (
    BilinearForm,
    coboundary_generator,
    coboundary_space,
    cocycle_space,
    cocycle_violations,
    cohomology_basis,
    cohomology_class,
    cohomology_dim,
    combine,
    condition_matrix,
    is_cocycle,
    preferred_cohomology_basis,
)
from leibnizalg.core import abelian_algebra, bracket
from leibnizalg.isomorphism import transform_algebra
from leibnizalg.linalg import Echelon, Matrix, rank, vec


def test_form_evaluate_and_support():
    f = BilinearForm.from_entries(3, {(1, 2): 1, (3, 3): "1/2"})
    assert f.support() == ((1, 2), (3, 3))
    assert f.evaluate(vec([1, 0, 0]), vec([0, 2, 0])) == 2
    assert f.evaluate(vec([0, 0, 2]), vec([0, 0, 3])) == 3


def test_condition_matrix_rank_smallest_chain():
    # dim-2 chain: the cocycle equations cut the 4-dim form space to 2
    a = catalog.make("NF", 2)
    assert rank(condition_matrix(a)) == 2
    assert cocycle_space(a).rank == 2


def test_chain_dim3_structure():
    a = catalog.make("NF", 3)
    assert cocycle_space(a).rank == 3
    assert coboundary_space(a).rank == 2
    h = cohomology_basis(a)
    assert h.dim == 1
    rep = h.representatives[0]
    assert rep.support() == ((3, 1),)


def test_not_a_cocycle_has_violation():
    a = catalog.make("NF", 3)
    f = BilinearForm.singleton(3, 1, 3)
    assert not is_cocycle(a, f)
    vs = cocycle_violations(a, f)
    assert vs
    i, j, k, defect = vs[0]
    # the reported triple must actually witness the failure
    assert defect != 0


@pytest.mark.parametrize("dim", [2, 4])
def test_is_cocycle_rejects_form_of_wrong_dimension(dim):
    a = catalog.make("NF", 3)
    with pytest.raises(ValueError, match="form dimension %d against algebra dimension 3" % dim):
        is_cocycle(a, BilinearForm.singleton(dim, dim, dim))


@pytest.mark.parametrize("dim", [2, 4])
def test_cohomology_class_rejects_form_of_wrong_dimension(dim):
    a = catalog.make("NF", 3)
    with pytest.raises(ValueError, match="form dimension %d against algebra dimension 3" % dim):
        cohomology_class(a, BilinearForm.singleton(dim, dim, dim))


@pytest.mark.parametrize("dim", [3, 6])
def test_cochain_space_refuses_form_of_wrong_dimension(dim):
    z = cocycle_space(catalog.make("F1", 5))
    with pytest.raises(ValueError, match="form dimension %d against cochain dimension 5" % dim):
        z.contains(BilinearForm.singleton(dim, 1, 1))


def test_cocycle_and_cohomology_basis_stay_int(monkeypatch):
    # ZL^2 is spanned from the int kernel rows and its forms are read off
    # the held rows, so neither the dense rref nor a Fraction round trip
    # through `from_flat` is built, in a dense rational basis too.
    lower = Matrix([[1, 0, 0, 0, 0], [1, -1, 0, 0, 0], [0, 1, 1, 0, 0], [1, 0, 1, -1, 0], [0, 1, 0, 1, 1]])
    upper = Matrix([[Fraction(1, 2) if j == i else int(j > i) for j in range(5)] for i in range(5)])
    a = transform_algebra(catalog.make("F1", 5), lower @ upper)
    expected = cohomology_basis(a)

    def refuse(*args):
        raise AssertionError("Fraction round trip")

    monkeypatch.setattr(BilinearForm, "from_flat", staticmethod(refuse))
    monkeypatch.setattr(Echelon, "dense_rows", refuse)
    z = cocycle_space.__wrapped__(a)
    basis = cohomology_basis.__wrapped__(a)
    assert z == expected.cocycles
    assert basis.representatives == expected.representatives


def test_coboundary_generators_are_coboundaries_of_bracket():
    a = catalog.make("F1", 5)
    for m in range(5):
        g = coboundary_generator(a, m)
        for i in range(5):
            for j in range(5):
                x = vec([1 if t == i else 0 for t in range(5)])
                y = vec([1 if t == j else 0 for t in range(5)])
                assert g.evaluate(x, y) == bracket(a, x, y)[m]


def test_coboundaries_inside_cocycles():
    for family, n in (("NF", 4), ("F1", 6), ("F2", 6)):
        a = catalog.make(family, n)
        z = cocycle_space(a)
        for f in coboundary_space(a).forms():
            assert z.contains(f)


@pytest.mark.parametrize("n", range(2, 8))
def test_chain_cohomology_law(n):
    a = catalog.make("NF", n)
    assert cocycle_space(a).rank == n
    assert coboundary_space(a).rank == n - 1
    assert cohomology_dim(a) == 1


@pytest.mark.parametrize("family", ["F1", "F2"])
@pytest.mark.parametrize("n", range(5, 8))
def test_filiform_cohomology_dims(family, n):
    a = catalog.make(family, n)
    assert cocycle_space(a).rank == n + 2
    assert coboundary_space(a).rank == n - 2
    assert cohomology_dim(a) == 4


def test_abelian_everything_is_a_cocycle():
    a = abelian_algebra(2)
    assert cocycle_space(a).rank == 4
    assert coboundary_space(a).rank == 0
    assert cohomology_dim(a) == 4


def test_cohomology_class_vanishes_on_coboundaries():
    a = catalog.make("F1", 6)
    g = coboundary_generator(a, 3)
    cls = cohomology_class(a, g)
    assert cls is not None
    assert all(c == 0 for c in cls)


def test_coboundary_generator_refuses_index_out_of_range():
    a = catalog.make("F1", 5)
    for m in (-1, 5):
        with pytest.raises(IndexError, match="out of range"):
            coboundary_generator(a, m)


def test_cohomology_class_none_for_non_cocycle():
    a = catalog.make("NF", 3)
    assert cohomology_class(a, BilinearForm.singleton(3, 1, 3)) is None


def test_cohomology_class_of_representatives_is_unit():
    a = catalog.make("F1", 6)
    h = cohomology_basis(a)
    for idx, rep in enumerate(h.representatives):
        cls = cohomology_class(a, rep)
        assert cls is not None
        assert cls[idx] == 1
        assert all(c == 0 for t, c in enumerate(cls) if t != idx)


def test_preferred_basis_on_filiform():
    a = catalog.make("F1", 6)
    pats = ((2, 1), (6, 1), (1, 2), (2, 2))
    reps = preferred_cohomology_basis(a, pats)
    assert reps is not None
    assert len(reps) == 4
    for rep, pat in zip(reps, pats):
        assert is_cocycle(a, rep)
        assert pat in rep.support()


def test_preferred_basis_rejects_dependent_patterns():
    a = catalog.make("NF", 4)
    # H is 1-dim; two independent preferred classes cannot exist
    assert preferred_cohomology_basis(a, ((4, 1), (1, 1))) is None


coeffs = st.lists(st.integers(min_value=-3, max_value=3), min_size=4, max_size=4)


@settings(max_examples=25, deadline=None)
@given(coeffs)
def test_cocycle_space_closed_under_combination(cs):
    a = catalog.make("F1", 5)
    forms = cocycle_space(a).forms()[:4]
    mix = combine(forms, vec(cs))
    assert is_cocycle(a, mix)


@settings(max_examples=25, deadline=None)
@given(coeffs)
def test_class_map_is_linear(cs):
    a = catalog.make("NF", 4)
    h = cohomology_basis(a)
    reps = (h.representatives * 4)[:4]
    mix = combine(reps, vec(cs))
    cls = cohomology_class(a, mix)
    assert cls is not None
    assert cls[0] == sum(Fraction(c) for c in cs)
