"""Central extensions: construction, centrality, splitting, rebuild."""

import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leibnizalg import catalog
from leibnizalg.cohomology import (
    BilinearForm,
    coboundary_generator,
    cohomology_basis,
    combine,
)
from leibnizalg.core import (
    LeibnizError,
    algebra_from_products,
    center,
    check_leibniz,
    nilindex,
    series_dims,
)
from leibnizalg.extension import (
    InvalidCocycleError,
    SplitReport,
    adjoined_subspace,
    central_extension,
    centrality_report,
    is_split,
    make_spec,
    random_cocycle_forms,
    reduce_extension,
    reduced_spec,
    validate_cocycle,
)
from leibnizalg.isomorphism import verify_isomorphism
from leibnizalg.linalg import Echelon, Matrix, vec


def chain_top_form(n):
    # the one nontrivial class of the dim-n chain
    return BilinearForm.singleton(n, n, 1)


def test_extension_of_chain_is_longer_chain():
    base = catalog.make("NF", 4)
    ext = central_extension(make_spec(base, chain_top_form(4)))
    assert ext.dim == 5
    assert not check_leibniz(ext)
    assert series_dims(ext) == (5, 4, 3, 2, 1, 0)
    target = catalog.make("NF", 5)
    check = verify_isomorphism(ext, target, Matrix.identity(5))
    assert check.ok


def test_invalid_cocycle_rejected():
    base = catalog.make("NF", 3)
    bad = BilinearForm.singleton(3, 1, 3)
    with pytest.raises(InvalidCocycleError) as exc:
        validate_cocycle(make_spec(base, bad))
    assert exc.value.component == 1
    with pytest.raises(InvalidCocycleError):
        central_extension(make_spec(base, bad))


def test_reduce_rejects_invalid_second_component():
    base = catalog.make("F1", 5)
    good = cohomology_basis(base).representatives[0]
    bad = BilinearForm.singleton(5, 1, 3, "2/3")
    spec = make_spec(base, good, bad)
    with pytest.raises(InvalidCocycleError) as expected:
        validate_cocycle(spec)
    with pytest.raises(InvalidCocycleError) as exc:
        reduce_extension(spec)
    assert exc.value.component == 2
    assert (exc.value.triple, exc.value.defect) == (expected.value.triple, expected.value.defect)
    assert str(exc.value) == str(expected.value)


def raised_by_central_extension(spec):
    with pytest.raises(InvalidCocycleError) as exc:
        central_extension(spec)
    return exc.value.component, exc.value.triple, exc.value.defect


def test_central_extension_validates_every_spec_not_proved_valid():
    base = catalog.make("F1", 5)
    reps = cohomology_basis(base).representatives
    bad = BilinearForm.singleton(5, 1, 3, "2/3")
    forms = (reps[0], bad, reps[1])
    with pytest.raises(InvalidCocycleError) as ref:
        validate_cocycle(make_spec(base, *forms))
    expected = (ref.value.component, ref.value.triple, ref.value.defect)
    assert expected[0] == 2
    # a fresh spec with a planted non-cocycle component
    assert raised_by_central_extension(make_spec(base, *forms)) == expected
    # a spec reduce_extension just refused: a failure is not memoised
    refused = make_spec(base, *forms)
    with pytest.raises(InvalidCocycleError):
        reduce_extension(refused)
    assert raised_by_central_extension(refused) == expected
    assert raised_by_central_extension(refused) == expected
    # a hand-built report holding a non-cocycle, and one copied by dataclasses.replace
    valid = make_spec(base, reps[0], reps[1], reps[0].add(coboundary_generator(base, 2)))
    report = reduce_extension(valid)
    assert report.reduced and report.split
    forged = SplitReport(report.class_rank, report.abelian_dim, report.v_basis,
                         (bad,) + report.reduced[1:], report.section_shift, report.change_of_basis)
    for fake in (forged, dataclasses.replace(report, reduced=forged.reduced)):
        with pytest.raises(InvalidCocycleError) as ref:
            validate_cocycle(reduced_spec(valid, fake))
        assert raised_by_central_extension(reduced_spec(valid, fake)) == (
            ref.value.component, ref.value.triple, ref.value.defect)
    # a spec equal to one that was validated, built separately
    assert raised_by_central_extension(make_spec(base, *refused.forms)) == expected


def test_workload_call_sequence_does_one_class_reduction_per_component(monkeypatch):
    rng = random.Random(5)
    bases = [catalog.make(family, n) for family in ("F1", "F2") for n in (5, 6, 7, 8)]
    echelons = {id(cohomology_basis(base).classes) for base in bases}
    calls = []
    real = Echelon.reduce_ints

    def counting(self, row):
        if id(self) in echelons:
            calls.append(len(row))
        return real(self, row)

    monkeypatch.setattr(Echelon, "reduce_ints", counting)
    for base in bases:
        for k in range(1, 7):
            spec = make_spec(base, *random_cocycle_forms(base, k, rng))
            calls.clear()
            report = reduce_extension(spec)
            rebuilt = central_extension(reduced_spec(spec, report))
            original = central_extension(spec)
            assert verify_isomorphism(rebuilt, original, report.change_of_basis).ok
            assert len(calls) == k
            # an equal spec built separately is validated on its own
            calls.clear()
            assert central_extension(make_spec(base, *spec.forms)) == original
            assert len(calls) == k


def test_reduce_rejects_non_leibniz_base():
    # a coboundary over a non-Leibniz base can fail the cocycle identity
    base = algebra_from_products(3, {(1, 1): {2: 1}, (2, 1): {3: 1}, (2, 2): {1: 1}},
                                 check=False)
    for form in (BilinearForm.zero(3), coboundary_generator(base, 1)):
        with pytest.raises(LeibnizError):
            reduce_extension(make_spec(base, form))


def test_adjoined_directions_are_central():
    base = catalog.make("F1", 5)
    h = cohomology_basis(base)
    spec = make_spec(base, *h.representatives[:2])
    in_center, equals_center = centrality_report(spec)
    assert in_center
    ext = central_extension(spec)
    assert center(ext).contains_subspace(adjoined_subspace(spec))


def test_centrality_equality_depends_on_cocycle():
    # full representative set over the dim-5 chain: V = center exactly
    base = catalog.make("NF", 5)
    full = make_spec(base, *cohomology_basis(base).representatives)
    assert centrality_report(full) == (True, True)
    # a zero component leaves a central direction of the base uncovered
    lax = make_spec(base, BilinearForm.zero(5))
    assert centrality_report(lax) == (True, False)


def test_nontrivial_class_does_not_split():
    base = catalog.make("NF", 4)
    spec = make_spec(base, chain_top_form(4))
    report = reduce_extension(spec)
    assert report.class_rank == 1
    assert report.abelian_dim == 0
    assert not report.split
    flag, witness = is_split(spec)
    assert not flag and witness is None


def test_coboundary_component_splits_off():
    base = catalog.make("NF", 4)
    spec = make_spec(base, coboundary_generator(base, 2))
    report = reduce_extension(spec)
    assert report.class_rank == 0
    assert report.abelian_dim == 1
    flag, witness = is_split(spec)
    assert flag
    # witness direction must be central and outside the derived subalgebra
    ext = central_extension(spec)
    assert center(ext).contains(witness)


def test_full_cocycle_basis_rank_frozen():
    # five random-ish components over the dim-6 type-1 filiform: rank caps at 4
    base = catalog.make("F1", 6)
    rng = random.Random(20162)
    spec = make_spec(base, *random_cocycle_forms(base, 5, rng))
    report = reduce_extension(spec)
    assert report.class_rank <= 4
    assert report.class_rank + report.abelian_dim == 5
    assert report.split


def test_rebuild_matches_original():
    base = catalog.make("F1", 6)
    rng = random.Random(7)
    spec = make_spec(base, *random_cocycle_forms(base, 3, rng))
    report = reduce_extension(spec)
    rebuilt = central_extension(reduced_spec(spec, report))
    original = central_extension(spec)
    check = verify_isomorphism(rebuilt, original, report.change_of_basis)
    assert check.ok, check.reason


def test_zero_dimensional_base_splits_off_everything():
    zero = BilinearForm.zero(0)
    spec = make_spec(catalog.make("abelian", 0), zero, zero)
    report = reduce_extension(spec)
    assert (report.class_rank, report.abelian_dim) == (0, 2)
    assert report.section_shift == ((), ())
    rebuilt = central_extension(reduced_spec(spec, report))
    check = verify_isomorphism(rebuilt, central_extension(spec), report.change_of_basis)
    assert check.ok, check.reason


def test_scalar_extension_keeps_nilpotency():
    base = catalog.make("F2", 6)
    for rep in cohomology_basis(base).representatives:
        ext = central_extension(make_spec(base, rep))
        assert nilindex(ext) in (nilindex(base), nilindex(base) + 1)


small = st.integers(min_value=-2, max_value=2)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1), st.integers(min_value=1, max_value=4))
def test_random_extensions_satisfy_identity(seed, k):
    base = catalog.make("F1", 5)
    spec = make_spec(base, *random_cocycle_forms(base, k, random.Random(seed)))
    ext = central_extension(spec)
    assert ext.dim == 5 + k
    assert not check_leibniz(ext)
    in_center, _ = centrality_report(spec)
    assert in_center


@settings(max_examples=20, deadline=None)
@given(st.lists(small, min_size=4, max_size=4))
def test_adding_coboundaries_never_changes_class_rank(cs):
    base = catalog.make("NF", 5)
    rep = cohomology_basis(base).representatives[0]
    shift = combine(
        tuple(coboundary_generator(base, m) for m in range(1, 5)),
        vec(cs),
    )
    plain = reduce_extension(make_spec(base, rep))
    shifted = reduce_extension(make_spec(base, rep.add(shift)))
    assert plain.class_rank == shifted.class_rank == 1
