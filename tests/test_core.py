"""Algebra construction, identity checking, and nilpotency invariants."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leibnizalg import catalog, linalg
from leibnizalg.cohomology import BilinearForm
from leibnizalg.core import (
    CharSeq,
    LeibnizError,
    NotNilpotentError,
    Subspace,
    _charseq_probes,
    _greedy_max_charseq,
    _jordan_type_of_grid,
    _rank_completion,
    abelian_algebra,
    algebra_from_products,
    bracket,
    center,
    characteristic_sequence,
    check_leibniz,
    classify_shape,
    direct_sum,
    jordan_type_nilpotent,
    left_annihilator,
    lower_central_series,
    natural_gradation,
    nilindex,
    right_annihilator,
    right_mult_operator,
    series_dims,
    squares_subspace,
)
from leibnizalg.isomorphism import transform_algebra
from leibnizalg.linalg import Matrix, inverse, unit_vector, vec
from oracles import integer_grid


def chain(n):
    # single bracket chain [e_i, e_1] = e_{i+1}
    return catalog.make("NF", n)


def test_products_round_trip():
    a = algebra_from_products(3, {(1, 1): {2: 1}, (2, 1): {3: 1}})
    assert sorted(a.products()) == [(1, 1, 2, Fraction(1)), (2, 1, 3, Fraction(1))]


def test_bad_product_raises_leibniz_error():
    # [e2,e2] = e1 on top of the chain breaks the identity
    with pytest.raises(LeibnizError) as exc:
        algebra_from_products(3, {(1, 1): {2: 1}, (2, 1): {3: 1}, (2, 2): {1: 1}})
    v = exc.value.violation
    assert (v.i, v.j, v.k) == (1, 1, 2)
    assert exc.value.total == 7


def test_check_leibniz_lists_every_violation():
    a = algebra_from_products(3, {(1, 1): {2: 1}, (2, 1): {3: 1}, (2, 2): {1: 1}},
                              check=False)
    violations = check_leibniz(a)
    assert len(violations) == 7
    assert all(v.defect != (0,) * 3 for v in violations)


def test_bracket_is_bilinear_on_chain():
    a = chain(4)
    x = vec([1, 2, 0, 0])
    y = vec([3, 0, 1, 0])
    left = bracket(a, x, y)
    parts = [bracket(a, unit_vector(4, 0), y), bracket(a, unit_vector(4, 1), y)]
    expect = tuple(p0 + 2 * p1 for p0, p1 in zip(*parts))
    assert left == expect


def test_chain_series_and_shape():
    a = chain(4)
    assert series_dims(a) == (4, 3, 2, 1, 0)
    assert nilindex(a) == 5
    assert classify_shape(a) == "null-filiform"
    assert center(a).dim == 1
    assert center(a).contains(unit_vector(4, 3))


def test_filiform_series_frozen():
    a = catalog.make("F1", 6)
    assert series_dims(a) == (6, 4, 3, 2, 1, 0)
    assert nilindex(a) == 6
    assert classify_shape(a) == "filiform"


def test_annihilators_on_filiform():
    a = catalog.make("F1", 6)
    assert left_annihilator(a).dim == 2
    assert right_annihilator(a).dim == 5
    assert squares_subspace(a).dim == 4


def test_abelian_and_direct_sum():
    a = direct_sum(chain(3), abelian_algebra(2))
    assert a.dim == 5
    assert series_dims(a) == (5, 2, 1, 0)
    assert center(a).dim == 3


def test_non_nilpotent_has_no_nilindex():
    # [e1,e2] = e1 keeps L^k = span(e1) forever
    a = algebra_from_products(2, {(1, 2): {1: 1}})
    assert nilindex(a) is None
    with pytest.raises(NotNilpotentError):
        classify_shape(a)
    with pytest.raises(NotNilpotentError):
        natural_gradation(a)


def test_right_mult_jordan_type():
    # R_{e1} on the dim-5 type-1 filiform: e1->e3->e4->e5, e2->e3
    a = catalog.make("F1", 5)
    op = right_mult_operator(a, unit_vector(5, 0))
    assert tuple(jordan_type_nilpotent(op).parts) == (4, 1)


def test_charseq_chain_is_exact():
    w = characteristic_sequence(chain(5))
    assert tuple(w.seq.parts) == (5,)
    assert w.exact


def test_charseq_filiform_frozen():
    w = characteristic_sequence(catalog.make("F1", 6))
    assert tuple(w.seq.parts) == (5, 1)
    assert w.exact
    # witness must realize the claimed sequence
    a = catalog.make("F1", 6)
    op = right_mult_operator(a, w.witness)
    assert tuple(jordan_type_nilpotent(op).parts) == (5, 1)


def partitions(n, cap):
    """Every partition of n with parts at most cap, parts weakly decreasing."""
    if n == 0:
        yield ()
        return
    for p in range(min(n, cap), 0, -1):
        for rest in partitions(n - p, p):
            yield (p,) + rest


def rank_sequence(parts):
    """r_0, r_1, ..., 0: the ranks of the powers of a nilpotent of Jordan type parts."""
    return [sum(max(p - k, 0) for p in parts) for k in range((parts[0] if parts else 0) + 1)]


def test_rank_completion_is_the_largest_type_with_those_ranks():
    for n in range(1, 13):
        for cap in range(1, n + 1):
            largest = {}
            seen = []
            for parts in partitions(n, cap):
                ranks = rank_sequence(parts)
                for k in range(1, len(ranks)):
                    prefix = tuple(ranks[: k + 1])
                    largest[prefix] = max(largest.get(prefix, parts), parts)
                    seen.append((prefix, parts))
            for prefix, parts in seen:
                completion = _rank_completion(list(prefix), cap)
                assert completion >= parts
                assert completion == largest[prefix], (n, cap, prefix)


def test_greedy_charseq_is_the_largest_type_within_rank_limits():
    for n in range(1, 11):
        for cap in range(1, n + 1):
            types = list(partitions(n, cap))
            assert _greedy_max_charseq(n, cap) == CharSeq(types[0])
            for mu in types:
                limits = rank_sequence(mu)[1:]
                within = [parts for parts in types if all(r <= u for r, u in zip(rank_sequence(parts)[1:], limits))]
                assert _greedy_max_charseq(n, cap, limits) == CharSeq(max(within)), (n, cap, mu)


def fixed_dense_basis(n):
    """A flag-breaking basis: lower triangular times unit upper triangular, entries +-1."""
    lower = [[Fraction((-1) ** (r * c + r)) if c <= r else Fraction(0) for c in range(n)] for r in range(n)]
    upper = [[Fraction(1) if c == r else Fraction((-1) ** (r + c)) if c > r else Fraction(0) for c in range(n)]
             for r in range(n)]
    return Matrix(lower, cols=n) @ Matrix(upper, cols=n)


def test_rank_chain_with_a_floor_returns_only_types_above_it():
    # Each nilpotent grid is a Jordan matrix of the given type, conjugated
    # by a fixed unimodular basis so that it is dense.  A type equal to the
    # floor is never returned, also when it has two or more largest blocks
    # below cap, whose ties no earlier rank can settle.
    for n in range(1, 8):
        q = fixed_dense_basis(n)
        q_inv = inverse(q)
        for cap in range(1, n + 1):
            types = list(partitions(n, cap))
            for parts in types:
                shift = [[Fraction(0)] * n for _ in range(n)]
                start = 0
                for p in parts:
                    for i in range(start, start + p - 1):
                        shift[i + 1][i] = Fraction(1)
                    start += p
                grid = integer_grid(q_inv @ Matrix(shift, cols=n) @ q)
                assert _jordan_type_of_grid(grid, n) == CharSeq(parts)
                for floor in types:
                    expected = CharSeq(parts) if parts > floor else None
                    assert _jordan_type_of_grid(grid, n, CharSeq(floor), cap) == expected, (parts, floor, cap)


@pytest.mark.parametrize("family, rank_calls", [("Qstar", 7), ("Nstar", len(_charseq_probes(7)) + 7)])
def test_charseq_sweep_stops_at_the_bound_and_prunes_chains(monkeypatch, family, rank_calls):
    # Qstar's first candidate reaches the certified bound (3, 2, 1, 1), so
    # one rank chain is all the sweep computes.  Nstar never reaches its
    # bound (5, 2): after the first full chain, each candidate that ties
    # (5, 1, 1) stops at its first rank.  The unpruned sweep computes
    # about 70 full chains, over 200 ranks, on either.
    a = transform_algebra(catalog.make(family, 7), fixed_dense_basis(7))
    calls = []
    integer_rank = linalg.integer_rank
    monkeypatch.setattr(linalg, "integer_rank", lambda grid, cols: calls.append(cols) or integer_rank(grid, cols))
    w = characteristic_sequence.__wrapped__(a)
    monkeypatch.undo()
    assert not w.exact
    assert len(calls) <= rank_calls


def test_gradation_of_filiform():
    g = natural_gradation(catalog.make("F1", 6))
    assert g.layer_dims == (2, 1, 1, 1, 1)
    assert not check_leibniz(g.algebra)
    assert series_dims(g.algebra) == (6, 4, 3, 2, 1, 0)
    # adapted basis columns must stay inside their own layer's term
    series = lower_central_series(catalog.make("F1", 6))
    for t in range(6):
        layer = g.layer_of(t)
        assert series[layer - 1].contains(g.adapted_basis.column(t))


def test_subspace_sum_and_reduce():
    s = Subspace.span(3, [vec([1, 0, 0])])
    t = Subspace.span(3, [vec([0, 1, 0])])
    u = s.sum(t)
    assert u.dim == 2
    assert u.reduce(vec([2, 3, 5])) == vec([0, 0, 5])
    assert u.contains_subspace(s)


def test_subspace_refuses_vectors_and_subspaces_of_another_ambient():
    s = Subspace.span(3, [vec([1, 0, 0])])
    for v in (vec([1, 0]), vec([1, 0, 0, 0])):
        with pytest.raises(ValueError, match="ambient dimension %d against 3" % len(v)):
            s.contains(v)
        with pytest.raises(ValueError, match="ambient dimension %d against 3" % len(v)):
            s.reduce(v)
        with pytest.raises(ValueError, match="ambient dimension %d against 3" % len(v)):
            Subspace.span(3, [vec([0, 1, 0]), v])
    with pytest.raises(ValueError, match="ambient dimension 2 against 3"):
        s.contains_subspace(Subspace.full(2))


_NF3 = catalog.make("NF", 3)
_FLOAT_ENTRY_POINTS = {
    "bracket left": lambda x: bracket(_NF3, (x, 0, 0), (1, 0, 0)),
    "bracket right": lambda x: bracket(_NF3, (1, 0, 0), (x, 0, 0)),
    "right_mult_operator": lambda x: right_mult_operator(_NF3, (x, 0, 0)),
    "Matrix": lambda x: Matrix([[x, 0], [0, 1]]),
    "Matrix.apply": lambda x: Matrix.identity(2).apply((x, 1)),
    "Subspace.span": lambda x: Subspace.span(2, [(x, 1)]),
    "Subspace.contains": lambda x: Subspace.full(2).contains((x, 1)),
    "Subspace.reduce": lambda x: Subspace.span(2, [(1, 1)]).reduce((x, 1)),
    "BilinearForm": lambda x: BilinearForm(2, [[x, 0], [0, 0]]),
    "BilinearForm.evaluate": lambda x: BilinearForm.singleton(2, 1, 1).evaluate((x, 1), (1, 0)),
}


@pytest.mark.parametrize("name", sorted(_FLOAT_ENTRY_POINTS))
def test_rational_entry_points_refuse_floats(name):
    call = _FLOAT_ENTRY_POINTS[name]
    with pytest.raises(TypeError, match="float 0.5"):
        call(0.5)
    call(Fraction(1, 2))


@pytest.mark.parametrize("name", sorted(_FLOAT_ENTRY_POINTS))
def test_rational_entry_points_read_literals_as_fractions(name):
    call = _FLOAT_ENTRY_POINTS[name]
    assert call("1/2") == call(Fraction(1, 2))


def test_bracket_and_apply_take_ints_and_literals_as_rationals():
    half = Fraction(1, 2)
    assert Matrix.identity(2).apply((1, "1/2")) == (Fraction(1), half)
    assert bracket(_NF3, ("1/2", 0, 0), (1, 0, 0)) == (0, half, 0)
    assert right_mult_operator(_NF3, (2, 0, 0)) == right_mult_operator(_NF3, (Fraction(2), Fraction(0), Fraction(0)))


small_coeff = st.integers(min_value=-2, max_value=2)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=6),
       st.lists(small_coeff, min_size=2, max_size=6),
       st.lists(small_coeff, min_size=2, max_size=6))
def test_chain_bracket_lands_in_derived(n, xs, ys):
    a = chain(n)
    x = vec((xs * n)[:n])
    y = vec((ys * n)[:n])
    sq = squares_subspace(a)
    assert sq.contains(bracket(a, x, y))


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=7))
def test_chain_invariant_profile(n):
    a = chain(n)
    assert series_dims(a) == tuple(range(n, -1, -1))
    assert center(a).dim == 1
    assert nilindex(a) == n + 1
