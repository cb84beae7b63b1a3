"""Exact rational linear algebra: frozen oracles plus randomized laws.

`solve` and `rref` are the earlier `linalg.solve` and `linalg.rref`, now
test oracles in `oracles`; their frozen cases stay here.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leibnizalg.core import Subspace
from leibnizalg.files import matrix_from_dict, matrix_to_dict
from leibnizalg.linalg import (
    Matrix,
    frac,
    integer_rank,
    inverse,
    kernel_basis,
    rank,
    vec,
)
from oracles import integer_grid, rref, solve


def test_frac_accepts_ints_strings_fractions():
    assert frac(3) == Fraction(3)
    assert frac("2/7") == Fraction(2, 7)
    assert frac(Fraction(-1, 4)) == Fraction(-1, 4)


def test_frac_rejects_floats():
    # floats smuggle binary rounding into exact pipelines
    with pytest.raises(TypeError):
        frac(0.5)


def test_frac_rejects_exponents():
    # "1e4000000" would build 10**4000000 before any size check
    for literal in ("1e100000", "2E3", "-1.5e-2"):
        with pytest.raises(ValueError, match="exponent"):
            frac(literal)
    assert frac(" -3/2 ") == Fraction(-3, 2)
    assert frac("1.25") == Fraction(5, 4)


def test_matrix_refuses_a_float_among_fractions():
    # entries that are Fractions skip `frac`; any other entry still goes through it
    rows = [[Fraction(1), Fraction(1, 2)], [Fraction(-3, 4), 0.25]]
    with pytest.raises(TypeError, match="float"):
        Matrix(rows)
    with pytest.raises(ValueError, match="exponent"):
        Matrix([[Fraction(1), "1e5"]])
    assert Matrix([[Fraction(1, 2), 3], ["-2/3", Fraction(0)]]).data == (
        (Fraction(1, 2), Fraction(3)),
        (Fraction(-2, 3), Fraction(0)),
    )


def test_span_refuses_float_entries():
    # `span` reads each vector with `_integer_vector`, which refuses floats
    with pytest.raises(TypeError, match="refusing to coerce float 0.5"):
        Subspace.span(2, [(Fraction(1), 0.5)])


def test_rref_frozen_oracle():
    # worked by hand: row-reduce [[1,2,1],[2,4,0],[3,6,1]]
    m = Matrix([[1, 2, 1], [2, 4, 0], [3, 6, 1]])
    r, pivots = rref(m)
    assert pivots == (0, 2)
    assert r == Matrix([[1, 2, 0], [0, 0, 1], [0, 0, 0]])


def test_rref_fractional_pivots():
    m = Matrix([["1/2", "1/3"], ["1/4", "1/6"]])
    r, pivots = rref(m)
    assert pivots == (0,)
    assert r == Matrix([[1, "2/3"], [0, 0]])


def test_solve_unique_frozen():
    # 2x + y = 5, x - y = 1  =>  x = 2, y = 1
    m = Matrix([[2, 1], [1, -1]])
    x = solve(m, vec([5, 1]))
    assert x == vec([2, 1])


def test_solve_inconsistent_returns_none():
    m = Matrix([[1, 1], [1, 1]])
    assert solve(m, vec([0, 1])) is None


def test_kernel_frozen_oracle():
    # kernel of [1 2 3] is spanned by (-2,1,0) and (-3,0,1)
    basis = kernel_basis(Matrix([[1, 2, 3]]))
    assert basis == (vec([-2, 1, 0]), vec([-3, 0, 1]))


def test_kernel_of_invertible_is_empty():
    assert kernel_basis(Matrix([[1, 1], [0, 1]])) == ()


def test_inverse_round_trip():
    m = Matrix([[1, 2], [3, 5]])
    mi = inverse(m)
    assert mi is not None
    assert m @ mi == Matrix.identity(2)
    assert mi @ m == Matrix.identity(2)


def test_inverse_singular_returns_none():
    assert inverse(Matrix([[1, 2], [2, 4]])) is None


small_entries = st.integers(min_value=-5, max_value=5)


def matrices(max_dim=5):
    return st.integers(min_value=1, max_value=max_dim).flatmap(
        lambda r: st.integers(min_value=1, max_value=max_dim).flatmap(
            lambda c: st.lists(
                st.lists(small_entries, min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            ).map(Matrix)
        )
    )


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rank_plus_nullity(m):
    assert rank(m) + len(kernel_basis(m)) == m.cols


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rref_is_idempotent(m):
    r, pivots = rref(m)
    r2, pivots2 = rref(r)
    assert r2 == r
    assert pivots2 == pivots


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_kernel_vectors_annihilate(m):
    for v in kernel_basis(m):
        assert all(x == 0 for x in m.apply(v))


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_integer_fast_path_agrees_with_rref(m):
    grid = integer_grid(m)
    assert grid is not None  # integer entries by construction
    assert integer_rank(grid, m.cols) == rank(m)


def oracle_apply(m, v):
    """The earlier `Matrix.apply`: a dense `Fraction` dot product per row."""
    out = []
    for row in m.data:
        acc = Fraction(0)
        for a, x in zip(row, v):
            if a and x:
                acc += a * x
        out.append(acc)
    return tuple(out)


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5), st.data())
def test_apply_on_the_int_view_matches_fraction_dot_products(rows, cols, data):
    grid = data.draw(st.lists(st.lists(rationals, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    v = data.draw(st.lists(rationals, min_size=cols, max_size=cols))
    m = Matrix(grid, cols=cols)
    ints, d = m._int_rows()
    want = oracle_apply(m, v)
    for matrix in (m, Matrix._from_ints([dict(row) for row in ints], d, cols)):
        got = matrix.apply(v)
        assert got == want
        assert all(type(x) is Fraction for x in got)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5), st.integers(1, 6), st.booleans(), st.data())
def test_every_construction_stores_one_canonical_form(rows, cols, k, negate, data):
    # A grid, its int rows scaled by k over d*k, and its document read back
    # are one matrix: equal int rows, so equal data, equality and hash.
    grid = data.draw(st.lists(st.lists(rationals, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    m = Matrix(grid, cols=cols)
    ints, d = m._int_rows()
    assert d > 0 and math.gcd(d, *(x for row in ints for _, x in row)) == 1
    assert all(x and [j for j, _ in row] == sorted(j for j, _ in row) for row in ints for _, x in row)
    assert m.data == tuple(tuple(Fraction(x) for x in row) for row in grid)
    k = -k if negate else k
    scaled = Matrix._from_ints([{j: x * k for j, x in row} for row in ints], d * k, cols)
    for other in (scaled, matrix_from_dict(matrix_to_dict(m))):
        assert other == m and hash(other) == hash(m)
        assert other._int_rows() == m._int_rows()
        assert other.data == m.data
    inv = inverse(m) if rows == cols else None
    if inv is not None:
        # Echelon runs on [d*m | d*I]: an identity block of 1s would give m^-1 / d
        assert inv @ m == Matrix.identity(rows) == m @ inv
        v = data.draw(st.lists(rationals, min_size=cols, max_size=cols))
        assert inv.apply(m.apply(v)) == tuple(v)


@settings(max_examples=40, deadline=None)
@given(matrices(max_dim=4), st.lists(small_entries, min_size=1, max_size=4))
def test_solve_result_satisfies_system(m, rhs_seed):
    rhs = vec((rhs_seed * m.rows)[: m.rows])
    x = solve(m, rhs)
    if x is not None:
        assert m.apply(x) == rhs
