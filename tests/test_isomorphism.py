"""Fingerprints, witness verification, and bounded isomorphism search."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leibnizalg import catalog
from leibnizalg.core import abelian_algebra, algebra_from_products
from leibnizalg.isomorphism import (
    compare_fingerprints,
    fingerprint,
    float_change_residual,
    search_isomorphism,
    transform_algebra,
    verify_isomorphism,
)
from leibnizalg.linalg import Matrix, inverse, vec


def diag(*entries):
    n = len(entries)
    return Matrix([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])


def test_fingerprint_frozen_filiform():
    fp = fingerprint(catalog.make("F1", 6)).as_dict()
    assert fp == {
        "dim": 6,
        "lcs_dims": [6, 4, 3, 2, 1, 0],
        "nilindex": 6,
        "shape": "filiform",
        "center_dim": 1,
        "left_ann_dim": 2,
        "right_ann_dim": 5,
        "squares_dim": 4,
        "charseq": [5, 1],
        "charseq_exact": True,
    }


def test_identity_witness_on_equal_tables():
    a = catalog.make("NF", 4)
    check = verify_isomorphism(a, catalog.make("NF", 4), Matrix.identity(4))
    assert check.ok
    assert check.failing_pair is None


@pytest.mark.parametrize(
    "first, second",
    [
        (("L", {"alpha3": 0, "beta3": 1, "alpha4": 0, "beta4": 0}), ("L3l", {"lam": 1})),
        (("N", {"alpha3": 0, "beta3": 1, "alpha4": 0, "beta4": 0}), ("L1l", {"lam": 1})),
    ],
)
def test_coincident_roster_pairs_at_dim_7(first, second):
    # L(0,1,0,0) and L3l(1) are both listed in experiment 4.4, N(0,1,0,0) and
    # L1l(1) both in 4.5; at dim 7 each pair has one integer table
    a = catalog.make(first[0], 7, **first[1])
    b = catalog.make(second[0], 7, **second[1])
    assert a == b
    assert a.table == b.table
    assert verify_isomorphism(a, b, Matrix.identity(7)) == verify_isomorphism(b, a, Matrix.identity(7))
    assert verify_isomorphism(a, b, Matrix.identity(7)).ok


def test_wrong_witness_reports_failing_pair():
    a = catalog.make("NF", 3)
    b = catalog.make("F1", 3)
    check = verify_isomorphism(a, b, Matrix.identity(3))
    assert not check.ok
    assert check.failing_pair is not None
    i, j = check.failing_pair
    assert 1 <= i <= 3 and 1 <= j <= 3


def test_singular_witness_rejected():
    a = catalog.make("NF", 3)
    check = verify_isomorphism(a, a, Matrix.zeros(3, 3))
    assert not check.ok
    assert "singular" in check.reason


rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def square_matrices(draw):
    """0x0, nonsingular (triangular times triangular) or singular rational matrices."""
    n = draw(st.integers(0, 6))
    kind = draw(st.sampled_from(("nonsingular", "singular")))
    if n == 0:
        return Matrix([], cols=0)
    if kind == "nonsingular":
        nonzero = rationals.filter(bool)
        lower = Matrix([[draw(nonzero) if c == r else (draw(rationals) if c < r else 0)
                         for c in range(n)] for r in range(n)])
        upper = Matrix([[draw(nonzero) if c == r else (draw(rationals) if c > r else 0)
                         for c in range(n)] for r in range(n)])
        return lower @ upper
    inner = draw(st.integers(0, n - 1))
    if inner == 0:
        return Matrix.zeros(n, n)
    left = Matrix([[draw(rationals) for _ in range(inner)] for _ in range(n)])
    right = Matrix([[draw(rationals) for _ in range(n)] for _ in range(inner)])
    return left @ right


@settings(max_examples=150, deadline=None)
@given(square_matrices())
def test_singular_witness_matches_inverse_oracle(p):
    a = abelian_algebra(p.rows)
    check = verify_isomorphism(a, a, p)
    singular = inverse(p) is None
    assert check.ok == (not singular)
    assert (check.reason == "matrix is singular") == singular


def test_scaling_normalizes_last_parameter():
    # scale the generator by 2: theta 8 collapses to 1
    a = catalog.make("F1param", 6, theta=1)
    b = catalog.make("F1param", 6, theta=8)
    p = diag(2, 2, 4, 8, 16, 32)
    assert verify_isomorphism(a, b, p).ok


def test_shear_merges_equal_parameters():
    # A = 1, B = -1/2 sends (alpha6, theta) = (2, 2) to (1, 1)
    a = catalog.make("F1param", 6, alpha6=1, theta=1)
    b = catalog.make("F1param", 6, alpha6=2, theta=2)
    half = Fraction(1, 2)
    p = Matrix.from_columns([
        vec([1, -half, 0, 0, 0, 0]),
        vec([0, half, 0, 0, 0, 0]),
        vec([0, 0, half, 0, 0, -half]),
        vec([0, 0, 0, half, 0, 0]),
        vec([0, 0, 0, 0, half, 0]),
        vec([0, 0, 0, 0, 0, half]),
    ])
    assert verify_isomorphism(a, b, p).ok


def test_shear_kills_theta_when_dominated():
    # A = 2, B = -2/9 sends (alpha6, theta) = (9, 1) to (1, 0)
    a = catalog.make("F1param", 6, alpha6=1, theta=0)
    b = catalog.make("F1param", 6, alpha6=9, theta=1)
    n = Fraction(1, 9)
    p = Matrix.from_columns([
        vec([2, -2 * n, 0, 0, 0, 0]),
        vec([0, 16 * n, 0, 0, 16 * n, 0]),
        vec([0, 0, 32 * n, 0, 0, 0]),
        vec([0, 0, 0, 64 * n, 0, 0]),
        vec([0, 0, 0, 0, 128 * n, 0]),
        vec([0, 0, 0, 0, 0, 256 * n]),
    ])
    assert verify_isomorphism(a, b, p).ok


def test_irrational_witness_small_residual_not_exact():
    # theta 2 -> 1 needs A = 2**(1/3); no rational certificate exists
    a = catalog.make("F1param", 6, theta=1)
    b = catalog.make("F1param", 6, theta=2)
    A = 2.0 ** (1.0 / 3.0)
    p = [[A if i == j and i < 2 else 0.0 for j in range(6)] for i in range(6)]
    for i in range(2, 6):
        p[i][i] = A ** i
    residual = float_change_residual(a, b, p)
    assert residual < 1e-9
    # the fingerprint tie shows why the float route was needed at all
    assert compare_fingerprints(fingerprint(a), fingerprint(b)).verdict != "distinguished"


def test_search_finds_relabeled_chain():
    # same chain written backwards: e1 <-> e3
    b = algebra_from_products(3, {(3, 3): {2: 1}, (2, 3): {1: 1}})
    result = search_isomorphism(catalog.make("NF", 3), b, budget=3000)
    assert result.status == "found"
    assert verify_isomorphism(catalog.make("NF", 3), b, result.matrix).ok


def test_search_finds_zero_dimensional_algebras_isomorphic():
    result = search_isomorphism(abelian_algebra(0), abelian_algebra(0))
    assert (result.status, result.trials) == ("found", 1)
    assert result.matrix == Matrix([], cols=0)


def test_search_distinguishes_by_invariant():
    result = search_isomorphism(catalog.make("NF", 3), abelian_algebra(3))
    assert result.status == "distinguished"
    assert result.invariant == "lcs_dims"
    assert result.matrix is None


def test_search_leaves_hard_pair_undetermined():
    # same fingerprint, different parameter: bounded search must not lie
    a = catalog.make("M", 7, alpha4=0, beta4=1)
    b = catalog.make("M", 7, alpha4=0, beta4=2)
    result = search_isomorphism(a, b, budget=500)
    assert result.status in ("distinguished", "undetermined")
    assert result.status != "found"


def test_transform_round_trip():
    a = catalog.make("F2", 5)
    q = Matrix([[1, 0, 0, 0, 0],
                [2, 1, 0, 0, 0],
                [0, -1, 1, 0, 0],
                [0, 0, 3, 1, 0],
                [0, 0, 0, 0, 1]])
    b = transform_algebra(a, q)
    assert verify_isomorphism(b, a, q).ok


def test_transform_rejects_singular():
    with pytest.raises(ValueError):
        transform_algebra(catalog.make("NF", 3), Matrix.zeros(3, 3))


unit_cell = st.integers(min_value=-2, max_value=2)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["NF", "F1", "F2"]),
       st.integers(min_value=4, max_value=6),
       st.data())
def test_fingerprint_is_conjugation_invariant(fam, d, data):
    a = catalog.make(fam, d)
    entries = [[Fraction(1) if i == j else Fraction(0) for j in range(d)]
               for i in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            entries[i][j] = Fraction(data.draw(unit_cell))
    q = Matrix(entries)
    b = transform_algebra(a, q)
    assert compare_fingerprints(fingerprint(a), fingerprint(b)).verdict != "distinguished"
    # structural fields must agree exactly even when charseq certainty differs
    fa, fb = fingerprint(a), fingerprint(b)
    assert (fa.dim, fa.lcs_dims, fa.nilindex, fa.shape) == (fb.dim, fb.lcs_dims, fb.nilindex, fb.shape)
    assert (fa.center_dim, fa.left_ann_dim, fa.right_ann_dim, fa.squares_dim) == (
        fb.center_dim, fb.left_ann_dim, fb.right_ann_dim, fb.squares_dim)
