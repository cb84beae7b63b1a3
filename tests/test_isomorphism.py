"""Fingerprints, witness verification, and bounded isomorphism search."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leibnizalg import catalog
from leibnizalg.core import abelian_algebra, algebra_from_products
from leibnizalg.isomorphism import (
    IsoCheck,
    compare_fingerprints,
    fingerprint,
    search_isomorphism,
    transform_algebra,
    verify_isomorphism,
    verify_scaling,
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


def test_irrational_witness_certified_exactly():
    # theta 1 -> 2 needs alpha**3 = 2; no rational witness exists, and the
    # scaling e1, e2 -> alpha e1, alpha e2, e_k -> alpha**(k-1) e_k is
    # certified for every root of t**3 - 2
    a = catalog.make("F1param", 6, theta=1)
    b = catalog.make("F1param", 6, theta=2)
    assert verify_scaling(a, b, (1, 1, 2, 3, 4, 5), 3, 2) == IsoCheck(True)
    # the fingerprint tie shows why an irrational witness is needed at all
    assert compare_fingerprints(fingerprint(a), fingerprint(b)).verdict != "distinguished"


THETAS = (1, 2, 3, -1)


def f1param_scaling(n):
    """Weights (1, 1, 2, ..., n-1) and d = n - 3: [e1, e2] = theta e_n picks up alpha**(n-3)."""
    return (1, 1, *range(2, n)), n - 3


@pytest.mark.parametrize("n", range(5, 13))
def test_scaling_certifies_every_f1param_pair(n):
    weights, d = f1param_scaling(n)
    pairs = [(t, u) for t in THETAS for u in THETAS if t != u]
    assert len(pairs) == 12
    for t, u in pairs:
        a, b = catalog.make("F1param", n, theta=t), catalog.make("F1param", n, theta=u)
        assert verify_scaling(a, b, weights, d, Fraction(u, t)) == IsoCheck(True), (n, t, u)


def refused_at(i, j):
    return IsoCheck(False, (i, j), "bracket images differ at (e%d, e%d)" % (i, j))


@pytest.mark.parametrize("n", (5, 6, 9))
def test_scaling_refuses_planted_faults(n):
    weights, d = f1param_scaling(n)
    a, b = catalog.make("F1param", n, theta=1), catalog.make("F1param", n, theta=2)
    assert verify_scaling(a, b, weights, d, 2).ok
    # r doubled: only [e1, e2] = theta e_n carries a power of alpha
    assert verify_scaling(a, b, weights, d, 4) == refused_at(1, 2)
    # one weight raised by 1: every basis vector takes part in a bracket
    for k in range(n):
        raised = list(weights)
        raised[k] += 1
        assert not verify_scaling(a, b, raised, d, 2).ok, k
    # one constant of b perturbed, unchecked: the first failing pair is its pair
    records = list(b.products())
    for t, (i, j, k, c) in enumerate(records):
        products = {}
        for s, (i2, j2, k2, c2) in enumerate(records):
            products.setdefault((i2, j2), {})[k2] = c2 + (s == t)
        perturbed = algebra_from_products(n, products, check=False)
        assert verify_scaling(a, perturbed, weights, d, 2) == refused_at(i, j), (i, j, k)
    # a nonzero constant whose exponent d does not divide: at d = 2 the
    # weights give [e1, e2] the exponent n - 3, and theta is unchanged, yet
    # alpha = 1 and alpha = -1 disagree there when n is even
    if (n - 3) % 2:
        assert verify_scaling(a, a, weights, 2, 1) == refused_at(1, 2)
    assert verify_scaling(a, a, weights, n - 2, 1) == refused_at(1, 2)


def test_scaling_refuses_bad_arguments():
    a = catalog.make("F1param", 6, theta=1)
    with pytest.raises(ValueError):
        verify_scaling(a, a, (1, 1, 2, 3, 4), 3, 2)
    with pytest.raises(ValueError):
        verify_scaling(a, catalog.make("F1", 5), (1, 1, 2, 3, 4, 5), 3, 2)
    with pytest.raises(ValueError):
        verify_scaling(a, a, (1, 1, 2, 3, 4, 5), 0, 2)
    with pytest.raises(ValueError):
        verify_scaling(a, a, (1, 1, 2, 3, 4, 5), 3, 0)
    with pytest.raises(TypeError):
        verify_scaling(a, a, (1, 1, 2, 3, 4, 5), 3, 0.5)
    with pytest.raises(TypeError):
        verify_scaling(a, a, (1.0, 1, 2, 3, 4, 5), 3, 2)


SCALING_MEMBERS = (
    ("abelian", 0, {}),
    ("NF", 3, {}),
    ("F1", 3, {}),
    ("abelian", 3, {}),
    ("NF", 5, {}),
    ("F1", 5, {}),
    ("F2", 5, {}),
    ("F1param", 5, {"alpha4": "1/2", "theta": "2/3"}),
    ("F2param", 5, {"beta4": "-3/2"}),
    ("L4l", 5, {"lam": "2/3"}),
    ("F1", 6, {}),
    ("F3", 6, {"alpha": 1}),
    ("F1param", 6, {"theta": 2}),
    ("Lstar", 6, {}),
    ("Nstar", 6, {}),
)

def scaling_matrix(weights, r):
    n = len(weights)
    return Matrix([[r**w if c == k else 0 for c in range(n)] for k, w in enumerate(weights)], cols=n)


scaling_ratios = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_scaling_at_d_1_matches_verify_isomorphism(data):
    """At d = 1 the root is r itself, so the certificate is `verify_isomorphism` of diag(r**w_k)."""
    family, dim, params = data.draw(st.sampled_from(SCALING_MEMBERS))
    member = catalog.make(family, dim, **params)
    weights = data.draw(st.lists(st.integers(-2, 3), min_size=dim, max_size=dim))
    r = data.draw(scaling_ratios)
    if data.draw(st.booleans()):
        # b is the member, a its diagonal transform, so the drawn scaling maps a onto b
        a, b = transform_algebra(member, scaling_matrix(weights, r)), member
        if data.draw(st.booleans()):
            weights = data.draw(st.lists(st.integers(-2, 3), min_size=dim, max_size=dim))
            r = data.draw(scaling_ratios)
    else:
        other = data.draw(st.sampled_from([m for m in SCALING_MEMBERS if m[1] == dim]))
        a, b = member, catalog.make(other[0], dim, **other[2])
    assert verify_scaling(a, b, weights, 1, r) == verify_isomorphism(a, b, scaling_matrix(weights, r))


def test_no_float_in_the_package():
    """No module holds a float literal, calls float() or draws random(); isinstance refusals stay."""
    found = []
    for path in sorted((Path(__file__).resolve().parent.parent / "src" / "leibnizalg").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                found.append((path.name, node.lineno, repr(node.value)))
            elif isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name) and func.id == "float":
                    found.append((path.name, node.lineno, "float()"))
                elif isinstance(func, ast.Attribute) and func.attr == "random":
                    found.append((path.name, node.lineno, "random()"))
    assert found == []


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
