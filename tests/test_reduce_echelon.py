"""`reduce_extension` and `verify_isomorphism` on int echelons, against the code they replaced.

`fraction_reduce_extension` (in `oracles`) is the earlier
`reduce_extension`, which did its class algebra on dense `Fraction`
matrices; `bareiss_verify_isomorphism` is the earlier
`verify_isomorphism`, which decided singularity by the Bareiss rank of
the dense integer grid and checked the brackets pair by pair with the
search's earlier exact filter (`oracles.brackets_match`).  The reports and checks must be
equal, field by field, on catalog members in their own basis and in
flag-breaking integer and rational bases, with cocycles that hold zero,
repeated, dependent and coboundary components, and on singular, dense,
searched and reduce-made change-of-basis matrices.  The row-by-row
scatter of `verify_isomorphism` must also report the same failing pair
in the reversed direction, inside each block of a reduce change of
basis, where only one side of a pair has a product, and on conjugating
witnesses up to dim 10.

Reduce and search matrices are built from int rows (`Matrix._from_ints`)
and keep them; those rows must be the ones their `data` gives, and
`verify_isomorphism`, which reads them, must answer as it does on a
matrix built from the same `data`, also after an int perturbation of the
section shear or of the block W.  `reduce_extension` builds one
`Echelon` per call: U^-1 is read off its pivots.
"""

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from leibnizalg import catalog, isomorphism, linalg
from leibnizalg.core import abelian_algebra
from leibnizalg.cohomology import BilinearForm, coboundary_generator, cocycle_space, combine, is_cocycle
from leibnizalg.extension import (
    InvalidCocycleError,
    central_extension,
    make_spec,
    random_cocycle_forms,
    reduce_extension,
    reduced_spec,
)
from leibnizalg.isomorphism import search_isomorphism, transform_algebra, verify_isomorphism
from leibnizalg.linalg import Matrix, inverse
from oracles import bareiss_verify_isomorphism, flag_breaking_change, fraction_reduce_extension

_ZERO = Fraction(0)

MEMBERS = (
    ("abelian", 0, {}),
    ("abelian", 3, {}),
    ("NF", 1, {}),
    ("NF", 4, {}),
    ("NF", 6, {}),
    ("F1", 5, {}),
    ("F1", 7, {}),
    ("F2", 6, {}),
    ("F2", 7, {}),
    ("F3", 6, {"alpha": 1}),
    ("F1param", 5, {"alpha4": "1/2", "theta": "2/3"}),
    ("L4l", 5, {"lam": "2/3"}),
    ("Lstar", 6, {}),
)
small = st.fractions(min_value=-2, max_value=2, max_denominator=3)


@st.composite
def members(draw):
    """A catalog member, its basis change and the member in that basis.

    The basis is the catalog's own or a flag-breaking integer or rational one.
    """
    family, dim, params = draw(st.sampled_from(MEMBERS))
    src = catalog.make(family, dim, **params)
    kind = draw(st.sampled_from(("catalog", "integer", "rational")))
    if kind == "catalog" or dim == 0:
        return src, Matrix.identity(dim), src
    q = flag_breaking_change(draw, dim, kind == "rational")
    return src, q, transform_algebra(src, q)


def combination(draw, forms, dim):
    return combine(forms, [draw(small) for _ in forms]) if forms else BilinearForm.zero(dim)


@st.composite
def components(draw, a):
    """0..8 cocycle components: cocycles, coboundaries, zeros, repeats and dependent ones.

    dim HL^2 is at most 4 here, so k >= 5 puts more pivots in the unit block than in the class block.
    """
    n = a.dim
    out = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(("cocycle", "coboundary", "zero", "repeat", "dependent")))
        if kind == "zero":
            out.append(BilinearForm.zero(n))
        elif kind == "repeat" and out:
            out.append(draw(st.sampled_from(out)))
        elif kind == "dependent" and out:
            out.append(combination(draw, out, n))
        elif kind == "coboundary":
            out.append(combination(draw, [coboundary_generator(a, m) for m in range(n)], n))
        else:
            out.append(combination(draw, cocycle_space(a).forms(), n))
    return out


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_reduce_extension_matches_fraction_oracle(data):
    _, _, a = data.draw(members())
    spec = make_spec(a, *data.draw(components(a)))
    assert reduce_extension(spec) == fraction_reduce_extension(spec)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_reduce_extension_matches_fraction_oracle_on_random_cocycles(data):
    _, _, a = data.draw(members())
    k = data.draw(st.integers(0, 8))
    spec = make_spec(a, *random_cocycle_forms(a, k, random.Random(data.draw(st.integers(0, 2**16)))))
    assert reduce_extension(spec) == fraction_reduce_extension(spec)


def raised(f, spec):
    with pytest.raises(InvalidCocycleError) as exc:
        f(spec)
    return exc.value.component, exc.value.triple, exc.value.defect


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_non_cocycle_component_raises_what_the_oracle_raised(data):
    _, _, a = data.draw(members())
    n = a.dim
    cells = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    broken = [(i, j) for i, j in cells if not is_cocycle(a, BilinearForm.singleton(n, i, j))]
    assume(broken)
    forms = data.draw(components(a))
    i, j = data.draw(st.sampled_from(broken))
    bad = BilinearForm.singleton(n, i, j, data.draw(small.filter(bool)))
    bad = combination(data.draw, cocycle_space(a).forms(), n).add(bad)
    forms.insert(data.draw(st.integers(0, len(forms))), bad)
    spec = make_spec(a, *forms)
    assert raised(reduce_extension, spec) == raised(fraction_reduce_extension, spec)


def test_reduce_extension_does_no_fraction_arithmetic_and_calls_no_rref_or_inverse(monkeypatch):
    rng = random.Random(7)
    specs = []
    for family, n in (("F1", 6), ("F2", 7), ("NF", 5)):
        a = catalog.make(family, n)
        for k in (1, 3, 6):
            specs.append(make_spec(a, *random_cocycle_forms(a, k, rng)))
    expected = [fraction_reduce_extension(spec) for spec in specs]  # also warms the class echelons
    calls = []

    def counting(name, f):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return f(*args, **kwargs)
        return wrapper

    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "leibnizalg"]:
        for name in ("rref", "inverse"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    monkeypatch.setattr(linalg.Echelon, "__init__", counting("Echelon", linalg.Echelon.__init__))
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__neg__"):
        monkeypatch.setattr(Fraction, name, counting(name, getattr(Fraction, name)))
    got = [reduce_extension(spec) for spec in specs]
    monkeypatch.undo()
    assert calls == ["Echelon"] * len(specs)  # one class algebra echelon each; U^-1 is read off its pivots
    assert got == expected
    assert not hasattr(linalg, "rref")


def perturbed(draw, p):
    rows = [list(row) for row in p.data]
    r, c = draw(st.integers(0, p.rows - 1)), draw(st.integers(0, p.cols - 1))
    rows[r][c] += draw(small.filter(bool))
    return Matrix(rows, cols=p.cols)


def assert_verify_matches(a, b, p):
    check = verify_isomorphism(a, b, p)
    assert check == bareiss_verify_isomorphism(a, b, p)
    return check


@st.composite
def singular(draw, q):
    """q with one column made zero, a copy of another, or a combination of the others."""
    n = q.cols
    cols = [q.column(j) for j in range(n)]
    j = draw(st.integers(0, n - 1))
    kind = draw(st.sampled_from(("zero", "repeat", "rank n-1")))
    others = [c for i, c in enumerate(cols) if i != j]
    if kind == "zero" or not others:
        cols[j] = (_ZERO,) * n
    elif kind == "repeat":
        cols[j] = draw(st.sampled_from(others))
    else:
        coeffs = [draw(small) for _ in others]
        cols[j] = tuple(sum((c * v[r] for c, v in zip(coeffs, others)), _ZERO) for r in range(n))
    return Matrix.from_columns(cols)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_verify_matches_bareiss_oracle_on_singular_dense_and_true_witnesses(data):
    src, q, a = data.draw(members())
    assume(a.dim)
    n = a.dim
    assert assert_verify_matches(a, src, q).ok
    assert_verify_matches(a, src, perturbed(data.draw, q))
    check = assert_verify_matches(a, src, data.draw(singular(q)))
    assert (check.ok, check.reason) == (False, "matrix is singular")
    dense = Matrix([[data.draw(small) for _ in range(n)] for _ in range(n)], cols=n)
    assert_verify_matches(a, src, dense)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_verify_matches_bareiss_oracle_on_searched_witnesses(data):
    family, dim, params = data.draw(st.sampled_from([m for m in MEMBERS if m[1] >= 3]))
    src = catalog.make(family, dim, **params)
    perm = data.draw(st.permutations(range(dim)))
    q = Matrix([[1 if perm[c] == r else 0 for c in range(dim)] for r in range(dim)], cols=dim)
    a = transform_algebra(src, q)
    result = search_isomorphism(a, src, budget=200, seed=data.draw(st.integers(0, 10**6)))
    assume(result.status == "found")
    assert_int_view(result.matrix)
    assert assert_verify_matches(a, src, result.matrix).ok
    assert_verify_matches(a, src, perturbed(data.draw, result.matrix))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_verify_matches_bareiss_oracle_on_reduce_change_of_basis(data):
    _, _, a = data.draw(members())
    spec = make_spec(a, *data.draw(components(a)))
    report = reduce_extension(spec)
    rebuilt, original = central_extension(reduced_spec(spec, report)), central_extension(spec)
    p = report.change_of_basis
    if p.rows:
        assert assert_verify_matches(rebuilt, original, p).ok
        assert_verify_matches(rebuilt, original, perturbed(data.draw, p))
        assert_verify_matches(original, rebuilt, p)
    n, size = a.dim, p.rows
    if n and spec.k:
        # columns 0..n-1 carry the section shear in rows n.., columns n.. the block W
        for block in (range(n), range(n, size)):
            rows = [list(row) for row in p.data]
            rows[data.draw(st.integers(n, size - 1))][data.draw(st.sampled_from(block))] += data.draw(small.filter(bool))
            q = Matrix(rows, cols=size)
            assert_verify_matches(rebuilt, original, q)
            assert_verify_matches(original, rebuilt, q)


def assert_int_view(m):
    """m was built from ints, and the int rows it keeps are those its `data` gives."""
    assert m._ints is not None
    assert m._int_rows() == Matrix(m.data, cols=m.cols)._int_rows()


def assert_verify_reads_the_int_view(a, b, m):
    assert_int_view(m)
    check = verify_isomorphism(a, b, m)
    assert check == verify_isomorphism(a, b, Matrix(m.data, cols=m.cols))
    return check


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_verify_reads_the_int_view_of_reduce_matrices_as_it_reads_their_data(data):
    _, _, a = data.draw(members())
    spec = make_spec(a, *data.draw(components(a)))
    report = reduce_extension(spec)
    assert_int_view(report.v_basis)
    rebuilt, original = central_extension(reduced_spec(spec, report)), central_extension(spec)
    p = report.change_of_basis
    assert assert_verify_reads_the_int_view(rebuilt, original, p).ok
    assert_verify_reads_the_int_view(original, rebuilt, p)
    n, size = a.dim, p.rows
    if n and spec.k:
        # perturbed as ints over p's denominator, in the section shear and in the block W
        ints, den = p._int_rows()
        for block in (range(n), range(n, size)):
            rows = [dict(row) for row in ints]
            r, c = data.draw(st.integers(n, size - 1)), data.draw(st.sampled_from(block))
            rows[r][c] = rows[r].get(c, 0) + data.draw(st.integers(-3, 3).filter(bool))
            q = Matrix._from_ints(rows, den, size)
            assert_verify_reads_the_int_view(rebuilt, original, q)
            assert_verify_reads_the_int_view(original, rebuilt, q)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_scatter_matches_bareiss_oracle_with_a_product_on_one_side_only(data):
    _, q, a = data.draw(members())
    n = a.dim
    assume(a.table.products)
    flat = abelian_algebra(n)
    first = min(a.table.products)
    for x, y in ((a, flat), (flat, a)):
        # the identity leaves a's first product unmatched on the other side
        check = assert_verify_matches(x, y, Matrix.identity(n))
        assert check.failing_pair == (first[0] + 1, first[1] + 1)
        assert not assert_verify_matches(x, y, q).ok


WIDE_MEMBERS = MEMBERS + (
    ("F1", 10, {}),
    ("F2", 10, {}),
    ("NF", 9, {}),
    ("L4l", 8, {"lam": "2/3"}),
    ("F1param", 8, {"alpha8": "1/2", "theta": "2/3"}),
    ("L3l", 9, {"lam": 1}),
    ("Lstar", 10, {}),
)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_scatter_matches_bareiss_oracle_on_conjugating_witnesses_up_to_dim_10(data):
    family, dim, params = data.draw(st.sampled_from([m for m in WIDE_MEMBERS if m[1]]))
    src = catalog.make(family, dim, **params)
    q = flag_breaking_change(data.draw, dim, data.draw(st.booleans()))
    a = transform_algebra(src, q)
    assert assert_verify_matches(a, src, q).ok
    assert assert_verify_matches(src, a, inverse(q)).ok
    assert_verify_matches(src, a, q)
    assert_verify_matches(a, src, perturbed(data.draw, q))


def test_verify_never_calls_the_search_filter(monkeypatch):
    src = catalog.make("F1", 6)
    q = Matrix([[1 if c == 5 - r else 0 for c in range(6)] for r in range(6)], cols=6)
    a = transform_algebra(src, q)
    calls = []
    real = isomorphism._passing

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(isomorphism, "_passing", counting)
    checks = [verify_isomorphism(a, src, q), verify_isomorphism(src, a, q), verify_isomorphism(a, src, Matrix.identity(6))]
    assert calls == []
    assert [c.ok for c in checks] == [True, True, False]  # the reversal is its own inverse
    assert search_isomorphism(a, src, budget=50).status == "found"
    assert calls  # the patch reaches the search
