"""Bilinear forms stored as sparse ints against the dense forms they replaced.

`DenseBilinearForm`, `dense_combine` and `dense_cocycle_violations` in
`oracles` are the earlier dense `Fraction` implementations.  Every form
here is built twice from the same inputs, once each way, and the int
operations (`values`, `flatten`, `support`, `evaluate`, `scale`, `add`,
`combine`, `cocycle_violations`), equality and the hash are checked
against the dense ones.  The bases are catalog members in their own
basis and in bases that break the coordinate flag: a lower times a unit
upper triangular matrix, with integer or rational columns.  The
extension tables are checked against `_from_records` over the dense
values, which is how `central_extension` built them before.
"""

import random
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from leibnizalg import catalog, cohomology, extension, files
from leibnizalg.cohomology import (
    BilinearForm,
    cocycle_space,
    cocycle_violations,
    coboundary_generator,
    combine,
    is_cocycle,
)
from leibnizalg.core import _from_records, abelian_algebra
from leibnizalg.extension import (
    InvalidCocycleError,
    central_extension,
    make_spec,
    random_cocycle_forms,
    reduce_extension,
    reduced_spec,
)
from leibnizalg.isomorphism import transform_algebra
from leibnizalg.linalg import Matrix
from oracles import DenseBilinearForm, dense_cocycle_violations, dense_combine

_ZERO = Fraction(0)
_ONE = Fraction(1)

MEMBERS = (
    ("NF", 4, {}),
    ("F1", 5, {}),
    ("F2", 6, {}),
    ("F3", 6, {"alpha": 1}),
    ("F1param", 5, {"alpha4": "1/2", "theta": "2/3"}),
    ("F2param", 5, {"beta4": "-3/2"}),
    ("L4l", 5, {"lam": "2/3"}),
    ("Nstar", 6, {}),
)

small = st.fractions(min_value=-2, max_value=2, max_denominator=3)


@st.composite
def bases(draw):
    """A catalog member in its own basis or a flag-breaking one, or an abelian algebra."""
    if draw(st.integers(0, 7)) == 0:
        return abelian_algebra(draw(st.sampled_from((0, 3))))
    family, dim, params = draw(st.sampled_from(MEMBERS))
    a = catalog.make(family, dim, **params)
    kind = draw(st.sampled_from(("catalog", "dense-integer", "dense-rational")))
    if kind == "catalog":
        return a
    sign = st.sampled_from((_ONE, -_ONE))
    lower = [[_ZERO] * dim for _ in range(dim)]
    upper = [[_ZERO] * dim for _ in range(dim)]
    for r in range(dim):
        for c in range(r + 1):
            lower[r][c] = draw(sign)
            upper[c][r] = draw(sign) if c < r else _ONE
    q = (Matrix(lower, cols=dim) @ Matrix(upper, cols=dim)).data
    if kind == "dense-rational":
        scale = [draw(st.sampled_from((Fraction(1, 2), Fraction(-2, 3), Fraction(3, 2)))) for _ in range(dim)]
        q = [[x * scale[c] for c, x in enumerate(row)] for row in q]
    return transform_algebra(a, Matrix(q, cols=dim))


def entries_on(n):
    """Sparse 1-based entries {(i, j): c} of a form on dimension n."""
    if n == 0:
        return st.just({})
    cell = st.tuples(st.integers(1, n), st.integers(1, n))
    return st.dictionaries(cell, small, max_size=2 * n)


def both(n, entries):
    """The form from these entries, as stored now and as the dense oracle."""
    return BilinearForm.from_entries(n, entries), DenseBilinearForm.from_entries(n, entries)


def dense_random_cocycle_forms(base, k, rng):
    """`random_cocycle_forms` over the dense oracle, drawing the same coefficients."""
    basis = [DenseBilinearForm.from_flat(base.dim, v) for v in cocycle_space(base).space.basis]
    out = []
    for _ in range(k):
        coeffs = [Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in basis]
        out.append(dense_combine(basis, coeffs) if basis else DenseBilinearForm.zero(base.dim))
    return tuple(out)


def assert_same(form, dense):
    assert form.dim == dense.dim
    assert form.values == dense.values
    assert form.flatten() == dense.flatten()
    assert form.support() == dense.support()
    assert form.is_zero() == dense.is_zero()
    assert [(i, j, c) for i, j, c in form.terms()] == [
        (i, j, dense.values[i - 1][j - 1]) for i, j in dense.support()
    ]


def oracle_extension(spec, dense_forms):
    """The extension table as `central_extension` built it from dense values."""
    base = spec.base
    n, k = base.dim, len(dense_forms)
    records = list(base.products())
    for t, form in enumerate(dense_forms):
        records.extend(
            (i + 1, j + 1, n + t + 1, c) for i, row in enumerate(form.values) for j, c in enumerate(row)
        )
    labels = tuple(base.label(i) for i in range(n)) + tuple("x%d" % (t + 1) for t in range(k))
    return _from_records(n + k, records, labels, checked=True)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_form_operations_match_dense_oracle(data):
    n = data.draw(st.integers(0, 6))
    form, dense = both(n, data.draw(entries_on(n)))
    assert_same(form, dense)
    c = data.draw(small)
    assert_same(form.scale(c), dense.scale(c))
    other, dense_other = both(n, data.draw(entries_on(n)))
    assert_same(form.add(other), dense.add(dense_other))
    vector = st.lists(small, min_size=n, max_size=n)
    x, y = data.draw(vector), data.draw(vector)
    assert form.evaluate(x, y) == dense.evaluate(x, y)
    more = [both(n, data.draw(entries_on(n))) for _ in range(data.draw(st.integers(0, 3)))]
    forms = [form, other] + [f for f, _ in more]
    dense_forms = [dense, dense_other] + [d for _, d in more]
    coeffs = [data.draw(st.one_of(small, st.integers(-2, 2))) for _ in forms]
    assert_same(combine(forms, coeffs), dense_combine(dense_forms, coeffs))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_equality_and_hash_agree_with_dense_values(data):
    n = data.draw(st.integers(0, 5))
    form, dense = both(n, data.draw(entries_on(n)))
    c = data.draw(small.filter(bool))
    route = data.draw(st.sampled_from(("entries", "flat", "grid", "rescaled", "combined", "other")))
    if route == "entries":
        other, dense_other = both(n, {(i, j): v for i, j, v in form.terms()})
    elif route == "flat":
        other = BilinearForm.from_flat(n, form.flatten())
        dense_other = DenseBilinearForm.from_flat(n, dense.flatten())
    elif route == "grid":
        other, dense_other = BilinearForm(n, dense.values), dense
    elif route == "rescaled":
        other, dense_other = form.scale(c).scale(1 / c), dense.scale(c).scale(1 / c)
    elif route == "combined":
        other = combine([form, form], [c, 1 - c])
        dense_other = dense_combine([dense, dense], [c, 1 - c])
    else:
        other, dense_other = both(n, data.draw(entries_on(n)))
    assert (form == other) == (dense.values == dense_other.values)
    if form == other:
        assert hash(form) == hash(other)
        assert (form.denominator, form.entries) == (other.denominator, other.entries)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_cocycle_violations_match_dense_oracle(data):
    a = data.draw(bases())
    n = a.dim
    seed = data.draw(st.integers(0, 2**16))
    form = random_cocycle_forms(a, 1, random.Random(seed))[0]
    dense = dense_random_cocycle_forms(a, 1, random.Random(seed))[0]
    assert_same(form, dense)
    if n:
        entries = data.draw(entries_on(n))
        extra, dense_extra = both(n, entries)
        form, dense = form.add(extra), dense.add(dense_extra)
    assert cocycle_violations(a, form) == dense_cocycle_violations(a, dense)
    if n:
        m = data.draw(st.integers(0, n - 1))
        generator = coboundary_generator(a, m)
        dense_generator = DenseBilinearForm.from_flat(n, generator.flatten())
        assert cocycle_violations(a, generator) == dense_cocycle_violations(a, dense_generator) == []


@settings(max_examples=50, deadline=None)
@given(bases(), st.integers(0, 6), st.integers(0, 2**16))
def test_extension_tables_match_dense_records(a, k, seed):
    spec = make_spec(a, *random_cocycle_forms(a, k, random.Random(seed)))
    dense_forms = dense_random_cocycle_forms(a, k, random.Random(seed))
    for form, dense in zip(spec.forms, dense_forms):
        assert_same(form, dense)
    ext, expected = central_extension(spec), oracle_extension(spec, dense_forms)
    assert ext == expected
    assert (ext.table, ext.labels, ext.checked) == (expected.table, expected.labels, expected.checked)
    report = reduce_extension(spec)
    reduced = reduced_spec(spec, report)
    dense_reduced = [DenseBilinearForm.from_flat(a.dim, f.flatten()) for f in report.reduced]
    dense_reduced += [DenseBilinearForm.zero(a.dim)] * report.abelian_dim
    assert central_extension(reduced).table == oracle_extension(reduced, dense_reduced).table


def test_cocycle_files_round_trip_through_the_sparse_reader():
    a = catalog.make("F1", 6)
    forms = random_cocycle_forms(a, 3, random.Random(11)) + (BilinearForm.zero(6),)
    payload = files.forms_to_dict(6, forms)
    assert files.forms_from_dict(payload) == (6, forms)
    expected = [
        {"t": t, "i": i + 1, "j": j + 1, "c": str(c)}
        for t, form in enumerate(forms, start=1)
        for i, row in enumerate(form.values)
        for j, c in enumerate(row)
        if c
    ]
    assert payload == {"dim": 6, "k": 4, "entries": expected}


def test_form_is_immutable():
    form = BilinearForm.singleton(3, 1, 2, "2/3")
    with pytest.raises(AttributeError):
        form.denominator = 1
    assert (form.denominator, form.entries) == (3, {1: 2})


@contextmanager
def counting_class_calls():
    """Counts calls of `cohomology_class`, wherever the package would look it up."""
    calls = []
    original = cohomology.cohomology_class

    def counting(a, form):
        calls.append(form)
        return original(a, form)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cohomology, "cohomology_class", counting)
        patch.setattr(extension, "cohomology_class", counting, raising=False)
        yield calls


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_rebuilding_validates_without_class_coordinates(data):
    a = data.draw(bases())
    k = data.draw(st.integers(1, 6))
    spec = make_spec(a, *random_cocycle_forms(a, k, random.Random(data.draw(st.integers(0, 2**16)))))
    reduced = reduced_spec(spec, reduce_extension(spec))
    with counting_class_calls() as calls:
        central_extension(reduced)
        central_extension(spec)
    assert calls == []
    n = a.dim
    broken = [
        (i, j)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if not is_cocycle(a, BilinearForm.singleton(n, i, j))
    ]
    assume(broken)
    i, j = data.draw(st.sampled_from(broken))
    t = data.draw(st.integers(0, k - 1))
    bump = BilinearForm.singleton(n, i, j, data.draw(small.filter(bool)))
    forms = list(reduced.forms)
    forms[t] = forms[t].add(bump)
    dense = [DenseBilinearForm.from_flat(n, f.flatten()) for f in forms]
    expected = next(
        (s + 1, (v[0], v[1], v[2]), v[3])
        for s, f in enumerate(dense)
        for v in dense_cocycle_violations(a, f)[:1]
    )
    with counting_class_calls() as calls, pytest.raises(InvalidCocycleError) as exc:
        central_extension(make_spec(a, *forms))
    assert (exc.value.component, exc.value.triple, exc.value.defect) == expected
    assert calls == []
