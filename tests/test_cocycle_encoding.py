"""The sparse condition rows against the per-triple sweep they replaced.

The first two oracles below are the earlier implementations of the
cocycle identity: a per-triple defect sweep and a dense condition
system.  `oracle_fraction_condition_rows` is the earlier body of
`cohomology._condition_rows`, kept verbatim, which swept all n^3 triples
and built `Fraction` rows; the integer rows scattered from the table must
be D times its rows, in its order, on catalog members and on random
tables that need not be Leibniz.  They live here only, as references
for the scatter `cohomology._half_rows` and the per-triple view
`cohomology._condition_rows` derived from it.

`cocycle_space` eliminates only the rows with j < k and theta(e_t, b)
for b in the squares subspace S.  The pairing identity behind that,
row(i, j, k) + row(i, k, j) = theta(e_i, [e_j, e_k] + [e_k, e_j]), is
pinned on random tables, and the kernel is checked against the kernel
of the whole per-triple system, on members up to dim 9 in triangular
and flag-breaking bases and on random tables.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leibnizalg import algebra_from_products, catalog
from leibnizalg.cohomology import (
    BilinearForm,
    CochainSpace,
    _condition_rows,
    cocycle_space,
    cocycle_violations,
    combine,
    condition_matrix,
    is_cocycle,
)
from leibnizalg.core import Subspace
from leibnizalg.extension import (
    InvalidCocycleError,
    central_extension,
    make_spec,
    reduce_extension,
    reduced_spec,
    validate_cocycle,
)
from leibnizalg.isomorphism import transform_algebra, verify_isomorphism
from leibnizalg.linalg import Matrix, kernel_basis
from oracles import flag_breaking_change


def oracle_defect(a, form, i, j, k):
    """theta(e_i,[e_j,e_k]) - theta([e_i,e_j],e_k) + theta([e_i,e_k],e_j), 0-based."""
    acc = Fraction(0)
    for m, c in enumerate(a.sc[j][k]):
        if c and form.values[i][m]:
            acc += c * form.values[i][m]
    for m, c in enumerate(a.sc[i][j]):
        if c and form.values[m][k]:
            acc -= c * form.values[m][k]
    for m, c in enumerate(a.sc[i][k]):
        if c and form.values[m][j]:
            acc += c * form.values[m][j]
    return acc


def oracle_violations(a, form):
    n = a.dim
    out = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                d = oracle_defect(a, form, i, j, k)
                if d:
                    out.append((i + 1, j + 1, k + 1, d))
    return out


def oracle_row(a, i, j, k):
    """The dense condition row of the 0-based triple (i, j, k)."""
    n = a.dim
    row = [Fraction(0)] * (n * n)
    for m, c in enumerate(a.sc[j][k]):
        if c:
            row[i * n + m] += c
    for m, c in enumerate(a.sc[i][j]):
        if c:
            row[m * n + k] -= c
    for m, c in enumerate(a.sc[i][k]):
        if c:
            row[m * n + j] += c
    return row


def oracle_condition_rows(a):
    n = a.dim
    rows = (oracle_row(a, i, j, k) for i in range(n) for j in range(n) for k in range(n))
    return [tuple(row) for row in rows if any(row)]


def oracle_fraction_condition_rows(a):
    n = a.dim
    den = a.table.denominator
    support = {
        key: [(m, Fraction(c, den)) for m, c in terms] for key, terms in a.table.products.items()
    }
    get = support.get
    rows = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                terms = [(i * n + m, c) for m, c in get((j, k), ())]
                terms += [(m * n + k, -c) for m, c in get((i, j), ())]
                terms += [(m * n + j, c) for m, c in get((i, k), ())]
                row = {}
                for p, c in terms:
                    row[p] = row[p] + c if p in row else c
                row = {p: c for p, c in row.items() if c}
                if row:
                    rows.append(((i + 1, j + 1, k + 1), row))
    return rows


def oracle_cocycle_space(a):
    n = a.dim
    rows = oracle_condition_rows(a)
    if not rows:
        basis = tuple(
            tuple(Fraction(1) if t == s else Fraction(0) for t in range(n * n))
            for s in range(n * n)
        )
    else:
        basis = kernel_basis(Matrix(rows, cols=n * n))
    return Subspace.span(n * n, basis)


def oracle_first_error(a, forms):
    for t, form in enumerate(forms):
        violations = oracle_violations(a, form)
        if violations:
            i, j, k, defect = violations[0]
            return (t + 1, (i, j, k), defect)
    return None


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
    ("L1l", 5, {"lam": "-1/3"}),
    ("L4l", 5, {"lam": "2/3"}),
    ("Lstar", 6, {}),
)

small = st.fractions(min_value=-2, max_value=2, max_denominator=3)


# Members up to dim 9, for the kernel of the half system against the whole one.
LARGER_MEMBERS = (
    ("NF", 9, {}),
    ("F1", 9, {}),
    ("F2", 8, {}),
    ("F3", 8, {"alpha": 1}),
    ("F1param", 7, {"alpha5": "1/2", "theta": "-2"}),
    ("L1l", 7, {"lam": "-1/3"}),
    ("L6", 5, {}),
    ("Lstar", 7, {}),
    ("Nstar", 6, {}),
    ("Qstar", 7, {}),
)


@st.composite
def members(draw, table=MEMBERS):
    """A catalog member in its own basis, a triangular integer or rational one, or a flag-breaking one."""
    family, dim, params = draw(st.sampled_from(table))
    a = catalog.make(family, dim, **params)
    kind = draw(st.sampled_from(("catalog", "integer", "rational", "flag-breaking")))
    if kind == "catalog" or dim == 0:
        return a
    if kind == "flag-breaking":
        return transform_algebra(a, flag_breaking_change(draw, dim, draw(st.booleans())))
    entries = st.integers(-2, 2).map(Fraction) if kind == "integer" else small
    diagonal = (Fraction(1), Fraction(-1)) if kind == "integer" else (
        Fraction(1), Fraction(-1), Fraction(2), Fraction(-1, 3))
    q = [[Fraction(0)] * dim for _ in range(dim)]
    for i in range(dim):
        q[i][i] = draw(st.sampled_from(diagonal))
        for j in range(i + 1, dim):
            q[i][j] = draw(entries)
    if draw(st.booleans()):
        q = [list(col) for col in zip(*q)]
    return transform_algebra(a, Matrix(q, cols=dim))


@st.composite
def random_tables(draw):
    """An algebra of dim 1..5 with a few random rational products, Leibniz or not."""
    n = draw(st.integers(1, 5))
    index = st.integers(1, n)
    cells = draw(st.lists(st.tuples(index, index, index, small.filter(bool)), min_size=1, max_size=10))
    products = {}
    for i, j, k, c in cells:
        products.setdefault((i, j), {})[k] = c
    return algebra_from_products(n, products, check=False)


@st.composite
def forms_on(draw, a):
    """A random form, a random cocycle, or a cocycle with one entry changed."""
    n = a.dim
    kind = draw(st.sampled_from(("random", "cocycle", "perturbed")))
    if kind == "random" or n == 0:
        cells = draw(st.lists(
            st.tuples(st.integers(1, max(n, 1)), st.integers(1, max(n, 1)), small),
            max_size=4))
        return BilinearForm.from_entries(n, {(i, j): c for i, j, c in cells if n})
    basis = cocycle_space(a).forms()
    coeffs = [draw(small) for _ in basis]
    form = combine(basis, coeffs) if basis else BilinearForm.zero(n)
    if kind == "perturbed":
        i, j = draw(st.integers(1, n)), draw(st.integers(1, n))
        c = draw(small.filter(bool))
        form = form.add(BilinearForm.singleton(n, i, j, c))
    return form


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_condition_system_matches_dense_oracle(data):
    a = data.draw(members())
    n = a.dim
    assert condition_matrix(a) == Matrix(oracle_condition_rows(a), cols=n * n)
    assert cocycle_space(a).space == oracle_cocycle_space(a)


@settings(max_examples=60, deadline=None)
@given(st.one_of(members(LARGER_MEMBERS), random_tables()))
def test_cocycle_space_is_the_kernel_of_the_whole_system(a):
    # cocycle_space eliminates the rows with j < k and theta(L, S) only
    assert cocycle_space(a) == CochainSpace(a.dim, oracle_cocycle_space(a))


@settings(max_examples=60, deadline=None)
@given(random_tables())
def test_condition_rows_pair_up_on_any_table(a):
    # row(i, j, k) + row(i, k, j) = theta(e_i, [e_j, e_k] + [e_k, e_j]), with
    # no Leibniz identity needed; at j = k, row(i, j, j) = theta(e_i, [e_j, e_j])
    n = a.dim

    def pairing(i, j, k):
        row = [Fraction(0)] * (n * n)
        for m in range(n):
            row[i * n + m] = a.sc[j][k][m] + a.sc[k][j][m]
        return row

    for i, j, k in itertools.product(range(n), repeat=3):
        rows = oracle_row(a, i, j, k), oracle_row(a, i, k, j)
        assert [x + y for x, y in zip(*rows)] == pairing(i, j, k)


@settings(max_examples=60, deadline=None)
@given(st.one_of(members(), random_tables()))
def test_integer_condition_rows_are_d_times_fraction_rows(a):
    rows = _condition_rows(a)
    expected = oracle_fraction_condition_rows(a)
    den = a.table.denominator
    assert [triple for triple, _ in rows] == [triple for triple, _ in expected]
    for (_, row), (_, old) in zip(rows, expected):
        assert row == {p: c * den for p, c in old.items()}
        assert all(type(c) is int and c for c in row.values())


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_violations_match_per_triple_oracle(data):
    a = data.draw(members())
    form = data.draw(forms_on(a))
    expected = oracle_violations(a, form)
    assert cocycle_violations(a, form) == expected
    assert is_cocycle(a, form) == (not expected)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_invalid_cocycle_error_matches_oracle(data):
    a = data.draw(members())
    forms = data.draw(st.lists(forms_on(a), min_size=1, max_size=3))
    spec = make_spec(a, *forms)
    expected = oracle_first_error(a, forms)
    if expected is None:
        validate_cocycle(spec)
        report = reduce_extension(spec)
        rebuilt = central_extension(reduced_spec(spec, report))
        check = verify_isomorphism(rebuilt, central_extension(spec), report.change_of_basis)
        assert check.ok, check.reason
        return
    for check in (validate_cocycle, reduce_extension, central_extension):
        with pytest.raises(InvalidCocycleError) as exc:
            check(spec)
        assert (exc.value.component, exc.value.triple, exc.value.defect) == expected
