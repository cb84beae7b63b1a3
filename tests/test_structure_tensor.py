"""The integer structure tensor against the dense Fraction loops it replaced.

The oracles below are the earlier implementations, kept verbatim apart
from their names: the dense `bracket`, `_leibniz_defect`/`check_leibniz`,
`right_mult_operator`, the lower central series, the stacked kernel
behind the center and the annihilators, the squares subspace, the
characteristic sequence over `right_mult_operator` and
`jordan_type_nilpotent`, `_brackets_match`, and the `Matrix` candidate
stream of the isomorphism search.  `oracle_equal` is the field-wise
equality of the earlier frozen dataclass.  They live here only, as
references for the loops over `Algebra.table`.
"""

import itertools
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from leibnizalg import catalog, files
from leibnizalg.core import (
    CHARSEQ_RANDOM_TRIALS,
    CHARSEQ_SEED,
    Algebra,
    CharSeq,
    CharSeqWitness,
    LeibnizViolation,
    NotNilpotentError,
    Subspace,
    _greedy_max_charseq,
    _random_rational_vector,
    _scale_to_integers,
    algebra_from_products,
    bracket,
    center,
    characteristic_sequence,
    check_leibniz,
    jordan_type_nilpotent,
    left_annihilator,
    lower_central_series,
    right_annihilator,
    right_mult_operator,
    squares_subspace,
)
from leibnizalg.isomorphism import (
    SEARCH_BUDGET,
    SEARCH_SEED,
    IsoCheck,
    SearchResult,
    _columns_matrix,
    _search_candidates,
    compare_fingerprints,
    fingerprint,
    search_isomorphism,
    transform_algebra,
    verify_isomorphism,
)
from leibnizalg.linalg import (
    Matrix,
    inverse,
    is_zero_vector,
    kernel_basis,
    unit_vector,
    vec_add,
    vec_sub,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


# ------------------------------------------------------------------ oracles


def oracle_equal(a, b):
    return (a.dim, a.sc) == (b.dim, b.sc)


def oracle_bracket(a, x, y):
    """Bilinear extension of the bracket to coordinate vectors."""
    if len(x) != a.dim or len(y) != a.dim:
        raise ValueError("vectors must have length %d" % a.dim)
    acc = [Fraction(0)] * a.dim
    for i, xi in enumerate(x):
        if not xi:
            continue
        row = a.sc[i]
        for j, yj in enumerate(y):
            if not yj:
                continue
            c = xi * yj
            for k, s in enumerate(row[j]):
                if s:
                    acc[k] += c * s
    return tuple(acc)


def oracle_leibniz_defect(a, i, j, k):
    """Defect of the identity on basis triple (0-based indices)."""
    n = a.dim
    acc = [Fraction(0)] * n
    # [e_i, [e_j, e_k]]
    for m, c in enumerate(a.sc[j][k]):
        if c:
            for t, s in enumerate(a.sc[i][m]):
                if s:
                    acc[t] += c * s
    # - [[e_i, e_j], e_k]
    for m, c in enumerate(a.sc[i][j]):
        if c:
            for t, s in enumerate(a.sc[m][k]):
                if s:
                    acc[t] -= c * s
    # + [[e_i, e_k], e_j]
    for m, c in enumerate(a.sc[i][k]):
        if c:
            for t, s in enumerate(a.sc[m][j]):
                if s:
                    acc[t] += c * s
    return tuple(acc)


def oracle_check_leibniz(a):
    """All violating basis triples, 1-based, with their defect vectors."""
    violations = []
    n = a.dim
    for i in range(n):
        for j in range(n):
            for k in range(n):
                defect = oracle_leibniz_defect(a, i, j, k)
                if any(defect):
                    violations.append(LeibnizViolation(i + 1, j + 1, k + 1, defect))
    return violations


def oracle_lower_central_series(a):
    current = Subspace.full(a.dim)
    series = [current]
    basis_full = [unit_vector(a.dim, i) for i in range(a.dim)]
    while True:
        brackets = [oracle_bracket(a, u, v) for u in series[-1].basis for v in basis_full]
        nxt = Subspace.span(a.dim, brackets)
        if nxt == series[-1]:
            break
        series.append(nxt)
        if nxt.dim == 0:
            break
    return tuple(series)


def oracle_stacked_kernel(a, use_left, use_right):
    """Kernel of the linear conditions [z, e_j] = 0 and/or [e_j, z] = 0."""
    n = a.dim
    rows = []
    for j in range(n):
        for k in range(n):
            if use_left:
                row = tuple(a.sc[i][j][k] for i in range(n))
                if any(row):
                    rows.append(row)
            if use_right:
                row = tuple(a.sc[j][i][k] for i in range(n))
                if any(row):
                    rows.append(row)
    return Subspace.span(n, kernel_basis(Matrix(rows, cols=n)))


def oracle_squares_subspace(a):
    n = a.dim
    vectors = [a.sc[i][i] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            vectors.append(vec_add(a.sc[i][j], a.sc[j][i]))
    return Subspace.span(n, vectors)


def oracle_right_mult_operator(a, x):
    """Matrix of y -> [y, x] in the standard basis (columns are images)."""
    if len(x) != a.dim:
        raise ValueError("vector must have length %d" % a.dim)
    n = a.dim
    columns = []
    for j in range(n):
        col = [Fraction(0)] * n
        for i, xi in enumerate(x):
            if xi:
                for k, s in enumerate(a.sc[j][i]):
                    if s:
                        col[k] += xi * s
        columns.append(tuple(col))
    return Matrix.from_columns(columns)


def oracle_charseq(a, trials, seed):
    series = oracle_lower_central_series(a)
    s = len(series) if series[-1].dim == 0 else None
    if s is None:
        raise NotNilpotentError("characteristic sequence needs a nilpotent algebra")
    n = a.dim
    if n == 0:
        return CharSeqWitness(CharSeq(()), (), True)
    derived = series[1] if len(series) > 1 else Subspace.span(n, [])
    candidates = [unit_vector(n, i) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            candidates.append(vec_add(unit_vector(n, i), unit_vector(n, j)))
            candidates.append(vec_sub(unit_vector(n, i), unit_vector(n, j)))
    rng = random.Random(seed)
    for _ in range(trials):
        candidates.append(_scale_to_integers(_random_rational_vector(rng, n)))
    cap = s - 1
    target = _greedy_max_charseq(n, cap) if cap >= 1 else CharSeq((1,) * n)
    best = None
    witness = None
    for x in candidates:
        if is_zero_vector(x) or derived.contains(x):
            continue
        seq = jordan_type_nilpotent(oracle_right_mult_operator(a, x))
        if best is None or best < seq:
            best, witness = seq, x
            if best == target:
                break
    if best is None or witness is None:
        raise ValueError("no candidate found outside L^2; algebra is zero-dimensional or degenerate")
    return CharSeqWitness(best, witness, best == target)


def oracle_brackets_match(a, b, p):
    """First 1-based basis pair where p breaks the bracket, else None."""
    n = a.dim
    images = [p.column(j) for j in range(n)]
    for i in range(n):
        for j in range(n):
            lhs = p.apply(a.sc[i][j])
            rhs = oracle_bracket(b, images[i], images[j])
            if lhs != rhs:
                return (i + 1, j + 1)
    return None


def oracle_verify(a, b, p):
    if inverse(p) is None:
        return IsoCheck(False, None, "matrix is singular")
    pair = oracle_brackets_match(a, b, p)
    if pair is not None:
        return IsoCheck(False, pair, "bracket images differ at (e%d, e%d)" % pair)
    return IsoCheck(True)


def oracle_permutation_matrix(n, perm, signs=None):
    cols = []
    for i in range(n):
        v = [Fraction(0)] * n
        v[perm[i]] = Fraction(signs[i] if signs else 1)
        cols.append(tuple(v))
    return Matrix.from_columns(cols)


def oracle_random_unimodular(rng, n):
    """Triangular with unit diagonal (up to sign), small integer entries."""
    upper = rng.random() < 0.5
    rows = []
    for i in range(n):
        row = [Fraction(0)] * n
        row[i] = Fraction(rng.choice((1, 1, 1, -1)))
        rng_range = range(i + 1, n) if upper else range(0, i)
        for j in rng_range:
            row[j] = Fraction(rng.randint(-2, 2))
        rows.append(tuple(row))
    return Matrix(rows, cols=n)


def oracle_search_candidates(n, budget, seed):
    """Deterministic candidate stream: permutations first, then seeded trials."""
    identity = tuple(range(n))
    reversal = tuple(reversed(range(n)))
    yield oracle_permutation_matrix(n, identity)
    if reversal != identity:
        yield oracle_permutation_matrix(n, reversal)
    emitted = 2
    for perm in itertools.permutations(range(n)):
        if perm in (identity, reversal):
            continue
        yield oracle_permutation_matrix(n, perm)
        emitted += 1
        if emitted >= budget // 2:
            break
    all_minus = tuple([-1] * n)
    yield oracle_permutation_matrix(n, identity, all_minus)
    yield oracle_permutation_matrix(n, reversal, all_minus)
    for i in range(n):
        signs = tuple(-1 if t == i else 1 for t in range(n))
        yield oracle_permutation_matrix(n, identity, signs)
        yield oracle_permutation_matrix(n, reversal, signs)
    rng = random.Random(seed)
    while True:
        candidate = oracle_random_unimodular(rng, n)
        if rng.random() < 0.25:
            perm = tuple(rng.sample(range(n), n))
            candidate = oracle_permutation_matrix(n, perm) @ candidate
        yield candidate


def oracle_search(a, b, budget=SEARCH_BUDGET, seed=SEARCH_SEED):
    if a.dim != b.dim:
        return SearchResult("distinguished", invariant="dim")
    comparison = compare_fingerprints(fingerprint(a), fingerprint(b))
    if comparison.verdict == "distinguished":
        return SearchResult("distinguished", invariant=comparison.detail)
    trials = 0
    for candidate in oracle_search_candidates(a.dim, budget, seed):
        if trials >= budget:
            break
        trials += 1
        if oracle_brackets_match(a, b, candidate) is None:
            check = verify_isomorphism(a, b, candidate)
            if check.ok:
                return SearchResult("found", matrix=candidate, trials=trials)
    return SearchResult("undetermined", trials=trials)


# ------------------------------------------------------------------ inputs

MEMBERS = (
    ("abelian", 0, {}),
    ("abelian", 3, {}),
    ("NF", 1, {}),
    ("NF", 4, {}),
    ("NF", 5, {}),
    ("L6", 5, {}),
    ("F1", 5, {}),
    ("F2", 6, {}),
    ("F3", 6, {"alpha": 1}),
    ("F1param", 6, {"alpha6": 1, "theta": 1}),
    ("F2param", 5, {"beta4": "-3/2"}),
    ("L4l", 5, {"lam": "2/3"}),
    ("Nstar", 6, {}),
    ("Qstar", 7, {}),
)
small = st.fractions(min_value=-2, max_value=2, max_denominator=3)


def dense_change(draw, dim, kind):
    """Lower triangular with +-1 on and below the diagonal; columns scaled if rational."""
    sign = st.sampled_from((_ONE, -_ONE))
    q = [[_ZERO] * dim for _ in range(dim)]
    for r in range(dim):
        for c in range(r + 1):
            q[r][c] = draw(sign)
    if kind == "dense-rational":
        scale = [draw(st.sampled_from((Fraction(1, 2), Fraction(-2, 3), Fraction(3, 2)))) for _ in range(dim)]
        q = [[x * scale[c] for c, x in enumerate(row)] for row in q]
    return Matrix(q, cols=dim)


@st.composite
def members(draw, min_dim=0):
    """A catalog member, its basis change and the member in that basis.

    The basis is the catalog's own, a dense integer or a dense rational one.
    """
    family, dim, params = draw(st.sampled_from([m for m in MEMBERS if m[1] >= min_dim]))
    src = catalog.make(family, dim, **params)
    kind = draw(st.sampled_from(("catalog", "dense-integer", "dense-rational")))
    q = Matrix.identity(dim) if kind == "catalog" or dim == 0 else dense_change(draw, dim, kind)
    return src, q, transform_algebra(src, q)


@st.composite
def planted(draw):
    """A member whose table has one structure constant changed, Leibniz or not."""
    _, _, a = draw(members(min_dim=2))
    n = a.dim
    i, j, k = (draw(st.integers(0, n - 1)) for _ in range(3))
    sc = [[list(v) for v in row] for row in a.sc]
    sc[i][j][k] += draw(small.filter(bool))
    return Algebra(dim=n, sc=tuple(tuple(tuple(v) for v in row) for row in sc))


def vectors(n):
    return st.lists(small, min_size=n, max_size=n).map(tuple)


# ------------------------------------------------------------------ tests


@settings(max_examples=60, deadline=None)
@given(st.one_of(members().map(lambda m: m[2]), planted()))
def test_check_leibniz_matches_dense_oracle(a):
    violations = check_leibniz(a)
    assert violations == oracle_check_leibniz(a)
    assert all(isinstance(x, Fraction) for v in violations for x in v.defect)


def test_planted_faults_are_found():
    a = catalog.make("F1", 5)
    sc = [[list(v) for v in row] for row in a.sc]
    sc[1][1][0] = Fraction(1, 2)  # [e2, e2] = e1/2 breaks the identity
    mutant = Algebra(dim=5, sc=tuple(tuple(tuple(v) for v in row) for row in sc))
    expected = oracle_check_leibniz(mutant)
    assert expected and check_leibniz(mutant) == expected


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_bracket_and_right_multiplication_match_dense_oracle(data):
    a = data.draw(st.one_of(members().map(lambda m: m[2]), planted()))
    x, y = data.draw(vectors(a.dim)), data.draw(vectors(a.dim))
    assert bracket(a, x, y) == oracle_bracket(a, x, y)
    assert all(isinstance(v, Fraction) for v in bracket(a, x, y))
    if a.dim:
        assert right_mult_operator(a, x) == oracle_right_mult_operator(a, x)


@settings(max_examples=60, deadline=None)
@given(st.one_of(members().map(lambda m: m[2]), planted()))
def test_structure_subspaces_match_dense_oracle(a):
    assert lower_central_series(a) == oracle_lower_central_series(a)
    assert center(a) == oracle_stacked_kernel(a, True, True)
    assert left_annihilator(a) == oracle_stacked_kernel(a, True, False)
    assert right_annihilator(a) == oracle_stacked_kernel(a, False, True)
    assert squares_subspace(a) == oracle_squares_subspace(a)


@settings(max_examples=40, deadline=None)
@given(members(), st.integers(0, 40), st.integers(0, 10**6))
def test_characteristic_sequence_matches_dense_oracle(member, trials, seed):
    _, _, a = member
    expected = oracle_charseq(a, CHARSEQ_RANDOM_TRIALS, CHARSEQ_SEED)
    got = characteristic_sequence(a)
    assert (got.seq, got.witness, got.exact) == (expected.seq, expected.witness, expected.exact)
    assert characteristic_sequence(a, trials, seed) == oracle_charseq(a, trials, seed)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_verify_matches_dense_oracle_on_true_and_perturbed_witnesses(data):
    src, q, a = data.draw(members(min_dim=1))
    n = a.dim
    scale = data.draw(st.sampled_from((_ONE, Fraction(-1), Fraction(2, 3))))
    p = Matrix([[x * scale for x in row] for row in q.data], cols=n) if data.draw(st.booleans()) else q
    witnesses = [p]
    rows = [list(row) for row in p.data]
    r, c = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    rows[r][c] += data.draw(small.filter(bool))
    witnesses.append(Matrix(rows, cols=n))
    for w in witnesses:
        assert verify_isomorphism(a, src, w) == oracle_verify(a, src, w)
    if scale == 1:
        assert verify_isomorphism(a, src, p).ok


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 7), st.integers(1, 400), st.integers(0, 10**6))
def test_candidate_stream_matches_matrix_stream(n, budget, seed):
    count = budget // 2 + 3 * n + 40
    new = itertools.islice(_search_candidates(n, budget, seed), count)
    old = itertools.islice(oracle_search_candidates(n, budget, seed), count)
    for got, expected in zip(new, old, strict=True):
        assert _columns_matrix(got) == expected


@st.composite
def search_pairs(draw):
    """A member in a permuted basis (findable) or a dense one (usually not)."""
    family, dim, params = draw(st.sampled_from([m for m in MEMBERS if 3 <= m[1] <= 6]))
    src = catalog.make(family, dim, **params)
    if draw(st.booleans()):
        perm = draw(st.permutations(range(dim)))
        q = Matrix([[_ONE if perm[c] == r else _ZERO for c in range(dim)] for r in range(dim)], cols=dim)
    else:
        q = dense_change(draw, dim, draw(st.sampled_from(("dense-integer", "dense-rational"))))
    return transform_algebra(src, q), src


@settings(max_examples=25, deadline=None)
@given(search_pairs(), st.integers(1, 150), st.integers(0, 10**6))
def test_search_matches_matrix_stream(pair, budget, seed):
    a, src = pair
    assert search_isomorphism(a, src, budget, seed) == oracle_search(a, src, budget, seed)


@settings(max_examples=60, deadline=None)
@given(st.one_of(members().map(lambda m: m[2]), planted()),
       st.one_of(members().map(lambda m: m[2]), planted()))
def test_equality_agrees_with_fieldwise_comparison(a, b):
    assert (a == b) == oracle_equal(a, b)
    if a == b:
        assert hash(a) == hash(b)


@settings(max_examples=30, deadline=None)
@given(members().map(lambda m: m[2]))
def test_equal_algebras_built_differently_are_equal(a):
    records = {}
    for i, j, k, c in a.products():
        records.setdefault((i, j), {})[k] = c
    labels = tuple("f%d" % t for t in range(a.dim))
    twins = [
        algebra_from_products(a.dim, records, labels=labels, check=False),
        Algebra(dim=a.dim, sc=a.sc, labels=labels, checked=not a.checked),
        files.algebra_from_dict(files.algebra_to_dict(a, name="twin"))[0],
        transform_algebra(a, Matrix.identity(a.dim)) if a.dim else a,
    ]
    for twin in twins:
        assert oracle_equal(twin, a)
        assert twin == a and hash(twin) == hash(a)
        assert len({twin, a}) == 1
    first = next(a.products(), None)
    if first is not None:
        i, j, k, c = first
        records[i, j] = {**records[i, j], k: c + 1}
        other = algebra_from_products(a.dim, records, check=False)
        assert other != a and not oracle_equal(other, a)


def test_tables_that_differ_by_a_common_factor_are_unequal():
    # Same integer products, different common denominators.
    a = algebra_from_products(3, {(1, 1): {2: 1}, (2, 1): {3: 1}})
    b = algebra_from_products(3, {(1, 1): {2: "1/2"}, (2, 1): {3: "1/2"}})
    assert a.table.products == b.table.products
    assert a != b and not oracle_equal(a, b)
    assert len({a, b}) == 2


def test_equality_with_other_types_is_not_implemented():
    a = catalog.make("NF", 3)
    assert a != (a.dim, a.sc)
    assert a.__eq__(object()) is NotImplemented
