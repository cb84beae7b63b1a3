"""The integer structure tensor against the dense Fraction loops it replaced.

The oracles below are the earlier implementations, kept verbatim apart
from their names: the dense `bracket`, `_leibniz_defect`/`check_leibniz`,
`right_mult_operator`, the lower central series, the stacked kernel
behind the center and the annihilators, the squares subspace, the
characteristic sequence over `right_mult_operator` and
`jordan_type_nilpotent`, `_brackets_match`, and the `Matrix` candidate
stream of the isomorphism search.  `oracle_equal` is the field-wise
equality of the earlier frozen dataclass.  They live here only, as
references for the loops over `Algebra.table`.  `oracle_charseq_probes`
is the earlier `_charseq_probes`, which drew each random probe as
`Fraction`s (`_random_rational_vector`) and cleared their denominators
(`_scale_to_integers`); with `vec_add`, `vec_sub` and `is_zero_vector`,
copied from the earlier `linalg`, it is the reference for the probes
drawn as ints.

`DenseAlgebra` is the earlier `Algebra`, which stored the dense grid
`sc` and scanned it into the integer table; `oracle_direct_sum`,
`oracle_central_extension`, `oracle_natural_gradation` and
`oracle_transform_algebra` are the constructors that assembled that
grid.  They are the references for `_from_records`, which now makes
every table from (i, j, k, c) records, with `sc` derived from the table.

`oracle_charseq` sweeps every candidate to the end of its rank chain.
It is the reference for the sweep that stops at the certified bound
`_charseq_bound` and prunes rank chains that cannot beat the best type,
on members that reach that bound and on members that fall short of it.

The search walks a memoised tuple of the stream's first `budget`
candidates per (dimension, budget, seed) when budget * n * n is under
the pair cap, and the stream itself otherwise, and filters them on
brackets projected on fixed weights; the search tests compare it with
the `Matrix` search on warm and cold memos, under and past a patched
pair cap, over more keys than the memo keeps, in flag-breaking bases on
both paths, and with every weight patched to 1, so that projections
collide.

The dense bases of the `members` strategy are flag-breaking
(`oracles.flag_breaking_change`), integer or rational: a triangular
basis would keep the coordinate flag span(e_j, ..., e_n).
"""

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leibnizalg import catalog, files, isomorphism
from leibnizalg.cohomology import cohomology_class
from leibnizalg.core import (
    CHARSEQ_RANDOM_TRIALS,
    CHARSEQ_SEED,
    MAX_DIM,
    Algebra,
    CharSeq,
    CharSeqWitness,
    GradedAlgebra,
    IntegerTable,
    LeibnizViolation,
    NotNilpotentError,
    Subspace,
    _charseq_bound,
    _charseq_probes,
    _greedy_max_charseq,
    abelian_algebra,
    algebra_from_products,
    bracket,
    center,
    characteristic_sequence,
    check_leibniz,
    complement_inside,
    direct_sum,
    jordan_type_nilpotent,
    left_annihilator,
    lower_central_series,
    natural_gradation,
    nilindex,
    require_leibniz,
    right_annihilator,
    right_mult_operator,
    squares_subspace,
)
from leibnizalg.extension import (
    central_extension,
    make_spec,
    random_cocycle_forms,
    validate_cocycle,
)
from leibnizalg.isomorphism import (
    SEARCH_BUDGET,
    SEARCH_SEED,
    IsoCheck,
    SearchResult,
    _columns_matrix,
    _STREAM_HELD_PAIRS,
    _held_candidates,
    _search_candidates,
    compare_fingerprints,
    fingerprint,
    search_isomorphism,
    transform_algebra,
    verify_isomorphism,
)
from leibnizalg.linalg import (
    Matrix,
    Vector,
    common_denominator,
    inverse,
    kernel_basis,
    unit_vector,
    zero_vector,
)
from oracles import flag_breaking_change, sweep_check_leibniz

_ZERO = Fraction(0)
_ONE = Fraction(1)


# ------------------------------------------------------------------ oracles


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v, strict=True))


def is_zero_vector(v):
    return not any(v)


def _random_rational_vector(rng, n):
    return tuple(Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(n))


def _scale_to_integers(v):
    """Clear denominators; the Jordan type of R_x is scale-invariant."""
    lcm = common_denominator(v)
    if lcm == 1:
        return v
    c = Fraction(lcm)
    return tuple(x * c for x in v)


def oracle_charseq_probes(n):
    """The nonzero candidate vectors in sweep order, each with its ints.

    Every candidate has integer entries, so the ints are its numerators.
    """
    candidates = [unit_vector(n, i) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            candidates.append(vec_add(unit_vector(n, i), unit_vector(n, j)))
            candidates.append(vec_sub(unit_vector(n, i), unit_vector(n, j)))
    rng = random.Random(CHARSEQ_SEED)
    for _ in range(CHARSEQ_RANDOM_TRIALS):
        candidates.append(_scale_to_integers(_random_rational_vector(rng, n)))
    return tuple((x, tuple(v.numerator for v in x)) for x in candidates if not is_zero_vector(x))


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


@dataclass(frozen=True, eq=False)
class DenseAlgebra:
    """The earlier `Algebra`: the dense grid as given, its table scanned from it."""

    dim: int
    sc: tuple[tuple[Vector, ...], ...]
    labels: tuple[str, ...] | None = field(default=None, compare=False)
    checked: bool = field(default=False, compare=False)

    def __post_init__(self) -> None:
        if self.dim < 0:
            raise ValueError("negative dimension")
        if len(self.sc) != self.dim or any(
            len(row) != self.dim or any(len(v) != self.dim for v in row) for row in self.sc
        ):
            raise ValueError("structure constants must form a dim x dim grid of dim-vectors")

    @cached_property
    def table(self) -> IntegerTable:
        """The canonical integer view of `sc`, built on first use."""
        nonzero: dict[tuple[int, int], list[tuple[int, Fraction]]] = {}
        for i, row in enumerate(self.sc):
            for j, cell in enumerate(row):
                terms = [(k, c) for k, c in enumerate(cell) if c]
                if terms:
                    nonzero[i, j] = terms
        den = common_denominator(c for terms in nonzero.values() for _, c in terms)
        return IntegerTable(den, {
            key: tuple((k, c.numerator * (den // c.denominator)) for k, c in terms)
            for key, terms in nonzero.items()
        })

    @cached_property
    def _hash(self) -> int:
        table = self.table
        return hash((self.dim, table.denominator, tuple(table.products.items())))

    def products(self):
        """Nonzero structure constants as 1-based (i, j, k, c) records."""
        den = self.table.denominator
        for (i, j), terms in self.table.products.items():
            for k, c in terms:
                yield (i + 1, j + 1, k + 1, Fraction(c, den))


def oracle_direct_sum(a, b):
    """Direct sum with b's basis appended after a's."""
    n, m = a.dim, b.dim
    dim = n + m
    rows = []
    for i in range(dim):
        row = []
        for j in range(dim):
            if i < n and j < n:
                row.append(a.sc[i][j] + zero_vector(m))
            elif i >= n and j >= n:
                row.append(zero_vector(n) + b.sc[i - n][j - n])
            else:
                row.append(zero_vector(dim))
        rows.append(tuple(row))
    return DenseAlgebra(dim=dim, sc=tuple(rows), checked=a.checked and b.checked)


def oracle_central_extension(spec):
    """The algebra on base + V defined by the cocycle."""
    base = spec.base
    require_leibniz(base)
    if any(cohomology_class(base, form) is None for form in spec.forms):
        validate_cocycle(spec)  # raises, naming the first violating triple
    n, k = base.dim, spec.k
    dim = n + k
    rows = []
    for i in range(dim):
        row = []
        for j in range(dim):
            if i < n and j < n:
                tail = tuple(form.values[i][j] for form in spec.forms)
                row.append(base.sc[i][j] + tail)
            else:
                row.append(zero_vector(dim))
        rows.append(tuple(row))
    base_labels = tuple(base.label(i) for i in range(n))
    ext_labels = base_labels + tuple("x%d" % (t + 1) for t in range(k))
    return DenseAlgebra(dim=dim, sc=tuple(rows), labels=ext_labels, checked=True)


def oracle_natural_gradation(a):
    """Graded algebra on layers L^i/L^{i+1} with the induced bracket."""
    if nilindex(a) is None:
        raise NotNilpotentError("natural gradation needs a nilpotent algebra")
    series = list(lower_central_series(a))
    n = a.dim
    adapted = []
    layers = []
    layer_dims = []
    for i in range(len(series) - 1):
        section = complement_inside(series[i], series[i + 1])
        layer_dims.append(len(section))
        for v in section:
            adapted.append(v)
            layers.append(i + 1)
    basis_matrix = Matrix.from_columns(adapted) if adapted else Matrix.zeros(n, 0)
    inv = inverse(basis_matrix) if n else None
    if n and inv is None:
        raise RuntimeError("adapted basis is singular; series computation is inconsistent")
    rows = []
    for u in range(n):
        row = []
        for v in range(n):
            w = bracket(a, adapted[u], adapted[v])
            coords = list(inv.apply(w)) if inv is not None else []
            target = layers[u] + layers[v]
            for t in range(n):
                if layers[t] != target:
                    coords[t] = Fraction(0)
            row.append(tuple(coords))
        rows.append(tuple(row))
    graded = DenseAlgebra(dim=n, sc=tuple(rows), checked=False)
    return GradedAlgebra(tuple(layer_dims), graded, basis_matrix)


def oracle_transform_algebra(a, q):
    """The algebra on the basis whose q-columns express it in a's coordinates."""
    if q.rows != a.dim or q.cols != a.dim:
        raise ValueError("change of basis must be %d x %d" % (a.dim, a.dim))
    qinv = inverse(q)
    if qinv is None:
        raise ValueError("change of basis is singular")
    n = a.dim
    cols = [q.column(i) for i in range(n)]
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            row.append(qinv.apply(bracket(a, cols[i], cols[j])))
        rows.append(tuple(row))
    return DenseAlgebra(dim=n, sc=tuple(rows), checked=a.checked)


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
    """A flag-breaking basis change (`flag_breaking_change`); columns scaled if rational."""
    return flag_breaking_change(draw, dim, kind == "dense-rational")


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


def product_records(a):
    """The structure constants of a as a mutable 1-based {(i, j): {k: c}}."""
    records = {}
    for i, j, k, c in a.products():
        records.setdefault((i, j), {})[k] = c
    return records


@st.composite
def planted(draw):
    """A member whose table has one structure constant changed, Leibniz or not."""
    _, _, a = draw(members(min_dim=2))
    n = a.dim
    i, j, k = (draw(st.integers(0, n - 1)) for _ in range(3))
    records = product_records(a)
    cell = records.setdefault((i + 1, j + 1), {})
    cell[k + 1] = cell.get(k + 1, 0) + draw(small.filter(bool))
    return algebra_from_products(n, records, check=False)


@st.composite
def integer_tables(draw):
    """A random sparse integer table at dims 1 to 7, almost never Leibniz."""
    n = draw(st.integers(1, 7))
    index = st.integers(1, n)
    cells = draw(st.dictionaries(st.tuples(index, index, index), st.integers(-3, 3).filter(bool), max_size=3 * n))
    records = {}
    for (i, j, k), c in cells.items():
        records.setdefault((i, j), {})[k] = c
    return algebra_from_products(n, records, check=False)


def vectors(n):
    return st.lists(small, min_size=n, max_size=n).map(tuple)


# ------------------------------------------------------------------ tests


@settings(max_examples=60, deadline=None)
@given(st.one_of(members().map(lambda m: m[2]), planted(), integer_tables()))
def test_check_leibniz_matches_dense_oracle(a):
    """The scattered check lists what both sweeps list: order, triples and defects."""
    violations = check_leibniz(a)
    assert violations == oracle_check_leibniz(a)
    assert violations == sweep_check_leibniz(a)
    assert all(isinstance(x, Fraction) for v in violations for x in v.defect)


@settings(max_examples=60, deadline=None)
@given(st.one_of(members().map(lambda m: m[2]), planted(), integer_tables()), st.randoms())
def test_documents_read_and_write_as_products_records(a, rng):
    """The document holds sorted(a.products()); read back in any record order, it is algebra_from_products's table."""
    doc = files.algebra_to_dict(a)
    assert doc["brackets"] == [{"i": i, "j": j, "k": k, "c": str(c)} for i, j, k, c in sorted(a.products())]
    rng.shuffle(doc["brackets"])
    read, _ = files.algebra_from_dict(doc)
    expected = algebra_from_products(a.dim, product_records(a), check=False)
    assert read.table == expected.table == a.table


def test_planted_faults_are_found():
    a = catalog.make("F1", 5)
    records = product_records(a)
    records.setdefault((2, 2), {})[1] = Fraction(1, 2)  # [e2, e2] = e1/2 breaks the identity
    mutant = algebra_from_products(5, records, check=False)
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
@given(members())
def test_characteristic_sequence_matches_dense_oracle(member):
    _, _, a = member
    expected = oracle_charseq(a, CHARSEQ_RANDOM_TRIALS, CHARSEQ_SEED)
    got = characteristic_sequence(a)
    assert (got.seq, got.witness, got.exact) == (expected.seq, expected.witness, expected.exact)
    assert all(type(x) is Fraction for x in got.witness)


# Members whose charseq is not certified exact: the first group reaches
# the certified bound (`_charseq_bound`), where the sweep stops; the second
# falls short of it, so every candidate is tried and only the pruning of
# each rank chain saves work.
REACH_BOUND = (("Pstar", 7), ("Q", 7), ("R", 6), ("M", 7), ("L1", 6), ("L2", 5), ("E4F1", 8))
SHORT_OF_BOUND = (("Lstar", 6), ("Nstar", 7))


@st.composite
def not_exact_members(draw):
    """A member of REACH_BOUND or SHORT_OF_BOUND in a flag-breaking integer or rational basis."""
    family, dim = member = draw(st.sampled_from(REACH_BOUND + SHORT_OF_BOUND))
    q = flag_breaking_change(draw, dim, draw(st.booleans()))
    return member, transform_algebra(catalog.make(family, dim), q)


@settings(max_examples=30, deadline=None)
@given(not_exact_members())
def test_characteristic_sequence_matches_unpruned_oracle_when_not_exact(drawn):
    member, a = drawn
    expected = oracle_charseq(a, CHARSEQ_RANDOM_TRIALS, CHARSEQ_SEED)
    got = characteristic_sequence(a)
    assert (got.seq, got.witness, got.exact) == (expected.seq, expected.witness, False)
    assert (got.seq == _charseq_bound(a)) == (member in REACH_BOUND)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_no_right_multiplication_exceeds_the_charseq_bound(data):
    a = data.draw(st.one_of(members(min_dim=1).map(lambda m: m[2]), not_exact_members().map(lambda m: m[1])))
    x = data.draw(vectors(a.dim))
    assert jordan_type_nilpotent(right_mult_operator(a, x)) <= _charseq_bound(a)


def test_charseq_probes_match_rational_draws():
    for n in range(1, 11):
        assert _charseq_probes(n) == tuple(ints for _, ints in oracle_charseq_probes(n))


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
    """A member in a permuted basis (findable) or a dense flag-breaking one (usually not)."""
    family, dim, params = draw(st.sampled_from([m for m in MEMBERS if 3 <= m[1] <= 7]))
    src = catalog.make(family, dim, **params)
    kind = draw(st.sampled_from(("permuted", "dense-integer", "dense-rational")))
    if kind == "permuted":
        perm = draw(st.permutations(range(dim)))
        q = Matrix([[_ONE if perm[c] == r else _ZERO for c in range(dim)] for r in range(dim)], cols=dim)
    else:
        q = dense_change(draw, dim, kind)
    return transform_algebra(src, q), src


@pytest.fixture
def cold_streams():
    """An empty candidate memo before the test and after it."""
    _held_candidates.cache_clear()
    yield
    _held_candidates.cache_clear()


def stream_prefix(n, budget, seed):
    return tuple(itertools.islice(_search_candidates(n, budget, seed), budget))


def held_prefix(n, budget, seed):
    """The stream prefix, each candidate with w . col_m of its columns and its dense first column."""
    w = isomorphism._WEIGHTS
    out = []
    for cols in stream_prefix(n, budget, seed):
        first = [0] * n
        for t, x in cols[0] if n else ():
            first[t] = x
        out.append((cols, tuple(sum(x * w[t] for t, x in col) for col in cols), tuple(first)))
    return tuple(out)


def held(n, budget, cap=_STREAM_HELD_PAIRS):
    """Whether a search of this dimension and budget walks the memo under the pair cap `cap`."""
    return budget * max(n * n, 1) <= cap


# Budgets up to 400 pass the permutation prefix (at most budget // 2 +
# 2n + 2 candidates) into the seeded random tail at every dimension 3..7.
# A few favoured budgets and seeds make keys repeat, and every search runs
# twice in the drawn order, so later searches walk a warm memo that other
# keys' searches filled in between.  With the pair cap patched to 4,000,
# searches with budget * n * n above it draw the stream afresh.
search_budgets = st.one_of(st.sampled_from((40, 260, 400)), st.integers(1, 400))
search_seeds = st.one_of(st.sampled_from((3, SEARCH_SEED)), st.integers(0, 10**6))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(search_pairs(), search_budgets, search_seeds), min_size=1, max_size=4),
       st.sampled_from((_STREAM_HELD_PAIRS, 4000)))
def test_search_matches_matrix_stream(searches, cap):
    expected = [oracle_search(a, src, budget, seed) for (a, src), budget, seed in searches]
    _held_candidates.cache_clear()
    with mock.patch.object(isomorphism, "_STREAM_HELD_PAIRS", cap):
        for _ in range(2):
            for ((a, src), budget, seed), want in zip(searches, expected):
                assert search_isomorphism(a, src, budget, seed) == want
    # A search between tables over different denominators walks no candidate.
    keys = {
        (a.dim, budget, seed)
        for (a, src), budget, seed in searches
        if held(a.dim, budget, cap) and a.table.denominator == src.table.denominator
    }
    assert _held_candidates.cache_info().currsize == len(keys)
    for key in keys:
        assert _held_candidates(*key) == held_prefix(*key)


@pytest.mark.parametrize(
    "n, budget, seed", [(7, 256, SEARCH_SEED), (3, 400, 11), (2, 1 << 14, 5), (1, 1 << 16, 0), (0, 1 << 16, 0)]
)
def test_held_key_is_the_stream_prefix_under_the_cap(n, budget, seed, cold_streams):
    assert held(n, budget)
    candidates = _held_candidates(n, budget, seed)
    assert candidates == held_prefix(n, budget, seed)
    assert sum(len(col) for cols, _, _ in candidates for col in cols) <= _STREAM_HELD_PAIRS


def streamed_budget(n):
    """The least budget whose search at dimension n draws the stream afresh."""
    return _STREAM_HELD_PAIRS // max(n * n, 1) + 1


@st.composite
def flag_broken_searches(draw):
    """A member at dims 3-7 in a flag-breaking integer or rational basis, or in a stream candidate's.

    The budget is 256, which walks the memo, or the least one that
    streams.  A basis drawn from the candidate stream itself is found by
    its own trial at the latest, deep in the seeded random tail.  In the
    "rational-stream" kind both sides start from the member in a dense
    rational basis; the stream candidate is integer with an integer
    inverse, so the two tables share their denominator and the search
    walks instead of stopping at the denominator gate.
    """
    family, dim, params = draw(st.sampled_from([m for m in MEMBERS if 3 <= m[1] <= 7]))
    src = catalog.make(family, dim, **params)
    budget = draw(st.sampled_from((256, streamed_budget(dim))))
    kind = draw(st.sampled_from(("dense-integer", "dense-rational", "stream", "rational-stream")))
    if kind.endswith("stream"):
        if kind == "rational-stream":
            src = transform_algebra(src, dense_change(draw, dim, "dense-rational"))
        trial = draw(st.integers(budget // 2 + 2 * dim + 2, budget - 1))
        q = _columns_matrix(next(itertools.islice(_search_candidates(dim, budget, SEARCH_SEED), trial, None)))
    else:
        q = dense_change(draw, dim, kind)
    return transform_algebra(src, q), src, budget


@settings(max_examples=30, deadline=None)
@given(flag_broken_searches())
def test_search_matches_matrix_stream_in_flag_breaking_bases(drawn):
    """Status, trials and matrix of the projected filter equal the exact `Matrix` search, on both paths."""
    a, src, budget = drawn
    assert search_isomorphism(a, src, budget) == oracle_search(a, src, budget)


def test_search_with_unit_weights_matches_matrix_stream(monkeypatch, cold_streams):
    """With every weight 1, projections collide often; each collision costs a verify, never a result."""
    assert len(isomorphism._WEIGHTS) == MAX_DIM and all(w % 2 for w in isomorphism._WEIGHTS)
    monkeypatch.setattr(isomorphism, "_WEIGHTS", (1,) * MAX_DIM)
    verified = []
    real = isomorphism.verify_isomorphism

    def counting(*args):
        check = real(*args)
        verified.append(check.ok)
        return check

    monkeypatch.setattr(isomorphism, "verify_isomorphism", counting)
    rng = random.Random(5)
    for family, dim, params in [m for m in MEMBERS if 4 <= m[1] <= 6]:
        src = catalog.make(family, dim, **params)
        perm = rng.sample(range(dim), dim)
        swap = Matrix([[_ONE if perm[c] == r else _ZERO for c in range(dim)] for r in range(dim)], cols=dim)
        lower = Matrix([[_ONE if c <= r else _ZERO for c in range(dim)] for r in range(dim)], cols=dim)
        for q in (swap, lower):
            a = transform_algebra(src, q)
            for budget in (256, streamed_budget(dim)):
                assert search_isomorphism(a, src, budget) == oracle_search(a, src, budget)
    assert verified.count(False) > 10


def test_search_past_the_pair_cap_holds_nothing(monkeypatch, cold_streams):
    monkeypatch.setattr(isomorphism, "_STREAM_HELD_PAIRS", 60)
    src = catalog.make("Qstar", 7)
    lower = Matrix([[_ONE if c <= r else _ZERO for c in range(7)] for r in range(7)], cols=7)
    # Found by the 26th candidate.
    swap = Matrix([[_ONE if (0, 1, 3, 2, 4, 5, 6)[c] == r else _ZERO for c in range(7)] for r in range(7)], cols=7)
    for q in (lower, swap, lower, swap):
        a = transform_algebra(src, q)
        assert search_isomorphism(a, src, 300, 11) == oracle_search(a, src, 300, 11)
        assert _held_candidates.cache_info().currsize == 0


def test_memo_keeps_at_most_maxsize_keys(cold_streams):
    a = catalog.make("F1", 5)
    info = _held_candidates.cache_info()
    assert info.maxsize is not None
    for seed in range(info.maxsize + 3):
        assert search_isomorphism(a, a, 3, seed).trials == 1
        assert _held_candidates.cache_info().currsize <= info.maxsize
    assert _held_candidates.cache_info().currsize == info.maxsize


@pytest.mark.parametrize(
    "a, budget",
    [(catalog.make("Nstar", 6), SEARCH_BUDGET), (abelian_algebra(0), isomorphism.MAX_SEARCH_BUDGET)],
    ids=["default-budget", "dim-0"],
)
def test_search_over_the_cap_takes_no_memo_slot(a, budget, cold_streams):
    assert not held(a.dim, budget)
    result = search_isomorphism(a, a, budget)
    assert (result.status, result.trials) == ("found", 1)
    assert _held_candidates.cache_info().currsize == 0


@pytest.mark.parametrize("family, dim", [("F1", 7), ("Nstar", 6)])
def test_search_with_unequal_denominators_walks_nothing(family, dim, monkeypatch, cold_streams):
    """No integer candidate with an integer inverse maps a table over 1 onto one over 4."""
    src = catalog.make(family, dim)
    half = Matrix([[Fraction(1, 2) if r == c == 0 else _ONE if r == c else _ZERO for c in range(dim)]
                   for r in range(dim)], cols=dim)
    a = transform_algebra(src, half)
    assert (a.table.denominator, src.table.denominator) == (4, 1)
    budgets = (256, streamed_budget(dim))
    expected = [oracle_search(a, src, budget) for budget in budgets]
    assert [e.status for e in expected] == ["undetermined", "undetermined"]
    calls = []
    monkeypatch.setattr(isomorphism, "_passing", lambda *args: calls.append("_passing"))
    monkeypatch.setattr(isomorphism, "verify_isomorphism", lambda *args: calls.append("verify"))
    assert [search_isomorphism(a, src, budget) for budget in budgets] == expected
    assert calls == []
    assert _held_candidates.cache_info().currsize == 0


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
        Algebra(a.dim, a.table, labels, not a.checked),
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


# ------------------------------------------------------------------ records


def assert_matches_dense(got, expected):
    """Every stored and derived part of an algebra equals the dense oracle's."""
    assert got.dim == expected.dim
    assert got.table == expected.table
    assert hash(got) == expected._hash
    assert list(got.products()) == list(expected.products())
    assert got.sc == expected.sc
    assert got.labels == expected.labels
    assert got.checked == expected.checked


ABELIAN = st.sampled_from((abelian_algebra(0), abelian_algebra(3)))
leibniz_inputs = st.one_of(members().map(lambda m: m[2]), ABELIAN)
any_inputs = st.one_of(leibniz_inputs, planted())


@settings(max_examples=60, deadline=None)
@given(any_inputs)
def test_dense_view_scans_back_to_the_table(a):
    dense = DenseAlgebra(a.dim, a.sc, a.labels, a.checked)
    assert_matches_dense(a, dense)


def test_abelian_algebras_match_dense_grid():
    for dim in (0, 3):
        zero = zero_vector(dim)
        grid = tuple(tuple(zero for _ in range(dim)) for _ in range(dim))
        assert_matches_dense(abelian_algebra(dim), DenseAlgebra(dim=dim, sc=grid, checked=True))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_transform_algebra_matches_dense_oracle(data):
    src = data.draw(any_inputs)
    kind = data.draw(st.sampled_from(("catalog", "dense-integer", "dense-rational")))
    n = src.dim
    q = Matrix.identity(n) if kind == "catalog" or n == 0 else dense_change(data.draw, n, kind)
    assert_matches_dense(transform_algebra(src, q), oracle_transform_algebra(src, q))


@settings(max_examples=40, deadline=None)
@given(any_inputs, any_inputs)
def test_direct_sum_matches_dense_oracle(a, b):
    assert_matches_dense(direct_sum(a, b), oracle_direct_sum(a, b))


@settings(max_examples=40, deadline=None)
@given(leibniz_inputs)
def test_natural_gradation_matches_dense_oracle(a):
    got, expected = natural_gradation(a), oracle_natural_gradation(a)
    assert (got.layer_dims, got.adapted_basis) == (expected.layer_dims, expected.adapted_basis)
    assert_matches_dense(got.algebra, expected.algebra)


@settings(max_examples=40, deadline=None)
@given(leibniz_inputs, st.integers(0, 4), st.integers(0, 10**6))
def test_central_extension_matches_dense_oracle(base, k, seed):
    spec = make_spec(base, *random_cocycle_forms(base, k, random.Random(seed)))
    assert_matches_dense(central_extension(spec), oracle_central_extension(spec))
