"""The sparse row kernel against the eliminations it replaced.

`oracle_rref` is the earlier dense `linalg.rref`, kept verbatim, and the
oracle `kernel_basis`, `solve` and `inverse` are the earlier wrappers
around it.  `OracleEchelon` is the earlier sparse `linalg.Echelon`, kept
verbatim with its `_axpy`, which eliminated on `Fraction` rows normalised
to a 1 at each pivot; the fraction-free integer `Echelon` must return
exactly what it returned.  `oracle_cohomology_representatives` is the
earlier `cohomology_basis` loop, which re-spanned BL^2 plus the kept
candidates for every candidate, and `oracle_jordan_ranks` the earlier
Fraction branch of `jordan_type_nilpotent`.  `oracle_span` is the dense
rref (basis, pivots) that the earlier `core.Subspace` stored and
compared; `Subspace`, which now stores only its int `Echelon`, must
compare, contain and sum as that did.  They live here only, as
references for the single elimination loop in `linalg.Echelon` and for
the fraction-free rank sequence.  `solve` and `rref`, the earlier
sparse `linalg.solve` and `linalg.rref` kept in `oracles`, are checked
against the dense ones, since the coboundary preimages of the class
echelon and other tests are checked against them.  Members are drawn in
their catalog basis or in a flag-breaking one (`flag_breaking_change`),
integer or rational.
"""

import itertools
import math
from fractions import Fraction
from typing import Iterable, Mapping

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from leibnizalg import catalog
from leibnizalg.cohomology import (
    _condition_rows,
    coboundary_generator,
    coboundary_space,
    cocycle_space,
    cohomology_basis,
    condition_matrix,
)
from leibnizalg.core import (
    Subspace,
    _charseq_probes,
    _probes_outside,
    center,
    jordan_type_nilpotent,
    left_annihilator,
    lower_central_series,
    right_annihilator,
    squares_subspace,
)
from leibnizalg.isomorphism import transform_algebra
from leibnizalg.linalg import Echelon, Matrix, Vector, inverse, kernel_basis, rank, sparse
from oracles import echelon_reduce, flag_breaking_change, rref, solve

_ZERO = Fraction(0)
_ONE = Fraction(1)


def oracle_rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and the tuple of pivot columns.

    Pivot choice is deterministic: leftmost nonzero column, topmost
    nonzero entry at or below the working row.  The result is the
    canonical reduced form, so it is idempotent and unique per row space.
    """
    a = [list(row) for row in m.data]
    nrows, ncols = m.rows, m.cols
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot_row = None
        for i in range(r, nrows):
            if a[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        p = a[r][c]
        if p != 1:
            inv = _ONE / p
            a[r] = [x * inv for x in a[r]]
        prow = a[r]
        for i in range(nrows):
            if i != r:
                f = a[i][c]
                if f:
                    a[i] = [x - f * y for x, y in zip(a[i], prow)]
        pivots.append(c)
        r += 1
    return Matrix(a, cols=ncols), tuple(pivots)


def oracle_kernel_basis(m):
    reduced, pivots = oracle_rref(m)
    pivot_set = set(pivots)
    basis = []
    for free in range(m.cols):
        if free in pivot_set:
            continue
        v = [_ZERO] * m.cols
        v[free] = _ONE
        for row_index, p in enumerate(pivots):
            v[p] = -reduced.data[row_index][free]
        basis.append(tuple(v))
    return tuple(basis)


def oracle_solve(m, rhs):
    augmented = Matrix([list(row) + [b] for row, b in zip(m.data, rhs)], cols=m.cols + 1)
    reduced, pivots = oracle_rref(augmented)
    if m.cols in pivots:
        return None
    x = [_ZERO] * m.cols
    for row_index, p in enumerate(pivots):
        x[p] = reduced.data[row_index][m.cols]
    return tuple(x)


def oracle_inverse(m):
    n = m.rows
    augmented = Matrix(
        [list(row) + [_ONE if i == j else _ZERO for j in range(n)] for i, row in enumerate(m.data)],
        cols=2 * n,
    )
    reduced, pivots = oracle_rref(augmented)
    if tuple(pivots[:n]) != tuple(range(n)):
        return None
    return Matrix([row[n:] for row in reduced.data], cols=n)


def oracle_span(ambient, vectors):
    """The dense rref rows and pivots of a span, which the earlier `Subspace` held and compared."""
    rows = [tuple(v) for v in vectors if any(v)]
    if not rows:
        return (), ()
    reduced, pivots = oracle_rref(Matrix(rows, cols=ambient))
    return reduced.data[: len(pivots)], pivots


def oracle_cohomology_representatives(a):
    n = a.dim
    z = oracle_span(n * n, oracle_kernel_basis(condition_matrix(a)))
    b = oracle_span(n * n, [coboundary_generator(a, m).flatten() for m in range(n)])
    current = b
    reps = []
    for v in z[0]:
        extended = oracle_span(n * n, current[0] + (v,))
        if len(extended[1]) > len(current[1]):
            reps.append(v)
            current = extended
    return z, b, tuple(reps)


def _axpy(y: dict[int, Fraction], a: Fraction, x: Mapping[int, Fraction]) -> None:
    """y += a * x on sparse rows, dropping entries that cancel."""
    for j, v in x.items():
        if j in y:
            w = y[j] + a * v
            if w:
                y[j] = w
            else:
                del y[j]
        else:
            y[j] = a * v


class OracleEchelon:
    """The reduced row echelon form of a growing row space, as sparse rows.

    `rows` maps each pivot column to its row, a dict {column: nonzero
    Fraction} with a 1 at the pivot, no entries left of it and zeros in
    every other pivot column.  `add` reduces an incoming row against the
    rows already held; a nonzero residue is scaled so that its leftmost
    column becomes a new pivot, and that column is then eliminated from
    the earlier rows.

    The rows given to the constructor are added lightest first, as in
    structured Gaussian elimination: sparse pivot rows cause less fill-in.
    The order changes the cost only, never the result.
    """

    __slots__ = ("cols", "rows")

    def __init__(self, cols: int, rows: Iterable[Mapping[int, Fraction]] = ()):
        self.cols = cols
        self.rows: dict[int, dict[int, Fraction]] = {}
        for row in sorted(rows, key=len):
            self.add(row)

    def reduce(self, row: Mapping[int, Fraction]) -> dict[int, Fraction]:
        """Residue of a sparse row after elimination against the held rows.

        A held row is zero in every other pivot column, so one pass over
        the pivot columns of the input suffices.
        """
        out = dict(row)
        for p in [c for c in out if c in self.rows]:
            _axpy(out, -out[p], self.rows[p])
        return out

    def add(self, row: Mapping[int, Fraction]) -> bool:
        """Extend the row space by `row`; False when it was already inside."""
        residue = self.reduce(row)
        if not residue:
            return False
        lead = min(residue)
        scale = residue[lead]
        if scale != 1:
            residue = {j: x / scale for j, x in residue.items()}
        for held in self.rows.values():
            f = held.get(lead)
            if f:
                _axpy(held, -f, residue)
        self.rows[lead] = residue
        return True

    @property
    def pivots(self) -> tuple[int, ...]:
        return tuple(sorted(self.rows))

    def dense_rows(self) -> tuple[Vector, ...]:
        """The reduced rows in pivot order, as dense vectors."""
        width = range(self.cols)
        return tuple(tuple(self.rows[p].get(j, _ZERO) for j in width) for p in self.pivots)

    def kernel(self) -> tuple[Vector, ...]:
        """Basis of {v : row . v = 0 for every row}, in free-column order.

        Each vector has a 1 in its free coordinate and zeros in the other
        free coordinates.
        """
        basis: list[Vector] = []
        for free in range(self.cols):
            if free in self.rows:
                continue
            v = [_ZERO] * self.cols
            v[free] = _ONE
            for p, row in self.rows.items():
                x = row.get(free)
                if x:
                    v[p] = -x
            basis.append(tuple(v))
        return tuple(basis)


# Nonzero ints and Fractions with denominators up to 7, either sign.
kernel_scalars = st.one_of(
    st.integers(-6, 6).filter(bool),
    st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 7)),
)


def sparse_rows(columns):
    """Sparse rows over the given columns: nonzero entries only, maybe none."""
    if not columns:
        return st.just({})
    return st.dictionaries(st.sampled_from(columns), kernel_scalars, max_size=len(columns))


@st.composite
def row_sequences(draw, columns):
    """Random rows plus zero rows, repeats, multiples and sums of earlier rows."""
    rows = draw(st.lists(sparse_rows(columns), max_size=10))
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(("zero", "repeat", "multiple", "sum")))
        if kind == "zero" or not rows:
            new = {}
        elif kind == "repeat":
            new = dict(draw(st.sampled_from(rows)))
        else:
            u, v = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            c = draw(kernel_scalars)
            new = {j: c * u.get(j, 0) + (v.get(j, 0) if kind == "sum" else 0) for j in set(u) | set(v)}
            new = {j: x for j, x in new.items() if x}
        rows.insert(draw(st.integers(0, len(rows))), new)
    return rows


def as_fractions(row):
    return {j: Fraction(x) for j, x in row.items()}


def assert_held_rows_canonical(e):
    """Primitive int rows, positive pivot, zero in every other pivot column."""
    for p, row in e.held.items():
        assert row and all(type(x) is int and x for x in row.values())
        assert math.gcd(*row.values()) == 1
        assert min(row) == p and row[p] > 0
        assert not (set(row) & set(e.held)) - {p}


def scaled_kernel(e):
    """`Echelon.kernel` as dense vectors with a 1 at each free coordinate.

    Each int row must be primitive, positive at its free coordinate and
    zero at the other free coordinates.
    """
    frees = [c for c in range(e.cols) if c not in e.held]
    basis = e.kernel()
    assert len(basis) == len(frees)
    for free, v in zip(frees, basis):
        assert all(type(x) is int and x for x in v.values())
        assert math.gcd(*v.values()) == 1 and v[free] > 0
        assert not set(v) & set(frees) - {free}
    return tuple(tuple(Fraction(v.get(j, 0), v[free]) for j in range(e.cols)) for free, v in zip(frees, basis))


def assert_same_echelon(e, oracle):
    assert_held_rows_canonical(e)
    assert e.pivots == oracle.pivots
    assert e.dense_rows() == oracle.dense_rows()
    assert scaled_kernel(e) == oracle.kernel()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_echelon_matches_fraction_oracle(data):
    width = data.draw(st.integers(0, 12))
    columns = list(range(width))
    rows = data.draw(row_sequences(columns))
    e, oracle = Echelon(width), OracleEchelon(width)
    for row in rows:
        assert e.add(row) == oracle.add(as_fractions(row))
        assert_held_rows_canonical(e)
    assert_same_echelon(e, oracle)
    assert_same_echelon(Echelon(width, rows), OracleEchelon(width, map(as_fractions, rows)))
    for probe in data.draw(st.lists(sparse_rows(columns), max_size=5)) + rows:
        assert echelon_reduce(e, probe) == oracle.reduce(as_fractions(probe))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_tagged_class_echelon_matches_fraction_oracle(data):
    """The [form | tag] layout of `CohomologyBasis.classes`: residues carry class coordinates."""
    forms = data.draw(st.integers(0, 9))
    tags = data.draw(st.integers(0, 3))
    columns = list(range(forms))
    rows = data.draw(st.lists(sparse_rows(columns), max_size=6))
    for t in range(tags):
        row = dict(data.draw(sparse_rows(columns)))
        row[forms + t] = 1
        rows.append(row)
    e = Echelon(forms + tags, rows)
    oracle = OracleEchelon(forms + tags, map(as_fractions, rows))
    assert_same_echelon(e, oracle)
    probes = data.draw(st.lists(sparse_rows(columns), max_size=5))
    probes += [{j: x for j, x in row.items() if j < forms} for row in rows]
    for probe in probes:
        residue = echelon_reduce(e, probe)
        assert residue == oracle.reduce(as_fractions(probe))
        assert all(type(x) is Fraction for x in residue.values())


@pytest.mark.parametrize("bad", (0.5, 1.0, "1/2", complex(1, 0)))
def test_echelon_refuses_inexact_entries(bad):
    name = type(bad).__name__
    with pytest.raises(TypeError, match="refusing to eliminate %s" % name):
        Echelon(2, [{0: bad, 1: 1}])
    e = Echelon(2, [{0: 1}])
    with pytest.raises(TypeError, match="refusing to eliminate %s" % name):
        e.add({1: bad})
    with pytest.raises(TypeError, match="refusing to eliminate %s" % name):
        echelon_reduce(e, {0: Fraction(1, 2), 1: bad})
    assert e.held == {0: {0: 1}}


entries = st.one_of(
    st.integers(-3, 3).map(Fraction),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


@st.composite
def matrices(draw, square=False):
    """Random matrices: empty, all-zero, sparse, dense and rank-deficient."""
    rows = draw(st.integers(0, 6))
    cols = rows if square else draw(st.integers(0, 6))
    kind = draw(st.sampled_from(("zero", "sparse", "dense", "low-rank")))
    if kind == "zero" or rows == 0 or cols == 0:
        return Matrix([[_ZERO] * cols for _ in range(rows)], cols=cols)
    if kind == "low-rank":
        inner = draw(st.integers(1, max(1, min(rows, cols) - 1)))
        left = [[draw(entries) for _ in range(inner)] for _ in range(rows)]
        right = [[draw(entries) for _ in range(cols)] for _ in range(inner)]
        return Matrix(left, cols=inner) @ Matrix(right, cols=cols)
    cell = entries if kind == "dense" else st.one_of(st.just(_ZERO), st.just(_ZERO), entries)
    return Matrix([[draw(cell) for _ in range(cols)] for _ in range(rows)], cols=cols)


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_rref_rank_kernel_match_dense_oracle(m):
    expected = oracle_rref(m)
    assert rref(m) == expected
    assert rank(m) == len(expected[1])
    assert kernel_basis(m) == oracle_kernel_basis(m)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_solve_matches_dense_oracle(data):
    m = data.draw(matrices())
    if data.draw(st.booleans()) or m.cols == 0:
        rhs = tuple(data.draw(entries) for _ in range(m.rows))
    else:  # a consistent right-hand side
        rhs = m.apply(tuple(data.draw(entries) for _ in range(m.cols)))
    assert solve(m, rhs) == oracle_solve(m, rhs)


@settings(max_examples=150, deadline=None)
@given(matrices(square=True))
def test_inverse_matches_dense_oracle(m):
    assert inverse(m) == oracle_inverse(m)


MEMBERS = (
    ("abelian", 0, {}),
    ("abelian", 3, {}),
    ("NF", 4, {}),
    ("NF", 5, {}),
    ("F1", 5, {}),
    ("F2", 6, {}),
    ("F3", 6, {"alpha": 1}),
    ("F1param", 6, {"alpha6": 1, "theta": 1}),
    ("L6", 5, {}),
    ("L4l", 5, {"lam": "2/3"}),
    ("Nstar", 6, {}),
)


@st.composite
def members(draw):
    """A catalog member in its own basis, a dense integer or a dense rational one."""
    family, dim, params = draw(st.sampled_from(MEMBERS))
    a = catalog.make(family, dim, **params)
    kind = draw(st.sampled_from(("catalog", "dense-integer", "dense-rational")))
    if kind == "catalog" or dim == 0:
        return a
    return transform_algebra(a, flag_breaking_change(draw, dim, kind == "dense-rational"))


@settings(max_examples=30, deadline=None)
@given(members())
def test_condition_system_matches_dense_oracle(a):
    system = condition_matrix(a)
    assert rref(system) == oracle_rref(system)
    assert kernel_basis(system) == oracle_kernel_basis(system)
    rows = [row for _, row in _condition_rows(a)]
    assert scaled_kernel(Echelon(system.cols, rows)) == OracleEchelon(system.cols, map(as_fractions, rows)).kernel()


def member_subspaces(a):
    """The lower central series, center, both annihilators, squares, ZL^2 and BL^2."""
    return [
        *lower_central_series(a),
        center(a),
        left_annihilator(a),
        right_annihilator(a),
        squares_subspace(a),
        cocycle_space(a).space,
        coboundary_space(a).space,
    ]


@st.composite
def respanned(draw, basis, ambient):
    """Another spanning set of the rows: each scaled and given +-1 of the later rows, plus a zero row."""
    vectors = [(_ZERO,) * ambient]
    for i, v in enumerate(basis):
        c = draw(kernel_scalars)
        w = [c * x for x in v]
        for u in basis[i + 1 :]:
            d = draw(st.sampled_from((0, 1, -1)))
            w = [x + d * y for x, y in zip(w, u)]
        vectors.append(tuple(w))
    return draw(st.permutations(vectors))


@settings(max_examples=30, deadline=None)
@given(members(), st.data())
def test_subspaces_compare_as_their_dense_rref(a, data):
    spaces = member_subspaces(a)
    dense = []
    for s in spaces:
        vectors = data.draw(respanned(s.basis, s.ambient))
        dense.append(oracle_span(s.ambient, vectors))
        assert (s.basis, s.pivots) == dense[-1]
        t = Subspace.span(s.ambient, vectors)
        assert t == s and hash(t) == hash(s)
        assert scaled_kernel(s._echelon) == OracleEchelon(s.ambient, map(sparse, vectors)).kernel()
    for (s, ds), (t, dt) in itertools.product(zip(spaces, dense), repeat=2):
        if s.ambient == t.ambient:
            both = oracle_span(s.ambient, ds[0] + dt[0])
            assert (s == t) == (ds == dt)
            assert s.contains_subspace(t) == (both == ds)
            assert (s.sum(t).basis, s.sum(t).pivots) == both


@settings(max_examples=30, deadline=None)
@given(members())
def test_charseq_probes_outside_the_derived_algebra(a):
    assume(a.dim)
    derived = lower_central_series(a)[1]
    expected = [p for p in _charseq_probes(a.dim) if not derived.contains(tuple(map(Fraction, p)))]
    assert list(_probes_outside(derived)) == expected


@settings(max_examples=30, deadline=None)
@given(members())
def test_cohomology_basis_matches_span_per_candidate_loop(a):
    z, b, reps = oracle_cohomology_representatives(a)
    basis = cohomology_basis(a)
    assert basis.cocycles.space == cocycle_space(a).space
    assert (basis.cocycles.space.basis, basis.cocycles.space.pivots) == z
    assert (basis.coboundaries.space.basis, basis.coboundaries.space.pivots) == b
    assert tuple(rep.flatten() for rep in basis.representatives) == reps


def oracle_jordan_ranks(m):
    """Ranks of m^0, m^1, ... down to the first zero, in Fraction arithmetic."""
    ranks = [m.rows]
    power = m
    while ranks[-1]:
        ranks.append(len(oracle_rref(power)[1]))
        power = power @ m
    return ranks


@st.composite
def nilpotent_matrices(draw):
    """A strictly upper triangular rational matrix in a random rational basis."""
    n = draw(st.integers(1, 6))
    upper = [[draw(entries) if c > r else _ZERO for c in range(n)] for r in range(n)]
    q = [[draw(entries) if c < r else (draw(st.sampled_from((_ONE, Fraction(-2, 3)))) if c == r else _ZERO)
          for c in range(n)] for r in range(n)]
    q = Matrix(q, cols=n)
    return q @ Matrix(upper, cols=n) @ oracle_inverse(q)


@settings(max_examples=100, deadline=None)
@given(nilpotent_matrices())
def test_jordan_type_matches_fraction_rank_sequence(m):
    ranks = oracle_jordan_ranks(m)
    blocks_ge = [ranks[s - 1] - ranks[s] for s in range(1, len(ranks))] + [0]
    parts = []
    for s in range(1, len(blocks_ge)):
        parts += [s] * (blocks_ge[s - 1] - blocks_ge[s])
    assert jordan_type_nilpotent(m).parts == tuple(sorted(parts, reverse=True))
