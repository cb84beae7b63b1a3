"""The sparse row kernel against the dense Gauss-Jordan it replaced.

`oracle_rref` is the earlier dense `linalg.rref`, kept verbatim, and the
oracle `kernel_basis`, `solve` and `inverse` are the earlier wrappers
around it.  `oracle_cohomology_representatives` is the earlier
`cohomology_basis` loop, which re-spanned BL^2 plus the kept candidates
for every candidate, and `oracle_jordan_ranks` the earlier Fraction
branch of `jordan_type_nilpotent`.  They live here only, as references
for the single elimination loop in `linalg.Echelon` and for the
fraction-free rank sequence.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from leibnizalg import catalog
from leibnizalg.cohomology import (
    coboundary_generator,
    cocycle_space,
    cohomology_basis,
    condition_matrix,
)
from leibnizalg.core import Subspace, jordan_type_nilpotent
from leibnizalg.isomorphism import transform_algebra
from leibnizalg.linalg import Matrix, inverse, kernel_basis, rank, rref, solve

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
    rows = [tuple(v) for v in vectors if any(v)]
    if not rows:
        return Subspace(ambient, (), ())
    reduced, pivots = oracle_rref(Matrix(rows, cols=ambient))
    return Subspace(ambient, tuple(row for row in reduced.data if any(row)), pivots)


def oracle_cohomology_representatives(a):
    n = a.dim
    z = oracle_span(n * n, oracle_kernel_basis(condition_matrix(a)))
    b = oracle_span(n * n, [coboundary_generator(a, m).flatten() for m in range(n)])
    current = b
    reps = []
    for v in z.basis:
        extended = oracle_span(n * n, current.basis + (v,))
        if extended.dim > current.dim:
            reps.append(v)
            current = extended
    return z, b, tuple(reps)


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
    sign = st.sampled_from((_ONE, -_ONE))
    q = [[_ZERO] * dim for _ in range(dim)]
    for r in range(dim):
        for c in range(r + 1):
            q[r][c] = draw(sign)
    if kind == "dense-rational":
        scale = [draw(st.sampled_from((Fraction(1, 2), Fraction(-2, 3), Fraction(3, 2)))) for _ in range(dim)]
        q = [[x * scale[c] for c, x in enumerate(row)] for row in q]
    return transform_algebra(a, Matrix(q, cols=dim))


@settings(max_examples=30, deadline=None)
@given(members())
def test_condition_system_matches_dense_oracle(a):
    system = condition_matrix(a)
    assert rref(system) == oracle_rref(system)
    assert kernel_basis(system) == oracle_kernel_basis(system)


@settings(max_examples=30, deadline=None)
@given(members())
def test_cohomology_basis_matches_span_per_candidate_loop(a):
    z, b, reps = oracle_cohomology_representatives(a)
    basis = cohomology_basis(a)
    assert basis.cocycles.space == cocycle_space(a).space == z
    assert basis.coboundaries.space == b
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
