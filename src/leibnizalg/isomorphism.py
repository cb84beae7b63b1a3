"""Invariant fingerprints, isomorphism witnesses, and a budgeted search.

A fingerprint bundles the cheap isomorphism invariants; two algebras with
different fingerprints are non-isomorphic.  Witness verification checks a
proposed change of basis exactly.  The search is deliberately incomplete:
"found" and "distinguished" results are certified, "undetermined" means
the budget ran out.  The characteristic sequence is a certified lower
bound, so fingerprints that differ only in an uncertain charseq count as
a tie rather than a distinction.

Bracket images are compared on machine ints: a witness is scaled by its
common denominator into sparse integer columns and checked against the
integer structure constants of both algebras (`Algebra.table`).  The
search walks its candidates in that integer form, and every candidate
that passes is built as a `Matrix` and re-verified by
`verify_isomorphism` before it is returned.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from functools import lru_cache

from .core import (
    Algebra,
    CharSeq,
    bracket,
    center,
    characteristic_sequence,
    classify_shape,
    left_annihilator,
    nilindex,
    right_annihilator,
    series_dims,
    squares_subspace,
)
from .linalg import Matrix, common_denominator, inverse

SEARCH_SEED = 1729
SEARCH_BUDGET = 10000
# Largest candidate budget a search accepts.
MAX_SEARCH_BUDGET = 1_000_000

# A change of basis as sparse integer columns: column j lists the nonzero
# (row, entry) pairs of d*p for the common denominator d of p.
Columns = tuple[tuple[tuple[int, int], ...], ...]


@dataclass(frozen=True)
class Fingerprint:
    """Isomorphism invariants of a nilpotent algebra."""

    dim: int
    lcs_dims: tuple[int, ...]
    nilindex: int
    shape: str
    center_dim: int
    left_ann_dim: int
    right_ann_dim: int
    squares_dim: int
    charseq: CharSeq
    charseq_exact: bool

    _FIELDS = (
        "dim",
        "lcs_dims",
        "nilindex",
        "shape",
        "center_dim",
        "left_ann_dim",
        "right_ann_dim",
        "squares_dim",
    )

    def as_dict(self) -> dict:
        return {
            "dim": self.dim,
            "lcs_dims": list(self.lcs_dims),
            "nilindex": self.nilindex,
            "shape": self.shape,
            "center_dim": self.center_dim,
            "left_ann_dim": self.left_ann_dim,
            "right_ann_dim": self.right_ann_dim,
            "squares_dim": self.squares_dim,
            "charseq": list(self.charseq.parts),
            "charseq_exact": self.charseq_exact,
        }


@lru_cache(maxsize=None)
def fingerprint(a: Algebra) -> Fingerprint:
    s = nilindex(a)
    if s is None:
        raise ValueError("fingerprint needs a nilpotent algebra")
    cs = characteristic_sequence(a)
    return Fingerprint(
        dim=a.dim,
        lcs_dims=series_dims(a),
        nilindex=s,
        shape=classify_shape(a),
        center_dim=center(a).dim,
        left_ann_dim=left_annihilator(a).dim,
        right_ann_dim=right_annihilator(a).dim,
        squares_dim=squares_subspace(a).dim,
        charseq=cs.seq,
        charseq_exact=cs.exact,
    )


@dataclass(frozen=True)
class Comparison:
    """Outcome of a fingerprint comparison.

    verdict "distinguished" certifies non-isomorphism and names the
    invariant; "tie" means the only difference sits in a charseq that is
    not certified exact; "equal" means every invariant agrees.
    """

    verdict: str
    detail: str | None = None


def compare_fingerprints(fa: Fingerprint, fb: Fingerprint) -> Comparison:
    for name in Fingerprint._FIELDS:
        if getattr(fa, name) != getattr(fb, name):
            return Comparison("distinguished", name)
    if fa.charseq != fb.charseq:
        if fa.charseq_exact and fb.charseq_exact:
            return Comparison("distinguished", "charseq")
        return Comparison("tie", "charseq differs but is not certified exact")
    return Comparison("equal")


@dataclass(frozen=True)
class IsoCheck:
    ok: bool
    failing_pair: tuple[int, int] | None = None
    reason: str | None = None


def _integer_columns(p: Matrix) -> tuple[Columns, int]:
    """The columns of d*p as sparse integer columns, and d."""
    d = common_denominator(x for row in p.data for x in row)
    return tuple(
        tuple((r, x.numerator * (d // x.denominator)) for r, x in enumerate(p.column(j)) if x)
        for j in range(p.cols)
    ), d


def _columns_matrix(cols: Columns) -> Matrix:
    n = len(cols)
    rows = [[0] * n for _ in range(n)]
    for j, col in enumerate(cols):
        for r, x in col:
            rows[r][j] = x
    return Matrix(rows, cols=n)


def _brackets_match(a: Algebra, b: Algebra, cols: Columns, d: int) -> tuple[int, int] | None:
    """First 1-based basis pair where p = cols/d breaks the bracket, else None.

    With P = d*p and integer products C_a = D_a*c_a, C_b = D_b*c_b, the
    condition p([e_i, e_j]_a) = [p e_i, p e_j]_b reads
    d*D_b*(P C_a[i,j]) = D_a * sum_{k,l} P_ki P_lj C_b[k,l].
    """
    n = a.dim
    get_a = a.table.products.get
    get_b = b.table.products.get
    left, right = d * b.table.denominator, a.table.denominator
    g = math.gcd(left, right)
    left, right = left // g, right // g
    for i in range(n):
        col_i = cols[i]
        for j in range(n):
            lhs = [0] * n
            for m, c in get_a((i, j), ()):
                for t, x in cols[m]:
                    lhs[t] += c * x
            rhs = [0] * n
            for k, x in col_i:
                for l, y in cols[j]:
                    terms = get_b((k, l))
                    if terms:
                        f = x * y
                        for t, c in terms:
                            rhs[t] += f * c
            if left != 1:
                lhs = [left * v for v in lhs]
            if right != 1:
                rhs = [right * v for v in rhs]
            if lhs != rhs:
                return (i + 1, j + 1)
    return None


def verify_isomorphism(a: Algebra, b: Algebra, p: Matrix) -> IsoCheck:
    """Check that p maps a onto b: p([x, y]_a) = [p x, p y]_b, p invertible.

    Columns of p are the images of a's basis vectors in b's coordinates.
    """
    if a.dim != b.dim:
        raise ValueError("dimension mismatch: %d vs %d" % (a.dim, b.dim))
    if p.rows != a.dim or p.cols != a.dim:
        raise ValueError("change of basis must be %d x %d" % (a.dim, a.dim))
    if inverse(p) is None:
        return IsoCheck(False, None, "matrix is singular")
    pair = _brackets_match(a, b, *_integer_columns(p))
    if pair is not None:
        return IsoCheck(False, pair, "bracket images differ at (e%d, e%d)" % pair)
    return IsoCheck(True)


def transform_algebra(a: Algebra, q: Matrix) -> Algebra:
    """The algebra on the basis whose q-columns express it in a's coordinates.

    The result is isomorphic to a via q by construction.
    """
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
    return Algebra(dim=n, sc=tuple(rows), checked=a.checked)


@dataclass(frozen=True)
class SearchResult:
    status: str  # "found" | "distinguished" | "undetermined"
    matrix: Matrix | None = None
    invariant: str | None = None
    trials: int = 0


def _permutation(perm: tuple[int, ...], signs: tuple[int, ...] | None = None) -> Columns:
    """Column i is signs[i] (or 1) times e_{perm[i]}."""
    return tuple(((r, signs[i] if signs else 1),) for i, r in enumerate(perm))


def _random_unimodular(rng: random.Random, n: int) -> list[list[int]]:
    """Rows of a triangular matrix with unit diagonal (up to sign), small integer entries."""
    upper = rng.random() < 0.5
    rows = []
    for i in range(n):
        row = [0] * n
        row[i] = rng.choice((1, 1, 1, -1))
        rng_range = range(i + 1, n) if upper else range(0, i)
        for j in rng_range:
            row[j] = rng.randint(-2, 2)
        rows.append(row)
    return rows


def _search_candidates(n: int, budget: int, seed: int):
    """Deterministic candidate stream: permutations first, then seeded trials."""
    identity = tuple(range(n))
    reversal = tuple(reversed(range(n)))
    yield _permutation(identity)
    if reversal != identity:
        yield _permutation(reversal)
    emitted = 2
    for perm in itertools.permutations(range(n)):
        if perm in (identity, reversal):
            continue
        yield _permutation(perm)
        emitted += 1
        if emitted >= budget // 2:
            break
    all_minus = tuple([-1] * n)
    yield _permutation(identity, all_minus)
    yield _permutation(reversal, all_minus)
    for i in range(n):
        signs = tuple(-1 if t == i else 1 for t in range(n))
        yield _permutation(identity, signs)
        yield _permutation(reversal, signs)
    rng = random.Random(seed)
    while True:
        rows = _random_unimodular(rng, n)
        if rng.random() < 0.25:
            # Left multiplication by a permutation moves row i to row perm[i].
            permuted = list(rows)
            for i, r in enumerate(rng.sample(range(n), n)):
                permuted[r] = rows[i]
            rows = permuted
        yield tuple(tuple((r, row[j]) for r, row in enumerate(rows) if row[j]) for j in range(n))


def search_isomorphism(
    a: Algebra, b: Algebra, budget: int = SEARCH_BUDGET, seed: int = SEARCH_SEED
) -> SearchResult:
    """Fingerprint gate, then a budgeted certified candidate sweep.

    Returns distinguished when an invariant separates the algebras, found
    with a verified change of basis when a candidate works, undetermined
    when the budget is exhausted.  A found matrix is always re-verified
    with the full check before being returned.  The budget must lie in
    1..MAX_SEARCH_BUDGET.
    """
    if not 1 <= budget <= MAX_SEARCH_BUDGET:
        raise ValueError("search budget %d outside 1..%d" % (budget, MAX_SEARCH_BUDGET))
    if a.dim != b.dim:
        return SearchResult("distinguished", invariant="dim")
    comparison = compare_fingerprints(fingerprint(a), fingerprint(b))
    if comparison.verdict == "distinguished":
        return SearchResult("distinguished", invariant=comparison.detail)
    trials = 0
    for candidate in _search_candidates(a.dim, budget, seed):
        if trials >= budget:
            break
        trials += 1
        if _brackets_match(a, b, candidate, 1) is None:
            matrix = _columns_matrix(candidate)
            if verify_isomorphism(a, b, matrix).ok:
                return SearchResult("found", matrix=matrix, trials=trials)
    return SearchResult("undetermined", trials=trials)


def float_change_residual(a: Algebra, b: Algebra, p: list[list[float]]) -> float:
    """Largest bracket mismatch of a floating-point change of basis.

    For witnesses that need irrational entries; a small residual supports
    but never certifies an isomorphism, so callers must label these
    results as non-exact.
    """
    n = a.dim
    if b.dim != n or len(p) != n or any(len(row) != n for row in p):
        raise ValueError("dimension mismatch")
    sa = [[[float(c) for c in a.sc[i][j]] for j in range(n)] for i in range(n)]
    sb = [[[float(c) for c in b.sc[i][j]] for j in range(n)] for i in range(n)]

    def apply(v: list[float]) -> list[float]:
        return [sum(p[r][c] * v[c] for c in range(n)) for r in range(n)]

    def bracket_float(x: list[float], y: list[float]) -> list[float]:
        acc = [0.0] * n
        for i in range(n):
            if not x[i]:
                continue
            for j in range(n):
                if not y[j]:
                    continue
                f = x[i] * y[j]
                for k in range(n):
                    acc[k] += f * sb[i][j][k]
        return acc

    cols = [[p[r][c] for r in range(n)] for c in range(n)]
    worst = 0.0
    for i in range(n):
        for j in range(n):
            lhs = apply(sa[i][j])
            rhs = bracket_float(cols[i], cols[j])
            for t in range(n):
                worst = max(worst, abs(lhs[t] - rhs[t]))
    return worst
