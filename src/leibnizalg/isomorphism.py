"""Invariant fingerprints, isomorphism witnesses, and a budgeted search.

A fingerprint bundles the cheap isomorphism invariants; two algebras with
different fingerprints are non-isomorphic.  Witness verification checks a
proposed change of basis exactly.  The search is deliberately incomplete:
"found" and "distinguished" results are certified, "undetermined" means
the budget ran out.  The characteristic sequence is the best Jordan
type a deterministic candidate sweep finds, a lower bound; the sweep
stops early once it meets a certified upper bound, but the sequence is
certified exact only when it reaches the maximum the nilindex allows.  So
fingerprints that differ only in an uncertain charseq count as a tie
rather than a distinction.

Bracket images are compared on machine ints, against the integer
structure constants of both algebras (`Algebra.table`).
`verify_isomorphism` reads a witness as the sparse integer rows over
one denominator that every `Matrix` stores (`Matrix._int_rows`),
rejects it as singular by the `Echelon` rank of the columns, and then
scatters: one basis row at a time, each product of the target algebra
is sent through the rows of the witness.  `verify_scaling` certifies
e_k -> alpha**w_k e_k for every root alpha of t**d - r constant by
constant, so a witness that needs a root needs no float.

The search filters its candidates on one number per basis pair instead
(`_passing`): both sides of the bracket condition are dotted with a
fixed vector w of nonzero odd ints (`_WEIGHTS`), a one-sided
Freivalds-style test.  w . [p e_i, p e_j] is read off the projections
w . C_b[k, l] of b's products, computed once per search, and
w . p([e_i, e_j]) off the projections w . p e_m of the candidate's
columns.  Unequal projections prove that the bracket fails, so no
isomorphism is ever dropped; most wrong candidates are dropped at the
first pair.  A candidate that passes every pair is built as a `Matrix`
and checked by `verify_isomorphism`, exactly and once, so a collision
of projections costs one extra verify.

The candidate stream depends only on (dimension, budget, seed), never on
the algebras, and its coins are drawn as ints (`_coin`).  Every candidate
is integer with an integer inverse, so the stream is walked only when
both tables have one denominator.  A search whose budget bounds it to
at most 2**16 (row, entry) pairs walks the stream's first `budget`
candidates as one memoised tuple per key (`_held_candidates`), each
held with the projections of its columns and its dense first column;
any other search draws the stream afresh, computes only the projections
that a pair reads, and holds nothing.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .core import (
    MAX_DIM,
    Algebra,
    CharSeq,
    NotNilpotentError,
    _products_by_row,
    center,
    characteristic_sequence,
    classify_shape,
    left_annihilator,
    nilindex,
    right_annihilator,
    series_dims,
    squares_subspace,
    transform_algebra,
)
from .linalg import Echelon, Matrix, frac

SEARCH_SEED = 1729
SEARCH_BUDGET = 10000
# Largest candidate budget a search accepts.
MAX_SEARCH_BUDGET = 1_000_000
# Candidate streams memoised at once, and (row, entry) pairs a memoised stream may hold.
_STREAM_KEYS = 8
_STREAM_HELD_PAIRS = 1 << 16

# The search's projection weights: one nonzero odd int per coordinate,
# distinct, since an odd multiplier permutes the odd residues mod 2**16.
_WEIGHTS = tuple((2 * t + 1) * 40503 % (1 << 16) for t in range(MAX_DIM))

# A change of basis as sparse integer columns: column j lists the nonzero
# (row, entry) pairs of d*p for the common denominator d of p.
Columns = tuple[tuple[tuple[int, int], ...], ...]
# A memoised candidate: its columns, the projection w . col_m of each
# column, and its first column as a dense tuple.
HeldCandidate = tuple[Columns, tuple[int, ...], tuple[int, ...]]


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
        raise NotNilpotentError("fingerprint needs a nilpotent algebra")
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


def _columns_matrix(cols: Columns) -> Matrix:
    n = len(cols)
    rows: list[dict[int, int]] = [{} for _ in range(n)]
    for j, col in enumerate(cols):
        for r, x in col:
            rows[r][j] = x
    return Matrix._from_ints(rows, 1, n)


def _projection(col: tuple[tuple[int, int], ...]) -> int:
    """w . col for the fixed weights w."""
    w = _WEIGHTS
    return sum([x * w[t] for t, x in col])


def _dense(col: tuple[tuple[int, int], ...], n: int) -> tuple[int, ...]:
    v = [0] * n
    for t, x in col:
        v[t] = x
    return tuple(v)


def _passing(a: Algebra, b: Algebra, candidates):
    """Trial number and columns of each candidate that passes the projected bracket test.

    a and b must have equal table denominators, so the bracket condition
    at (i, j) is `verify_isomorphism`'s with d = 1 and D_a = D_b, since
    candidates are integer: P C_a[i,j] = sum_{k,l} P_ki P_lj C_b[k,l].
    Both sides are dotted with the fixed weights w, so the left one reads
    sum_m C_a[i,j]_m (w . col_m) off the projections of the columns, and
    the right one sum_{k,l} P_ki P_lj beta(k,l) off beta(k,l) = w . C_b[k,l],
    computed once.  `terms_a[i*n + j]` holds the terms of C_a[i,j] and
    `beta[k][l]` the values; `products_b` lists the nonzero
    (k, l, beta[k][l]).

    `candidates` yields (cols, proj, first): `proj[m]` is w . col_m, or
    None until a pair reads it, when it is computed and stored; `first`
    is the dense column 0, or None until it is needed.  Unequal projections
    prove that the bracket fails at (i, j), so a dropped candidate is
    never an isomorphism; one that passes all n*n pairs may still fail an
    exact bracket, and must be verified.  Most wrong candidates fail at
    (e_1, e_1), so that pair is tested first on its own, summing over
    whichever is smaller: the pairs of column 0, or b's products against
    the dense column 0.  A dense column 0, as the seeded triangular
    candidates have, takes the second sum; against the plain loop
    started at (e_1, e_1), that makes a 256-candidate search in a dense
    basis at dims 5-7 about 1.7 times faster (best of 300, 2-vCPU host).
    """
    n = a.dim
    terms_a = [()] * (n * n)
    for (i, j), terms in a.table.products.items():
        terms_a[i * n + j] = terms
    beta = [[0] * n for _ in range(n)]
    for (k, l), terms in b.table.products.items():
        beta[k][l] = _projection(terms)
    products_b = [(k, l, v) for k, row in enumerate(beta) for l, v in enumerate(row) if v]
    n_products = len(products_b)
    terms_00 = terms_a[0] if n else ()
    for trial, (cols, proj, first) in enumerate(candidates, 1):
        if n:
            col0 = cols[0]
            rhs = 0
            if n_products < len(col0) ** 2:
                if first is None:
                    first = _dense(col0, n)
                for k, l, v in products_b:
                    x = first[k]
                    if x:
                        y = first[l]
                        if y:
                            rhs += x * y * v
            else:
                for k, x in col0:
                    row = beta[k]
                    rhs += x * sum([y * row[l] for l, y in col0])
            lhs = 0
            for m, c in terms_00:
                v = proj[m]
                if v is None:
                    v = proj[m] = _projection(cols[m])
                lhs += c * v
            if lhs != rhs:
                continue
        for ij in range(1, n * n):
            i, j = divmod(ij, n)
            col_j = cols[j]
            rhs = 0
            for k, x in cols[i]:
                row = beta[k]
                rhs += x * sum([y * row[l] for l, y in col_j])
            lhs = 0
            for m, c in terms_a[ij]:
                v = proj[m]
                if v is None:
                    v = proj[m] = _projection(cols[m])
                lhs += c * v
            if lhs != rhs:
                break
        else:
            yield trial, cols


def verify_isomorphism(a: Algebra, b: Algebra, p: Matrix) -> IsoCheck:
    """Check that p maps a onto b: p([x, y]_a) = [p x, p y]_b, p invertible.

    Columns of p are the images of a's basis vectors in b's coordinates.
    With P = d*p for the common denominator d of p (`p._int_rows()`), and
    integer products C_a = D_a*c_a, C_b = D_b*c_b, the bracket condition
    at (i, j) reads d*D_b*(P C_a[i,j]) = D_a * sum_{k,l} P_ki P_lj C_b[k,l].  It is
    checked one row i at a time: every product (k, l) of b with P_ki != 0
    is scattered through row l of P into the differences of all j at
    once, and a's products (i, j) are subtracted, so only the sums of one
    row are held.  The failing pair is the first in (i, j) order.
    """
    if a.dim != b.dim:
        raise ValueError("dimension mismatch: %d vs %d" % (a.dim, b.dim))
    n = a.dim
    if p.rows != n or p.cols != n:
        raise ValueError("change of basis must be %d x %d" % (n, n))
    rows, d = p._int_rows()
    cols: list[dict[int, int]] = [{} for _ in range(n)]
    for r, row in enumerate(rows):
        for j, x in row:
            cols[j][r] = x
    if len(Echelon(n, cols).held) < n:
        return IsoCheck(False, None, "matrix is singular")
    left, right = d * b.table.denominator, a.table.denominator
    g = math.gcd(left, right)
    left, right = left // g, right // g
    products_a, products_b = _products_by_row(a), _products_by_row(b)
    for i in range(n):
        sums: dict[int, int] = {}  # j*n + t -> entry t of the difference at (i, j)
        for k, x in cols[i].items():
            x *= right
            for l, terms in products_b[k]:
                for j, y in rows[l]:
                    f = x * y
                    jn = j * n
                    for t, c in terms:
                        sums[jn + t] = sums.get(jn + t, 0) + f * c
        for j, terms in products_a[i]:
            jn = j * n
            for m, c in terms:
                c *= left
                for t, x in cols[m].items():
                    sums[jn + t] = sums.get(jn + t, 0) - c * x
        failing = [key for key, v in sums.items() if v]
        if failing:
            j = min(failing) // n
            return IsoCheck(False, (i + 1, j + 1), "bracket images differ at (e%d, e%d)" % (i + 1, j + 1))
    return IsoCheck(True)


def verify_scaling(a: Algebra, b: Algebra, weights: Sequence[int], d: int, r: int | str | Fraction) -> IsoCheck:
    """Check that e_k -> alpha**weights[k] e_k maps a onto b for every root alpha of t**d - r.

    The map is a homomorphism iff c_b = c_a alpha**e for each constant c
    of [e_i, e_j] on e_k, with e = w_k - w_i - w_j, and invertible as
    r != 0.  If d divides e, alpha**e = r**(e/d) at every root; if not,
    alpha**e differs between the roots, so a nonzero constant there is
    refused.  The failing pair is the first in (i, j) order, so at d = 1
    this is `verify_isomorphism` of diag(r**w_k).
    """
    n = a.dim
    if b.dim != n or len(weights) != n:
        raise ValueError("dimension mismatch: %d vs %d with %d weights" % (n, b.dim, len(weights)))
    weights = [operator.index(w) for w in weights]
    d, r = operator.index(d), frac(r)
    if d < 1 or not r:
        raise ValueError("a scaling needs d >= 1 and r != 0")
    (den_a, products_a), (den_b, products_b) = a.table, b.table
    for i, j in sorted(products_a.keys() | products_b.keys()):
        terms_a, terms_b = dict(products_a.get((i, j), ())), dict(products_b.get((i, j), ()))
        for k in terms_a.keys() | terms_b.keys():
            q, rest = divmod(weights[k] - weights[i] - weights[j], d)
            if rest or Fraction(terms_b.get(k, 0), den_b) != Fraction(terms_a.get(k, 0), den_a) * r**q:
                return IsoCheck(False, (i + 1, j + 1), "bracket images differ at (e%d, e%d)" % (i + 1, j + 1))
    return IsoCheck(True)


@dataclass(frozen=True)
class SearchResult:
    status: str  # "found" | "distinguished" | "undetermined"
    matrix: Matrix | None = None
    invariant: str | None = None
    trials: int = 0


def _permutation(perm: tuple[int, ...], signs: tuple[int, ...] | None = None) -> Columns:
    """Column i is signs[i] (or 1) times e_{perm[i]}."""
    return tuple(((r, signs[i] if signs else 1),) for i, r in enumerate(perm))


def _coin(rng: random.Random, bits: int) -> bool:
    """Whether `rng.random() < 2**-bits`, decided on ints from the same two 32-bit draws.

    `random()` takes its top 27 bits from the first draw, so that draw's top `bits` decide.
    """
    high = rng.getrandbits(32) >> (32 - bits)
    rng.getrandbits(32)
    return not high


def _random_unimodular(rng: random.Random, n: int) -> list[list[int]]:
    """Rows of a triangular matrix with unit diagonal (up to sign), small integer entries."""
    upper = _coin(rng, 1)
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
        if _coin(rng, 2):
            # Left multiplication by a permutation moves row i to row perm[i].
            permuted = list(rows)
            for i, r in enumerate(rng.sample(range(n), n)):
                permuted[r] = rows[i]
            rows = permuted
        yield tuple(tuple((r, row[j]) for r, row in enumerate(rows) if row[j]) for j in range(n))


@lru_cache(maxsize=_STREAM_KEYS)
def _held_candidates(n: int, budget: int, seed: int) -> tuple[HeldCandidate, ...]:
    """The first `budget` candidates of `_search_candidates(n, budget, seed)`, memoised.

    Each is held with the projections w . col_m of its columns and its
    dense first column, the parts of the search's filter (`_passing`)
    that do not depend on the algebras.  The stream does not depend on
    them either, so every search with the same key walks the same
    candidates.  `search_isomorphism` holds a key only when
    budget * max(n*n, 1) is at most `_STREAM_HELD_PAIRS` (2**16): a
    candidate has at most n*n (row, entry) pairs, and counts as one at
    n = 0.  Equal pairs, columns, candidates, projection tuples, first
    columns and entries are each one shared tuple.  At most `_STREAM_KEYS` (8) keys are held.  Worst
    case, measured with tracemalloc on CPython 3.11 at the largest held
    budget for n = 1..10, 16, 32, 64: a key holds at most 1.5 MB, at n = 4,
    and 0.53 and 0.15 MB at n = 1 and 2, where a few distinct candidates
    recur.  So the memo holds at most about 12 MB.  A budget-256 key at
    n <= 7 holds at most 3,652 pairs.

    The first search of a key builds all its candidates.  Best of 5 on a
    2-vCPU host whose speed varies up to twofold, that took 4.7 ms at the
    benchmark's (7, 256), 48 ms at (5, 2,621), 68 ms at (2, 10,000), the
    CLI default budget on a 2-dimensional algebra, and 0.27 s at
    (1, 65,536); drawing the candidates alone takes about half of it.
    """
    seen = {}
    intern = seen.setdefault
    held = []
    for cols in itertools.islice(_search_candidates(n, budget, seed), budget):
        # A column seen before is looked up; only a new one interns its pairs.
        cols = tuple(seen.get(col) or intern(col, tuple(intern(pair, pair) for pair in col))
                     for col in cols)
        proj = tuple(map(_projection, cols))
        first = _dense(cols[0], n) if n else ()
        entry = (intern(cols, cols), intern(proj, proj), intern(first, first))
        held.append(intern(entry, entry))
    return tuple(held)


def search_isomorphism(
    a: Algebra, b: Algebra, budget: int = SEARCH_BUDGET, seed: int = SEARCH_SEED
) -> SearchResult:
    """Fingerprint gate, then a budgeted certified candidate sweep.

    Returns distinguished when an invariant separates the algebras, found
    with a verified change of basis when a candidate works, undetermined
    when the budget is exhausted.  Algebras whose integer tables have
    different denominators are undetermined after `budget` trials without
    a walk: no integer candidate with an integer inverse can map one onto
    the other.  Each candidate is filtered on its
    projected brackets (`_passing`); one that passes is built as a
    `Matrix` and checked by `verify_isomorphism`, and the first that
    verifies is returned.  The budget must lie in 1..MAX_SEARCH_BUDGET.
    """
    if not 1 <= budget <= MAX_SEARCH_BUDGET:
        raise ValueError("search budget %d outside 1..%d" % (budget, MAX_SEARCH_BUDGET))
    if a.dim != b.dim:
        return SearchResult("distinguished", invariant="dim")
    comparison = compare_fingerprints(fingerprint(a), fingerprint(b))
    if comparison.verdict == "distinguished":
        return SearchResult("distinguished", invariant=comparison.detail)
    if a.table.denominator != b.table.denominator:
        # Every candidate and its inverse are integer, so an isomorphism
        # among them maps each table's integer products onto the other's.
        return SearchResult("undetermined", trials=budget)
    n = a.dim
    if budget * max(n * n, 1) <= _STREAM_HELD_PAIRS:
        candidates = _held_candidates(n, budget, seed)
    else:
        candidates = (
            (cols, [None] * n, None) for cols in itertools.islice(_search_candidates(n, budget, seed), budget)
        )
    for trial, cols in _passing(a, b, candidates):
        matrix = _columns_matrix(cols)
        if verify_isomorphism(a, b, matrix).ok:
            return SearchResult("found", matrix=matrix, trials=trial)
    # The stream is endless, so all `budget` candidates were tried.
    return SearchResult("undetermined", trials=budget)
