"""The two request streams of the benchmark.

Each workload is built from a seed, does its set-up once, then serves
requests one at a time:

    request = workload.next_request()           # client side, untimed
    reply = workload.serve(request, tracer)     # the timed request
    errors = workload.check(request, reply)     # oracle, untimed

A round of `ROUND` requests holds every request shape (`shape(request)`)
in a fixed proportion.

`serve` calls only the package's public API, and every call into a layer
sits inside a span named after that layer; `SPANS` names the spans a
workload opens.  A traced run reports every per-layer metric on every
workload, and those of spans a workload does not open read 0.  `check` never trusts a flag
the reply carries about itself: it re-derives what it checks from the
request and the reply's raw outputs.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from leibnizalg import (
    Algebra,
    BilinearForm,
    CochainSpace,
    CohomologyBasis,
    Fingerprint,
    Matrix,
    SearchResult,
    SplitReport,
    catalog,
    central_extension,
    check_leibniz,
    cocycle_space,
    cohomology_basis,
    compare_fingerprints,
    fingerprint,
    make_spec,
    random_cocycle_forms,
    reduce_extension,
    reduced_spec,
    search_isomorphism,
    transform_algebra,
    verify_isomorphism,
)
from leibnizalg import cohomology, core, files

# Cached public functions, grouped by module, read through cache_info().
CACHE_GROUPS = {
    "core": (
        core.lower_central_series,
        core.center,
        core.left_annihilator,
        core.right_annihilator,
        core.squares_subspace,
    ),
    "cohomology": (
        cohomology.cocycle_space,
        cohomology.coboundary_space,
        cohomology.cohomology_basis,
    ),
}


def cache_snapshot() -> dict[str, tuple[int, int, int] | None]:
    """(hits, misses, entries) per group; None when a function has no cache_info."""
    out: dict[str, tuple[int, int, int] | None] = {}
    for group, functions in CACHE_GROUPS.items():
        hits = misses = entries = 0
        for fn in functions:
            info_of = getattr(fn, "cache_info", None)
            if info_of is None:
                out[group] = None
                break
            info = info_of()
            hits += info.hits
            misses += info.misses
            entries += info.currsize
        else:
            out[group] = (hits, misses, entries)
    return out


def coeff_bits(values) -> int:
    """Largest numerator or denominator bit length among rationals."""
    best = 0
    for x in values:
        best = max(best, x.numerator.bit_length(), x.denominator.bit_length())
    return best


def built_from(ext: Algebra, base: Algebra, forms) -> bool:
    """Whether ext is base extended by the cocycle components, bracket by bracket."""
    n, dim = base.dim, base.dim + len(forms)
    if ext.dim != dim:
        return False
    zero = (Fraction(0),) * dim
    return all(
        ext.sc[i][j] == (base.sc[i][j] + tuple(f.values[i][j] for f in forms) if i < n and j < n else zero)
        for i in range(dim) for j in range(dim)
    )


def _make(tracer, family: str, dim: int, **params) -> Algebra:
    with tracer.span("catalog.make"):
        return catalog.make(family, dim, **params)


# ------------------------------------------------------------------ reduce

REDUCE_FAMILIES = ("F1", "F2")
REDUCE_DIMS = (5, 6, 7, 8)
REDUCE_COMPONENTS = (1, 2, 3, 4, 5, 6)


@dataclass(frozen=True)
class ReduceRequest:
    family: str
    n: int
    forms: tuple[BilinearForm, ...]


@dataclass
class ReduceReply:
    report: SplitReport
    rebuilt: Algebra
    original: Algebra
    verified: bool


class Reduce:
    """Seeded random k-component cocycles over F1/F2, reduced and rebuilt.

    Requests come in rounds; each round visits every (family, n, k)
    combination once, in a seeded order, so every run sees the same mix
    and only the cocycle coefficients differ between seeds.
    """

    NAME = "reduce"
    ROUND = len(REDUCE_FAMILIES) * len(REDUCE_DIMS) * len(REDUCE_COMPONENTS)
    SPANS = ("extension.reduce_extension", "extension.central_extension", "isomorphism.verify")
    RSS_AFTER = 5 * ROUND  # peak_rss_mb is read after five rounds

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.queue: list[tuple[str, int, int]] = []
        self.shapes = Counter()
        self.ranks = Counter()

    def setup(self, tracer) -> None:
        self.bases = {}
        self.hl2 = {}
        for family in REDUCE_FAMILIES:
            for n in REDUCE_DIMS:
                base = _make(tracer, family, n)
                self.bases[family, n] = base
                self.hl2[family, n] = cohomology_basis(base).dim

    def next_request(self) -> ReduceRequest:
        if not self.queue:
            combos = list(product(REDUCE_FAMILIES, REDUCE_DIMS, REDUCE_COMPONENTS))
            self.rng.shuffle(combos)
            self.queue = combos
        family, n, k = self.queue.pop()
        return ReduceRequest(family, n, random_cocycle_forms(self.bases[family, n], k, self.rng))

    def serve(self, req: ReduceRequest, tracer) -> ReduceReply:
        spec = make_spec(self.bases[req.family, req.n], *req.forms)
        with tracer.span("extension.reduce_extension"):
            report = reduce_extension(spec)
        with tracer.span("extension.central_extension"):
            rebuilt = central_extension(reduced_spec(spec, report))
            original = central_extension(spec)
        with tracer.span("isomorphism.verify"):
            verified = verify_isomorphism(rebuilt, original, report.change_of_basis).ok
        return ReduceReply(report, rebuilt, original, verified)

    @staticmethod
    def shape(req: ReduceRequest) -> tuple:
        return req.family, req.n, len(req.forms)

    def check(self, req: ReduceRequest, reply: ReduceReply) -> list[str]:
        errors = []
        report = reply.report
        base = self.bases[req.family, req.n]
        n, k = base.dim, len(req.forms)
        self.shapes["n%d-k%d" % (n, k)] += 1
        self.ranks[str(report.class_rank)] += 1
        if not reply.verified:
            errors.append("the request rejected its own change of basis")
        padded = report.reduced + (BilinearForm.zero(n),) * report.abelian_dim
        if len(padded) != k or not built_from(reply.rebuilt, base, padded):
            errors.append("the rebuilt extension is not built from the reduced cocycle")
        if not built_from(reply.original, base, req.forms):
            errors.append("the original extension is not built from the request's cocycle")
        if not errors and not verify_isomorphism(reply.rebuilt, reply.original, report.change_of_basis).ok:
            errors.append("change of basis does not map the rebuilt extension onto the original")
        if report.split != (k > report.class_rank):
            errors.append("split=%s with k=%d and class rank %d" % (report.split, k, report.class_rank))
        if report.class_rank > self.hl2[req.family, n]:
            errors.append("class rank %d exceeds dim HL^2 = %d" % (report.class_rank, self.hl2[req.family, n]))
        return errors

    def computed(self, req: ReduceRequest, reply: ReduceReply) -> dict[str, float]:
        report = reply.report
        values = [x for row in report.change_of_basis.data for x in row]
        values += [x for form in report.reduced for x in form.flatten()]
        return {"linalg.coeff_bits": coeff_bits(values)}

    def properties(self) -> dict:
        return {"n_k": dict(sorted(self.shapes.items())), "class_rank": dict(sorted(self.ranks.items()))}


# ------------------------------------------------------------------ identify

# Catalog members the clients ship in a random basis, dims 5 to 7, a cheap
# and a dear one per dimension.  The end-to-end timings take each member and
# basis-change kind at its fastest request of the run, so every member added
# leaves each of them fewer requests to be fastest among.
IDENTIFY_MEMBERS = (
    ("NF", 5, {}),
    ("L6", 5, {}),
    ("F1param", 6, {"alpha6": 1, "theta": 1}),
    ("Nstar", 6, {}),
    ("F1", 7, {}),
    ("Qstar", 7, {}),
)
# Basis-change kinds per round.  Permutations are three of five, so the
# median request lies inside the cheap sparse class rather than on the gap
# between the sparse and the dense requests, where it would jump.
IDENTIFY_KINDS = ("sparse", "sparse", "sparse", "dense-integer", "dense-rational")
# Covers every permutation of the last five basis vectors: the search tries
# budget // 2 permutations in lexicographic order before its random trials.
SEARCH_BUDGET = 256
_DIAGONAL = tuple(Fraction(v) for v in ("1/2", "-1/2", "2/3", "-2/3", "3/2", "-3/2"))


def basis_change(rng: random.Random, kind: str, n: int) -> Matrix:
    """A seeded invertible matrix of the given kind; columns are the new basis.

    sparse: a permutation of the last two to five basis vectors, which the
    search reaches within its budget.  dense-integer: lower triangular with
    every entry +-1, so new basis vector i is +-e_i plus +-1 times each
    later one; it keeps the lower central series filtration, so the
    cocycle systems are dense but cost about the same whatever the seed.
    dense-rational: the same with each column scaled by a small
    non-integer rational.
    """
    if kind == "sparse":
        m = rng.randint(2, min(5, n))
        tail = list(range(n - m, n))
        moved = tail[:]
        while moved == tail:
            rng.shuffle(moved)
        perm = list(range(n - m)) + moved
        return Matrix([[Fraction(int(perm[c] == r)) for c in range(n)] for r in range(n)], cols=n)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for r in range(n):
        rows[r][r] = Fraction(rng.choice((1, -1)))
        for c in range(r):
            rows[r][c] = Fraction(rng.choice((1, -1)))
    if kind == "dense-rational":
        scale = [rng.choice(_DIAGONAL) for _ in range(n)]
        rows = [[x * scale[c] for c, x in enumerate(row)] for row in rows]
    return Matrix(rows, cols=n)


@dataclass(frozen=True)
class IdentifyRequest:
    source: int
    kind: str
    text: str


@dataclass
class IdentifyReply:
    algebra: Algebra
    violations: int
    fingerprint: Fingerprint
    verdict: str
    cocycles: CochainSpace
    basis: CohomologyBasis
    search: SearchResult
    text: str


class Identify:
    """Catalog members shipped as JSON in a seeded random basis.

    The server parses, validates, fingerprints, computes HL^2, searches
    back to the named catalog source and serialises its answer.  The
    client never ships the same document twice (nor a catalog source
    itself), so every request is a new cache key.
    """

    NAME = "identify"
    ROUND = len(IDENTIFY_MEMBERS) * len(IDENTIFY_KINDS)
    SPANS = (
        "files.parse",
        "core.check_leibniz",
        "isomorphism.fingerprint",
        "isomorphism.compare",
        "cohomology.cocycle_space",
        "cohomology.cohomology_basis",
        "isomorphism.search",
        "files.serialize",
    )
    RSS_AFTER = 4 * ROUND  # peak_rss_mb is read after four rounds

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.queue: list[tuple[int, str]] = []
        self.kinds = Counter()
        self.dims = Counter()
        self.found = Counter()
        self.repeats = 0

    def setup(self, tracer) -> None:
        self.sources = []
        for family, n, params in IDENTIFY_MEMBERS:
            src = _make(tracer, family, n, **params)
            self.sources.append((family, src, fingerprint(src), cohomology_basis(src).dim))
        self.shipped = {files.dumps_canonical(files.algebra_to_dict(src, name=family))
                        for family, src, _, _ in self.sources}

    def next_request(self) -> IdentifyRequest:
        if not self.queue:
            combos = list(product(range(len(IDENTIFY_MEMBERS)), IDENTIFY_KINDS))
            self.rng.shuffle(combos)
            self.queue = combos
        source, kind = self.queue.pop()
        family, src, _, _ = self.sources[source]
        for _ in range(100):
            shipped = transform_algebra(src, basis_change(self.rng, kind, src.dim))
            text = files.dumps_canonical(files.algebra_to_dict(shipped, name=family))
            if text not in self.shipped:
                break
            self.repeats += 1
        self.shipped.add(text)
        return IdentifyRequest(source, kind, text)

    def serve(self, req: IdentifyRequest, tracer) -> IdentifyReply:
        with tracer.span("files.parse"):
            a, meta = files.algebra_from_dict(json.loads(req.text))
        with tracer.span("core.check_leibniz"):
            violations = len(check_leibniz(a))
        with tracer.span("isomorphism.fingerprint"):
            fp = fingerprint(a)
        with tracer.span("isomorphism.compare"):
            verdict = compare_fingerprints(fp, self.sources[req.source][2]).verdict
        with tracer.span("cohomology.cocycle_space"):
            z = cocycle_space(a)
        with tracer.span("cohomology.cohomology_basis"):
            h = cohomology_basis(a)
        with tracer.span("isomorphism.search"):
            found = search_isomorphism(a, self.sources[req.source][1], budget=SEARCH_BUDGET)
        with tracer.span("files.serialize"):
            text = files.dumps_canonical({
                "algebra": files.algebra_to_dict(a, name=meta.get("name")),
                "fingerprint": fp.as_dict(),
                "source_verdict": verdict,
                "leibniz_violations": violations,
                "cocycle_rank": z.rank,
                "hl2_dim": h.dim,
                "search": {
                    "status": found.status,
                    "trials": found.trials,
                    "matrix": files.matrix_to_dict(found.matrix) if found.matrix is not None else None,
                },
            })
        return IdentifyReply(a, violations, fp, verdict, z, h, found, text)

    @staticmethod
    def shape(req: IdentifyRequest) -> tuple:
        return req.source, req.kind

    def check(self, req: IdentifyRequest, reply: IdentifyReply) -> list[str]:
        errors = []
        _, src, src_fp, src_hl2 = self.sources[req.source]
        self.kinds[req.kind] += 1
        self.dims[str(src.dim)] += 1
        self.found[reply.search.status] += 1
        shipped = files.dumps_canonical(json.loads(reply.text)["algebra"])
        if shipped != req.text:
            errors.append("JSON round trip changed the algebra document")
        if reply.violations or check_leibniz(reply.algebra):
            errors.append("Leibniz check failed on a catalog member")
        verdict = compare_fingerprints(reply.fingerprint, src_fp).verdict
        if verdict == "distinguished":
            errors.append("fingerprint distinguishes the request from its source")
        if reply.verdict != verdict:
            errors.append("reply's verdict %s against the source, recomputed %s" % (reply.verdict, verdict))
        if reply.basis.dim != src_hl2:
            errors.append("dim HL^2 = %d, source has %d" % (reply.basis.dim, src_hl2))
        if reply.search.status == "distinguished":
            errors.append("search distinguished isomorphic algebras")
        if reply.search.status == "found" and (
            reply.search.matrix is None
            or not verify_isomorphism(reply.algebra, src, reply.search.matrix).ok
        ):
            errors.append("found matrix does not verify")
        return errors

    def computed(self, req: IdentifyRequest, reply: IdentifyReply) -> dict[str, float]:
        values = [x for v in reply.cocycles.space.basis for x in v]
        values += [x for form in reply.basis.representatives for x in form.flatten()]
        return {
            "linalg.coeff_bits": coeff_bits(values),
            "linalg.condition_rows": cohomology.condition_matrix(reply.algebra).rows,
            "isomorphism.search_trials": reply.search.trials,
            "isomorphism.search_found_ratio": float(reply.search.status == "found"),
        }

    def properties(self) -> dict:
        return {
            "kind": dict(sorted(self.kinds.items())),
            "dim": dict(sorted(self.dims.items())),
            "search": dict(sorted(self.found.items())),
            "redrawn_repeats": self.repeats,
        }


WORKLOADS = {w.NAME: w for w in (Reduce, Identify)}
