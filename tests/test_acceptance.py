"""Acceptance gate: one test and one printed line per criterion.

Budgets are wall-clock upper bounds on a desk machine; computations are
exact, so a budget failure signals an algorithmic regression rather than
noise.
"""

import random
import time
from fractions import Fraction

from leibnizalg import catalog, reproduce
from leibnizalg.cohomology import (
    coboundary_space,
    cocycle_space,
    cohomology_basis,
    cohomology_dim,
    preferred_cohomology_basis,
)
from leibnizalg.core import (
    check_leibniz,
    lower_central_series,
    natural_gradation,
    nilindex,
)
from leibnizalg.extension import (
    central_extension,
    make_spec,
    random_cocycle_forms,
    reduce_extension,
    reduced_spec,
)
from leibnizalg.isomorphism import (
    compare_fingerprints,
    fingerprint,
    verify_isomorphism,
    verify_scaling,
)
from leibnizalg.linalg import Matrix


def _line(n, ok, detail):
    print("%s criterion %d -- %s" % ("PASS" if ok else "FAIL", n, detail))
    assert ok, "criterion %d: %s" % (n, detail)


def test_criterion_1_chain_cohomology_dims():
    t0 = time.perf_counter()
    bad = []
    for n in range(2, 9):
        a = catalog.make("NF", n)
        z, b, h = cocycle_space(a).rank, coboundary_space(a).rank, cohomology_dim(a)
        for k in (1, 2, 3):
            if (z * k, b * k, h * k) != (n * k, (n - 1) * k, k):
                bad.append((n, k, z * k, b * k, h * k))
    elapsed = time.perf_counter() - t0
    _line(1, not bad and elapsed < 1.0,
          "chain dims (n*k, (n-1)*k, k) over n=2..8, k=1..3 in %.2fs (budget 1s)%s"
          % (elapsed, "; wrong: %s" % bad if bad else ""))


def test_criterion_2_filiform_cohomology_dims_and_support():
    bad = []
    for family in ("F1", "F2"):
        for n in range(5, 9):
            a = catalog.make(family, n)
            dims = (cocycle_space(a).rank, coboundary_space(a).rank, cohomology_dim(a))
            if dims != (n + 2, n - 2, 4):
                bad.append((family, n, dims))
                continue
            reps = preferred_cohomology_basis(a, ((2, 1), (n, 1), (1, 2), (2, 2)))
            if reps is None:
                bad.append((family, n, "no preferred support basis"))
    _line(2, not bad,
          "filiform dims (n+2, n-2, 4) with preferred supports over n=5..8"
          + ("; wrong: %s" % bad if bad else ""))


def test_criterion_3_chain_extension_fingerprints():
    t0 = time.perf_counter()
    bad = []
    for n in range(3, 8):
        base = catalog.make("NF", n)
        rep = cohomology_basis(base).representatives[0]
        ext = central_extension(make_spec(base, rep))
        target = catalog.make("NF", n + 1)
        if fingerprint(ext).as_dict() != fingerprint(target).as_dict():
            bad.append((n, "fingerprint mismatch"))
        elif not verify_isomorphism(ext, target, Matrix.identity(n + 1)).ok:
            bad.append((n, "identity witness rejected"))
    elapsed = time.perf_counter() - t0
    _line(3, not bad and elapsed < 1.0,
          "one-class chain extensions land on the longer chain, n=3..7, "
          "in %.2fs (budget 1s)%s" % (elapsed, "; wrong: %s" % bad if bad else ""))


def test_criterion_4_sweep_with_witnesses_and_ties():
    details = []
    ok = True
    for eid in ("4.2", "4.3"):
        report = reproduce.run(eid)
        ok = ok and report.ok
        if not all(line.ok for line in report.lines):
            ok = False
        tie_notes = [n for n in report.notes if "tie" in n]
        if not tie_notes:
            ok = False
            details.append("%s reported no ties" % eid)
    # irrational normalizations are certified exactly: theta 1 -> 2 scales
    # e1, e2 by alpha and e_k by alpha**(k-1) for every root of alpha**3 = 2,
    # and the fingerprints tie, so neither a rational witness nor an
    # invariant decides the pair
    a = catalog.make("F1param", 6, theta=1)
    b = catalog.make("F1param", 6, theta=2)
    scaling = verify_scaling(a, b, (1, 1, 2, 3, 4, 5), 3, 2)
    tied = compare_fingerprints(fingerprint(a), fingerprint(b)).verdict != "distinguished"
    if not scaling.ok or not tied:
        ok = False
        details.append("theta 1 -> 2: %s, fingerprint tie %s" % (scaling, tied))
    _line(4, ok,
          "coefficient sweeps match the catalog with verified witnesses and "
          "reported ties; theta 1 -> 2 at dim 6 certified exactly by a "
          "scaling with alpha**3 = 2%s"
          % ("; " + "; ".join(details) if details else ""))


def test_criterion_5_random_cocycles_split_within_budget():
    t0 = time.perf_counter()
    report = reproduce.run("4.10")
    elapsed = time.perf_counter() - t0
    _line(5, report.ok and elapsed < 5.0,
          "100 seeded 5-component cocycles reduce, split, and rebuild "
          "in %.2fs (budget 5s)" % elapsed)


def test_criterion_6_catalog_grid_and_planted_defect():
    bad = []
    for info in catalog.list_families():
        fam = info.family
        if fam == "L6":
            dims = (5,)
        elif fam == "abelian":
            dims = range(0, 11)
        else:
            dims = range(info.min_dim, 11)
        for d in dims:
            params = {}
            if fam == "L4l":
                params = {"lam": 1}
            elif fam == "L5lm":
                params = {"lam": 1, "mu": 1}
            a = catalog.make(fam, d, **params)
            if not a.checked and check_leibniz(a):
                bad.append((fam, d))
    # the checker must flag a planted defect, not just accept everything
    from leibnizalg.core import algebra_from_products
    chain = catalog.make("NF", 6)
    records = {}
    for i, j, k, c in chain.products():
        records.setdefault((i, j), {})[k] = c
    cell = records.setdefault((2, 2), {})
    cell[1] = cell.get(1, 0) + 1
    mutant = algebra_from_products(6, records, check=False)
    detected = bool(check_leibniz(mutant))
    _line(6, not bad and detected,
          "every family instance through dim 10 passes the identity check "
          "and a planted defect is flagged"
          + ("; wrong: %s" % bad if bad else "")
          + ("" if detected else "; planted defect missed"))


def test_criterion_7_reduce_rebuild_round_trip():
    rng = random.Random(20162)
    bases = [("NF", d) for d in range(4, 8)] + \
            [("F1", d) for d in range(5, 8)] + \
            [("F2", d) for d in range(5, 8)]
    bad = []
    for trial in range(50):
        family, d = rng.choice(bases)
        k = rng.randint(1, 5)
        base = catalog.make(family, d)
        spec = make_spec(base, *random_cocycle_forms(base, k, rng))
        report = reduce_extension(spec)
        original = central_extension(spec)
        rebuilt = central_extension(reduced_spec(spec, report))
        check = verify_isomorphism(rebuilt, original, report.change_of_basis)
        if not check.ok:
            bad.append((trial, family, d, k, check.reason))
            continue
        verdict = compare_fingerprints(fingerprint(rebuilt), fingerprint(original)).verdict
        if verdict == "distinguished":
            bad.append((trial, family, d, k, "fingerprints diverge"))
    _line(7, not bad,
          "50 seeded reductions rebuild onto the original extension "
          "(bases up to dim 7, up to 5 components)"
          + ("; wrong: %s" % bad[:3] if bad else ""))


def test_criterion_8_gradation_recovers_graded_model():
    target = fingerprint(catalog.make("F1", 6)).as_dict()
    bad = []
    for params in ({"alpha6": 1, "theta": 2},
                   {"alpha6": "1/2", "theta": "-3"},
                   {"alpha6": "-2", "theta": "1/3"}):
        a = catalog.make("F1param", 6, **params)
        g = natural_gradation(a)
        if check_leibniz(g.algebra):
            bad.append((params, "graded bracket breaks the identity"))
            continue
        if fingerprint(g.algebra).as_dict() != target:
            bad.append((params, "fingerprint differs from the graded model"))
            continue
        series = lower_central_series(a)
        for t in range(6):
            if not series[g.layer_of(t) - 1].contains(g.adapted_basis.column(t)):
                bad.append((params, "adapted vector %d outside its layer" % t))
                break
    _line(8, not bad,
          "gradations of three parametrized instances collapse onto the "
          "graded model with layer containment"
          + ("; wrong: %s" % bad if bad else ""))
