"""Canonical outputs pinned byte for byte against a recorded fixture.

`golden_outputs.json` holds the canonical JSON of ZL^2 and BL^2 bases,
the HL^2 representatives and the fingerprints of six catalog members
(dims 5-7) in their own basis, a dense integer basis and a dense
rational basis.  It was recorded with the dense Gauss-Jordan `rref` that
the sparse row kernel replaced; any change to an RREF, a kernel basis, a
chosen representative or a coefficient size shows here as a diff.

`golden_reduce.json` holds the canonical JSON of the `SplitReport`
fields of `reduce_extension` for one seeded `random_cocycle_forms` spec
per (F1/F2, n = 5..8, k = 1..6), a k = 0 spec, a 0-dimensional base and
one spec per (F1/F2, n = 5..7, k = 1..6) in a dense rational basis.  It
was recorded with the `solve`-per-form `cohomology_class` and the dense
`combine` that the cached tagged echelon replaced; the dense rational
specs were added while `reduce_extension` still ran `linalg.solve` over
its own grid of coboundary generators.

`golden_reproduce.json` holds `reproduce.run(id).as_dict()` of every
experiment at the default seed, in `experiment_ids()` order.  It was
recorded while `Algebra` still stored the dense `Fraction` grid that
the integer table replaced.

`golden_reproduce_ns.json` holds `reproduce.run(id, n).as_dict()` of
4.2 through 4.9 at n = 6 and 7, so the dimensions each experiment
derives from n (the extension's dim, the expected nilindex) are pinned
beyond the default n.  It was recorded while 4.4-4.7 were still four
hand-written runners, before one roster runner replaced them.

`golden_catalog.json` holds the table of every catalog family at every
admissible dim up to 10 with the parameter draws of `test_catalog`, each
rational parameter alone at -3/2 (required ones at a valid value), the
exception type of refused requests (a choice parameter at 1/2, L4l with
lam = 0, F3 with alpha = 1 at an odd dim, an unknown name, a dim below
the minimum, ...) and the text and JSON of `catalog list`.  It was
recorded while every family still had a hand-written `_build_*` function
that read its parameters itself.

`golden_subspaces.json` holds the canonical rref basis and pivots of
every lower central series term, the center, both annihilators, the
squares subspace and BL^2 of the same six members in the same three
bases.  It was recorded while `Echelon` still eliminated on `Fraction`
rows, before the fraction-free integer kernel replaced it.

Regenerate only for a change meant to alter these outputs:

    PYTHONPATH=src python tests/test_golden_outputs.py > tests/golden_outputs.json
    PYTHONPATH=src python tests/test_golden_outputs.py reduce > tests/golden_reduce.json
    PYTHONPATH=src python tests/test_golden_outputs.py reproduce > tests/golden_reproduce.json
    PYTHONPATH=src python tests/test_golden_outputs.py reproduce-ns > tests/golden_reproduce_ns.json
    PYTHONPATH=src python tests/test_golden_outputs.py subspaces > tests/golden_subspaces.json
    PYTHONPATH=src python tests/test_golden_outputs.py catalog > tests/golden_catalog.json
"""

import contextlib
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from leibnizalg import catalog, cli, reproduce
from leibnizalg.cohomology import BilinearForm, coboundary_space, cocycle_space, cohomology_basis
from leibnizalg.core import (
    center,
    left_annihilator,
    lower_central_series,
    right_annihilator,
    squares_subspace,
)
from leibnizalg.extension import make_spec, random_cocycle_forms, reduce_extension
from leibnizalg.isomorphism import fingerprint, transform_algebra
from leibnizalg.linalg import Matrix, frac
from test_catalog import grid_cases

FIXTURE = Path(__file__).with_name("golden_outputs.json")
REDUCE_FIXTURE = Path(__file__).with_name("golden_reduce.json")
REPRODUCE_FIXTURE = Path(__file__).with_name("golden_reproduce.json")
REPRODUCE_NS_FIXTURE = Path(__file__).with_name("golden_reproduce_ns.json")
SUBSPACES_FIXTURE = Path(__file__).with_name("golden_subspaces.json")
CATALOG_FIXTURE = Path(__file__).with_name("golden_catalog.json")

MEMBERS = (
    ("NF", 5, {}),
    ("L6", 5, {}),
    ("F1param", 6, {"alpha6": 1, "theta": 1}),
    ("Nstar", 6, {}),
    ("F1", 7, {}),
    ("Qstar", 7, {}),
)
SCALES = tuple(Fraction(v) for v in ("1/2", "-2/3", "3/2", "-1/2", "2/3", "-3/2"))


def dense_basis(n, rational):
    """Lower triangular, +-1 on and below the diagonal; columns scaled if rational."""
    rows = [[Fraction(0)] * n for _ in range(n)]
    for r in range(n):
        rows[r][r] = Fraction(-1 if r % 2 else 1)
        for c in range(r):
            rows[r][c] = Fraction(-1 if (r + 2 * c) % 3 == 0 else 1)
    if rational:
        rows = [[x * SCALES[c % len(SCALES)] for c, x in enumerate(row)] for row in rows]
    return Matrix(rows, cols=n)


def vectors(vs):
    return [[str(x) for x in v] for v in vs]


def member_bases():
    """(family, n, kind, algebra) for each golden member in each basis."""
    for family, n, params in MEMBERS:
        src = catalog.make(family, n, **params)
        for kind in ("catalog", "dense-integer", "dense-rational"):
            a = src if kind == "catalog" else transform_algebra(
                src, dense_basis(n, kind == "dense-rational"))
            yield family, n, kind, a


def payload():
    out = []
    for family, n, kind, a in member_bases():
        h = cohomology_basis(a)
        entry = {
            "member": family,
            "dim": n,
            "basis": kind,
            "cocycles": vectors(cocycle_space(a).space.basis),
            "coboundaries": vectors(coboundary_space(a).space.basis),
            "representatives": vectors(rep.flatten() for rep in h.representatives),
        }
        if kind != "catalog":
            entry["fingerprint"] = fingerprint(a).as_dict()
        out.append(entry)
    return out


def subspace(s):
    return {"basis": vectors(s.basis), "pivots": list(s.pivots)}


def subspaces_payload():
    out = []
    for family, n, kind, a in member_bases():
        out.append({
            "member": family,
            "dim": n,
            "basis": kind,
            "lower_central_series": [subspace(s) for s in lower_central_series(a)],
            "center": subspace(center(a)),
            "left_annihilator": subspace(left_annihilator(a)),
            "right_annihilator": subspace(right_annihilator(a)),
            "squares": subspace(squares_subspace(a)),
            "coboundaries": subspace(coboundary_space(a).space),
        })
    return out


def reduce_specs():
    """(label, spec) pairs: seeded random cocycles, a k = 0 spec, a 0-dim base."""
    for family in ("F1", "F2"):
        for n in range(5, 9):
            base = catalog.make(family, n)
            for k in range(1, 7):
                rng = random.Random(100 * n + 10 * k + (family == "F2"))
                yield "%s-%d-k%d" % (family, n, k), make_spec(base, *random_cocycle_forms(base, k, rng))
    yield "F1-5-k0", make_spec(catalog.make("F1", 5))
    yield "abelian-0-k2", make_spec(catalog.make("abelian", 0), BilinearForm.zero(0), BilinearForm.zero(0))
    # In a dense rational basis the coboundary generators are dependent, so
    # the section shifts pin down which preimage of a coboundary is chosen.
    # The triangular basis alone keeps L^2 on the last coordinates; the
    # product with an upper triangular one mixes them.
    for family in ("F1", "F2"):
        for n in range(5, 8):
            q = dense_basis(n, True) @ dense_basis(n, False).transpose()
            base = transform_algebra(catalog.make(family, n), q)
            for k in range(1, 7):
                rng = random.Random(1000 + 100 * n + 10 * k + (family == "F2"))
                spec = make_spec(base, *random_cocycle_forms(base, k, rng))
                yield "%s-%d-k%d-dense-rational" % (family, n, k), spec


def reduce_payload():
    out = []
    for label, spec in reduce_specs():
        report = reduce_extension(spec)
        out.append({
            "spec": label,
            "class_rank": report.class_rank,
            "abelian_dim": report.abelian_dim,
            "v_basis": vectors(report.v_basis.data),
            "reduced": vectors(form.flatten() for form in report.reduced),
            "section_shift": vectors(report.section_shift),
            "change_of_basis": vectors(report.change_of_basis.data),
        })
    return out


def reproduce_payload():
    return [reproduce.run(experiment).as_dict() for experiment in reproduce.experiment_ids()]


def reproduce_ns_payload():
    return [reproduce.run(experiment, n).as_dict()
            for experiment in ("4.2", "4.3", "4.4", "4.5", "4.6", "4.7", "4.8", "4.9")
            for n in (6, 7)]


def catalog_requests():
    """(family, dim, params) requests, accepted and refused, for the catalog fixture."""
    yield from grid_cases()
    valid = {"L4l": {"lam": 1}, "L5lm": {"lam": 1, "mu": 1}}
    for info in catalog.list_families():
        fam = info.family
        dims = (5,) if fam == "L6" else range(info.min_dim, 11)
        for d in dims:
            for spec in info.params:
                if spec.kind == "choice":
                    continue
                names = ([spec.name] if "<j>" not in spec.name else
                         [spec.name.replace("<j>", str(j)) for j in range(4, d + 1)])
                for name in names:
                    yield fam, d, {**valid.get(fam, {}), name: Fraction(-3, 2)}
    for fam in ("F3", "L2l", "L3l"):
        yield fam, 6, {catalog.family_info(fam).params[0].name: Fraction(1, 2)}
    yield "L4l", 6, {"lam": 0}
    yield "L4l", 6, {}
    yield "L5lm", 6, {"lam": 1}
    yield "L5lm", 6, {"lam": 2, "mu": 1}
    yield "F3", 5, {"alpha": 1}
    yield "F3", 7, {"alpha": 1}
    yield "F1param", 6, {"alpha3": 1}
    yield "F1param", 6, {"alpha7": 1}
    yield "L1l", 6, {"lam": "1/2", "mu": 1}
    yield "L6", 6, {}
    for info in catalog.list_families():
        yield info.family, info.min_dim, {"bogus": 1}
        yield info.family, info.min_dim - 1, {}


def catalog_payload():
    cases = []
    for fam, d, params in catalog_requests():
        case = {"family": fam, "dim": d, "params": {k: str(frac(v)) for k, v in params.items()}}
        try:
            a = catalog.make(fam, d, **params)
        except Exception as exc:  # noqa: BLE001 - the type is what is pinned
            case["error"] = type(exc).__name__
        else:
            case["checked"] = a.checked
            case["brackets"] = [[i, j, k, str(c)] for i, j, k, c in a.products()]
        cases.append(case)
    listing = {}
    for fmt in ("text", "json"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli.main(["catalog", "list", "--format", fmt])
        listing[fmt] = out.getvalue()
    return {"cases": cases, "list": listing}


def dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def test_outputs_match_golden_fixture():
    assert dumps(payload()) == FIXTURE.read_text()


def test_reduce_reports_match_golden_fixture():
    assert dumps(reduce_payload()) == REDUCE_FIXTURE.read_text()


def test_reproduce_reports_match_golden_fixture():
    assert dumps(reproduce_payload()) == REPRODUCE_FIXTURE.read_text()


def test_reproduce_reports_at_n_6_and_7_match_golden_fixture():
    assert dumps(reproduce_ns_payload()) == REPRODUCE_NS_FIXTURE.read_text()


def test_subspaces_match_golden_fixture():
    assert dumps(subspaces_payload()) == SUBSPACES_FIXTURE.read_text()


def test_catalog_matches_golden_fixture():
    assert dumps(catalog_payload()) == CATALOG_FIXTURE.read_text()


if __name__ == "__main__":
    PAYLOADS = {"reduce": reduce_payload, "reproduce": reproduce_payload,
                "reproduce-ns": reproduce_ns_payload, "subspaces": subspaces_payload,
                "catalog": catalog_payload}
    print(dumps(PAYLOADS.get(" ".join(sys.argv[1:]), payload)()), end="")
