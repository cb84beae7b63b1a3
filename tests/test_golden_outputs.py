"""Canonical outputs pinned byte for byte against a recorded fixture.

`golden_outputs.json` holds the canonical JSON of ZL^2 and BL^2 bases,
the HL^2 representatives and the fingerprints of six catalog members
(dims 5-7) in their own basis, a dense integer basis and a dense
rational basis.  It was recorded with the dense Gauss-Jordan `rref` that
the sparse row kernel replaced; any change to an RREF, a kernel basis, a
chosen representative or a coefficient size shows here as a diff.

Regenerate only for a change meant to alter these outputs:

    PYTHONPATH=src python tests/test_golden_outputs.py > tests/golden_outputs.json
"""

import json
from fractions import Fraction
from pathlib import Path

from leibnizalg import catalog
from leibnizalg.cohomology import coboundary_space, cocycle_space, cohomology_basis
from leibnizalg.isomorphism import fingerprint, transform_algebra
from leibnizalg.linalg import Matrix

FIXTURE = Path(__file__).with_name("golden_outputs.json")

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


def payload():
    out = []
    for family, n, params in MEMBERS:
        src = catalog.make(family, n, **params)
        for kind in ("catalog", "dense-integer", "dense-rational"):
            a = src if kind == "catalog" else transform_algebra(
                src, dense_basis(n, kind == "dense-rational"))
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


def dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def test_outputs_match_golden_fixture():
    assert dumps(payload()) == FIXTURE.read_text()


if __name__ == "__main__":
    print(dumps(payload()), end="")
