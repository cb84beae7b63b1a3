"""Scripted verification experiments over the catalog families.

Each experiment rebuilds a documented classification fact from scratch in
exact arithmetic and reports one PASS/FAIL line per check.  The experiment
ids (3.1 through 4.10) are stable opaque labels forming the command-line
contract; they do not encode an ordering of difficulty.

Sweep experiments instantiate cocycle coefficients over the grid
{-1, 0, 1, 2} and match each resulting extension against catalog families
by invariant fingerprint, verifying an explicit change of basis wherever
the normalization stays rational.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import combinations, product

from . import catalog
from .cohomology import (
    BilinearForm,
    cocycle_space,
    cohomology_basis,
    cohomology_class,
    combine,
    preferred_cohomology_basis,
)
from .core import Algebra, LeibnizError, abelian_algebra, direct_sum, nilindex
from .extension import (
    central_extension,
    centrality_report,
    is_split,
    make_spec,
    random_cocycle_forms,
    reduce_extension,
    reduced_spec,
)
from .isomorphism import compare_fingerprints, fingerprint, verify_isomorphism
from .linalg import Matrix

DEFAULT_SEED = 20162
SWEEP_VALUES = (Fraction(-1), Fraction(0), Fraction(1), Fraction(2))


@dataclass
class CheckLine:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class Report:
    experiment: str
    title: str
    lines: list[CheckLine] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(line.ok for line in self.lines)

    def add(self, name: str, ok: bool, detail: str = "") -> bool:
        self.lines.append(CheckLine(name, bool(ok), detail))
        return bool(ok)

    def note(self, text: str) -> None:
        self.notes.append(text)

    def render_text(self) -> str:
        out = ["experiment %s: %s" % (self.experiment, self.title)]
        for line in self.lines:
            status = "PASS" if line.ok else "FAIL"
            tail = " -- %s" % line.detail if line.detail else ""
            out.append("%s %s%s" % (status, line.name, tail))
        for note in self.notes:
            out.append("note: %s" % note)
        out.append("result: %s" % ("PASS" if self.ok else "FAIL"))
        return "\n".join(out)

    def as_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "title": self.title,
            "ok": self.ok,
            "lines": [
                {"name": line.name, "ok": line.ok, "detail": line.detail}
                for line in self.lines
            ],
            "notes": list(self.notes),
        }


def _pick_ns(default: tuple[int, ...], n: int | None, lo: int, hi: int) -> tuple[int, ...]:
    if n is None:
        return default
    if not lo <= n <= hi:
        raise ValueError("n must be between %d and %d for this experiment" % (lo, hi))
    return (n,)


def _col(dim: int, entries: dict[int, Fraction]) -> tuple[Fraction, ...]:
    v = [Fraction(0)] * dim
    for idx, c in entries.items():
        v[idx - 1] = Fraction(c)
    return tuple(v)


def _relabel_columns(n: int, last: Fraction) -> list[tuple[Fraction, ...]]:
    """Base change sending the extension of an n-dim algebra to chain order.

    Column i of the result (1-based): e_1, then e_3 .. e_n, then e_2, then
    `last` times the adjoined direction.
    """
    big = n + 1
    cols = [_col(big, {1: Fraction(1)})]
    for i in range(2, n):
        cols.append(_col(big, {i + 1: Fraction(1)}))
    cols.append(_col(big, {2: Fraction(1)}))
    cols.append(_col(big, {big: last}))
    return cols


# ---------------------------------------------------------------- 3.1


def _run_31(report: Report, n: int | None, seed: int) -> None:
    for n_ in _pick_ns(tuple(range(2, 9)), n, 2, 8):
        a = catalog.make("NF", n_)
        basis = cohomology_basis(a)
        z, b, h = basis.cocycles.rank, basis.coboundaries.rank, basis.dim
        for k in (1, 2, 3):
            got = (z * k, b * k, h * k)
            want = (n_ * k, (n_ - 1) * k, k)
            report.add(
                "NF dim %d, %d coefficient components: cochain dimensions" % (n_, k),
                got == want,
                "computed %s, documented %s (components scale the scalar spaces)"
                % (got, want),
            )


# ---------------------------------------------------------------- 3.2


def _run_32(report: Report, n: int | None, seed: int) -> None:
    rng = random.Random(seed)
    for n_ in _pick_ns(tuple(range(3, 8)), n, 2, 9):
        a = catalog.make("NF", n_)
        basis = cohomology_basis(a)
        report.add("NF dim %d: one cohomology class" % n_, basis.dim == 1,
                   "computed dim %d" % basis.dim)
        up = fingerprint(catalog.make("NF", n_ + 1))
        flat = fingerprint(direct_sum(a, abelian_algebra(1)))

        chain_form = BilinearForm.singleton(n_, n_, 1)
        ext_chain = central_extension(make_spec(a, chain_form))
        check = verify_isomorphism(catalog.make("NF", n_ + 1), ext_chain,
                                   Matrix.identity(n_ + 1))
        report.add("NF dim %d: chain cocycle rebuilds the next chain" % n_, check.ok,
                   "identity change of basis verified" if check.ok else str(check))

        rep_form = basis.representatives[0]
        fp_rep = fingerprint(central_extension(make_spec(a, rep_form)))
        report.add(
            "NF dim %d: representative cocycle extension" % n_,
            compare_fingerprints(fp_rep, up).verdict == "equal",
            "fingerprint matches the dim %d chain" % (n_ + 1),
        )

        cob = combine(
            list(cohomology_basis(a).coboundaries.forms()),
            [Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3)))
             for _ in range(cohomology_basis(a).coboundaries.rank)],
        )
        shifted = rep_form.add(cob)
        same_class = cohomology_class(a, shifted) == cohomology_class(a, rep_form)
        fp_shift = fingerprint(central_extension(make_spec(a, shifted)))
        report.add(
            "NF dim %d: coboundary shift leaves the class and the extension type" % n_,
            same_class and compare_fingerprints(fp_shift, up).verdict == "equal",
            "class unchanged; fingerprint matches the dim %d chain" % (n_ + 1),
        )

        while True:
            (rand_form,) = random_cocycle_forms(a, 1, rng)
            coords = cohomology_class(a, rand_form)
            if coords is not None and any(coords):
                break
        fp_rand = fingerprint(central_extension(make_spec(a, rand_form)))
        report.add(
            "NF dim %d: random nonzero-class cocycle extension" % n_,
            compare_fingerprints(fp_rand, up).verdict == "equal",
            "fingerprint matches the dim %d chain" % (n_ + 1),
        )

        zero_ext_fp = fingerprint(central_extension(make_spec(a, BilinearForm.zero(n_))))
        split_zero, witness = is_split(make_spec(a, BilinearForm.zero(n_)))
        split_rep, _ = is_split(make_spec(a, rep_form))
        report.add(
            "NF dim %d: split dichotomy" % n_,
            (compare_fingerprints(zero_ext_fp, flat).verdict == "equal"
             and split_zero and witness is not None and not split_rep),
            "zero class splits onto the direct sum; nonzero class does not split",
        )


# ---------------------------------------------------------------- 4.1


def _run_41(report: Report, n: int | None, seed: int) -> None:
    for n_ in _pick_ns(tuple(range(5, 9)), n, 5, 9):
        for fam in ("F1", "F2"):
            a = catalog.make(fam, n_)
            basis = cohomology_basis(a)
            dims = (basis.cocycles.rank, basis.coboundaries.rank, basis.dim)
            report.add(
                "%s dim %d: cochain dimensions" % (fam, n_),
                dims == (n_ + 2, n_ - 2, 4),
                "computed %s, documented (%d, %d, 4)" % (dims, n_ + 2, n_ - 2),
            )
            supports = sorted(
                {pair for rep in basis.representatives for pair in rep.support()}
            )
            report.note("%s dim %d default representative supports: %s"
                        % (fam, n_, supports))
            pattern = ((2, 1), (n_, 1), (1, 2), (2, 2))
            preferred = preferred_cohomology_basis(a, pattern)
            report.add(
                "%s dim %d: singleton representatives on %s" % (fam, n_, list(pattern)),
                preferred is not None,
                "each singleton is a cocycle and their classes span the quotient",
            )


# ---------------------------------------------------------------- 4.2 / 4.3


def _candidates_f1(big: int) -> list[tuple[str, Algebra]]:
    out: list[tuple[str, Algebra]] = [
        ("F1+C", direct_sum(catalog.make("F1", big - 1), abelian_algebra(1)))
    ]
    for alpha in (0, 1):
        for theta in (0, 1):
            out.append((
                "F1param(%d,%d)" % (alpha, theta),
                catalog.make("F1param", big, **{"alpha%d" % big: alpha, "theta": theta}),
            ))
    for lam in (-1, 0, 1):
        out.append(("L3l(%d)" % lam, catalog.make("L3l", big, lam=lam)))
    for lam in (Fraction(-2), Fraction(-1), Fraction(-1, 2), Fraction(1, 2),
                Fraction(1), Fraction(2)):
        out.append(("L4l(%s)" % lam, catalog.make("L4l", big, lam=lam)))
    out.append(("L5lm(1,1)", catalog.make("L5lm", big, lam=1, mu=1)))
    out.append(("L5lm(2,4)", catalog.make("L5lm", big, lam=2, mu=4)))
    out.append(("L1", catalog.make("L1", big)))
    return out


def _candidates_f2(big: int) -> list[tuple[str, Algebra]]:
    out: list[tuple[str, Algebra]] = [
        ("F2+C", direct_sum(catalog.make("F2", big - 1), abelian_algebra(1)))
    ]
    for beta in (0, 1):
        for gamma in (0, 1):
            out.append((
                "F2param(%d,%d)" % (beta, gamma),
                catalog.make("F2param", big, **{"beta%d" % big: beta, "gamma": gamma}),
            ))
    for lam in (Fraction(-2), Fraction(-1), Fraction(-1, 2), Fraction(0),
                Fraction(1, 2), Fraction(1), Fraction(2)):
        out.append(("L1l(%s)" % lam, catalog.make("L1l", big, lam=lam)))
    for lam in (0, 1):
        out.append(("L2l(%d)" % lam, catalog.make("L2l", big, lam=lam)))
    out.append(("L2", catalog.make("L2", big)))
    return out


def _witness_f1(n: int, cell: tuple[Fraction, Fraction, Fraction, Fraction]):
    """Explicit in-list target and change of basis for a sweep cell, if rational."""
    a1, a2, a3, a4 = cell
    big = n + 1
    if not any(cell):
        target = direct_sum(catalog.make("F1", n), abelian_algebra(1))
        return ("F1+C", target, Matrix.identity(big))
    if a2:
        target = catalog.make(
            "F1param", big, **{"alpha%d" % big: a4 / a2, "theta": a3 / a2}
        )
        cols = [_col(big, {1: Fraction(1)}),
                _col(big, {2: Fraction(1), n: -a1 / a2})]
        cols += [_col(big, {i: Fraction(1)}) for i in range(3, n + 1)]
        cols.append(_col(big, {big: a2}))
        return ("F1param(%s,%s)" % (a4 / a2, a3 / a2), target, Matrix.from_columns(cols))
    if a1:
        lam, mu = a3 / a1, a4 / a1
        cols = _relabel_columns(n, a1)
        if not a4 and lam in (Fraction(-1), Fraction(0), Fraction(1)):
            return ("L3l(%s)" % lam, catalog.make("L3l", big, lam=lam),
                    Matrix.from_columns(cols))
        if not a3 and a4:
            return ("L4l(%s)" % mu, catalog.make("L4l", big, lam=mu),
                    Matrix.from_columns(cols))
        if a3 and a4 and (lam, mu) in ((Fraction(1), Fraction(1)),
                                       (Fraction(2), Fraction(4))):
            return ("L5lm(%s,%s)" % (lam, mu),
                    catalog.make("L5lm", big, lam=lam, mu=mu),
                    Matrix.from_columns(cols))
        return None
    if a3 == a4 and a3:
        alpha = a3
        cols = [_col(big, {1: Fraction(1), 2: Fraction(1)}),
                _col(big, {3: Fraction(2), big: 2 * alpha})]
        cols += [_col(big, {i + 1: Fraction(2)}) for i in range(3, n)]
        cols.append(_col(big, {1: Fraction(1), 2: Fraction(-1)}))
        cols.append(_col(big, {big: -4 * alpha}))
        return ("L1", catalog.make("L1", big), Matrix.from_columns(cols))
    return None


def _witness_f2(n: int, cell: tuple[Fraction, Fraction, Fraction, Fraction]):
    a1, a2, a3, a4 = cell
    big = n + 1
    if not any(cell):
        target = direct_sum(catalog.make("F2", n), abelian_algebra(1))
        return ("F2+C", target, Matrix.identity(big))
    if a2:
        target = catalog.make(
            "F2param", big, **{"beta%d" % big: a3 / a2, "gamma": a4 / a2}
        )
        cols = [_col(big, {1: Fraction(1)}),
                _col(big, {2: Fraction(1), n: -a1 / a2})]
        cols += [_col(big, {i: Fraction(1)}) for i in range(3, n + 1)]
        cols.append(_col(big, {big: a2}))
        return ("F2param(%s,%s)" % (a3 / a2, a4 / a2), target, Matrix.from_columns(cols))
    if a1:
        lam = a3 / a1
        if not a4:
            return ("L1l(%s)" % lam, catalog.make("L1l", big, lam=lam),
                    Matrix.from_columns(_relabel_columns(n, a1)))
        if lam in (Fraction(0), Fraction(1)):
            cols = _relabel_columns(n, a1 * a1 / a4)
            cols[n - 1] = _col(big, {2: a1 / a4})
            return ("L2l(%s)" % lam, catalog.make("L2l", big, lam=lam),
                    Matrix.from_columns(cols))
        return None
    if not a4 and a3:
        return ("L2", catalog.make("L2", big),
                Matrix.from_columns(_relabel_columns(n, a3)))
    if a4:
        lam = (a3 + a4) / a4
        if lam in (Fraction(0), Fraction(1)):
            cols = [_col(big, {1: Fraction(1), 2: Fraction(1)}),
                    _col(big, {3: Fraction(1), big: a3 + a4})]
            cols += [_col(big, {i + 1: Fraction(1)}) for i in range(3, n)]
            cols.append(_col(big, {2: Fraction(1)}))
            cols.append(_col(big, {big: a4}))
            return ("L2l(%s)" % lam, catalog.make("L2l", big, lam=lam),
                    Matrix.from_columns(cols))
    return None


def _run_sweep(family: str, report: Report, n: int | None, seed: int) -> None:
    supports = {"F1": _witness_f1, "F2": _witness_f2}
    witness_of = supports[family]
    candidates_of = {"F1": _candidates_f1, "F2": _candidates_f2}[family]
    for n_ in _pick_ns((5, 6), n, 5, 7):
        base = catalog.make(family, n_)
        big = n_ + 1
        candidates = candidates_of(big)
        fps = [(label, fingerprint(alg)) for label, alg in candidates]
        unmatched: list[tuple] = []
        bad_witness: list[tuple] = []
        witnessed = 0
        ties: set[tuple[str, ...]] = set()
        for cell in product(SWEEP_VALUES, repeat=4):
            form = BilinearForm.from_entries(
                n_, {(2, 1): cell[0], (n_, 1): cell[1], (1, 2): cell[2], (2, 2): cell[3]}
            )
            ext = central_extension(make_spec(base, form))
            fp = fingerprint(ext)
            labels = [label for label, f in fps
                      if compare_fingerprints(f, fp).verdict == "equal"]
            if len(set(labels)) > 1:
                ties.add(tuple(sorted(set(labels))))
            witness = witness_of(n_, cell)
            if witness is not None:
                target_label, target, p = witness
                if verify_isomorphism(target, ext, p).ok:
                    witnessed += 1
                    if target_label not in labels:
                        labels.append(target_label)
                else:
                    bad_witness.append(cell)
            if not labels:
                unmatched.append(cell)
        total = len(SWEEP_VALUES) ** 4
        report.add(
            "%s dim %d: every sweep cell matches a listed class" % (family, n_),
            not unmatched,
            "%d/%d cells matched" % (total - len(unmatched), total)
            + ("; unmatched: %s" % unmatched[:5] if unmatched else ""),
        )
        report.add(
            "%s dim %d: explicit change-of-basis witnesses" % (family, n_),
            not bad_witness,
            "%d/%d cells verified exactly" % (witnessed, total)
            + ("; failed: %s" % bad_witness[:5] if bad_witness else ""),
        )
        if ties:
            report.note(
                "%s dim %d fingerprint ties (not separated by invariants): %s"
                % (family, n_, sorted(ties))
            )


# ---------------------------------------------------------------- 4.4 .. 4.7


def _roster_check(report: Report, tag: str, members: list[tuple[str, str, int, dict]],
                  dim: int, want_nilindex: int,
                  short_prefixes: tuple[str, ...] = ()) -> dict[str, Algebra]:
    # adding central directions keeps nilindex at s or pushes it to s+1; the
    # families named in short_prefixes are the ones stuck at the lower value
    built: dict[str, Algebra] = {}
    broken: list[str] = []
    wrong_profile: list[str] = []
    short = 0
    for label, family, d, params in members:
        try:
            alg = catalog.make(family, d, **params)
        except (LeibnizError, ValueError) as exc:
            broken.append("%s (%s)" % (label, exc))
            continue
        built[label] = alg
        is_short = label.startswith(short_prefixes) if short_prefixes else False
        want = want_nilindex - 1 if is_short else want_nilindex
        short += is_short
        if nilindex(alg) != want:
            wrong_profile.append("%s (nilindex %d, expected %d)"
                                 % (label, nilindex(alg), want))
    report.add(
        "%s: all %d listed classes satisfy the bracket identity" % (tag, len(members)),
        not broken,
        "constructed %d/%d" % (len(built), len(members))
        + ("; failed: %s" % broken if broken else ""),
    )
    report.add(
        "%s: nilpotency profile" % tag,
        not wrong_profile,
        "all have dim %d; %d classes at nilindex %d, %d at %d"
        % (dim, len(built) - short, want_nilindex, short, want_nilindex - 1)
        if not wrong_profile else "off-profile: %s" % wrong_profile,
    )
    return built


def _pairwise_note(report: Report, tag: str, built: dict[str, Algebra]) -> None:
    labels = sorted(built)
    distinguished = 0
    open_pairs: list[tuple[str, str]] = []
    for x, y in combinations(labels, 2):
        verdict = compare_fingerprints(fingerprint(built[x]), fingerprint(built[y])).verdict
        if verdict == "distinguished":
            distinguished += 1
        else:
            open_pairs.append((x, y))
    total = len(labels) * (len(labels) - 1) // 2
    report.note(
        "%s: %d/%d pairs certified non-isomorphic by invariants; undetermined: %s"
        % (tag, distinguished, total,
           open_pairs if len(open_pairs) <= 40 else len(open_pairs))
    )


def _cross_distinguished(report: Report, tag: str, built: dict[str, Algebra],
                         left_prefix: str, right_prefix: str) -> None:
    lefts = [l for l in built if l.startswith(left_prefix)]
    rights = [l for l in built if l.startswith(right_prefix)]
    failing = []
    for x in lefts:
        for y in rights:
            verdict = compare_fingerprints(
                fingerprint(built[x]), fingerprint(built[y])
            ).verdict
            if verdict != "distinguished":
                failing.append((x, y))
    report.add(
        "%s: %s-classes vs %s-classes certified non-isomorphic"
        % (tag, left_prefix.rstrip("("), right_prefix.rstrip("(")),
        not failing,
        "%d pairs separated by invariants" % (len(lefts) * len(rights))
        if not failing else "not separated: %s" % failing[:5],
    )


def _demo_pair_extension(report: Report, tag: str, family: str, n_: int,
                         built: dict[str, Algebra]) -> None:
    base = catalog.make(family, n_)
    forms = (BilinearForm.singleton(n_, n_, 1), BilinearForm.singleton(n_, 1, 2))
    spec = make_spec(base, *forms)
    rep = reduce_extension(spec)
    ext_fp = fingerprint(central_extension(spec))
    matches = [label for label, alg in built.items()
               if compare_fingerprints(fingerprint(alg), ext_fp).verdict == "equal"]
    report.add(
        "%s: a generic independent cocycle pair lands in the list" % tag,
        rep.class_rank == 2 and not rep.split and bool(matches),
        "class rank %d, non-split, fingerprint matches %s" % (rep.class_rank, matches),
    )


def _run_44(report: Report, n: int | None, seed: int) -> None:
    for n_ in _pick_ns((5,), n, 5, 7):
        big = n_ + 2
        members: list[tuple[str, str, int, dict]] = []
        for a3, b3, a4, b4 in ((1, 0, 0, 0), (1, 1, 0, 0), (0, 1, 0, 0), (0, 1, 1, 0),
                               (1, 0, 0, 1), (1, 0, 0, 2), (0, 1, -1, 0), (0, 1, 1, 1),
                               (0, 1, 2, 4)):
            members.append((
                "L(%d,%d,%d,%d)" % (a3, b3, a4, b4), "L", big,
                {"alpha3": a3, "beta3": b3, "alpha4": a4, "beta4": b4},
            ))
        for a4, b4 in ((1, 0), (1, 2), (0, 0), (0, 1), (0, 2), (2, 1), (2, 2), (1, 1)):
            members.append(("M(%d,%d)" % (a4, b4), "M", big,
                            {"alpha4": a4, "beta4": b4}))
        members.append(("Lstar", "Lstar", big, {}))
        members.append(("L1", "L1", big, {}))
        for lam in (-1, 0, 1):
            members.append(("L3l(%d)" % lam, "L3l", big, {"lam": lam}))
        for lam in (1, 2):
            members.append(("L4l(%d)" % lam, "L4l", big, {"lam": lam}))
        members.append(("L5lm(1,1)", "L5lm", big, {"lam": 1, "mu": 1}))
        members.append(("L5lm(2,4)", "L5lm", big, {"lam": 2, "mu": 4}))
        tag = "two extra directions over F1, dim %d" % big
        built = _roster_check(report, tag, members, big, big - 1,
                              short_prefixes=("M(",))
        _cross_distinguished(report, tag, built, "L(", "M(")
        _demo_pair_extension(report, tag, "F1", n_, built)
        _pairwise_note(report, tag, built)


def _run_45(report: Report, n: int | None, seed: int) -> None:
    for n_ in _pick_ns((5,), n, 5, 7):
        big = n_ + 2
        members: list[tuple[str, str, int, dict]] = []
        for a3, b3, a4, b4 in ((1, 0, 0, 0), (0, 1, 1, 0), (0, 1, 2, 0), (1, 0, 0, 1),
                               (0, 1, 0, 0), (0, 1, 1, 1)):
            members.append((
                "N(%d,%d,%d,%d)" % (a3, b3, a4, b4), "N", big,
                {"alpha3": a3, "beta3": b3, "alpha4": a4, "beta4": b4},
            ))
        for a3, b3, a4, b4 in ((0, 0, 1, 0), (0, 0, 1, 1), (0, 1, 1, -1), (0, 1, 1, 0),
                               (0, 1, 1, 1), (0, 1, 1, 2), (1, 0, 0, 1)):
            members.append((
                "R(%d,%d,%d,%d)" % (a3, b3, a4, b4), "R", big,
                {"alpha3": a3, "beta3": b3, "alpha4": a4, "beta4": b4},
            ))
        members.append(("Nstar", "Nstar", big, {}))
        members.append(("L2", "L2", big, {}))
        for lam in (-1, 0, 1, 2):
            members.append(("L1l(%d)" % lam, "L1l", big, {"lam": lam}))
        for lam in (0, 1):
            members.append(("L2l(%d)" % lam, "L2l", big, {"lam": lam}))
        tag = "two extra directions over F2, dim %d" % big
        built = _roster_check(report, tag, members, big, big - 1,
                              short_prefixes=("R(",))
        _cross_distinguished(report, tag, built, "N(", "R(")
        _demo_pair_extension(report, tag, "F2", n_, built)
        _pairwise_note(report, tag, built)


def _run_46(report: Report, n: int | None, seed: int) -> None:
    for n_ in _pick_ns((5,), n, 5, 7):
        big = n_ + 3
        members: list[tuple[str, str, int, dict]] = []
        for a4, b4, g4 in ((0, 0, 0), (1, 0, 0), (0, 0, 1), (1, 0, 1), (0, 0, 2),
                           (1, 0, 2), (0, 1, 0), (0, 1, 2), (0, 2, 1), (0, 2, 2),
                           (0, 1, 1)):
            members.append(("P(%d,%d,%d)" % (a4, b4, g4), "P", big,
                            {"alpha4": a4, "beta4": b4, "gamma4": g4}))
        members.append(("Pstar", "Pstar", big, {}))
        tag = "three extra directions over F1, dim %d" % big
        built = _roster_check(report, tag, members, big, big - 2,
                              short_prefixes=("Pstar",))
        _cross_distinguished(report, tag, built, "P(", "Pstar")
        _pairwise_note(report, tag, built)


def _run_47(report: Report, n: int | None, seed: int) -> None:
    for n_ in _pick_ns((5,), n, 5, 7):
        big = n_ + 3
        members: list[tuple[str, str, int, dict]] = []
        for a4, b3, b4, g3, g4 in ((0, 0, 0, 1, 0), (1, 0, 0, 1, 0), (0, 0, 0, 1, 1),
                                   (1, 0, 0, 1, 1), (0, 0, 1, 1, -1), (0, 0, 1, 1, 0),
                                   (0, 0, 1, 1, 1), (0, 0, 1, 1, 2), (0, 1, 0, 0, 1)):
            members.append((
                "Q(%d,%d,%d,%d,%d)" % (a4, b3, b4, g3, g4), "Q", big,
                {"alpha4": a4, "beta3": b3, "beta4": b4, "gamma3": g3, "gamma4": g4},
            ))
        members.append(("Qstar", "Qstar", big, {}))
        tag = "three extra directions over F2, dim %d" % big
        built = _roster_check(report, tag, members, big, big - 2,
                              short_prefixes=("Qstar",))
        _cross_distinguished(report, tag, built, "Q(", "Qstar")
        _pairwise_note(report, tag, built)


# ---------------------------------------------------------------- 4.8 / 4.9


def _run_full_extension(family: str, target_family: str, report: Report,
                        n: int | None, seed: int) -> None:
    for n_ in _pick_ns((5, 6), n, 5, 7):
        base = catalog.make(family, n_)
        forms = (
            BilinearForm.singleton(n_, 2, 1),
            BilinearForm.singleton(n_, n_, 1),
            BilinearForm.singleton(n_, 1, 2),
            BilinearForm.singleton(n_, 2, 2),
        )
        spec = make_spec(base, *forms)
        rep = reduce_extension(spec)
        report.add(
            "%s dim %d: the four-class cocycle is irreducible" % (family, n_),
            rep.class_rank == 4 and not rep.split,
            "class rank %d, abelian directions %d" % (rep.class_rank, rep.abelian_dim),
        )
        ext = central_extension(spec)
        in_center, equals_center = centrality_report(spec)
        report.add(
            "%s dim %d: adjoined directions form the whole center" % (family, n_),
            in_center and equals_center,
            "V is central and equals the center",
        )
        big = n_ + 4
        target = catalog.make(target_family, big)
        cols = [_col(big, {1: Fraction(1)})]
        cols += [_col(big, {i + 1: Fraction(1)}) for i in range(2, n_)]
        cols.append(_col(big, {2: Fraction(1)}))
        cols += [_col(big, {n_ + j: Fraction(1)}) for j in range(1, 5)]
        check = verify_isomorphism(target, ext, Matrix.from_columns(cols))
        report.add(
            "%s dim %d: permutation onto the catalog table %s" % (family, n_, target_family),
            check.ok,
            "change of basis verified exactly" if check.ok else str(check),
        )


# ---------------------------------------------------------------- 4.10


def _run_410(report: Report, n: int | None, seed: int) -> None:
    rng = random.Random(seed)
    trials = 50
    for family in ("F1", "F2"):
        n_ = n if n is not None else 6
        if not 5 <= n_ <= 8:
            raise ValueError("n must be between 5 and 8 for this experiment")
        base = catalog.make(family, n_)
        ranks: dict[int, int] = {}
        failures: list[int] = []
        for trial in range(trials):
            forms = random_cocycle_forms(base, 5, rng)
            spec = make_spec(base, *forms)
            rep = reduce_extension(spec)
            ranks[rep.class_rank] = ranks.get(rep.class_rank, 0) + 1
            rebuilt = central_extension(reduced_spec(spec, rep))
            check = verify_isomorphism(rebuilt, central_extension(spec),
                                       rep.change_of_basis)
            if not (rep.split and rep.class_rank <= 4 and check.ok):
                failures.append(trial)
        report.add(
            "%s dim %d: %d random 5-component cocycles all split" % (family, n_, trials),
            not failures,
            "class ranks %s; every reduction verified by its change of basis"
            % dict(sorted(ranks.items()))
            if not failures else "failing trials: %s" % failures,
        )


# ---------------------------------------------------------------- registry


EXPERIMENTS: dict[str, tuple[str, object]] = {
    "3.1": ("second cohomology dimensions of the maximal-nilindex chains", _run_31),
    "3.2": ("one-dimensional central extensions of the maximal-nilindex chains", _run_32),
    "4.1": ("second cohomology of the two graded filiform families", _run_41),
    "4.2": ("one-dimensional extensions of the type-1 filiform family, full sweep", partial(_run_sweep, "F1")),
    "4.3": ("one-dimensional extensions of the type-2 filiform family, full sweep", partial(_run_sweep, "F2")),
    "4.4": ("two-dimensional extension classes over the type-1 filiform family", _run_44),
    "4.5": ("two-dimensional extension classes over the type-2 filiform family", _run_45),
    "4.6": ("three-dimensional extension classes over the type-1 filiform family", _run_46),
    "4.7": ("three-dimensional extension classes over the type-2 filiform family", _run_47),
    "4.8": ("the irreducible four-dimensional extension of the type-1 family",
            partial(_run_full_extension, "F1", "E4F1")),
    "4.9": ("the irreducible four-dimensional extension of the type-2 family",
            partial(_run_full_extension, "F2", "E4F2")),
    "4.10": ("random cocycle tuples split off abelian summands", _run_410),
}


def experiment_ids() -> tuple[str, ...]:
    return tuple(EXPERIMENTS)


def run(experiment: str, n: int | None = None, seed: int = DEFAULT_SEED) -> Report:
    if experiment not in EXPERIMENTS:
        raise ValueError(
            "unknown experiment '%s'; known: %s" % (experiment, ", ".join(EXPERIMENTS))
        )
    title, fn = EXPERIMENTS[experiment]
    report = Report(experiment, title)
    fn(report, n, seed)
    return report
