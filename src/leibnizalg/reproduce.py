"""Scripted verification experiments over the catalog families.

Each experiment rebuilds a documented classification fact from scratch in
exact arithmetic and reports one PASS/FAIL line per check.  The experiment
ids (3.1 through 4.10) are stable opaque labels forming the command-line
contract; they do not encode an ordering of difficulty.

Sweep experiments instantiate cocycle coefficients over the grid
{-1, 0, 1, 2} and match each resulting extension against catalog families
by invariant fingerprint, verifying an explicit change of basis wherever
the normalization stays rational.

Experiments 4.4-4.7 each declare a `Roster` in `ROSTERS`, keyed by id: the
base family, the number of extra central directions, the label prefixes of
the members whose nilindex stays at n, two prefixes whose classes are
checked against each other, and the members, one `_members` row each.  One
runner, `_run_roster`, checks every roster the same way.
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

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.lines.append(CheckLine(name, bool(ok), detail))

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


def _relabel_columns(n: int, *lasts: Fraction) -> list[tuple[Fraction, ...]]:
    """Base change sending an extension of an n-dim algebra to chain order.

    Column i of the result (1-based): e_1, then e_3 .. e_n, then e_2, then
    `lasts[j]` times the j-th adjoined direction.
    """
    big = n + len(lasts)
    cols = [_col(big, {1: Fraction(1)})]
    for i in range(2, n):
        cols.append(_col(big, {i + 1: Fraction(1)}))
    cols.append(_col(big, {2: Fraction(1)}))
    cols += [_col(big, {n + j: last}) for j, last in enumerate(lasts, 1)]
    return cols


def _members(family: str, names: tuple[str, ...] = (),
             rows: tuple[tuple, ...] = ((),)) -> tuple[tuple[str, str, dict], ...]:
    """(label, family, params) per parameter row, labelled as in "L(1,0,0,0)"."""
    return tuple(
        ("%s(%s)" % (family, ",".join(str(v) for v in row)) if names else family,
         family, dict(zip(names, row)))
        for row in rows
    )


_LAM = ("lam",)


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


# the dim-indexed and the scalar parameter of F1param / F2param
_PARAMETERS = {"F1": ("alpha", "theta"), "F2": ("beta", "gamma")}

# the listed classes a sweep cell may match, past the direct sum and the
# 2x2 grid of the parametric family
_SWEEP_TAILS = {
    "F1": (_members("L3l", _LAM, ((-1,), (0,), (1,)))
           + _members("L4l", _LAM, tuple(
               (Fraction(v),) for v in ("-2", "-1", "-1/2", "1/2", "1", "2")))
           + _members("L5lm", ("lam", "mu"), ((1, 1), (2, 4)))
           + _members("L1")),
    "F2": (_members("L1l", _LAM, tuple(
               (Fraction(v),) for v in ("-2", "-1", "-1/2", "0", "1/2", "1", "2")))
           + _members("L2l", _LAM, ((0,), (1,)))
           + _members("L2")),
}


def _param_target(family: str, big: int, first, second) -> tuple[str, Algebra]:
    dimmed, scalar = _PARAMETERS[family]
    return ("%sparam(%s,%s)" % (family, first, second),
            catalog.make(family + "param", big,
                         **{"%s%d" % (dimmed, big): first, scalar: second}))


def _candidates(family: str, big: int) -> list[tuple[str, Algebra]]:
    out = [("%s+C" % family, direct_sum(catalog.make(family, big - 1), abelian_algebra(1)))]
    out += [_param_target(family, big, x, y) for x, y in product((0, 1), repeat=2)]
    out += [(label, catalog.make(fam, big, **params))
            for label, fam, params in _SWEEP_TAILS[family]]
    return out


def _witness(family: str, n: int, cell: tuple[Fraction, Fraction, Fraction, Fraction]):
    """Explicit in-list target and change of basis for a sweep cell, if rational."""
    a1, a2, a3, a4 = cell
    big = n + 1
    if not any(cell):
        target = direct_sum(catalog.make(family, n), abelian_algebra(1))
        return ("%s+C" % family, target, Matrix.identity(big))
    if a2:
        # onto F1param(alpha=a4/a2, theta=a3/a2) or F2param(beta=a3/a2, gamma=a4/a2)
        first, second = (a4 / a2, a3 / a2) if family == "F1" else (a3 / a2, a4 / a2)
        cols = [_col(big, {1: Fraction(1)}),
                _col(big, {2: Fraction(1), n: -a1 / a2})]
        cols += [_col(big, {i: Fraction(1)}) for i in range(3, n + 1)]
        cols.append(_col(big, {big: a2}))
        return _param_target(family, big, first, second) + (Matrix.from_columns(cols),)
    return (_witness_f1 if family == "F1" else _witness_f2)(n, cell)


def _witness_f1(n: int, cell: tuple[Fraction, Fraction, Fraction, Fraction]):
    """`_witness` of a nonzero F1 cell with a2 = 0."""
    a1, _, a3, a4 = cell
    big = n + 1
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
    """`_witness` of a nonzero F2 cell with a2 = 0."""
    a1, _, a3, a4 = cell
    big = n + 1
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
    for n_ in _pick_ns((5, 6), n, 5, 7):
        base = catalog.make(family, n_)
        fps = [(label, fingerprint(alg)) for label, alg in _candidates(family, n_ + 1)]
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
            witness = _witness(family, n_, cell)
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


@dataclass(frozen=True)
class Roster:
    """The listed classes of `extra` central directions over `base`, dim n + extra."""

    base: str
    extra: int
    short: tuple[str, ...]
    cross: tuple[str, str]
    members: tuple[tuple[str, str, dict], ...]


_ALPHA_BETA = ("alpha3", "beta3", "alpha4", "beta4")

ROSTERS = {
    "4.4": Roster("F1", 2, ("M(",), ("L(", "M("), _members("L", _ALPHA_BETA, (
        (1, 0, 0, 0), (1, 1, 0, 0), (0, 1, 0, 0), (0, 1, 1, 0), (1, 0, 0, 1),
        (1, 0, 0, 2), (0, 1, -1, 0), (0, 1, 1, 1), (0, 1, 2, 4)))
        + _members("M", ("alpha4", "beta4"), (
            (1, 0), (1, 2), (0, 0), (0, 1), (0, 2), (2, 1), (2, 2), (1, 1)))
        + _members("Lstar") + _members("L1")
        + _members("L3l", _LAM, ((-1,), (0,), (1,)))
        + _members("L4l", _LAM, ((1,), (2,)))
        + _members("L5lm", ("lam", "mu"), ((1, 1), (2, 4)))),
    "4.5": Roster("F2", 2, ("R(",), ("N(", "R("), _members("N", _ALPHA_BETA, (
        (1, 0, 0, 0), (0, 1, 1, 0), (0, 1, 2, 0), (1, 0, 0, 1), (0, 1, 0, 0),
        (0, 1, 1, 1)))
        + _members("R", _ALPHA_BETA, (
            (0, 0, 1, 0), (0, 0, 1, 1), (0, 1, 1, -1), (0, 1, 1, 0), (0, 1, 1, 1),
            (0, 1, 1, 2), (1, 0, 0, 1)))
        + _members("Nstar") + _members("L2")
        + _members("L1l", _LAM, ((-1,), (0,), (1,), (2,)))
        + _members("L2l", _LAM, ((0,), (1,)))),
    "4.6": Roster("F1", 3, ("Pstar",), ("P(", "Pstar"), _members(
        "P", ("alpha4", "beta4", "gamma4"), (
            (0, 0, 0), (1, 0, 0), (0, 0, 1), (1, 0, 1), (0, 0, 2), (1, 0, 2),
            (0, 1, 0), (0, 1, 2), (0, 2, 1), (0, 2, 2), (0, 1, 1)))
        + _members("Pstar")),
    "4.7": Roster("F2", 3, ("Qstar",), ("Q(", "Qstar"), _members(
        "Q", ("alpha4", "beta3", "beta4", "gamma3", "gamma4"), (
            (0, 0, 0, 1, 0), (1, 0, 0, 1, 0), (0, 0, 0, 1, 1), (1, 0, 0, 1, 1),
            (0, 0, 1, 1, -1), (0, 0, 1, 1, 0), (0, 0, 1, 1, 1), (0, 0, 1, 1, 2),
            (0, 1, 0, 0, 1)))
        + _members("Qstar")),
}


def _roster_check(report: Report, tag: str, roster: Roster, dim: int,
                  want_nilindex: int) -> dict[str, Algebra]:
    built: dict[str, Algebra] = {}
    broken: list[str] = []
    wrong_profile: list[str] = []
    short = 0
    for label, family, params in roster.members:
        try:
            alg = catalog.make(family, dim, **params)
        except (LeibnizError, ValueError) as exc:
            broken.append("%s (%s)" % (label, exc))
            continue
        built[label] = alg
        is_short = label.startswith(roster.short)
        want = want_nilindex - 1 if is_short else want_nilindex
        short += is_short
        if nilindex(alg) != want:
            wrong_profile.append("%s (nilindex %d, expected %d)"
                                 % (label, nilindex(alg), want))
    report.add(
        "%s: all %d listed classes satisfy the bracket identity" % (tag, len(roster.members)),
        not broken,
        "constructed %d/%d" % (len(built), len(roster.members))
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


def _separated(built: dict[str, Algebra], x: str, y: str) -> bool:
    return compare_fingerprints(
        fingerprint(built[x]), fingerprint(built[y])
    ).verdict == "distinguished"


def _pairwise_note(report: Report, tag: str, built: dict[str, Algebra]) -> None:
    labels = sorted(built)
    open_pairs = [(x, y) for x, y in combinations(labels, 2) if not _separated(built, x, y)]
    total = len(labels) * (len(labels) - 1) // 2
    report.note(
        "%s: %d/%d pairs certified non-isomorphic by invariants; undetermined: %s"
        % (tag, total - len(open_pairs), total,
           open_pairs if len(open_pairs) <= 40 else len(open_pairs))
    )


def _cross_distinguished(report: Report, tag: str, built: dict[str, Algebra],
                         left_prefix: str, right_prefix: str) -> None:
    lefts = [l for l in built if l.startswith(left_prefix)]
    rights = [l for l in built if l.startswith(right_prefix)]
    failing = [(x, y) for x in lefts for y in rights if not _separated(built, x, y)]
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


def _run_roster(experiment: str, report: Report, n: int | None, seed: int) -> None:
    roster = ROSTERS[experiment]
    for n_ in _pick_ns((5,), n, 5, 7):
        big = n_ + roster.extra
        tag = "%s extra directions over %s, dim %d" % (
            {2: "two", 3: "three"}[roster.extra], roster.base, big)
        built = _roster_check(report, tag, roster, big, n_ + 1)
        _cross_distinguished(report, tag, built, *roster.cross)
        if roster.extra == 2:
            _demo_pair_extension(report, tag, roster.base, n_, built)
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
        check = verify_isomorphism(target, ext,
                                   Matrix.from_columns(_relabel_columns(n_, 1, 1, 1, 1)))
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
    "4.4": ("two-dimensional extension classes over the type-1 filiform family", partial(_run_roster, "4.4")),
    "4.5": ("two-dimensional extension classes over the type-2 filiform family", partial(_run_roster, "4.5")),
    "4.6": ("three-dimensional extension classes over the type-1 filiform family", partial(_run_roster, "4.6")),
    "4.7": ("three-dimensional extension classes over the type-2 filiform family", partial(_run_roster, "4.7")),
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
