"""Constructors for the named algebra families used across the toolkit.

Each family is a parametrized multiplication table on a standard basis
e_1..e_dim; omitted products are zero.  A family is declared once, by a
`_family(id, summary, min_dim, table, params, max_dim)` call: its
`ParamSpec`s state every parameter's name, kind, choices and whether it
is required, and its table function `(dim, values)` returns 1-based
(i, j, k, c) records, [e_i, e_j] += c e_k, where c is an int or an int
times one parameter's value.  `make` does all parameter work from the
specs: it refuses unknown names, missing required parameters and values
outside `choices`, fills every other parameter with 0 and expands
`alpha<j>`/`beta<j>` to j = 4..dim.  A table function checks only what a
spec cannot state (F3's alpha = 0 at odd dim, L4l's lam != 0, L5lm's
(lam, mu) pair).  `make` sums the records into a sparse table and
verifies the Leibniz identity, so every algebra handed out is genuinely
a Leibniz algebra.

Family ids:
  NF            chain algebra of maximal nilindex
  F1, F2        naturally graded filiform, non-Lie types
  F3            naturally graded filiform, antisymmetric type
  F1param       filiform family over the F1 gradation (tail parameters)
  F2param       filiform family over the F2 gradation (tail parameters)
  L1..L6        naturally graded quasi-filiform families (lam/mu params)
  L, M, Lstar   two extra central directions over the F1 gradation
  N, R, Nstar   two extra central directions over the F2 gradation
  P, Pstar      three extra central directions over the F1 gradation
  Q, Qstar      three extra central directions over the F2 gradation
  E4F1, E4F2    four extra central directions
  abelian       zero bracket
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .core import Algebra, algebra_from_products, require_dim
from .linalg import frac

Record = tuple[int, int, int, int | Fraction]
TableFn = Callable[[int, dict[str, Fraction]], list[Record]]


@dataclass(frozen=True)
class ParamSpec:
    """One named parameter: a free rational or a finite choice."""

    name: str
    kind: str  # "rational" or "choice"
    choices: tuple[Fraction, ...] | None = None
    required: bool = False
    note: str = ""


@dataclass(frozen=True)
class FamilyInfo:
    family: str
    summary: str
    dims: str
    min_dim: int
    max_dim: int | None = None
    params: tuple[ParamSpec, ...] = ()


def _p(name: str, choices: tuple[int, ...] = (), required: bool = False,
       note: str = "") -> ParamSpec:
    if choices:
        return ParamSpec(name, "choice", tuple(Fraction(c) for c in choices), required, note)
    return ParamSpec(name, "rational", None, required, note)


_FAMILIES: dict[str, tuple[FamilyInfo, TableFn]] = {}


def _family(family: str, summary: str, min_dim: int, table: TableFn,
            params: tuple[ParamSpec, ...] = (), max_dim: int | None = None) -> None:
    dims = "dim >= %d" % min_dim if max_dim is None else (
        "dim = %d" % min_dim if max_dim == min_dim else "%d <= dim <= %d" % (min_dim, max_dim))
    _FAMILIES[family] = (FamilyInfo(family, summary, dims, min_dim, max_dim, params), table)


def _chain(upto: int, start: int = 1) -> list[Record]:
    """[e_i, e_1] = e_{i+1} for start <= i <= upto."""
    return [(i, 1, i + 1, 1) for i in range(start, upto + 1)]


def _f3(n: int, v: dict[str, Fraction]) -> list[Record]:
    alpha = v["alpha"]
    if n % 2 == 1 and alpha:
        raise ValueError("alpha must be 0 when the dimension is odd")
    return [*_chain(n - 1, 2), *((1, i, i + 1, -1) for i in range(2, n)),
            *((i, n + 1 - i, n, (-1) ** (i + 1) * alpha) for i in range(2, n))]


def _f1param(m: int, v: dict[str, Fraction]) -> list[Record]:
    return [(1, 1, 3, 1), *_chain(m - 1, 2),
            *((1, 2, k, v["alpha%d" % k]) for k in range(4, m)), (1, 2, m, v["theta"]),
            *((i, 2, k, v["alpha%d" % (k + 2 - i)]) for i in range(2, m - 1)
              for k in range(i + 2, m + 1))]


def _f2param(m: int, v: dict[str, Fraction]) -> list[Record]:
    return [(1, 1, 3, 1), *_chain(m - 1, 3),
            *((1, 2, k, v["beta%d" % k]) for k in range(4, m + 1)), (2, 2, m, v["gamma"]),
            *((i, 2, k, v["beta%d" % (k + 2 - i)]) for i in range(3, m - 1)
              for k in range(i + 2, m + 1))]


def _l1(n: int, v: dict[str, Fraction]) -> list[Record]:
    return [*_chain(n - 3), (1, n - 1, n, 1), (1, n - 1, 2, 1),
            *((i, n - 1, i + 1, 1) for i in range(2, n - 2))]


def _l4l(n: int, v: dict[str, Fraction]) -> list[Record]:
    if not v["lam"]:
        raise ValueError("lam must be nonzero")
    return [*_chain(n - 3), (n - 1, 1, n, 1), (n - 1, 1, 2, 1), (n - 1, n - 1, n, v["lam"])]


def _l5lm(n: int, v: dict[str, Fraction]) -> list[Record]:
    if (v["lam"], v["mu"]) not in ((1, 1), (2, 4)):
        raise ValueError("(lam, mu) must be (1, 1) or (2, 4)")
    return [*_chain(n - 3), (n - 1, 1, n, 1), (n - 1, 1, 2, 1),
            (1, n - 1, n, v["lam"]), (n - 1, n - 1, n, v["mu"])]


def _l6(n: int, v: dict[str, Fraction]) -> list[Record]:
    return [*_chain(n - 3), (n - 1, 1, n, 1), (1, n - 1, n, -1), (n - 1, n - 1, 2, 1),
            (n - 1, n, 3, 1)]


def _mfam(dim: int, v: dict[str, Fraction]) -> list[Record]:
    n = dim - 2
    return [*_chain(n - 2), (n, 1, 2, 1), (n, 1, n + 1, 1), (1, n, n + 2, 1),
            (n, n, n + 1, v["alpha4"]), (n, n, n + 2, v["beta4"])]


def _lstar(dim: int, v: dict[str, Fraction]) -> list[Record]:
    n = dim - 2
    return [*_chain(n - 1), (1, n + 1, 2, 1), (1, n + 1, n + 2, 1),
            *((i, n + 1, i + 1, 1) for i in range(2, n)), (n + 1, n + 1, n, 1)]


def _nfam(dim: int, v: dict[str, Fraction]) -> list[Record]:
    n = dim - 2
    return [*_chain(n - 1), (n + 1, 1, n + 2, 1),
            (1, n + 1, n, v["alpha3"]), (1, n + 1, n + 2, v["beta3"]),
            (n + 1, n + 1, n, v["alpha4"]), (n + 1, n + 1, n + 2, v["beta4"])]


def _rfam(dim: int, v: dict[str, Fraction]) -> list[Record]:
    n = dim - 2
    return [*_chain(n - 2), (n, 1, n + 1, 1),
            (1, n, n + 1, v["alpha3"]), (1, n, n + 2, v["beta3"]),
            (n, n, n + 1, v["alpha4"]), (n, n, n + 2, v["beta4"])]


def _pfam(dim: int, v: dict[str, Fraction]) -> list[Record]:
    n = dim - 3
    return [*_chain(n - 1), (n + 1, 1, 2, 1), (n + 1, 1, n + 2, 1), (1, n + 1, n + 3, 1),
            (n + 1, n + 1, n, v["alpha4"]), (n + 1, n + 1, n + 2, v["beta4"]),
            (n + 1, n + 1, n + 3, v["gamma4"])]


def _qfam(dim: int, v: dict[str, Fraction]) -> list[Record]:
    n = dim - 3
    return [*_chain(n - 1), (n + 1, 1, n + 2, 1),
            (1, n + 1, n + 2, v["beta3"]), (1, n + 1, n + 3, v["gamma3"]),
            (n + 1, n + 1, n, v["alpha4"]), (n + 1, n + 1, n + 2, v["beta4"]),
            (n + 1, n + 1, n + 3, v["gamma4"])]


def _qstar(dim: int, v: dict[str, Fraction]) -> list[Record]:
    n = dim - 3
    return [*_chain(n - 2), (n, 1, n + 1, 1), (1, n, n + 2, 1), (n, n, n + 3, 1)]


def _e4f2(dim: int, v: dict[str, Fraction]) -> list[Record]:
    n = dim - 4
    return [*_chain(n - 2), (n - 1, 1, n + 2, 1), (n, 1, n + 1, 1), (1, n, n + 3, 1),
            (n, n, n + 4, 1)]


_TAIL = "one rational per 4 <= j <= dim, default 0"
_ALPHA_BETA = (_p("alpha3"), _p("alpha4"), _p("beta3"), _p("beta4"))

_family("NF", "single-generator chain of maximal nilindex", 1, lambda d, v: _chain(d - 1))
_family("F1", "naturally graded filiform, type 1", 3,
        lambda d, v: [(1, 1, 3, 1), *_chain(d - 1, 2)])
_family("F2", "naturally graded filiform, type 2", 3,
        lambda d, v: [(1, 1, 3, 1), *_chain(d - 1, 3)])
_family("F3", "naturally graded filiform, antisymmetric type", 3, _f3,
        (_p("alpha", (0, 1), note="must be 0 for odd dim"),))
_family("F1param", "filiform family over the type-1 gradation", 4, _f1param,
        (_p("alpha<j>", note=_TAIL), _p("theta")))
_family("F2param", "filiform family over the type-2 gradation", 4, _f2param,
        (_p("beta<j>", note=_TAIL), _p("gamma")))
_family("L1", "quasi-filiform, double chain", 5, _l1)
_family("L2", "quasi-filiform, single extra product", 5,
        lambda n, v: [*_chain(n - 3), (1, n - 1, n, 1)])
_family("L1l", "quasi-filiform, two-sided products", 5,
        lambda n, v: [*_chain(n - 3), (n - 1, 1, n, 1), (1, n - 1, n, v["lam"])],
        (_p("lam"),))
_family("L2l", "quasi-filiform with a square term", 5,
        lambda n, v: [*_chain(n - 3), (n - 1, 1, n, 1), (1, n - 1, n, v["lam"]),
                      (n - 1, n - 1, n, 1)],
        (_p("lam", (0, 1)),))
_family("L3l", "quasi-filiform, chain re-entry", 5,
        lambda n, v: [*_chain(n - 3), (n - 1, 1, n, 1), (n - 1, 1, 2, 1),
                      (1, n - 1, n, v["lam"])],
        (_p("lam", (-1, 0, 1)),))
_family("L4l", "quasi-filiform, chain re-entry with square", 5, _l4l,
        (_p("lam", required=True, note="nonzero"),))
_family("L5lm", "quasi-filiform, full two-parameter table", 5, _l5lm,
        (_p("lam", required=True, note="(lam, mu) in {(1,1), (2,4)}"), _p("mu", required=True)))
_family("L6", "quasi-filiform, dimension 5 only", 5, _l6, max_dim=5)
_family("L", "two extra central directions over F1, re-entrant", 6,
        lambda d, v: [(d - 1, 1, 2, 1), *_nfam(d, v)], _ALPHA_BETA)
_family("M", "two extra central directions over F1, short chain", 6, _mfam,
        (_p("alpha4"), _p("beta4")))
_family("Lstar", "two extra central directions over F1, left-acting", 6, _lstar)
_family("N", "two extra central directions over F2, re-entrant", 6, _nfam, _ALPHA_BETA)
_family("R", "two extra central directions over F2, short chain", 6, _rfam, _ALPHA_BETA)
_family("Nstar", "two extra central directions over F2, left-acting", 6,
        lambda d, v: [*_chain(d - 3), (1, d - 1, d, 1), (d - 1, d - 1, d - 2, 1)])
_family("P", "three extra central directions over F1", 7, _pfam,
        (_p("alpha4"), _p("beta4"), _p("gamma4")))
_family("Pstar", "three extra central directions over F1, rigid", 7,
        lambda d, v: [(d - 3, 1, 2, 1), *_qstar(d, v)])
_family("Q", "three extra central directions over F2", 7, _qfam,
        (_p("alpha4"), _p("beta3"), _p("beta4"), _p("gamma3"), _p("gamma4")))
_family("Qstar", "three extra central directions over F2, rigid", 7, _qstar)
_family("E4F1", "four extra central directions over F1", 8,
        lambda d, v: [(d - 4, 1, 2, 1), *_e4f2(d, v)])
_family("E4F2", "four extra central directions over F2", 8, _e4f2)
_family("abelian", "zero bracket", 0, lambda d, v: [])


def family_ids() -> tuple[str, ...]:
    return tuple(_FAMILIES)


def family_info(family: str) -> FamilyInfo:
    if family not in _FAMILIES:
        raise ValueError("unknown family '%s'; known: %s" % (family, ", ".join(_FAMILIES)))
    return _FAMILIES[family][0]


def list_families() -> tuple[FamilyInfo, ...]:
    return tuple(info for info, _ in _FAMILIES.values())


def make(family: str, dim: int, **params: int | str | Fraction) -> Algebra:
    """Construct a family member, validating dimension and parameters.

    Parameter values may be ints, rational literal strings, or Fractions.
    Unknown or leftover parameters are rejected so typos cannot silently
    produce a different algebra.  The rest is read off the family's
    `ParamSpec`s: a missing required parameter or a value outside
    `choices` is refused, and every omitted parameter is 0.
    """
    info = family_info(family)
    if dim < info.min_dim or (info.max_dim is not None and dim > info.max_dim):
        raise ValueError("family %s needs %s, got dim %d" % (family, info.dims, dim))
    require_dim(dim)
    pending = {name: frac(value) for name, value in params.items()}
    values: dict[str, Fraction] = {}
    for spec in info.params:
        names = [spec.name]
        if spec.name.endswith("<j>"):
            names = [spec.name[:-3] + str(j) for j in range(4, dim + 1)]
        for name in names:
            if name in pending:
                values[name] = value = pending.pop(name)
                if spec.choices is not None and value not in spec.choices:
                    raise ValueError("family parameter '%s' must be one of %s, got %s"
                                     % (name, ", ".join(map(str, spec.choices)), value))
            elif spec.required:
                raise ValueError("family parameter '%s' is required" % name)
            else:
                values[name] = Fraction(0)
    if pending:
        raise ValueError(
            "unknown parameter%s for family %s: %s"
            % ("s" if len(pending) != 1 else "", family, ", ".join(sorted(pending)))
        )
    products: dict[tuple[int, int], dict[int, Fraction | int]] = {}
    for i, j, k, c in _FAMILIES[family][1](dim, values):
        if c:
            row = products.setdefault((i, j), {})
            row[k] = row.get(k, 0) + c
    return algebra_from_products(dim, products)
