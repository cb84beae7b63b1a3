"""Constructors for the named algebra families used across the toolkit.

Each family is a parametrized multiplication table on a standard basis
e_1..e_dim; omitted products are zero.  Constructors validate dimension
ranges and parameter domains, then verify the Leibniz identity, so every
algebra handed out is genuinely a Leibniz algebra.

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

Table = dict[tuple[int, int], dict[int, Fraction]]


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


def _add(table: Table, i: int, j: int, k: int, c: Fraction | int) -> None:
    c = frac(c)
    if not c:
        return
    row = table.setdefault((i, j), {})
    row[k] = row.get(k, Fraction(0)) + c
    if not row[k]:
        del row[k]


def _chain(table: Table, upto: int) -> None:
    """[e_i, e_1] = e_{i+1} for 1 <= i <= upto."""
    for i in range(1, upto + 1):
        _add(table, i, 1, i + 1, 1)


def _take(params: dict[str, Fraction], name: str, default: Fraction | None = None) -> Fraction:
    if name in params:
        return params.pop(name)
    if default is None:
        raise ValueError("family parameter '%s' is required" % name)
    return default


ZERO = Fraction(0)
ONE = Fraction(1)


def _build_nf(dim: int, params: dict[str, Fraction]) -> Table:
    table: Table = {}
    _chain(table, dim - 1)
    return table


def _build_f1(dim: int, params: dict[str, Fraction]) -> Table:
    table: Table = {}
    _add(table, 1, 1, 3, 1)
    for i in range(2, dim):
        _add(table, i, 1, i + 1, 1)
    return table


def _build_f2(dim: int, params: dict[str, Fraction]) -> Table:
    table: Table = {}
    _add(table, 1, 1, 3, 1)
    for i in range(3, dim):
        _add(table, i, 1, i + 1, 1)
    return table


def _build_f3(dim: int, params: dict[str, Fraction]) -> Table:
    alpha = _take(params, "alpha", ZERO)
    if alpha not in (ZERO, ONE):
        raise ValueError("alpha must be 0 or 1")
    if dim % 2 == 1 and alpha != 0:
        raise ValueError("alpha must be 0 when the dimension is odd")
    table: Table = {}
    n = dim
    for i in range(2, n):
        _add(table, i, 1, i + 1, 1)
        _add(table, 1, i, i + 1, -1)
    if alpha:
        for i in range(2, n):
            _add(table, i, n + 1 - i, n, alpha * (-1) ** (i + 1))
    return table


def _build_f1param(dim: int, params: dict[str, Fraction]) -> Table:
    m = dim
    tail = {k: _take(params, "alpha%d" % k, ZERO) for k in range(4, m + 1)}
    theta = _take(params, "theta", ZERO)
    table: Table = {}
    _add(table, 1, 1, 3, 1)
    for i in range(2, m):
        _add(table, i, 1, i + 1, 1)
    for k in range(4, m):
        _add(table, 1, 2, k, tail[k])
    _add(table, 1, 2, m, theta)
    for i in range(2, m - 1):
        for k in range(i + 2, m + 1):
            _add(table, i, 2, k, tail[k + 2 - i])
    return table


def _build_f2param(dim: int, params: dict[str, Fraction]) -> Table:
    m = dim
    tail = {k: _take(params, "beta%d" % k, ZERO) for k in range(4, m + 1)}
    gamma = _take(params, "gamma", ZERO)
    table: Table = {}
    _add(table, 1, 1, 3, 1)
    for i in range(3, m):
        _add(table, i, 1, i + 1, 1)
    for k in range(4, m + 1):
        _add(table, 1, 2, k, tail[k])
    _add(table, 2, 2, m, gamma)
    for i in range(3, m - 1):
        for k in range(i + 2, m + 1):
            _add(table, i, 2, k, tail[k + 2 - i])
    return table


def _quasi_chain(dim: int) -> Table:
    table: Table = {}
    _chain(table, dim - 3)
    return table


def _build_l1(dim: int, params: dict[str, Fraction]) -> Table:
    n = dim
    table = _quasi_chain(n)
    _add(table, 1, n - 1, n, 1)
    _add(table, 1, n - 1, 2, 1)
    for i in range(2, n - 2):
        _add(table, i, n - 1, i + 1, 1)
    return table


def _build_l2(dim: int, params: dict[str, Fraction]) -> Table:
    n = dim
    table = _quasi_chain(n)
    _add(table, 1, n - 1, n, 1)
    return table


def _build_l1l(dim: int, params: dict[str, Fraction]) -> Table:
    lam = _take(params, "lam", ZERO)
    n = dim
    table = _quasi_chain(n)
    _add(table, n - 1, 1, n, 1)
    _add(table, 1, n - 1, n, lam)
    return table


def _build_l2l(dim: int, params: dict[str, Fraction]) -> Table:
    lam = _take(params, "lam", ZERO)
    if lam not in (ZERO, ONE):
        raise ValueError("lam must be 0 or 1")
    n = dim
    table = _quasi_chain(n)
    _add(table, n - 1, 1, n, 1)
    _add(table, 1, n - 1, n, lam)
    _add(table, n - 1, n - 1, n, 1)
    return table


def _build_l3l(dim: int, params: dict[str, Fraction]) -> Table:
    lam = _take(params, "lam", ZERO)
    if lam not in (Fraction(-1), ZERO, ONE):
        raise ValueError("lam must be -1, 0, or 1")
    n = dim
    table = _quasi_chain(n)
    _add(table, n - 1, 1, n, 1)
    _add(table, n - 1, 1, 2, 1)
    _add(table, 1, n - 1, n, lam)
    return table


def _build_l4l(dim: int, params: dict[str, Fraction]) -> Table:
    lam = _take(params, "lam")
    if lam == 0:
        raise ValueError("lam must be nonzero")
    n = dim
    table = _quasi_chain(n)
    _add(table, n - 1, 1, n, 1)
    _add(table, n - 1, 1, 2, 1)
    _add(table, n - 1, n - 1, n, lam)
    return table


def _build_l5lm(dim: int, params: dict[str, Fraction]) -> Table:
    lam = _take(params, "lam")
    mu = _take(params, "mu")
    if (lam, mu) not in ((ONE, ONE), (Fraction(2), Fraction(4))):
        raise ValueError("(lam, mu) must be (1, 1) or (2, 4)")
    n = dim
    table = _quasi_chain(n)
    _add(table, n - 1, 1, n, 1)
    _add(table, n - 1, 1, 2, 1)
    _add(table, 1, n - 1, n, lam)
    _add(table, n - 1, n - 1, n, mu)
    return table


def _build_l6(dim: int, params: dict[str, Fraction]) -> Table:
    n = dim
    table = _quasi_chain(n)
    _add(table, n - 1, 1, n, 1)
    _add(table, 1, n - 1, n, -1)
    _add(table, n - 1, n - 1, 2, 1)
    _add(table, n - 1, n, 3, 1)
    return table


def _build_lfam(dim: int, params: dict[str, Fraction]) -> Table:
    a3 = _take(params, "alpha3", ZERO)
    a4 = _take(params, "alpha4", ZERO)
    b3 = _take(params, "beta3", ZERO)
    b4 = _take(params, "beta4", ZERO)
    n = dim - 2
    table: Table = {}
    _chain(table, n - 1)
    _add(table, n + 1, 1, 2, 1)
    _add(table, n + 1, 1, n + 2, 1)
    _add(table, 1, n + 1, n, a3)
    _add(table, 1, n + 1, n + 2, b3)
    _add(table, n + 1, n + 1, n, a4)
    _add(table, n + 1, n + 1, n + 2, b4)
    return table


def _build_mfam(dim: int, params: dict[str, Fraction]) -> Table:
    a4 = _take(params, "alpha4", ZERO)
    b4 = _take(params, "beta4", ZERO)
    n = dim - 2
    table: Table = {}
    _chain(table, n - 2)
    _add(table, n, 1, 2, 1)
    _add(table, n, 1, n + 1, 1)
    _add(table, 1, n, n + 2, 1)
    _add(table, n, n, n + 1, a4)
    _add(table, n, n, n + 2, b4)
    return table


def _build_lstar(dim: int, params: dict[str, Fraction]) -> Table:
    n = dim - 2
    table: Table = {}
    _chain(table, n - 1)
    _add(table, 1, n + 1, 2, 1)
    _add(table, 1, n + 1, n + 2, 1)
    for i in range(2, n):
        _add(table, i, n + 1, i + 1, 1)
    _add(table, n + 1, n + 1, n, 1)
    return table


def _build_nfam(dim: int, params: dict[str, Fraction]) -> Table:
    a3 = _take(params, "alpha3", ZERO)
    a4 = _take(params, "alpha4", ZERO)
    b3 = _take(params, "beta3", ZERO)
    b4 = _take(params, "beta4", ZERO)
    n = dim - 2
    table: Table = {}
    _chain(table, n - 1)
    _add(table, n + 1, 1, n + 2, 1)
    _add(table, 1, n + 1, n, a3)
    _add(table, 1, n + 1, n + 2, b3)
    _add(table, n + 1, n + 1, n, a4)
    _add(table, n + 1, n + 1, n + 2, b4)
    return table


def _build_rfam(dim: int, params: dict[str, Fraction]) -> Table:
    a3 = _take(params, "alpha3", ZERO)
    a4 = _take(params, "alpha4", ZERO)
    b3 = _take(params, "beta3", ZERO)
    b4 = _take(params, "beta4", ZERO)
    n = dim - 2
    table: Table = {}
    _chain(table, n - 2)
    _add(table, n, 1, n + 1, 1)
    _add(table, 1, n, n + 1, a3)
    _add(table, 1, n, n + 2, b3)
    _add(table, n, n, n + 1, a4)
    _add(table, n, n, n + 2, b4)
    return table


def _build_nstar(dim: int, params: dict[str, Fraction]) -> Table:
    n = dim - 2
    table: Table = {}
    _chain(table, n - 1)
    _add(table, 1, n + 1, n + 2, 1)
    _add(table, n + 1, n + 1, n, 1)
    return table


def _build_pfam(dim: int, params: dict[str, Fraction]) -> Table:
    a4 = _take(params, "alpha4", ZERO)
    b4 = _take(params, "beta4", ZERO)
    g4 = _take(params, "gamma4", ZERO)
    n = dim - 3
    table: Table = {}
    _chain(table, n - 1)
    _add(table, n + 1, 1, 2, 1)
    _add(table, n + 1, 1, n + 2, 1)
    _add(table, 1, n + 1, n + 3, 1)
    _add(table, n + 1, n + 1, n, a4)
    _add(table, n + 1, n + 1, n + 2, b4)
    _add(table, n + 1, n + 1, n + 3, g4)
    return table


def _build_pstar(dim: int, params: dict[str, Fraction]) -> Table:
    n = dim - 3
    table: Table = {}
    _chain(table, n - 2)
    _add(table, n, 1, 2, 1)
    _add(table, n, 1, n + 1, 1)
    _add(table, 1, n, n + 2, 1)
    _add(table, n, n, n + 3, 1)
    return table


def _build_qfam(dim: int, params: dict[str, Fraction]) -> Table:
    a4 = _take(params, "alpha4", ZERO)
    b3 = _take(params, "beta3", ZERO)
    b4 = _take(params, "beta4", ZERO)
    g3 = _take(params, "gamma3", ZERO)
    g4 = _take(params, "gamma4", ZERO)
    n = dim - 3
    table: Table = {}
    _chain(table, n - 1)
    _add(table, n + 1, 1, n + 2, 1)
    _add(table, 1, n + 1, n + 2, b3)
    _add(table, 1, n + 1, n + 3, g3)
    _add(table, n + 1, n + 1, n, a4)
    _add(table, n + 1, n + 1, n + 2, b4)
    _add(table, n + 1, n + 1, n + 3, g4)
    return table


def _build_qstar(dim: int, params: dict[str, Fraction]) -> Table:
    n = dim - 3
    table: Table = {}
    _chain(table, n - 2)
    _add(table, n, 1, n + 1, 1)
    _add(table, 1, n, n + 2, 1)
    _add(table, n, n, n + 3, 1)
    return table


def _build_e4f1(dim: int, params: dict[str, Fraction]) -> Table:
    n = dim - 4
    table: Table = {}
    _chain(table, n - 2)
    _add(table, n - 1, 1, n + 2, 1)
    _add(table, n, 1, 2, 1)
    _add(table, n, 1, n + 1, 1)
    _add(table, 1, n, n + 3, 1)
    _add(table, n, n, n + 4, 1)
    return table


def _build_e4f2(dim: int, params: dict[str, Fraction]) -> Table:
    n = dim - 4
    table: Table = {}
    _chain(table, n - 2)
    _add(table, n - 1, 1, n + 2, 1)
    _add(table, n, 1, n + 1, 1)
    _add(table, 1, n, n + 3, 1)
    _add(table, n, n, n + 4, 1)
    return table


def _build_abelian(dim: int, params: dict[str, Fraction]) -> Table:
    return {}


_RAT = "rational"
_CHOICE = "choice"


def _p(name: str, kind: str = _RAT, choices: tuple[int, ...] | None = None,
       required: bool = False, note: str = "") -> ParamSpec:
    ch = tuple(Fraction(c) for c in choices) if choices is not None else None
    return ParamSpec(name, kind, ch, required, note)


_FAMILIES: dict[str, tuple[FamilyInfo, Callable[[int, dict[str, Fraction]], Table]]] = {}


def _register(info: FamilyInfo, builder: Callable[[int, dict[str, Fraction]], Table]) -> None:
    _FAMILIES[info.family] = (info, builder)


_register(FamilyInfo("NF", "single-generator chain of maximal nilindex", "dim >= 1", 1), _build_nf)
_register(FamilyInfo("F1", "naturally graded filiform, type 1", "dim >= 3", 3), _build_f1)
_register(FamilyInfo("F2", "naturally graded filiform, type 2", "dim >= 3", 3), _build_f2)
_register(
    FamilyInfo(
        "F3",
        "naturally graded filiform, antisymmetric type",
        "dim >= 3",
        3,
        params=(_p("alpha", _CHOICE, (0, 1), note="must be 0 for odd dim"),),
    ),
    _build_f3,
)
_register(
    FamilyInfo(
        "F1param",
        "filiform family over the type-1 gradation",
        "dim >= 4",
        4,
        params=(
            _p("alpha<j>", note="one rational per 4 <= j <= dim, default 0"),
            _p("theta"),
        ),
    ),
    _build_f1param,
)
_register(
    FamilyInfo(
        "F2param",
        "filiform family over the type-2 gradation",
        "dim >= 4",
        4,
        params=(
            _p("beta<j>", note="one rational per 4 <= j <= dim, default 0"),
            _p("gamma"),
        ),
    ),
    _build_f2param,
)
_register(FamilyInfo("L1", "quasi-filiform, double chain", "dim >= 5", 5), _build_l1)
_register(FamilyInfo("L2", "quasi-filiform, single extra product", "dim >= 5", 5), _build_l2)
_register(
    FamilyInfo("L1l", "quasi-filiform, two-sided products", "dim >= 5", 5,
               params=(_p("lam"),)),
    _build_l1l,
)
_register(
    FamilyInfo("L2l", "quasi-filiform with a square term", "dim >= 5", 5,
               params=(_p("lam", _CHOICE, (0, 1)),)),
    _build_l2l,
)
_register(
    FamilyInfo("L3l", "quasi-filiform, chain re-entry", "dim >= 5", 5,
               params=(_p("lam", _CHOICE, (-1, 0, 1)),)),
    _build_l3l,
)
_register(
    FamilyInfo("L4l", "quasi-filiform, chain re-entry with square", "dim >= 5", 5,
               params=(_p("lam", required=True, note="nonzero"),)),
    _build_l4l,
)
_register(
    FamilyInfo("L5lm", "quasi-filiform, full two-parameter table", "dim >= 5", 5,
               params=(_p("lam", required=True, note="(lam, mu) in {(1,1), (2,4)}"),
                       _p("mu", required=True))),
    _build_l5lm,
)
_register(FamilyInfo("L6", "quasi-filiform, dimension 5 only", "dim = 5", 5, 5), _build_l6)
_register(
    FamilyInfo("L", "two extra central directions over F1, re-entrant", "dim >= 6", 6,
               params=(_p("alpha3"), _p("alpha4"), _p("beta3"), _p("beta4"))),
    _build_lfam,
)
_register(
    FamilyInfo("M", "two extra central directions over F1, short chain", "dim >= 6", 6,
               params=(_p("alpha4"), _p("beta4"))),
    _build_mfam,
)
_register(FamilyInfo("Lstar", "two extra central directions over F1, left-acting", "dim >= 6", 6), _build_lstar)
_register(
    FamilyInfo("N", "two extra central directions over F2, re-entrant", "dim >= 6", 6,
               params=(_p("alpha3"), _p("alpha4"), _p("beta3"), _p("beta4"))),
    _build_nfam,
)
_register(
    FamilyInfo("R", "two extra central directions over F2, short chain", "dim >= 6", 6,
               params=(_p("alpha3"), _p("alpha4"), _p("beta3"), _p("beta4"))),
    _build_rfam,
)
_register(FamilyInfo("Nstar", "two extra central directions over F2, left-acting", "dim >= 6", 6), _build_nstar)
_register(
    FamilyInfo("P", "three extra central directions over F1", "dim >= 7", 7,
               params=(_p("alpha4"), _p("beta4"), _p("gamma4"))),
    _build_pfam,
)
_register(FamilyInfo("Pstar", "three extra central directions over F1, rigid", "dim >= 7", 7), _build_pstar)
_register(
    FamilyInfo("Q", "three extra central directions over F2", "dim >= 7", 7,
               params=(_p("alpha4"), _p("beta3"), _p("beta4"), _p("gamma3"), _p("gamma4"))),
    _build_qfam,
)
_register(FamilyInfo("Qstar", "three extra central directions over F2, rigid", "dim >= 7", 7), _build_qstar)
_register(FamilyInfo("E4F1", "four extra central directions over F1", "dim >= 8", 8), _build_e4f1)
_register(FamilyInfo("E4F2", "four extra central directions over F2", "dim >= 8", 8), _build_e4f2)
_register(FamilyInfo("abelian", "zero bracket", "dim >= 0", 0), _build_abelian)


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
    produce a different algebra.
    """
    info = family_info(family)
    if dim < info.min_dim or (info.max_dim is not None and dim > info.max_dim):
        raise ValueError("family %s needs %s, got dim %d" % (family, info.dims, dim))
    require_dim(dim)
    builder = _FAMILIES[family][1]
    pending = {name: frac(value) for name, value in params.items()}
    table = builder(dim, pending)
    if pending:
        raise ValueError(
            "unknown parameter%s for family %s: %s"
            % ("s" if len(pending) != 1 else "", family, ", ".join(sorted(pending)))
        )
    return algebra_from_products(dim, table)
