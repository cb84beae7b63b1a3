"""Command-line front end.

Exit codes: 0 success, 1 a mathematical check failed, 2 usage or argument
error, 3 unreadable or malformed input file.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import catalog, reproduce
from .cohomology import cohomology_basis
from .core import Algebra, LeibnizError, NotNilpotentError, check_leibniz
from .extension import (
    InvalidCocycleError,
    central_extension,
    make_spec,
    reduce_extension,
)
from .files import (
    FileFormatError,
    algebra_to_dict,
    dumps_canonical,
    matrix_to_dict,
    read_algebra_file,
    read_cocycle_file,
    read_matrix_file,
    write_algebra_file,
)
from .isomorphism import (
    SEARCH_BUDGET,
    SEARCH_SEED,
    fingerprint,
    search_isomorphism,
    verify_isomorphism,
)
from .linalg import frac


class CheckFailed(Exception):
    """A well-formed input failed a mathematical check (exit code 1)."""


def _emit(args: argparse.Namespace, payload: dict, text: str) -> None:
    if args.format == "json":
        sys.stdout.write(dumps_canonical(payload))
    else:
        print(text)


def _parse_params(raw: list[str] | None) -> dict[str, Fraction]:
    params: dict[str, Fraction] = {}
    for chunk in raw or []:
        for piece in chunk.split(","):
            piece = piece.strip()
            if not piece:
                continue
            if "=" not in piece:
                raise ValueError("parameter '%s' is not of the form name=value" % piece)
            name, _, value = piece.partition("=")
            name = name.strip()
            if not name:
                raise ValueError("parameter '%s' has no name" % piece)
            if name in params:
                raise ValueError("parameter '%s' is given more than once" % name)
            try:
                params[name] = frac(value.strip())
            except (ValueError, ZeroDivisionError):
                raise ValueError("parameter value '%s' is not rational" % value) from None
    return params


def _algebra_from_args(args: argparse.Namespace) -> tuple[Algebra, str]:
    """Algebra plus a display name, from a file or a family request."""
    if getattr(args, "family", None) is not None:
        if args.file is not None:
            raise ValueError("give either a file or --family, not both")
        if args.n is None:
            raise ValueError("--family needs --n")
        params = _parse_params(args.param)
        algebra = catalog.make(args.family, args.n, **params)
        return algebra, "%s dim %d" % (args.family, args.n)
    if args.file is None:
        raise ValueError("give an algebra file or --family")
    if args.n is not None or args.param:
        raise ValueError("--n and --param apply only to --family, not to a file")
    algebra, meta = read_algebra_file(args.file)
    return algebra, meta.get("name", args.file)


def _require_valid(algebra: Algebra, name: str) -> None:
    if algebra.checked:
        return
    violations = check_leibniz(algebra)
    if violations:
        raise CheckFailed(
            "%s is not a Leibniz algebra: identity fails on (e%d, e%d, e%d)"
            % (name, violations[0].i, violations[0].j, violations[0].k)
        )


def _format_algebra_text(algebra: Algebra, name: str | None = None) -> str:
    lines = []
    if name:
        lines.append("%s (dim %d)" % (name, algebra.dim))
    else:
        lines.append("dim %d" % algebra.dim)
    by_pair: dict[tuple[int, int], list[str]] = {}
    for i, j, k, c in algebra.products():
        term = algebra.label(k - 1) if c == 1 else "%s*%s" % (c, algebra.label(k - 1))
        by_pair.setdefault((i, j), []).append(term)
    for (i, j), terms in sorted(by_pair.items()):
        lines.append(
            "[%s, %s] = %s" % (algebra.label(i - 1), algebra.label(j - 1), " + ".join(terms))
        )
    if not by_pair:
        lines.append("(all brackets vanish)")
    return "\n".join(lines)


# ---------------------------------------------------------------- handlers


def _cmd_validate(args: argparse.Namespace) -> int:
    algebra, meta = read_algebra_file(args.file)
    violations = check_leibniz(algebra)
    shown = [
        {"i": v.i, "j": v.j, "k": v.k, "defect": [str(c) for c in v.defect]}
        for v in violations[:10]
    ]
    payload = {
        "ok": not violations,
        "dim": algebra.dim,
        "violations": len(violations),
        "first_violations": shown,
    }
    if not violations:
        _emit(args, payload, "ok: dim %d algebra satisfies the Leibniz identity" % algebra.dim)
        return 0
    text = ["FAIL: %d violating triple%s" % (len(violations), "s" if len(violations) != 1 else "")]
    for v in violations[:10]:
        text.append("  (e%d, e%d, e%d) defect %s" % (v.i, v.j, v.k, [str(c) for c in v.defect]))
    _emit(args, payload, "\n".join(text))
    return 1


def _cmd_invariants(args: argparse.Namespace) -> int:
    algebra, name = _algebra_from_args(args)
    _require_valid(algebra, name)
    try:
        fp = fingerprint(algebra)
    except (NotNilpotentError, ValueError) as exc:
        raise CheckFailed(str(exc)) from None
    text = ["invariants of %s" % name]
    for key, value in fp.as_dict().items():
        text.append("  %s: %s" % (key, value))
    _emit(args, {"name": name, **fp.as_dict()}, "\n".join(text))
    return 0


def _cmd_cohomology(args: argparse.Namespace) -> int:
    algebra, name = _algebra_from_args(args)
    _require_valid(algebra, name)
    basis = cohomology_basis(algebra)
    reps = [
        {
            "entries": [{"i": i, "j": j, "c": str(c)} for i, j, c in form.terms()]
        }
        for form in basis.representatives
    ]
    payload = {
        "name": name,
        "dim": algebra.dim,
        "cocycles": basis.cocycles.rank,
        "coboundaries": basis.coboundaries.rank,
        "cohomology": basis.dim,
        "representatives": reps,
    }
    text = [
        "second cohomology of %s" % name,
        "  cocycle space: %d" % basis.cocycles.rank,
        "  coboundary space: %d" % basis.coboundaries.rank,
        "  quotient: %d" % basis.dim,
    ]
    for idx, form in enumerate(basis.representatives, start=1):
        terms = ["theta(e%d, e%d) = %s" % (i, j, c) for i, j, c in form.terms()]
        text.append("  class %d: %s" % (idx, "; ".join(terms)))
    _emit(args, payload, "\n".join(text))
    return 0


def _cmd_extend(args: argparse.Namespace) -> int:
    algebra, meta = read_algebra_file(args.file)
    name = meta.get("name")
    _require_valid(algebra, name or args.file)
    dim, forms = read_cocycle_file(args.cocycle)
    if dim != algebra.dim:
        raise FileFormatError(
            "cocycle file is for dim %d but the algebra has dim %d" % (dim, algebra.dim)
        )
    if args.k is not None and args.k != len(forms):
        raise ValueError("cocycle file has %d components, -k says %d" % (len(forms), args.k))
    spec = make_spec(algebra, *forms)
    ext = central_extension(spec)
    ext_name = ("%s+ext%d" % (name, len(forms))) if name else None
    payload = algebra_to_dict(ext, name=ext_name)
    if args.out:
        write_algebra_file(args.out, ext, name=ext_name)
        print("wrote dim %d extension to %s" % (ext.dim, args.out))
        return 0
    if args.format == "json":
        sys.stdout.write(dumps_canonical(payload))
    else:
        print(_format_algebra_text(ext, ext_name or "central extension"))
    return 0


def _cmd_split_check(args: argparse.Namespace) -> int:
    algebra, meta = read_algebra_file(args.file)
    _require_valid(algebra, meta.get("name", args.file))
    dim, forms = read_cocycle_file(args.cocycle)
    if dim != algebra.dim:
        raise FileFormatError(
            "cocycle file is for dim %d but the algebra has dim %d" % (dim, algebra.dim)
        )
    spec = make_spec(algebra, *forms)
    report = reduce_extension(spec)
    witness = None
    if report.split:
        n, k = algebra.dim, spec.k
        witness = [str(c) for c in report.change_of_basis.column(n + k - 1)]
    payload = {
        "components": spec.k,
        "class_rank": report.class_rank,
        "abelian_directions": report.abelian_dim,
        "split": report.split,
        "witness": witness,
    }
    text = [
        "components: %d" % spec.k,
        "class rank: %d" % report.class_rank,
        "abelian directions: %d" % report.abelian_dim,
        "split: %s" % ("yes" if report.split else "no"),
    ]
    if witness is not None:
        text.append("witness direction: (%s)" % ", ".join(witness))
    _emit(args, payload, "\n".join(text))
    return 0


def _cmd_iso_verify(args: argparse.Namespace) -> int:
    a, meta_a = read_algebra_file(args.a)
    b, meta_b = read_algebra_file(args.b)
    _require_valid(a, meta_a.get("name", args.a))
    _require_valid(b, meta_b.get("name", args.b))
    p = read_matrix_file(args.matrix)
    try:
        check = verify_isomorphism(a, b, p)
    except ValueError as exc:
        raise FileFormatError(str(exc)) from None
    payload = {
        "ok": check.ok,
        "failing_pair": list(check.failing_pair) if check.failing_pair else None,
        "reason": check.reason,
    }
    if check.ok:
        _emit(args, payload, "ok: the matrix is an isomorphism")
        return 0
    _emit(args, payload, "FAIL: %s" % check.reason)
    return 1


def _cmd_iso_search(args: argparse.Namespace) -> int:
    a, meta_a = read_algebra_file(args.a)
    b, meta_b = read_algebra_file(args.b)
    _require_valid(a, meta_a.get("name", args.a))
    _require_valid(b, meta_b.get("name", args.b))
    result = search_isomorphism(a, b, budget=args.budget, seed=args.seed)
    matrix = matrix_to_dict(result.matrix)["entries"] if result.matrix is not None else None
    payload = {
        "status": result.status,
        "matrix": matrix,
        "invariant": result.invariant,
        "trials": result.trials,
    }
    text = ["status: %s" % result.status]
    if result.invariant:
        text.append("separating invariant: %s" % result.invariant)
    if matrix is not None:
        text.append("change of basis rows:")
        for row in matrix:
            text.append("  [%s]" % ", ".join(row))
    text.append("candidates tried: %d" % result.trials)
    _emit(args, payload, "\n".join(text))
    return 0


def _cmd_catalog_list(args: argparse.Namespace) -> int:
    infos = catalog.list_families()
    payload = {
        "families": [
            {
                "family": info.family,
                "summary": info.summary,
                "dims": info.dims,
                "params": [
                    {
                        "name": p.name,
                        "kind": p.kind,
                        "choices": [str(c) for c in p.choices] if p.choices else None,
                        "required": p.required,
                        "note": p.note,
                    }
                    for p in info.params
                ],
            }
            for info in infos
        ]
    }
    text = []
    for info in infos:
        text.append("%-8s %s (%s)" % (info.family, info.summary, info.dims))
        for p in info.params:
            bits = [p.kind]
            if p.choices:
                bits.append("choices " + ", ".join(str(c) for c in p.choices))
            if p.required:
                bits.append("required")
            if p.note:
                bits.append(p.note)
            text.append("         param %s: %s" % (p.name, "; ".join(bits)))
    _emit(args, payload, "\n".join(text))
    return 0


def _cmd_catalog_make(args: argparse.Namespace) -> int:
    params = _parse_params(args.param)
    algebra = catalog.make(args.family, args.n, **params)
    name = args.family
    if args.out:
        write_algebra_file(args.out, algebra, name=name, params=params)
        print("wrote %s dim %d to %s" % (name, algebra.dim, args.out))
        return 0
    if args.format == "json":
        sys.stdout.write(dumps_canonical(algebra_to_dict(algebra, name=name, params=params)))
    else:
        print(_format_algebra_text(algebra, "%s dim %d" % (name, algebra.dim)))
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    report = reproduce.run(args.experiment, n=args.n, seed=args.seed)
    _emit(args, report.as_dict(), report.render_text())
    return 0 if report.ok else 1


# ---------------------------------------------------------------- parser


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (default text)")


def _add_param(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--param", "--params", action="append", dest="param",
                        metavar="NAME=VALUE", help="family parameter, repeatable")


def _add_family_source(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("file", nargs="?", help="algebra file (JSON)")
    parser.add_argument("--family", help="catalog family instead of a file")
    parser.add_argument("--n", type=int, help="dimension for --family")
    _add_param(parser)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leibnizalg",
        description="Exact-arithmetic toolkit for nilpotent Leibniz algebras: "
        "second cohomology, central extensions, and catalog verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the Leibniz identity on an algebra file")
    p.add_argument("file")
    _add_format(p)
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("invariants", help="nilpotency invariants and fingerprint")
    _add_family_source(p)
    _add_format(p)
    p.set_defaults(handler=_cmd_invariants)

    p = sub.add_parser("cohomology", help="second cohomology with scalar coefficients")
    _add_family_source(p)
    _add_format(p)
    p.set_defaults(handler=_cmd_cohomology)

    p = sub.add_parser("extend", help="build a central extension from a cocycle file")
    p.add_argument("file")
    p.add_argument("--cocycle", required=True, help="cocycle file (JSON)")
    p.add_argument("-k", type=int, default=None,
                   help="expected number of components (consistency check)")
    p.add_argument("--out", help="write the extension to this file")
    _add_format(p)
    p.set_defaults(handler=_cmd_extend)

    p = sub.add_parser("split-check", help="reduce a cocycle and decide splitting")
    p.add_argument("file")
    p.add_argument("--cocycle", required=True)
    _add_format(p)
    p.set_defaults(handler=_cmd_split_check)

    p_iso = sub.add_parser("iso", help="isomorphism checks")
    iso_sub = p_iso.add_subparsers(dest="iso_command", required=True)
    p = iso_sub.add_parser("verify", help="verify a change-of-basis matrix")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("matrix")
    _add_format(p)
    p.set_defaults(handler=_cmd_iso_verify)
    p = iso_sub.add_parser("search", help="look for an isomorphism or a separating invariant")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--budget", type=int, default=SEARCH_BUDGET)
    p.add_argument("--seed", type=int, default=SEARCH_SEED)
    _add_format(p)
    p.set_defaults(handler=_cmd_iso_search)

    p_cat = sub.add_parser("catalog", help="built-in algebra families")
    cat_sub = p_cat.add_subparsers(dest="catalog_command", required=True)
    p = cat_sub.add_parser("list", help="list families and parameters")
    _add_format(p)
    p.set_defaults(handler=_cmd_catalog_list)
    p = cat_sub.add_parser("make", help="construct a family member")
    p.add_argument("family")
    p.add_argument("--n", type=int, required=True)
    _add_param(p)
    p.add_argument("--out", help="write the algebra to this file")
    _add_format(p)
    p.set_defaults(handler=_cmd_catalog_make)

    p = sub.add_parser("reproduce", help="run a scripted verification experiment")
    p.add_argument("experiment", metavar="ID",
                   help="one of: %s" % ", ".join(reproduce.experiment_ids()))
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--seed", type=int, default=reproduce.DEFAULT_SEED)
    _add_format(p)
    p.set_defaults(handler=_cmd_reproduce)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except FileFormatError as exc:
        print("input file error: %s" % exc, file=sys.stderr)
        return 3
    except OSError as exc:
        print("cannot read file: %s" % exc, file=sys.stderr)
        return 3
    except CheckFailed as exc:
        print("check failed: %s" % exc, file=sys.stderr)
        return 1
    except (LeibnizError, InvalidCocycleError) as exc:
        print("check failed: %s" % exc, file=sys.stderr)
        return 1
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
