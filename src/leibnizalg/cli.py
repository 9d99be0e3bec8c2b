"""Command line front end.

Subcommands: check, analyze, decompose, a-algebra, battery, cyclic,
frattini, enumerate, corpus.  Reports are deterministic: the same
argument vector, seed and input bytes produce byte-identical output
(JSON output uses sorted keys and no timestamps).

``run_command`` heads every report with the command, seed and budget,
reads and checks the input as ``_COMMANDS`` says and adds its field,
dimension and digest; each handler adds only its command's own fields.

Every command but ``check`` runs the enumeration layer, so it is imported
here.  Each ``_cmd_*`` imports the other library functions it runs, so a
``check`` process loads neither the series, decomposition, battery, cyclic
nor corpus layers.

Exit codes: 0 success (including a negative A-algebra verdict), 1 a
checked mathematical property failed (non-Leibniz table, battery hard
failure, classification cross-check failure), 2 the request is
unsupported (infinite-field enumeration, budget exceeded), 3 bad input
(a file that is missing, unreadable or unparseable, an output path that
cannot be written, or bad arguments).  Polynomials factor over every field at
every degree, so no factorization is refused.
"""

from __future__ import annotations

import argparse
import json
import sys

from .algfile import input_digest, loads_algebra
from .enumeration import (DEFAULT_BUDGET, enumerate_spaces, frattini_ideal,
                          maximal_subalgebras, socle_analysis, total_subspaces)
from .errors import (BadSpec, BudgetExceeded, FieldParseError,
                     InfiniteFieldUnsupported, LeibnizError, NotLeibniz,
                     ParseError)

EXIT_OK = 0
EXIT_MATH = 1
EXIT_UNSUPPORTED = 2
EXIT_INPUT = 3


class _ArgumentError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # main reads --format and --output with a parser of its own, which
        # must take no abbreviation the subcommand parsers would refuse
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise _ArgumentError(message)


def _space_doc(L, U):
    return {
        "dim": U.dim,
        "basis": [[L.field.serialize_scalar(c) for c in row] for row in U.basis],
    }


def _clause_doc(c):
    return {"clause": c.clause, "applicable": c.applicable,
            "holds": c.holds, "detail": c.detail}


def _verdict_doc(L, v):
    return {
        "verdict": v.label,
        "certificate": v.certificate,
        "witness": _space_doc(L, v.witness) if v.witness is not None else None,
        "reasons": list(v.reasons),
    }


def _load(path):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return loads_algebra(text), input_digest(text)


def _cmd_check(args, doc):
    violation = args.algebra.leibniz_violation()
    doc["leibniz"] = violation is None
    if violation is None:
        return EXIT_OK
    F = args.algebra.field
    doc["violation"] = {
        "triple": list(violation.triple),
        "lhs": [F.serialize_scalar(c) for c in violation.lhs],
        "rhs": [F.serialize_scalar(c) for c in violation.rhs],
    }
    return EXIT_MATH


def _series_dims(series):
    return [t.dim for t in series]


def _cmd_analyze(args, doc):
    from .series import (derived_length, derived_series, hypercentre,
                         is_nilpotent, is_solvable, lower_central_series,
                         lower_nilpotent_series, nilpotency_class, nilradical,
                         predicates, radical, upper_central_series)
    L = args.algebra
    doc["leibniz"] = True
    doc["predicates"] = predicates(L)
    doc["series"] = {
        "derived": _series_dims(derived_series(L)),
        "lower_central": _series_dims(lower_central_series(L)),
        "lower_nilpotent": _series_dims(lower_nilpotent_series(L)),
        "upper_central": _series_dims(upper_central_series(L)),
    }
    doc["dims"] = {
        "derived": L.derived_space().dim,
        "squares_ideal": L.leib_ideal().dim,
        "centre": L.centre().dim,
        "hypercentre": hypercentre(L).dim,
    }
    doc["nilpotency_class"] = nilpotency_class(L) if is_nilpotent(L) else None
    doc["derived_length"] = derived_length(L) if is_solvable(L) else None
    for key, find in (("nilradical", nilradical), ("radical", radical)):
        try:
            S, mode = find(L, args.budget)
            doc[key] = {"dim": S.dim, "mode": mode}
        except (InfiniteFieldUnsupported, BudgetExceeded) as exc:
            doc[key] = {"error": str(exc)}
    return EXIT_OK


def _cmd_decompose(args, doc):
    from .aalgebra import structure_report
    L = args.algebra
    report = structure_report(L, args.budget)
    doc["predicates"] = dict(report.predicates)
    if report.decomposition is not None:
        doc["decomposition"] = {
            "parts": [_space_doc(L, P) for P in report.decomposition],
            "part_dims": [P.dim for P in report.decomposition],
        }
    else:
        doc["decomposition"] = None
    doc["decomposition_error"] = report.decomposition_error
    doc["nilradical"] = {"dim": report.nilradical.dim,
                         "mode": report.nilradical_mode}
    doc["clauses"] = [_clause_doc(c) for c in report.clauses]
    return EXIT_OK


def _cmd_a_algebra(args, doc):
    from .aalgebra import is_a_algebra
    L = args.algebra
    doc.update(_verdict_doc(L, is_a_algebra(L, args.budget, args.seed)))
    return EXIT_OK


def _cmd_battery(args, doc):
    from .aalgebra import theorem_battery
    L = args.algebra
    report = theorem_battery(L, seed=args.seed, budget=args.budget)
    doc.update(_verdict_doc(L, report.verdict))
    doc["clauses"] = [_clause_doc(c) for c in report.clauses]
    doc["findings"] = list(report.findings)
    doc["hard_failures"] = list(report.hard_failures)
    applicable = [c for c in report.clauses if c.applicable]
    doc["counts"] = {
        "clauses": len(report.clauses),
        "applicable": len(applicable),
        "holds": sum(1 for c in applicable if c.holds),
        "failed": sum(1 for c in applicable if c.holds is False),
    }
    return EXIT_MATH if report.hard_failures else EXIT_OK


def _parse_alpha(F, token):
    """An int, a JSON digit list such as [0,1], or else the token itself."""
    try:
        value = json.loads(token) if token.startswith("[") else int(token)
    except ValueError:
        value = token
    return F.parse_scalar(value)


def _cmd_cyclic(args, doc):
    from .cyclic import classify_cyclic
    from .fields import parse_field_name
    from .poly import format_poly
    F = parse_field_name(args.field)
    alphas = [_parse_alpha(F, tok) for tok in args.alphas]
    report = classify_cyclic(F, alphas, budget=args.budget, seed=args.seed)
    doc.update(field=str(F), dim=report.algebra.dim)
    doc["alphas"] = [F.serialize_scalar(a) for a in report.spec.alphas]
    doc["polynomial"] = format_poly(report.polynomial)
    doc["cofactor"] = format_poly(report.cofactor)
    doc["cofactor_factors"] = [{"poly": format_poly(f), "multiplicity": m}
                               for f, m in report.factors]
    doc["is_a"] = report.is_a
    doc["nilpotent"] = report.nilpotent
    doc["monolithic_claim"] = report.monolithic_claim
    doc["frattini_free_claim"] = report.frattini_free_claim
    doc["complement"] = [F.serialize_scalar(c) for c in report.complement]
    doc["normalization_scalar"] = (
        F.serialize_scalar(report.normalization_scalar)
        if report.normalization_scalar is not None else None)
    doc["checks"] = [_clause_doc(c) for c in report.checks]
    doc["ok"] = report.ok
    return EXIT_OK if report.ok else EXIT_MATH


def _cmd_frattini(args, doc):
    L = args.algebra
    phi = frattini_ideal(L, args.budget)
    soc = socle_analysis(L, args.budget)
    doc["frattini"] = _space_doc(L, phi)
    doc["maximal_subalgebra_count"] = len(maximal_subalgebras(L, args.budget))
    doc["socle"] = {
        "minimal_ideal_dims": [I.dim for I in soc.minimal_ideals],
        "abelian_socle_dim": soc.asoc.dim,
        "monolithic": soc.monolithic,
        "monolith_dim": soc.monolith.dim if soc.monolith is not None else None,
    }
    return EXIT_OK


def _cmd_enumerate(args, doc):
    L = args.algebra
    spaces = enumerate_spaces(L, args.kind, args.budget)
    doc["kind"] = args.kind
    doc["subspace_universe"] = total_subspaces(L.dim, L.field.size)
    doc["total"] = len(spaces)
    by_dim = {}
    for U in spaces:
        by_dim[str(U.dim)] = by_dim.get(str(U.dim), 0) + 1
    doc["by_dimension"] = by_dim
    if args.list:
        doc["bases"] = [_space_doc(L, U)["basis"] for U in spaces]
    return EXIT_OK


def _cmd_corpus(args, doc):
    from .aalgebra import theorem_battery
    from .corpus import corpus
    members = corpus()
    if args.limit is not None:
        members = members[:args.limit]
    doc["size"] = len(members)
    rows = []
    failed_members = []
    unknown = 0
    for m in members:
        row = {"label": m.label, "kind": m.kind,
               "field": str(m.algebra.field), "dim": m.algebra.dim}
        if args.battery:
            report = theorem_battery(m.algebra, seed=args.seed,
                                     budget=args.budget)
            row["verdict"] = report.verdict.label
            row["hard_failures"] = list(report.hard_failures)
            row["findings"] = list(report.findings)
            if report.verdict.is_unknown:
                unknown += 1
            if report.hard_failures:
                failed_members.append(m.label)
        rows.append(row)
    doc["members"] = rows
    if args.battery:
        doc["battery"] = {
            "failed_members": failed_members,
            "unknown_verdicts": unknown,
        }
    return EXIT_MATH if failed_members else EXIT_OK


def _render_text(value, key=None, indent=0):
    pad = "  " * indent
    label = f"{key}: " if key is not None else ""
    lines = []
    if isinstance(value, dict):
        if key is not None:
            lines.append(f"{pad}{key}:")
            indent += 1
        for k, v in value.items():
            lines.extend(_render_text(v, k, indent))
    elif isinstance(value, list):
        if all(not isinstance(v, (dict, list)) for v in value):
            lines.append(f"{pad}{label}[{', '.join(str(v) for v in value)}]")
        else:
            lines.append(f"{pad}{key}:" if key is not None else f"{pad}-")
            for i, v in enumerate(value):
                lines.extend(_render_text(v, f"[{i}]", indent + 1))
    else:
        lines.append(f"{pad}{label}{value}")
    return lines


def render(doc, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    return "\n".join(_render_text(doc)) + "\n"


def _output_parser() -> _Parser:
    """The --format and --output options, shared by every subcommand."""
    out = _Parser(add_help=False)
    out.add_argument("--format", choices=("json", "text"), default="text")
    out.add_argument("--output", default=None,
                     help="write the report to this path instead of stdout")
    return out


def _error(kind, exc):
    return {"error": {"type": kind, "message": str(exc)}}


def _count(token):
    value = int(token)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {value}")
    return value


def _option(*flags, **kwargs):
    return flags, kwargs


# command -> (handler, what it reads: an algebra file, one that must satisfy
# the Leibniz identity or nothing, its own options).  A handler takes the
# arguments, with the algebra read as ``args.algebra``, and the report head;
# it fills the report and returns the exit code.
_COMMANDS = {
    "check": (_cmd_check, "file", ()),
    "analyze": (_cmd_analyze, "leibniz", ()),
    "decompose": (_cmd_decompose, "leibniz", ()),
    "a-algebra": (_cmd_a_algebra, "leibniz", ()),
    "battery": (_cmd_battery, "leibniz", ()),
    "frattini": (_cmd_frattini, "leibniz", ()),
    "cyclic": (_cmd_cyclic, None, (
        _option("--field", required=True, help="ground field, e.g. q, gf2, gf(3,2)"),
        _option("alphas", nargs="+", help="alpha_2 ... alpha_n as field literals"))),
    "enumerate": (_cmd_enumerate, "leibniz", (
        _option("--kind", choices=("subspaces", "subalgebras", "ideals"),
                default="subalgebras"),
        _option("--list", action="store_true",
                help="include every echelon basis in the report"))),
    "corpus": (_cmd_corpus, None, (
        _option("--battery", action="store_true",
                help="run the theorem battery over every member"),
        _option("--limit", type=_count, default=None))),
}


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False, parents=[_output_parser()])
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--budget", type=_count, default=DEFAULT_BUDGET)
    parser = _Parser(prog="leibnizalg",
                     description="exact analysis of finite-dimensional "
                                 "Leibniz algebras from structure constants")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, reads, options) in _COMMANDS.items():
        p = sub.add_parser(name, parents=[common])
        if reads:
            p.add_argument("input", help="algebra file (JSON)")
        for flags, kwargs in options:
            p.add_argument(*flags, **kwargs)
    return parser


def run_command(argv):
    """Parse argv and run the subcommand; returns (report dict, exit code)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _ArgumentError as exc:
        return _error("argument", exc), EXIT_INPUT
    handler, reads, _ = _COMMANDS[args.command]
    doc = {"command": args.command, "seed": args.seed, "budget": args.budget}
    try:
        if reads:
            L, digest = _load(args.input)
            if reads == "leibniz":
                L.require_leibniz()
            doc.update(field=str(L.field), dim=L.dim, input_sha256=digest)
            args.algebra = L
        return doc, handler(args, doc)
    except NotLeibniz as exc:
        v = getattr(exc, "violation", None)
        doc = _error("not_leibniz", exc)
        doc["error"]["triple"] = list(v.triple) if v else None
        return doc, EXIT_MATH
    except (ParseError, FieldParseError, BadSpec) as exc:
        doc = _error(type(exc).__name__, exc)
        if getattr(exc, "where", None):
            doc["error"]["where"] = exc.where
        return doc, EXIT_INPUT
    except FileNotFoundError as exc:
        return _error("missing_file", exc), EXIT_INPUT
    except (OSError, UnicodeDecodeError) as exc:
        return _error("unreadable_file", exc), EXIT_INPUT
    except LeibnizError as exc:
        return _error(type(exc).__name__, exc), EXIT_UNSUPPORTED


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        opts, _ = _output_parser().parse_known_args(argv)
    except _ArgumentError as exc:
        # with no valid --format or --output, the error goes to stdout as text
        sys.stdout.write(render(_error("argument", exc), "text"))
        return EXIT_INPUT
    try:
        out = open(opts.output, "w", encoding="utf-8") if opts.output else sys.stdout
    except OSError as exc:
        sys.stdout.write(render(_error("unwritable_output", exc), opts.format))
        return EXIT_INPUT
    doc, code = run_command(argv)
    out.write(render(doc, opts.format))
    if out is not sys.stdout:
        out.close()
    return code


if __name__ == "__main__":
    sys.exit(main())
