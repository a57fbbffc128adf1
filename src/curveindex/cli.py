"""Command-line surface.

Exit codes: 0 success/verified, 1 mathematical disagreement or failed check,
2 invalid input (unparseable model, inadmissible parameters, unwritable
output path), which :func:`main` alone maps from ``ValueError`` and ``OSError``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Iterable
from functools import cache

from . import multigraph
from .action import cycles
from .blowup import MAX_WORK, oracle_splits
from .constructions import check_realizability, construct
from .invariants import (
    Case,
    ExtensionSpec,
    index,
    main_theorem_prediction,
    splitting_report,
)
from .serialize import _model_sections, load_model
from .verify import (
    check_model,
    dumps_report,
    expected_case,
    render_report,
    run_verification,
    table_obj,
    VerificationReport,
)

# DOT colorscheme with 12 entries; orbit colors repeat past that.
_ORBIT_COLORS = 12


def _parse_q(text: str) -> int | float:
    if text.lower() in ("inf", "infinity"):
        return math.inf
    try:
        q = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"residue cardinality must be an integer or 'inf', got {text!r}")
    if q < 2:
        raise argparse.ArgumentTypeError(f"residue cardinality must be at least 2, got {q}")
    return q


def _orbit_attrs(m) -> dict[str, dict[str, str]]:
    gen = m.action.vertex_map
    orbits = cycles({v: gen[v] for v in m.graph.vertices})
    orbit_of = {v: i for i, orbit in enumerate(orbits) for v in orbit}
    return {
        v: {
            "style": "filled",
            "colorscheme": "set312",
            "fillcolor": str(orbit_of[v] % _ORBIT_COLORS + 1),
            "orbit": str(orbit_of[v]),
        }
        for v in m.graph.vertices
    }


def _emit(args, obj, lines: list[str], indent: int | None = 2) -> None:
    """Print a report: ``obj`` as JSON under ``--json``, else its text ``lines``."""
    print(json.dumps(obj, indent=indent) if args.json else "\n".join(lines))


def _write(path: str | None, chunks: Iterable[str]) -> None:
    """Write ``chunks`` one by one to the file at ``path``, or to stdout when there is no path."""
    if path:
        with open(path, "w", encoding="utf-8") as out:
            out.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def cmd_construct(args) -> int:
    model = construct(args.genus, args.index)
    _write(args.out, _model_sections(model))
    if args.out:
        print(f"model written to {args.out}", file=sys.stderr)
    if args.dot:
        _write(args.dot, [multigraph.to_dot(model.graph, _orbit_attrs(model), name="model")])
        print(f"dot written to {args.dot}", file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    qs = tuple(dict.fromkeys(args.residue_q)) if args.residue_q else (math.inf,)
    if args.model:
        cell = check_model(load_model(args.model), e_max=args.e_max, residue_cardinalities=qs)
        report = VerificationReport((cell,), args.e_max, qs)
    else:
        report = run_verification(
            genus_max=args.genus_max,
            e_max=args.e_max,
            residue_cardinalities=qs,
            genus_one_cap=args.genus_one_cap,
        )
    _write(args.out, [dumps_report(report) if args.json else render_report(report)])
    return 0 if report.passed else 1


def cmd_index(args) -> int:
    model = load_model(args.model)
    value = index(model)
    _emit(args, {"index": value}, [str(value)], indent=None)
    return 0


def cmd_splitting(args) -> int:
    model = load_model(args.model)
    report = splitting_report(model)
    obj = {
        "index": report.index,
        "case": report.case,
        "table": table_obj(report.table),
    }
    lines = [f"index: {report.index}", f"case:  {report.case}"]
    if args.m_invariant:
        obj["m_invariant"] = report.m_invariant
        lines.append(f"m-invariant: {report.m_invariant}")
    lines.append("   d  e=1  e=2")
    for d in sorted({d for d, _ in report.table}):
        row = [("yes" if report.table[(d, e)] else "no").ljust(4) for e in (1, 2)]
        lines.append(f"  {d:>2}  {row[0]} {row[1]}")
    _emit(args, obj, lines)
    return 0


def cmd_mtheorem(args) -> int:
    case = args.case or expected_case(args.genus, args.index)
    verdict = main_theorem_prediction(args.genus, args.index, ExtensionSpec(args.d, args.e), case)
    _emit(args, {"splits": verdict, "case": case}, ["yes" if verdict else "no"], indent=None)
    return 0


def cmd_oracle(args) -> int:
    model = load_model(args.model)
    verdict = oracle_splits(model, ExtensionSpec(args.d, args.e))
    n_v, n_e = len(model.graph.vertices), len(model.graph.edges)
    chain = (args.e - 1) * n_e  # the subdivision's chain vertices
    if args.emit_dot:
        # a d that fixes a vertex lays out no chains in the oracle, so the drawing is bounded here
        if chain > MAX_WORK:
            raise ValueError(f"the drawing would hold {chain} chain vertices; the limit is {MAX_WORK}")
        graph = multigraph.subdivide(model.graph, args.e)
        _write(args.emit_dot, [multigraph.to_dot(graph, name="blowup")])
    summary = {
        "d": args.d,
        "e": args.e,
        "vertices": n_v + chain,
        "edges": args.e * n_e,
        "euler": n_v - n_e,
        "splits": verdict,
    }
    head = "blowup (d={d}, e={e}): {vertices} vertices, {edges} edges, chi={euler}".format_map(summary)
    _emit(args, summary, [head, f"splits: {'yes' if verdict else 'no'}"])
    return 0


def cmd_check(args) -> int:
    model = load_model(args.model)
    report = check_realizability(model, args.residue_q, args.mode)
    obj = {
        "passed": report.passed,
        "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail} for c in report.checks],
    }
    lines = [f"{'ok  ' if c.passed else 'FAIL'} {c.name}" + (f" ({c.detail})" if c.detail else "")
             for c in report.checks]
    _emit(args, obj, lines)
    return 0 if report.passed else 1


def _arg(*flags, **options):
    return flags, options


_JSON = _arg("--json", action="store_true")
_MODEL = _arg("model")

# The one description of the command line: name -> (help, handler, the
# (flags, keywords) of each ``add_argument`` call).
COMMANDS = {
    "construct": ("build the model for a (genus, index) pair", cmd_construct, (
        _arg("--genus", type=int, required=True),
        _arg("--index", type=int, required=True),
        _arg("--out", help="write the model JSON here (default: stdout)"),
        _arg("--dot", help="also write DOT with vertices colored by orbit"),
    )),
    "verify": ("verify the classification over a genus range", cmd_verify, (
        _arg("--genus-max", type=int, default=12),
        _arg("--e-max", type=int, default=6, help="largest ramification index checked (at least 1)"),
        _arg("--genus-one-cap", type=int, default=None,
             help="largest index checked at genus 1 (default 2*genus_max + 2)"),
        _arg("--residue-q", type=_parse_q, action="append", default=None,
             metavar="Q", help="residue cardinality to check (int or 'inf'; repeatable)"),
        _arg("--model", help="verify one model file instead of the grid"),
        _JSON,
        _arg("--out", help="write the report here instead of stdout"),
    )),
    "index": ("index of a model file", cmd_index, (_MODEL, _JSON)),
    "splitting": ("splitting table of a model file", cmd_splitting, (
        _MODEL,
        _arg("--m-invariant", action="store_true",
             help="also report the least splitting degree (finite residue field)"),
        _JSON,
    )),
    "mtheorem": ("closed-form predicted verdict for (genus, index, d, e)", cmd_mtheorem, (
        _arg("--genus", type=int, required=True),
        _arg("--index", type=int, required=True),
        _arg("--d", type=int, required=True),
        _arg("--e", type=int, required=True),
        _arg("--case", choices=(Case.CASE1, Case.CASE2), default=None),
        _JSON,
    )),
    "oracle": ("blowup-oracle verdict for a model file and (d, e)", cmd_oracle, (
        _MODEL,
        _arg("--d", type=int, required=True),
        _arg("--e", type=int, required=True),
        _arg("--emit-dot", help="write the subdivided graph as DOT"),
        _JSON,
    )),
    "check": ("realizability checks for a model file", cmd_check, (
        _MODEL,
        _arg("--residue-q", type=_parse_q, default=math.inf, metavar="Q"),
        _arg("--mode", choices=["full", "weak"], default="full"),
        _JSON,
    )),
}


def build_parser(commands=COMMANDS) -> argparse.ArgumentParser:
    """The top-level parser with the subparsers of ``commands`` (default: all of :data:`COMMANDS`)."""
    parser = argparse.ArgumentParser(
        prog="curveindex",
        description="Dual graphs with cyclic actions: construct models, compute the "
        "index and splitting classification, and verify them against a blowup oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in commands:
        help_text, func, arguments = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for flags, options in arguments:
            p.add_argument(*flags, **options)
        p.set_defaults(func=func)
    return parser


@cache
def _parser(command: str | None) -> argparse.ArgumentParser:
    """The parser with only ``command``'s subparser, or the full one for ``None``.

    Built once per process and shared by every later call, so nothing may change it after it is built.
    """
    return build_parser(COMMANDS if command is None else (command,))


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # Only the named command's subparser is built, once per process.  The full parser,
    # whose usage lists every command, answers help, a missing or unknown command and leftovers.
    args, extra = _parser(argv[0] if argv and argv[0] in COMMANDS else None).parse_known_args(argv)
    if extra:
        _parser(None).parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
