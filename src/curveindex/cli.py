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
from pathlib import Path

from . import multigraph
from .action import cycles
from .blowup import oracle_splits
from .constructions import check_realizability, construct
from .invariants import (
    Case,
    ExtensionSpec,
    index,
    main_theorem_prediction,
    splitting_report,
)
from .multigraph import euler_characteristic
from .serialize import load_model, save_model, dumps_model
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


def cmd_construct(args) -> int:
    model = construct(args.genus, args.index)
    if args.out:
        save_model(model, args.out)
        print(f"model written to {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(dumps_model(model))
    if args.dot:
        Path(args.dot).write_text(
            multigraph.to_dot(model.graph, _orbit_attrs(model), name="model"), encoding="utf-8"
        )
        print(f"dot written to {args.dot}", file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    qs = tuple(args.residue_q) if args.residue_q else (math.inf,)
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
    payload = dumps_report(report) if args.json else render_report(report)
    if args.out:
        Path(args.out).write_text(payload, encoding="utf-8")
    else:
        sys.stdout.write(payload)
    return 0 if report.passed else 1


def cmd_index(args) -> int:
    model = load_model(args.model)
    value = index(model)
    print(json.dumps({"index": value}) if args.json else value)
    return 0


def cmd_splitting(args) -> int:
    model = load_model(args.model)
    report = splitting_report(model)
    if args.json:
        obj = {
            "index": report.index,
            "case": report.case.value,
            "table": table_obj(report.table),
        }
        if args.m_invariant:
            obj["m_invariant"] = report.m_invariant
        print(json.dumps(obj, indent=2))
    else:
        print(f"index: {report.index}")
        print(f"case:  {report.case.value}")
        if args.m_invariant:
            print(f"m-invariant: {report.m_invariant}")
        print("   d  e=1  e=2")
        for d in sorted({d for d, _ in report.table}):
            row = [("yes" if report.table[(d, e)] else "no").ljust(4) for e in (1, 2)]
            print(f"  {d:>2}  {row[0]} {row[1]}")
    return 0


def cmd_mtheorem(args) -> int:
    case = Case(args.case) if args.case else expected_case(args.genus, args.index)
    verdict = main_theorem_prediction(args.genus, args.index, ExtensionSpec(args.d, args.e), case)
    print(json.dumps({"splits": verdict, "case": case.value}) if args.json else ("yes" if verdict else "no"))
    return 0


def cmd_oracle(args) -> int:
    model = load_model(args.model)
    verdict = oracle_splits(model, ExtensionSpec(args.d, args.e))
    graph = multigraph.subdivide(model.graph, args.e)
    if args.emit_dot:
        Path(args.emit_dot).write_text(multigraph.to_dot(graph, name="blowup"), encoding="utf-8")
    summary = {
        "d": args.d,
        "e": args.e,
        "vertices": len(graph.vertices),
        "edges": len(graph.edges),
        "euler": euler_characteristic(graph),
        "splits": verdict,
    }
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        print(
            f"blowup (d={args.d}, e={args.e}): {summary['vertices']} vertices, "
            f"{summary['edges']} edges, chi={summary['euler']}"
        )
        print(f"splits: {'yes' if verdict else 'no'}")
    return 0


def cmd_check(args) -> int:
    model = load_model(args.model)
    report = check_realizability(model, args.residue_q, args.mode)
    if args.json:
        obj = {
            "passed": report.passed,
            "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail} for c in report.checks],
        }
        print(json.dumps(obj, indent=2))
    else:
        for c in report.checks:
            line = f"{'ok  ' if c.passed else 'FAIL'} {c.name}"
            if c.detail:
                line += f" ({c.detail})"
            print(line)
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curveindex",
        description="Dual graphs with cyclic actions: construct models, compute the "
        "index and splitting classification, and verify them against a blowup oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build the model for a (genus, index) pair")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--out", help="write the model JSON here (default: stdout)")
    p.add_argument("--dot", help="also write DOT with vertices colored by orbit")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="verify the classification over a genus range")
    p.add_argument("--genus-max", type=int, default=12)
    p.add_argument("--e-max", type=int, default=6, help="largest ramification index checked (at least 1)")
    p.add_argument("--genus-one-cap", type=int, default=None,
                   help="largest index checked at genus 1 (default 2*genus_max + 2)")
    p.add_argument("--residue-q", type=_parse_q, action="append", default=None,
                   metavar="Q", help="residue cardinality to check (int or 'inf'; repeatable)")
    p.add_argument("--model", help="verify one model file instead of the grid")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("index", help="index of a model file")
    p.add_argument("model")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("splitting", help="splitting table of a model file")
    p.add_argument("model")
    p.add_argument("--m-invariant", action="store_true",
                   help="also report the least splitting degree (finite residue field)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_splitting)

    p = sub.add_parser("mtheorem", help="closed-form predicted verdict for (genus, index, d, e)")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--case", choices=[c.value for c in Case], default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_mtheorem)

    p = sub.add_parser("oracle", help="blowup-oracle verdict for a model file and (d, e)")
    p.add_argument("model")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--emit-dot", help="write the subdivided graph as DOT")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("check", help="realizability checks for a model file")
    p.add_argument("model")
    p.add_argument("--residue-q", type=_parse_q, default=math.inf, metavar="Q")
    p.add_argument("--mode", choices=["full", "weak"], default="full")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
