"""Golden CLI outputs: a fixed battery of calls replayed against recorded files.

Each group of calls writes its input model files to a temporary directory,
runs ``curveindex.cli.main`` in-process and renders, per call, the argv, the
exit code, stdout, stderr and every file the call wrote (``--out``, ``--dot``,
``--emit-dot``).  The temporary directory is written as ``<tmp>``.  The
rendering of a group must equal ``tests/golden/<group>.txt`` byte for byte.
The ``parser`` group pins the ``--help`` text of every parser and one usage
error per subcommand, at a terminal width of 80 columns; each of those calls
must also print what the full :func:`curveindex.cli.build_parser` prints.

The files are meant to change only when an output change is intended; to
re-record them, run ``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import io
import json
import os
import random
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from conftest import (
    circulant_model,
    corrupted_two_cycle_model,
    flipped_path_model,
    loop_at_fixed_vertex_model,
    single_edge_swap_model,
    weighted_model,
)
from curveindex.action import CyclicAction, lift_voltage_graph, map_power
from curveindex.cli import build_parser, main
from curveindex.constructions import as_model, construct, cycle_model
from curveindex.invariants import divisors
from curveindex.multigraph import MultiGraph
from curveindex.serialize import model_to_obj

GOLDEN = Path(__file__).resolve().parent / "golden"
CIRCULANT_SEED = 7
CIRCULANTS = [(12, 1), (12, 2), (14, 2), (18, 3), (20, 4)]  # (I, k): translation by k on Z/I


def voltage_lift_model():
    quotient = MultiGraph.build(
        ["q0", "q1"], [("w0", "q0", "q1"), ("w1", "q0", "q1"), ("w2", "q1", "q1"), ("w3", "q0", "q0")]
    )
    graph, action = lift_voltage_graph(quotient, {"w1": 1, "w2": 2, "w3": 3}, 6)
    return as_model(graph, action)


def valid_models():
    rng = random.Random(CIRCULANT_SEED)
    models = {f"construct_{g}_{i}": construct(g, i) for g, i in [(0, 1), (0, 2), (3, 1), (1, 7), (4, 6), (7, 3), (5, 4)]}
    models.update({f"circulant_{order}_{k}": circulant_model(order, k, rng) for order, k in CIRCULANTS})
    models.update({
        "voltage_lift": voltage_lift_model(),
        "weighted": weighted_model(),
        "edge_swap": single_edge_swap_model(),
        "fixed_loop": loop_at_fixed_vertex_model(),
        "flipped_path": flipped_path_model(),
        "corrupted_two_cycle": corrupted_two_cycle_model(),
    })
    return models


def invalid_models():
    """Model documents that load must reject: a broken order law and a broken bijection."""
    graph, action = cycle_model(4)
    # Rotation by 3 declared at order 2: its cycles run 0 -> 3 -> 2 -> 1, against the key order.
    step3 = CyclicAction(2, map_power(action.vertex_map, 3), map_power(action.edge_map, 3))
    bad_order = model_to_obj(as_model(graph, step3, claimed=(1, 2)))
    bad_bijection = model_to_obj(construct(4, 6))
    bad_bijection["action"]["vertex_map"]["1"] = "1"  # "2" is no longer hit
    return {"invalid_order": bad_order, "invalid_bijection": bad_bijection}


def model_calls(m):
    divs = divisors(m.action.order)
    calls = [
        ["index", "{m}"],
        ["index", "{m}", "--json"],
        ["splitting", "{m}"],
        ["splitting", "{m}", "--m-invariant"],
        ["splitting", "{m}", "--json"],
        ["splitting", "{m}", "--m-invariant", "--json"],
        ["check", "{m}"],
        ["check", "{m}", "--residue-q", "2", "--json"],
        ["check", "{m}", "--residue-q", "3"],
        ["check", "{m}", "--residue-q", "2", "--mode", "weak"],
        ["verify", "--model", "{m}"],
        ["verify", "--model", "{m}", "--e-max", "4", "--residue-q", "2", "--residue-q", "inf", "--json"],
        ["verify", "--model", "{m}", "--e-max", "3", "--out", "{tmp}/report.txt"],
    ]
    for d in sorted({divs[0], divs[len(divs) // 2], divs[-1]}):
        calls += [["oracle", "{m}", "--d", str(d), "--e", str(e)] for e in (1, 2, 3)]
    calls.append(["oracle", "{m}", "--d", str(divs[0]), "--e", "2", "--json", "--emit-dot", "{tmp}/blown.dot"])
    calls.append(["oracle", "{m}", "--d", str(divs[-1] + 1), "--e", "1"])
    return calls


INVALID_CALLS = [
    ["index", "{m}"],
    ["splitting", "{m}", "--m-invariant", "--json"],
    ["check", "{m}", "--residue-q", "2"],
    ["oracle", "{m}", "--d", "1", "--e", "2"],
    ["verify", "--model", "{m}"],
    ["verify", "--model", "{m}", "--json"],
]

COMMAND_CALLS = [
    ["construct", "--genus", "4", "--index", "6"],
    ["construct", "--genus", "7", "--index", "3", "--out", "{tmp}/m.json"],
    ["construct", "--genus", "1", "--index", "7", "--out", "{tmp}/m.json", "--dot", "{tmp}/m.dot"],
    ["construct", "--genus", "5", "--index", "4", "--dot", "{tmp}/m.dot"],
    ["construct", "--genus", "3", "--index", "1", "--dot", "{tmp}/m.dot"],
    ["construct", "--genus", "2", "--index", "3"],
    ["construct", "--genus", "-1", "--index", "1"],
    ["mtheorem", "--genus", "4", "--index", "6", "--d", "3", "--e", "2"],
    ["mtheorem", "--genus", "4", "--index", "6", "--d", "3", "--e", "1", "--json"],
    ["mtheorem", "--genus", "4", "--index", "6", "--d", "3", "--e", "2", "--case", "Case1"],
    ["mtheorem", "--genus", "4", "--index", "6", "--d", "4", "--e", "2"],
    ["mtheorem", "--genus", "3", "--index", "3", "--d", "1", "--e", "1"],
    ["verify", "--genus-max", "3"],
    ["verify", "--genus-max", "3", "--e-max", "3", "--residue-q", "2", "--json"],
    ["verify", "--genus-max", "2", "--genus-one-cap", "3", "--out", "{tmp}/report.txt"],
    ["index", "{tmp}/missing.json"],
    ["splitting", "{tmp}/not_json.json"],
    ["verify", "--model", "{tmp}/empty_graph.json"],
]

COMMANDS = ["construct", "verify", "index", "splitting", "mtheorem", "oracle", "check"]

# Usage errors avoid choice arguments: how argparse quotes the offered choices differs between Python versions.
PARSER_CALLS = [["--help"], []] + [[command, "--help"] for command in COMMANDS] + [
    ["construct", "--genus", "four", "--index", "6"],
    ["verify", "--residue-q", "1"],
    ["index"],
    ["splitting", "{m}", "--bogus"],
    ["mtheorem", "--genus", "4", "--index", "6", "--d", "3"],
    ["oracle", "{m}", "--d", "x", "--e", "2"],
    ["check", "{m}", "--residue-q", "zero"],
]


def groups():
    """Group name -> (input files, argv templates), ``{m}`` naming the group's model file."""
    out = {}
    for name, m in valid_models().items():
        out[name] = ({"model.json": json.dumps(model_to_obj(m), indent=2, sort_keys=True) + "\n"}, model_calls(m))
    for name, obj in invalid_models().items():
        out[name] = ({"model.json": json.dumps(obj, indent=2, sort_keys=True) + "\n"}, INVALID_CALLS)
    out["commands"] = (
        {"not_json.json": "{not json", "empty_graph.json": '{"graph": {"vertices": [], "edges": []}}'},
        COMMAND_CALLS,
    )
    out["parser"] = ({}, PARSER_CALLS)
    return out


def captured(call, argv):
    """Exit code, stdout and stderr of ``call(argv)`` at 80 columns; argparse exits on ``--help`` and usage errors."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), mock.patch.dict(os.environ, COLUMNS="80"):
        try:
            code = call(argv)
        except SystemExit as stop:
            code = stop.code
    return code, out.getvalue(), err.getvalue()


def render_group(inputs, calls, tmp: Path) -> str:
    tmp_text = str(tmp)
    for fname, text in inputs.items():
        (tmp / fname).write_text(text, encoding="utf-8")
    lines = [f"=== input {fname}\n{text}" for fname, text in inputs.items()]
    for template in calls:
        argv = [a.format(m=f"{tmp_text}/model.json", tmp=tmp_text) for a in template]
        before = {p.name for p in tmp.iterdir()}
        code, out, err = captured(main, argv)
        written = sorted(p for p in tmp.iterdir() if p.name not in before)
        block = [f"=== $ curveindex {' '.join(argv)}", f"exit {code}", "--- stdout", out, "--- stderr", err]
        for p in written:
            block += [f"--- file {p}", p.read_text(encoding="utf-8")]
            p.unlink()
        lines.append("\n".join(block))
    return "\n".join(lines).replace(tmp_text, "<tmp>")


GROUPS = groups()


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_golden_output(name, tmp_path):
    inputs, calls = GROUPS[name]
    want = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert render_group(inputs, calls, tmp_path) == want


@pytest.mark.parametrize("template", PARSER_CALLS, ids=lambda t: " ".join(t) or "no-command")
def test_help_and_usage_errors_are_the_full_parsers(template, tmp_path):
    argv = [a.format(m=tmp_path / "model.json") for a in template]
    code, out, err = captured(main, argv)
    assert (code, out, err) == captured(build_parser().parse_args, argv)
    assert (code, bool(out), bool(err)) == ((0, True, False) if "--help" in argv else (2, False, True))


def test_parser_calls_cover_every_subcommand():
    _, out, _ = captured(main, ["--help"])
    assert "{" + ",".join(COMMANDS) + "}" in out


def test_golden_files_all_replayed():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(GROUPS)


def record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for old in GOLDEN.glob("*.txt"):
        old.unlink()
    for name, (inputs, calls) in sorted(GROUPS.items()):
        with tempfile.TemporaryDirectory() as tmp:
            text = render_group(inputs, calls, Path(tmp))
        (GOLDEN / f"{name}.txt").write_text(text, encoding="utf-8")
        print(f"recorded {name}: {len(calls)} calls")


if __name__ == "__main__":
    record()
