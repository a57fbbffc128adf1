import argparse
import json
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import chain_name_clash_model, circulant_model, corrupted_two_cycle_model
from curveindex.action import CyclicAction
from curveindex.blowup import oracle_table
from curveindex.cli import COMMANDS, _parser, main
from curveindex.constructions import CurveModel, as_model, construct
from curveindex.invariants import divisors
from curveindex.multigraph import MultiGraph, euler_characteristic
from curveindex.serialize import MAX_DECODE_ITEMS, MAX_FILE_BYTES, load_model, save_model


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def exit_and_output(capsys, call):
    """Exit code, stdout and stderr of ``call()``; argparse exits on ``--help`` and usage errors."""
    try:
        code = call()
    except SystemExit as stop:
        code = stop.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_construct_writes_model(tmp_path, capsys):
    path = tmp_path / "m.json"
    code, out, _ = run(capsys, "construct", "--genus", "4", "--index", "6", "--out", str(path))
    assert code == 0
    model = load_model(path)
    assert len(model.graph.vertices) == 6 and len(model.graph.edges) == 9
    assert model == construct(4, 6)


def test_construct_stdout_and_dot(tmp_path, capsys):
    dot = tmp_path / "m.dot"
    code, out, _ = run(capsys, "construct", "--genus", "1", "--index", "7", "--dot", str(dot))
    assert code == 0
    obj = json.loads(out)
    assert len(obj["graph"]["vertices"]) == 7
    text = dot.read_text()
    assert "label=" in text and "fillcolor=" in text


def test_construct_rejects_inadmissible(capsys):
    code, _, err = run(capsys, "construct", "--genus", "2", "--index", "3")
    assert code == 2
    assert "divide" in err


def test_index_command(tmp_path, capsys):
    path = tmp_path / "m.json"
    save_model(construct(7, 3), path)
    code, out, _ = run(capsys, "index", str(path))
    assert code == 0 and out.strip() == "3"
    code, out, _ = run(capsys, "index", str(path), "--json")
    assert json.loads(out) == {"index": 3}


def test_splitting_command(tmp_path, capsys):
    path = tmp_path / "m.json"
    save_model(construct(0, 2), path)
    code, out, _ = run(capsys, "splitting", str(path), "--json", "--m-invariant")
    assert code == 0
    obj = json.loads(out)
    assert obj["index"] == 2 and obj["case"] == "Case2" and obj["m_invariant"] == 2
    cells = {(row["d"], row["e"]): row["splits"] for row in obj["table"]}
    assert cells[(1, 2)] is True and cells[(1, 1)] is False
    code, out, _ = run(capsys, "splitting", str(path))
    assert "index: 2" in out and "yes" in out
    assert "m-invariant" not in out  # printed only on request
    code, out, _ = run(capsys, "splitting", str(path), "--json")
    assert "m_invariant" not in json.loads(out)


def test_mtheorem_command(capsys):
    code, out, _ = run(capsys, "mtheorem", "--genus", "3", "--index", "4", "--d", "2", "--e", "2")
    assert code == 0 and out.strip() == "yes"
    code, out, _ = run(capsys, "mtheorem", "--genus", "3", "--index", "4", "--d", "2", "--e", "1", "--json")
    assert json.loads(out) == {"splits": False, "case": "Case2"}


@pytest.mark.parametrize(
    "genus, index, message",
    [
        ("4", "0", "order must be positive, got 0"),
        ("4", "-6", "order must be positive, got -6"),
        ("-3", "2", "genus must be non-negative, got -3"),
        ("-3", "-2", "genus must be non-negative, got -3"),
    ],
    ids=["index-zero", "index-negative", "genus-negative", "both-negative"],
)
@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_mtheorem_rejects_a_bad_genus_or_index(capsys, genus, index, message, json_flag):
    code, out, err = run(capsys, "mtheorem", "--genus", genus, "--index", index, "--d", "1", "--e", "1", *json_flag)
    assert code == 2 and out == ""
    assert err.splitlines() == [f"error: {message}"]


def test_oracle_command(tmp_path, capsys):
    path = tmp_path / "m.json"
    save_model(construct(4, 6), path)
    dot = tmp_path / "blown.dot"
    code, out, _ = run(
        capsys, "oracle", str(path), "--d", "3", "--e", "4", "--json", "--emit-dot", str(dot)
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["splits"] is True
    assert obj["vertices"] == 6 + 9 * 3 and obj["edges"] == 9 * 4
    assert dot.read_text().startswith("graph blowup {")


def test_oracle_command_answers_with_the_oracle_table(tmp_path, capsys, model_pool):
    rng = random.Random(5)
    path = tmp_path / "m.json"
    for m in model_pool[:20] + [circulant_model(24, 1, rng), circulant_model(30, 2, rng)]:
        save_model(m, path)
        table = oracle_table(m, 4)
        n, k = len(m.graph.vertices), len(m.graph.edges)
        for d in divisors(m.action.order):
            for e in range(1, 5):
                code, out, _ = run(capsys, "oracle", str(path), "--d", str(d), "--e", str(e), "--json")
                assert code == 0
                assert json.loads(out) == {
                    "d": d, "e": e, "vertices": n + k * (e - 1), "edges": k * e,
                    "euler": euler_characteristic(m.graph), "splits": table[(d, e)],
                }


def test_text_and_json_reports_agree(tmp_path, capsys, model_pool):
    """Each report states the same facts, and exits the same way, with and without ``--json``."""
    path = tmp_path / "m.json"

    def both(*argv):
        code, text, _ = run(capsys, *argv, str(path))
        json_code, out, _ = run(capsys, *argv, str(path), "--json")
        assert code == json_code
        return code, text.splitlines(), json.loads(out)

    for m in model_pool:
        save_model(m, path)
        _, text, obj = both("splitting", "--m-invariant")
        assert text[:4] == [
            f"index: {obj['index']}", f"case:  {obj['case']}", f"m-invariant: {obj['m_invariant']}", "   d  e=1  e=2"
        ]
        rows = {(row["d"], row["e"]): row["splits"] for row in obj["table"]}
        assert [line.split() for line in text[4:]] == [
            [str(d), *("yes" if rows[d, e] else "no" for e in (1, 2))] for d in sorted({d for d, _ in rows})
        ]
        _, text, index_obj = both("index")
        assert text == [str(obj["index"])] and index_obj == {"index": obj["index"]}
        code, text, obj = both("check", "--residue-q", "2")
        assert code == (0 if obj["passed"] else 1)
        assert [line[:4] for line in text] == ["ok  " if c["passed"] else "FAIL" for c in obj["checks"]]
        assert [line[5:] for line in text] == [c["name"] + (f" ({c['detail']})" if c["detail"] else "")
                                               for c in obj["checks"]]
        _, text, obj = both("oracle", "--d", str(m.action.order), "--e", "2")
        assert text == [
            f"blowup (d={obj['d']}, e=2): {obj['vertices']} vertices, {obj['edges']} edges, chi={obj['euler']}",
            f"splits: {'yes' if obj['splits'] else 'no'}",
        ]


def test_check_command(tmp_path, capsys):
    path = tmp_path / "m.json"
    save_model(construct(3, 1), path)
    code, out, _ = run(capsys, "check", str(path), "--residue-q", "2", "--mode", "weak")
    assert code == 0 and "ok" in out
    code, out, _ = run(capsys, "check", str(path), "--residue-q", "2", "--mode", "full")
    assert code == 1 and "FAIL" in out


def test_check_infinite_residue(tmp_path, capsys):
    path = tmp_path / "m.json"
    save_model(construct(5, 8), path)
    code, out, _ = run(capsys, "check", str(path), "--residue-q", "inf", "--json")
    assert code == 0 and json.loads(out)["passed"] is True


def test_repeated_residue_cardinality_is_checked_once(tmp_path, capsys):
    # the theta graph under the trivial action: no fixed vertex of degree <= 2, so q = 2 fails
    theta = MultiGraph.build(["a", "b"], [(x, "a", "b") for x in "xyz"])
    path = tmp_path / "theta.json"
    save_model(as_model(theta, CyclicAction(1, {"a": "a", "b": "b"}, {x: x for x in "xyz"})), path)
    argv = ["verify", "--model", str(path), "--residue-q", "2", "--residue-q", "2", "--residue-q", "inf"]
    code, out, _ = run(capsys, *argv, "--residue-q", "infinity", "--json")
    report = json.loads(out)
    assert code == 1 and report["residue_cardinalities"] == [2, "inf"]
    assert report["cells"][0]["realizability"] == {"2": False, "inf": True}
    failure = "realizability(q=2, weak) failed: point-supply: no fixed vertex of degree <= 2"
    assert report["cells"][0]["failures"] == [failure]
    code, out, _ = run(capsys, *argv)
    assert code == 1 and out.count(failure) == 1


def test_verify_small_grid(capsys):
    code, out, _ = run(capsys, "verify", "--genus-max", "4", "--e-max", "4")
    assert code == 0
    assert "cells verified" in out and "FAIL" not in out


def test_verify_json_report(capsys):
    code, out, _ = run(capsys, "verify", "--genus-max", "2", "--json")
    obj = json.loads(out)
    assert code == 0 and obj["passed"] is True
    assert all(cell["passed"] for cell in obj["cells"])


def test_verify_single_model_file(tmp_path, capsys):
    path = tmp_path / "m.json"
    save_model(construct(4, 6), path)
    code, out, _ = run(capsys, "verify", "--model", str(path))
    assert code == 0


def test_verify_flags_corrupted_model(tmp_path, capsys):
    path = tmp_path / "bad.json"
    save_model(corrupted_two_cycle_model(), path)
    code, out, _ = run(capsys, "verify", "--model", str(path))
    assert code == 1
    assert "case" in out or "prediction" in out


def test_verify_inadmissible_claim_is_failed_check(tmp_path, capsys):
    m = construct(1, 4)
    path = tmp_path / "claim.json"
    save_model(CurveModel(m.graph, m.action, m.components, claimed=(4, 4)), path)
    code, out, err = run(capsys, "verify", "--model", str(path))
    assert code == 1 and err == ""
    assert "order 4 does not divide 2*genus - 2 = 6" in out and "0/1 cells verified" in out
    code, out, _ = run(capsys, "verify", "--model", str(path), "--json")
    assert code == 1
    assert json.loads(out)["cells"][0]["prediction_ok"] is False


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "--genus", "4", "--index", "6", "--out", "{bad}"],
        ["construct", "--genus", "4", "--index", "6", "--dot", "{bad}"],
        ["verify", "--genus-max", "1", "--out", "{bad}"],
        ["verify", "--model", "{m}", "--json", "--out", "{bad}"],
        ["oracle", "{m}", "--d", "1", "--e", "2", "--emit-dot", "{bad}"],
    ],
    ids=["construct-out", "construct-dot", "verify-out", "verify-model-out", "oracle-emit-dot"],
)
def test_unwritable_output_is_input_error(tmp_path, capsys, argv):
    path = tmp_path / "m.json"
    save_model(construct(4, 6), path)
    bad = tmp_path / "missing" / "out.txt"
    code, _, err = run(capsys, *[a.format(m=path, bad=bad) for a in argv])
    assert code == 2
    errors = [line for line in err.splitlines() if line.startswith("error: ")]
    assert len(errors) == 1 and "Traceback" not in err
    assert not bad.parent.exists()


def test_chain_names_avoid_user_vertex_ids(tmp_path, capsys):
    path = tmp_path / "clash.json"
    save_model(chain_name_clash_model(), path)
    code, out, _ = run(capsys, "verify", "--model", str(path))
    assert code == 0 and "1/1 cells verified" in out
    code, out, _ = run(capsys, "oracle", str(path), "--d", "1", "--e", "2")
    assert code == 0 and "3 vertices" in out and "splits: yes" in out


def test_negative_genus_max_is_input_error(capsys):
    code, out, err = run(capsys, "verify", "--genus-max", "-1")
    assert code == 2 and out == "" and err.startswith("error: ")


def test_negative_genus_one_cap_is_input_error(capsys):
    code, out, err = run(capsys, "verify", "--genus-max", "2", "--genus-one-cap", "-3")
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: genus_one_cap must be non-negative, got -3"]
    code, out, _ = run(capsys, "verify", "--genus-max", "2", "--genus-one-cap", "0")
    assert code == 0 and "4/4 cells verified" in out


@pytest.mark.parametrize(
    "argv",
    [["verify", "--genus-max", "2", "--e-max", "-1"], ["verify", "--model", "{m}", "--json", "--e-max", "0"]],
    ids=["grid", "model"],
)
def test_e_max_below_one_is_input_error(tmp_path, capsys, argv):
    path = tmp_path / "m.json"
    save_model(construct(4, 6), path)
    code, out, err = run(capsys, *[a.replace("{m}", str(path)) for a in argv])
    assert code == 2 and out == ""
    assert err.splitlines() == [f"error: e_max must be at least 1, got {argv[-1]}"]


@pytest.mark.parametrize(
    "argv",
    [["check", "{m}", "--residue-q", "1"], ["verify", "--model", "{m}", "--residue-q", "0"]],
    ids=["check", "verify"],
)
def test_residue_cardinality_below_two_is_input_error(tmp_path, capsys, argv):
    path = tmp_path / "m.json"
    save_model(construct(4, 6), path)
    with pytest.raises(SystemExit) as exit_info:
        main([a.replace("{m}", str(path)) for a in argv])
    assert exit_info.value.code == 2
    assert "at least 2" in capsys.readouterr().err


def test_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, "index", "/nonexistent/model.json")
    assert code == 2 and "error" in err


def test_unparseable_model_is_input_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"graph": {"vertices": [], "edges": []}}', encoding="utf-8")
    code, _, err = run(capsys, "verify", "--model", str(path))
    assert code == 2 and "error" in err


HUGE_ORDER = 2 * 10**7


def run_in_subprocess(argv, path, preexec_fn=None):
    """Run the CLI in a subprocess, bounded at 10 s, with ``{m}`` in ``argv`` standing for ``path``."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, "-m", "curveindex.cli"] + [a.format(m=path) for a in argv]
    try:
        return subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=10, preexec_fn=preexec_fn)
    except subprocess.TimeoutExpired:
        pytest.fail(f"{argv[0]} did not finish within 10 s on {path.name}")


def run_fixed_loop_model(tmp_path, order, argv):
    """Run the CLI in a subprocess on one fixed vertex with a fixed loop."""
    path = tmp_path / f"huge-{order}.json"
    path.write_text(json.dumps({
        "graph": {"vertices": [{"id": "a"}], "edges": [{"id": "l", "ends": ["a", "a"]}]},
        "action": {"order": order, "vertex_map": {"a": "a"}, "edge_map": {"l": "l"}},
    }), encoding="utf-8")
    return run_in_subprocess(argv, path)


@pytest.mark.parametrize(
    "argv",
    [
        ["index", "{m}"],
        ["splitting", "{m}", "--m-invariant"],
        ["verify", "--model", "{m}"],
        ["check", "{m}", "--residue-q", "2"],
    ],
    ids=["index", "splitting", "verify", "check"],
)
def test_huge_declared_order_finishes(tmp_path, argv):
    # Every cycle length is 1, so no command may cost time in proportion to the order.
    proc = run_fixed_loop_model(tmp_path, HUGE_ORDER, argv)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("argv", [["index", "{m}"], ["verify", "--model", "{m}"]], ids=["index", "verify"])
@pytest.mark.parametrize(
    "text",
    ["[" * 200_000, '{"graph": ' + "9" * 5000 + "}"],
    ids=["nested-200000-deep", "integer-of-5000-digits"],
)
def test_json_beyond_the_decoders_limits_is_input_error(tmp_path, argv, text):
    # Nesting past the interpreter's stack, or an integer past int()'s digit limit, is bad input, not a crash.
    path = tmp_path / "refused.json"
    path.write_text(text, encoding="utf-8")
    proc = run_in_subprocess(argv, path)
    assert proc.returncode == 2
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith(f"error: {path}: ")


def limit_address_space():
    """Cap the child's address space at 1 GB, so that a call that does allocate fails at once."""
    resource.setrlimit(resource.RLIMIT_AS, (10**9, 10**9))


@pytest.mark.parametrize("argv", [["index", "{m}"], ["verify", "--model", "{m}"]], ids=["index", "verify"])
@pytest.mark.parametrize(
    "text",
    [
        "[" + "{}," * (MAX_DECODE_ITEMS // 2) + "0]",
        "[" + '"ab",' * MAX_DECODE_ITEMS + '"ab"]',
    ],
    ids=["empty-objects", "short-strings"],
)
def test_a_file_past_the_decode_budget_is_input_error(tmp_path, argv, text):
    # One more '{', '[' or ',' than the budget, each file far below MAX_FILE_BYTES; refused before decoding.
    path = tmp_path / "hostile.json"
    path.write_text(text, encoding="utf-8")
    assert sum(map(text.count, "{[,")) == MAX_DECODE_ITEMS + 1
    proc = run_in_subprocess(argv, path, preexec_fn=limit_address_space)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines() == [f"error: {path}: more than {MAX_DECODE_ITEMS} of '{{', '[' and ',' in all"]


@pytest.mark.parametrize(
    "genus, index, argv, message",
    [
        (4, 6, ["oracle", "{m}", "--d", "1", "--e", "100000000"],
         "the oracle's chains would hold 899999991 positions; the limit is 1000000"),
        (4, 6, ["verify", "--model", "{m}", "--e-max", "100000000"],
         "the oracle table would hold 400000000 cells; the limit is 1000000"),
        (3, 1, ["verify", "--model", "{m}", "--e-max", "100000000"],
         "the oracle table would hold 100000000 cells; the limit is 1000000"),
        # d = 6 fixes every vertex, so only the drawing would lay out chains
        (4, 6, ["oracle", "{m}", "--d", "6", "--e", "2000000", "--emit-dot", "{m}.dot"],
         "the drawing would hold 17999991 chain vertices; the limit is 1000000"),
    ],
    ids=["oracle", "verify", "verify-trivial", "oracle-emit-dot"],
)
def test_oracle_work_past_the_limit_is_input_error(tmp_path, genus, index, argv, message):
    # Each call would allocate gigabytes; it is refused before anything is laid out.
    path = tmp_path / "m.json"
    save_model(construct(genus, index), path)
    proc = run_in_subprocess(argv, path, preexec_fn=limit_address_space)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["construct", "--genus", "100000000", "--index", "1"],
         "the model would have 400000000 vertices; the limit is 100000"),
        (["verify", "--genus-max", "2", "--genus-one-cap", "1000000000"],
         "the sweep's models would have more vertices in all than the limit, 1000000"),
    ],
    ids=["construct", "verify"],
)
def test_sizes_past_the_limit_are_input_error(tmp_path, argv, message):
    # Each call would allocate gigabytes; it is refused before any model is built.
    proc = run_in_subprocess(argv, tmp_path / "unused.json", preexec_fn=limit_address_space)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("argv", [["index", "{m}"], ["verify", "--model", "{m}"]], ids=["index", "verify"])
def test_a_file_that_is_not_utf8_is_input_error(tmp_path, argv):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"graph": "\xff"}')
    proc = run_in_subprocess(argv, path)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines() == [
        f"error: {path}: not UTF-8: 'utf-8' codec can't decode byte 0xff in position 11: invalid start byte"
    ]


@pytest.mark.parametrize("argv", [["index", "{m}"], ["verify", "--model", "{m}"]], ids=["index", "verify"])
def test_a_file_past_the_size_limit_is_input_error(argv):
    # /dev/zero never ends: reading it whole ended in a MemoryError traceback under an address-space cap.
    proc = run_in_subprocess(argv, Path("/dev/zero"), preexec_fn=limit_address_space)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines() == [f"error: /dev/zero: larger than {MAX_FILE_BYTES} bytes"]


@pytest.mark.parametrize(
    "argv", [["splitting", "{m}"], ["verify", "--model", "{m}"]], ids=["splitting", "verify"]
)
def test_order_above_cap_is_input_error(tmp_path, argv):
    # The model is otherwise valid; listing the divisors of 10**30 would never finish.
    proc = run_fixed_loop_model(tmp_path, 10**30, argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:") and "action.order" in proc.stderr


@pytest.mark.parametrize(
    "argv, built",
    [
        (["mtheorem", "--genus", "4", "--index", "6", "--d", "3", "--e", "2"], ["mtheorem"]),
        (["index", "{m}"], ["index"]),
        (["index", "--help"], ["index"]),
        (["--help"], list(COMMANDS)),
        ([], list(COMMANDS)),
        (["bogus"], list(COMMANDS)),
        # Leftover arguments are reported by the full parser, whose usage lists every command.
        (["splitting", "{m}", "--bogus"], ["splitting"] + list(COMMANDS)),
    ],
    ids=["mtheorem", "index", "index-help", "help", "no-command", "unknown-command", "leftover-argument"],
)
def test_one_call_builds_only_its_subparser(tmp_path, capsys, monkeypatch, argv, built):
    # A first call builds only the parsers it needs; an identical second call reuses them.
    path = tmp_path / "m.json"
    save_model(construct(4, 6), path)
    argv = [a.format(m=path) for a in argv]
    names = []
    add_parser = argparse._SubParsersAction.add_parser

    def counting(self, name, **kwargs):
        names.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
    _parser.cache_clear()
    try:
        first = exit_and_output(capsys, lambda: main(argv))
        assert names == built
        names.clear()
        assert exit_and_output(capsys, lambda: main(argv)) == first
        assert names == []
    finally:
        _parser.cache_clear()


@pytest.mark.parametrize(
    "earlier, later",
    [
        (["verify", "--model", "{m}", "--residue-q", "3", "--json"], ["verify", "--model", "{m}", "--json"]),
        (["check", "{m}", "--residue-q", "zero"], ["check", "{m}", "--residue-q", "2"]),
        (["index", "--help"], ["index", "{m}"]),
        (["bogus"], ["splitting", "{m}", "--json"]),
    ],
    ids=["residue-q", "usage-error", "help", "unknown-command"],
)
def test_a_reused_parser_carries_nothing_between_calls(tmp_path, capsys, monkeypatch, earlier, later):
    path = tmp_path / "m.json"
    save_model(construct(4, 6), path)
    monkeypatch.setenv("COLUMNS", "80")  # help is laid out alike in and out of process
    _parser.cache_clear()
    exit_and_output(capsys, lambda: main([a.format(m=path) for a in earlier]))
    code, out, err = exit_and_output(capsys, lambda: main([a.format(m=path) for a in later]))
    fresh = run_in_subprocess(later, path)
    assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
    if later[0] == "verify":
        assert json.loads(out)["residue_cardinalities"] == ["inf"]


@pytest.mark.parametrize(
    "argv",
    [["splitting", "{m}", "--json"], ["splitting", "{m}", "--bogus"], ["bogus"]],
    ids=["valid", "leftover-argument", "unknown-command"],
)
def test_console_script_reads_sys_argv(tmp_path, capsys, monkeypatch, argv):
    # The installed ``curveindex`` script calls main() with no argument.
    path = tmp_path / "m.json"
    save_model(construct(4, 6), path)
    argv = [a.format(m=path) for a in argv]
    expected = exit_and_output(capsys, lambda: main(argv))
    monkeypatch.setattr(sys, "argv", ["curveindex", *argv])
    assert exit_and_output(capsys, main) == expected
    assert expected[0] == (0 if "--json" in argv else 2)
