import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import corrupted_two_cycle_model
from curveindex.cli import main
from curveindex.constructions import construct
from curveindex.serialize import load_model, save_model


def run(capsys, *argv):
    code = main(list(argv))
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


def test_mtheorem_command(capsys):
    code, out, _ = run(capsys, "mtheorem", "--genus", "3", "--index", "4", "--d", "2", "--e", "2")
    assert code == 0 and out.strip() == "yes"
    code, out, _ = run(capsys, "mtheorem", "--genus", "3", "--index", "4", "--d", "2", "--e", "1", "--json")
    assert json.loads(out) == {"splits": False, "case": "Case2"}


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


def test_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, "index", "/nonexistent/model.json")
    assert code == 2 and "error" in err


def test_unparseable_model_is_input_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"graph": {"vertices": [], "edges": []}}', encoding="utf-8")
    code, _, err = run(capsys, "verify", "--model", str(path))
    assert code == 2 and "error" in err


HUGE_ORDER = 2 * 10**7


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
    # One vertex with a loop, both fixed, declared at order 2 * 10**7: every
    # cycle length is 1, so no command may cost time in proportion to the order.
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({
        "graph": {"vertices": [{"id": "a"}], "edges": [{"id": "l", "ends": ["a", "a"]}]},
        "action": {"order": HUGE_ORDER, "vertex_map": {"a": "a"}, "edge_map": {"l": "l"}},
    }), encoding="utf-8")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, "-m", "curveindex.cli"] + [a.format(m=path) for a in argv]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=10)
    except subprocess.TimeoutExpired:
        pytest.fail(f"{argv[0]} did not finish within 10 s at order {HUGE_ORDER}")
    assert proc.returncode == 0, proc.stderr
