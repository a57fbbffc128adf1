import json
import math
import sys

import pytest

from conftest import admissible_cells, corrupted_two_cycle_model, single_edge_swap_model
from curveindex import action, constructions, invariants, multigraph, verify
from curveindex.cli import main
from curveindex.constructions import Component, CurveModel, as_model, construct, cycle_model
from curveindex.blowup import oracle_table
from curveindex.invariants import Case, splitting_report
from curveindex.multigraph import MultiGraph
from curveindex.serialize import model_to_obj, save_model
from curveindex.verify import (
    VerificationReport,
    admissible_orders,
    check_model,
    dumps_report,
    expected_case,
    render_report,
    report_to_obj,
    run_verification,
)


def test_expected_case_rule():
    assert expected_case(0, 1) is Case.CASE1
    assert expected_case(0, 2) is Case.CASE2
    assert expected_case(1, 2) is Case.CASE1
    assert expected_case(1, 9) is Case.CASE1
    assert expected_case(4, 3) is Case.CASE1
    assert expected_case(4, 6) is Case.CASE2


def test_admissible_orders():
    assert admissible_orders(0, 10) == [1, 2]
    assert admissible_orders(1, 5) == [1, 2, 3, 4, 5]
    assert admissible_orders(4, 10) == [1, 2, 3, 6]
    assert admissible_orders(12, 10) == [1, 2, 11, 22]


def test_exact_order():
    assert construct(7, 3).action.exact_order == 3
    assert construct(5, 1).action.exact_order == 1
    assert single_edge_swap_model().action.exact_order == 2


def test_check_model_flags_on_good_cell():
    cell = check_model(construct(4, 6), e_max=4, residue_cardinalities=(2, math.inf))
    assert cell.passed
    assert cell.action_valid and cell.connected
    assert cell.genus_computed == 4 and cell.index == 6
    assert cell.index_ok and cell.case_ok and cell.prediction_ok and cell.oracle_ok
    assert cell.realizability == {2: True, math.inf: True}
    assert cell.classifier_table[(3, 2)] is True
    assert cell.oracle_table[(3, 4)] is True and cell.oracle_table[(3, 3)] is False


def test_check_model_without_claim_skips_comparisons():
    cell = check_model(single_edge_swap_model())
    assert cell.genus is None
    assert cell.index_ok is None and cell.case_ok is None and cell.prediction_ok is None
    assert cell.oracle_ok and cell.passed


def test_check_model_flags_corruption():
    cell = check_model(corrupted_two_cycle_model())
    assert not cell.passed
    assert cell.case_ok is False
    assert cell.prediction_ok is False
    assert cell.oracle_ok  # the corrupted action is still internally consistent
    assert any("prediction mismatch at (d=1, e=2)" in f for f in cell.failures)


def test_check_model_flags_inadmissible_claim():
    # I = 4 does not divide 2g - 2 = 6, so the closed form predicts nothing for this claim.
    m = construct(1, 4)
    cell = check_model(CurveModel(m.graph, m.action, m.components, claimed=(4, 4)), e_max=3)
    assert not cell.passed
    assert cell.prediction_ok is False
    assert "prediction: order 4 does not divide 2*genus - 2 = 6" in cell.failures
    assert not any(f.startswith("prediction mismatch") for f in cell.failures)
    assert "genus: computed 1, claimed 4" in cell.failures
    assert cell.oracle_ok and cell.index_ok


def test_check_model_flags_an_action_below_its_declared_order():
    # The identity declared at order 3: the index reads 1, and the exact order is 1.
    graph, _ = cycle_model(3)
    identity = action.CyclicAction(3, {v: v for v in graph.vertices}, {e.id: e.id for e in graph.edges})
    cell = check_model(as_model(graph, identity, claimed=(1, 3)), e_max=3)
    assert not cell.passed and cell.index_ok is False
    assert "index: computed 1, claimed 3" in cell.failures
    assert "action order: exact 1, declared 3" in cell.failures


def test_check_model_flags_a_claim_off_the_acting_order():
    m = construct(1, 6)
    cell = check_model(CurveModel(m.graph, m.action, m.components, claimed=(1, 3)))
    assert cell.failures == ("claimed index 3 differs from acting order 6", "index: computed 6, claimed 3")
    assert cell.index_ok is False


def test_check_model_flags_an_oracle_mismatch(tmp_path, monkeypatch):
    real = verify.oracle_table

    def flipped(m, e_max):  # the oracle now says the (I, 1) extension does not split
        table = real(m, e_max)
        return {**table, (m.action.order, 1): not table[(m.action.order, 1)]}

    monkeypatch.setattr(verify, "oracle_table", flipped)
    m = construct(4, 6)
    cell = check_model(m, e_max=2)
    assert cell.failures == ("oracle mismatch at (d=6, e=1): classifier=True, oracle=False",)
    assert cell.oracle_ok is False and not cell.passed
    path = tmp_path / "m.json"
    save_model(m, path)
    assert main(["verify", "--model", str(path), "--e-max", "2"]) == 1


def test_index_law_fails_a_model_that_contradicts_itself(tmp_path, capsys):
    # The index reads 2 off the component data, yet the trivial action fixes the vertex, so (1, 1) splits.
    doc = {
        "graph": {"vertices": [{"id": "0"}], "edges": []},
        "action": {"order": 1, "vertex_map": {"0": "0"}, "edge_map": {}},
        "components": {"0": {"ns_index": 2}},
    }
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["verify", "--model", str(path), "--e-max", "4"]) == 1
    out = capsys.readouterr().out
    assert "index= 2" in out and "0/1 cells verified" in out
    assert [line for line in out.splitlines() if "index law" in line] == [
        f"  !! g=None I=1: index law at (d=1, e={e}): oracle splits, but index 2 does not divide {e}" for e in (1, 3)
    ]


def identity_at_order_three():
    graph, _ = cycle_model(3)
    identity = action.CyclicAction(3, {v: v for v in graph.vertices}, {e.id: e.id for e in graph.edges})
    return as_model(graph, identity, claimed=(1, 3))


def claiming(m, claimed):
    return CurveModel(m.graph, m.action, m.components, claimed)


def ns_index_two_model():
    """One vertex of ``ns_index`` 2 under the trivial action: the index reads 2, yet ``(1, 1)`` splits."""
    return CurveModel(MultiGraph.build(["0"], []), action.CyclicAction(1, {"0": "0"}, {}), {"0": Component(ns_index=2)})


@pytest.mark.parametrize(
    "model, lines, index_ok, case_ok, prediction_ok",
    [
        (lambda: construct(4, 6), [], True, True, True),
        (single_edge_swap_model, [], None, None, None),
        (ns_index_two_model, [], None, None, None),
        (lambda: claiming(construct(1, 6), (1, 3)),
         ["claimed index 3 differs from acting order 6", "index: computed 6, claimed 3"], False, True, True),
        (identity_at_order_three, [
            "index: computed 1, claimed 3", "action order: exact 1, declared 3",
            "prediction mismatch at (d=1, e=1): classifier=True, predicted=False",
            "prediction mismatch at (d=1, e=2): classifier=True, predicted=False",
        ], False, True, False),
        (corrupted_two_cycle_model, [
            "case: computed Case2, expected Case1",
            "prediction mismatch at (d=1, e=2): classifier=True, predicted=False",
        ], True, False, False),
        (lambda: claiming(construct(1, 4), (4, 4)),
         ["case: computed Case1, expected Case2", "prediction: order 4 does not divide 2*genus - 2 = 6"], True, False, False),
    ],
    ids=["passing", "no-claim", "ns-index-2", "claim-off-the-order", "identity-at-order-3", "corrupted-two-cycle",
         "inadmissible-claim"],
)
def test_claim_laws(model, lines, index_ok, case_ok, prediction_ok):
    m = model()
    assert verify._claim_laws(m, splitting_report(m)) == (lines, index_ok, case_ok, prediction_ok)


def test_oracle_law():
    m = construct(4, 6)
    table = oracle_table(m, 4)
    assert verify._oracle_law(splitting_report(m), table) == ([], True)
    assert verify._oracle_law(splitting_report(m), {**table, (6, 1): False}) == (
        ["oracle mismatch at (d=6, e=1): classifier=True, oracle=False"], False
    )
    for model in (corrupted_two_cycle_model(), identity_at_order_three(), claiming(construct(1, 6), (1, 3))):
        assert verify._oracle_law(splitting_report(model), oracle_table(model, 4)) == ([], True)
    # the index law breaks at e = 1 and 3; a mismatch at e = 2 comes between their lines
    m = ns_index_two_model()
    table = oracle_table(m, 4)
    assert verify._oracle_law(splitting_report(m), table) == ([
        "index law at (d=1, e=1): oracle splits, but index 2 does not divide 1",
        "index law at (d=1, e=3): oracle splits, but index 2 does not divide 3",
    ], True)
    assert verify._oracle_law(splitting_report(m), {**table, (1, 2): False}) == ([
        "index law at (d=1, e=1): oracle splits, but index 2 does not divide 1",
        "oracle mismatch at (d=1, e=2): classifier=True, oracle=False",
        "index law at (d=1, e=3): oracle splits, but index 2 does not divide 3",
    ], False)


def test_realizability_law():
    assert verify._realizability_law(construct(4, 6), (2, 3, math.inf)) == ([], {2: True, 3: True, math.inf: True})
    assert verify._realizability_law(construct(4, 6), ()) == ([], {})
    # degree 4: the weak check under the trivial action, the full one under a swap of parallel edges
    graph = MultiGraph.build(["a", "b"], [(f"e{i}", "a", "b") for i in range(4)])
    trivial = as_model(graph, action.CyclicAction(1, {"a": "a", "b": "b"}, {f"e{i}": f"e{i}" for i in range(4)}))
    assert verify._realizability_law(trivial, (2, math.inf)) == ([
        "realizability(q=2, weak) failed: degree-bound: vertices of degree > 3: ['a', 'b'], "
        "point-supply: no fixed vertex of degree <= 2",
        "realizability(q=inf, weak) failed: degree-bound: vertices of degree > 3: ['a', 'b']",
    ], {2: False, math.inf: False})
    swap = as_model(graph, action.CyclicAction(2, {"a": "a", "b": "b"}, {"e0": "e1", "e1": "e0", "e2": "e3", "e3": "e2"}))
    lines, verdicts = verify._realizability_law(swap, (3, 3))
    assert verdicts == {3: False} and len(lines) == 2  # a repeated cardinality is checked, and reported, twice
    assert lines[0] == lines[1] and lines[0].startswith("realizability(q=3, full) failed: degree-bound: ")


def test_check_model_reports_invalid_action():
    m = construct(1, 3)
    broken = CurveModel(
        m.graph,
        type(m.action)(3, dict(m.action.vertex_map), {"c0": "c0", "c1": "c1", "c2": "c2"}),
        {v: Component() for v in m.graph.vertices},
        claimed=(1, 3),
    )
    cell = check_model(broken)
    assert not cell.action_valid and not cell.passed


def test_run_verification_small():
    report = run_verification(genus_max=3, e_max=3)
    assert report.passed
    assert len(report.cells) == 2 + 8 + 2 + 3  # g=0,1(cap 8),2,3
    text = render_report(report)
    assert "15/15 cells verified" in text
    obj = report_to_obj(report)
    assert obj["passed"] is True and len(obj["cells"]) == 15


def test_run_verification_rejects_negative_genus():
    with pytest.raises(ValueError):
        run_verification(genus_max=-1)


def test_run_verification_rejects_negative_genus_one_cap():
    with pytest.raises(ValueError, match="^genus_one_cap must be non-negative, got -3$"):
        run_verification(genus_max=2, genus_one_cap=-3)
    report = run_verification(genus_max=2, e_max=2, genus_one_cap=0)
    assert report.passed and [c.genus for c in report.cells] == [0, 0, 2, 2]


def test_the_sweep_refuses_more_vertices_than_its_limit_before_building_anything(monkeypatch):
    report = run_verification(genus_max=4, e_max=2, genus_one_cap=5)
    total = sum(c.vertices for c in report.cells)
    monkeypatch.setattr(verify, "MAX_SWEEP", total)
    assert run_verification(genus_max=4, e_max=2, genus_one_cap=5) == report
    monkeypatch.setattr(verify, "MAX_SWEEP", total - 1)
    built = [count_calls(monkeypatch, verify, name) for name in ("construct", "mobius_ladder", "ladder_model")]
    for genus_max, genus_one_cap in [(4, 5), (10**9, 5), (2, 10**9)]:
        with pytest.raises(ValueError, match=f"^the sweep's models would have more vertices in all than the limit, {total - 1}$"):
            run_verification(genus_max=genus_max, e_max=2, genus_one_cap=genus_one_cap)
    assert built == [[], [], []]


def test_the_sweep_builds_each_ladder_once_and_matches_the_direct_path(monkeypatch):
    ladders = count_calls(monkeypatch, constructions, "mobius_ladder")
    report = run_verification(12, 4, (2, math.inf))
    assert ladders == [(g,) for g in range(2, 13)]  # one ladder per genus >= 2
    direct = [check_model(construct(g, i), 4, (2, math.inf)) for g, i in admissible_cells(12)]
    assert list(report.cells) == direct
    assert dumps_report(report) == dumps_report(VerificationReport(tuple(direct), 4, (2, math.inf)))


def stdlib_report(r):
    return json.dumps(report_to_obj(r), indent=2) + "\n"


def test_dumps_report_matches_the_stdlib_encoder_on_a_grid():
    r = run_verification(6, 3, (2, math.inf))
    assert dumps_report(r) == stdlib_report(r)


def test_dumps_report_matches_the_stdlib_encoder_on_every_kind_of_cell(model_pool):
    m = construct(1, 3)
    invalid = as_model(m.graph, action.CyclicAction(3, dict(m.action.vertex_map), {e: e for e in m.action.edge_map}))
    disconnected = as_model(MultiGraph.build(["a", "b"], []), action.CyclicAction(1, {"a": "a", "b": "b"}, {}))
    cells = [check_model(model, e_max=3, residue_cardinalities=(math.inf, 2)) for model in model_pool]
    cells += [check_model(model) for model in (corrupted_two_cycle_model(), invalid, disconnected)]
    cells.insert(0, cells[0]._replace(oracle_table=dict(reversed(cells[0].oracle_table.items()))))  # the report sorts rows
    assert any(c.genus is None for c in cells) and not all(c.passed for c in cells)
    assert not cells[-2].action_valid and cells[-1].failures == ("graph is not connected",)
    assert cells[-1].index is None and not cells[-1].oracle_table and not cells[-1].realizability
    for r in [VerificationReport(tuple(cells), 3, (math.inf, 2))] + [VerificationReport((c,), 6, ()) for c in cells[-3:]]:
        assert dumps_report(r) == stdlib_report(r)


def test_dumps_report_keeps_repeated_residue_cardinalities(tmp_path, capsys):
    m = construct(4, 6)
    r = VerificationReport((check_model(m, 6, (2, 2)),), 6, (2, 2))
    obj = json.loads(dumps_report(r))
    assert obj["residue_cardinalities"] == [2, 2] and obj["cells"][0]["realizability"] == {"2": True}
    assert dumps_report(r) == stdlib_report(r)
    # the command line checks and reports a repeated value once
    path = tmp_path / "m.json"
    save_model(m, path)
    assert main(["verify", "--model", str(path), "--residue-q", "2", "--residue-q", "2", "--json"]) == 0
    assert capsys.readouterr().out == stdlib_report(VerificationReport((check_model(m, 6, (2,)),), 6, (2,)))


def test_dumps_report_escapes_identifiers_as_the_stdlib_encoder_does():
    odd = 'é"\\'
    graph = MultiGraph.build([odd, "b"], [("c0", odd, "b")])
    cell = check_model(as_model(graph, action.CyclicAction(2, {odd: "b", "b": "b"}, {"c0": "c0"})))
    assert not cell.passed and any(odd in f for f in cell.failures)
    r = VerificationReport((cell,), 6, (math.inf,))
    assert dumps_report(r) == stdlib_report(r)
    assert "\\u00e9\\\"\\\\" in dumps_report(r)


def test_verify_json_builds_no_report_dicts_and_calls_no_json_encoder(monkeypatch, capsys):
    to_obj = count_calls(monkeypatch, verify, "report_to_obj")
    calls, dumps = [], json.dumps
    monkeypatch.setattr(json, "dumps", lambda *a, **k: calls.append(a) or dumps(*a, **k))
    assert main(["verify", "--genus-max", "3", "--json"]) == 0
    assert to_obj == calls == []
    assert capsys.readouterr().out == stdlib_report(run_verification(3))


def count_calls(monkeypatch, module, name):
    """Record the calls of ``module.name`` through every binding a curveindex module holds of it."""
    original, calls = getattr(module, name), []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod in [mod for key, mod in sys.modules.items() if key.split(".")[0] == "curveindex"]:
        for key, value in list(vars(mod).items()):
            if value is original:
                monkeypatch.setattr(mod, key, counting)
    return calls


def test_classifier_table_is_built_once(monkeypatch):
    m = construct(4, 6)
    splits = count_calls(monkeypatch, invariants, "splits")
    walks = count_calls(monkeypatch, action, "cycles")
    reports = count_calls(monkeypatch, invariants, "splitting_report")
    connectivity = count_calls(monkeypatch, multigraph, "is_connected")
    splitting_report(m)
    assert len(walks) == 2  # the vertex and the edge cycle lengths, cached on the action
    splitting_report(m)
    assert len(walks) == 2 and len(splits) == 0
    cell = check_model(m, e_max=6)
    assert cell.passed and len(cell.oracle_table) == 4 * 6
    assert len(reports) == 1 and len(splits) == 0
    assert len(connectivity) <= 2


def test_each_model_is_validated_once(tmp_path, monkeypatch, capsys):
    validations = count_calls(monkeypatch, action, "validate")
    path = tmp_path / "m.json"
    save_model(construct(4, 6), path)
    assert main(["verify", "--model", str(path), "--e-max", "3", "--residue-q", "inf", "--residue-q", "3"]) == 0
    assert len(validations) == 1
    validations.clear()
    report = run_verification(genus_max=3, e_max=2)
    assert report.passed and len(validations) == len(report.cells) == 15

    obj = model_to_obj(construct(4, 6))
    obj["action"]["edge_map"]["c0"], obj["action"]["edge_map"]["c1"] = "c0", "c2"
    path.write_text(json.dumps(obj), encoding="utf-8")
    capsys.readouterr()
    validations.clear()
    assert main(["verify", "--model", str(path)]) == 2
    assert len(validations) == 1 and "action fails validation: edge-bijection[c1]" in capsys.readouterr().err
