import math

import pytest

from conftest import corrupted_two_cycle_model, single_edge_swap_model
from curveindex.constructions import Component, CurveModel, construct
from curveindex.invariants import Case
from curveindex.verify import (
    admissible_orders,
    check_model,
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
    assert cell.genus_computed == 4 and cell.index_value == 6
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
