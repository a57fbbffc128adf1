"""Exhaustive verification of the splitting classification.

For every admissible (genus, index) cell the harness builds the model and
checks, with zero tolerance:

* structure: connected, maximum degree 3, arithmetic genus as claimed,
  action passing validation with exact order ``I``;
* index: the gcd formula returns exactly ``I``;
* classification: the computed case matches the parity rule (Case 1 iff
  ``I`` odd or genus 1) and the splitting table over all ``d | I``,
  ``e in {1, 2}`` equals the closed-form prediction;
* oracle: the classifier agrees with the blowup oracle for every ``d | I``
  and every ramification index up to ``e_max``;
* realizability: the graph passes the residue-field checks for each
  configured cardinality (the weak check when ``I = 1``, where the full
  one is knowingly too strong over the 2-element field).

``check_model`` applies the same battery to a single, possibly handcrafted,
model; claimed-metadata comparisons are skipped when the model claims
nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .action import validate
from .blowup import oracle_splits
from .constructions import CurveModel, check_realizability, construct
from .invariants import (
    Case,
    ExtensionSpec,
    divisors,
    main_theorem_prediction,
    splits,
    splitting_report,
)
from .multigraph import arithmetic_genus, euler_characteristic, is_connected


def expected_case(genus: int, order: int) -> Case:
    """Case 1 exactly for odd order or genus one."""
    return Case.CASE1 if order % 2 == 1 or genus == 1 else Case.CASE2


def admissible_orders(genus: int, genus_one_cap: int) -> list[int]:
    """The orders ``I | 2*genus - 2``; genus 1 admits everything, so it is capped."""
    if genus == 1:
        return list(range(1, genus_one_cap + 1))
    return divisors(abs(2 * genus - 2))


@dataclass(frozen=True)
class CellReport:
    genus: int | None  # claimed genus, if any
    order: int  # acting order
    n_vertices: int
    n_edges: int
    euler: int
    genus_computed: int | None  # None when disconnected
    max_degree: int
    action_valid: bool
    connected: bool
    index_value: int | None
    case_value: Case | None
    classifier_table: dict[tuple[int, int], bool] = field(default_factory=dict)
    oracle_table: dict[tuple[int, int], bool] = field(default_factory=dict)
    index_ok: bool | None = None  # None: nothing claimed to compare against
    case_ok: bool | None = None
    prediction_ok: bool | None = None
    oracle_ok: bool = False
    realizability: dict[int | float, bool] = field(default_factory=dict)
    failures: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return not self.failures


@dataclass(frozen=True)
class VerificationReport:
    cells: tuple[CellReport, ...]
    e_max: int
    residue_cardinalities: tuple[int | float, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cells)


def check_model(
    m: CurveModel, e_max: int = 6, residue_cardinalities: tuple[int | float, ...] = (math.inf,)
) -> CellReport:
    """Run one cell's worth of checks against a model."""
    failures: list[str] = []
    order = m.action.order
    claimed_genus = m.claimed[0] if m.claimed else None
    claimed_index = m.claimed[1] if m.claimed else None
    n_vertices = len(m.graph.vertices)
    n_edges = len(m.graph.edges)
    euler = euler_characteristic(m.graph)
    max_degree = max(m.graph.degrees.values())

    report = validate(m.graph, m.action)
    if not report.ok:
        for v in report.violations[:8]:
            failures.append(f"action invalid: {v.law}[{v.subject}] {v.detail}")
        return CellReport(
            claimed_genus, order, n_vertices, n_edges, euler, None, max_degree,
            action_valid=False, connected=is_connected(m.graph),
            index_value=None, case_value=None, failures=tuple(failures),
        )
    connected = is_connected(m.graph)
    if not connected:
        failures.append("graph is not connected")
        return CellReport(
            claimed_genus, order, n_vertices, n_edges, euler, None, max_degree,
            action_valid=True, connected=False,
            index_value=None, case_value=None, failures=tuple(failures),
        )

    if max_degree > 3:
        failures.append(f"maximum degree {max_degree} exceeds 3")
    genus_computed = arithmetic_genus(m.graph)
    if claimed_genus is not None and genus_computed != claimed_genus:
        failures.append(f"genus: computed {genus_computed}, claimed {claimed_genus}")

    classifier = splitting_report(m)
    index_value, case_value, classifier_table = classifier.index, classifier.case, classifier.table
    oracle_table = {
        (d, e): oracle_splits(m, ExtensionSpec(d, e))
        for d in divisors(order)
        for e in range(1, e_max + 1)
    }

    index_ok = case_ok = prediction_ok = None
    if claimed_index is not None:
        index_ok = index_value == claimed_index == order and m.action.exact_order == order
        if claimed_index != order:
            failures.append(f"claimed index {claimed_index} differs from acting order {order}")
        if index_value != claimed_index:
            failures.append(f"index: computed {index_value}, claimed {claimed_index}")
        if m.action.exact_order != order:
            failures.append(f"action order: exact {m.action.exact_order}, declared {order}")
        want_case = expected_case(claimed_genus, order)
        case_ok = case_value is want_case
        if not case_ok:
            failures.append(f"case: computed {case_value.value}, expected {want_case.value}")
        prediction_ok = True
        for (d, e), got in sorted(classifier_table.items()):
            want = main_theorem_prediction(claimed_genus, order, ExtensionSpec(d, e), want_case)
            if got != want:
                prediction_ok = False
                failures.append(
                    f"prediction mismatch at (d={d}, e={e}): classifier={got}, predicted={want}"
                )

    oracle_ok = True
    for (d, e), want in sorted(oracle_table.items()):
        got = splits(m, ExtensionSpec(d, e))
        if got != want:
            oracle_ok = False
            failures.append(f"oracle mismatch at (d={d}, e={e}): classifier={got}, oracle={want}")

    realizability: dict[int | float, bool] = {}
    for q in residue_cardinalities:
        mode = "full" if order > 1 else "weak"
        real = check_realizability(m, q, mode)
        realizability[q] = real.passed
        if not real.passed:
            bad = ", ".join(f"{c.name}: {c.detail}" for c in real.checks if not c.passed)
            failures.append(f"realizability(q={q}, {mode}) failed: {bad}")

    return CellReport(
        claimed_genus, order, n_vertices, n_edges, euler, genus_computed, max_degree,
        action_valid=True, connected=True,
        index_value=index_value, case_value=case_value,
        classifier_table=classifier_table, oracle_table=oracle_table,
        index_ok=index_ok, case_ok=case_ok, prediction_ok=prediction_ok,
        oracle_ok=oracle_ok, realizability=realizability,
        failures=tuple(failures),
    )


def run_verification(
    genus_max: int = 12,
    e_max: int = 6,
    residue_cardinalities: tuple[int | float, ...] = (math.inf,),
    genus_one_cap: int | None = None,
) -> VerificationReport:
    """Check every admissible cell with genus up to ``genus_max``."""
    if genus_max < 0:
        raise ValueError(f"genus_max must be non-negative, got {genus_max}")
    if genus_one_cap is None:
        genus_one_cap = 2 * genus_max + 2
    cells = []
    for genus in range(genus_max + 1):
        for order in admissible_orders(genus, genus_one_cap):
            model = construct(genus, order)
            cells.append(check_model(model, e_max, residue_cardinalities))
    return VerificationReport(tuple(cells), e_max, tuple(residue_cardinalities))


def render_cell(c: CellReport) -> str:
    genus = "?" if c.genus is None else c.genus
    case = "?" if c.case_value is None else c.case_value.value
    idx = "?" if c.index_value is None else c.index_value
    status = "ok" if c.passed else "FAIL"
    return (
        f"g={genus:>2} I={c.order:>2} | V={c.n_vertices:>3} E={c.n_edges:>3} "
        f"chi={c.euler:>4} maxdeg={c.max_degree} | index={idx:>2} {case:<5} | {status}"
    )


def render_report(r: VerificationReport) -> str:
    lines = [render_cell(c) for c in r.cells]
    for c in r.cells:
        for f in c.failures:
            lines.append(f"  !! g={c.genus} I={c.order}: {f}")
    good = sum(1 for c in r.cells if c.passed)
    lines.append(f"{good}/{len(r.cells)} cells verified" + ("" if r.passed else ", FAILURES above"))
    return "\n".join(lines) + "\n"


def _table_obj(table: dict[tuple[int, int], bool]) -> list[dict]:
    return [{"d": d, "e": e, "splits": v} for (d, e), v in sorted(table.items())]


def report_to_obj(r: VerificationReport) -> dict:
    return {
        "passed": r.passed,
        "e_max": r.e_max,
        "residue_cardinalities": [q if q != math.inf else "inf" for q in r.residue_cardinalities],
        "cells": [
            {
                "genus": c.genus,
                "order": c.order,
                "vertices": c.n_vertices,
                "edges": c.n_edges,
                "euler": c.euler,
                "genus_computed": c.genus_computed,
                "max_degree": c.max_degree,
                "action_valid": c.action_valid,
                "connected": c.connected,
                "index": c.index_value,
                "case": c.case_value.value if c.case_value else None,
                "classifier_table": _table_obj(c.classifier_table),
                "oracle_table": _table_obj(c.oracle_table),
                "index_ok": c.index_ok,
                "case_ok": c.case_ok,
                "prediction_ok": c.prediction_ok,
                "oracle_ok": c.oracle_ok,
                "realizability": {
                    ("inf" if q == math.inf else str(q)): v for q, v in c.realizability.items()
                },
                "failures": list(c.failures),
                "passed": c.passed,
            }
            for c in r.cells
        ],
    }
