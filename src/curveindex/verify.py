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
  and every ramification index up to ``e_max``, and the index divides
  ``d * e`` wherever the oracle splits;
* realizability: the graph passes the residue-field checks for each
  configured cardinality (the weak check when ``I = 1``, where the full
  one is knowingly too strong over the 2-element field).

``check_model`` applies the same battery to a single, possibly handcrafted,
model; claimed-metadata comparisons are skipped when the model claims
nothing.

The ``--json`` report is ``json.dumps(report_to_obj(r), indent=2)`` plus a
newline.  :func:`dumps_report` writes that layout straight from the cells,
as :func:`serialize.dumps_model` writes a model file, because ``json.dumps``
with ``indent`` runs a pure-Python encoder that took about a quarter of a
genus-24 sweep.  :func:`report_to_obj` stays as the exported form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from json.encoder import encode_basestring_ascii

from .blowup import oracle_table
from .constructions import CurveModel, check_realizability, construct
from .invariants import Case, ExtensionSpec, divisors, main_theorem_prediction, splitting_report
from .multigraph import euler_characteristic, is_connected
from .serialize import _container


def expected_case(genus: int, order: int) -> Case:
    """Case 1 exactly for odd order or genus one."""
    return Case.CASE1 if order % 2 == 1 or genus == 1 else Case.CASE2


def admissible_orders(genus: int, genus_one_cap: int) -> list[int]:
    """The orders ``I | 2*genus - 2``; genus 1 admits everything, so it is capped."""
    if genus == 1:
        return list(range(1, genus_one_cap + 1))
    return divisors(abs(2 * genus - 2))


@dataclass(frozen=True, kw_only=True)
class CellReport:
    """One cell's checks; the fields, in order, are the keys of its ``--json`` object."""

    genus: int | None  # claimed genus, if any
    order: int  # acting order
    vertices: int
    edges: int
    euler: int
    genus_computed: int | None = None  # None when disconnected
    max_degree: int
    action_valid: bool
    connected: bool
    index: int | None = None
    case: Case | None = None
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
    order = m.action.order
    claimed_genus, claimed_index = m.claimed or (None, None)
    max_degree = max(m.graph.degrees.values())
    shape = dict(
        genus=claimed_genus, order=order, vertices=len(m.graph.vertices), edges=len(m.graph.edges),
        euler=euler_characteristic(m.graph), max_degree=max_degree,
    )

    report = m.validation
    connected = is_connected(m.graph)
    if not (report.ok and connected):
        violations = [f"action invalid: {v.law}[{v.subject}] {v.detail}" for v in report.violations[:8]]
        return CellReport(
            **shape, action_valid=report.ok, connected=connected,
            failures=tuple(violations or ["graph is not connected"]),
        )

    failures: list[str] = []
    if max_degree > 3:
        failures.append(f"maximum degree {max_degree} exceeds 3")
    genus_computed = 1 - shape["euler"]  # the arithmetic genus of a connected graph
    if claimed_genus is not None and genus_computed != claimed_genus:
        failures.append(f"genus: computed {genus_computed}, claimed {claimed_genus}")

    classifier = splitting_report(m)
    oracle = oracle_table(m, e_max)

    index_ok = case_ok = prediction_ok = None
    if claimed_index is not None:
        index_ok = classifier.index == claimed_index == order and m.action.exact_order == order
        if claimed_index != order:
            failures.append(f"claimed index {claimed_index} differs from acting order {order}")
        if classifier.index != claimed_index:
            failures.append(f"index: computed {classifier.index}, claimed {claimed_index}")
        if m.action.exact_order != order:
            failures.append(f"action order: exact {m.action.exact_order}, declared {order}")
        want_case = expected_case(claimed_genus, order)
        case_ok = classifier.case is want_case
        if not case_ok:
            failures.append(f"case: computed {classifier.case.value}, expected {want_case.value}")
        prediction_ok = True
        try:
            for (d, e), got in sorted(classifier.table.items()):
                want = main_theorem_prediction(claimed_genus, order, ExtensionSpec(d, e), want_case)
                if got != want:
                    prediction_ok = False
                    failures.append(
                        f"prediction mismatch at (d={d}, e={e}): classifier={got}, predicted={want}"
                    )
        except ValueError as err:  # the claim admits no prediction, e.g. I does not divide 2g - 2
            prediction_ok = False
            failures.append(f"prediction: {err}")

    oracle_ok = True
    for (d, e), want in oracle.items():
        got = classifier.table[(d, 2 - e % 2)]  # the classifier reads only the parity of e
        if got != want:
            oracle_ok = False
            failures.append(f"oracle mismatch at (d={d}, e={e}): classifier={got}, oracle={want}")
        if want and d * e % classifier.index:  # the oracle found a point of degree d*e
            failures.append(
                f"index law at (d={d}, e={e}): oracle splits, but index {classifier.index} does not divide {d * e}"
            )

    realizability: dict[int | float, bool] = {}
    for q in residue_cardinalities:
        mode = "full" if order > 1 else "weak"
        real = check_realizability(m, q, mode)
        realizability[q] = real.passed
        if not real.passed:
            bad = ", ".join(f"{c.name}: {c.detail}" for c in real.checks if not c.passed)
            failures.append(f"realizability(q={q}, {mode}) failed: {bad}")

    return CellReport(
        **shape, genus_computed=genus_computed, action_valid=True, connected=True,
        index=classifier.index, case=classifier.case, classifier_table=classifier.table, oracle_table=oracle,
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
    elif genus_one_cap < 0:
        raise ValueError(f"genus_one_cap must be non-negative, got {genus_one_cap}")
    cells = []
    for genus in range(genus_max + 1):
        for order in admissible_orders(genus, genus_one_cap):
            model = construct(genus, order)
            cells.append(check_model(model, e_max, residue_cardinalities))
    return VerificationReport(tuple(cells), e_max, tuple(residue_cardinalities))


def render_cell(c: CellReport) -> str:
    genus = "?" if c.genus is None else c.genus
    case = "?" if c.case is None else c.case.value
    idx = "?" if c.index is None else c.index
    status = "ok" if c.passed else "FAIL"
    return (
        f"g={genus:>2} I={c.order:>2} | V={c.vertices:>3} E={c.edges:>3} "
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


def table_obj(table: dict[tuple[int, int], bool]) -> list[dict]:
    """A ``(d, e)`` splitting table as JSON rows, sorted by ``(d, e)``."""
    return [{"d": d, "e": e, "splits": v} for (d, e), v in sorted(table.items())]


def _q_obj(q: int | float) -> int | str:
    """A residue cardinality in JSON: the infinite one is the string ``"inf"``."""
    return "inf" if q == math.inf else q


def report_to_obj(r: VerificationReport) -> dict:
    cells = []
    for c in r.cells:
        cell = {f.name: getattr(c, f.name) for f in fields(c)}
        cell.update(
            case=c.case.value if c.case else None,
            classifier_table=table_obj(c.classifier_table),
            oracle_table=table_obj(c.oracle_table),
            realizability={str(_q_obj(q)): v for q, v in c.realizability.items()},
            failures=list(c.failures),
            passed=c.passed,
        )
        cells.append(cell)
    return {
        "passed": r.passed,
        "e_max": r.e_max,
        "residue_cardinalities": [_q_obj(q) for q in r.residue_cardinalities],
        "cells": cells,
    }


def _scalar(x: str | bool | int | None) -> str:
    """``null``, ``true``, ``false``, a string or an integer, as ``json.dumps`` writes it."""
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    return encode_basestring_ascii(x) if isinstance(x, str) else int.__repr__(x)


def dumps_report(r: VerificationReport) -> str:
    """The ``--json`` report: ``json.dumps(report_to_obj(r), indent=2) + "\\n"``, byte for byte.

    The layout is fixed, so it is written straight from the cells: each
    container is one list of entry strings, joined once, cell keys in
    ``fields(CellReport)`` order and then ``passed``, strings quoted by
    ``json``'s own C string encoder and integers by ``int.__repr__``.  Table
    rows are almost all of the output and repeat from cell to cell, so each
    distinct ``(d, e, splits)`` row is laid out once per call.
    """
    rows: dict[tuple[tuple[int, int], bool], str] = {}

    def row(item: tuple[tuple[int, int], bool]) -> str:
        (d, e), v = item
        rows[item] = text = (
            f'        {{\n          "d": {_scalar(d)},\n          "e": {_scalar(e)},\n'
            f'          "splits": {_scalar(v)}\n        }}'
        )
        return text

    def table(t: dict[tuple[int, int], bool]) -> str:
        return _container([rows.get(item) or row(item) for item in sorted(t.items())], "[]", "      ")

    writers = {
        "case": lambda x: _scalar(None if x is None else x.value),
        "classifier_table": table,
        "oracle_table": table,
        "realizability": lambda x: _container(
            [f"        {_scalar(str(_q_obj(k)))}: {_scalar(v)}" for k, v in x.items()], "{}", "      "
        ),
        "failures": lambda x: _container([f"        {_scalar(s)}" for s in x], "[]", "      "),
    }
    layout = [(f"      {_scalar(f.name)}: ", f.name, writers.get(f.name, _scalar)) for f in fields(CellReport)]
    cells = [
        "    " + _container(
            [key + write(getattr(c, name)) for key, name, write in layout]
            + [f'      "passed": {_scalar(c.passed)}'],
            "{}", "    ",
        )
        for c in r.cells
    ]
    residues = [f"    {_scalar(_q_obj(x))}" for x in r.residue_cardinalities]
    return (
        f'{{\n  "passed": {_scalar(r.passed)},\n  "e_max": {_scalar(r.e_max)},\n'
        f'  "residue_cardinalities": {_container(residues, "[]", "  ")},\n'
        f'  "cells": {_container(cells, "[]", "  ")}\n}}\n'
    )
