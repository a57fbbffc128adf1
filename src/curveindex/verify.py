"""Exhaustive verification of the splitting classification.

For every admissible (genus, index) cell the harness builds the model and
checks it with zero tolerance.  A model whose action fails validation, or
whose graph is not connected, is reported with those failures alone.  Every
other model goes through its shape checks and then each law, and its failure
lines come in this order:

* shape: maximum degree 3, and the arithmetic genus as claimed;
* the claim laws, when the model claims ``(g, I)`` (:func:`_claim_laws`):
  index (the claimed index is the acting order, the gcd formula returns it,
  and the action's exact order is the declared one), then case (Case 1 iff
  ``I`` odd or genus 1), then prediction (the splitting table over all
  ``d | I``, ``e in {1, 2}`` equals the closed-form prediction);
* the oracle law (:func:`_oracle_law`): the classifier agrees with the blowup
  oracle for every ``d | I`` and every ramification index up to ``e_max``,
  and the index divides ``d * e`` wherever the oracle splits, one ``(d, e)``
  at a time;
* the realizability law (:func:`_realizability_law`): the graph passes the
  residue-field checks for each configured cardinality (the weak check when
  ``I = 1``, where the full one is knowingly too strong over the 2-element
  field).

The grid builds each genus's Moebius ladder once and makes every ``I >= 2``
cell of that genus from it (:func:`constructions.ladder_model`, the path
``construct`` takes too), so the graph's cached data is computed once per
genus.  ``check_model`` applies the same battery to a single, possibly
handcrafted, model; the claim laws are skipped when the model claims nothing.

The ``--json`` report is ``json.dumps(report_to_obj(r), indent=2)`` plus a
newline.  :func:`dumps_report` writes that layout straight from the cells,
as :func:`serialize.dumps_model` writes a model file, because ``json.dumps``
with ``indent`` runs a pure-Python encoder that took about a quarter of a
genus-24 sweep.  :func:`report_to_obj` stays as the exported form.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import accumulate
from json.encoder import encode_basestring_ascii

from .blowup import oracle_table
from .constructions import CurveModel, check_realizability, construct, ladder_model, mobius_ladder, vertex_count
from .invariants import Case, ExtensionSpec, SplittingReport, divisors, main_theorem_prediction, splitting_report
from .multigraph import euler_characteristic, is_connected
from .serialize import _container


# Most vertices one sweep builds, summed over its cells.  Every genus adds at
# least ``4g`` (its ``I = 1`` cell), so this bounds a large ``genus_max`` as
# well as a large genus-one cap.  At the limit a sweep at the default
# ``e_max`` (genus_max 280) takes about 6 s and 31 MB (Python 3.11, x86-64).
MAX_SWEEP = 10**6


def expected_case(genus: int, order: int) -> str:
    """Case 1 exactly for odd order or genus one."""
    return Case.CASE1 if order % 2 == 1 or genus == 1 else Case.CASE2


def admissible_orders(genus: int, genus_one_cap: int) -> list[int]:
    """The orders ``I | 2*genus - 2``; genus 1 admits everything, so it is capped."""
    if genus == 1:
        return list(range(1, genus_one_cap + 1))
    return divisors(abs(2 * genus - 2))


class CellReport(namedtuple("CellReport", (
    "genus order vertices edges euler genus_computed max_degree action_valid connected index case "
    "classifier_table oracle_table index_ok case_ok prediction_ok oracle_ok realizability failures"
))):
    """One cell's checks; the fields, in order, are the keys of its ``--json`` object.

    ``genus`` is the claimed genus, if any, and ``order`` the acting order.
    ``genus_computed`` is None when the graph is disconnected, and
    ``index_ok``, ``case_ok`` and ``prediction_ok`` are None when nothing is
    claimed to compare against.
    """

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return not self.failures


class VerificationReport(namedtuple("VerificationReport", "cells e_max residue_cardinalities")):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cells)


def check_model(
    m: CurveModel, e_max: int = 6, residue_cardinalities: tuple[int | float, ...] = (math.inf,)
) -> CellReport:
    """Run one cell's worth of checks against a model: its shape, then each law, in the order of the lines."""
    claimed_genus = m.claimed[0] if m.claimed else None
    max_degree = max(m.graph.degrees.values())
    shape = dict(
        genus=claimed_genus, order=m.action.order, vertices=len(m.graph.vertices), edges=len(m.graph.edges),
        euler=euler_characteristic(m.graph), max_degree=max_degree,
    )

    report = m.validation
    connected = is_connected(m.graph)
    if not (report.ok and connected):
        violations = [f"action invalid: {v.law}[{v.subject}] {v.detail}" for v in report.violations[:8]]
        return CellReport(
            **shape, genus_computed=None, action_valid=report.ok, connected=connected, index=None, case=None,
            classifier_table={}, oracle_table={}, index_ok=None, case_ok=None, prediction_ok=None, oracle_ok=False,
            realizability={}, failures=tuple(violations or ["graph is not connected"]),
        )

    failures = [f"maximum degree {max_degree} exceeds 3"] if max_degree > 3 else []
    genus_computed = 1 - shape["euler"]  # the arithmetic genus of a connected graph
    if claimed_genus is not None and genus_computed != claimed_genus:
        failures.append(f"genus: computed {genus_computed}, claimed {claimed_genus}")
    classifier, oracle = splitting_report(m), oracle_table(m, e_max)
    claim_lines, index_ok, case_ok, prediction_ok = _claim_laws(m, classifier)
    oracle_lines, oracle_ok = _oracle_law(classifier, oracle)
    realizability_lines, realizability = _realizability_law(m, residue_cardinalities)
    return CellReport(
        **shape, genus_computed=genus_computed, action_valid=True, connected=True, index=classifier.index,
        case=classifier.case, classifier_table=classifier.table, oracle_table=oracle, index_ok=index_ok,
        case_ok=case_ok, prediction_ok=prediction_ok, oracle_ok=oracle_ok, realizability=realizability,
        failures=(*failures, *claim_lines, *oracle_lines, *realizability_lines),
    )


# Each law returns its failure lines and what it reports; ``check_model``
# joins the lines in the order the laws are listed in the module docstring.

def _claim_laws(m: CurveModel, classifier: SplittingReport) -> tuple[list[str], bool | None, bool | None, bool | None]:
    """The index, case and prediction lines, then ``index_ok``, ``case_ok`` and ``prediction_ok``.

    A model that claims nothing has no lines, and None for each value.
    """
    if m.claimed is None:
        return [], None, None, None
    genus, claimed_index = m.claimed
    order, exact = m.action.order, m.action.exact_order
    index_lines = [line for broken, line in [
        (claimed_index != order, f"claimed index {claimed_index} differs from acting order {order}"),
        (classifier.index != claimed_index, f"index: computed {classifier.index}, claimed {claimed_index}"),
        (exact != order, f"action order: exact {exact}, declared {order}"),
    ] if broken]
    case, want_case = classifier.case, expected_case(genus, order)
    case_lines = [] if case == want_case else [f"case: computed {case}, expected {want_case}"]
    table = sorted(classifier.table.items())
    try:
        predicted = [main_theorem_prediction(genus, order, ExtensionSpec(d, e), want_case) for (d, e), _ in table]
        prediction_lines = [
            f"prediction mismatch at (d={d}, e={e}): classifier={got}, predicted={want}"
            for ((d, e), got), want in zip(table, predicted) if got != want
        ]
    except ValueError as err:  # the claim admits no prediction, e.g. I does not divide 2g - 2
        prediction_lines = [f"prediction: {err}"]
    return [*index_lines, *case_lines, *prediction_lines], not index_lines, not case_lines, not prediction_lines


def _oracle_law(classifier: SplittingReport, oracle: dict[tuple[int, int], bool]) -> tuple[list[str], bool]:
    """The oracle-mismatch and index-law lines, interleaved per ``(d, e)``, and ``oracle_ok``."""
    lines, oracle_ok = [], True
    table, index = classifier.table, classifier.index
    for (d, e), want in oracle.items():
        got = table[(d, 2 - e % 2)]  # the classifier reads only the parity of e
        if got != want:
            oracle_ok = False
            lines.append(f"oracle mismatch at (d={d}, e={e}): classifier={got}, oracle={want}")
        if want and d * e % index:  # the oracle found a point of degree d*e
            lines.append(f"index law at (d={d}, e={e}): oracle splits, but index {index} does not divide {d * e}")
    return lines, oracle_ok


def _realizability_law(m: CurveModel, qs: tuple[int | float, ...]) -> tuple[list[str], dict[int | float, bool]]:
    """One line per residue cardinality whose realizability check fails, and each cardinality's verdict."""
    mode = "full" if m.action.order > 1 else "weak"
    reports = [(q, check_realizability(m, q, mode)) for q in qs]
    lines = [
        f"realizability(q={q}, {mode}) failed: " + ", ".join(f"{c.name}: {c.detail}" for c in r.checks if not c.passed)
        for q, r in reports if not r.passed
    ]
    return lines, {q: r.passed for q, r in reports}


def run_verification(
    genus_max: int = 12,
    e_max: int = 6,
    residue_cardinalities: tuple[int | float, ...] = (math.inf,),
    genus_one_cap: int | None = None,
) -> VerificationReport:
    """Check every admissible cell with genus up to ``genus_max``.

    A sweep whose models would have more than :data:`MAX_SWEEP` vertices in
    all is refused before any model is built.  Their sizes are summed in
    sweep order only until the sum passes the limit, and the genus-one orders
    are counted off a ``range``, so a large cap is refused without listing them.
    """
    if genus_max < 0:
        raise ValueError(f"genus_max must be non-negative, got {genus_max}")
    if genus_one_cap is None:
        genus_one_cap = 2 * genus_max + 2
    elif genus_one_cap < 0:
        raise ValueError(f"genus_one_cap must be non-negative, got {genus_one_cap}")
    sizes = (
        vertex_count(genus, order) for genus in range(genus_max + 1)
        for order in (range(1, genus_one_cap + 1) if genus == 1 else admissible_orders(genus, genus_one_cap))
    )
    if any(total > MAX_SWEEP for total in accumulate(sizes)):
        raise ValueError(f"the sweep's models would have more vertices in all than the limit, {MAX_SWEEP}")
    cells = []
    for genus in range(genus_max + 1):
        ladder = mobius_ladder(genus) if genus >= 2 else None  # one graph for every I >= 2 of the genus
        for order in admissible_orders(genus, genus_one_cap):
            model = ladder_model(ladder, order) if ladder and order > 1 else construct(genus, order)
            cells.append(check_model(model, e_max, residue_cardinalities))
    return VerificationReport(tuple(cells), e_max, tuple(residue_cardinalities))


def render_cell(c: CellReport) -> str:
    genus = "?" if c.genus is None else c.genus
    case = c.case or "?"
    idx = "?" if c.index is None else c.index
    status = "ok" if c.passed else "FAIL"
    return (
        f"g={genus:>2} I={c.order:>2} | V={c.vertices:>3} E={c.edges:>3} "
        f"chi={c.euler:>4} maxdeg={c.max_degree} | index={idx:>2} {case:<5} | {status}"
    )


def render_report(r: VerificationReport) -> str:
    lines = [render_cell(c) for c in r.cells]
    lines += [f"  !! g={c.genus} I={c.order}: {f}" for c in r.cells for f in c.failures]
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
        cell = c._asdict()
        cell.update(
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
    ``CellReport._fields`` order and then ``passed``, strings quoted by
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
        "classifier_table": table,
        "oracle_table": table,
        "realizability": lambda x: _container(
            [f"        {_scalar(str(_q_obj(k)))}: {_scalar(v)}" for k, v in x.items()], "{}", "      "
        ),
        "failures": lambda x: _container([f"        {_scalar(s)}" for s in x], "[]", "      "),
    }
    layout = [(f"      {_scalar(name)}: ", name, writers.get(name, _scalar)) for name in CellReport._fields]
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
