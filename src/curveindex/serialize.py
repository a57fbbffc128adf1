"""Model files: one JSON document per curve model.

Layout::

    {
      "graph":      {"vertices": [{"id": "0"}, ...],
                     "edges": [{"id": "c0", "ends": ["0", "1"]}, ...]},
      "action":     {"order": 6, "vertex_map": {...}, "edge_map": {...}},
      "components": {"0": {"ns_index": 1, "multiplicity": 1}, ...},
      "claimed":    {"genus": 4, "index": 6}
    }

``components`` entries default to 1/1 when omitted; ``claimed`` is optional;
``action.order`` is at most :data:`MAX_ORDER`.
Parsing validates everything a :class:`CurveModel` promises (graph shape,
action laws, connectivity) and raises :class:`ModelFormatError` with the
offending location.  A lawful file costs whole-list type checks of the
graph and action, a check per component entry and one pass per law; only a
failed list or law is scanned item by item for the message.  The model keeps its validation report
(:attr:`CurveModel.validation`), so checking it later validates nothing again.
"""

from __future__ import annotations

import json
from itertools import repeat
from pathlib import Path

from . import multigraph
from .action import CyclicAction, validate
from .constructions import UNIT, Component, CurveModel
from .multigraph import GraphError, is_connected


class ModelFormatError(ValueError):
    """A model document that does not parse or validate."""


# Largest accepted acting order.  Listing the divisors of I, which the
# splitting table and the oracle need, takes about sqrt(I) steps.
MAX_ORDER = 10**12


def _is_int(x: object) -> bool:
    """A JSON integer; ``true`` and ``false`` load as ``bool``, a subclass of ``int``."""
    return isinstance(x, int) and not isinstance(x, bool)


def action_to_obj(a: CyclicAction) -> dict:
    return {"order": a.order, "vertex_map": dict(a.vertex_map), "edge_map": dict(a.edge_map)}


def action_from_obj(obj: dict) -> CyclicAction:
    if not isinstance(obj, dict):
        raise ModelFormatError("action must be a JSON object")
    order = obj.get("order")
    if not _is_int(order) or order < 1:
        raise ModelFormatError(f"action.order must be a positive integer, got {order!r}")
    if order > MAX_ORDER:
        raise ModelFormatError(f"action.order must be at most {MAX_ORDER}, got {order}")
    maps = {}
    for key in ("vertex_map", "edge_map"):
        raw = obj.get(key)
        if not isinstance(raw, dict) or not all(map(isinstance, (*raw, *raw.values()), repeat(str))):
            raise ModelFormatError(f"action.{key} must map identifiers to identifiers")
        maps[key] = dict(raw)
    return CyclicAction(order, maps["vertex_map"], maps["edge_map"])


def model_to_obj(m: CurveModel) -> dict:
    obj = {
        "graph": multigraph.to_json_obj(m.graph),
        "action": action_to_obj(m.action),
        "components": {
            v: {"ns_index": c.ns_index, "multiplicity": c.multiplicity}
            for v, c in sorted(m.components.items())
        },
    }
    if m.claimed is not None:
        obj["claimed"] = {"genus": m.claimed[0], "index": m.claimed[1]}
    return obj


def model_from_obj(obj: dict) -> CurveModel:
    if not isinstance(obj, dict):
        raise ModelFormatError("model must be a JSON object")
    try:
        graph = multigraph.from_json_obj(obj.get("graph"))
    except GraphError as err:
        raise ModelFormatError(f"graph: {err}") from None
    action = action_from_obj(obj.get("action"))

    report = validate(graph, action)
    if not report.ok:
        head = "; ".join(f"{v.law}[{v.subject}]: {v.detail}" for v in report.violations[:5])
        more = len(report.violations) - 5
        raise ModelFormatError(
            f"action fails validation: {head}" + (f" (+{more} more)" if more > 0 else "")
        )
    if not is_connected(graph):
        raise ModelFormatError("graph must be connected")

    components = dict.fromkeys(graph.vertices, UNIT)
    raw = obj.get("components", {})
    if not isinstance(raw, dict):
        raise ModelFormatError("components must be an object keyed by vertex id")
    for v, entry in raw.items():
        if v not in graph.vertex_set:
            raise ModelFormatError(f"components[{v!r}]: unknown vertex")
        if not isinstance(entry, dict):
            raise ModelFormatError(f"components[{v!r}] must be an object")
        ns = entry.get("ns_index", 1)
        mult = entry.get("multiplicity", 1)
        if not _is_int(ns) or not _is_int(mult):
            raise ModelFormatError(f"components[{v!r}]: ns_index/multiplicity must be integers")
        try:
            components[v] = UNIT if ns == mult == 1 else Component(ns, mult)
        except ValueError as err:
            raise ModelFormatError(f"components[{v!r}]: {err}") from None

    claimed = None
    if "claimed" in obj:
        raw_claim = obj["claimed"]
        if (
            not isinstance(raw_claim, dict)
            or not _is_int(raw_claim.get("genus"))
            or not _is_int(raw_claim.get("index"))
            or raw_claim["genus"] < 0
            or raw_claim["index"] < 1
        ):
            raise ModelFormatError("claimed must carry a non-negative genus and a positive index")
        claimed = (raw_claim["genus"], raw_claim["index"])
    model = CurveModel(graph, action, components, claimed)
    vars(model)["validation"] = report  # the cached property: the model's checks need not validate again
    return model


def dumps_model(m: CurveModel) -> str:
    return json.dumps(model_to_obj(m), indent=2, sort_keys=True) + "\n"


def save_model(m: CurveModel, path: str | Path) -> None:
    Path(path).write_text(dumps_model(m), encoding="utf-8")


def load_model(path: str | Path) -> CurveModel:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise ModelFormatError(f"{path}: cannot read: {err}") from None
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as err:
        raise ModelFormatError(f"{path}: not valid JSON: {err}") from None
    try:
        return model_from_obj(obj)
    except ModelFormatError as err:
        raise ModelFormatError(f"{path}: {err}") from None
