"""Model files, one JSON document per curve model: the one module that knows their layout.

Every section is read and written here, the graph section included::

    {
      "graph":      {"vertices": [{"id": "0"}, ...],
                     "edges": [{"id": "c0", "ends": ["0", "1"]}, ...]},
      "action":     {"order": 6, "vertex_map": {...}, "edge_map": {...}},
      "components": {"0": {"ns_index": 1, "multiplicity": 1}, ...},
      "claimed":    {"genus": 4, "index": 6}
    }

``components`` entries default to 1/1 when omitted; ``claimed`` is optional;
``action.order`` is at most :data:`MAX_ORDER`, and a file at most
:data:`MAX_FILE_BYTES` bytes long, with at most :data:`MAX_DECODE_ITEMS` of
``{``, ``[`` and ``,`` in all.

Writing: a model file is ``json.dumps(model_to_obj(m), indent=2,
sort_keys=True)`` plus a newline (keys sorted, two-space indent, ASCII-only
escapes).  One private generator writes that layout straight from the model,
one section at a time, each section's entries laid out and joined only when
it is reached, because ``json.dumps`` with ``indent`` leaves the C encoder
for a pure-Python one, several times slower on a large model.
:func:`dumps_model` is the join of its sections; :func:`save_model` writes
them to the file as they are made, so the whole text is never one string.

Reading: :func:`load_model` drops the file's text as soon as it is decoded,
so only the decoded document is alive while the model is built.  Parsing
validates everything a :class:`CurveModel` promises (graph shape, action
laws, connectivity) and raises :class:`ModelFormatError` with the offending
location; so does a file the JSON decoder refuses, including one nested past
the interpreter's stack or holding an integer past ``int``'s digit limit.  A
lawful file costs whole-list type checks of the graph and action, one
whole-column test of the components and one pass per law; only a failed
list, column or law is scanned item by item for the message.  The action's
laws are read off the built model's cached report
(:attr:`CurveModel.validation`), after every section, so nothing validates twice.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterator
from itertools import chain, compress, repeat
from json.encoder import encode_basestring_ascii
from operator import mul, ne

from .action import CyclicAction
from .constructions import UNIT, Component, CurveModel
from .multigraph import GraphError, MultiGraph, is_connected


class ModelFormatError(ValueError):
    """A model document that does not parse or validate."""


# Largest accepted acting order.  Listing the divisors of I, which the
# splitting table and the oracle need, takes about sqrt(I) steps.
MAX_ORDER = 10**12

# Largest model file read, in bytes: more than twice the largest file
# ``construct`` writes (32.7 MB, at (50001, 2), with MAX_VERTICES vertices).
MAX_FILE_BYTES = 10**8

# Most of ``{``, ``[`` and ``,`` a model file may hold, counted before it is
# decoded.  Each array entry and each object member is the first in its
# container or follows a comma, so the count bounds the values and keys
# ``json`` builds: at most about 124 bytes each (Python 3.11, x86-64), besides
# the characters of the strings.  The largest file ``construct`` writes, at
# (50001, 2), holds 1,500,011.  A file no longer than this holds no more.
MAX_DECODE_ITEMS = 2 * 10**6


def _is_int(x: object) -> bool:
    """A JSON integer; ``true`` and ``false`` load as ``bool``, a subclass of ``int``."""
    return isinstance(x, int) and not isinstance(x, bool)


def graph_from_obj(obj: dict) -> MultiGraph:
    if not isinstance(obj, dict):
        raise GraphError("graph object must be a JSON object")
    try:
        raw_vertices = obj["vertices"]
        raw_edges = obj["edges"]
    except KeyError as missing:
        raise GraphError(f"graph object lacks key {missing}") from None
    if not isinstance(raw_vertices, list) or not isinstance(raw_edges, list):
        raise GraphError("graph.vertices and graph.edges must be lists")
    vertices, edges = _column(raw_vertices, "id", str), _edge_triples(raw_edges)
    if vertices is None or edges is None:
        _raise_first_bad_entry(raw_vertices, raw_edges)
    return MultiGraph.build(vertices, edges)


# A graph section is type-checked a whole list at a time; only a section
# that fails is scanned item by item, for the first bad entry and its message.

def _column(items: list, key: str, kind: type) -> list | None:
    """``item[key]`` for every item, or None unless every item is an object whose ``key`` is a ``kind``."""
    if not all(map(isinstance, items, repeat(dict))):
        return None
    column = list(map(dict.get, items, repeat(key)))
    return column if all(map(isinstance, column, repeat(kind))) else None


def _edge_triples(raw_edges: list) -> zip | None:
    """``(id, tail, head)`` for every edge, or None unless each is an object with a string id and two string ends."""
    ids, ends = _column(raw_edges, "id", str), _column(raw_edges, "ends", list)
    if ids is None or ends is None or set(map(len, ends)) - {2}:
        return None
    flat = list(chain.from_iterable(ends))
    return zip(ids, flat[::2], flat[1::2]) if all(map(isinstance, flat, repeat(str))) else None


def _raise_first_bad_entry(raw_vertices: list, raw_edges: list) -> None:
    for i, item in enumerate(raw_vertices):
        if not isinstance(item, dict) or not isinstance(item.get("id"), str):
            raise GraphError(f"vertices[{i}] must be an object with a string 'id'")
    for i, item in enumerate(raw_edges):
        if not isinstance(item, dict) or not isinstance(item.get("id"), str):
            raise GraphError(f"edges[{i}] must be an object with a string 'id'")
        ends = item.get("ends")
        if not isinstance(ends, list) or len(ends) != 2 or not all(map(isinstance, ends, (str, str))):
            raise GraphError(f"edges[{i}].ends must be a pair of vertex ids")


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
    a, g = m.action, m.graph
    obj = {
        "graph": {
            "vertices": [{"id": v} for v in g.vertices],
            "edges": [{"id": e, "ends": [tail, head]} for e, tail, head in g.edges],
        },
        "action": {"order": a.order, "vertex_map": dict(a.vertex_map), "edge_map": dict(a.edge_map)},
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
        graph = graph_from_obj(obj.get("graph"))
    except GraphError as err:
        raise ModelFormatError(f"graph: {err}") from None
    action = action_from_obj(obj.get("action"))

    components = dict.fromkeys(graph.vertices, UNIT)
    raw = obj.get("components", {})
    if not isinstance(raw, dict):
        raise ModelFormatError("components must be an object keyed by vertex id")
    for v, entry in _entries_to_check(raw, graph.vertex_set):
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
    report = model.validation
    if not report.ok:
        head = "; ".join(f"{v.law}[{v.subject}]: {v.detail}" for v in report.violations[:5])
        more = len(report.violations) - 5
        raise ModelFormatError(
            f"action fails validation: {head}" + (f" (+{more} more)" if more > 0 else "")
        )
    if not is_connected(graph):
        raise ModelFormatError("graph must be connected")
    return model


def _entries_to_check(raw: dict, vertices: frozenset[str]):
    """The component entries to read one by one: each entry, unless every one is an object keyed by a vertex
    whose ``ns_index`` and ``multiplicity`` (1 if omitted) are exact ``int``s >= 1; then those not 1/1."""
    entries = list(raw.values())
    if not raw.keys() <= vertices or not all(map(isinstance, entries, repeat(dict))):
        return raw.items()
    ns, mult = (list(map(dict.get, entries, repeat(key), repeat(1))) for key in ("ns_index", "multiplicity"))
    both = ns + mult
    if not set(map(type, both)) <= {int} or min(both, default=1) < 1:
        return raw.items()
    return compress(raw.items(), map(ne, map(mul, ns, mult), repeat(1)))


def _container(entries: list[str], brackets: str, indent: str) -> str:
    """A JSON array or object from its laid-out entries, closed at ``indent``; empty as ``[]`` or ``{}``."""
    if not entries:
        return brackets
    return brackets[0] + "\n" + ",\n".join(entries) + "\n" + indent + brackets[1]


def _model_sections(m: CurveModel) -> Iterator[str]:
    """The model file's text, one section at a time, in file order.

    Each section's entries are laid out and joined only when the section is
    reached, and nothing here holds a section once it is yielded, so a
    writer that writes each piece as it comes never has more than one
    section's entries and text in memory.  Identifiers are quoted by
    ``json``'s own C string encoder and integers by ``int.__repr__``.
    """
    q, num = encode_basestring_ascii, int.__repr__
    a, g = m.action, m.graph
    yield '{\n  "action": {\n    "edge_map": '
    yield _container([f"      {q(k)}: {q(a.edge_map[k])}" for k in sorted(a.edge_map)], "{}", "    ")
    yield f',\n    "order": {num(a.order)},\n    "vertex_map": '
    yield _container([f"      {q(k)}: {q(a.vertex_map[k])}" for k in sorted(a.vertex_map)], "{}", "    ")
    yield "\n  },\n"
    if m.claimed is not None:
        yield f'  "claimed": {{\n    "genus": {num(m.claimed[0])},\n    "index": {num(m.claimed[1])}\n  }},\n'
    yield '  "components": '
    yield _container([
        f'    {q(v)}: {{\n      "multiplicity": {num(c.multiplicity)},\n      "ns_index": {num(c.ns_index)}\n    }}'
        for v, c in sorted(m.components.items())
    ], "{}", "  ")
    yield ',\n  "graph": {\n    "edges": '
    yield _container([
        f'      {{\n        "ends": [\n          {q(tail)},\n          {q(head)}\n        ],\n        "id": {q(e)}\n      }}'
        for e, tail, head in g.edges
    ], "[]", "    ")
    yield ',\n    "vertices": '
    yield _container([f'      {{\n        "id": {q(v)}\n      }}' for v in g.vertices], "[]", "    ")
    yield "\n  }\n}\n"


def dumps_model(m: CurveModel) -> str:
    """The model file: ``json.dumps(model_to_obj(m), indent=2, sort_keys=True) + "\\n"``, byte for byte.

    The layout is fixed, so it is written straight from the model, as the
    join of the sections :func:`save_model` writes one by one.  ``json.dumps``
    with ``indent`` runs its pure-Python encoder, one generator step per
    token, which took most of the time of writing a large model.
    """
    return "".join(_model_sections(m))


def save_model(m: CurveModel, path: str | os.PathLike) -> None:
    """Write the model file, :func:`dumps_model`'s text, to ``path`` one section at a time.

    The whole text never exists as one string: each section is written as it
    is made and dropped before the next is laid out.
    """
    with open(path, "w", encoding="utf-8") as out:
        out.writelines(_model_sections(m))


def load_model(path: str | os.PathLike) -> CurveModel:
    """The model in the file at ``path``; :class:`ModelFormatError` names the path and what is wrong.

    At most :data:`MAX_FILE_BYTES` bytes are read, and a longer file, one
    that holds more than :data:`MAX_DECODE_ITEMS` of ``{``, ``[`` and ``,``
    (counted before anything is decoded), or one that is not UTF-8, is
    refused.  The file's text is dropped as soon as
    ``json`` has decoded it, so only the decoded document is alive while
    :func:`model_from_obj` builds and validates the model.
    """
    try:
        # read(n) reserves n bytes at once, so a regular file is read at its size,
        # and a pipe or a device, whose size reads 0, up to the limit.
        with open(path, "rb") as file:
            data = file.read(min(os.fstat(file.fileno()).st_size or MAX_FILE_BYTES, MAX_FILE_BYTES) + 1)
    except OSError as err:
        raise ModelFormatError(f"{path}: cannot read: {err}") from None
    if len(data) > MAX_FILE_BYTES:
        raise ModelFormatError(f"{path}: larger than {MAX_FILE_BYTES} bytes")
    if len(data) > MAX_DECODE_ITEMS and sum(map(data.count, (b"{", b"[", b","))) > MAX_DECODE_ITEMS:
        raise ModelFormatError(f"{path}: more than {MAX_DECODE_ITEMS} of '{{', '[' and ',' in all")
    try:
        text = data.decode("utf-8")
        del data
        obj = json.loads(text)
    except UnicodeDecodeError as err:
        raise ModelFormatError(f"{path}: not UTF-8: {err}") from None
    except (ValueError, RecursionError) as err:
        # Beside JSONDecodeError: an integer of more digits than int() accepts
        # (ValueError) and nesting deeper than the interpreter's stack (RecursionError).
        raise ModelFormatError(f"{path}: not valid JSON: {err}") from None
    del text
    try:
        return model_from_obj(obj)
    except ModelFormatError as err:
        raise ModelFormatError(f"{path}: {err}") from None
