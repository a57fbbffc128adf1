"""Per-layer tracing of curveindex from outside the package.

``Tracer.install`` replaces each traced public function at every name a
curveindex module binds it to.  Bindings are found by identity, so
``from .action import map_power`` in ``blowup`` is wrapped as well as
``action.map_power`` itself.  Each call records a span (name, parent span,
start, end) and bumps the counters of the work it did.  Spans stay in memory
and are written out at the end; ``uninstall`` restores the original bindings.

A run is split into segments (the traced set-up, then one per pass of the
workload); counts and distinct-key sets are kept per segment.  Time spent in
functions that are not traced counts towards the nearest traced caller.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

# (span name, module, attribute): the layers' public functions that are traced.
TRACED = [
    ("blowup.oracle_splits", "blowup", "oracle_splits"),
    ("blowup.base_change", "blowup", "base_change"),
    ("multigraph.subdivide", "multigraph", "subdivide_with_provenance"),
    ("multigraph.is_connected", "multigraph", "is_connected"),
    ("action.map_power", "action", "map_power"),
    ("action.validate", "action", "validate"),
    ("action.fixed_vertices", "action", "fixed_vertices"),
    ("action.stabilized_edges", "action", "stabilized_edges"),
    ("invariants.splits", "invariants", "splits"),
    ("invariants.m_invariant", "invariants", "m_invariant"),
    ("invariants.case_classification", "invariants", "case_classification"),
    ("invariants.index", "invariants", "index"),
    ("serialize.load_model", "serialize", "load_model"),
    ("serialize.dumps_model", "serialize", "dumps_model"),
    ("constructions.construct", "constructions", "construct"),
    ("constructions.check_realizability", "constructions", "check_realizability"),
    ("verify.check_model", "verify", "check_model"),
    ("verify.exact_order", "verify", "exact_order"),
    ("cli.main", "cli", "main"),
]


def _count_map_power(tracer, args, result) -> None:
    mapping, k = args
    tracer.counts["action.map_power_steps"] += k * len(mapping)
    tracer.distinct("action.map_power", (id(mapping), k), mapping)


def _count_splits(tracer, args, result) -> None:
    model, spec = args
    tracer.distinct("invariants.splits", (id(model), spec.d, spec.e % 2), model)


def _count_subdivide(tracer, args, result) -> None:
    graph, _ = result
    tracer.counts["multigraph.subdivide_vertices_out"] += len(graph.vertices)


def _count_load(tracer, args, result) -> None:
    tracer.counts["serialize.load_bytes"] += os.path.getsize(args[0])


HOOKS = {
    "action.map_power": _count_map_power,
    "invariants.splits": _count_splits,
    "multigraph.subdivide": _count_subdivide,
    "serialize.load_model": _count_load,
}


@dataclass
class Segment:
    label: str
    first: int  # index of the segment's first span
    last: int  # one past its last span
    wall: float
    counts: Counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.stack: list[int] = []
        self.segments: list[Segment] = []
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self._begin()

    def _begin(self) -> None:
        self.counts: Counter = Counter()
        self._seen: dict[str, set] = {}
        self._pinned: list[object] = []  # keeps objects alive so their ids stay distinct
        self._first = len(self.spans)

    def distinct(self, name: str, key: tuple, obj: object) -> None:
        seen = self._seen.setdefault(name, set())
        if key not in seen:
            seen.add(key)
            self._pinned.append(obj)

    def end_segment(self, label: str, wall: float) -> None:
        """Close the current segment; the next spans and counts start a new one."""
        for name, seen in self._seen.items():
            self.counts[f"{name}.distinct"] = len(seen)
        self.segments.append(Segment(label, self._first, len(self.spans), wall, self.counts))
        self._begin()

    def wrap(self, name: str, fn):
        spans, stack, hook = self.spans, self.stack, HOOKS.get(name)

        def traced(*args, **kwargs):
            sid = len(spans)
            record = [name, stack[-1] if stack else -1, 0.0, 0.0]
            spans.append(record)
            stack.append(sid)
            record[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = perf_counter()
                stack.pop()
            self.counts[f"{name}.calls"] += 1
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def install(self, ci) -> None:
        """Wrap every traced function at each of its bindings in the modules of ``ci``."""
        modules = list(vars(ci).values())
        for name, module, attr in TRACED:
            original = getattr(getattr(ci, module), attr, None)
            if original is None:
                self.missing.append(name)
                continue
            traced = self.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, traced)
        graph_cls = ci.multigraph.MultiGraph
        init = graph_cls.__init__

        def counted_init(graph, *args, **kwargs):
            init(graph, *args, **kwargs)
            self.counts["multigraph.graphs_built"] += 1

        self._patch(graph_cls, "__init__", counted_init)

    def _patch(self, owner, key: str, value) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches.clear()

    def self_times(self, seg: Segment) -> Counter:
        """Span duration minus the time covered by its child spans, summed by name."""
        out: Counter = Counter()
        spans = self.spans
        for name, parent, start, end in spans[seg.first:seg.last]:
            out[name] += end - start
            if parent >= 0:
                out[spans[parent][0]] -= end - start
        return out

    def write(self, path: Path) -> None:
        names = sorted({s[0] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        doc = {
            "names": names,
            "segments": [
                {"label": s.label, "first": s.first, "last": s.last, "wall_s": s.wall, "counts": dict(s.counts)}
                for s in self.segments
            ],
            "spans": [[code[n], p, round(a, 9), round(b, 9)] for n, p, a, b in self.spans],
        }
        path.write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")


def _mean_counter(counters: list[Counter]) -> dict[str, float]:
    keys = set().union(*counters)
    return {k: sum(c[k] for c in counters) / len(counters) for k in keys}


def layer_metrics(tracer: Tracer, overhead_ratio: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced set-up plus one (mean) traced pass.

    The first segment is the set-up, the rest are passes of the workload.
    Times are self times; shares are of the traced wall time of set-up plus
    pass.  ``overhead_ratio`` is passed through as ``trace.overhead_ratio``.
    """
    setup, passes = tracer.segments[0], tracer.segments[1:]
    times = Counter(tracer.self_times(setup))
    for name, value in _mean_counter([tracer.self_times(p) for p in passes]).items():
        times[name] += value
    counts = Counter(setup.counts)
    for name, value in _mean_counter([p.counts for p in passes]).items():
        counts[name] += value
    wall = setup.wall + sum(p.wall for p in passes) / len(passes)

    out: dict[str, tuple[float, str]] = {}
    for name, _, _ in TRACED:
        out[f"{name}_s"] = (times[name], "s")
    for name, _, _ in TRACED:
        out[f"{name}_share"] = (times[name] / wall, "ratio")

    def count(key: str) -> int | float:
        value = counts[key]
        return int(value) if float(value).is_integer() else value

    def ratio(name: str) -> float:
        calls = counts[f"{name}.calls"]
        return counts[f"{name}.distinct"] / calls if calls else 1.0

    out.update({
        "blowup.oracle_evals": (count("blowup.oracle_splits.calls"), "count"),
        "multigraph.subdivide_calls": (count("multigraph.subdivide.calls"), "count"),
        "multigraph.subdivide_vertices_out": (count("multigraph.subdivide_vertices_out"), "count"),
        "multigraph.graphs_built": (count("multigraph.graphs_built"), "count"),
        "action.map_power_calls": (count("action.map_power.calls"), "count"),
        "action.map_power_steps": (count("action.map_power_steps"), "count"),
        "action.map_power_distinct_ratio": (ratio("action.map_power"), "ratio"),
        "invariants.splits_calls": (count("invariants.splits.calls"), "count"),
        "invariants.splits_distinct_ratio": (ratio("invariants.splits"), "ratio"),
        "serialize.load_bytes": (count("serialize.load_bytes"), "B"),
        "verify.cells": (count("verify.check_model.calls"), "count"),
        "cli.output_bytes": (count("cli.output_bytes"), "B"),
        "trace.wall_s": (wall, "s"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    })
    return out
