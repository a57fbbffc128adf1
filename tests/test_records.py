"""The record types: named tuples, immutable, cheap to import, with the constructors the tracer relies on."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from curveindex import action, constructions, invariants, multigraph, verify
from curveindex.constructions import Component, CurveModel, GeneratingSet, check_realizability, construct
from curveindex.invariants import ExtensionSpec, splitting_report
from curveindex.multigraph import Edge, GraphError, MultiGraph

SRC = Path(__file__).resolve().parent.parent / "src"


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # Each CLI call is a fresh process that imports every layer first; building
    # dataclasses ran dozens of exec calls and pulled in inspect on every start.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    code = (
        "import sys; start = set(sys.modules); import curveindex.cli; "
        "print(sorted({'dataclasses', 'inspect'} - start & set(sys.modules)))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def one_of_each_record():
    m = construct(4, 6)
    return [
        m.graph.edges[0], m.graph, m.action, action.Violation("order", "", "detail"), m.validation,
        GeneratingSet(5, frozenset({1, 4})), Component(2, 3), m,
        check_realizability(m, math.inf).checks[0], check_realizability(m, math.inf),
        ExtensionSpec(3, 2), splitting_report(m), verify.check_model(m, 2), verify.run_verification(2, 2),
    ]


def test_every_record_type_is_listed_once():
    defined = {
        cls for module in (multigraph, action, constructions, invariants, verify) for cls in vars(module).values()
        if isinstance(cls, type) and issubclass(cls, tuple) and cls.__module__ == module.__name__
    }
    listed = [type(r) for r in one_of_each_record()]
    assert len(listed) == len(set(listed)) and set(listed) == defined


def test_every_record_rejects_field_assignment():
    for record in one_of_each_record():
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))


def test_models_built_without_components_never_share_them():
    graph, act = constructions.cycle_model(3)
    first, second = CurveModel(graph, act), CurveModel(graph, act)
    first.components["0"] = Component(2)
    assert first.components == {"0": Component(2)} and second.components == {}
    assert CurveModel(graph, act, claimed=(1, 3)).components == {}


def test_a_graph_is_checked_by_one_init_call(monkeypatch):
    # The benchmark's tracer counts graphs by wrapping ``MultiGraph.__init__(graph, vertices, edges)``.
    calls = []
    init = MultiGraph.__init__
    monkeypatch.setattr(MultiGraph, "__init__", lambda graph, *args: calls.append(args) or init(graph, *args))
    graph = MultiGraph(("a", "b"), (Edge("x", "a", "b"),))
    assert calls == [(graph.vertices, graph.edges)]
    built = MultiGraph.build(["a"], [("l", "a", "a")])
    assert calls[1:] == [(built.vertices, built.edges)]
    with pytest.raises(GraphError, match="unknown endpoint"):
        MultiGraph(("a",), (Edge("x", "a", "b"),))
    assert len(calls) == 3
