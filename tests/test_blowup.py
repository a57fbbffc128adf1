import ast
import inspect
import random
import sys
from collections import defaultdict

import pytest

from conftest import are_isomorphic, chain_name_clash_model, circulant_model, naive_power, single_edge_swap_model
from curveindex import blowup, invariants, multigraph
from curveindex.action import CyclicAction, cycles, validate
from curveindex.blowup import base_change, oracle_splits, oracle_table, transport
from curveindex.constructions import as_model, construct, cycle_model
from curveindex.invariants import ExtensionSpec, divisors, splits
from curveindex.multigraph import (
    GraphError,
    MultiGraph,
    arithmetic_genus,
    euler_characteristic,
    subdivide,
)
from curveindex.verify import check_model


def test_single_edge_quadratic_blowup():
    m = single_edge_swap_model()
    blown = base_change(m, ExtensionSpec(1, 2))
    assert len(blown.graph.vertices) == 3 and len(blown.graph.edges) == 2
    vmap = blown.action.vertex_map
    assert vmap["a"] == "b" and vmap["b"] == "a"
    assert vmap["e:1"] == "e:1"  # the flip holds the chain midpoint in place
    assert blown.graph.vertices == ("a", "b", "e:1")
    assert [edge.id for edge in blown.graph.edges] == ["e#0", "e#1"]
    assert oracle_splits(m, ExtensionSpec(1, 2))
    assert not oracle_splits(m, ExtensionSpec(1, 1))


def test_two_cycle_quadratic_blowup_is_free():
    graph, action = cycle_model(2)
    m = as_model(graph, action)
    blown = base_change(m, ExtensionSpec(1, 2))
    assert are_isomorphic(blown.graph, cycle_model(4)[0])
    vmap = blown.action.vertex_map
    assert all(vmap[v] != v for v in blown.graph.vertices)
    # the two chains are exchanged, not internally reversed
    assert vmap["c0:1"] == "c1:1" and vmap["c1:1"] == "c0:1"
    assert not oracle_splits(m, ExtensionSpec(1, 2))


def test_trivial_subgroup_gives_identity_action():
    m = construct(4, 6)
    blown = base_change(m, ExtensionSpec(6, 3))
    assert len(blown.graph.edges) == 3 * len(m.graph.edges)
    assert all(w == v for v, w in blown.action.vertex_map.items())
    assert blown.action.order == 1


def test_unramified_base_change_keeps_graph():
    m = construct(4, 6)
    blown = base_change(m, ExtensionSpec(3, 1))
    assert blown.graph == m.graph
    assert blown.action.order == 2
    assert blown.graph is m.graph  # no fresh vertices or segments


def test_k33_flipped_rung_parity():
    m = construct(4, 6)
    assert oracle_splits(m, ExtensionSpec(3, 2)) is True
    assert oracle_splits(m, ExtensionSpec(3, 3)) is False
    assert oracle_splits(m, ExtensionSpec(3, 4)) is True
    assert oracle_splits(m, ExtensionSpec(2, 2)) is False


def test_base_change_rejects_bad_parameters():
    m = construct(4, 6)
    with pytest.raises(ValueError):
        base_change(m, ExtensionSpec(4, 2))
    with pytest.raises(ValueError):
        ExtensionSpec(3, 0)


def test_transported_action_validates(model_pool):
    for m in model_pool[:30]:
        for d in divisors(m.action.order):
            for e in (1, 2, 3):
                blown = base_change(m, ExtensionSpec(d, e))
                assert validate(blown.graph, blown.action).ok


def test_blowup_preserves_euler_and_genus(model_pool):
    for m in model_pool[:30]:
        chi = euler_characteristic(m.graph)
        genus = arithmetic_genus(m.graph)
        for e in (2, 4, 5):
            blown = base_change(m, ExtensionSpec(1, e))
            assert euler_characteristic(blown.graph) == chi
            assert arithmetic_genus(blown.graph) == genus


def test_original_vertices_persist(model_pool):
    for m in model_pool[:10]:
        blown = base_change(m, ExtensionSpec(1, 3))
        assert set(m.graph.vertices) <= set(blown.graph.vertices)


def test_oracle_matches_classifier(model_pool):
    for m in model_pool:
        for d in divisors(m.action.order):
            for e in range(1, 7):
                spec = ExtensionSpec(d, e)
                assert oracle_splits(m, spec) == splits(m, spec), (d, e)


def test_oracle_verdict_depends_on_parity(model_pool):
    for m in model_pool[:30]:
        for d in divisors(m.action.order):
            odd = oracle_splits(m, ExtensionSpec(d, 1))
            even = oracle_splits(m, ExtensionSpec(d, 2))
            for e in range(3, 7):
                expected = even if e % 2 == 0 else odd
                assert oracle_splits(m, ExtensionSpec(d, e)) == expected


def naive_base_change(m, x):
    """Power first, then subdivide and transport the subgroup's generator.

    Also returns the ids the naming rule gives the fresh vertices and the
    edges of the subdivision, in the order the subdivision adds them.  The
    power is taken by repeated composition, so the vertex map shares no code
    with the oracle.
    """
    gen_v = naive_power(m.action.vertex_map, x.d)
    gen_e = naive_power(m.action.edge_map, x.d)
    sub_order = m.action.order // x.d
    fresh = [f"{edge.id}:{p}" for edge in m.graph.edges for p in range(1, x.e)]
    if x.e == 1:
        return m.graph, CyclicAction(sub_order, gen_v, gen_e), fresh, [edge.id for edge in m.graph.edges]
    segments = [f"{edge.id}#{s}" for edge in m.graph.edges for s in range(x.e)]
    graph = subdivide(m.graph, x.e)
    vmap = {v: gen_v[v] for v in m.graph.vertices}
    emap = {}
    for edge in m.graph.edges:
        image = m.graph.edge_by_id[gen_e[edge.id]]
        keeps_orientation = gen_v[edge.tail] == image.tail
        for p in range(1, x.e):
            q = p if keeps_orientation else x.e - p
            vmap[f"{edge.id}:{p}"] = f"{image.id}:{q}"
        for s in range(x.e):
            t = s if keeps_orientation else x.e - 1 - s
            emap[f"{edge.id}#{s}"] = f"{image.id}#{t}"
    return graph, CyclicAction(sub_order, vmap, emap), fresh, segments


def test_base_change_equals_power_then_transport(model_pool):
    for m in model_pool:
        for d in divisors(m.action.order):
            for e in (1, 2, 3):
                blown = base_change(m, ExtensionSpec(d, e))
                graph, action, fresh, edge_ids = naive_base_change(m, ExtensionSpec(d, e))
                assert blown.graph == graph
                assert blown.action.order == action.order
                assert list(blown.action.vertex_map.items()) == list(action.vertex_map.items())
                assert list(blown.action.edge_map.items()) == list(action.edge_map.items())
                assert blown.graph.vertices[len(m.graph.vertices):] == tuple(fresh)
                assert [edge.id for edge in blown.graph.edges] == edge_ids


def assert_oracle_table_matches_oracle_splits(m, e_max):
    table = oracle_table(m, e_max)
    assert table == {
        (d, e): oracle_splits(m, ExtensionSpec(d, e))
        for d in divisors(m.action.order)
        for e in range(1, e_max + 1)
    }
    assert list(table) == sorted(table)


def test_oracle_table_matches_oracle_splits(model_pool):
    rng = random.Random(5)
    circulants = [circulant_model(24, 1, rng), circulant_model(30, 2, rng)]
    for m in list(model_pool) + circulants:
        assert_oracle_table_matches_oracle_splits(m, 6)


def test_oracle_table_matches_the_named_subdivision(model_pool):
    """Each cell against a fixed vertex of the naively transported, named subgroup generator."""
    rng = random.Random(5)
    circulants = [(circulant_model(24, 1, rng), 6), (circulant_model(30, 2, rng), 6)]
    for m, e_max in [(m, 4) for m in model_pool] + circulants:
        for (d, e), verdict in oracle_table(m, e_max).items():
            vertex_map = naive_base_change(m, ExtensionSpec(d, e))[1].vertex_map
            assert verdict == any(w == v for v, w in vertex_map.items()), (d, e)


def test_oracle_table_matches_oracle_splits_at_depth_12():
    rng = random.Random(12)
    for m in (circulant_model(60, 1, rng), circulant_model(84, 2, rng)):
        assert_oracle_table_matches_oracle_splits(m, 12)


def test_transport_is_the_base_change_action(model_pool):
    for m in model_pool:
        for e in (1, 2, 3, 5):
            vperm, eperm = transport(m, e)
            graph = subdivide(m.graph, e)
            assert sorted(vperm) == list(range(len(graph.vertices)))
            assert sorted(eperm) == list(range(len(graph.edges)))
            vmap = {v: graph.vertices[i] for v, i in zip(graph.vertices, vperm)}
            emap = {edge.id: graph.edges[i].id for edge, i in zip(graph.edges, eperm)}
            blown = base_change(m, ExtensionSpec(1, e))
            assert blown.action.order == m.action.order
            if e == 1:  # base change keeps the model's own maps, whose key order positions do not have
                assert vmap == blown.action.vertex_map and emap == blown.action.edge_map
            else:
                assert list(vmap.items()) == list(blown.action.vertex_map.items())
                assert list(emap.items()) == list(blown.action.edge_map.items())
            assert vmap.keys() == blown.graph.vertex_set
            assert emap.keys() == blown.graph.edge_by_id.keys()


def test_chain_name_collisions_are_refused_where_names_are_made(monkeypatch):
    monkeypatch.setattr(multigraph, "chain_separator", lambda g, e: ":")
    m = chain_name_clash_model()
    with pytest.raises(GraphError, match="duplicate vertex identifiers"):
        base_change(m, ExtensionSpec(1, 2))
    assert oracle_table(m, 4) == {(d, e): splits(m, ExtensionSpec(d, e)) for d in (1, 2) for e in range(1, 5)}


def test_oracle_table_rejects_depth_below_one():
    with pytest.raises(ValueError, match="e_max must be at least 1, got 0"):
        oracle_table(construct(4, 6), 0)


def test_oracle_table_builds_no_graph(monkeypatch):
    subdivisions, builds = [], []
    build = MultiGraph.build

    def counting_subdivide(g, e):
        subdivisions.append(e)
        return subdivide(g, e)

    def counting_build(cls, vertices, edges):
        builds.append(cls)
        return build(vertices, edges)

    names = []
    modules = [mod for key, mod in sys.modules.items() if key.split(".")[0] == "curveindex"]
    for namer in (multigraph.chain, multigraph.chain_separator):
        def counting_namer(*args, namer=namer):
            names.append(namer.__name__)
            return namer(*args)

        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is namer:
                    monkeypatch.setattr(mod, key, counting_namer)

    transports = []

    def counting_transport(m, e):
        transports.append(e)
        return transport(m, e)

    m = construct(4, 6)
    monkeypatch.setattr(blowup, "transport", counting_transport)
    monkeypatch.setattr(blowup, "subdivide", counting_subdivide)
    monkeypatch.setattr(MultiGraph, "build", classmethod(counting_build))
    assert oracle_table(m, 6) == {(d, e): splits(m, ExtensionSpec(d, e)) for d in (1, 2, 3, 6) for e in range(1, 7)}
    assert builds == []
    cell = check_model(m, e_max=6)
    assert cell.passed and len(cell.oracle_table) == 4 * 6
    assert subdivisions == [] and names == [] and transports == []
    base_change(m, ExtensionSpec(1, 2))  # the path that does name chains and build an edge permutation is counted
    assert set(names) == {"chain", "chain_separator"} and transports == [2]


def test_oracle_walks_the_model_once_and_each_depth_only_its_chains(monkeypatch):
    walked = []

    def counting_cycles(perm):
        walked.append(len(perm))
        return cycles(perm)

    monkeypatch.setattr(blowup, "cycles", counting_cycles)
    for m, e_max in ((construct(4, 6), 6), (circulant_model(60, 2, random.Random(3)), 12)):
        walked.clear()
        oracle_table(m, e_max)
        n, k = len(m.graph.vertices), len(m.graph.edges)
        assert sum(walked) == n + sum(k * (e - 1) for e in range(1, e_max + 1))
        assert walked == [n] + [k * (e - 1) for e in range(2, e_max + 1)]


def test_chain_names_avoid_vertex_ids():
    m = chain_name_clash_model()
    blown = base_change(m, ExtensionSpec(1, 2))
    assert blown.graph.vertices == ("x:1", "b", "x::1")
    assert [edge.id for edge in blown.graph.edges] == ["x#0", "x#1"]
    assert blown.action.vertex_map == {"x:1": "b", "b": "x:1", "x::1": "x::1"}
    assert validate(blown.graph, blown.action).ok
    assert oracle_table(m, 4) == {(d, e): splits(m, ExtensionSpec(d, e)) for d in (1, 2) for e in range(1, 5)}


def curveindex_imports(module) -> dict[str, set[str]]:
    """``sibling module -> names`` that ``module`` imports from its own package (``*`` for the module itself)."""
    found = defaultdict(set)
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("curveindex."):
                    found[alias.name.removeprefix("curveindex.")].add("*")
        elif isinstance(node, ast.ImportFrom):
            path = node.module or ""
            if not node.level:
                if path.split(".")[0] != "curveindex":
                    continue
                path = path.removeprefix("curveindex").lstrip(".")
            if path:
                found[path].update(alias.name for alias in node.names)
            else:
                for alias in node.names:
                    found[alias.name].add("*")
    return found


def test_oracle_and_classifier_stay_independent():
    oracle = curveindex_imports(blowup)
    assert oracle["action"] <= {"CyclicAction", "cycles", "map_power"}
    assert oracle["invariants"] <= {"ExtensionSpec", "divisors"}
    assert "verify" not in oracle and "cli" not in oracle
    assert "blowup" not in curveindex_imports(invariants)
