import ast
import inspect
import random
import sys
from collections import defaultdict

import pytest

from conftest import (
    are_isomorphic,
    chain_name_clash_model,
    circulant_model,
    column_major,
    flipped_path_model,
    loop_at_fixed_vertex_model,
    naive_chains,
    naive_power,
    orbit_sizes,
    single_edge_swap_model,
)
from curveindex import blowup, invariants, multigraph
from curveindex.action import ActionError, CyclicAction, cycles, validate
from curveindex.blowup import oracle_splits, oracle_table
from curveindex.constructions import CurveModel, as_model, construct, cycle_model
from curveindex.invariants import ExtensionSpec, divisors, splits
from curveindex.multigraph import (
    GraphError,
    MultiGraph,
    arithmetic_genus,
    euler_characteristic,
    subdivide,
)
from curveindex.verify import check_model


def oracle_vertex_map(m, e):
    """The oracle's transported generator at depth ``e``, named through ``subdivide(m.graph, e)``'s vertex tuple.

    The oracle's chain position ``column_major(edges, e - 1)[x]`` is ``subdivide``'s position ``|V| + x``.
    """
    vertices, edges = blowup._vertex_positions(m), blowup._edge_positions(m)
    n = len(vertices)
    perm = vertices + [n + i for i in blowup._chains(blowup._blocks(edges, e - 1), e - 1)]
    names = subdivide(m.graph, e).vertices
    named = list(names)
    for x, p in enumerate(column_major(edges, e - 1)):
        named[n + p] = names[n + x]
    return {v: named[i] for v, i in zip(named, perm)}


def test_single_edge_quadratic_blowup():
    m = single_edge_swap_model()
    graph = subdivide(m.graph, 2)
    assert graph.vertices == ("a", "b", "e:1")
    assert [edge.id for edge in graph.edges] == ["e#0", "e#1"]
    # the flip holds the chain midpoint in place
    assert oracle_vertex_map(m, 2) == {"a": "b", "b": "a", "e:1": "e:1"}
    assert oracle_splits(m, ExtensionSpec(1, 2))
    assert not oracle_splits(m, ExtensionSpec(1, 1))


def test_two_cycle_quadratic_blowup_is_free():
    graph, action = cycle_model(2)
    m = as_model(graph, action)
    assert are_isomorphic(subdivide(graph, 2), cycle_model(4)[0])
    vmap = oracle_vertex_map(m, 2)
    assert all(w != v for v, w in vmap.items())
    # the two chains are exchanged, not internally reversed
    assert vmap["c0:1"] == "c1:1" and vmap["c1:1"] == "c0:1"
    assert not oracle_splits(m, ExtensionSpec(1, 2))


def test_trivial_subgroup_gives_identity_action():
    m = construct(4, 6)
    graph, action, _, _ = naive_base_change(m, ExtensionSpec(6, 3))
    assert len(graph.edges) == 3 * len(m.graph.edges)
    assert all(w == v for v, w in action.vertex_map.items())
    assert action.order == 1
    assert all(6 % len(c) == 0 for c in cycles(oracle_vertex_map(m, 3)))
    assert oracle_splits(m, ExtensionSpec(6, 3))


def test_unramified_base_change_keeps_graph():
    m = construct(4, 6)
    assert subdivide(m.graph, 1) is m.graph  # no fresh vertices or segments
    assert oracle_vertex_map(m, 1) == m.action.vertex_map


def test_k33_flipped_rung_parity():
    m = construct(4, 6)
    assert oracle_splits(m, ExtensionSpec(3, 2)) is True
    assert oracle_splits(m, ExtensionSpec(3, 3)) is False
    assert oracle_splits(m, ExtensionSpec(3, 4)) is True
    assert oracle_splits(m, ExtensionSpec(2, 2)) is False


def test_base_change_rejects_bad_parameters():
    m = construct(4, 6)
    with pytest.raises(ValueError, match="d = 4 does not divide the acting order 6"):
        oracle_splits(m, ExtensionSpec(4, 2))
    with pytest.raises(ValueError):
        ExtensionSpec(3, 0)


def test_transported_action_validates(model_pool):
    for m in model_pool[:30]:
        for d in divisors(m.action.order):
            for e in (1, 2, 3):
                graph, action, _, _ = naive_base_change(m, ExtensionSpec(d, e))
                assert validate(graph, action).ok


def test_blowup_preserves_euler_and_genus(model_pool):
    for m in model_pool[:30]:
        chi = euler_characteristic(m.graph)
        genus = arithmetic_genus(m.graph)
        for e in (2, 4, 5):
            graph = subdivide(m.graph, e)
            assert euler_characteristic(graph) == chi
            assert arithmetic_genus(graph) == genus


def test_original_vertices_persist(model_pool):
    for m in model_pool[:10]:
        assert subdivide(m.graph, 3).vertices[: len(m.graph.vertices)] == m.graph.vertices


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


def test_subdivision_names_are_the_naive_names(model_pool):
    for m in model_pool:
        for e in (1, 2, 3):
            graph, _, fresh, edge_ids = naive_base_change(m, ExtensionSpec(1, e))
            assert graph.vertices[len(m.graph.vertices):] == tuple(fresh)
            assert [edge.id for edge in graph.edges] == edge_ids


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


def test_oracle_positions_are_the_named_base_change_action(model_pool):
    for m in model_pool:
        for e in (1, 2, 3, 5):
            vmap = oracle_vertex_map(m, e)
            assert vmap == naive_base_change(m, ExtensionSpec(1, e))[1].vertex_map
            assert sorted(vmap.values()) == sorted(vmap)


def assert_chains_relabel_the_edge_by_edge_layout(edges, width):
    """``chains[pi(x)] == pi(naive[x])`` for every position ``x``, with ``pi`` the column-major relabelling."""
    chains = blowup._chains(blowup._blocks(edges, 12), width)
    naive, pi = naive_chains(edges, width), column_major(edges, width)
    assert sorted(pi) == list(range(len(naive)))
    assert all(chains[pi[x]] == pi[y] for x, y in enumerate(naive)), (edges, width)
    assert len(chains) == len(naive) and all(i in range(len(chains)) for i in chains)


def test_chains_are_laid_out_as_edge_by_edge(model_pool):
    """The block layout is the per-edge layout relabelled, and every list the oracle walks holds only its own positions."""
    for m in model_pool:
        vertices, edges = blowup._vertex_positions(m), blowup._edge_positions(m)
        assert all(i in range(len(vertices)) for i in vertices)
        for width in range(1, 13):
            assert_chains_relabel_the_edge_by_edge_layout(edges, width)
    rng = random.Random(22)
    for _ in range(200):
        k, width = rng.randint(0, 9), rng.randint(1, 12)
        edges = [(rng.randrange(k), rng.choice((1, -1))) for _ in range(k)]
        assert_chains_relabel_the_edge_by_edge_layout(edges, width)
    # no edges, only forward edges, only backward edges
    for width in range(1, 13):
        for edges in ([], [(j, 1) for j in (2, 0, 3, 1)], [(j, -1) for j in (2, 0, 3, 1)]):
            assert_chains_relabel_the_edge_by_edge_layout(edges, width)
            # blocks built only up to the requested width lay out the same list
            assert blowup._chains(blowup._blocks(edges, width), width) == blowup._chains(blowup._blocks(edges, 12), width)


def test_oracle_relabels_chains_of_both_steps():
    """Circulants whose generator keeps some edge orientations and reverses others."""
    rng = random.Random(23)
    for m in (circulant_model(24, 1, rng), circulant_model(30, 2, rng), circulant_model(60, 4, rng)):
        assert {step for _, step in blowup._edge_positions(m)} == {1, -1}
        assert oracle_table(m, 12) == named_oracle_table(m, 12)
        for e in (2, 3, 12):
            assert oracle_vertex_map(m, e) == naive_base_change(m, ExtensionSpec(1, e))[1].vertex_map, e


def test_a_broken_map_through_the_oracle_names_the_walk_that_breaks():
    """Unvalidated models: the oracle raises where a walk breaks, and answers where it walks no chain."""
    m = construct(4, 6)
    vmap, emap = m.action.vertex_map, m.action.edge_map
    two_onto_one = CurveModel(m.graph, CyclicAction(6, vmap, {**emap, "c0": emap["c1"]}), m.components)
    not_onto = CurveModel(m.graph, CyclicAction(6, {**vmap, "0": vmap["1"]}, emap), m.components)
    for broken in (two_onto_one, not_onto):
        assert not validate(broken.graph, broken.action).ok

    def outcome(oracle, *args):
        try:
            return oracle(*args)
        except ActionError as err:
            return str(err)

    def walk(start):
        return f"not a permutation: the walk from {start} never returns"

    # Nothing maps onto vertex 1, nor onto edge c1's chain. Edge c1 ranks first, so the chain's position
    # from its tail is 0 at every depth. No chain is walked at depth 1 or for d = 6, which fixes every vertex.
    first = next(k for k, (_, step) in enumerate(blowup._edge_positions(two_onto_one)) if step == 1)
    assert two_onto_one.graph.edges[first].id == "c1"
    for e in range(1, 7):
        want = {(d, 1): d == 6 for d in (1, 2, 3, 6)} if e == 1 else walk(0)
        assert outcome(oracle_table, two_onto_one, e) == want, e
        assert outcome(oracle_table, not_onto, e) == walk(1), e
        for d in (1, 2, 3, 6):
            want = True if d == 6 else False if e == 1 else walk(0)
            assert outcome(oracle_splits, two_onto_one, ExtensionSpec(d, e)) == want, (d, e)
            assert outcome(oracle_splits, not_onto, ExtensionSpec(d, e)) == walk(1), (d, e)


def test_chain_name_collisions_are_refused_where_names_are_made(monkeypatch):
    monkeypatch.setattr(multigraph, "chain_separator", lambda g, e: ":")
    m = chain_name_clash_model()
    with pytest.raises(GraphError, match="duplicate vertex identifiers"):
        subdivide(m.graph, 2)
    assert oracle_table(m, 4) == {(d, e): splits(m, ExtensionSpec(d, e)) for d in (1, 2) for e in range(1, 5)}


def test_oracle_table_rejects_depth_below_one():
    with pytest.raises(ValueError, match="e_max must be at least 1, got 0"):
        oracle_table(construct(4, 6), 0)


def test_oracle_refuses_work_past_its_limit_before_laying_anything_out(monkeypatch):
    laid_out = []
    blocks = blowup._blocks
    monkeypatch.setattr(blowup, "_blocks", lambda *args: laid_out.append(args) or blocks(*args))
    m = construct(4, 6)  # 4 divisors, 9 edges, d = 6 settled by the vertices and the rest not
    monkeypatch.setattr(blowup, "MAX_WORK", 9 * 66)  # the chains of depths 2..12
    assert oracle_table(m, 12) == {(d, e): splits(m, ExtensionSpec(d, e)) for d in (1, 2, 3, 6) for e in range(1, 13)}
    assert oracle_splits(m, ExtensionSpec(1, 67)) is False  # one depth: 66 positions per edge
    laid_out.clear()
    with pytest.raises(ValueError, match="^the oracle's chains would hold 702 positions; the limit is 594$"):
        oracle_table(m, 13)
    with pytest.raises(ValueError, match="^the oracle's chains would hold 603 positions; the limit is 594$"):
        oracle_splits(m, ExtensionSpec(1, 68))
    assert laid_out == []
    # a settled d lays out nothing, so only its table counts
    assert oracle_splits(m, ExtensionSpec(6, 10**9)) is True
    trivial = construct(3, 1)
    assert len(oracle_table(trivial, 594)) == 594
    with pytest.raises(ValueError, match="^the oracle table would hold 595 cells; the limit is 594$"):
        oracle_table(trivial, 595)
    assert laid_out == []


def test_oracle_table_builds_no_graph(monkeypatch):
    builds, names = [], []
    build = MultiGraph.build

    def counting_build(cls, vertices, edges):
        builds.append(cls)
        return build(vertices, edges)

    modules = [mod for key, mod in sys.modules.items() if key.split(".")[0] == "curveindex"]
    for namer in (multigraph.subdivide, multigraph.chain_separator):
        def counting_namer(*args, namer=namer):
            names.append(namer.__name__)
            return namer(*args)

        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is namer:
                    monkeypatch.setattr(mod, key, counting_namer)

    m = construct(4, 6)
    monkeypatch.setattr(MultiGraph, "build", classmethod(counting_build))
    assert oracle_table(m, 6) == {(d, e): splits(m, ExtensionSpec(d, e)) for d in (1, 2, 3, 6) for e in range(1, 7)}
    assert builds == []
    cell = check_model(m, e_max=6)
    assert cell.passed and len(cell.oracle_table) == 4 * 6
    assert names == []
    multigraph.subdivide(m.graph, 2)  # the path that does name chains is counted
    assert names == ["subdivide", "chain_separator"] and len(builds) == 1


def hub_swap_model():
    """Four leaves in one 4-cycle, hanging alternately off two hubs that the generator swaps.

    The hubs are fixed by the square, a proper subgroup, and the edge between them is flipped.
    """
    graph = MultiGraph.build(
        ["h0", "h1", "l0", "l1", "l2", "l3"],
        [("f", "h0", "h1")] + [(f"s{i}", f"l{i}", f"h{i % 2}") for i in range(4)],
    )
    vmap = {"h0": "h1", "h1": "h0", **{f"l{i}": f"l{(i + 1) % 4}" for i in range(4)}}
    emap = {"f": "f", **{f"s{i}": f"s{(i + 1) % 4}" for i in range(4)}}
    return as_model(graph, CyclicAction(4, vmap, emap))


def named_oracle_table(m, e_max):
    """Each cell read off the cycles of the whole named generator on ``subdivide(m.graph, e)``'s vertices."""
    table = {}
    for e in range(1, e_max + 1):
        lengths = {len(c) for c in cycles(oracle_vertex_map(m, e))}
        table.update({(d, e): any(d % n == 0 for n in lengths) for d in divisors(m.action.order)})
    return table


def test_oracle_walks_the_model_once_and_each_depth_only_its_chains(monkeypatch, model_pool):
    walked = []
    lengths = blowup._lengths

    def counting_lengths(perm):
        walked.append(len(perm))
        return lengths(perm)

    monkeypatch.setattr(blowup, "_lengths", counting_lengths)
    hubs = hub_swap_model()
    assert validate(hubs.graph, hubs.action).ok and hubs.action.vertex_orbit["h0"] == 2
    unsettled = [(construct(4, 6), 6), (circulant_model(60, 2, random.Random(3)), 12), (hubs, 6)]
    for m, e_max in unsettled:
        walked.clear()
        oracle_table(m, e_max)
        n, k = len(m.graph.vertices), len(m.graph.edges)
        assert sum(walked) == n + sum(k * (e - 1) for e in range(1, e_max + 1))
        assert walked == [n] + [k * (e - 1) for e in range(2, e_max + 1)]
    # a vertex fixed by the d-th power settles d at every depth: no chain is laid out for it
    trivial = [construct(g, 1) for g in range(13)]
    for m in trivial + [loop_at_fixed_vertex_model(), flipped_path_model()]:
        walked.clear()
        oracle_table(m, 6)
        assert walked == [len(m.graph.vertices)]
    for d, e, want in ((2, 3, [6]), (4, 5, [6]), (1, 3, [6, 10])):
        walked.clear()
        oracle_splits(hubs, ExtensionSpec(d, e))
        assert walked == want, (d, e)
    # one cell walks the model's vertices, then only its own depth's chains, and those only if d is unsettled
    for m in model_pool:
        n, k = len(m.graph.vertices), len(m.graph.edges)
        own = set(orbit_sizes(m.action).values())
        for d in divisors(m.action.order):
            for e in range(1, 5):
                walked.clear()
                oracle_splits(m, ExtensionSpec(d, e))
                settled = e == 1 or any(d % size == 0 for size in own)
                assert walked == ([n] if settled else [n, k * (e - 1)]), (d, e)
    for m in trivial + [hubs] + list(model_pool):
        assert oracle_table(m, 6) == named_oracle_table(m, 6)
    for m in model_pool:
        for (d, e), verdict in oracle_table(m, 6).items():
            assert oracle_splits(m, ExtensionSpec(d, e)) is verdict, (d, e)


def test_chain_names_avoid_vertex_ids():
    m = chain_name_clash_model()
    graph = subdivide(m.graph, 2)
    assert graph.vertices == ("x:1", "b", "x::1")
    assert [edge.id for edge in graph.edges] == ["x#0", "x#1"]
    assert oracle_vertex_map(m, 2) == {"x:1": "b", "b": "x:1", "x::1": "x::1"}
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
    assert oracle["action"] <= {"ActionError"}
    assert oracle["invariants"] <= {"ExtensionSpec", "divisors"}
    assert "multigraph" not in oracle and "verify" not in oracle and "cli" not in oracle
    assert "blowup" not in curveindex_imports(invariants)
