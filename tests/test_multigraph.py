import random

import pytest

from curveindex.constructions import coathanger_chain, mobius_ladder
from curveindex.multigraph import (
    GraphError,
    MultiGraph,
    are_isomorphic,
    arithmetic_genus,
    degree,
    euler_characteristic,
    from_json_obj,
    is_connected,
    subdivide,
    subdivide_with_provenance,
    to_dot,
    to_json_obj,
)


def cycle_graph(n):
    return MultiGraph.build(
        (str(i) for i in range(n)),
        ((f"c{i}", str(i), str((i + 1) % n)) for i in range(n)),
    )


def path_graph(n_edges):
    return MultiGraph.build(
        (str(i) for i in range(n_edges + 1)),
        ((f"p{i}", str(i), str(i + 1)) for i in range(n_edges)),
    )


def complete_graph(n):
    return MultiGraph.build(
        (str(i) for i in range(n)),
        ((f"k{i}-{j}", str(i), str(j)) for i in range(n) for j in range(i + 1, n)),
    )


def complete_bipartite_3_3():
    left = ["u0", "u1", "u2"]
    right = ["w0", "w1", "w2"]
    return MultiGraph.build(
        left + right,
        ((f"{u}{w}", u, w) for u in left for w in right),
    )


def random_multigraph(rng, max_vertices=6, max_edges=10):
    nv = rng.randint(1, max_vertices)
    vertices = [str(i) for i in range(nv)]
    edges = [
        (f"e{j}", rng.choice(vertices), rng.choice(vertices))
        for j in range(rng.randint(0, max_edges))
    ]
    return MultiGraph.build(vertices, edges)


# construction validation

def test_empty_graph_rejected():
    with pytest.raises(GraphError):
        MultiGraph.build([], [])


def test_duplicate_vertex_ids_rejected():
    with pytest.raises(GraphError, match="duplicate vertex"):
        MultiGraph.build(["a", "a"], [])


def test_duplicate_edge_ids_rejected():
    with pytest.raises(GraphError, match="duplicate edge"):
        MultiGraph.build(["a", "b"], [("e", "a", "b"), ("e", "b", "a")])


def test_unknown_endpoint_rejected():
    with pytest.raises(GraphError, match="unknown endpoint"):
        MultiGraph.build(["a"], [("e", "a", "b")])


# euler characteristic

def test_euler_mobius_ladder_g5():
    graph, _ = mobius_ladder(5)
    assert len(graph.vertices) == 8 and len(graph.edges) == 12
    assert euler_characteristic(graph) == -4


def test_euler_single_vertex():
    assert euler_characteristic(MultiGraph.build(["v"], [])) == 1


def test_euler_six_cycle():
    assert euler_characteristic(cycle_graph(6)) == 0


# arithmetic genus

def test_genus_single_vertex():
    assert arithmetic_genus(MultiGraph.build(["v"], [])) == 0


def test_genus_coathanger():
    graph, _ = coathanger_chain(1)
    assert len(graph.vertices) == 4 and len(graph.edges) == 4
    assert arithmetic_genus(graph) == 1


def test_genus_k33():
    assert arithmetic_genus(complete_bipartite_3_3()) == 4


def test_genus_rejects_disconnected():
    g = MultiGraph.build(["a", "b"], [])
    with pytest.raises(GraphError):
        arithmetic_genus(g)


# degree

def test_degree_coathanger_hub():
    graph, _ = coathanger_chain(1)
    assert degree(graph, "0.0") == 3


def test_degree_isolated_vertex():
    assert degree(MultiGraph.build(["v"], []), "v") == 0


def test_degree_loop_counts_twice():
    g = MultiGraph.build(["v"], [("l", "v", "v")])
    assert degree(g, "v") == 2


def test_degree_unknown_vertex():
    with pytest.raises(GraphError):
        degree(MultiGraph.build(["v"], []), "w")


def test_degree_sum_is_twice_edge_count():
    rng = random.Random(7)
    for _ in range(50):
        g = random_multigraph(rng)
        assert sum(g.degrees.values()) == 2 * len(g.edges)


# connectivity

def test_two_isolated_vertices_disconnected():
    assert not is_connected(MultiGraph.build(["a", "b"], []))


def test_cycles_connected():
    for n in (2, 3, 7):
        assert is_connected(cycle_graph(n))


def test_mobius_ladders_connected():
    for g in range(2, 9):
        graph, _ = mobius_ladder(g)
        assert is_connected(graph)


# subdivision

def test_subdivide_single_edge_is_path():
    g = MultiGraph.build(["a", "b"], [("e", "a", "b")])
    s = subdivide(g, 3)
    assert len(s.vertices) == 4 and len(s.edges) == 3
    assert are_isomorphic(s, path_graph(3))
    assert {"a", "b"} <= set(s.vertices)


def test_subdivide_two_cycle_gives_four_cycle():
    s = subdivide(cycle_graph(2), 2)
    assert are_isomorphic(s, cycle_graph(4))


def test_subdivide_identity():
    g = cycle_graph(3)
    assert subdivide(g, 1) == g


def test_subdivide_rejects_zero():
    with pytest.raises(GraphError):
        subdivide(cycle_graph(3), 0)


def test_subdivide_provenance_positions():
    g = MultiGraph.build(["a", "b"], [("e", "a", "b")])
    s, prov = subdivide_with_provenance(g, 4)
    assert prov == {"e:1": ("e", 1), "e:2": ("e", 2), "e:3": ("e", 3)}
    # chain runs tail -> head through the recorded positions
    by_id = s.edge_by_id
    assert (by_id["e#0"].tail, by_id["e#0"].head) == ("a", "e:1")
    assert (by_id["e#3"].tail, by_id["e#3"].head) == ("e:3", "b")


def test_subdivide_preserves_euler_and_counts():
    rng = random.Random(11)
    for _ in range(40):
        g = random_multigraph(rng)
        e = rng.randint(1, 5)
        s = subdivide(g, e)
        assert len(s.vertices) == len(g.vertices) + len(g.edges) * (e - 1)
        assert len(s.edges) == e * len(g.edges)
        assert euler_characteristic(s) == euler_characteristic(g)
        assert is_connected(s) == is_connected(g)


def test_subdivide_preserves_genus():
    for g_param in range(2, 7):
        graph, _ = mobius_ladder(g_param)
        for e in (2, 3, 5):
            assert arithmetic_genus(subdivide(graph, e)) == arithmetic_genus(graph)


# isomorphism

def test_mobius_4_is_k33():
    graph, _ = mobius_ladder(4)
    assert are_isomorphic(graph, complete_bipartite_3_3())


def test_mobius_3_is_k4():
    graph, _ = mobius_ladder(3)
    assert are_isomorphic(graph, complete_graph(4))


def test_triangle_vs_path():
    assert not are_isomorphic(cycle_graph(3), path_graph(3))


def test_multiplicities_respected():
    four_cycle = cycle_graph(4)
    two_pairs = MultiGraph.build(
        ["a", "b", "c", "d"],
        [("e1", "a", "b"), ("e2", "a", "b"), ("e3", "c", "d"), ("e4", "c", "d")],
    )
    # same vertex count, edge count and degree sequence; different pair multiplicities
    assert not are_isomorphic(four_cycle, two_pairs)


def test_loops_respected():
    loop = MultiGraph.build(["a", "b"], [("l", "a", "a")])
    edge = MultiGraph.build(["a", "b"], [("e", "a", "b")])
    assert not are_isomorphic(loop, edge)


def test_isomorphism_reflexive_and_symmetric():
    fixtures = [
        cycle_graph(5),
        complete_graph(4),
        complete_bipartite_3_3(),
        mobius_ladder(4)[0],
        coathanger_chain(2)[0],
        MultiGraph.build(["a"], [("l", "a", "a")]),
    ]
    for g in fixtures:
        assert are_isomorphic(g, g)
    for g1 in fixtures:
        for g2 in fixtures:
            assert are_isomorphic(g1, g2) == are_isomorphic(g2, g1)


def test_relabelled_graph_is_isomorphic():
    rng = random.Random(23)
    for _ in range(20):
        g = random_multigraph(rng)
        names = {v: f"x{k}" for k, v in enumerate(rng.sample(g.vertices, len(g.vertices)))}
        relabelled = MultiGraph.build(
            sorted(names[v] for v in g.vertices),
            ((e.id, names[e.tail], names[e.head]) for e in g.edges),
        )
        assert are_isomorphic(g, relabelled)


# serialization of bare graphs

def test_json_roundtrip():
    graph, _ = mobius_ladder(3)
    assert from_json_obj(to_json_obj(graph)) == graph


def test_json_rejects_bad_ends():
    with pytest.raises(GraphError):
        from_json_obj({"vertices": [{"id": "a"}], "edges": [{"id": "e", "ends": ["a"]}]})


def test_dot_contains_edge_labels():
    graph, _ = mobius_ladder(3)
    dot = to_dot(graph)
    assert dot.startswith("graph G {")
    assert 'label="r0"' in dot and '"0" -- "1"' in dot


def test_dot_escapes_quotes_and_backslashes():
    graph = MultiGraph.build(['a"b', "c\\"], [('e"1', 'a"b', "c\\")])
    dot = to_dot(graph, {'a"b': {"label": 'say "hi"\\'}})
    assert dot == (
        "graph G {\n"
        '  "a\\"b" [label="say \\"hi\\"\\\\"];\n'
        '  "c\\\\";\n'
        '  "a\\"b" -- "c\\\\" [label="e\\"1"];\n'
        "}\n"
    )
