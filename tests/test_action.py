import random

import pytest

from conftest import (
    acts_freely_on_vertices,
    orbit_sizes,
    random_voltage_models,
    single_edge_swap_model,
)
from curveindex.action import (
    ActionError,
    CyclicAction,
    cycles,
    fixed_vertices,
    lift_voltage_graph,
    map_power,
    stabilized_edges,
    validate,
)
from curveindex.constructions import coathanger_chain, cycle_model, mobius_ladder
from curveindex.invariants import divisors
from curveindex.multigraph import MultiGraph, are_isomorphic, is_connected


def test_rotation_on_six_cycle_validates():
    graph, action = cycle_model(6)
    assert validate(graph, action).ok


def test_wrong_order_reported():
    graph, action = cycle_model(6)
    wrong = CyclicAction(4, action.vertex_map, action.edge_map)
    report = validate(graph, wrong)
    assert not report.ok
    assert all(v.law == "order" for v in report.violations)


def test_incompatible_edge_image_reported():
    graph, action = cycle_model(4)
    emap = dict(action.edge_map)
    emap["c0"], emap["c1"] = emap["c1"], emap["c0"]  # c0 now lands on a non-incident edge
    report = validate(graph, CyclicAction(4, action.vertex_map, emap))
    assert any(v.law == "compatibility" and v.subject == "c0" for v in report.violations)


def test_missing_and_non_onto_maps_reported():
    graph = MultiGraph.build(["a", "b"], [("e", "a", "b")])
    report = validate(graph, CyclicAction(2, {"a": "b"}, {"e": "e"}))
    assert any(v.law == "vertex-bijection" and v.subject == "b" for v in report.violations)
    report = validate(graph, CyclicAction(2, {"a": "a", "b": "a"}, {"e": "e"}))
    assert any("onto" in v.detail for v in report.violations)


def test_nonpositive_order_invalid():
    graph = MultiGraph.build(["a"], [])
    assert not validate(graph, CyclicAction(0, {"a": "a"}, {})).ok


# cycles and powers

def naive_power(mapping, k):
    out = {x: x for x in mapping}
    for _ in range(k):
        out = {x: mapping[y] for x, y in out.items()}
    return out


def random_permutation(rng, n):
    keys = [f"x{i}" for i in range(n)]
    images = keys[:]
    rng.shuffle(images)
    rng.shuffle(keys)  # key order unrelated to the cycles
    return dict(zip(keys, images))


def test_map_power_equals_naive_composition():
    rng = random.Random(1811)
    for n in (1, 2, 3, 7, 12, 30):
        for _ in range(5):
            perm = random_permutation(rng, n)
            for k in (0, 1, n - 1, n, 3 * n + 1):
                got = map_power(perm, k)
                want = naive_power(perm, k)
                assert got == want
                assert list(got) == list(perm)


def test_cycles_partition_the_keys():
    rng = random.Random(7)
    perm = random_permutation(rng, 25)
    position = {x: i for i, x in enumerate(perm)}
    found = cycles(perm)
    assert sorted(x for c in found for x in c) == sorted(perm)
    assert [position[c[0]] for c in found] == sorted(position[c[0]] for c in found)
    for c in found:
        assert [perm[x] for x in c] == c[1:] + c[:1]
        assert min(c, key=position.get) == c[0]
    assert cycles({"a": "b", "b": "c", "c": "a", "d": "d"}) == [["a", "b", "c"], ["d"]]


def test_cycles_reject_non_permutations():
    with pytest.raises(ActionError):
        cycles({"a": "b", "b": "b"})
    with pytest.raises(ActionError):
        cycles({"a": "b"})


def test_cached_orbits_and_exact_order(model_pool):
    for m in model_pool:
        a = m.action
        assert a.vertex_orbit == orbit_sizes(a, 1)
        assert a.edge_orbit == {e: len(c) for c in cycles(a.edge_map) for e in c}
        powers = [k for k in range(1, a.order + 1) if naive_power(a.vertex_map, k) == {v: v for v in a.vertex_map}
                  and naive_power(a.edge_map, k) == {e: e for e in a.edge_map}]
        assert a.exact_order == powers[0]


def test_fixed_and_stabilized_match_powers(model_pool):
    for m in model_pool:
        for d in divisors(m.action.order):
            gen_v, gen_e = naive_power(m.action.vertex_map, d), naive_power(m.action.edge_map, d)
            assert fixed_vertices(m.graph, m.action, d) == {v for v in m.graph.vertices if gen_v[v] == v}
            assert stabilized_edges(m.graph, m.action, d) == {
                (e.id, not e.is_loop and gen_v[e.tail] == e.head) for e in m.graph.edges if gen_e[e.id] == e.id
            }


# orbits and fixed points

def test_cycle_orbits_full_group():
    for order in (2, 5, 8):
        graph, action = cycle_model(order)
        sizes = orbit_sizes(action, 1)
        assert set(sizes.values()) == {order}


def test_trivial_subgroup_orbits():
    graph, action = mobius_ladder(5)
    sizes = orbit_sizes(action, action.order)
    assert set(sizes.values()) == {1}


def test_mobius4_antipodal_orbits():
    graph, action = mobius_ladder(4)  # order 6
    sizes = orbit_sizes(action, 3)
    assert set(sizes.values()) == {2}


def test_orbit_size_divides_subgroup_order(model_pool):
    for m in model_pool:
        for d in divisors(m.action.order):
            sizes = orbit_sizes(m.action, d)
            assert all((m.action.order // d) % s == 0 for s in sizes.values())


def test_invalid_subgroup_degree():
    graph, action = cycle_model(6)
    with pytest.raises(ActionError):
        fixed_vertices(graph, action, 5)
    with pytest.raises(ActionError):
        stabilized_edges(graph, action, 5)
    with pytest.raises(ActionError):
        fixed_vertices(graph, action, 0)


def test_fixed_vertices_trivial_action():
    graph, action = coathanger_chain(3)
    assert fixed_vertices(graph, action, 1) == set(graph.vertices)


def test_fixed_vertices_two_cycle_swap():
    graph, action = cycle_model(2)
    assert fixed_vertices(graph, action, 1) == set()
    assert fixed_vertices(graph, action, 2) == set(graph.vertices)


def test_fixed_vertices_monotone_in_subgroup(model_pool):
    for m in model_pool:
        divs = divisors(m.action.order)
        for d in divs:
            smaller = fixed_vertices(m.graph, m.action, d)
            for d2 in divs:
                if d2 % d == 0:
                    assert smaller <= fixed_vertices(m.graph, m.action, d2)


# stabilized edges

def test_single_edge_swap_stabilized_flipped():
    m = single_edge_swap_model()
    assert stabilized_edges(m.graph, m.action, 1) == {("e", True)}


def test_two_cycle_edges_exchanged():
    graph, action = cycle_model(2)
    assert stabilized_edges(graph, action, 1) == set()


def test_mobius_rungs_flipped_by_antipodal_subgroup():
    for g in (2, 3, 5, 8):
        graph, action = mobius_ladder(g)
        stable = stabilized_edges(graph, action, g - 1)  # subgroup of order 2
        assert stable == {(f"r{i}", True) for i in range(g - 1)}


def test_stabilized_loop_not_flipped():
    graph = MultiGraph.build(["a"], [("l", "a", "a")])
    action = CyclicAction(2, {"a": "a"}, {"l": "l"})
    assert stabilized_edges(graph, action, 1) == {("l", False)}


def test_flip_flag_semantics(model_pool):
    for m in model_pool:
        for d in divisors(m.action.order):
            gen_v = map_power(m.action.vertex_map, d)
            fixed = fixed_vertices(m.graph, m.action, d)
            for eid, flipped in stabilized_edges(m.graph, m.action, d):
                e = m.graph.edge_by_id[eid]
                if flipped:
                    assert gen_v[e.tail] == e.head and gen_v[e.head] == e.tail
                else:
                    assert e.tail in fixed and e.head in fixed


# voltage lifts

def test_loop_voltage_one_gives_cycle():
    quotient = MultiGraph.build(["v"], [("l", "v", "v")])
    graph, action = lift_voltage_graph(quotient, {"l": 1}, 6)
    assert are_isomorphic(graph, cycle_model(6)[0])
    assert validate(graph, action).ok
    sizes = orbit_sizes(action, 1)
    assert set(sizes.values()) == {6}


def test_loop_voltage_zero_disconnected():
    quotient = MultiGraph.build(["v"], [("l", "v", "v")])
    graph, action = lift_voltage_graph(quotient, {"l": 0}, 3)
    assert len(graph.vertices) == 3 and len(graph.edges) == 3
    assert all(e.is_loop for e in graph.edges)
    assert not is_connected(graph)
    assert validate(graph, action).ok


def test_edge_voltage_zero_two_components():
    quotient = MultiGraph.build(["u", "v"], [("e", "u", "v")])
    graph, action = lift_voltage_graph(quotient, {"e": 0}, 2)
    assert len(graph.vertices) == 4 and len(graph.edges) == 2
    assert not is_connected(graph)
    assert validate(graph, action).ok
    assert fixed_vertices(graph, action, 1) == set()


def test_voltage_rejects_unknown_edges():
    quotient = MultiGraph.build(["v"], [("l", "v", "v")])
    with pytest.raises(ActionError):
        lift_voltage_graph(quotient, {"nope": 1}, 3)


def test_lifts_validate_and_are_vertex_free():
    for m in random_voltage_models(40, seed=5):
        assert validate(m.graph, m.action).ok
        assert acts_freely_on_vertices(m.graph, m.action)
