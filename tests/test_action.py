import random

import pytest

from conftest import (
    acts_freely_on_vertices,
    admissible_cells,
    are_isomorphic,
    circulant_model,
    lift_voltage_graph,
    naive_power,
    naive_validate,
    orbit_sizes,
    random_voltage_models,
    single_edge_swap_model,
)
from curveindex.action import ActionError, CyclicAction, Violation, cycles, map_power, validate
from curveindex.blowup import _lengths
from curveindex.constructions import as_model, coathanger_chain, construct, cycle_model, mobius_ladder
from curveindex.invariants import ExtensionSpec, divisors, splits, splitting_report
from curveindex.multigraph import Edge, MultiGraph, is_connected
from curveindex.serialize import load_model, save_model


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


def test_missing_keys_are_named_before_extra_keys():
    graph = MultiGraph.build(["x", "y"], [("e", "x", "y")])
    report = validate(graph, CyclicAction(2, {"x": "x", "a": "x"}, {"e": "e"}))  # "y" has no image; "a" is no vertex
    assert report.violations == (
        Violation("vertex-bijection", "y", "no image assigned"),
        Violation("vertex-bijection", "a", "not in the graph"),
    )


def test_nonpositive_order_invalid():
    graph = MultiGraph.build(["a"], [])
    assert not validate(graph, CyclicAction(0, {"a": "a"}, {})).ok


def corruptions(graph, action, rng):
    """Seeded breaks of each law ``validate`` checks, plus one lawful flip of a loop-free edge's stored orientation."""
    order, vmap, emap = action.order, action.vertex_map, action.edge_map

    def broken(images, key, other):  # two images swapped, an image unknown to the graph, a key dropped
        swapped = {**images, key: images[other], other: images[key]}
        return [swapped, {**images, key: "unknown?"}, {k: w for k, w in images.items() if k != key}]

    cases = [(graph, CyclicAction(order, images, emap)) for images in broken(vmap, *rng.sample(list(vmap), 2))]
    cases += [(graph, CyclicAction(order, vmap, images)) for images in broken(emap, *rng.sample(list(emap), 2))]
    cases.append((graph, CyclicAction(order + 1, vmap, emap)))  # no cycle length > 1 dividing I divides I + 1
    flip = rng.choice([e for e in graph.edges if e.tail != e.head])
    edges = tuple(Edge(e.id, e.head, e.tail) if e is flip else e for e in graph.edges)
    cases.append((MultiGraph(graph.vertices, edges), action))
    return cases


def test_validate_matches_naive_reference_on_lawful_models(model_pool):
    models = list(model_pool) + [construct(g, i) for g, i in admissible_cells(12)]
    for m in models:
        report = validate(m.graph, m.action)
        assert report.ok and report == naive_validate(m.graph, m.action)


@pytest.mark.parametrize("seed", range(6))
def test_validate_matches_naive_reference_on_corruptions(seed):
    rng = random.Random(seed)
    bases = [construct(4, 6), circulant_model(24, 2, rng), circulant_model(30, 1, rng)]
    for m in bases:
        cases = corruptions(m.graph, m.action, rng)
        for graph, action in cases:
            assert validate(graph, action) == naive_validate(graph, action)
        assert [validate(g, a).ok for g, a in cases] == [False] * 7 + [True]
    loops = MultiGraph.build(["a"], [("l1", "a", "a"), ("l2", "a", "a")])
    edges_only = CyclicAction(1, {"a": "a"}, {"l1": "l2", "l2": "l1"})  # only an edge cycle fails the order
    for a in (edges_only, CyclicAction(0, {"a": "a"}, {"l1": "l1", "l2": "l2"})):
        assert not validate(loops, a).ok and validate(loops, a) == naive_validate(loops, a)


# cycles and powers

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


def test_cycles_of_a_list_walk_its_positions():
    """The oracle's walk of a list of positions finds the cycle lengths of the same map as a dict."""
    rng = random.Random(8)
    for n in (0, 1, 2, 5, 40):
        for _ in range(5):
            perm = list(range(n))
            rng.shuffle(perm)
            assert _lengths(perm) == {len(c) for c in cycles(dict(enumerate(perm)))}
    with pytest.raises(ActionError, match="^not a permutation: the walk from 0 never returns$"):
        _lengths([1, 1])
    for _ in range(200):  # one entry overwritten by another: one value repeats, another is never hit
        perm = list(range(rng.randint(2, 40)))
        rng.shuffle(perm)
        i, j = rng.sample(range(len(perm)), 2)
        perm[i] = perm[j]
        with pytest.raises(ActionError) as by_dict:
            cycles(dict(enumerate(perm)))
        with pytest.raises(ActionError) as by_list:
            _lengths(perm)
        assert str(by_list.value) == str(by_dict.value)
    for bad in ([1], [-1, 0], [2, 0]):  # entries off the positions, which the oracle never makes
        with pytest.raises(ActionError, match="^not a permutation: the walk from 0 never returns$"):
            cycles(dict(enumerate(bad)))


def test_cycles_reject_what_a_whole_law_test_must_catch():
    """Each map passes the checks a partial law test would make, and an unchecked walk would not raise on it."""
    with pytest.raises(ActionError, match="the walk from 'c' never returns"):
        cycles({"a": "b", "b": "a", "c": "a"})  # keys and values have the same length; "c" is never hit
    with pytest.raises(ActionError, match="the walk from 1 never returns"):
        _lengths([2, 0, 0])  # a duplicate
    for bad, start in (([1, -1, 0], 0), ([1, 3, 0], 0)):  # a negative, out of range
        with pytest.raises(ActionError, match=f"the walk from {start} never returns"):
            cycles(dict(enumerate(bad)))


def test_cached_orbits_and_exact_order(model_pool):
    for m in model_pool:
        a = m.action
        assert a.vertex_orbit == orbit_sizes(a, 1)
        assert a.edge_orbit == {e: len(c) for c in cycles(a.edge_map) for e in c}
        powers = [k for k in range(1, a.order + 1) if naive_power(a.vertex_map, k) == {v: v for v in a.vertex_map}
                  and naive_power(a.edge_map, k) == {e: e for e in a.edge_map}]
        assert a.exact_order == powers[0]


def reflection(n, shift):
    """The reflection ``i -> shift - i`` of the ``n``-cycle: it fixes vertices for even ``shift``, edges for odd."""
    graph, _ = cycle_model(n)
    vmap = {str(i): str((shift - i) % n) for i in range(n)}
    emap = {f"c{i}": f"c{(shift - i - 1) % n}" for i in range(n)}
    return graph, CyclicAction(2, vmap, emap)


def test_orbits_of_maps_mixing_fixed_and_moved_entries():
    three_cycle = CyclicAction(3, {"a": "b", "b": "c", "c": "a", "p": "p", "q": "q"}, {"x": "x", "y": "z", "z": "y"})
    actions = [three_cycle]
    for shift in (0, 1):
        graph, action = reflection(6, shift)
        assert validate(graph, action).ok
        actions.append(action)
    for a in actions:
        assert a.vertex_orbit == {x: len(c) for c in cycles(a.vertex_map) for x in c}
        assert a.edge_orbit == {x: len(c) for c in cycles(a.edge_map) for x in c}
    assert three_cycle.vertex_orbit == {"a": 3, "b": 3, "c": 3, "p": 1, "q": 1}
    assert actions[1].vertex_orbit == {"0": 1, "3": 1, "1": 2, "5": 2, "2": 2, "4": 2}
    assert actions[2].edge_orbit == {"c0": 1, "c3": 1, "c1": 2, "c5": 2, "c2": 2, "c4": 2}
    with pytest.raises(ActionError, match="^not a permutation: the walk from 'b' never returns$"):
        CyclicAction(1, {"a": "a", "b": "a"}, {}).vertex_orbit


def test_loading_walks_only_moved_entries(tmp_path, monkeypatch):
    walked = []

    def counting_cycles(perm):
        walked.append(len(perm))
        return cycles(perm)

    monkeypatch.setattr("curveindex.action.cycles", counting_cycles)
    for (g, i), expected in (((1001, 1), [0, 0]), ((24, 46), [46, 69])):  # the identity, then a free action
        path = tmp_path / f"{g}_{i}.json"
        save_model(construct(g, i), path)
        walked.clear()
        load_model(path)
        assert walked == expected


def test_fixed_and_stabilized_match_powers(model_pool):
    # the d-th power fixes a vertex or an edge iff the generator's cycle through it has a length dividing d
    for m in model_pool:
        a = m.action
        for d in divisors(a.order):
            gen_v, gen_e = naive_power(a.vertex_map, d), naive_power(a.edge_map, d)
            assert {v for v in a.vertex_map if d % a.vertex_orbit[v] == 0} == {v for v in gen_v if gen_v[v] == v}
            assert {e for e in a.edge_map if d % a.edge_orbit[e] == 0} == {e for e in gen_e if gen_e[e] == e}


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
    m = as_model(*cycle_model(6))
    for d in (4, 5):
        with pytest.raises(ActionError, match=f"subgroup co-degree {d} does not divide the order 6"):
            splits(m, ExtensionSpec(d, 2))


def test_fixed_vertices_trivial_action():
    graph, action = coathanger_chain(3)
    assert set(action.vertex_orbit.values()) == set(action.edge_orbit.values()) == {1}
    assert splitting_report(as_model(graph, action)).table == {(1, 1): True, (1, 2): True}


def test_fixed_vertices_two_cycle_swap():
    graph, action = cycle_model(2)
    assert action.vertex_orbit == {"0": 2, "1": 2}  # nothing fixed at d = 1, everything at d = 2


def test_fixed_vertices_monotone_in_subgroup(model_pool):
    for m in model_pool:
        divs = divisors(m.action.order)
        fixed = {d: {v for v, size in orbit_sizes(m.action, d).items() if size == 1} for d in divs}
        for d in divs:
            for d2 in divs:
                if d2 % d == 0:
                    assert fixed[d] <= fixed[d2]


# stabilized edges

def test_single_edge_swap_stabilized_flipped():
    m = single_edge_swap_model()
    assert m.action.edge_orbit == {"e": 1} and m.action.vertex_orbit == {"a": 2, "b": 2}


def test_two_cycle_edges_exchanged():
    graph, action = cycle_model(2)
    assert action.edge_orbit == {"c0": 2, "c1": 2}


def test_mobius_rungs_flipped_by_antipodal_subgroup():
    for g in (2, 3, 5, 8):
        graph, action = mobius_ladder(g)
        stable = {e for e in action.edge_map if (g - 1) % action.edge_orbit[e] == 0}  # subgroup of order 2
        assert stable == {f"r{i}" for i in range(g - 1)}
        half = naive_power(action.vertex_map, g - 1)
        assert all(half[graph.edge_by_id[r].tail] == graph.edge_by_id[r].head for r in stable)


def test_stabilized_loop_not_flipped():
    graph = MultiGraph.build(["a"], [("l", "a", "a")])
    action = CyclicAction(2, {"a": "a"}, {"l": "l"})
    assert action.edge_orbit == {"l": 1} and action.vertex_orbit == {"a": 1}


def test_flip_flag_semantics(model_pool):
    # an edge stabilized by the d-th power either has both endpoints fixed or is flipped: (d, 2) needs no flip flag
    for m in model_pool:
        a = m.action
        for d in divisors(a.order):
            gen_v = map_power(a.vertex_map, d)
            for e in m.graph.edges:
                if d % a.edge_orbit[e.id] == 0:
                    fixed = d % a.vertex_orbit[e.tail] == 0 and d % a.vertex_orbit[e.head] == 0
                    assert fixed or gen_v[e.tail] == e.head and gen_v[e.head] == e.tail


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
    assert all(e.tail == e.head for e in graph.edges)
    assert not is_connected(graph)
    assert validate(graph, action).ok


def test_edge_voltage_zero_two_components():
    quotient = MultiGraph.build(["u", "v"], [("e", "u", "v")])
    graph, action = lift_voltage_graph(quotient, {"e": 0}, 2)
    assert len(graph.vertices) == 4 and len(graph.edges) == 2
    assert not is_connected(graph)
    assert validate(graph, action).ok
    assert set(action.vertex_orbit.values()) == {2}


def test_voltage_rejects_unknown_edges():
    quotient = MultiGraph.build(["v"], [("l", "v", "v")])
    with pytest.raises(ActionError):
        lift_voltage_graph(quotient, {"nope": 1}, 3)


def test_lifts_validate_and_are_vertex_free():
    for m in random_voltage_models(40, seed=5):
        assert validate(m.graph, m.action).ok
        assert acts_freely_on_vertices(m.graph, m.action)
