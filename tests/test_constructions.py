import math
import random

import pytest

from conftest import (
    acts_freely_on_edges,
    acts_freely_on_vertices,
    admissible_cells,
    orbit_sizes,
    random_generating_set,
)
from curveindex.action import validate
from curveindex.constructions import (
    GeneratingSet,
    cayley_graph,
    check_realizability,
    coathanger_chain,
    construct,
    cycle_model,
    mobius_ladder,
)
from curveindex.multigraph import (
    are_isomorphic,
    arithmetic_genus,
    degree,
    euler_characteristic,
    is_connected,
)


# generating sets

def test_generating_set_normalizes_mod_order():
    gs = GeneratingSet(6, frozenset({1, -1}))
    assert gs.elements == frozenset({1, 5})


@pytest.mark.parametrize(
    "order,elements",
    [
        (6, {0, 1, 5}),  # contains zero
        (6, {1}),        # not symmetric
        (6, {2, 4}),     # generates only the even residues
        (0, {1}),        # bad order
    ],
)
def test_invalid_generating_sets(order, elements):
    with pytest.raises(ValueError):
        GeneratingSet(order, frozenset(elements))


# Cayley graphs

def test_cayley_six_cycle():
    graph, action = cayley_graph(GeneratingSet(6, frozenset({1, 5})))
    assert euler_characteristic(graph) == 0
    assert are_isomorphic(graph, cycle_model(6)[0])
    assert validate(graph, action).ok


def test_cayley_order_two():
    graph, _ = cayley_graph(GeneratingSet(2, frozenset({1})))
    assert len(graph.vertices) == 2 and len(graph.edges) == 1


def test_cayley_three_generators():
    graph, action = cayley_graph(GeneratingSet(8, frozenset({1, 7, 4})))
    assert len(graph.vertices) == 8 and len(graph.edges) == 12
    assert euler_characteristic(graph) == -4
    assert validate(graph, action).ok


def test_cayley_random_properties():
    rng = random.Random(99)
    for _ in range(60):
        gs = random_generating_set(rng)
        graph, action = cayley_graph(gs)
        n_s = len(gs.elements)
        assert 2 * euler_characteristic(graph) == gs.order * (2 - n_s)
        assert all(degree(graph, v) == n_s for v in graph.vertices)
        assert is_connected(graph)
        assert validate(graph, action).ok
        assert acts_freely_on_vertices(graph, action)
        has_involution = gs.order % 2 == 0 and gs.order // 2 in gs.elements
        assert acts_freely_on_edges(graph, action) == (not has_involution)


# Moebius ladders

def test_mobius_counts():
    for g in range(2, 13):
        graph, action = mobius_ladder(g)
        assert len(graph.vertices) == 2 * g - 2
        assert len(graph.edges) == 3 * g - 3
        assert all(degree(graph, v) == 3 for v in graph.vertices)
        assert is_connected(graph)
        assert arithmetic_genus(graph) == g
        assert validate(graph, action).ok


def test_mobius_g2_is_triple_edge():
    graph, _ = mobius_ladder(2)
    assert len(graph.vertices) == 2 and len(graph.edges) == 3
    assert all(e.ends == frozenset({"0", "1"}) for e in graph.edges)


def test_mobius_matches_cayley_form():
    for g in (3, 4, 5, 7):
        ladder, _ = mobius_ladder(g)
        cay, _ = cayley_graph(GeneratingSet(2 * g - 2, frozenset({1, 2 * g - 3, g - 1})))
        assert are_isomorphic(ladder, cay)


def test_mobius_rejects_small_genus():
    with pytest.raises(ValueError):
        mobius_ladder(1)


# cycles

def test_cycle_five():
    graph, action = cycle_model(5)
    assert euler_characteristic(graph) == 0
    assert validate(graph, action).ok
    assert acts_freely_on_vertices(graph, action)


def test_cycle_two_swaps_everything():
    graph, action = cycle_model(2)
    assert len(graph.vertices) == 2 and len(graph.edges) == 2
    assert action.vertex_map == {"0": "1", "1": "0"}
    assert action.edge_map == {"c0": "c1", "c1": "c0"}
    assert acts_freely_on_edges(graph, action)


def test_cycle_rejects_order_one():
    with pytest.raises(ValueError):
        cycle_model(1)


# coathangers

def test_coathanger_single():
    graph, action = coathanger_chain(1)
    assert len(graph.vertices) == 4 and len(graph.edges) == 4
    assert euler_characteristic(graph) == 0
    assert action.order == 1


def test_coathanger_empty():
    graph, _ = coathanger_chain(0)
    assert len(graph.vertices) == 1 and len(graph.edges) == 0


def test_coathanger_three():
    graph, _ = coathanger_chain(3)
    assert len(graph.vertices) == 12 and len(graph.edges) == 14
    assert euler_characteristic(graph) == -2
    assert degree(graph, "0.1") == 2  # end pendant keeps low degree
    assert max(graph.degrees.values()) == 3
    assert is_connected(graph)


def test_coathanger_genus_and_degrees():
    for g in range(13):
        graph, _ = coathanger_chain(g)
        assert arithmetic_genus(graph) == g
        assert max(graph.degrees.values()) <= 3
        assert min(graph.degrees.values()) <= 2


def test_coathanger_rejects_negative():
    with pytest.raises(ValueError):
        coathanger_chain(-1)


# dispatch

def test_construct_7_3():
    m = construct(7, 3)
    assert len(m.graph.vertices) == 12
    assert m.action.vertex_map["0"] == "4"  # rotation by (2g-2)/I = 4
    assert m.action.exact_order == 3
    sizes = orbit_sizes(m.action, 1)
    assert set(sizes.values()) == {3}


def test_construct_0_1_single_vertex():
    m = construct(0, 1)
    assert len(m.graph.vertices) == 1 and len(m.graph.edges) == 0


def test_construct_3_4_is_k4_with_rotation():
    m = construct(3, 4)
    assert len(m.graph.vertices) == 4 and len(m.graph.edges) == 6
    ladder, _ = mobius_ladder(3)
    assert m.graph == ladder
    assert m.action.exact_order == 4


def test_construct_rejects_inadmissible_pair():
    with pytest.raises(ValueError, match="divide"):
        construct(2, 3)
    with pytest.raises(ValueError):
        construct(0, 3)
    with pytest.raises(ValueError):
        construct(-1, 1)
    with pytest.raises(ValueError):
        construct(2, 0)


def test_construct_grid_properties():
    for g, i in admissible_cells(9):
        m = construct(g, i)
        assert validate(m.graph, m.action).ok
        assert is_connected(m.graph)
        assert max(m.graph.degrees.values()) <= 3
        assert arithmetic_genus(m.graph) == g
        assert m.action.exact_order == i
        assert m.claimed == (g, i)
        assert all(c.ns_index == 1 and c.multiplicity == 1 for c in m.components.values())
        if i > 1:
            sizes = orbit_sizes(m.action, 1)
            assert set(sizes.values()) == {i}


# realizability

def test_realizability_infinite_field():
    report = check_realizability(construct(5, 8), math.inf, "full")
    assert report.passed


def test_realizability_coathanger_weak_q2():
    m = construct(3, 1)
    assert check_realizability(m, 2, "weak").passed


def test_realizability_coathanger_full_q2_fails_at_hubs():
    m = construct(3, 1)
    report = check_realizability(m, 2, "full")
    assert not report.passed
    supply = next(c for c in report.checks if c.name == "point-supply")
    assert not supply.passed and "0.0" in supply.detail


def test_realizability_degree_bound():
    gs = GeneratingSet(8, frozenset({1, 7, 2, 6}))
    graph, action = cayley_graph(gs)
    from curveindex.constructions import as_model

    report = check_realizability(as_model(graph, action), math.inf, "full")
    assert not report.passed  # 4-regular
    assert not next(c for c in report.checks if c.name == "degree-bound").passed


def test_realizability_argument_validation():
    m = construct(1, 2)
    with pytest.raises(ValueError):
        check_realizability(m, 2, "strict")
    with pytest.raises(ValueError):
        check_realizability(m, 1, "full")
