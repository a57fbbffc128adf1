import math
import random

import pytest

from conftest import (
    acts_freely_on_edges,
    acts_freely_on_vertices,
    admissible_cells,
    are_isomorphic,
    orbit_sizes,
    random_generating_set,
)
from curveindex import constructions
from curveindex.action import validate
from curveindex.cli import main
from curveindex.constructions import (
    GeneratingSet,
    as_model,
    cayley_graph,
    check_realizability,
    coathanger_chain,
    construct,
    cycle_model,
    ladder_model,
    mobius_ladder,
    vertex_count,
)
from curveindex.multigraph import (
    arithmetic_genus,
    degree,
    euler_characteristic,
    is_connected,
)
from curveindex.serialize import save_model
from curveindex.verify import admissible_orders


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


def test_mobius_ladder_is_its_recipe():
    # the docstring's recipe, item by item and in order: vertices Z/(2g-2), cycle
    # edges c<i> = (i, i+1), rungs r<i> = (i, i+g-1), rotation by 1 with r<g-2> -> r0
    for g in range(2, 13):
        n = 2 * g - 2
        graph, action = mobius_ladder(g)
        assert graph.vertices == tuple(str(i) for i in range(n))
        assert list(map(tuple, graph.edges)) == (
            [(f"c{i}", str(i), str((i + 1) % n)) for i in range(n)]
            + [(f"r{i}", str(i), str(i + g - 1)) for i in range(g - 1)]
        )
        assert action.order == n
        assert list(action.vertex_map.items()) == [(str(i), str((i + 1) % n)) for i in range(n)]
        assert list(action.edge_map.items()) == (
            [(f"c{i}", f"c{(i + 1) % n}") for i in range(n)]
            + [(f"r{i}", f"r{(i + 1) % (g - 1)}") for i in range(g - 1)]
        )
    graph, action = mobius_ladder(2)
    assert list(map(tuple, graph.edges)) == [("c0", "0", "1"), ("c1", "1", "0"), ("r0", "0", "1")]
    assert action.edge_map == {"c0": "c1", "c1": "c0", "r0": "r0"}


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


def test_cycle_is_its_recipe():
    # vertices Z/I, edges c<i> = (i, i+1), rotation by 1 on both
    for order in range(2, 13):
        graph, action = cycle_model(order)
        assert graph.vertices == tuple(str(i) for i in range(order))
        assert list(map(tuple, graph.edges)) == [(f"c{i}", str(i), str((i + 1) % order)) for i in range(order)]
        assert action.order == order
        assert list(action.vertex_map.items()) == [(str(i), str((i + 1) % order)) for i in range(order)]
        assert list(action.edge_map.items()) == [(f"c{i}", f"c{(i + 1) % order}") for i in range(order)]
    graph, _ = cycle_model(2)
    assert list(map(tuple, graph.edges)) == [("c0", "0", "1"), ("c1", "1", "0")]


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


def test_construct_full_order_is_the_ladder_rotation():
    for g in range(2, 13):
        graph, action = mobius_ladder(g)
        m = construct(g, 2 * g - 2)
        assert m.graph == graph and m.action == action
        assert list(m.action.vertex_map) == list(action.vertex_map)
        assert list(m.action.edge_map) == list(action.edge_map)


def test_one_ladder_serves_every_index_of_its_genus():
    for g in range(2, 13):
        ladder = mobius_ladder(g)
        for i in admissible_orders(g, 0)[1:]:
            m = ladder_model(ladder, i)
            assert m.graph is ladder[0]
            assert m == construct(g, i) and m.claimed == (g, i)


def test_construct_rejects_inadmissible_pair():
    with pytest.raises(ValueError, match="divide"):
        construct(2, 3)
    with pytest.raises(ValueError):
        construct(0, 3)
    with pytest.raises(ValueError):
        construct(-1, 1)
    with pytest.raises(ValueError):
        construct(2, 0)


def test_vertex_count_is_the_built_models_count():
    cells = [*admissible_cells(12, genus_one_cap=40), (1001, 1), (1001, 50), (1001, 2000)]
    for g, i in cells:
        assert vertex_count(g, i) == len(construct(g, i).graph.vertices), (g, i)


def test_construct_refuses_a_model_past_its_limit_before_building_it(monkeypatch):
    monkeypatch.setattr(constructions, "MAX_VERTICES", 12)
    assert len(construct(3, 1).graph.vertices) == 12
    assert len(construct(1, 12).graph.vertices) == 12
    assert len(construct(7, 3).graph.vertices) == 12
    built = []
    for name in ("coathanger_chain", "cycle_model", "mobius_ladder"):
        monkeypatch.setattr(constructions, name, lambda *args, name=name: built.append(name))
    for g, i, n in [(4, 1, 16), (1, 13, 13), (8, 7, 14), (8, 2, 14)]:
        with pytest.raises(ValueError, match=f"^the model would have {n} vertices; the limit is 12$"):
            construct(g, i)
    assert built == []


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
    report = check_realizability(as_model(graph, action), math.inf, "full")
    assert not report.passed  # 4-regular
    assert not next(c for c in report.checks if c.name == "degree-bound").passed


def test_realizability_argument_validation():
    m = construct(1, 2)
    with pytest.raises(ValueError):
        check_realizability(m, 2, "strict")
    with pytest.raises(ValueError):
        check_realizability(m, 1, "full")


class RecordingQ(int):
    """A residue cardinality that records every exponent it is raised to."""

    def __new__(cls, value):
        q = super().__new__(cls, value)
        q.exponents = []
        return q

    def __pow__(self, k):
        self.exponents.append(k)
        return int(self) ** k


def test_realizability_raises_q_no_higher_than_the_degree(model_pool):
    # a vertex orbit of size 5000 must not cost a 5000-bit power
    for m in list(model_pool) + [construct(1, 5000)]:
        q = RecordingQ(2)
        check_realizability(m, q, "full")
        assert q.exponents and max(q.exponents) <= max(m.graph.degrees.values()), m.claimed


def test_realizability_matches_the_uncapped_comparison(model_pool):
    for m in model_pool:
        for q in (2, 3):
            bad = sorted(v for v in m.graph.vertices if degree(m.graph, v) > q ** m.action.vertex_orbit[v])
            supply = next(c for c in check_realizability(m, q, "full").checks if c.name == "point-supply")
            assert supply.passed == (not bad)
            named = f"{bad[:12]}" + (f" (+{len(bad) - 12} more)" if len(bad) > 12 else "")
            assert supply.detail == ("" if not bad else f"too many nodes for q={q} at: {named}")


def test_realizability_names_at_most_twelve_vertices(tmp_path, capsys):
    # 1001 hubs and the 999 inner pendants of the chain have degree 3 > 2
    m = construct(1001, 1)
    supply = check_realizability(m, 2, "full").checks[2]
    head = ['0.0', '1.0', '1.1', '10.0', '10.1', '100.0', '100.1', '1000.0', '101.0', '101.1', '102.0', '102.1']
    assert supply.detail == f"too many nodes for q=2 at: {head} (+1988 more)"
    path = tmp_path / "id.json"
    save_model(m, path)
    assert main(["check", str(path), "--residue-q", "2"]) == 1
    assert capsys.readouterr().out.splitlines()[2] == f"FAIL point-supply ({supply.detail})"
    # the 20 vertices of a 4-regular circulant: twelve named, in sorted order, and eight counted
    graph, action = cayley_graph(GeneratingSet(20, frozenset({1, 19, 2, 18})))
    bound = check_realizability(as_model(graph, action), math.inf).checks[1]
    assert bound.detail == f"vertices of degree > 3: {sorted(map(str, range(20)))[:12]} (+8 more)"
    exact = check_realizability(as_model(*cayley_graph(GeneratingSet(12, frozenset({1, 11, 2, 10})))), math.inf)
    assert exact.checks[1].detail == f"vertices of degree > 3: {sorted(map(str, range(12)))}"
