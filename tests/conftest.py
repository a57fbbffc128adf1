import math
import random

import pytest

from curveindex.action import CyclicAction, cycles, lift_voltage_graph, map_power
from curveindex.constructions import Component, CurveModel, as_model, construct, cycle_model
from curveindex.multigraph import MultiGraph, is_connected
from curveindex.verify import admissible_orders


def admissible_cells(genus_max, genus_one_cap=None):
    if genus_one_cap is None:
        genus_one_cap = 2 * genus_max + 2
    return [
        (g, i)
        for g in range(genus_max + 1)
        for i in admissible_orders(g, genus_one_cap)
    ]


def random_quotient(rng, max_vertices=5, max_edges=8):
    nv = rng.randint(1, max_vertices)
    vertices = [f"q{i}" for i in range(nv)]
    edges = [
        (f"w{j}", rng.choice(vertices), rng.choice(vertices))
        for j in range(rng.randint(1, max_edges))
    ]
    return MultiGraph.build(vertices, edges)


def random_voltage_models(count, seed, max_order=12):
    """Connected derived graphs of random quotients, wrapped as models."""
    rng = random.Random(seed)
    models = []
    while len(models) < count:
        order = rng.randint(1, max_order)
        quotient = random_quotient(rng)
        voltages = {e.id: rng.randrange(order) for e in quotient.edges}
        graph, action = lift_voltage_graph(quotient, voltages, order)
        if is_connected(graph):
            models.append(as_model(graph, action))
    return models


def single_edge_swap_model():
    """Two components crossing at one point, swapped by the quadratic action."""
    graph = MultiGraph.build(["a", "b"], [("e", "a", "b")])
    action = CyclicAction(2, {"a": "b", "b": "a"}, {"e": "e"})
    return as_model(graph, action)


def loop_at_fixed_vertex_model():
    graph = MultiGraph.build(["a"], [("l", "a", "a")])
    action = CyclicAction(2, {"a": "a"}, {"l": "l"})
    return as_model(graph, action)


def flipped_path_model():
    """Path a - m - b with the endpoint swap; m stays fixed."""
    graph = MultiGraph.build(["a", "m", "b"], [("e1", "a", "m"), ("e2", "m", "b")])
    action = CyclicAction(2, {"a": "b", "b": "a", "m": "m"}, {"e1": "e2", "e2": "e1"})
    return as_model(graph, action)


def corrupted_two_cycle_model():
    """cycle_model(2) with the parallel-edge images swapped in the edge map.

    Still a valid automorphism (each edge is now fixed and flipped), but it
    splits like the single-edge model instead of like the honest 2-cycle.
    """
    graph, action = cycle_model(2)
    bad = CyclicAction(2, dict(action.vertex_map), {"c0": "c0", "c1": "c1"})
    return CurveModel(graph, bad, {v: Component() for v in graph.vertices}, claimed=(1, 2))


def handcrafted_models():
    return [
        single_edge_swap_model(),
        loop_at_fixed_vertex_model(),
        flipped_path_model(),
        corrupted_two_cycle_model(),
    ]


def orbit_sizes(action, d=1):
    """Vertex orbit sizes under the subgroup generated by the ``d``-th power of the generator."""
    return {v: len(c) for c in cycles(map_power(action.vertex_map, d)) for v in c}


def acts_freely_on_vertices(graph, action):
    for k in range(1, action.order):
        power = map_power(action.vertex_map, k)
        if any(power[v] == v for v in graph.vertices):
            return False
    return True


def acts_freely_on_edges(graph, action):
    for k in range(1, action.order):
        power = map_power(action.edge_map, k)
        if any(power[e] == e for e in power):
            return False
    return True


def random_generating_set(rng, max_order=24):
    from curveindex.constructions import GeneratingSet

    while True:
        order = rng.randint(2, max_order)
        elements = set()
        for s in range(1, order // 2 + 1):
            if rng.random() < 0.45:
                elements.update({s, order - s})
        elements.discard(0)
        elements.discard(order)
        if elements and math.gcd(order, *elements) == 1:
            return GeneratingSet(order, frozenset(elements))


@pytest.fixture(scope="session")
def constructed_models():
    return [construct(g, i) for g, i in admissible_cells(8)]


@pytest.fixture(scope="session")
def voltage_models():
    return random_voltage_models(60, seed=20240817)


@pytest.fixture(scope="session")
def model_pool(constructed_models, voltage_models):
    pool = list(constructed_models) + list(voltage_models)
    pool += [single_edge_swap_model(), loop_at_fixed_vertex_model(), flipped_path_model()]
    return pool
