import json
import math
import random
from collections import Counter

import pytest

from curveindex.action import (
    ActionError,
    CyclicAction,
    ValidationReport,
    Violation,
    cycles,
    map_power,
)
from curveindex.constructions import (
    Component,
    CurveModel,
    GeneratingSet,
    as_model,
    cayley_graph,
    construct,
    cycle_model,
)
from curveindex.multigraph import GraphError, MultiGraph, is_connected
from curveindex.serialize import model_to_obj
from curveindex.verify import admissible_orders


def admissible_cells(genus_max, genus_one_cap=None):
    if genus_one_cap is None:
        genus_one_cap = 2 * genus_max + 2
    return [
        (g, i)
        for g in range(genus_max + 1)
        for i in admissible_orders(g, genus_one_cap)
    ]


def _pair_counts(g: MultiGraph) -> tuple[dict[frozenset[str], int], dict[str, int]]:
    pairs: dict[frozenset[str], int] = Counter()
    loops: dict[str, int] = Counter()
    for e in g.edges:
        if e.tail == e.head:
            loops[e.tail] += 1
        else:
            pairs[e.ends] += 1
    return pairs, loops


def are_isomorphic(g1: MultiGraph, g2: MultiGraph) -> bool:
    """Decide multigraph isomorphism by pruned backtracking.

    A vertex bijection is an isomorphism iff it preserves the edge
    multiplicity of every vertex pair and the loop count of every vertex;
    the matching bijection on edge identifiers then exists automatically.
    Meant for small graphs (tens of vertices).
    """
    if len(g1.vertices) != len(g2.vertices) or len(g1.edges) != len(g2.edges):
        return False
    pairs1, loops1 = _pair_counts(g1)
    pairs2, loops2 = _pair_counts(g2)

    def signature(g: MultiGraph, pairs, loops):
        sig = {}
        for v in g.vertices:
            nbr = sorted(
                (k, g.degrees[u])
                for key, k in pairs.items()
                if v in key
                for u in key
                if u != v
            )
            sig[v] = (g.degrees[v], loops.get(v, 0), tuple(nbr))
        return sig

    sig1 = signature(g1, pairs1, loops1)
    sig2 = signature(g2, pairs2, loops2)
    if sorted(sig1.values()) != sorted(sig2.values()):
        return False

    pool: dict[tuple, list[str]] = {}
    for w in g2.vertices:
        pool.setdefault(sig2[w], []).append(w)
    order = sorted(g1.vertices, key=lambda v: len(pool[sig1[v]]))

    mapping: dict[str, str] = {}
    used: set[str] = set()

    def mult(pairs, loops, u, v) -> int:
        if u == v:
            return loops.get(u, 0)
        return pairs.get(frozenset((u, v)), 0)

    def extend(i: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        for w in pool[sig1[v]]:
            if w in used:
                continue
            if any(mult(pairs1, loops1, v, u) != mult(pairs2, loops2, w, mapping[u]) for u in mapping):
                continue
            mapping[v] = w
            used.add(w)
            if extend(i + 1):
                return True
            del mapping[v]
            used.remove(w)
        return False

    return extend(0)


def lift_voltage_graph(
    quotient: MultiGraph, voltages: dict[str, int], order: int
) -> tuple[MultiGraph, CyclicAction]:
    """Derived graph of a voltage assignment ``edge id -> residue mod order``.

    Vertices are ``<vertex>@<j>`` and edges ``<edge>@<j>`` for ``j`` mod
    ``order``; the edge copy at layer ``j`` runs from its tail at layer ``j``
    to its head at layer ``j + voltage``.  The shift ``j -> j+1`` is an
    automorphism acting freely on vertices, and every valid vertex-free
    action arises this way.  Edges without an assigned voltage default to 0.
    The result need not be connected; callers filter.
    """
    if order < 1:
        raise ActionError(f"order must be positive, got {order}")
    unknown = voltages.keys() - quotient.edge_by_id.keys()
    if unknown:
        raise ActionError(f"voltages assigned to unknown edges: {sorted(unknown)}")
    vertices = [f"{v}@{j}" for v in quotient.vertices for j in range(order)]
    edges = []
    for e in quotient.edges:
        volt = voltages.get(e.id, 0) % order
        for j in range(order):
            edges.append((f"{e.id}@{j}", f"{e.tail}@{j}", f"{e.head}@{(j + volt) % order}"))
    vmap = {f"{v}@{j}": f"{v}@{(j + 1) % order}" for v in quotient.vertices for j in range(order)}
    emap = {f"{e.id}@{j}": f"{e.id}@{(j + 1) % order}" for e in quotient.edges for j in range(order)}
    return MultiGraph.build(vertices, edges), CyclicAction(order, vmap, emap)


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


def chain_name_clash_model():
    """A swapped edge ``x`` with an endpoint named ``x:1``, the default name of its 2-fold chain vertex."""
    graph = MultiGraph.build(["x:1", "b"], [("x", "x:1", "b")])
    action = CyclicAction(2, {"x:1": "b", "b": "x:1"}, {"x": "x"})
    return as_model(graph, action)


def weighted_model():
    """``construct(1, 3)`` with non-unit component data on two of its three vertices."""
    m = construct(1, 3)
    components = dict(m.components)
    components["0"] = Component(ns_index=2, multiplicity=3)
    components["1"] = Component(ns_index=5)
    return CurveModel(m.graph, m.action, components)


def handcrafted_models():
    return [
        single_edge_swap_model(),
        loop_at_fixed_vertex_model(),
        flipped_path_model(),
        corrupted_two_cycle_model(),
    ]


def prism_model(n, s):
    """The prism ``C_n x K_2`` rotated by ``s`` steps, acting freely with no flipped edge.

    Vertices ``i.0``/``i.1`` for ``i`` mod ``n``; ring edge ``r<l>.<i>`` runs
    from ``i.l`` to ``(i+1).l`` and rung ``u<i>`` from ``i.0`` to ``i.1``.
    Claims the genus ``n + 1`` and the rotation's order.
    """
    order = n // math.gcd(n, s)
    vertices = [f"{i}.{l}" for i in range(n) for l in (0, 1)]
    edges = [(f"r{l}.{i}", f"{i}.{l}", f"{(i + 1) % n}.{l}") for i in range(n) for l in (0, 1)]
    edges += [(f"u{i}", f"{i}.0", f"{i}.1") for i in range(n)]
    shift = {i: (i + s) % n for i in range(n)}
    vmap = {f"{i}.{l}": f"{shift[i]}.{l}" for i in range(n) for l in (0, 1)}
    emap = {f"r{l}.{i}": f"r{l}.{shift[i]}" for i in range(n) for l in (0, 1)}
    emap.update({f"u{i}": f"u{shift[i]}" for i in range(n)})
    return as_model(MultiGraph.build(vertices, edges), CyclicAction(order, vmap, emap), claimed=(n + 1, order))


def antipodal_cube_model():
    """The 3-cube with the antipodal map, which stabilizes no vertex or edge; claims ``(5, 2)``.

    Vertices are the bit strings ``0..7``; edge ``x^k`` runs from ``x`` (bit
    ``k`` clear) to ``x`` with bit ``k`` set.
    """
    edges = [(f"{x}^{k}", str(x), str(x | 1 << k)) for x in range(8) for k in range(3) if not x >> k & 1]
    vmap = {str(x): str(7 - x) for x in range(8)}
    emap = {f"{x}^{k}": f"{(7 - x) ^ 1 << k}^{k}" for x in range(8) for k in range(3) if not x >> k & 1}
    return as_model(MultiGraph.build(map(str, range(8)), edges), CyclicAction(2, vmap, emap), claimed=(5, 2))


def circulant_model(order, k, rng):
    """``Cay(Z/order, {+-s, order/2})`` acted on by translation by ``k``, with a seeded jump ``s``."""
    half = order // 2
    s = rng.choice([s for s in range(1, half) if math.gcd(s, half) == 1])
    graph, action = cayley_graph(GeneratingSet(order, frozenset({s, -s, half})))
    powered = CyclicAction(order // k, map_power(action.vertex_map, k), map_power(action.edge_map, k))
    return as_model(graph, powered, claimed=(half + 1, order // k))


def naive_power(mapping, k):
    """The ``k``-fold composite of a permutation by repeated composition, without walking cycles."""
    out = {x: x for x in mapping}
    for _ in range(k):
        out = {x: mapping[y] for x, y in out.items()}
    return out


def naive_chains(edges, width):
    """The chain permutation laid out edge by edge, as ``subdivide`` numbers chains: position ``k * width + i``
    is edge ``k``'s ``i``-th position from its tail, and each edge maps onto its image chain, reversed for
    step ``-1``."""
    perm = []
    for j, step in edges:
        perm += range(j * width, (j + 1) * width)[::step]
    return perm


def column_major(edges, width):
    """``naive_chains``' position ``k * width + i`` as ``blowup._chains`` numbers it, ``i * len(edges) + rank(k)``,
    where the edges with step ``+1`` rank first and those with step ``-1`` after them, each group in edge order."""
    ranked = [k for k, (_, step) in enumerate(edges) if step == 1] + [
        k for k, (_, step) in enumerate(edges) if step == -1
    ]
    rank = {k: r for r, k in enumerate(ranked)}
    return [i * len(edges) + rank[k] for k in range(len(edges)) for i in range(width)]


def _naive_bijection_violations(mapping, domain, law):
    out = []
    missing = domain - mapping.keys()
    extra = mapping.keys() - domain
    for x in sorted(missing):
        out.append(Violation(law, x, "no image assigned"))
    for x in sorted(extra):
        out.append(Violation(law, x, "not in the graph"))
    if not missing and not extra:
        image = set(mapping.values())
        for x in sorted(domain - image):
            out.append(Violation(law, x, "never hit: map is not onto"))
    return out


def naive_validate(g, a):
    """``validate`` itemized element by element, law by law, with no whole-law test first."""
    violations = []
    if a.order < 1:
        violations.append(Violation("order", "", f"order must be positive, got {a.order}"))
        return ValidationReport(tuple(violations))

    violations += _naive_bijection_violations(a.vertex_map, set(g.vertices), "vertex-bijection")
    violations += _naive_bijection_violations(a.edge_map, set(g.edge_by_id), "edge-bijection")
    if violations:
        return ValidationReport(tuple(violations))

    for e in g.edges:
        image = g.edge_by_id[a.edge_map[e.id]]
        expected = frozenset((a.vertex_map[e.tail], a.vertex_map[e.head]))
        if image.ends != expected:
            violations.append(
                Violation(
                    "compatibility",
                    e.id,
                    f"endpoints {sorted(e.ends)} map to {sorted(expected)} "
                    f"but edge image {image.id!r} joins {sorted(image.ends)}",
                )
            )

    vertex_orbit = {x: len(c) for c in cycles(a.vertex_map) for x in c}
    edge_orbit = {x: len(c) for c in cycles(a.edge_map) for x in c}
    for v in a.vertex_map:
        if a.order % vertex_orbit[v]:
            violations.append(Violation("order", v, f"vertex not fixed by the {a.order}-th iterate"))
    for e in a.edge_map:
        if a.order % edge_orbit[e]:
            violations.append(Violation("order", e, f"edge not fixed by the {a.order}-th iterate"))
    return ValidationReport(tuple(violations))


def naive_from_json_obj(obj):
    """``serialize.graph_from_obj`` type-checking item by item, with no whole-list test first."""
    if not isinstance(obj, dict):
        raise GraphError("graph object must be a JSON object")
    try:
        raw_vertices = obj["vertices"]
        raw_edges = obj["edges"]
    except KeyError as missing:
        raise GraphError(f"graph object lacks key {missing}") from None
    if not isinstance(raw_vertices, list) or not isinstance(raw_edges, list):
        raise GraphError("graph.vertices and graph.edges must be lists")
    vertices = []
    for i, item in enumerate(raw_vertices):
        if not isinstance(item, dict) or not isinstance(item.get("id"), str):
            raise GraphError(f"vertices[{i}] must be an object with a string 'id'")
        vertices.append(item["id"])
    edges = []
    for i, item in enumerate(raw_edges):
        if not isinstance(item, dict) or not isinstance(item.get("id"), str):
            raise GraphError(f"edges[{i}] must be an object with a string 'id'")
        ends = item.get("ends")
        if (
            not isinstance(ends, list)
            or len(ends) != 2
            or not all(map(isinstance, ends, (str, str)))
        ):
            raise GraphError(f"edges[{i}].ends must be a pair of vertex ids")
        edges.append((item["id"], ends[0], ends[1]))
    return MultiGraph.build(vertices, edges)


def naive_connected(g):
    """Whether a breadth-first search over an adjacency map built edge by edge reaches every vertex."""
    adjacency = {v: set() for v in g.vertices}
    for e in g.edges:
        adjacency[e.tail].add(e.head)
        adjacency[e.head].add(e.tail)
    seen = frontier = {g.vertices[0]}
    while frontier:
        frontier = {w for v in frontier for w in adjacency[v]} - seen
        seen = seen | frontier
    return seen == set(g.vertices)


def naive_dumps_model(m):
    """``serialize.dumps_model`` by way of ``model_to_obj``'s dicts and the stdlib encoder."""
    return json.dumps(model_to_obj(m), indent=2, sort_keys=True) + "\n"


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
