"""Graph-with-action families realizing every admissible (genus, index) pair.

For each genus ``g >= 0`` and each ``I`` dividing ``2g - 2`` there is a
connected multigraph of arithmetic genus ``g``, maximum degree 3, carrying a
faithful action of the cyclic group of order ``I`` whose vertex orbits all
have size ``I``:

* ``I = 1``: a chain of coathangers (which also keeps a low-degree vertex,
  the property needed over the 2-element residue field);
* ``g = 0, I = 2``: a single edge with the endpoint swap;
* ``g = 1``: the I-cycle with rotation;
* ``g >= 2``: the Moebius ladder on ``2g - 2`` vertices, rotated by
  ``(2g - 2)/I``.

``construct`` dispatches among these and wraps the result as a
:class:`CurveModel` carrying per-component arithmetic data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .action import CyclicAction, map_power
from .multigraph import MultiGraph, degree, is_connected


@dataclass(frozen=True)
class GeneratingSet:
    """A symmetric generating set of nonzero residues mod ``order``.

    Elements are reduced mod ``order`` on construction; the set must avoid 0,
    be closed under negation, and generate the full cyclic group.
    """

    order: int
    elements: frozenset[int]

    def __post_init__(self) -> None:
        if self.order < 1:
            raise ValueError(f"group order must be positive, got {self.order}")
        reduced = frozenset(s % self.order for s in self.elements)
        object.__setattr__(self, "elements", reduced)
        if 0 in reduced:
            raise ValueError("generating set must not contain 0")
        if any((-s) % self.order not in reduced for s in reduced):
            raise ValueError("generating set must be closed under negation")
        if math.gcd(self.order, *reduced) != 1:
            raise ValueError(f"elements {sorted(reduced)} do not generate Z/{self.order}")


@dataclass(frozen=True)
class Component:
    """Arithmetic data attached to one vertex (one component of the fiber)."""

    ns_index: int = 1
    multiplicity: int = 1

    def __post_init__(self) -> None:
        if self.ns_index < 1 or self.multiplicity < 1:
            raise ValueError("ns_index and multiplicity must be positive")


@dataclass(frozen=True)
class CurveModel:
    """A connected multigraph with a cyclic action and per-component data."""

    graph: MultiGraph
    action: CyclicAction
    components: dict[str, Component] = field(default_factory=dict)
    claimed: tuple[int, int] | None = None  # (genus, index) the model is built to have

    def component(self, v: str) -> Component:
        return self.components.get(v, Component())


def as_model(
    graph: MultiGraph, action: CyclicAction, claimed: tuple[int, int] | None = None
) -> CurveModel:
    """Wrap a graph and action with unit component data on every vertex."""
    return CurveModel(graph, action, {v: Component() for v in graph.vertices}, claimed)


def cayley_graph(gs: GeneratingSet) -> tuple[MultiGraph, CyclicAction]:
    """Cayley graph of Z/I with respect to ``gs``, plus the translation action.

    Vertices are the residues, with an edge ``{x, x+s}`` for each generator;
    the graph is simple, connected, ``#S``-regular, and translation by 1 is
    free on vertices.
    """
    order = gs.order
    pairs = sorted(
        {tuple(sorted((x, (x + s) % order))) for x in range(order) for s in gs.elements}
    )
    edge_id = {pair: f"e{pair[0]}-{pair[1]}" for pair in pairs}
    graph = MultiGraph.build(
        (str(x) for x in range(order)),
        ((edge_id[p], str(p[0]), str(p[1])) for p in pairs),
    )
    vmap = {str(x): str((x + 1) % order) for x in range(order)}
    emap = {
        edge_id[(u, v)]: edge_id[tuple(sorted(((u + 1) % order, (v + 1) % order)))]
        for u, v in pairs
    }
    return graph, CyclicAction(order, vmap, emap)


def mobius_ladder(g: int) -> tuple[MultiGraph, CyclicAction]:
    """Cycle of length ``2g - 2`` plus antipodal rungs, with rotation by 1.

    Explicitly: vertices ``Z/(2g-2)``, cycle edges ``c<i> = {i, i+1}`` and
    rungs ``r<i> = {i, i+g-1}`` for ``i < g-1``.  At ``g = 2`` the recipe
    degenerates gracefully to two vertices joined by three parallel edges.
    Rotation carries ``r<g-2>`` back to ``r0`` with its orientation reversed;
    that convention pins the edge map down even when vertex images alone
    cannot distinguish parallel edges.
    """
    if g < 2:
        raise ValueError(f"Moebius ladders need genus >= 2, got {g}")
    n = 2 * g - 2
    edges = [(f"c{i}", str(i), str((i + 1) % n)) for i in range(n)]
    edges += [(f"r{i}", str(i), str(i + g - 1)) for i in range(g - 1)]
    graph = MultiGraph.build((str(i) for i in range(n)), edges)
    vmap = {str(i): str((i + 1) % n) for i in range(n)}
    emap = {f"c{i}": f"c{(i + 1) % n}" for i in range(n)}
    emap.update({f"r{i}": f"r{(i + 1) % (g - 1)}" for i in range(g - 1)})
    return graph, CyclicAction(n, vmap, emap)


def cycle_model(order: int) -> tuple[MultiGraph, CyclicAction]:
    """The I-cycle with rotation by 1; at ``I = 2`` a pair of parallel edges.

    The rotation is free on vertices and on edges: in particular at
    ``I = 2`` it swaps the two parallel edges rather than fixing them.
    """
    if order < 2:
        raise ValueError(f"cycles need order >= 2, got {order}")
    graph = MultiGraph.build(
        (str(i) for i in range(order)),
        ((f"c{i}", str(i), str((i + 1) % order)) for i in range(order)),
    )
    vmap = {str(i): str((i + 1) % order) for i in range(order)}
    emap = {f"c{i}": f"c{(i + 1) % order}" for i in range(order)}
    return graph, CyclicAction(order, vmap, emap)


def coathanger_chain(g: int) -> tuple[MultiGraph, CyclicAction]:
    """A genus-``g`` graph from ``g`` coathangers, with the trivial action.

    A coathanger is the 4-vertex graph with hub 0 joined to 1, 2, 3 and a
    back edge 2-3.  Chains bridge the pendant vertices, so the maximum
    degree stays 3 while an end pendant keeps degree at most 2.  ``g = 0``
    is the single-vertex graph.
    """
    if g < 0:
        raise ValueError(f"genus must be non-negative, got {g}")
    if g == 0:
        graph = MultiGraph.build(["0"], [])
    else:
        vertices = [f"{k}.{j}" for k in range(g) for j in range(4)]
        edges = []
        for k in range(g):
            edges += [
                (f"s{k}.1", f"{k}.0", f"{k}.1"),
                (f"s{k}.2", f"{k}.0", f"{k}.2"),
                (f"s{k}.3", f"{k}.0", f"{k}.3"),
                (f"b{k}", f"{k}.2", f"{k}.3"),
            ]
        edges += [(f"t{k}", f"{k}.1", f"{k + 1}.1") for k in range(g - 1)]
        graph = MultiGraph.build(vertices, edges)
    vmap = {v: v for v in graph.vertices}
    emap = {e.id: e.id for e in graph.edges}
    return graph, CyclicAction(1, vmap, emap)


def construct(genus: int, index: int) -> CurveModel:
    """Build the model for an admissible ``(genus, index)`` pair.

    Requires ``index | 2*genus - 2`` (so genus 1 admits every index, and
    genus 0 only 1 and 2).  The resulting action has exact order ``index``
    and every vertex orbit has size ``index``.
    """
    if genus < 0:
        raise ValueError(f"genus must be non-negative, got {genus}")
    if index < 1:
        raise ValueError(f"index must be positive, got {index}")
    if (2 * genus - 2) % index != 0:
        raise ValueError(
            f"index {index} does not divide 2*genus - 2 = {2 * genus - 2}; "
            "no such curve exists"
        )
    if index == 1:
        graph, action = coathanger_chain(genus)
    elif genus == 0:
        graph, action = cayley_graph(GeneratingSet(2, frozenset({1})))
    elif genus == 1:
        graph, action = cycle_model(index)
    elif index == 2 * genus - 2:
        graph, action = mobius_ladder(genus)
    else:
        graph, full = mobius_ladder(genus)
        step = (2 * genus - 2) // index
        action = CyclicAction(index, map_power(full.vertex_map, step), map_power(full.edge_map, step))
    return as_model(graph, action, claimed=(genus, index))


@dataclass(frozen=True)
class RealizabilityCheck:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class RealizabilityReport:
    checks: tuple[RealizabilityCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def check_realizability(m: CurveModel, q: int | float, mode: str = "full") -> RealizabilityReport:
    """Can this graph-with-action be the dual graph of an actual fiber?

    Checks connectivity, the degree-3 bound needed to place the nodes on
    genus-0 components, and, over a residue field of cardinality ``q``,
    the supply of rational points: each component must host its nodes at
    rational points of its minimal field of definition.

    ``mode="full"`` demands ``degree(v) <= q**orbit_size(v)`` for every
    vertex; ``mode="weak"`` only asks for one globally fixed vertex of
    degree at most ``q`` (enough when a rational point, rather than the
    full splitting pattern, is the goal).  ``q = math.inf`` always passes.
    """
    if mode not in ("full", "weak"):
        raise ValueError(f"mode must be 'full' or 'weak', got {mode!r}")
    if q != math.inf and (not isinstance(q, int) or q < 2):
        raise ValueError(f"residue cardinality must be an integer >= 2 or math.inf, got {q!r}")

    checks = []
    connected = is_connected(m.graph)
    checks.append(RealizabilityCheck("connected", connected))

    too_big = sorted(v for v in m.graph.vertices if degree(m.graph, v) > 3)
    checks.append(
        RealizabilityCheck(
            "degree-bound",
            not too_big,
            "" if not too_big else f"vertices of degree > 3: {too_big}",
        )
    )

    if q == math.inf:
        checks.append(RealizabilityCheck("point-supply", True, "infinite residue field"))
    else:
        orbit = m.action.vertex_orbit
        if mode == "full":
            bad = sorted(v for v in m.graph.vertices if degree(m.graph, v) > q ** orbit[v])
            checks.append(
                RealizabilityCheck(
                    "point-supply",
                    not bad,
                    "" if not bad else f"too many nodes for q={q} at: {bad}",
                )
            )
        else:
            good = sorted(v for v, size in orbit.items() if size == 1 and degree(m.graph, v) <= q)
            checks.append(
                RealizabilityCheck(
                    "point-supply",
                    bool(good),
                    f"fixed low-degree vertex: {good[0]}" if good else
                    f"no fixed vertex of degree <= {q}",
                )
            )
    return RealizabilityReport(tuple(checks))
