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
:class:`CurveModel` carrying per-component arithmetic data.  The ladder's
models are made by :func:`ladder_model`, which a sweep over every ``I`` of
one genus calls with a single ladder.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cached_property
from itertools import compress

from .action import CyclicAction, ValidationReport, map_power, validate
from .multigraph import MultiGraph, is_connected


class GeneratingSet(namedtuple("GeneratingSet", "order elements")):
    """A symmetric generating set of nonzero residues mod ``order``.

    Elements are reduced mod ``order`` on construction; the set must avoid 0,
    be closed under negation, and generate the full cyclic group.
    """

    __slots__ = ()

    def __new__(cls, order: int, elements: frozenset[int]) -> "GeneratingSet":
        if order < 1:
            raise ValueError(f"group order must be positive, got {order}")
        reduced = frozenset(s % order for s in elements)
        if 0 in reduced:
            raise ValueError("generating set must not contain 0")
        if any((-s) % order not in reduced for s in reduced):
            raise ValueError("generating set must be closed under negation")
        if math.gcd(order, *reduced) != 1:
            raise ValueError(f"elements {sorted(reduced)} do not generate Z/{order}")
        return super().__new__(cls, order, reduced)


class Component(namedtuple("Component", "ns_index multiplicity")):
    """Arithmetic data attached to one vertex (one component of the fiber)."""

    __slots__ = ()

    def __new__(cls, ns_index: int = 1, multiplicity: int = 1) -> "Component":
        if ns_index < 1 or multiplicity < 1:
            raise ValueError("ns_index and multiplicity must be positive")
        return super().__new__(cls, ns_index, multiplicity)


UNIT = Component()  # ns_index = multiplicity = 1; one instance serves every vertex, Component being immutable


class CurveModel(namedtuple("CurveModel", "graph action components claimed")):
    """A connected multigraph with a cyclic action and per-component data.

    ``components`` defaults to a fresh empty dict per model; ``claimed`` is
    the (genus, index) the model is built to have, if any.  No ``__slots__``:
    the cached validation report lives in the instance's ``__dict__``.
    """

    def __new__(cls, graph: MultiGraph, action: CyclicAction, components: dict[str, Component] | None = None,
                claimed: tuple[int, int] | None = None) -> "CurveModel":
        return super().__new__(cls, graph, action, {} if components is None else components, claimed)

    @cached_property
    def validation(self) -> ValidationReport:
        """``validate(graph, action)``, made once per model (a model file's parser reads it too)."""
        return validate(self.graph, self.action)


def as_model(
    graph: MultiGraph, action: CyclicAction, claimed: tuple[int, int] | None = None
) -> CurveModel:
    """Wrap a graph and action with unit component data on every vertex."""
    return CurveModel(graph, action, dict.fromkeys(graph.vertices, UNIT), claimed)


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


def _rotation(n: int, rungs: int) -> tuple[MultiGraph, CyclicAction]:
    """Vertices ``Z/n``, edges ``c<i> = (i, i+1 mod n)`` and ``r<i> = (i, i+rungs)`` for ``i < rungs``, rotated by 1.

    The rotation carries ``r<rungs-1>`` to ``r0``; that convention pins the
    edge map down even when vertex images cannot tell parallel edges apart.
    """
    edges = [(f"c{i}", str(i), str((i + 1) % n)) for i in range(n)]
    edges += [(f"r{i}", str(i), str(i + rungs)) for i in range(rungs)]
    vmap = {str(i): str((i + 1) % n) for i in range(n)}
    emap = {f"c{i}": f"c{(i + 1) % n}" for i in range(n)}
    emap.update({f"r{i}": f"r{(i + 1) % rungs}" for i in range(rungs)})
    return MultiGraph.build(vmap, edges), CyclicAction(n, vmap, emap)


def mobius_ladder(g: int) -> tuple[MultiGraph, CyclicAction]:
    """Cycle of length ``2g - 2`` plus antipodal rungs ``r<i> = {i, i+g-1}``, with rotation by 1.

    At ``g = 2`` the recipe degenerates gracefully to two vertices joined by
    three parallel edges.  Rotation carries ``r<g-2>`` back to ``r0`` with
    its orientation reversed.
    """
    if g < 2:
        raise ValueError(f"Moebius ladders need genus >= 2, got {g}")
    return _rotation(2 * g - 2, g - 1)


def cycle_model(order: int) -> tuple[MultiGraph, CyclicAction]:
    """The I-cycle with rotation by 1; at ``I = 2`` a pair of parallel edges.

    The rotation is free on vertices and on edges: in particular at
    ``I = 2`` it swaps the two parallel edges rather than fixing them.
    """
    if order < 2:
        raise ValueError(f"cycles need order >= 2, got {order}")
    return _rotation(order, 0)


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


# Most vertices ``construct`` builds.  At the limit ``curveindex construct``
# takes up to about 1.6 s and 185 MB (Python 3.11, x86-64).
MAX_VERTICES = 10**5


def vertex_count(genus: int, index: int) -> int:
    """The number of vertices of ``construct(genus, index)``, read off its recipe without building it."""
    if index == 1:
        return max(4 * genus, 1)
    if genus <= 1:
        return 2 if genus == 0 else index
    return 2 * genus - 2


def construct(genus: int, index: int) -> CurveModel:
    """Build the model for an admissible ``(genus, index)`` pair.

    Requires ``index | 2*genus - 2`` (so genus 1 admits every index, and
    genus 0 only 1 and 2).  The resulting action has exact order ``index``
    and every vertex orbit has size ``index``.  A model of more than
    :data:`MAX_VERTICES` vertices is refused before anything is built.
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
    vertices = vertex_count(genus, index)
    if vertices > MAX_VERTICES:
        raise ValueError(f"the model would have {vertices} vertices; the limit is {MAX_VERTICES}")
    if index == 1:
        graph, action = coathanger_chain(genus)
    elif genus == 0:
        graph, action = cayley_graph(GeneratingSet(2, frozenset({1})))
    elif genus == 1:
        graph, action = cycle_model(index)
    else:
        return ladder_model(mobius_ladder(genus), index)
    return as_model(graph, action, claimed=(genus, index))


def ladder_model(ladder: tuple[MultiGraph, CyclicAction], index: int) -> CurveModel:
    """``construct(g, index)`` for ``g >= 2`` and ``index > 1``, from ``ladder = mobius_ladder(g)``.

    The ladder's rotation is raised to the power ``(2g - 2)/index``.  The
    model holds the ladder's graph itself, so one ladder serves every index
    of its genus and the graph's cached data is computed once for all of them.
    """
    graph, full = ladder
    step = full.order // index
    action = CyclicAction(index, map_power(full.vertex_map, step), map_power(full.edge_map, step))
    return as_model(graph, action, claimed=(full.order // 2 + 1, index))


RealizabilityCheck = namedtuple("RealizabilityCheck", "name passed detail", defaults=("",))


class RealizabilityReport(namedtuple("RealizabilityReport", "checks")):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _named(head: str, vertices: list[str]) -> str:
    """``head`` and the first 12 of ``vertices`` as a list, with a count of the rest; "" for none."""
    if not vertices:
        return ""
    more = len(vertices) - 12
    return f"{head}{vertices[:12]}" + (f" (+{more} more)" if more > 0 else "")


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

    connected = is_connected(m.graph)  # first: the search's neighbour lists come and go before the degrees are cached
    deg = m.graph.degrees
    too_big = sorted(compress(deg, map((3).__lt__, deg.values())))  # degree above 3
    if q == math.inf:
        passed, detail = True, "infinite residue field"
    elif mode == "full":
        # q**k > k for q >= 2, so an exponent past the degree cannot change the verdict
        orbit = m.action.vertex_orbit
        bad = sorted(v for v in m.graph.vertices if deg[v] > q ** min(orbit[v], deg[v]))
        passed, detail = not bad, _named(f"too many nodes for q={q} at: ", bad)
    else:
        good = sorted(v for v, size in m.action.vertex_orbit.items() if size == 1 and deg[v] <= q)
        passed, detail = bool(good), f"fixed low-degree vertex: {good[0]}" if good else f"no fixed vertex of degree <= {q}"
    return RealizabilityReport((
        RealizabilityCheck("connected", connected),
        RealizabilityCheck("degree-bound", not too_big, _named("vertices of degree > 3: ", too_big)),
        RealizabilityCheck("point-supply", passed, detail),
    ))
