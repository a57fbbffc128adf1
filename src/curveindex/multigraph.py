"""Finite undirected multigraphs with stable edge identifiers.

The graphs here model special fibers of degenerating curves: a vertex per
component, an edge per intersection point, so loops (self-intersections) and
parallel edges (multiple intersections) are both first-class.  Every edge
stores its endpoints in a fixed order; the first endpoint is the *tail* and
serves as an orientation reference, which is what lets group actions and
subdivisions stay well-defined on parallel edges.  Instances are immutable
after construction and may be shared freely.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Iterable, Mapping
from functools import cached_property


class GraphError(ValueError):
    """Malformed graph data or an invalid graph operation."""


class Edge(namedtuple("Edge", "id tail head")):
    """One undirected edge; ``tail == head`` makes it a loop.

    A named tuple, so immutable; ``__slots__ = ()`` spares every edge a ``__dict__``.
    """

    __slots__ = ()

    @property
    def ends(self) -> frozenset[str]:
        """The unordered endpoint pair (a singleton frozenset for loops)."""
        return frozenset((self.tail, self.head))


class MultiGraph(namedtuple("MultiGraph", "vertices edges")):
    """Vertices and edges; derived data (vertex set, edges by id, degrees, connectivity) is cached on first use.

    A named tuple without ``__slots__``, so the cached data has a ``__dict__``
    to live in; ``__init__`` checks the fields once they are set.
    """

    def __init__(self, vertices: tuple[str, ...], edges: tuple[Edge, ...]) -> None:
        if not self.vertices:
            raise GraphError("a multigraph needs at least one vertex")
        vs = self.vertex_set
        ids, tails, heads = tuple(zip(*self.edges)) or ((), (), ())
        for kind, names, distinct in (("vertex", self.vertices, vs), ("edge", ids, set(ids))):
            if len(distinct) != len(names):
                raise GraphError(f"duplicate {kind} identifiers: {[x for x, k in Counter(names).items() if k > 1]}")
        if not vs.issuperset(tails) or not vs.issuperset(heads):  # the endpoint law, whole; then name its first breach
            e = next(e for e in self.edges if e.tail not in vs or e.head not in vs)
            raise GraphError(f"edge {e.id!r} has an unknown endpoint ({e.tail!r}, {e.head!r})")

    @classmethod
    def build(cls, vertices: Iterable[str], edges: Iterable[tuple[str, str, str]]) -> "MultiGraph":
        """Construct from vertex ids and ``(edge id, tail, head)`` triples."""
        return cls(tuple(vertices), tuple(map(Edge._make, edges)))

    @cached_property
    def vertex_set(self) -> frozenset[str]:
        return frozenset(self.vertices)

    @cached_property
    def edge_by_id(self) -> Mapping[str, Edge]:
        return {e.id: e for e in self.edges}

    @cached_property
    def degrees(self) -> Mapping[str, int]:
        # A loop contributes 2: the corresponding node has both branches on one component.
        deg = {v: 0 for v in self.vertices}
        for e in self.edges:
            deg[e.tail] += 1
            deg[e.head] += 1
        return deg

    @cached_property
    def connected(self) -> bool:
        neighbours: dict[str, list[str]] = {v: [] for v in self.vertices}
        for _, tail, head in self.edges:
            neighbours[tail].append(head)
            neighbours[head].append(tail)
        seen = {self.vertices[0]}
        stack = [self.vertices[0]]
        while stack:
            for w in neighbours[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self.vertices)


def euler_characteristic(g: MultiGraph) -> int:
    """Number of vertices minus number of edges."""
    return len(g.vertices) - len(g.edges)


def is_connected(g: MultiGraph) -> bool:
    """Whether a depth-first search from the first vertex reaches every vertex (cached per graph)."""
    return g.connected


def arithmetic_genus(g: MultiGraph) -> int:
    """Genus of the curve whose components and nodes the graph records.

    For a connected graph this is ``1 - chi`` and is never negative.
    """
    if not is_connected(g):
        raise GraphError("arithmetic genus is only defined for connected graphs")
    return 1 - euler_characteristic(g)


def degree(g: MultiGraph, v: str) -> int:
    """Edge-endpoint incidences at ``v``; a loop counts twice."""
    try:
        return g.degrees[v]
    except KeyError:
        raise GraphError(f"unknown vertex {v!r}") from None


def chain_separator(g: MultiGraph, e: int) -> str:
    """Separator of the chain vertex names ``<edge id><sep><position>`` of an ``e``-fold subdivision.

    It is ``":"`` unless that makes some chain vertex name equal a vertex
    of ``g``; then it is the shortest run of colons under which none does.
    A chain vertex name splits back into edge id and position at its last
    separator, so chain vertices never collide with each other either.
    """
    positions = {str(p) for p in range(1, e)}
    sep = ":"
    while any(
        p in positions and edge in g.edge_by_id
        for edge, _, p in (v.rpartition(sep) for v in g.vertices if sep in v)
    ):
        sep += ":"
    return sep


def subdivide(g: MultiGraph, e: int) -> MultiGraph:
    """Replace every edge by a path of ``e`` edges through fresh vertices; the only place chains are named.

    Edge ``<id>`` becomes vertices ``<id><sep><p>`` for positions p = 1..e-1
    from the tail, with ``sep`` from :func:`chain_separator` (``":"``
    whenever that names no existing vertex), and segments ``<id>#<k>`` for
    k = 0..e-1, segment k joining positions k and k + 1, so the expansion is
    reproducible.  ``e == 1`` returns the graph unchanged.
    """
    if e < 1:
        raise GraphError(f"subdivision factor must be >= 1, got {e}")
    if e == 1:
        return g
    sep = chain_separator(g, e)
    vertices = list(g.vertices)
    edges: list[tuple[str, str, str]] = []
    for ed in g.edges:
        inner = [f"{ed.id}{sep}{p}" for p in range(1, e)]
        vertices += inner
        path = [ed.tail, *inner, ed.head]
        edges += ((f"{ed.id}#{k}", path[k], path[k + 1]) for k in range(e))
    return MultiGraph.build(vertices, edges)


def _quoted(text: str) -> str:
    """A DOT double-quoted string: backslashes and quotes escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(g: MultiGraph, vertex_attrs: Mapping[str, Mapping[str, str]] | None = None, name: str = "G") -> str:
    """Render as undirected DOT, labelling edges by their identifiers."""
    lines = [f"graph {name} {{"]
    for v in g.vertices:
        attrs = dict(vertex_attrs.get(v, {})) if vertex_attrs else {}
        if attrs:
            inner = ", ".join(f"{k}={_quoted(val)}" for k, val in attrs.items())
            lines.append(f"  {_quoted(v)} [{inner}];")
        else:
            lines.append(f"  {_quoted(v)};")
    for e in g.edges:
        lines.append(f"  {_quoted(e.tail)} -- {_quoted(e.head)} [label={_quoted(e.id)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
