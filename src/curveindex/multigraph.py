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

from collections import Counter, deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping


class GraphError(ValueError):
    """Malformed graph data or an invalid graph operation."""


@dataclass(frozen=True)
class Edge:
    """One undirected edge; ``tail == head`` makes it a loop."""

    id: str
    tail: str
    head: str

    @property
    def ends(self) -> frozenset[str]:
        """The unordered endpoint pair (a singleton frozenset for loops)."""
        return frozenset((self.tail, self.head))

    @property
    def is_loop(self) -> bool:
        return self.tail == self.head


@dataclass(frozen=True)
class MultiGraph:
    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        if not self.vertices:
            raise GraphError("a multigraph needs at least one vertex")
        if len(set(self.vertices)) != len(self.vertices):
            dupes = [v for v, k in Counter(self.vertices).items() if k > 1]
            raise GraphError(f"duplicate vertex identifiers: {dupes}")
        ids = [e.id for e in self.edges]
        if len(set(ids)) != len(ids):
            dupes = [i for i, k in Counter(ids).items() if k > 1]
            raise GraphError(f"duplicate edge identifiers: {dupes}")
        vs = set(self.vertices)
        for e in self.edges:
            if e.tail not in vs or e.head not in vs:
                raise GraphError(f"edge {e.id!r} has an unknown endpoint ({e.tail!r}, {e.head!r})")

    @classmethod
    def build(cls, vertices: Iterable[str], edges: Iterable[tuple[str, str, str]]) -> "MultiGraph":
        """Construct from vertex ids and ``(edge id, tail, head)`` triples."""
        return cls(tuple(vertices), tuple(Edge(i, t, h) for i, t, h in edges))

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
    def adjacency(self) -> Mapping[str, tuple[str, ...]]:
        """Neighbors of each vertex, with repetition per parallel edge."""
        adj: dict[str, list[str]] = {v: [] for v in self.vertices}
        for e in self.edges:
            adj[e.tail].append(e.head)
            if not e.is_loop:
                adj[e.head].append(e.tail)
        return {v: tuple(ns) for v, ns in adj.items()}


def euler_characteristic(g: MultiGraph) -> int:
    """Number of vertices minus number of edges."""
    return len(g.vertices) - len(g.edges)


def is_connected(g: MultiGraph) -> bool:
    seen = {g.vertices[0]}
    queue = deque(seen)
    while queue:
        v = queue.popleft()
        for w in g.adjacency[v]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == len(g.vertices)


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


def subdivide(g: MultiGraph, e: int) -> MultiGraph:
    """Replace every edge by a path of ``e`` edges through fresh vertices.

    Internal vertices are named ``<edge id>:<position>`` with positions
    1..e-1 counted from the tail, and the segments ``<edge id>#<k>`` for
    k in 0..e-1, so the expansion is reproducible.  ``e == 1`` returns the
    graph unchanged.
    """
    return subdivide_with_provenance(g, e)[0]


def subdivide_with_provenance(g: MultiGraph, e: int) -> tuple[MultiGraph, dict[str, tuple[str, int]]]:
    """Like :func:`subdivide`, also returning ``new vertex -> (parent edge, position)``."""
    if e < 1:
        raise GraphError(f"subdivision factor must be >= 1, got {e}")
    if e == 1:
        return g, {}
    vertices = list(g.vertices)
    edges: list[tuple[str, str, str]] = []
    provenance: dict[str, tuple[str, int]] = {}
    for ed in g.edges:
        chain = [ed.tail]
        for p in range(1, e):
            w = f"{ed.id}:{p}"
            vertices.append(w)
            provenance[w] = (ed.id, p)
            chain.append(w)
        chain.append(ed.head)
        for s in range(e):
            edges.append((f"{ed.id}#{s}", chain[s], chain[s + 1]))
    return MultiGraph.build(vertices, edges), provenance


def _pair_counts(g: MultiGraph) -> tuple[dict[frozenset[str], int], dict[str, int]]:
    pairs: dict[frozenset[str], int] = Counter()
    loops: dict[str, int] = Counter()
    for e in g.edges:
        if e.is_loop:
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


def to_json_obj(g: MultiGraph) -> dict:
    return {
        "vertices": [{"id": v} for v in g.vertices],
        "edges": [{"id": e.id, "ends": [e.tail, e.head]} for e in g.edges],
    }


def from_json_obj(obj: dict) -> MultiGraph:
    if not isinstance(obj, dict):
        raise GraphError("graph object must be a JSON object")
    try:
        raw_vertices = obj["vertices"]
        raw_edges = obj["edges"]
    except KeyError as missing:
        raise GraphError(f"graph object lacks key {missing}") from None
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
            or not all(isinstance(x, str) for x in ends)
        ):
            raise GraphError(f"edges[{i}].ends must be a pair of vertex ids")
        edges.append((item["id"], ends[0], ends[1]))
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
