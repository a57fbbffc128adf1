"""Brute-force splitting oracle via simulated ramified base change.

Pulling a model up a ramified extension of index ``e`` turns every node into
a chain of ``e - 1`` fresh components; combinatorially that is edge
subdivision (:func:`~curveindex.multigraph.subdivide`).  The group action
follows along (:func:`transport`): a chain maps onto the image edge's chain,
position-preserving when the edge image keeps its stored orientation and
position-reversing otherwise.  The curve then has a rational point over an
extension of type ``(d, e)`` iff the ``d``-th power of the transported
generator fixes a vertex of the subdivided graph, which is the whole oracle.
That power fixes a vertex iff the length of the generator's cycle through it
divides ``d``, so :func:`oracle_table` transports the generator once per
``e``, walks its cycles once and reads off every ``d``; it never builds the
subdivided graph, which only :func:`base_change` returns.  Beyond
:func:`~curveindex.action.cycles` and :func:`~curveindex.action.map_power`
(built on it), which are tested on their own, the oracle shares no logic
with the closed-form classifier in :mod:`curveindex.invariants`, so
agreement between the two is evidence.
"""

from __future__ import annotations

from dataclasses import dataclass

from .action import CyclicAction, cycles, map_power
from .constructions import CurveModel
from .invariants import ExtensionSpec, divisors
from .multigraph import GraphError, MultiGraph, chain, chain_separator, subdivide


@dataclass(frozen=True)
class BlownUpModel:
    """Subdivided graph with the action of the subgroup addressed by ``d``.

    ``action.order`` is ``I/d``.  Original vertices keep their identifiers,
    so the Euler characteristic (and hence the genus) is unchanged.
    """

    graph: MultiGraph
    action: CyclicAction


def transport(m: CurveModel, e: int) -> CyclicAction:
    """The whole group's generator carried to the ``e``-fold subdivision of ``m.graph``.

    Vertex and edge identifiers are those of
    :func:`~curveindex.multigraph.subdivide`; ``e == 1`` returns the model's
    own action.  Raises :class:`GraphError` if two vertices of the
    subdivision would share a name.
    """
    if e == 1:
        return m.action
    gen_v = m.action.vertex_map
    gen_e = m.action.edge_map
    sep = chain_separator(m.graph, e)
    names = {edge.id: chain(edge.id, e, sep) for edge in m.graph.edges}
    vmap = {v: gen_v[v] for v in m.graph.vertices}
    emap: dict[str, str] = {}
    for edge in m.graph.edges:
        image = m.graph.edge_by_id[gen_e[edge.id]]
        inner, segments = names[edge.id]
        image_inner, image_segments = names[image.id]
        if gen_v[edge.tail] != image.tail:  # the image runs against its stored orientation
            image_inner, image_segments = image_inner[::-1], image_segments[::-1]
        vmap.update(zip(inner, image_inner))
        emap.update(zip(segments, image_segments))
    if len(vmap) < len(m.graph.vertices) + (e - 1) * len(m.graph.edges):
        raise GraphError(f"chain vertex names of the {e}-fold subdivision collide with vertex identifiers")
    return CyclicAction(m.action.order, vmap, emap)


def _check_codegree(m: CurveModel, d: int) -> None:
    if m.action.order % d != 0:
        raise ValueError(f"d = {d} does not divide the acting order {m.action.order}")


def base_change(m: CurveModel, x: ExtensionSpec) -> BlownUpModel:
    """Model after base change along an extension of type ``x``.

    The graph is subdivided ``x.e``-fold and the acting group shrinks to
    the subgroup addressed by ``x.d``, generated by the ``x.d``-th power of
    the transported generator.
    """
    _check_codegree(m, x.d)
    gen = transport(m, x.e)
    action = CyclicAction(m.action.order // x.d, map_power(gen.vertex_map, x.d), map_power(gen.edge_map, x.d))
    return BlownUpModel(subdivide(m.graph, x.e), action)


def oracle_splits(m: CurveModel, x: ExtensionSpec) -> bool:
    """True iff the ``x.d``-th power of the transported generator fixes a vertex."""
    _check_codegree(m, x.d)
    return any(w == v for v, w in map_power(transport(m, x.e).vertex_map, x.d).items())


def oracle_table(m: CurveModel, e_max: int) -> dict[tuple[int, int], bool]:
    """:func:`oracle_splits` for every ``d | I`` and ``1 <= e <= e_max``.

    Keys are ``(d, e)`` in sorted order; each ``e`` costs one transport and
    one cycle walk of its vertex map.
    """
    depths = range(1, e_max + 1)
    lengths = [{len(c) for c in cycles(transport(m, e).vertex_map)} for e in depths]
    return {
        (d, e): any(d % n == 0 for n in lengths[e - 1])
        for d in divisors(m.action.order)
        for e in depths
    }
