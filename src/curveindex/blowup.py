"""Brute-force splitting oracle via simulated ramified base change.

Pulling a model up a ramified extension of index ``e`` turns every node into
a chain of ``e - 1`` fresh components; combinatorially that is edge
subdivision.  The group action follows along: a chain maps onto the image
edge's chain, position-preserving when the edge image keeps its stored
orientation and position-reversing otherwise.  The curve then has a rational
point over an extension of type ``(d, e)`` iff the ``d``-th power of the
transported generator fixes a vertex of the subdivided graph, which is the
whole oracle.  The subdivided graph depends on ``e`` alone, and transport
commutes with taking powers, so :func:`oracle_table` blows the model up once
per ``e`` and takes one power per ``d``.  Beyond
:func:`~curveindex.action.map_power`, which is tested on its own, the oracle
shares no logic with the closed-form classifier in
:mod:`curveindex.invariants`, so agreement between the two is evidence.
"""

from __future__ import annotations

from dataclasses import dataclass

from .action import CyclicAction, map_power
from .constructions import CurveModel
from .invariants import ExtensionSpec, divisors
from .multigraph import MultiGraph, chain_separator, subdivide_with_provenance


@dataclass(frozen=True)
class BlownUpModel:
    """Subdivided graph with the transported action.

    ``action.order`` is the order of the acting group (``I`` from
    :func:`blow_up`, ``I/d`` from :func:`base_change`); ``provenance`` maps
    each fresh chain vertex to (parent edge, position).  Original vertices
    keep their identifiers, so the Euler characteristic (and hence the
    genus) is unchanged.
    """

    graph: MultiGraph
    action: CyclicAction
    provenance: dict[str, tuple[str, int]]


def blow_up(m: CurveModel, e: int) -> BlownUpModel:
    """Subdivide ``e``-fold and transport the whole group's generator.

    ``e == 1`` (unramified) returns the model's own graph and action.
    """
    if e == 1:
        return BlownUpModel(m.graph, m.action, {})
    gen_v = m.action.vertex_map
    gen_e = m.action.edge_map
    graph, provenance = subdivide_with_provenance(m.graph, e)
    sep = chain_separator(m.graph, e)
    vmap = {v: gen_v[v] for v in m.graph.vertices}
    emap: dict[str, str] = {}
    for edge in m.graph.edges:
        image = m.graph.edge_by_id[gen_e[edge.id]]
        keeps_orientation = gen_v[edge.tail] == image.tail
        for p in range(1, e):
            q = p if keeps_orientation else e - p
            vmap[f"{edge.id}{sep}{p}"] = f"{image.id}{sep}{q}"
        for s in range(e):
            t = s if keeps_orientation else e - 1 - s
            emap[f"{edge.id}#{s}"] = f"{image.id}#{t}"
    return BlownUpModel(graph, CyclicAction(m.action.order, vmap, emap), provenance)


def base_change(m: CurveModel, x: ExtensionSpec) -> BlownUpModel:
    """Model after base change along an extension of type ``x``.

    The graph is subdivided ``x.e``-fold and the acting group shrinks to
    the subgroup addressed by ``x.d``, generated by the ``x.d``-th power of
    the transported generator.
    """
    order = m.action.order
    if order % x.d != 0:
        raise ValueError(f"d = {x.d} does not divide the acting order {order}")
    blown = blow_up(m, x.e)
    action = CyclicAction(
        order // x.d,
        map_power(blown.action.vertex_map, x.d),
        map_power(blown.action.edge_map, x.d),
    )
    return BlownUpModel(blown.graph, action, blown.provenance)


def has_fixed_vertex(vertex_map: dict[str, str]) -> bool:
    """True iff the vertex permutation fixes some vertex."""
    return any(w == v for v, w in vertex_map.items())


def oracle_splits(m: CurveModel, x: ExtensionSpec) -> bool:
    """True iff the blown-up model has a vertex fixed by the acting subgroup."""
    return has_fixed_vertex(base_change(m, x).action.vertex_map)


def oracle_table(m: CurveModel, e_max: int) -> dict[tuple[int, int], bool]:
    """:func:`oracle_splits` for every ``d | I`` and ``1 <= e <= e_max``.

    Keys are ``(d, e)`` in sorted order; each ``e`` costs one blow-up.
    """
    codegrees = divisors(m.action.order)
    table = {}
    for e in range(1, e_max + 1):
        vmap = blow_up(m, e).action.vertex_map
        for d in codegrees:
            table[(d, e)] = has_fixed_vertex(map_power(vmap, d))
        del vmap  # free it before the next, larger blow-up
    return dict(sorted(table.items()))
