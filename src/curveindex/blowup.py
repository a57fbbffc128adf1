"""Brute-force splitting oracle via simulated ramified base change.

Pulling a model up a ramified extension of index ``e`` turns every node into
a chain of ``e - 1`` fresh components; combinatorially that is edge
subdivision.  The acting subgroup follows along: a chain maps onto the image
edge's chain, position-preserving when the edge image keeps its stored
orientation and position-reversing otherwise.  The curve then has a rational
point iff the subdivided graph has a fixed vertex, which is the whole
oracle.  Beyond :func:`~curveindex.action.map_power`, which is tested on its
own, it shares no logic with the closed-form classifier in
:mod:`curveindex.invariants`, so agreement between the two is evidence.
"""

from __future__ import annotations

from dataclasses import dataclass

from .action import CyclicAction, map_power
from .constructions import CurveModel
from .invariants import ExtensionSpec
from .multigraph import MultiGraph, subdivide_with_provenance


@dataclass(frozen=True)
class BlownUpModel:
    """Subdivided graph with the transported subgroup action.

    ``action.order`` is the order of the acting subgroup (``I/d``);
    ``provenance`` maps each fresh chain vertex to (parent edge, position).
    Original vertices keep their identifiers, so the Euler characteristic
    (and hence the genus) is unchanged.
    """

    graph: MultiGraph
    action: CyclicAction
    provenance: dict[str, tuple[str, int]]


def base_change(m: CurveModel, x: ExtensionSpec) -> BlownUpModel:
    """Model after base change along an extension of type ``x``.

    The acting group shrinks to the subgroup addressed by ``x.d`` and the
    graph is subdivided ``x.e``-fold; ``e == 1`` (unramified) leaves the
    graph untouched.
    """
    order = m.action.order
    if order % x.d != 0:
        raise ValueError(f"d = {x.d} does not divide the acting order {order}")
    gen_v = map_power(m.action.vertex_map, x.d)
    gen_e = map_power(m.action.edge_map, x.d)
    sub_order = order // x.d
    if x.e == 1:
        return BlownUpModel(m.graph, CyclicAction(sub_order, gen_v, gen_e), {})

    graph, provenance = subdivide_with_provenance(m.graph, x.e)
    vmap = {v: gen_v[v] for v in m.graph.vertices}
    emap: dict[str, str] = {}
    for edge in m.graph.edges:
        image = m.graph.edge_by_id[gen_e[edge.id]]
        keeps_orientation = gen_v[edge.tail] == image.tail
        for p in range(1, x.e):
            q = p if keeps_orientation else x.e - p
            vmap[f"{edge.id}:{p}"] = f"{image.id}:{q}"
        for s in range(x.e):
            t = s if keeps_orientation else x.e - 1 - s
            emap[f"{edge.id}#{s}"] = f"{image.id}#{t}"
    return BlownUpModel(graph, CyclicAction(sub_order, vmap, emap), provenance)


def oracle_splits(m: CurveModel, x: ExtensionSpec) -> bool:
    """True iff the blown-up model has a vertex fixed by the acting subgroup."""
    blown = base_change(m, x)
    vmap = blown.action.vertex_map
    return any(vmap[v] == v for v in blown.graph.vertices)
