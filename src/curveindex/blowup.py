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
``e``, walks its cycles once and reads off every ``d``.  The transport works
on positions, not names; only :func:`base_change` builds the subdivided
graph and names the maps from it.  Beyond :func:`~curveindex.action.cycles`
and :func:`~curveindex.action.map_power` (built on it), which are tested on
their own, the oracle shares no logic with the closed-form classifier in
:mod:`curveindex.invariants`, so agreement between the two is evidence.
"""

from __future__ import annotations

from dataclasses import dataclass

from .action import CyclicAction, cycles, map_power
from .constructions import CurveModel
from .invariants import ExtensionSpec, divisors
from .multigraph import MultiGraph, subdivide


@dataclass(frozen=True)
class BlownUpModel:
    """Subdivided graph with the action of the subgroup addressed by ``d``.

    ``action.order`` is ``I/d``.  Original vertices keep their identifiers,
    so the Euler characteristic (and hence the genus) is unchanged.
    """

    graph: MultiGraph
    action: CyclicAction


def transport(m: CurveModel, e: int) -> tuple[list[int], list[int]]:
    """The whole group's generator carried to the ``e``-fold subdivision of ``m.graph``.

    Returns the vertex and edge permutations as positions in the tuples of
    :func:`~curveindex.multigraph.subdivide`, which puts the chain of edge
    ``k`` at vertex positions ``n + k(e-1) ...`` and segment positions ``ke ...``.
    """
    g, gen_v = m.graph, m.action.vertex_map
    n = len(g.vertices)
    vertex_at = {v: i for i, v in enumerate(g.vertices)}
    edge_at = {edge.id: k for k, edge in enumerate(g.edges)}
    vperm, eperm = [vertex_at[gen_v[v]] for v in g.vertices], []
    for edge in g.edges:
        j = edge_at[m.action.edge_map[edge.id]]
        step = 1 if gen_v[edge.tail] == g.edges[j].tail else -1  # -1: the image runs against its orientation
        vperm += range(n + j * (e - 1), n + (j + 1) * (e - 1))[::step]
        eperm += range(j * e, (j + 1) * e)[::step]
    return vperm, eperm


def _check_codegree(m: CurveModel, d: int) -> None:
    if m.action.order % d != 0:
        raise ValueError(f"d = {d} does not divide the acting order {m.action.order}")


def base_change(m: CurveModel, x: ExtensionSpec) -> BlownUpModel:
    """Model after base change along an extension of type ``x``.

    The graph is subdivided ``x.e``-fold and the acting group shrinks to
    the subgroup addressed by ``x.d``, generated by the ``x.d``-th power of
    the transported generator, named here by the subdivided graph's ids.
    """
    _check_codegree(m, x.d)
    graph = subdivide(m.graph, x.e)
    gen_v, gen_e = m.action.vertex_map, m.action.edge_map
    if x.e > 1:  # e == 1 keeps the model's own maps, in their own key order
        vperm, eperm = transport(m, x.e)
        gen_v = {v: graph.vertices[i] for v, i in zip(graph.vertices, vperm)}
        gen_e = {edge.id: graph.edges[i].id for edge, i in zip(graph.edges, eperm)}
    action = CyclicAction(m.action.order // x.d, map_power(gen_v, x.d), map_power(gen_e, x.d))
    return BlownUpModel(graph, action)


def _cycle_lengths(m: CurveModel, e: int) -> set[int]:
    return {len(c) for c in cycles(dict(enumerate(transport(m, e)[0])))}


def oracle_splits(m: CurveModel, x: ExtensionSpec) -> bool:
    """True iff the ``x.d``-th power of the transported generator fixes a vertex."""
    _check_codegree(m, x.d)
    return any(x.d % n == 0 for n in _cycle_lengths(m, x.e))


def oracle_table(m: CurveModel, e_max: int) -> dict[tuple[int, int], bool]:
    """:func:`oracle_splits` for every ``d | I`` and ``1 <= e <= e_max``.

    Keys are ``(d, e)`` in sorted order; each ``e`` costs one transport and
    one cycle walk of its vertex permutation.
    """
    if e_max < 1:
        raise ValueError(f"e_max must be at least 1, got {e_max}")
    depths = range(1, e_max + 1)
    lengths = [_cycle_lengths(m, e) for e in depths]
    return {
        (d, e): any(d % n == 0 for n in lengths[e - 1])
        for d in divisors(m.action.order)
        for e in depths
    }
