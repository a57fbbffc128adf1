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
divides ``d``, so :func:`oracle_table` carries the generator onto positions
once per model.  The model's own vertices map among themselves at every
depth, so their cycles are walked once per call; each ``e`` lays out only its
chains, which also map among themselves, walks their cycles once, and reads
every ``d`` off the two sets of cycle lengths.  Only :func:`base_change`
builds the edge permutation and the subdivided graph and names the maps.
Beyond :func:`~curveindex.action.cycles` and :func:`~curveindex.action.map_power`
(built on it), which are tested on their own, the oracle shares no logic with
the classifier in :mod:`curveindex.invariants`, so their agreement is evidence.
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


def _positions(m: CurveModel) -> tuple[list[int], list[tuple[int, int]]]:
    """Each vertex's image position; each edge's, with step ``-1`` if the image runs against its orientation."""
    g, gen_v = m.graph, m.action.vertex_map
    vertex_at = {v: i for i, v in enumerate(g.vertices)}
    edge_at = {edge.id: k for k, edge in enumerate(g.edges)}
    images = [edge_at[m.action.edge_map[edge.id]] for edge in g.edges]
    steps = [1 if gen_v[edge.tail] == g.edges[j].tail else -1 for edge, j in zip(g.edges, images)]
    return [vertex_at[gen_v[v]] for v in g.vertices], list(zip(images, steps))


def _chains(head: list[int], edges: list[tuple[int, int]], start: int, width: int) -> list[int]:
    """``head`` followed by each edge's chain of ``width`` positions, counted from ``start``."""
    perm = list(head)
    for j, step in edges:
        perm += range(start + j * width, start + (j + 1) * width)[::step]
    return perm


def transport(m: CurveModel, e: int) -> tuple[list[int], list[int]]:
    """The whole group's generator carried to the ``e``-fold subdivision of ``m.graph``.

    Returns the vertex and edge permutations as positions in the tuples of
    :func:`~curveindex.multigraph.subdivide`, which puts the chain of edge
    ``k`` at vertex positions ``n + k(e-1) ...`` and segment positions ``ke ...``.
    """
    vertices, edges = _positions(m)
    return _chains(vertices, edges, len(vertices), e - 1), _chains([], edges, 0, e)


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


def _lengths(perm: list[int]) -> set[int]:
    return {len(c) for c in cycles(perm)}


def _depth_lengths(own: set[int], edges: list[tuple[int, int]], e: int) -> set[int]:
    """Cycle lengths of the transported generator at depth ``e``, given those on the model's own vertices.

    The model's vertices map among themselves and the chains among
    themselves, so only the chains, renumbered from 0, are walked.
    """
    return own | _lengths(_chains([], edges, 0, e - 1)) if e > 1 else own


def oracle_splits(m: CurveModel, x: ExtensionSpec) -> bool:
    """True iff the ``x.d``-th power of the transported generator fixes a vertex."""
    _check_codegree(m, x.d)
    vertices, edges = _positions(m)
    return any(x.d % n == 0 for n in _depth_lengths(_lengths(vertices), edges, x.e))


def oracle_table(m: CurveModel, e_max: int) -> dict[tuple[int, int], bool]:
    """:func:`oracle_splits` for every ``d | I`` and ``1 <= e <= e_max``.

    Keys are ``(d, e)`` in sorted order.  One pass over ``m`` serves every
    ``e``: the model's own vertices are walked once, and each ``e`` costs
    only its chains and one cycle walk of them.
    """
    if e_max < 1:
        raise ValueError(f"e_max must be at least 1, got {e_max}")
    depths, (vertices, edges) = range(1, e_max + 1), _positions(m)
    own = _lengths(vertices)
    lengths = [_depth_lengths(own, edges, e) for e in depths]
    return {
        (d, e): any(d % n == 0 for n in lengths[e - 1])
        for d in divisors(m.action.order)
        for e in depths
    }
