"""Brute-force splitting oracle via simulated ramified base change.

Pulling a model up a ramified extension of index ``e`` turns every node into
a chain of ``e - 1`` fresh components; combinatorially that is edge
subdivision (:func:`~curveindex.multigraph.subdivide`).  The group action
follows along: a chain maps onto the image edge's chain, position-preserving
when the edge image keeps its stored orientation and position-reversing
otherwise.  The curve then has a rational point over an extension of type
``(d, e)`` iff the ``d``-th power of the transported generator fixes a vertex
of the subdivided graph, that is, iff the length of the generator's cycle
through some vertex divides ``d``.

One walk, :func:`_verdicts`, answers every cell.  The generator is carried
onto positions (those of ``subdivide``'s vertex tuple), so no graph is built
and nothing is named.  The model's own vertices map among themselves at
every depth, so their cycles are walked once, and a ``d`` whose power fixes
one of them is settled at every depth.  Only if some requested ``d`` is not
are the edge positions laid out; each requested depth ``e > 1`` then lays out
only its chains, column by column, which also map among themselves, and
walks their cycles once.  Each walk, :func:`_lengths`, keeps only the
distinct cycle lengths and builds no cycle; a list that is no permutation is
handed to :func:`~curveindex.action.cycles` only to name the walk that
breaks.  So the oracle shares no logic with the classifier in
:mod:`curveindex.invariants`, and their agreement is evidence.
"""

from __future__ import annotations

from collections.abc import Sequence
from operator import add

from .action import cycles
from .constructions import CurveModel
from .invariants import ExtensionSpec, divisors


def _vertex_positions(m: CurveModel) -> list[int]:
    """Each vertex's image position."""
    vertices, gen_v = m.graph.vertices, m.action.vertex_map
    vertex_at = {v: i for i, v in enumerate(vertices)}
    return [vertex_at[gen_v[v]] for v in vertices]


def _edge_positions(m: CurveModel) -> list[tuple[int, int]]:
    """Each edge's image position, with step ``-1`` if the image runs against its orientation."""
    g, gen_v = m.graph, m.action.vertex_map
    edge_at = {edge.id: k for k, edge in enumerate(g.edges)}
    images = [edge_at[m.action.edge_map[edge.id]] for edge in g.edges]
    steps = [1 if gen_v[edge.tail] == g.edges[j].tail else -1 for edge, j in zip(g.edges, images)]
    return list(zip(images, steps))


def _chains(edges: list[tuple[int, int]], width: int) -> list[int]:
    """Each edge's chain of ``width`` positions, numbered from 0.

    With ``width = e - 1``, and offset by ``|V|`` after the model's vertex
    images, this is the transported generator on the vertex tuple of
    ``subdivide(m.graph, e)``, which puts edge ``k``'s chain at positions
    ``|V| + k(e-1) ...`` from its tail.  It is laid out a column at a time:
    column ``i`` holds the image of every edge's ``i``-th position, the image
    edge's ``i``-th position from its tail, or from its head for step ``-1``.
    """
    steps = [step for _, step in edges]
    column = [j * width if step == 1 else (j + 1) * width - 1 for j, step in edges]
    perm = [0] * (len(edges) * width)
    for i in range(width):
        if i:
            column = list(map(add, column, steps))
        perm[i::width] = column
    return perm


def _lengths(perm: list[int]) -> set[int]:
    """The distinct cycle lengths of ``perm``, whose entries must all lie in ``range(len(perm))``.

    The oracle's lists meet that by construction (their entries are
    positions), so the one way such a list can fail to be a permutation is a
    repeated entry.  Each walk runs to a seen mark, which in a permutation is
    its own start; a walk that closes anywhere else hands the list to
    :func:`~curveindex.action.cycles`, which names the walk that never returns.
    """
    seen = [False] * len(perm)
    lengths = set()
    for x in range(len(perm)):
        if seen[x]:
            continue
        n, y = 0, x
        while not seen[y]:
            seen[y] = True
            y = perm[y]
            n += 1
        if y != x:
            cycles(dict(enumerate(perm)))  # raises: a list with a repeated entry is no permutation
        lengths.add(n)
    return lengths


def _verdicts(m: CurveModel, ds: Sequence[int], depths: Sequence[int]) -> dict[tuple[int, int], bool]:
    """Whether the ``d``-th power fixes a position at depth ``e``, for ``d`` in ``ds`` and ``e`` in ``depths``."""
    own = _lengths(_vertex_positions(m))
    settled = {d: any(d % n == 0 for n in own) for d in ds}
    chains = {}
    if not all(settled.values()):
        edges = _edge_positions(m)
        chains = {e: _lengths(_chains(edges, e - 1)) for e in depths if e > 1}
    return {(d, e): settled[d] or any(d % n == 0 for n in chains.get(e, ())) for d in ds for e in depths}


def oracle_splits(m: CurveModel, x: ExtensionSpec) -> bool:
    """True iff the ``x.d``-th power of the transported generator fixes a vertex at depth ``x.e``."""
    if m.action.order % x.d != 0:
        raise ValueError(f"d = {x.d} does not divide the acting order {m.action.order}")
    return _verdicts(m, (x.d,), (x.e,))[x.d, x.e]


def oracle_table(m: CurveModel, e_max: int) -> dict[tuple[int, int], bool]:
    """:func:`oracle_splits` for every ``d | I`` and ``1 <= e <= e_max``, keyed ``(d, e)`` in sorted order."""
    if e_max < 1:
        raise ValueError(f"e_max must be at least 1, got {e_max}")
    return _verdicts(m, divisors(m.action.order), range(1, e_max + 1))
