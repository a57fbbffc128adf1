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
onto positions: the model's vertices in ``subdivide``'s order, then the chain
positions numbered column-major (:func:`_blocks`), a relabelling of the rest
of ``subdivide``'s vertex tuple.  So no graph is built and nothing is named.
The model's own vertices map among themselves at every depth, so their
cycles are walked once, and a ``d`` whose power fixes one of them is settled
at every depth.  Only if some requested ``d`` is not are the edge positions
laid out, once per call, as blocks that do not depend on the depth; each
requested depth ``e > 1`` then concatenates its chains from those blocks
(:func:`_chains`), which also map among themselves, and walks their cycles
once.  Each walk, :func:`_lengths`, keeps only the distinct cycle lengths and
builds no cycle.  So the oracle shares no logic with the classifier in
:mod:`curveindex.invariants`, and their agreement is evidence.
"""

from __future__ import annotations

from collections.abc import Sequence

from .action import ActionError
from .constructions import CurveModel
from .invariants import ExtensionSpec, divisors

# Most cells in a table, and chain positions summed over its depths, one oracle call builds.
# At the limit a call takes about a second and at most about 150 MB (Python 3.11, x86-64).
MAX_WORK = 10**6


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


def _blocks(edges: list[tuple[int, int]], top: int) -> tuple[list[list[int]], list[list[int]]]:
    """The blocks of every chain permutation of width at most ``top``, built once per call.

    Chain positions are numbered column-major: rank the edges with step
    ``+1`` first and then those with step ``-1``, each group in edge order;
    position ``i * |E| + rank(k)`` is edge ``k``'s ``i``-th position from its
    tail.  This only relabels the chain positions of ``subdivide``'s vertex
    tuple, where that position sits at ``|V| + k(e-1) + i``.  ``fwd[t]``
    holds the ranked images of the forward edges plus ``t * |E|``, and
    ``back[t]`` the same for the backward edges; neither depends on the width.
    """
    k = len(edges)
    ranked = [j for j, (_, step) in enumerate(edges) if step == 1]
    f = len(ranked)
    ranked += [j for j, (_, step) in enumerate(edges) if step == -1]
    rank = sorted(range(k), key=ranked.__getitem__)  # the inverse of ranked
    images = [rank[edges[j][0]] for j in ranked]
    fwd0, back0, offsets = images[:f], images[f:], [t * k for t in range(top)]
    return [[x + t for x in fwd0] for t in offsets], [[x + t for x in back0] for t in offsets]


def _chains(blocks: tuple[list[list[int]], list[list[int]]], width: int) -> list[int]:
    """Every edge's chain of ``width`` positions, numbered from 0 as in :func:`_blocks`.

    Column ``i`` holds the image of every edge's ``i``-th position: the image
    edge's ``i``-th position from its tail, or from its head for step ``-1``.
    Forward edges find theirs in ``fwd[i]`` and backward ones in
    ``back[width - 1 - i]``, so the permutation is a concatenation of blocks.
    """
    fwd, back = blocks
    perm = []
    for i in range(width):
        perm += fwd[i]
        perm += back[width - 1 - i]
    return perm


def _lengths(perm: list[int]) -> set[int]:
    """The distinct cycle lengths of ``perm``, whose entries must all lie in ``range(len(perm))``.

    The oracle's lists meet that by construction (their entries are
    positions), so the one way such a list can fail to be a permutation is a
    repeated entry.  Each walk runs to a seen mark, which in a permutation is
    its own start; a walk that closes anywhere else never returns, and the
    error names its start as :func:`~curveindex.action.cycles` would.
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
            raise ActionError(f"not a permutation: the walk from {x} never returns")
        lengths.add(n)
    return lengths


def _verdicts(m: CurveModel, ds: Sequence[int], depths: range) -> dict[tuple[int, int], bool]:
    """Whether the ``d``-th power fixes a position at depth ``e``, for ``d`` in ``ds`` and ``e`` in ``depths``.

    A table or chain layout past :data:`MAX_WORK` is refused before it is built.
    """
    if len(ds) * len(depths) > MAX_WORK:
        raise ValueError(f"the oracle table would hold {len(ds) * len(depths)} cells; the limit is {MAX_WORK}")
    own = _lengths(_vertex_positions(m))
    settled = {d: any(d % n == 0 for n in own) for d in ds}
    chains = {}
    if not all(settled.values()):
        # depth e lays out e - 1 positions per edge, summed over a run of depths from its ends
        positions = len(depths) * (depths[0] + depths[-1] - 2) // 2 * len(m.graph.edges)
        if positions > MAX_WORK:
            raise ValueError(f"the oracle's chains would hold {positions} positions; the limit is {MAX_WORK}")
        blocks = _blocks(_edge_positions(m), depths[-1] - 1)
        chains = {e: _lengths(_chains(blocks, e - 1)) for e in depths if e > 1}
    return {(d, e): settled[d] or any(d % n == 0 for n in chains.get(e, ())) for d in ds for e in depths}


def oracle_splits(m: CurveModel, x: ExtensionSpec) -> bool:
    """True iff the ``x.d``-th power of the transported generator fixes a vertex at depth ``x.e``."""
    if m.action.order % x.d != 0:
        raise ValueError(f"d = {x.d} does not divide the acting order {m.action.order}")
    return _verdicts(m, (x.d,), range(x.e, x.e + 1))[x.d, x.e]


def oracle_table(m: CurveModel, e_max: int) -> dict[tuple[int, int], bool]:
    """:func:`oracle_splits` for every ``d | I`` and ``1 <= e <= e_max``, keyed ``(d, e)`` in sorted order."""
    if e_max < 1:
        raise ValueError(f"e_max must be at least 1, got {e_max}")
    return _verdicts(m, divisors(m.action.order), range(1, e_max + 1))
