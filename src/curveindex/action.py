"""Cyclic group actions on multigraphs.

An action of the cyclic group of order ``I`` is recorded by the permutations
that a chosen generator induces on vertex and edge identifiers.  The group
has one subgroup per divisor ``d`` of ``I``, generated by the ``d``-th power
of the generator, so subgroups are addressed by that co-degree ``d`` alone.
That power fixes ``x`` iff the length of the generator's cycle through ``x``
divides ``d``: :func:`cycles` is the one walk over a permutation, and each
action caches its cycle lengths.  The module also validates actions and lifts
voltage graphs into derived graphs carrying a vertex-free action (the
workhorse for randomized testing).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

from .multigraph import MultiGraph


class ActionError(ValueError):
    """Invalid action parameters (bad order, bad subgroup degree, ...)."""


def cycles(mapping: Mapping[str, str]) -> list[list[str]]:
    """The cycles of a permutation given as a dict, each from its first key in dict order."""
    seen: set[str] = set()
    out = []
    for x in mapping:
        if x in seen:
            continue
        cycle = [x]
        seen.add(x)
        y = mapping[x]
        while y != x:
            if y in seen or y not in mapping:
                raise ActionError(f"not a permutation: the walk from {x!r} never returns")
            cycle.append(y)
            seen.add(y)
            y = mapping[y]
        out.append(cycle)
    return out


def _cycle_lengths(mapping: Mapping[str, str]) -> dict[str, int]:
    return {x: len(c) for c in cycles(mapping) for x in c}


def map_power(mapping: dict[str, str], k: int) -> dict[str, str]:
    """The ``k``-fold composite of a permutation given as a dict, keys in input order."""
    image = {}
    for c in cycles(mapping):
        shift = k % len(c)
        image.update(zip(c, c[shift:] + c[:shift]))
    return {x: image[x] for x in mapping}


@dataclass(frozen=True)
class CyclicAction:
    """Generator images of a cyclic group acting by graph automorphisms.

    ``order`` is the order of the acting group, not necessarily the exact
    order of the generator permutation (the action may be non-faithful, as
    with a trivial action declared at order 1).  The maps must not change
    after construction: their cycle lengths are cached.
    """

    order: int
    vertex_map: dict[str, str]
    edge_map: dict[str, str]

    @cached_property
    def vertex_orbit(self) -> Mapping[str, int]:
        """Length of the generator's cycle through each vertex: its orbit size."""
        return _cycle_lengths(self.vertex_map)

    @cached_property
    def edge_orbit(self) -> Mapping[str, int]:
        return _cycle_lengths(self.edge_map)

    @cached_property
    def exact_order(self) -> int:
        """Order of the generator: the lcm of all cycle lengths."""
        return math.lcm(*self.vertex_orbit.values(), *self.edge_orbit.values())


@dataclass(frozen=True)
class Violation:
    law: str
    subject: str
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _bijection_violations(mapping: dict[str, str], domain: set[str], law: str) -> list[Violation]:
    out = []
    missing = domain - mapping.keys()
    extra = mapping.keys() - domain
    for x in sorted(missing):
        out.append(Violation(law, x, "no image assigned"))
    for x in sorted(extra):
        out.append(Violation(law, x, "not in the graph"))
    if not missing and not extra:
        image = set(mapping.values())
        for x in sorted(domain - image):
            out.append(Violation(law, x, "never hit: map is not onto"))
    return out


def validate(g: MultiGraph, a: CyclicAction) -> ValidationReport:
    """Check that ``a`` is a genuine order-``I`` action on ``g``.

    Violations are data, not exceptions: the report lists every broken law
    with the offending identifier.
    """
    violations: list[Violation] = []
    if a.order < 1:
        violations.append(Violation("order", "", f"order must be positive, got {a.order}"))
        return ValidationReport(tuple(violations))

    violations += _bijection_violations(a.vertex_map, set(g.vertices), "vertex-bijection")
    violations += _bijection_violations(a.edge_map, set(g.edge_by_id), "edge-bijection")
    if violations:
        return ValidationReport(tuple(violations))

    for e in g.edges:
        image = g.edge_by_id[a.edge_map[e.id]]
        expected = frozenset((a.vertex_map[e.tail], a.vertex_map[e.head]))
        if image.ends != expected:
            violations.append(
                Violation(
                    "compatibility",
                    e.id,
                    f"endpoints {sorted(e.ends)} map to {sorted(expected)} "
                    f"but edge image {image.id!r} joins {sorted(image.ends)}",
                )
            )

    for v in a.vertex_map:
        if a.order % a.vertex_orbit[v]:
            violations.append(Violation("order", v, f"vertex not fixed by the {a.order}-th iterate"))
    for e in a.edge_map:
        if a.order % a.edge_orbit[e]:
            violations.append(Violation("order", e, f"edge not fixed by the {a.order}-th iterate"))
    return ValidationReport(tuple(violations))


def _check_codegree(a: CyclicAction, d: int) -> None:
    if d < 1 or a.order % d != 0:
        raise ActionError(f"subgroup co-degree {d} does not divide the order {a.order}")


def fixed_vertices(g: MultiGraph, a: CyclicAction, d: int) -> set[str]:
    """Vertices fixed by the ``d``-th power of the generator, hence by its whole subgroup."""
    _check_codegree(a, d)
    return {v for v in g.vertices if d % a.vertex_orbit[v] == 0}


def stabilized_edges(g: MultiGraph, a: CyclicAction, d: int) -> set[tuple[str, bool]]:
    """Edges sent to themselves by the ``d``-th power of the generator.

    The boolean records whether that power exchanges the edge's endpoints,
    i.e. moves its tail; it is False for loops and for pointwise-fixed edges.
    """
    _check_codegree(a, d)
    return {
        (e.id, not e.is_loop and d % a.vertex_orbit[e.tail] != 0)
        for e in g.edges
        if d % a.edge_orbit[e.id] == 0
    }


def lift_voltage_graph(
    quotient: MultiGraph, voltages: dict[str, int], order: int
) -> tuple[MultiGraph, CyclicAction]:
    """Derived graph of a voltage assignment ``edge id -> residue mod order``.

    Vertices are ``<vertex>@<j>`` and edges ``<edge>@<j>`` for ``j`` mod
    ``order``; the edge copy at layer ``j`` runs from its tail at layer ``j``
    to its head at layer ``j + voltage``.  The shift ``j -> j+1`` is an
    automorphism acting freely on vertices, and every valid vertex-free
    action arises this way.  Edges without an assigned voltage default to 0.
    The result need not be connected; callers filter.
    """
    if order < 1:
        raise ActionError(f"order must be positive, got {order}")
    unknown = voltages.keys() - quotient.edge_by_id.keys()
    if unknown:
        raise ActionError(f"voltages assigned to unknown edges: {sorted(unknown)}")
    vertices = [f"{v}@{j}" for v in quotient.vertices for j in range(order)]
    edges = []
    for e in quotient.edges:
        volt = voltages.get(e.id, 0) % order
        for j in range(order):
            edges.append((f"{e.id}@{j}", f"{e.tail}@{j}", f"{e.head}@{(j + volt) % order}"))
    vmap = {f"{v}@{j}": f"{v}@{(j + 1) % order}" for v in quotient.vertices for j in range(order)}
    emap = {f"{e.id}@{j}": f"{e.id}@{(j + 1) % order}" for e in quotient.edges for j in range(order)}
    return MultiGraph.build(vertices, edges), CyclicAction(order, vmap, emap)
