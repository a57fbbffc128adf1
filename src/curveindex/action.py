"""Cyclic group actions on multigraphs.

An action of the cyclic group of order ``I`` is recorded by the permutations
that a chosen generator induces on vertex and edge identifiers.  The group
has one subgroup per divisor ``d`` of ``I``, generated by the ``d``-th power
of the generator, so subgroups are addressed by that co-degree ``d`` alone.
That power fixes ``x`` iff the length of the generator's cycle through ``x``
divides ``d``: :func:`cycles` is the one walk over a permutation of names,
and each action caches its cycle lengths, from which every subgroup's fixed
vertices and stabilized edges are read.  The module also validates actions.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Mapping, Set
from functools import cached_property
from itertools import compress
from operator import eq, ne

from .multigraph import MultiGraph


class ActionError(ValueError):
    """Invalid action parameters (bad order, bad subgroup degree, ...)."""


def cycles(mapping: Mapping[str, str]) -> list[list[str]]:
    """The cycles of a permutation given as a dict, each from its first key in order.

    One walk with a test per step: a step onto a seen key, or off the keys,
    names the walk that breaks.  (For string keys, building the set of
    values to test the map whole costs more than the steps' tests save.)
    """
    seen: set = set()
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
    """Length of the cycle through each key: fixed points read off at 1, and only the moved keys walked."""
    lengths = dict.fromkeys(compress(mapping, map(eq, mapping, mapping.values())), 1)
    moved = dict(compress(mapping.items(), map(ne, mapping, mapping.values()))) if lengths else mapping
    lengths.update({x: len(c) for c in cycles(moved) for x in c})
    return lengths


def map_power(mapping: dict[str, str], k: int) -> dict[str, str]:
    """The ``k``-fold composite of a permutation given as a dict, keys in input order."""
    image = {}
    for c in cycles(mapping):
        shift = k % len(c)
        image.update(zip(c, c[shift:] + c[:shift]))
    return {x: image[x] for x in mapping}


class CyclicAction(namedtuple("CyclicAction", "order vertex_map edge_map")):
    """Generator images of a cyclic group acting by graph automorphisms.

    ``order`` is the order of the acting group, not necessarily the exact
    order of the generator permutation (the action may be non-faithful, as
    with a trivial action declared at order 1).  The maps must not change
    after construction: their cycle lengths are cached (in the instance's
    ``__dict__``, which is why the named tuple has no ``__slots__``).
    """

    @cached_property
    def vertex_orbit(self) -> Mapping[str, int]:
        """Length of the generator's cycle through each vertex: its orbit size."""
        return _cycle_lengths(self.vertex_map)

    @cached_property
    def edge_orbit(self) -> Mapping[str, int]:
        return _cycle_lengths(self.edge_map)

    @cached_property
    def cycle_lengths(self) -> tuple[frozenset[int], frozenset[int]]:
        """The distinct lengths of the generator's cycles on vertices, and on edges."""
        return frozenset(self.vertex_orbit.values()), frozenset(self.edge_orbit.values())

    @cached_property
    def exact_order(self) -> int:
        """Order of the generator: the lcm of the distinct cycle lengths."""
        return math.lcm(*frozenset.union(*self.cycle_lengths))


Violation = namedtuple("Violation", "law subject detail")


class ValidationReport(namedtuple("ValidationReport", "violations")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def _bijection_violations(mapping: dict[str, str], domain: Set[str], law: str) -> list[Violation]:
    if mapping.keys() == domain == set(mapping.values()):
        return []
    missing, extra = domain - mapping.keys(), mapping.keys() - domain
    kinds = [(missing, "no image assigned"), (extra, "not in the graph")]
    if not missing and not extra:  # the keys are right, so some key is never hit
        kinds.append((domain - set(mapping.values()), "never hit: map is not onto"))
    return [Violation(law, x, detail) for faults, detail in kinds for x in sorted(faults)]


def validate(g: MultiGraph, a: CyclicAction) -> ValidationReport:
    """Check that ``a`` is a genuine order-``I`` action on ``g``.

    Violations are data, not exceptions: the report lists every broken law
    with the offending identifier.  Each law is tested whole first; only a failed one is itemized.
    """
    violations: list[Violation] = []
    if a.order < 1:
        violations.append(Violation("order", "", f"order must be positive, got {a.order}"))
        return ValidationReport(tuple(violations))

    violations += _bijection_violations(a.vertex_map, g.vertex_set, "vertex-bijection")
    violations += _bijection_violations(a.edge_map, g.edge_by_id.keys(), "edge-bijection")
    if violations:
        return ValidationReport(tuple(violations))

    for e in g.edges:
        image = g.edge_by_id[a.edge_map[e.id]]
        tail, head = a.vertex_map[e.tail], a.vertex_map[e.head]
        if not (image.tail == tail and image.head == head or image.tail == head and image.head == tail):
            expected = frozenset((tail, head))
            violations.append(
                Violation(
                    "compatibility",
                    e.id,
                    f"endpoints {sorted(e.ends)} map to {sorted(expected)} "
                    f"but edge image {image.id!r} joins {sorted(image.ends)}",
                )
            )

    if a.order % a.exact_order:  # some cycle length does not divide the order
        for kind, mapping, orbit in (("vertex", a.vertex_map, a.vertex_orbit), ("edge", a.edge_map, a.edge_orbit)):
            violations += [Violation("order", x, f"{kind} not fixed by the {a.order}-th iterate")
                           for x in mapping if a.order % orbit[x]]
    return ValidationReport(tuple(violations))
