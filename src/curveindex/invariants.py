"""Index and splitting-field arithmetic read off a curve model.

A finite extension of the base field is abstracted to a pair ``(d, e)``:
``d`` addresses the subgroup through which the residue Galois group acts on
the graph, and ``e`` is the ramification index.  That pair determines
whether the extension splits the curve:

* unramified route: the subgroup fixes a vertex (a whole component, hence
  a smooth rational point on it);
* ramified route: the subgroup stabilizes some edge and ``e`` is even, so
  the chain of components created by ramified base change has a middle one.

Everything else here is gcd bookkeeping over the divisor lattice of the
acting order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import reduce

from .action import fixed_vertices, stabilized_edges
from .constructions import CurveModel


class Case(Enum):
    """Whether ramification ever buys splitting beyond unramified extensions."""

    CASE1 = "Case1"  # unramified extensions tell the whole story
    CASE2 = "Case2"  # some subgroup stabilizes an edge without fixing a vertex


@dataclass(frozen=True)
class ExtensionSpec:
    """An extension abstracted to (residue co-degree d, ramification index e)."""

    d: int
    e: int

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError(f"d must be positive, got {self.d}")
        if self.e < 1:
            raise ValueError(f"ramification index must be positive, got {self.e}")


@dataclass(frozen=True)
class SplittingReport:
    index: int
    case: Case
    table: dict[tuple[int, int], bool]  # (d, e) -> splits, for d | I and e in {1, 2}
    m_invariant: int | None = None


def divisors(n: int) -> list[int]:
    """Positive divisors of ``n`` in increasing order (``n`` positive)."""
    if n < 1:
        raise ValueError(f"divisors of a non-positive integer requested: {n}")
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    large = [n // d for d in reversed(small) if d * d != n]
    return small + large


def index(m: CurveModel) -> int:
    """gcd over components of (orbit size) * (nonsingular index).

    This is the index of the curve the model describes: the unramified
    splitting degrees are exactly the multiples of the per-component terms.
    """
    orbit = m.action.vertex_orbit
    return reduce(math.gcd, (orbit[v] * m.component(v).ns_index for v in m.graph.vertices))


def snc_index(m: CurveModel) -> int:
    """gcd over components of (orbit size) * (multiplicity) * (nonsingular index).

    Extends :func:`index` to models whose components carry multiplicities;
    with unit multiplicities the two agree.
    """
    orbit = m.action.vertex_orbit
    return reduce(
        math.gcd,
        (
            orbit[v] * m.component(v).multiplicity * m.component(v).ns_index
            for v in m.graph.vertices
        ),
    )


def splits(m: CurveModel, x: ExtensionSpec) -> bool:
    """Does an extension of type ``x`` give the curve a rational point?

    True iff the subgroup addressed by ``x.d`` fixes a vertex, or stabilizes
    an edge while ``x.e`` is even.  Only the parity of ``x.e`` matters.
    """
    if m.action.order % x.d != 0:
        raise ValueError(f"d = {x.d} does not divide the acting order {m.action.order}")
    if fixed_vertices(m.graph, m.action, x.d):
        return True
    return x.e % 2 == 0 and bool(stabilized_edges(m.graph, m.action, x.d))


def case_classification(m: CurveModel) -> Case:
    """Case 2 iff some subgroup stabilizes an edge yet fixes no vertex."""
    for d in divisors(m.action.order):
        if not fixed_vertices(m.graph, m.action, d) and stabilized_edges(m.graph, m.action, d):
            return Case.CASE2
    return Case.CASE1


def main_theorem_prediction(genus: int, order: int, x: ExtensionSpec, case: Case) -> bool:
    """Closed-form splitting law for the constructed (genus, order) families.

    Case 1: exactly the extensions with ``d == I`` split.  Case 2 (only
    possible for even ``I``): additionally those with ``d == I/2`` and even
    ramification.
    """
    if (2 * genus - 2) % order != 0:
        raise ValueError(f"order {order} does not divide 2*genus - 2 = {2 * genus - 2}")
    if order % x.d != 0:
        raise ValueError(f"d = {x.d} does not divide the order {order}")
    if case is Case.CASE1:
        return x.d == order
    if order % 2 != 0:
        raise ValueError(f"Case 2 requires an even order, got {order}")
    return x.d == order or (2 * x.d == order and x.e % 2 == 0)


def m_invariant(m: CurveModel) -> int:
    """Least degree of a splitting field, assuming a finite residue field.

    Over a finite residue field a residue extension of degree ``f`` meets
    the distinguished cyclic extension in degree ``gcd(f, I)``, so the
    minimum of ``f * e`` over splitting pairs is computable from the graph.
    The least ``f`` with ``gcd(f, I) = d`` is ``d`` itself, so the minimum
    runs over the divisors of ``I``.
    """
    return min(
        d * e for d in divisors(m.action.order) for e in (1, 2) if splits(m, ExtensionSpec(d, e))
    )


def splitting_report(m: CurveModel, include_m_invariant: bool = False) -> SplittingReport:
    """Index, case, and the full (d, e-parity) splitting table."""
    order = m.action.order
    table = {
        (d, e): splits(m, ExtensionSpec(d, e))
        for d in divisors(order)
        for e in (1, 2)
    }
    return SplittingReport(
        index=index(m),
        case=case_classification(m),
        table=table,
        m_invariant=m_invariant(m) if include_m_invariant else None,
    )
