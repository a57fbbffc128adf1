"""Index and splitting-field arithmetic read off a curve model.

A finite extension of the base field is abstracted to a pair ``(d, e)``:
``d`` addresses the subgroup through which the residue Galois group acts on
the graph, and ``e`` is the ramification index.  That pair determines
whether the extension splits the curve:

* unramified route: the subgroup fixes a vertex (a whole component, hence
  a smooth rational point on it);
* ramified route: the subgroup stabilizes some edge and ``e`` is even, so
  the chain of components created by ramified base change has a middle one.

The subgroup addressed by ``d`` fixes a vertex or an edge iff the
generator's cycle through it has a length dividing ``d``, so the whole
table is read off the action's cached cycle lengths.  Everything else here
is gcd bookkeeping over the divisor lattice of the acting order.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import repeat
from operator import attrgetter, mul

from .action import ActionError, CyclicAction
from .constructions import UNIT, CurveModel


class Case:
    """Whether ramification ever buys splitting beyond unramified extensions: one of two strings."""

    CASE1 = "Case1"  # unramified extensions tell the whole story
    CASE2 = "Case2"  # some subgroup stabilizes an edge without fixing a vertex


class ExtensionSpec(namedtuple("ExtensionSpec", "d e")):
    """An extension abstracted to (residue co-degree d, ramification index e)."""

    __slots__ = ()

    def __new__(cls, d: int, e: int) -> "ExtensionSpec":
        if d < 1:
            raise ValueError(f"d must be positive, got {d}")
        if e < 1:
            raise ValueError(f"ramification index must be positive, got {e}")
        return super().__new__(cls, d, e)


class SplittingReport(namedtuple("SplittingReport", "index case table m_invariant")):
    """The classifier's verdicts on one model, all read off one table.

    ``table`` maps ``(d, e)`` to whether it splits, for ``d | I`` and ``e``
    in {1, 2}.  ``m_invariant`` is the least degree of a splitting field,
    assuming a finite residue field.  There a residue extension of degree
    ``f`` meets the distinguished cyclic extension in degree ``gcd(f, I)``,
    so the minimum of ``f * e`` over splitting pairs is computable from the
    graph.  The least ``f`` with ``gcd(f, I) = d`` is ``d`` itself, so the
    minimum runs over the table's true cells.
    """

    __slots__ = ()


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
    orbits = map(m.action.vertex_orbit.__getitem__, m.graph.vertices)
    ns = map(attrgetter("ns_index"), map(m.components.get, m.graph.vertices, repeat(UNIT)))
    return math.gcd(*map(mul, orbits, ns))


def _table(a: CyclicAction, ds: list[int]) -> dict[tuple[int, int], bool]:
    """The splitting table's rows ``d`` in ``ds``: the one rule behind :func:`splits` and :func:`splitting_report`.

    ``(d, 1)`` iff some vertex cycle length divides ``d``; ``(d, 2)`` iff some vertex or edge one does.
    """
    vertex, edge = a.cycle_lengths
    table = {}
    for d in ds:
        table[(d, 1)] = fixed = any(d % n == 0 for n in vertex)
        table[(d, 2)] = fixed or any(d % n == 0 for n in edge)
    return table


def splits(m: CurveModel, x: ExtensionSpec) -> bool:
    """Does an extension of type ``x`` give the curve a rational point?

    True iff the subgroup addressed by ``x.d`` fixes a vertex, or stabilizes
    an edge while ``x.e`` is even.  Only the parity of ``x.e`` matters.
    Raises :class:`~curveindex.action.ActionError` if ``x.d`` does not divide
    the acting order.
    """
    if m.action.order % x.d:
        raise ActionError(f"subgroup co-degree {x.d} does not divide the order {m.action.order}")
    return _table(m.action, [x.d])[(x.d, 2 - x.e % 2)]


def case_classification(m: CurveModel) -> str:
    """Case 2 iff some subgroup stabilizes an edge yet fixes no vertex."""
    return splitting_report(m).case


def main_theorem_prediction(genus: int, order: int, x: ExtensionSpec, case: str) -> bool:
    """Closed-form splitting law for the constructed (genus, order) families.

    Case 1: exactly the extensions with ``d == I`` split.  Case 2 (only
    possible for even ``I``): additionally those with ``d == I/2`` and even
    ramification.  Raises ``ValueError`` for a negative genus or an order
    below 1.
    """
    if genus < 0:
        raise ValueError(f"genus must be non-negative, got {genus}")
    if order < 1:
        raise ValueError(f"order must be positive, got {order}")
    if (2 * genus - 2) % order != 0:
        raise ValueError(f"order {order} does not divide 2*genus - 2 = {2 * genus - 2}")
    if order % x.d != 0:
        raise ValueError(f"d = {x.d} does not divide the order {order}")
    if case == Case.CASE1:
        return x.d == order
    if order % 2 != 0:
        raise ValueError(f"Case 2 requires an even order, got {order}")
    return x.d == order or (2 * x.d == order and x.e % 2 == 0)


def splitting_report(m: CurveModel) -> SplittingReport:
    """The (d, e-parity) splitting table, and index, case and m-invariant read off it.

    Row ``d`` reads ``(d, 1)`` false and ``(d, 2)`` true iff its subgroup
    stabilizes an edge but fixes no vertex; ``(I, 1)`` is always true.
    """
    table = _table(m.action, divisors(m.action.order))
    return SplittingReport(
        index=index(m),
        case=Case.CASE2 if any(table[(d, 2)] and not table[(d, 1)] for d, _ in table) else Case.CASE1,
        table=table,
        m_invariant=min(d * e for (d, e), value in table.items() if value),
    )
