import math
from functools import reduce

import pytest

from conftest import flipped_path_model, orbit_sizes, single_edge_swap_model
from curveindex.action import CyclicAction
from curveindex.constructions import Component, CurveModel, as_model, construct, cycle_model
from curveindex.invariants import (
    Case,
    ExtensionSpec,
    case_classification,
    divisors,
    index,
    m_invariant,
    main_theorem_prediction,
    snc_index,
    splits,
    splitting_report,
)
from curveindex.multigraph import MultiGraph


def trivial_model(graph, components=None, claimed=None):
    action = CyclicAction(1, {v: v for v in graph.vertices}, {e.id: e.id for e in graph.edges})
    comps = components or {v: Component() for v in graph.vertices}
    return CurveModel(graph, action, comps, claimed)


def test_divisors():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(22) == [1, 2, 11, 22]
    with pytest.raises(ValueError):
        divisors(0)


def test_extension_spec_validation():
    with pytest.raises(ValueError):
        ExtensionSpec(0, 1)
    with pytest.raises(ValueError):
        ExtensionSpec(1, 0)


# index

def test_index_of_cycles():
    for order in (2, 3, 7, 10):
        graph, action = cycle_model(order)
        assert index(as_model(graph, action)) == order


def test_index_trivial_action():
    graph, _ = cycle_model(5)
    assert index(trivial_model(graph)) == 1


def test_index_construct_7_3():
    m = construct(7, 3)
    sizes = orbit_sizes(m.action, 1)
    assert sorted(sizes.values()) == [3] * 12
    assert index(m) == 3


def test_index_weights_by_ns_index():
    graph = MultiGraph.build(["a"], [])
    m = trivial_model(graph, components={"a": Component(ns_index=2)})
    assert index(m) == 2


def test_index_divides_each_vertex_term(model_pool):
    for m in model_pool:
        sizes = orbit_sizes(m.action, 1)
        value = index(m)
        for v in m.graph.vertices:
            assert (sizes[v] * m.component(v).ns_index) % value == 0


def test_index_divides_subfield_degree_times_subindex(model_pool):
    # index over the base divides d times the index computed under the
    # subgroup addressed by d
    for m in model_pool:
        value = index(m)
        for d in divisors(m.action.order):
            sizes = orbit_sizes(m.action, d)
            sub_value = reduce(
                math.gcd, (sizes[v] * m.component(v).ns_index for v in m.graph.vertices)
            )
            assert (d * sub_value) % value == 0


# snc index

def test_snc_reduces_to_index(model_pool):
    for m in model_pool[:20]:
        assert snc_index(m) == index(m)


def test_snc_coprime_multiplicities():
    graph = MultiGraph.build(["a", "b"], [("e", "a", "b")])
    m = trivial_model(
        graph,
        components={"a": Component(multiplicity=2), "b": Component(multiplicity=3)},
    )
    assert snc_index(m) == 1


def test_snc_single_vertex_multiplicity():
    graph = MultiGraph.build(["a"], [])
    m = trivial_model(graph, components={"a": Component(multiplicity=4)})
    assert snc_index(m) == 4


# splits

def test_splits_cycle_two_not_rescued_by_ramification():
    assert splits(construct(1, 2), ExtensionSpec(1, 2)) is False


def test_splits_single_edge_rescued():
    assert splits(construct(0, 2), ExtensionSpec(1, 2)) is True


def test_splits_k33_model():
    m = construct(4, 6)
    assert splits(m, ExtensionSpec(3, 2)) is True
    assert splits(m, ExtensionSpec(3, 1)) is False
    assert splits(m, ExtensionSpec(2, 2)) is False


def test_trivial_subgroup_always_splits(model_pool):
    for m in model_pool:
        assert splits(m, ExtensionSpec(m.action.order, 1))


def test_splits_rejects_bad_codegree():
    with pytest.raises(ValueError):
        splits(construct(4, 6), ExtensionSpec(4, 1))


def test_splits_depends_on_parity_only(model_pool):
    for m in model_pool:
        for d in divisors(m.action.order):
            base = {1: splits(m, ExtensionSpec(d, 1)), 0: splits(m, ExtensionSpec(d, 2))}
            for e in range(1, 7):
                assert splits(m, ExtensionSpec(d, e)) == base[e % 2]


def test_splits_monotone_in_codegree(model_pool):
    for m in model_pool:
        divs = divisors(m.action.order)
        for d in divs:
            for d2 in divs:
                if d2 % d == 0:
                    for e in (1, 2):
                        if splits(m, ExtensionSpec(d, e)):
                            assert splits(m, ExtensionSpec(d2, e))


def test_unramified_degrees_recover_index(model_pool):
    # gcd of unramified splitting degrees equals the index, and allowing
    # ramification does not change the gcd
    for m in model_pool:
        order = m.action.order
        unramified = [
            f
            for f in range(1, 2 * order + 1)
            if splits(m, ExtensionSpec(math.gcd(f, order), 1))
        ]
        both = [
            f * e
            for f in range(1, 2 * order + 1)
            for e in (1, 2)
            if splits(m, ExtensionSpec(math.gcd(f, order), e))
        ]
        assert reduce(math.gcd, unramified) == index(m)
        assert reduce(math.gcd, both) == index(m)


# case classification

def test_case_two_cycle():
    assert case_classification(construct(1, 2)) is Case.CASE1


def test_case_mobius_full():
    for g in (2, 3, 4, 6):
        assert case_classification(construct(g, 2 * g - 2)) is Case.CASE2


def test_case_odd_orders():
    for g, i in [(4, 3), (7, 3), (6, 5), (8, 7)]:
        assert case_classification(construct(g, i)) is Case.CASE1


# prediction

def test_prediction_examples():
    assert main_theorem_prediction(3, 4, ExtensionSpec(2, 2), Case.CASE2) is True
    assert main_theorem_prediction(3, 4, ExtensionSpec(2, 1), Case.CASE2) is False
    # heavy ramification does not rescue a too-small residue extension in Case 1
    assert main_theorem_prediction(4, 3, ExtensionSpec(1, 6), Case.CASE1) is False
    assert main_theorem_prediction(4, 3, ExtensionSpec(3, 1), Case.CASE1) is True


def test_prediction_rejects_odd_case_two():
    with pytest.raises(ValueError):
        main_theorem_prediction(4, 3, ExtensionSpec(1, 2), Case.CASE2)


def test_prediction_rejects_inadmissible():
    with pytest.raises(ValueError):
        main_theorem_prediction(2, 3, ExtensionSpec(1, 1), Case.CASE1)
    with pytest.raises(ValueError):
        main_theorem_prediction(3, 4, ExtensionSpec(3, 1), Case.CASE2)


# reports

def test_report_cycle_two():
    report = splitting_report(construct(1, 2))
    assert report.index == 2
    assert report.case is Case.CASE1
    assert report.table == {(1, 1): False, (1, 2): False, (2, 1): True, (2, 2): True}
    assert report.m_invariant is None


def test_report_single_edge():
    report = splitting_report(construct(0, 2), include_m_invariant=True)
    assert report.index == 2
    assert report.case is Case.CASE2
    assert report.table == {(1, 1): False, (1, 2): True, (2, 1): True, (2, 2): True}
    assert report.m_invariant == 2


def test_report_k33():
    report = splitting_report(construct(4, 6))
    true_cells = {cell for cell, value in report.table.items() if value}
    assert true_cells == {(6, 1), (6, 2), (3, 2)}


def test_report_invariants(model_pool):
    for m in model_pool[:40]:
        report = splitting_report(m)
        order = m.action.order
        assert report.table[(order, 1)] is True
        for (d, e), value in report.table.items():
            if value and e == 1:
                assert report.table[(d, 2)] is True


# m-invariant

def test_m_invariant_cycle_two():
    assert m_invariant(construct(1, 2)) == 2


def test_m_invariant_k33():
    assert m_invariant(construct(4, 6)) == 6


def test_m_invariant_fixed_vertex():
    assert m_invariant(flipped_path_model()) == 1
    assert m_invariant(construct(3, 1)) == 1


def test_m_invariant_single_edge():
    # quadratic ramified extensions already split it
    assert m_invariant(single_edge_swap_model()) == 2


def test_m_invariant_bounds(model_pool):
    # the least splitting degree is a multiple of the index and is attained
    # by f = order, e = 1 at the latest
    for m in model_pool:
        value = m_invariant(m)
        assert 1 <= value <= m.action.order
        assert value % index(m) == 0
