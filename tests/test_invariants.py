import math
import random
from collections import Counter
from functools import reduce

import pytest

from conftest import (
    admissible_cells,
    antipodal_cube_model,
    circulant_model,
    flipped_path_model,
    handcrafted_models,
    naive_power,
    orbit_sizes,
    prism_model,
    single_edge_swap_model,
)
from curveindex.action import CyclicAction, validate
from curveindex.blowup import oracle_table
from curveindex.constructions import UNIT, Component, CurveModel, as_model, construct, cycle_model
from curveindex.invariants import (
    Case,
    ExtensionSpec,
    case_classification,
    divisors,
    index,
    main_theorem_prediction,
    splits,
    splitting_report,
)
from curveindex.multigraph import MultiGraph, arithmetic_genus


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
            assert (sizes[v] * m.components.get(v, UNIT).ns_index) % value == 0


def test_index_divides_subfield_degree_times_subindex(model_pool):
    # index over the base divides d times the index computed under the
    # subgroup addressed by d
    for m in model_pool:
        value = index(m)
        for d in divisors(m.action.order):
            sizes = orbit_sizes(m.action, d)
            sub_value = reduce(
                math.gcd, (sizes[v] * m.components.get(v, UNIT).ns_index for v in m.graph.vertices)
            )
            assert (d * sub_value) % value == 0


def test_index_divides_two_genus_minus_two(model_pool):
    # with every nonsingular index 1, the index divides the degree 2g - 2 of the canonical class
    rng = random.Random(6)
    circulants = [circulant_model(24, 1, rng), circulant_model(30, 2, rng), circulant_model(36, 3, rng)]
    grid = [construct(g, i) for g, i in admissible_cells(12)]
    checked = 0
    for m in list(model_pool) + grid + circulants:
        if all(m.components.get(v, UNIT).ns_index == 1 for v in m.graph.vertices):
            assert (2 * arithmetic_genus(m.graph) - 2) % index(m) == 0, (m.claimed, index(m))
            checked += 1
    assert checked >= len(grid) + len(circulants)


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


def test_splits_answers_each_cell_as_the_report_table(model_pool):
    # splits reads the action's cached cycle lengths, so cell-by-cell answers must match one whole table
    for m in [construct(1001, 400), *model_pool]:
        table = splitting_report(m).table
        assert {(d, e): splits(m, ExtensionSpec(d, e)) for d, e in table} == table


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
    with pytest.raises(ValueError, match="^order must be positive, got 0$"):
        main_theorem_prediction(4, 0, ExtensionSpec(1, 1), Case.CASE2)
    with pytest.raises(ValueError, match="^order must be positive, got -6$"):
        main_theorem_prediction(4, -6, ExtensionSpec(1, 1), Case.CASE2)
    with pytest.raises(ValueError, match="^genus must be non-negative, got -3$"):
        main_theorem_prediction(-3, 2, ExtensionSpec(1, 1), Case.CASE2)


# reports

def test_report_cycle_two():
    report = splitting_report(construct(1, 2))
    assert report.index == 2
    assert report.case is Case.CASE1
    assert report.table == {(1, 1): False, (1, 2): False, (2, 1): True, (2, 2): True}
    assert report.m_invariant == 2


def test_report_single_edge():
    report = splitting_report(construct(0, 2))
    assert report.index == 2
    assert report.case is Case.CASE2
    assert report.table == {(1, 1): False, (1, 2): True, (2, 1): True, (2, 2): True}
    assert report.m_invariant == 2


def test_report_k33():
    report = splitting_report(construct(4, 6))
    true_cells = {cell for cell, value in report.table.items() if value}
    assert true_cells == {(6, 1), (6, 2), (3, 2)}


def test_table_matches_powers(model_pool):
    # (d, 1) iff the d-th power fixes a vertex; (d, 2) iff it fixes a vertex or an edge
    for m in model_pool:
        naive = {}
        for d in divisors(m.action.order):
            gen_v, gen_e = naive_power(m.action.vertex_map, d), naive_power(m.action.edge_map, d)
            naive[(d, 1)] = any(gen_v[v] == v for v in gen_v)
            naive[(d, 2)] = naive[(d, 1)] or any(gen_e[e] == e for e in gen_e)
        assert splitting_report(m).table == naive


def test_index_and_m_invariant_read_off_the_oracle(model_pool):
    # on unit components: the index is the gcd, and the m-invariant the least, of d * e over the oracle's true cells
    rng = random.Random(6)
    circulants = [circulant_model(24, 1, rng), circulant_model(30, 2, rng), circulant_model(36, 3, rng)]
    grid = [construct(g, i) for g, i in admissible_cells(12)]
    checked = 0
    for m in list(model_pool) + grid + circulants:
        if all(m.components.get(v, UNIT).ns_index == 1 for v in m.graph.vertices):
            degrees = [d * e for (d, e), value in oracle_table(m, 2).items() if value]
            assert index(m) == reduce(math.gcd, degrees), m.claimed
            report = splitting_report(m)
            assert report.m_invariant == min(d * e for (d, e), value in oracle_table(m, 6).items() if value), m.claimed
            checked += 1
    assert checked >= len(model_pool) + len(grid) + len(circulants)


def test_case_law_on_free_actions(model_pool):
    # A free vertex action of Z/I has edge orbits of size I, or of size I/2 with their edges flipped;
    # so g - 1 = I(b - a) + (I/2)c, Case 1 (c = 0) forces I | g - 1, Case 2 needs I even, and the
    # closed-form prediction holds with the computed case.
    candidates = list(model_pool) + handcrafted_models()
    candidates += [prism_model(n, s) for n, s in ((2, 1), (4, 1), (6, 1), (6, 2))] + [antipodal_cube_model()]
    free = [
        m for m in candidates
        if set(m.action.vertex_orbit.values()) == {m.action.order}
        and all(m.components.get(v, UNIT) == UNIT for v in m.graph.vertices)
    ]
    cases = set()
    for m in free:
        order, genus = m.action.order, arithmetic_genus(m.graph)
        report = splitting_report(m)
        edge_lengths = Counter(m.action.edge_orbit.values())
        assert set(edge_lengths) <= {order, order // 2}, m.claimed
        a, b, c = len(m.graph.vertices) // order, edge_lengths[order] // order, 2 * edge_lengths[order // 2] // order
        assert genus - 1 == order * (b - a) + (order // 2) * c, m.claimed
        if report.case is Case.CASE1:
            assert c == 0 and (genus - 1) % order == 0, m.claimed
        else:
            assert c > 0 and order % 2 == 0, m.claimed
        assert report.table == {
            (d, e): main_theorem_prediction(genus, order, ExtensionSpec(d, e), report.case) for d, e in report.table
        }
        assert oracle_table(m, 8) == {(d, e): report.table[(d, 2 - e % 2)] for d in divisors(order) for e in range(1, 9)}
        cases.add(report.case)
    assert cases == {Case.CASE1, Case.CASE2} and len(free) >= 100


def cycle_symmetries(n):
    """Every rotation and reflection of the ``n``-cycle, keyed ``(kind, shift)``, each at its exact order."""
    graph = MultiGraph.build(map(str, range(n)), [(f"c{i}", str(i), str((i + 1) % n)) for i in range(n)])
    maps = {}
    for s in range(n):
        maps["rotation", s] = ({str(i): str((i + s) % n) for i in range(n)},
                               {f"c{i}": f"c{(i + s) % n}" for i in range(n)})
        maps["reflection", s] = ({str(i): str((s - i) % n) for i in range(n)},
                                 {f"c{i}": f"c{(s - i - 1) % n}" for i in range(n)})
    return {key: as_model(graph, CyclicAction(CyclicAction(1, *pair).exact_order, *pair)) for key, pair in maps.items()}


def pendant_swap_model():
    """The 2-cycle with both edges flipped, and three leaves on each vertex turned in one 6-cycle."""
    leaves = [f"{side}{k}" for k in range(3) for side in "ab"]
    hub = {leaf: "0" if leaf[0] == "a" else "1" for leaf in leaves}
    turn = dict(zip(leaves, leaves[1:] + leaves[:1]))
    edges = [("c0", "0", "1"), ("c1", "1", "0")] + [(f"p{x}", hub[x], x) for x in leaves]
    graph = MultiGraph.build(["0", "1", *leaves], edges)
    emap = {"c0": "c0", "c1": "c1", **{f"p{x}": f"p{turn[x]}" for x in leaves}}
    return as_model(graph, CyclicAction(6, {"0": "1", "1": "0", **turn}, emap))


def test_case_two_at_genus_one_needs_order_two(model_pool):
    # On a cycle the generator is a rotation or a reflection; a power that stabilizes an edge and fixes no
    # vertex flips it, so it is a reflection through no vertex, and the generator is that reflection.
    models = {(n, *key): m for n in range(1, 13) for key, m in cycle_symmetries(n).items()}
    models.update({("pool", k): m for k, m in enumerate(model_pool) if arithmetic_genus(m.graph) == 1})
    case_two = set()
    for key, m in models.items():
        assert validate(m.graph, m.action).ok and arithmetic_genus(m.graph) == 1, key
        if splitting_report(m).case is Case.CASE2:
            assert m.action.order == 2, key
            case_two.add(key)
        classifier = {(d, e): splits(m, ExtensionSpec(d, e)) for d in divisors(m.action.order) for e in range(1, 7)}
        assert oracle_table(m, 6) == classifier, key
    # exactly the reflections of an even cycle through no vertex, which flip two edges
    assert case_two == {(n, "reflection", s) for n in range(2, 13, 2) for s in range(1, n, 2)}
    assert sum(key[0] == "pool" for key in models) >= 20
    # Trees hung on the cycle may turn with a longer period than the reflection's: here the order is 6 and
    # the square fixes both cycle vertices, so the claim needs a free vertex action.
    m = pendant_swap_model()
    assert validate(m.graph, m.action).ok and arithmetic_genus(m.graph) == 1 and m.action.exact_order == 6
    assert splitting_report(m).case is Case.CASE2 and m.action.vertex_orbit["0"] == 2
    assert oracle_table(m, 6) == {(d, e): splits(m, ExtensionSpec(d, e)) for d in (1, 2, 3, 6) for e in range(1, 7)}


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
    assert splitting_report(construct(1, 2)).m_invariant == 2


def test_m_invariant_k33():
    assert splitting_report(construct(4, 6)).m_invariant == 6


def test_m_invariant_fixed_vertex():
    assert splitting_report(flipped_path_model()).m_invariant == 1
    assert splitting_report(construct(3, 1)).m_invariant == 1


def test_m_invariant_single_edge():
    # quadratic ramified extensions already split it
    assert splitting_report(single_edge_swap_model()).m_invariant == 2


def test_m_invariant_bounds(model_pool):
    # the least splitting degree is a multiple of the index and is attained
    # by f = order, e = 1 at the latest
    for m in model_pool:
        value = splitting_report(m).m_invariant
        assert 1 <= value <= m.action.order
        assert value % index(m) == 0
