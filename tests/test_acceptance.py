"""Acceptance suite: one test per criterion, zero numeric tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  The grid covers every genus up to 12 and every admissible
acting order (capped at 26 for genus one, where all orders are admissible).
"""

import math
import random
import time
from functools import reduce

import pytest

from conftest import (
    acts_freely_on_edges,
    acts_freely_on_vertices,
    admissible_cells,
    are_isomorphic,
    corrupted_two_cycle_model,
    handcrafted_models,
    random_generating_set,
    random_voltage_models,
)
from curveindex.blowup import oracle_splits
from curveindex.cli import main as cli_main
from curveindex.constructions import (
    as_model,
    cayley_graph,
    check_realizability,
    coathanger_chain,
    construct,
    mobius_ladder,
)
from curveindex.invariants import (
    Case,
    ExtensionSpec,
    case_classification,
    divisors,
    index,
    main_theorem_prediction,
    splits,
)
from curveindex.action import validate
from curveindex.multigraph import (
    MultiGraph,
    arithmetic_genus,
    degree,
    euler_characteristic,
    is_connected,
)
from curveindex.serialize import save_model
from curveindex.verify import expected_case, run_verification

GENUS_MAX = 12
GENUS_ONE_CAP = 26
E_MAX = 6


@pytest.fixture(scope="module")
def grid_models():
    return [construct(g, i) for g, i in admissible_cells(GENUS_MAX, GENUS_ONE_CAP)]


@pytest.fixture(scope="module")
def voltage_models_200():
    return random_voltage_models(200, seed=424242, max_order=12)


def test_criterion_1_main_theorem_exhaustive(grid_models):
    started = time.perf_counter()
    for m in grid_models:
        genus, order = m.claimed
        assert validate(m.graph, m.action).ok, (genus, order)
        assert is_connected(m.graph), (genus, order)
        assert max(m.graph.degrees.values()) <= 3, (genus, order)
        assert arithmetic_genus(m.graph) == genus, (genus, order)
        assert index(m) == order, (genus, order)
        case = expected_case(genus, order)
        assert case is (Case.CASE1 if order % 2 == 1 or genus == 1 else Case.CASE2)
        assert case_classification(m) is case, (genus, order)
        for d in divisors(order):
            for e in (1, 2):
                spec = ExtensionSpec(d, e)
                assert splits(m, spec) == main_theorem_prediction(genus, order, spec, case), (
                    genus, order, d, e,
                )
    # the packaged harness must agree
    report = run_verification(GENUS_MAX, E_MAX, genus_one_cap=GENUS_ONE_CAP)
    assert report.passed and len(report.cells) == len(grid_models)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(
        f"\nACCEPTANCE 1 PASS: classification exact on all {len(grid_models)} "
        f"(genus, order) cells in {elapsed:.2f}s"
    )


def test_criterion_2_oracle_equivalence(grid_models, voltage_models_200):
    started = time.perf_counter()
    checked = 0
    for m in list(grid_models) + list(voltage_models_200):
        for d in divisors(m.action.order):
            for e in range(1, E_MAX + 1):
                spec = ExtensionSpec(d, e)
                assert splits(m, spec) == oracle_splits(m, spec), (m.claimed, d, e)
                checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(
        f"\nACCEPTANCE 2 PASS: classifier == blowup oracle on {checked} cells "
        f"across {len(grid_models) + 200} models in {elapsed:.2f}s"
    )


def test_criterion_3_cayley_property_suite():
    rng = random.Random(314159)
    for _ in range(200):
        gs = random_generating_set(rng, max_order=24)
        graph, action = cayley_graph(gs)
        n_s = len(gs.elements)
        assert 2 * euler_characteristic(graph) == gs.order * (2 - n_s)
        assert all(degree(graph, v) == n_s for v in graph.vertices)
        assert acts_freely_on_vertices(graph, action)
        has_involution = gs.order % 2 == 0 and gs.order // 2 in gs.elements
        assert acts_freely_on_edges(graph, action) == (not has_involution)
    print("\nACCEPTANCE 3 PASS: 200 random Cayley graphs satisfy all stated properties")


def test_criterion_4_named_identifications():
    k33 = MultiGraph.build(
        [f"u{i}" for i in range(3)] + [f"w{i}" for i in range(3)],
        ((f"u{i}w{j}", f"u{i}", f"w{j}") for i in range(3) for j in range(3)),
    )
    k4 = MultiGraph.build(
        [str(i) for i in range(4)],
        ((f"k{i}{j}", str(i), str(j)) for i in range(4) for j in range(i + 1, 4)),
    )
    assert are_isomorphic(mobius_ladder(4)[0], k33)
    assert are_isomorphic(mobius_ladder(3)[0], k4)
    for g in range(2, GENUS_MAX + 1):
        graph, _ = mobius_ladder(g)
        assert (len(graph.vertices), len(graph.edges)) == (2 * g - 2, 3 * g - 3)
    print("\nACCEPTANCE 4 PASS: ladder identifications (K33, K4) and counts for genus 2..12")


def test_criterion_5_parity_and_monotonicity(grid_models, voltage_models_200):
    models = list(grid_models) + list(voltage_models_200) + handcrafted_models()[:3]
    for m in models:
        order = m.action.order
        divs = divisors(order)
        assert splits(m, ExtensionSpec(order, 1)) is True
        for d in divs:
            odd = splits(m, ExtensionSpec(d, 1))
            even = splits(m, ExtensionSpec(d, 2))
            for e in range(1, E_MAX + 1):
                assert splits(m, ExtensionSpec(d, e)) == (even if e % 2 == 0 else odd)
            for d2 in divs:
                if d2 % d == 0:
                    assert not odd or splits(m, ExtensionSpec(d2, 1))
                    assert not even or splits(m, ExtensionSpec(d2, 2))
    print(f"\nACCEPTANCE 5 PASS: parity and divisor-monotonicity on {len(models)} models")


def test_criterion_6_unramified_sufficiency(grid_models):
    for m in grid_models:
        order = m.action.order
        degrees = [
            f
            for f in range(1, 2 * order + 1)
            if splits(m, ExtensionSpec(math.gcd(f, order), 1))
        ]
        assert reduce(math.gcd, degrees) == index(m) == order, m.claimed
    print(
        f"\nACCEPTANCE 6 PASS: unramified splitting degrees have gcd = index on all "
        f"{len(grid_models)} constructed models"
    )


def test_criterion_7_small_residue_field():
    for g in range(GENUS_MAX + 1):
        graph, action = coathanger_chain(g)
        assert check_realizability(as_model(graph, action), 2, "weak").passed, g
    checked = 0
    for g, i in admissible_cells(GENUS_MAX, GENUS_ONE_CAP):
        if i > 1:
            assert check_realizability(construct(g, i), 2, "full").passed, (g, i)
            checked += 1
    print(
        f"\nACCEPTANCE 7 PASS: coathangers pass the weak q=2 check for genus 0..12; "
        f"{checked} rotation models pass the full q=2 check"
    )


def test_criterion_8_negative_control(tmp_path, capsys):
    bad = corrupted_two_cycle_model()
    assert validate(bad.graph, bad.action).ok  # the corruption is a *valid* wrong action
    single_edge = construct(0, 2)
    honest = construct(1, 2)
    spec = ExtensionSpec(1, 2)
    assert splits(honest, spec) is False
    assert splits(bad, spec) is True
    assert splits(bad, spec) == splits(single_edge, spec)

    path = tmp_path / "corrupted.json"
    save_model(bad, path)
    code = cli_main(["verify", "--model", str(path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "case" in out or "prediction" in out
    print(
        "\nACCEPTANCE 8 PASS: corrupted parallel-edge action flips the (d=1, e=2) verdict "
        "and the verifier exits 1"
    )
