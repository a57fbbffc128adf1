"""Seeded mutation fuzz of model files through the CLI.

Constructed model documents get keys or list items dropped and values
replaced by ill-typed or extreme ones; every mutated file then goes through
the commands that read a model.  Each call must return 0, 1 or 2 without
raising and within ``MAX_CALL_S`` seconds, and exit 2 must come with an
``error:`` message.  Unclaimed models with mutated ``components`` entries
go through ``verify --model``, which must fail exactly the cells where the
oracle splits but the index does not divide ``d * e``.  Mutated documents
that still load with unit components must have the index and m-invariant
that the oracle's table gives.
"""

import contextlib
import copy
import io
import json
import math
import random
from functools import reduce
from time import perf_counter

import pytest

from conftest import orbit_sizes
from curveindex.blowup import oracle_table
from curveindex.cli import main
from curveindex.constructions import UNIT, construct
from curveindex.invariants import index, splitting_report
from curveindex.serialize import ModelFormatError, load_model, model_from_obj, model_to_obj

SEED = 4
MUTATIONS = 200
MAX_CALL_S = 1.0  # the slowest call takes about 0.013 s
BASES = [(0, 2), (1, 3), (3, 4), (4, 6)]
LAW_BASES = [(0, 1), (0, 2), (1, 3), (4, 6)]
LAW_MUTATIONS = 60
UNIT_MODELS_LOADED = 6  # of the MUTATIONS documents, those that load with unit components
VALUES = [None, True, 0, -1, 10**30, 1.5, 'a"b\\', "é", [], {}]
COMMANDS = [
    ["index", "{m}"],
    ["splitting", "{m}", "--m-invariant", "--json"],
    ["check", "{m}", "--residue-q", "2"],
    ["oracle", "{m}", "--d", "1", "--e", "2"],
    ["verify", "--e-max", "3", "--model", "{m}"],
]


def mutate(doc, rng):
    """Drop or replace one to three nodes, each reached by a random walk from the root."""
    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(1, 3)):
        parent, key = None, None
        node = doc
        while isinstance(node, (dict, list)) and node and (parent is None or rng.random() < 0.65):
            keys = list(node) if isinstance(node, dict) else range(len(node))
            parent, key = node, rng.choice(keys)
            node = parent[key]
        if parent is None:
            continue
        if rng.random() < 0.3:
            del parent[key]
        else:
            # A fresh copy, or one shared {} or [] could end up inside itself.
            parent[key] = copy.deepcopy(rng.choice(VALUES))
    return doc


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def mutated_docs():
    rng = random.Random(SEED)
    bases = [model_to_obj(construct(g, i)) for g, i in BASES]
    return [mutate(rng.choice(bases), rng) for _ in range(MUTATIONS)]


def test_mutated_models_exit_cleanly(tmp_path, mutated_docs):
    path = tmp_path / "m.json"
    bad = []
    for k, doc in enumerate(mutated_docs):
        path.write_text(json.dumps(doc), encoding="utf-8")
        for argv in COMMANDS:
            argv = [a.format(m=path) for a in argv]
            start = perf_counter()
            try:
                code, _, err = run(argv)
            except BaseException as exc:  # noqa: BLE001 -- any escape is a finding
                bad.append((k, argv[0], repr(exc), doc))
                continue
            elapsed = perf_counter() - start
            if elapsed >= MAX_CALL_S:
                bad.append((k, argv[0], f"took {elapsed:.3f} s", doc))
            if code not in (0, 1, 2) or (code == 2 and not err.startswith("error: ")):
                bad.append((k, argv[0], f"exit {code}: {err!r}", doc))
    assert not bad, f"{len(bad)} bad calls, first: {bad[0]}"


def test_mutated_components_meet_the_index_law(tmp_path):
    rng = random.Random(SEED)
    path = tmp_path / "m.json"
    outcomes = set()
    for _ in range(LAW_MUTATIONS):
        doc = model_to_obj(construct(*rng.choice(LAW_BASES)))
        del doc["claimed"]
        vertices = list(doc["components"])
        for v in rng.sample(vertices, rng.randint(1, len(vertices))):
            doc["components"][v] = {"ns_index": rng.randint(1, 4)}
        path.write_text(json.dumps(doc), encoding="utf-8")
        m = load_model(path)
        orbit = orbit_sizes(m.action)
        index = reduce(math.gcd, (orbit[v] * doc["components"][v]["ns_index"] for v in vertices))
        want = [
            f"index law at (d={d}, e={e}): oracle splits, but index {index} does not divide {d * e}"
            for (d, e), verdict in oracle_table(m, 3).items()
            if verdict and d * e % index
        ]
        code, out, _ = run(["verify", "--e-max", "3", "--json", "--model", str(path)])
        failures = json.loads(out)["cells"][0]["failures"]
        assert [f for f in failures if f.startswith("index law")] == want, doc
        assert code == (1 if failures else 0)
        outcomes.add(bool(want))
    assert outcomes == {True, False}  # the law both holds and fails among the mutations


def test_mutated_models_meet_the_oracle_laws(mutated_docs):
    checked = 0
    for doc in mutated_docs:
        try:
            m = model_from_obj(doc)
        except ModelFormatError:
            continue
        if any(c != UNIT for c in m.components.values()):
            continue
        assert index(m) == math.gcd(*(d * e for (d, e), v in oracle_table(m, 2).items() if v)), doc
        assert splitting_report(m).m_invariant == min(d * e for (d, e), v in oracle_table(m, 6).items() if v), doc
        checked += 1
    assert checked >= UNIT_MODELS_LOADED
