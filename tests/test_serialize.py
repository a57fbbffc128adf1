import copy
import json
import math
import random
import re
import tracemalloc

import pytest

from conftest import (
    admissible_cells,
    circulant_model,
    corrupted_two_cycle_model,
    handcrafted_models,
    naive_dumps_model,
    naive_from_json_obj,
    random_voltage_models,
    weighted_model,
)
from curveindex import serialize
from curveindex.action import CyclicAction
from curveindex.cli import main
from curveindex.constructions import (
    MAX_VERTICES,
    UNIT,
    Component,
    CurveModel,
    as_model,
    construct,
    cycle_model,
    mobius_ladder,
    vertex_count,
)
from curveindex.invariants import index, splitting_report
from curveindex.multigraph import Edge, GraphError, MultiGraph
from curveindex.serialize import (
    MAX_DECODE_ITEMS,
    MAX_ORDER,
    ModelFormatError,
    dumps_model,
    graph_from_obj,
    load_model,
    model_from_obj,
    model_to_obj,
    save_model,
)
from curveindex.verify import check_model


def test_roundtrip_is_identifier_exact(constructed_models):
    for m in constructed_models:
        assert model_from_obj(model_to_obj(m)) == m


def test_roundtrip_through_file(tmp_path):
    m = construct(4, 6)
    path = tmp_path / "model.json"
    save_model(m, path)
    assert load_model(path) == m


def test_corrupted_model_still_parses(tmp_path):
    # a valid-but-wrong action must load fine; catching it is the verifier's job
    m = corrupted_two_cycle_model()
    path = tmp_path / "bad.json"
    save_model(m, path)
    assert load_model(path) == m


def test_components_default_when_missing():
    obj = model_to_obj(construct(1, 3))
    obj["components"] = {"0": {"ns_index": 2}}
    m = model_from_obj(obj)
    assert m.components.get("0", UNIT) == Component(ns_index=2, multiplicity=1)
    assert m.components.get("1", UNIT) == Component()


def test_unit_components_are_shared(tmp_path, monkeypatch):
    built = []
    new = Component.__new__
    monkeypatch.setattr(Component, "__new__", lambda cls, *args: built.append(args) or new(cls, *args))
    path = tmp_path / "model.json"
    save_model(construct(101, 200), path)
    assert all(entry == {"ns_index": 1, "multiplicity": 1} for entry in json.loads(path.read_text())["components"].values())
    m = load_model(path)
    assert built == []
    assert index(m) == 200 and splitting_report(m).index == 200
    assert built == []


def test_connectivity_is_searched_once_per_graph(tmp_path, monkeypatch):
    searched = []
    search = MultiGraph.connected.func
    monkeypatch.setattr(MultiGraph.connected, "func", lambda g: searched.append(g) or search(g))
    path = tmp_path / "model.json"
    save_model(construct(4, 6), path)
    m = load_model(path)
    assert check_model(m, residue_cardinalities=(math.inf, 3)).passed
    assert len(searched) == 1 and searched[0] is m.graph


def test_reads_at_most_the_limit_plus_one_byte(tmp_path, monkeypatch):
    path = tmp_path / "m.json"
    save_model(construct(4, 6), path)
    size = path.stat().st_size
    monkeypatch.setattr(serialize, "MAX_FILE_BYTES", size)
    assert load_model(path) == construct(4, 6)
    monkeypatch.setattr(serialize, "MAX_FILE_BYTES", size - 1)
    with pytest.raises(ModelFormatError, match=re.escape(f"{path}: larger than {size - 1} bytes")):
        load_model(path)
    # a device reports no size, and never ends
    with pytest.raises(ModelFormatError, match=re.escape(f"/dev/zero: larger than {size - 1} bytes")):
        load_model("/dev/zero")


def brackets_and_commas(data: bytes) -> int:
    return sum(map(data.count, (b"{", b"[", b",")))


def test_counts_brackets_and_commas_before_decoding(tmp_path, monkeypatch):
    path = tmp_path / "m.json"
    save_model(construct(4, 6), path)
    count = brackets_and_commas(path.read_bytes())
    monkeypatch.setattr(serialize, "MAX_DECODE_ITEMS", count)
    assert load_model(path) == construct(4, 6)
    monkeypatch.setattr(serialize, "MAX_DECODE_ITEMS", count - 1)
    decoded, loads = [], json.loads
    monkeypatch.setattr(json, "loads", lambda *a, **k: decoded.append(a) or loads(*a, **k))
    with pytest.raises(ModelFormatError, match=re.escape(f"{path}: more than {count - 1} of '{{', '[' and ',' in all")):
        load_model(path)
    assert decoded == []


def test_every_file_construct_writes_fits_the_decode_budget():
    # A file holds at most 15 of '{', '[' and ',' per vertex, plus 11; the Moebius ladders reach that.
    for g, i in admissible_cells(12) + [(1, 1000), (101, 200), (1001, 1)]:
        assert brackets_and_commas(dumps_model(construct(g, i)).encode()) <= 15 * vertex_count(g, i) + 11
    assert brackets_and_commas(dumps_model(construct(101, 200)).encode()) == 15 * 200 + 11
    assert 15 * MAX_VERTICES + 11 < MAX_DECODE_ITEMS


def test_claimed_is_optional():
    obj = model_to_obj(construct(1, 3))
    del obj["claimed"]
    assert model_from_obj(obj).claimed is None


def test_rejects_unreadable_and_invalid_json(tmp_path, capsys):
    with pytest.raises(ModelFormatError, match="cannot read"):
        load_model(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ModelFormatError, match="not valid JSON"):
        load_model(bad)
    bad.write_bytes('{"graph": "é"}'.encode("latin-1"))
    reason = "'utf-8' codec can't decode byte 0xe9 in position 11: invalid continuation byte"
    with pytest.raises(ModelFormatError, match=re.escape(f"{bad}: not UTF-8: {reason}")):
        load_model(bad)
    for text in ("[]", "3", '"x"', "null"):
        bad.write_text(text, encoding="utf-8")
        with pytest.raises(ModelFormatError, match="model must be a JSON object"):
            load_model(bad)
        assert main(["index", str(bad)]) == 2
        assert capsys.readouterr().err == f"error: {bad}: model must be a JSON object\n"


def test_rejects_incompatible_action():
    obj = model_to_obj(construct(1, 3))
    obj["action"]["edge_map"]["c0"] = "c2"  # lands on a non-incident edge
    with pytest.raises(ModelFormatError, match="validation"):
        model_from_obj(obj)


def test_rejects_disconnected_graph():
    obj = {
        "graph": {"vertices": [{"id": "a"}, {"id": "b"}], "edges": []},
        "action": {"order": 1, "vertex_map": {"a": "a", "b": "b"}, "edge_map": {}},
    }
    with pytest.raises(ModelFormatError, match="connected"):
        model_from_obj(obj)


def test_rejects_unknown_component_vertex():
    obj = model_to_obj(construct(1, 3))
    obj["components"]["zz"] = {"ns_index": 1}
    with pytest.raises(ModelFormatError, match="unknown vertex"):
        model_from_obj(obj)


def test_rejects_nonpositive_component_data():
    obj = model_to_obj(construct(1, 3))
    obj["components"]["0"] = {"ns_index": 0}
    with pytest.raises(ModelFormatError):
        model_from_obj(obj)


def test_rejects_bad_claimed():
    obj = model_to_obj(construct(1, 3))
    obj["claimed"] = {"genus": -1, "index": 3}
    with pytest.raises(ModelFormatError, match="claimed"):
        model_from_obj(obj)


def test_section_errors_come_before_action_law_errors():
    # the sections are read before the built model is validated, and the laws before connectivity
    obj = model_to_obj(construct(1, 3))
    obj["action"]["edge_map"]["c0"] = "c2"
    obj["components"]["zz"] = {"ns_index": 1}
    obj["claimed"] = {"genus": -1, "index": 3}
    with pytest.raises(ModelFormatError, match=r"^components\['zz'\]: unknown vertex$"):
        model_from_obj(obj)
    del obj["components"]["zz"]
    with pytest.raises(ModelFormatError, match="^claimed must carry"):
        model_from_obj(obj)
    del obj["claimed"]
    with pytest.raises(ModelFormatError, match=r"^action fails validation: edge-bijection\[c1\]"):
        model_from_obj(obj)
    obj = {
        "graph": {"vertices": [{"id": "a"}, {"id": "b"}], "edges": []},
        "action": {"order": 1, "vertex_map": {"a": "b", "b": "a"}, "edge_map": {}},
    }
    with pytest.raises(ModelFormatError, match=r"^action fails validation: order\[a\]"):
        model_from_obj(obj)


def test_dumps_is_stable_json():
    m = construct(2, 2)
    first = dumps_model(m)
    second = dumps_model(load_model_from_text(first))
    assert first == second


def load_model_from_text(text):
    return model_from_obj(json.loads(text))


def test_dumps_matches_the_stdlib_encoder(model_pool, tmp_path):
    rng = random.Random(12)
    circulants = [circulant_model(order, k, rng) for order, k in [(12, 1), (18, 3), (24, 4), (30, 5), (60, 6)]]
    constructed = [construct(g, i) for g, i in admissible_cells(12)]
    path = tmp_path / "m.json"
    for m in [*model_pool, *constructed, *circulants, *handcrafted_models(), weighted_model()]:
        text = dumps_model(m)
        assert text == naive_dumps_model(m)
        save_model(m, path)
        assert path.read_bytes() == text.encode()


def traced_peak(call):
    """The most memory ``call()`` held at once, above what was held before it, as ``tracemalloc`` counts it."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_save_model_writes_section_by_section(tmp_path):
    # The whole file is never one string: about 1.7x the file at (1001, 1), where joining it all took about 4.1x.
    m, path = construct(1001, 1), tmp_path / "m.json"
    save_model(m, path)
    assert traced_peak(lambda: save_model(m, path)) < 2.5 * path.stat().st_size


def test_load_model_drops_the_text_once_decoded(tmp_path):
    # Building and validating the model adds less than the file's length to the peak of decoding
    # it: about 0.4 MB on the 1.16 MB (1001, 1) file, and about 1.6 MB while the text stayed alive.
    path = tmp_path / "m.json"
    save_model(construct(1001, 1), path)
    load_model(path)
    decoding = traced_peak(lambda: json.loads(path.read_text(encoding="utf-8")))
    assert traced_peak(lambda: load_model(path)) - decoding < path.stat().st_size


def test_dumps_matches_the_stdlib_encoder_on_edge_cases():
    lone = MultiGraph.build(["a"], [])
    fixed = CyclicAction(1, {"a": "a"}, {})
    looped = MultiGraph.build(["a"], [("l", "a", "a")])
    # Quotes, backslashes, non-ASCII, a newline and U+2028 must be escaped as the stdlib escapes them.
    names = ['q"', "b\\s", "\u00e9", "n\nl", "\u2028"]
    step = dict(zip(names, names[1:] + names[:1]))
    ring = MultiGraph.build(names, [(f"{v}~", v, w) for v, w in step.items()])
    rotation = CyclicAction(5, step, {f"{v}~": f"{w}~" for v, w in step.items()})
    models = [
        as_model(lone, fixed),
        CurveModel(lone, fixed),  # no component entries: an empty object
        as_model(ring, rotation, claimed=(1, 5)),
        as_model(looped, CyclicAction(MAX_ORDER, {"a": "a"}, {"l": "l"})),
    ]
    for m in models:
        assert dumps_model(m) == naive_dumps_model(m)
    assert model_from_obj(json.loads(dumps_model(models[2]))) == models[2]
    assert '"edges": [],' in dumps_model(models[0]) and '"edge_map": {},' in dumps_model(models[0])
    assert '"claimed"' not in dumps_model(models[0])
    assert '"components": {},' in dumps_model(models[1])
    assert f'"order": {MAX_ORDER},' in dumps_model(models[3])
    # Keys in string order, not numeric order: "c10" comes before "c2".
    text = dumps_model(as_model(*cycle_model(12)))
    assert text == naive_dumps_model(as_model(*cycle_model(12)))
    assert text.index('"c10": "c11"') < text.index('"c2": "c3"')
    assert text.index('"10": {') < text.index('"2": {')


def test_save_load_save_is_a_fixed_point(tmp_path):
    for i, m in enumerate(random_voltage_models(20, seed=1209)):
        first, second = tmp_path / f"m{i}.json", tmp_path / f"m{i}-again.json"
        save_model(m, first)
        loaded = load_model(first)
        save_model(loaded, second)
        assert loaded == m
        assert second.read_text(encoding="utf-8") == first.read_text(encoding="utf-8") == naive_dumps_model(m)


def test_writing_a_model_builds_no_dicts_and_calls_no_json_encoder(tmp_path, monkeypatch):
    calls = []
    to_obj, dumps = serialize.model_to_obj, json.dumps
    monkeypatch.setattr(serialize, "model_to_obj", lambda m: calls.append("model_to_obj") or to_obj(m))
    monkeypatch.setattr(json, "dumps", lambda *a, **k: calls.append("json.dumps") or dumps(*a, **k))
    m = construct(4, 6)
    text = dumps_model(m)
    save_model(m, tmp_path / "model.json")
    assert calls == []
    assert text == (tmp_path / "model.json").read_text(encoding="utf-8") == naive_dumps_model(m)


@pytest.mark.parametrize(
    "field,value",
    [
        ("action.order", True),
        ("action.order", False),
        ("components.0.ns_index", True),
        ("components.0.multiplicity", True),
        ("claimed.genus", False),
        ("claimed.index", True),
    ],
)
def test_rejects_json_booleans(tmp_path, capsys, field, value):
    # construct(0, 1) is one vertex "0" at order 1, so each boolean would load as a valid 0 or 1.
    obj = model_to_obj(construct(0, 1))
    *parents, key = field.split(".")
    target = obj
    for p in parents:
        target = target[p]
    target[key] = value
    with pytest.raises(ModelFormatError):
        model_from_obj(obj)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert main(["index", str(path)]) == 2
    assert "error" in capsys.readouterr().err


def with_entry_after(components, key, new_key, entry):
    """``components`` with ``new_key: entry`` placed right after ``key``, keeping every other entry in place."""
    items = list(components.items())
    at = [k for k, _ in items].index(key) + 1
    return dict(items[:at] + [(new_key, entry)] + [(k, v) for k, v in items[at:] if k != new_key])


@pytest.mark.parametrize(
    "key,entry,message",
    [
        ("100", {"ns_index": True}, "components['100']: ns_index/multiplicity must be integers"),
        ("100", {"multiplicity": 0}, "components['100']: ns_index and multiplicity must be positive"),
        ("100", {"ns_index": 1.0}, "components['100']: ns_index/multiplicity must be integers"),
        ("100", "x", "components['100'] must be an object"),
        ("zz", {"ns_index": 1}, "components['zz']: unknown vertex"),
    ],
)
def test_rejects_a_bad_component_entry_by_its_first_entry_message(tmp_path, capsys, key, entry, message):
    # The bad entry sits in the middle of a large document, after valid entries and before a later bad one.
    obj = model_to_obj(construct(101, 200))
    obj["components"] = with_entry_after(obj["components"], "100", key, entry)
    obj["components"]["150"] = "y"
    with pytest.raises(ModelFormatError) as caught:
        model_from_obj(obj)
    assert str(caught.value) == message
    path = tmp_path / "model.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert main(["index", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


def test_mixed_component_entries_load_as_written():
    m = construct(101, 200)
    obj = model_to_obj(m)
    written = {"3": {"ns_index": 2}, "7": {"multiplicity": 4}, "9": {"ns_index": 5, "multiplicity": 3}, "11": {}}
    obj["components"].update(written)
    del obj["components"]["13"]
    loaded = model_from_obj(obj).components
    expected = dict(m.components, **{"3": Component(2, 1), "7": Component(1, 4), "9": Component(5, 3)})
    assert loaded == expected
    assert all(loaded[v] is UNIT for v in m.graph.vertices if v not in {"3", "7", "9"})


@pytest.mark.parametrize("key", ["vertices", "edges"])
@pytest.mark.parametrize("value", [None, 3, 1.5, True, {"id": "0"}])
def test_rejects_non_list_graph_members(tmp_path, capsys, key, value):
    obj = model_to_obj(construct(1, 3))
    obj["graph"][key] = value
    with pytest.raises(ModelFormatError, match="graph.vertices and graph.edges must be lists"):
        model_from_obj(obj)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert main(["index", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


# the graph section

def test_json_roundtrip():
    graph, action = mobius_ladder(3)
    assert graph_from_obj(model_to_obj(as_model(graph, action))["graph"]) == graph


def test_json_rejects_bad_ends():
    with pytest.raises(GraphError):
        graph_from_obj({"vertices": [{"id": "a"}], "edges": [{"id": "e", "ends": ["a"]}]})


ODD_VALUES = [None, True, 0, 1.5, "a", [], ["a"], ["a", "b", "c"], ["a", 1], {}, {"id": 1}, {"ends": ["a", "b"]}]


def mutated_graph_objs(count, seed):
    """Graph documents with one to three nodes replaced by an ill-typed value or dropped."""
    rng = random.Random(seed)
    bases = [model_to_obj(as_model(*mobius_ladder(g)))["graph"] for g in (2, 3, 5)]
    for _ in range(count):
        obj = copy.deepcopy(rng.choice(bases))
        for _ in range(rng.randint(1, 3)):
            parent = obj[rng.choice(["vertices", "edges"])]
            if not isinstance(parent, list) or not parent:
                continue
            key = rng.randrange(len(parent))
            while isinstance(parent[key], (dict, list)) and parent[key] and rng.random() < 0.6:
                parent = parent[key]
                key = rng.choice(list(parent)) if isinstance(parent, dict) else rng.randrange(len(parent))
            if rng.random() < 0.25:
                del parent[key]
            else:
                parent[key] = copy.deepcopy(rng.choice(ODD_VALUES))
        yield obj


def test_json_type_checks_match_the_item_by_item_reference():
    outcomes = set()
    for obj in mutated_graph_objs(400, seed=10):
        try:
            want = naive_from_json_obj(obj)
        except GraphError as err:
            with pytest.raises(GraphError) as got:
                graph_from_obj(obj)
            assert str(got.value) == str(err)
            outcomes.add(str(err).split("[")[0])
        else:
            assert graph_from_obj(obj) == want
            outcomes.add("graph")
    assert {"graph", "vertices", "edges"} <= outcomes  # lawful documents, and type errors in either list


def test_edges_are_immutable_records():
    edge = graph_from_obj({"vertices": [{"id": "a"}, {"id": "b"}], "edges": [{"id": "e", "ends": ["a", "b"]}]}).edges[0]
    assert edge == Edge("e", "a", "b") and (edge.id, edge.tail, edge.head) == ("e", "a", "b")
    assert edge.ends == {"a", "b"} and edge.tail != edge.head
    with pytest.raises(AttributeError):
        edge.tail = "b"
