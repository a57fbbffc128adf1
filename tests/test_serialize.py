import json

import pytest

from conftest import corrupted_two_cycle_model
from curveindex.cli import main
from curveindex.constructions import Component, construct
from curveindex.serialize import (
    ModelFormatError,
    dumps_model,
    load_model,
    model_from_obj,
    model_to_obj,
    save_model,
)


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
    assert m.component("0") == Component(ns_index=2, multiplicity=1)
    assert m.component("1") == Component()


def test_claimed_is_optional():
    obj = model_to_obj(construct(1, 3))
    del obj["claimed"]
    assert model_from_obj(obj).claimed is None


def test_rejects_unreadable_and_invalid_json(tmp_path):
    with pytest.raises(ModelFormatError, match="cannot read"):
        load_model(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ModelFormatError, match="not valid JSON"):
        load_model(bad)


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


def test_dumps_is_stable_json():
    m = construct(2, 2)
    first = dumps_model(m)
    second = dumps_model(load_model_from_text(first))
    assert first == second


def load_model_from_text(text):
    return model_from_obj(json.loads(text))


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
