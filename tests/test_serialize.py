"""Model persistence: bit-exact round trips and format validation."""

import json

import numpy as np
import pytest

from rwtkit.errors import SchemaMismatch
from rwtkit.features import Scaler, scaler_fit
from rwtkit.kan import KanNetwork, kan_init, kan_train
from rwtkit.mlp import mlp_init, mlp_train
from rwtkit.serialize import (
    FORMAT_NAME,
    FORMAT_VERSION,
    csv_text,
    from_state,
    load_model,
    model_document,
    record,
    save_model,
    to_state,
)
from rwtkit.trees import (
    BoostParams,
    ForestParams,
    TreeParams,
    gbm_fit,
    rf_fit,
    tree_fit,
)


@pytest.fixture(scope="module")
def xy():
    rng = np.random.default_rng(7)
    x = rng.uniform(size=(60, 4))
    y = 0.9 * x[:, 0] - 0.4 * x[:, 2] + 0.05 * rng.normal(size=60)
    return x, y


def _trained_models(xy):
    x, y = xy
    tree = tree_fit(x, y, TreeParams(max_depth=4, min_samples_leaf=2))
    forest = rf_fit(x, y, ForestParams(n_estimators=5, max_features=2, max_depth=4))
    boosted = gbm_fit(x, y, BoostParams(n_estimators=8, max_depth=2, gamma=0.0))
    mlp, _ = mlp_train(mlp_init((4, 6, 1), seed=0), x, y, epochs=20, seed=0)
    kan, _ = kan_train(kan_init((4, 2, 1), seed=0), x, y, steps=30)
    return {"tree": tree, "forest": forest, "boosted": boosted, "mlp": mlp, "kan": kan}


@pytest.fixture(scope="module")
def models(xy):
    return _trained_models(xy)


# --- round trips -------------------------------------------------------------


def _predict(model, x):
    if isinstance(model, KanNetwork):
        return model.forward(x)
    return model.predict(x)


@pytest.mark.parametrize("kind", ["tree", "forest", "boosted", "mlp", "kan"])
def test_round_trip_predictions_and_bytes(kind, models, xy, tmp_path):
    x, _ = xy
    model = models[kind]
    first = tmp_path / f"{kind}_a.json"
    save_model(model, first)
    clone = load_model(first)
    assert type(clone) is type(model)
    assert np.array_equal(_predict(clone, x), _predict(model, x))
    # Saving the reloaded model reproduces the file byte for byte.
    second = tmp_path / f"{kind}_b.json"
    save_model(clone, second)
    assert second.read_bytes() == first.read_bytes()


def test_document_structure(models):
    doc = model_document(models["tree"])
    assert doc["format"] == FORMAT_NAME
    assert doc["version"] == FORMAT_VERSION
    assert doc["kind"] == "tree"
    assert isinstance(doc["state"], dict)


def test_kind_tags(models):
    for kind, model in models.items():
        assert model_document(model)["kind"] == kind


def test_file_is_sorted_json_with_newline(models, tmp_path):
    path = tmp_path / "m.json"
    save_model(models["mlp"], path)
    text = path.read_text()
    assert text.endswith("\n")
    doc = json.loads(text)
    assert list(doc) == sorted(doc)


@pytest.mark.parametrize("kind", ["tree", "forest", "boosted", "mlp", "kan"])
def test_streamed_file_equals_dumped_document(kind, models, tmp_path):
    path = tmp_path / "m.json"
    save_model(models[kind], path)
    want = json.dumps(model_document(models[kind]), sort_keys=True, indent=1) + "\n"
    assert path.read_text() == want


def test_unserializable_object_rejected():
    with pytest.raises(TypeError):
        model_document(object())


# --- format validation -------------------------------------------------------


def _write(tmp_path, payload):
    path = tmp_path / "bad.json"
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return path


def test_load_rejects_non_json(tmp_path):
    with pytest.raises(SchemaMismatch):
        load_model(_write(tmp_path, "not json at all {"))


def test_load_rejects_wrong_format(tmp_path):
    with pytest.raises(SchemaMismatch):
        load_model(_write(tmp_path, {"format": "other", "version": 1, "kind": "tree"}))


def test_load_rejects_non_dict(tmp_path):
    with pytest.raises(SchemaMismatch):
        load_model(_write(tmp_path, [1, 2, 3]))


def test_load_rejects_unknown_version(models, tmp_path):
    doc = model_document(models["tree"])
    doc["version"] = 99
    with pytest.raises(SchemaMismatch, match="version"):
        load_model(_write(tmp_path, doc))


def test_load_rejects_unknown_kind(models, tmp_path):
    doc = model_document(models["tree"])
    doc["kind"] = "perceptron"
    with pytest.raises(SchemaMismatch, match="kind"):
        load_model(_write(tmp_path, doc))


def _fields_of(state: dict) -> list[tuple]:
    """Key paths to every field of a state, and of its first tree if it has trees."""
    paths = [(name,) for name in state]
    if "trees" in state:
        paths += [("trees", 0, name) for name in state["trees"][0]]
    return paths


@pytest.mark.parametrize("kind", ["tree", "forest", "boosted", "mlp", "kan"])
def test_load_rejects_malformed_field(kind, models, tmp_path):
    # A number where a list belongs, or a list where anything else belongs,
    # fails while loading, not later in a model method.
    text = json.dumps(model_document(models[kind]))
    loaded = []
    for path in _fields_of(json.loads(text)["state"]):
        doc = json.loads(text)
        holder = doc["state"]
        for key in path[:-1]:
            holder = holder[key]
        value = holder[path[-1]]
        holder[path[-1]] = 3 if isinstance(value, list) else [value]
        try:
            load_model(_write(tmp_path, doc))
        except SchemaMismatch:
            continue
        loaded.append(path)
    assert loaded == []


# --- scaler state ------------------------------------------------------------


def test_scaler_round_trip_exact():
    scaler = scaler_fit(None, mode="fixed")
    clone = from_state(Scaler, to_state(scaler))
    assert clone.mode == scaler.mode
    assert clone.feature_lo == scaler.feature_lo
    assert clone.feature_hi == scaler.feature_hi
    assert clone.target_lo == scaler.target_lo
    assert clone.target_hi == scaler.target_hi


def test_scaler_state_preserves_awkward_floats():
    lo = tuple(v + 0.1 for v in range(10))
    hi = tuple(v + 1 / 3 for v in range(1, 11))
    scaler = Scaler(feature_lo=lo, feature_hi=hi, target_lo=0.1, target_hi=39.7, mode="from_data")
    state = json.loads(json.dumps(to_state(scaler)))
    clone = from_state(Scaler, state)
    assert clone.feature_lo == lo
    assert clone.feature_hi == hi
    assert clone.target_lo == 0.1
    assert clone.target_hi == 39.7


# --- the float rule of every artifact -----------------------------------------


def test_record_writes_each_float_as_its_repr_at_any_depth():
    doc = {"a": np.float64(4.205266860984799), "b": None, "c": True, "d": 3, "e": "text",
           "f": (0.1 + 0.2, (np.float64(-0.0), 7, (2.5,))), "g": [np.float32(0.5)]}
    assert record(doc) == {"a": "4.205266860984799", "b": None, "c": True, "d": 3, "e": "text",
                           "f": ["0.30000000000000004", ["-0.0", 7, ["2.5"]]], "g": ["0.5"]}
    assert record(np.float64(-0.0)) == "-0.0"
    assert json.loads(json.dumps(record(doc)))["f"][1][0] == "-0.0"


def test_csv_text_writes_cells_by_the_float_rule():
    rows = [("R1", np.float64(4.205266860984799), None, True, 3),
            ("R2", -0.0, 0.1 + 0.2, np.bool_(False), np.float64(1e-300))]
    assert csv_text(("site", "x", "y", "best", "n"), rows) == (
        "site,x,y,best,n\n"
        "R1,4.205266860984799,NA,1,3\n"
        "R2,-0.0,0.30000000000000004,0,1e-300\n"
    )
    assert csv_text(["a", "b"], []) == "a,b\n"
    assert float(csv_text(["x"], [(np.float64(0.1),)]).splitlines()[1]) == 0.1
