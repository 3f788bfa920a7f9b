"""Command-line interface: config loading, commands, artifacts, determinism."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import rwtkit
from rwtkit.cli import ConfigError, RunConfig, load_run_config, main

# --- configuration loading ---------------------------------------------------


def test_defaults():
    cfg = load_run_config(None, {})
    assert cfg.model == "rf"
    assert cfg.preset == "published"
    assert cfg.split_ratio == 0.70
    assert cfg.scaler_mode == "fixed"
    assert not cfg.synthetic


def test_config_file_with_comments(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# pipeline settings\n"
        "synthetic = true\n"
        "synth_profiles = 33   # inline comment\n"
        "\n"
        "model = gbm\n"
        "split_ratio = 0.6\n"
    )
    cfg = load_run_config(str(path), {})
    assert cfg.synthetic is True
    assert cfg.synth_profiles == 33
    assert cfg.model == "gbm"
    assert cfg.split_ratio == 0.6


def test_overrides_beat_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("synth_profiles = 12\nsynth_seed = 3\n")
    cfg = load_run_config(str(path), {"synth_profiles": 16, "synthetic": True})
    assert cfg.synth_profiles == 16  # flag wins
    assert cfg.synth_seed == 3  # file value survives
    assert cfg.synthetic is True


def test_none_overrides_are_ignored(tmp_path):
    cfg = load_run_config(None, {"model": None})
    assert cfg.model == "rf"


@pytest.mark.parametrize(
    "line, fragment",
    [
        ("nonsense_key = 1", "unknown config key"),
        ("synth_profiles = abc", "expected an integer"),
        ("split_ratio = wide", "expected a number"),
        ("synthetic = maybe", "expected a boolean"),
        ("just a line without equals", "key = value"),
    ],
)
def test_bad_config_file_lines(tmp_path, line, fragment):
    path = tmp_path / "run.cfg"
    path.write_text(line + "\n")
    with pytest.raises(ConfigError, match=fragment):
        load_run_config(str(path), {})


def test_missing_config_file():
    with pytest.raises(ConfigError, match="cannot read config"):
        load_run_config("/no/such/config/file.cfg", {})


def test_unknown_override_key():
    with pytest.raises(ConfigError, match="unknown config key"):
        load_run_config(None, {"bogus": 1})


@pytest.mark.parametrize(
    "field, value",
    [
        ("model", "svm"),
        ("preset", "slow"),
        ("scaler_mode", "zscore"),
        ("kan_regime", "medium"),
        ("split_ratio", 1.5),
        ("synth_profiles", 0),
        ("kan_seeds", "a,b"),
        ("kan_seeds", ","),
        ("kan_ordering", "1,1,2"),
        ("kan_ordering", "0,1"),
        ("kan_ordering", "1,11"),
    ],
)
def test_validation_rejects(field, value):
    with pytest.raises(ConfigError):
        load_run_config(None, {field: value})


def test_kan_ordering_is_one_based_input_zero_based_columns():
    cfg = load_run_config(None, {"kan_ordering": "2,1,10"})
    assert cfg.kan_ordering_list() == (1, 0, 9)
    assert RunConfig().kan_ordering_list() == tuple(range(10))


def test_kan_seed_list():
    cfg = load_run_config(None, {"kan_seeds": "4, 5 ,6"})
    assert cfg.kan_seed_list() == (4, 5, 6)


# --- command basics ----------------------------------------------------------


def test_no_command_is_usage_error(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_eq_list(capsys):
    assert main(["eq", "list"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "set,n_inputs,r2"
    assert len(lines) == 21  # header + 10 per set
    assert lines[1].startswith("simple,1,")


def test_eq_show(capsys):
    assert main(["eq", "show", "--set", "simple", "--inputs", "2"]) == 0
    assert capsys.readouterr().out.strip() == "0.85*x1 + 0.013/(-4.8*x2 - 0.19) + 0.05"


def test_eq_eval_prints_display_precision(capsys):
    assert main(["eq", "eval", "--set", "simple", "--inputs", "1", "--x1", "0.5"]) == 0
    assert capsys.readouterr().out == "0.465\n"


def test_eq_eval_missing_variable_is_runtime_error(capsys):
    rc = main(["eq", "eval", "--set", "simple", "--inputs", "2", "--x1", "0.5"])
    assert rc == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "UnboundVariable"
    assert "x2" in record["message"]


def test_eq_unknown_entry(capsys):
    rc = main(["eq", "show", "--set", "simple", "--inputs", "99"])
    assert rc == 1
    assert json.loads(capsys.readouterr().err)["error"] == "NotFound"


def test_config_error_exit_code(capsys, tmp_path):
    rc = main(["train", "--model", "nosuch", "--out", str(tmp_path / "r")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("rwtkit:")


def test_missing_run_directory(capsys, tmp_path):
    rc = main(["evaluate", "--out", str(tmp_path / "never_made")])
    assert rc == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "NotFound"
    assert "ingest" in record["message"]


def test_non_finite_covariate_is_runtime_error(capsys, tmp_path):
    out = tmp_path / "r"
    base = ["--out", str(out)]
    assert main(["ingest", "--synthetic", "--synth-profiles", "12", "--synth-samples", "4",
                 "--synth-seed", "2"] + base) == 0
    assert main(["train", "--model", "cart", "--preset", "quick"] + base) == 0
    # Blank one test profile's air temperature in the run directory.
    test_key = json.loads((out / "split.json").read_text())["test"][0]
    lines = []
    for line in (out / "profiles.jsonl").read_text().splitlines():
        rec = json.loads(line)
        if [rec["reservoir"], rec["date"], rec["site"]] == test_key:
            rec["covariates"]["air_temp"] = "nan"
        lines.append(json.dumps(rec))
    (out / "profiles.jsonl").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["evaluate"] + base) == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "NonFiniteInput"
    assert not (out / "metrics.json").exists()


# --- corrupt run directories -------------------------------------------------


def _documents(text: str, name: str) -> list:
    return [json.loads(line) for line in text.splitlines()] if name.endswith(".jsonl") else [json.loads(text)]


def _write_documents(docs: list, name: str) -> str:
    if name.endswith(".jsonl"):
        return "".join(json.dumps(d) + "\n" for d in docs)
    return json.dumps(docs[0], indent=1) + "\n"


def _listed(text: str, name: str) -> str:
    """Every JSON document of the file wrapped in a one-element list."""
    return _write_documents([[d] for d in _documents(text, name)], name)


def _edited(*keys, value=None, drop=False):
    """Set (or with ``drop`` delete) one nested key of the file's first document."""

    def edit(text: str, name: str) -> str:
        docs = _documents(text, name)
        node = docs[0]
        for key in keys[:-1]:
            node = node[key]
        if drop:
            del node[keys[-1]]
        else:
            node[keys[-1]] = value
        return _write_documents(docs, name)

    return edit


def _emptied(text: str, name: str) -> str:
    return ""


def _truncated(text: str, name: str) -> str:
    cut = len(text) // 2
    return text[: cut + 1 if text[cut - 1] == "\n" else cut]  # never on a line boundary


CORRUPTIONS = {
    "split-truncated": ("split.json", _truncated),
    "split-emptied": ("split.json", _emptied),
    "split-type-swapped": ("split.json", _listed),
    "split-train-not-a-list": ("split.json", _edited("train", value=3)),
    "scaler-truncated": ("scaler.json", _truncated),
    "scaler-emptied": ("scaler.json", _emptied),
    "scaler-type-swapped": ("scaler.json", _listed),
    "scaler-bound-not-a-list": ("scaler.json", _edited("feature_lo", value=3)),
    "profiles-truncated": ("profiles.jsonl", _truncated),
    "profiles-emptied": ("profiles.jsonl", _emptied),
    "profiles-type-swapped": ("profiles.jsonl", _listed),
    "profiles-samples-not-a-list": ("profiles.jsonl", _edited("samples", value=3)),
    "model-truncated": ("model_rf.json", _truncated),
    "model-emptied": ("model_rf.json", _emptied),
    "model-missing-trees": ("model_rf.json", _edited("state", "trees", drop=True)),
    "model-trees-not-a-list": ("model_rf.json", _edited("state", "trees", value="x")),
    "model-n-features-not-a-number": ("model_cart.json", _edited("state", "n_features", value=[])),
    "model-threshold-not-a-list": ("model_cart.json", _edited("state", "threshold", value=3)),
    "model-state-not-a-dict": ("model_gbm.json", _edited("state", value=[])),
    "notes-type-swapped": ("ingest_notes.json", _listed),
    "metrics-truncated": ("metrics.json", _truncated),
    "metrics-emptied": ("metrics.json", _emptied),
    "shap-global-truncated": ("shap_global.json", _truncated),
    "r2-curve-short-row": ("r2_curve.csv", lambda text, name: text + "7,0.5\n"),
}

#: Files that only ``report`` reads; every other case runs ``evaluate``.
REPORT_ONLY = ("ingest_notes.json", "metrics.json", "shap_global.json", "r2_curve.csv")


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corrupt") / "run"
    base = ["--out", str(out)]
    assert main(["ingest", "--synthetic", "--synth-profiles", "12", "--synth-samples", "4",
                 "--synth-seed", "3"] + base) == 0
    for model in ("cart", "rf", "gbm"):
        assert main(["train", "--model", model, "--preset", "quick"] + base) == 0
    assert main(["evaluate"] + base) == 0
    assert main(["explain", "--model", "cart", "--shap-instances", "2",
                 "--shap-background", "8"] + base) == 0
    assert main(["kan-run", "--kan-ordering", "1", "--kan-seeds", "0", "--kan-steps", "5",
                 "--kan-grid", "4"] + base) == 0
    return out


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_corrupt_run_directory_is_schema_mismatch(trained_dir, tmp_path, capsys, case):
    name, corrupt = CORRUPTIONS[case]
    out = tmp_path / "run"
    shutil.copytree(trained_dir, out)
    path = out / name
    path.write_text(corrupt(path.read_text(), name))
    command = ["report", "--model", "cart"] if name in REPORT_ONLY else ["evaluate"]
    capsys.readouterr()
    assert main(command + ["--out", str(out)]) == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "SchemaMismatch"
    assert name in record["message"]


# --- pinned tree-model bytes ---------------------------------------------------

#: SHA-256 of each published-preset tree model trained on 30 synthetic
#: profiles (x86-64 Linux, numpy 2.4).  Any change to split search, leaf
#: values, RNG draws or serialization shows up here.
PUBLISHED_TREE_SHA256 = {
    (1, "cart"): "885956fa4fd1ded78bceb8927ca0b3bac91ed8165565e8c7a9f4584449f8c27c",
    (1, "gbm"): "e61f715160e11e7e132133a1ec8a3b6a3037e05fc23ccf64279561e2a67bcc24",
    (1, "rf"): "781e022bebd4d2030f27f9909519fa420e339b0c503d0acc463676e210c5f305",
    (2, "cart"): "f81e155f1d3034eeeefffd9cc4a72b2d4b91bd5b440817a06ecbe3a95a2a6c99",
    (2, "gbm"): "1056b4900cab1f8013e0d62a99dc841abb4b312e5bc165786ca395af52acd31a",
    (2, "rf"): "2253aeab7bf85a56d172bc0f670f981b0a8538ba2b32133409ddf12f29113ab9",
}


@pytest.mark.parametrize("seed", [1, 2])
def test_published_tree_models_match_pinned_bytes(tmp_path, seed):
    base = ["--out", str(tmp_path / "r")]
    assert main(["ingest", "--synthetic", "--synth-profiles", "30", "--synth-samples", "6",
                 "--synth-seed", str(seed), "--split-seed", str(seed)] + base) == 0
    for model in ("cart", "rf", "gbm"):
        assert main(["train", "--model", model, "--preset", "published"] + base) == 0
        data = (tmp_path / "r" / f"model_{model}.json").read_bytes()
        assert hashlib.sha256(data).hexdigest() == PUBLISHED_TREE_SHA256[(seed, model)], model


#: SHA-256 of the explain outputs for each model kind on 20 synthetic
#: profiles (x86-64 Linux, numpy 2.4): 6 instances, 30 background rows.
#: Any change to the attribution arithmetic or the predictions shows up here.
EXPLAIN_SHA256 = {
    ("gbm", "shap_global.json"): "245e707fe997f38e6e16e500e0489a6d83247053fd5a4d31967dac9fb8ed71c6",
    ("gbm", "shap_heatmap.csv"): "01d899d8455679c01ce76e5281ec73436dbf8ea616c37ed2ab00423300b5e793",
    ("gbm", "shap_summary.csv"): "1bfde57ee59dcd451a9c62cc3d96c9d32b4019bb2e01cea9fa94d6e008341c91",
    ("kan", "shap_global.json"): "82ce97fbb797e6525043924be60af442742404207dfa42bdf7e4841742836185",
    ("kan", "shap_heatmap.csv"): "a57d3e3f2c90d3ba04d11b885ef0298dbb4cd203aff401e46e02d2785cf6335a",
    ("kan", "shap_summary.csv"): "4eea92015a575237076622e0d4aa23942f6fcba7818b158bd631b6a05b960cf6",
    ("mlp", "shap_global.json"): "b52c5830d8587f40cf74f1e70d40d41aeea11dac66292a39d9e3b14dc729ca24",
    ("mlp", "shap_heatmap.csv"): "0337afa0a5513b9e773f98b35581e6e6f41275adee645d2fe75bcf37e83675be",
    ("mlp", "shap_summary.csv"): "3aad8fe555f5f0345407f3d315f009270b483d92f2514fc8b69d658380365459",
    ("rf", "shap_global.json"): "9fa8aae5fbd419ddad877349957dceee936b5e1896798be780db271abe21e122",
    ("rf", "shap_heatmap.csv"): "a1c62944ecb995886cac17ace9b5c43b397124057ccf74107d89c8ca6aea578b",
    ("rf", "shap_summary.csv"): "ac20adec15e9b1c914ec277ad58ab00ae04ee95679e3bcd5fc4b4270206ceb9d",
}


def test_explain_outputs_match_pinned_bytes(tmp_path):
    base = ["--out", str(tmp_path / "r")]
    assert main(["ingest", "--synthetic", "--synth-profiles", "20", "--synth-samples", "5",
                 "--synth-seed", "3", "--split-seed", "3"] + base) == 0
    for model, preset in (("rf", "published"), ("gbm", "published"), ("mlp", "quick"),
                          ("kan", "quick")):
        assert main(["train", "--model", model, "--preset", preset] + base) == 0
        assert main(["explain", "--model", model, "--shap-instances", "6",
                     "--shap-background", "30"] + base) == 0
        for name in ("shap_summary.csv", "shap_heatmap.csv", "shap_global.json"):
            data = (tmp_path / "r" / name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == EXPLAIN_SHA256[(model, name)], (model, name)


def test_cli_import_leaves_scipy_cluster_unloaded():
    # Only the explain heatmap clusters; importing scipy.cluster up front
    # would cost every command about 30 MB.
    env = {**os.environ, "PYTHONPATH": str(Path(rwtkit.__file__).parents[1])}
    code = "import sys, rwtkit.cli; print('scipy.cluster' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout.strip() == "False"


# --- synthetic end-to-end pipeline -------------------------------------------


def _run_pipeline(out: Path) -> None:
    base = ["--out", str(out)]
    assert (
        main(
            [
                "ingest",
                "--synthetic",
                "--synth-profiles", "18",
                "--synth-samples", "5",
                "--synth-noise", "0.02",
                "--synth-reservoirs", "2",
                "--synth-seed", "1",
            ]
            + base
        )
        == 0
    )
    assert main(["train", "--model", "cart", "--preset", "quick"] + base) == 0
    assert main(["evaluate"] + base) == 0
    assert (
        main(
            [
                "explain",
                "--model", "cart",
                "--shap-instances", "3",
                "--shap-background", "12",
            ]
            + base
        )
        == 0
    )
    assert (
        main(
            [
                "kan-run",
                "--kan-ordering", "1,3",
                "--kan-seeds", "0",
                "--kan-steps", "25",
                "--kan-grid", "5",
            ]
            + base
        )
        == 0
    )
    assert main(["report", "--model", "cart"] + base) == 0


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "run_a"
    _run_pipeline(out)
    return out


EXPECTED_ARTIFACTS = [
    "profiles.jsonl",
    "scaler.json",
    "split.json",
    "ingest_notes.json",
    "ingest.manifest.json",
    "model_cart.json",
    "train_cart.json",
    "train_cart.manifest.json",
    "metrics.json",
    "per_reservoir.csv",
    "scatter.csv",
    "qq.csv",
    "evaluate.manifest.json",
    "shap_summary.csv",
    "shap_heatmap.csv",
    "shap_global.json",
    "explain.manifest.json",
    "kan_records.jsonl",
    "r2_curve.csv",
    "kan_run.manifest.json",
    "report.md",
    "report.manifest.json",
]


def test_pipeline_artifacts_exist(pipeline_dir):
    for name in EXPECTED_ARTIFACTS:
        assert (pipeline_dir / name).is_file(), name


def test_metrics_artifact_is_well_formed(pipeline_dir):
    summary = json.loads((pipeline_dir / "metrics.json").read_text())
    assert list(summary) == ["cart"]
    scores = summary["cart"]
    assert float(scores["rmse_c"]) >= float(scores["mae_c"])
    assert scores["n_test"] > 0


def test_split_artifact_partitions_profiles(pipeline_dir):
    split = json.loads((pipeline_dir / "split.json").read_text())
    train = {tuple(k) for k in split["train"]}
    test = {tuple(k) for k in split["test"]}
    assert train and test
    assert not train & test
    n_profiles = sum(1 for _ in (pipeline_dir / "profiles.jsonl").open())
    assert len(train) + len(test) == n_profiles


def test_ingest_notes_record_truth(pipeline_dir):
    notes = json.loads((pipeline_dir / "ingest_notes.json").read_text())
    assert notes["source"] == "synthetic"
    assert "x1" in notes["truth"]


def test_shap_summary_layout(pipeline_dir):
    lines = (pipeline_dir / "shap_summary.csv").read_text().strip().splitlines()
    assert lines[0] == "feature,rank,instance,shap_value,feature_value"
    assert len(lines) == 1 + 3 * 10  # three instances, ten features


def test_kan_records_cover_ordering_prefixes(pipeline_dir):
    records = [
        json.loads(line) for line in (pipeline_dir / "kan_records.jsonl").open()
    ]
    assert [r["n_inputs"] for r in records] == [1, 2]
    assert all(r["seed"] == 0 for r in records)
    curve = (pipeline_dir / "r2_curve.csv").read_text().strip().splitlines()
    assert curve[0] == "n_inputs,mean_r2_test,n_seeds"
    assert len(curve) == 3


def test_report_mentions_config_and_models(pipeline_dir):
    report = (pipeline_dir / "report.md").read_text()
    manifest = json.loads((pipeline_dir / "report.manifest.json").read_text())
    assert manifest["config_sha256"] in report
    assert "cart" in report


def test_manifest_excludes_output_path(pipeline_dir):
    manifest = json.loads((pipeline_dir / "ingest.manifest.json").read_text())
    assert "out" not in manifest["config"]
    assert manifest["command"] == "ingest"
    assert manifest["artifacts"] == sorted(manifest["artifacts"])


def test_rerun_is_byte_identical(pipeline_dir, tmp_path):
    other = tmp_path / "run_b"
    _run_pipeline(other)
    names_a = sorted(p.name for p in pipeline_dir.iterdir())
    names_b = sorted(p.name for p in other.iterdir())
    assert names_a == names_b
    for name in names_a:
        assert (pipeline_dir / name).read_bytes() == (other / name).read_bytes(), name


# --- file-based ingest -------------------------------------------------------


@pytest.fixture()
def csv_inputs(tmp_path):
    obs = tmp_path / "obs.csv"
    daily = tmp_path / "daily.csv"
    morph = tmp_path / "morph.csv"
    obs_lines = ["reservoir_id,date,site_id,depth_m,temp_c"]
    daily_lines = ["reservoir_id,date,air_temp_c,prcp_mm,wind_ms,vol_lake,inflow_lake"]
    for res, base_temp in (("alpha", 18.0), ("beta", 14.0)):
        for day in range(1, 21):
            daily_lines.append(
                f"{res},2019-07-{day:02d},{base_temp + 0.1 * day},1.5,3.0,2.0e6,4.0"
            )
        for date in ("2019-07-10", "2019-07-20"):
            for i, depth in enumerate((0.5, 2.0, 5.0, 9.0)):
                obs_lines.append(
                    f"{res},{date},s1,{depth},{base_temp + 4.0 - 0.8 * depth - 0.1 * i}"
                )
    obs.write_text("\n".join(obs_lines) + "\n")
    daily.write_text("\n".join(daily_lines) + "\n")
    morph.write_text(
        "reservoir_id,surface_area_m2,max_depth_m\nalpha,5.0e6,30.0\nbeta,2.5e6,12.0\n"
    )
    return obs, daily, morph


def test_file_based_ingest(csv_inputs, tmp_path):
    obs, daily, morph = csv_inputs
    out = tmp_path / "file_run"
    rc = main(
        [
            "ingest",
            "--observations", str(obs),
            "--daily", str(daily),
            "--morphometry", str(morph),
            "--split-ratio", "0.5",
            "--out", str(out),
        ]
    )
    assert rc == 0
    split = json.loads((out / "split.json").read_text())
    assert len(split["train"]) == 2 and len(split["test"]) == 2
    notes = json.loads((out / "ingest_notes.json").read_text())
    assert notes["source"] == "files"
    assert notes["rejected_profiles"] == []


def test_file_ingest_requires_all_paths(tmp_path, capsys):
    rc = main(["ingest", "--observations", "obs.csv", "--out", str(tmp_path / "r")])
    assert rc == 2
    assert "daily" in capsys.readouterr().err
