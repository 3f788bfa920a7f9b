"""Command-line interface: config loading, commands, artifacts, determinism."""

import csv
import hashlib
import json
import math
import operator
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import rwtkit
from rwtkit.cli import (_COMMANDS, _DOMAINS, MODEL_NAMES, ConfigError, RunConfig,
                        load_run_config, main)

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
        ("synth_samples", 3),
        ("kan_grid", 2),
        ("kan_grid", 3),
        ("synth_noise", -1.0),
        ("synth_noise", float("nan")),
        ("synth_noise", float("inf")),
        ("kan_lr", float("nan")),
        ("kan_lr", float("inf")),
        ("kan_lam", -1.0),
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


def _walk(domain) -> list:
    """(value, inside) pairs: each bound, the values just outside it, nan, inf,
    -1 and a huge value, or each choice and three texts that are none."""
    if domain.choices:
        return [(c, True) for c in domain.choices] + [(v, False) for v in ("nosuch", "nan", "-1")]
    if domain.kind is int:
        step, huge = (lambda v, way: v + way), 10**30
    else:
        step, huge = (lambda v, way: math.nextafter(v, way * math.inf)), 1e300
    bounds = [(sign, domain.kind(number)) for sign, number in map(str.split, domain.bounds)]
    ops = {">=": operator.ge, ">": operator.gt, "<=": operator.le, "<": operator.lt}
    cases = [(math.nan, False), (math.inf, False)] + [
        (v, all(ops[sign](v, b) for sign, b in bounds)) for v in map(domain.kind, (-1, huge))]
    for sign, bound in bounds:
        way, is_open = (-1 if sign[0] == ">" else 1), "=" not in sign
        cases += [(bound, not is_open), (step(bound, -way if is_open else way), is_open)]
    return cases


#: The two list options, whose items have the domain of a seed and of a
#: feature number.
LIST_CASES = {
    "kan_seeds": [("0", True), ("-1", False), ("nan", False), ("inf", False), ("", False),
                  (str(10**30), True)],
    "kan_ordering": [("1", True), ("10", True), ("0", False), ("11", False), ("nan", False),
                     ("inf", False), ("-1", False), (str(10**30), False), ("1,1", False)],
}


@pytest.mark.parametrize("key", sorted(set(_DOMAINS) - {"synthetic", "out", "observations",
                                                        "daily", "morphometry"}))
def test_every_option_outside_its_domain_is_a_usage_error(capsys, tmp_path, key):
    # Values inside the domain are only loaded, so the walk runs no command.
    cases = LIST_CASES.get(key) or _walk(_DOMAINS[key])
    command = next(name for name, (_, keys, _) in _COMMANDS.items() if key in keys)
    for i, (value, inside) in enumerate(cases):
        if inside:
            assert getattr(load_run_config(None, {key: value}), key) == value
            continue
        out = tmp_path / str(i)
        flag = "--" + key.replace("_", "-") + "=" + (repr(value) if type(value) is float
                                                     else str(value))
        capsys.readouterr()
        assert main([command, flag, "--out", str(out)]) == 2, flag
        err = capsys.readouterr().err
        assert err.startswith("rwtkit:") and "Traceback" not in err, (flag, err)
        assert not out.exists(), flag


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_help_prints_each_option_domain(capsys, command):
    # argparse formats help text with %, so a stray % fails only here
    with pytest.raises(SystemExit) as stopped:
        main([command, "--help"])
    assert stopped.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    for key in _COMMANDS[command][1]:
        domain = _DOMAINS[key]
        assert "--" + key.replace("_", "-") in text
        assert domain.text() in text, key


def test_kan_ordering_is_one_based_input_zero_based_columns():
    cfg = load_run_config(None, {"kan_ordering": "2,1,10"})
    assert cfg.kan_ordering_list() == (1, 0, 9)
    assert RunConfig().kan_ordering_list() == tuple(range(10))


def test_kan_seed_list():
    cfg = load_run_config(None, {"kan_seeds": "4, 5 ,6"})
    assert cfg.kan_seed_list() == (4, 5, 6)


# --- command basics ----------------------------------------------------------


@pytest.mark.parametrize("argv", [[], ["eq"]], ids=["bare", "eq"])
def test_no_command_is_usage_error(capsys, argv):
    assert main(argv) == 2
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


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_eq_eval_non_finite_variable_is_usage_error(capsys, value):
    assert main(["eq", "eval", "--set", "simple", "--inputs", "1", f"--x1={value}"]) == 2
    assert capsys.readouterr().err.startswith("rwtkit: x1 must be finite")


@pytest.mark.parametrize("argv, flag, value, code", [
    (["eq", "eval", "--set", "simple", "--inputs", "1"], "--x1", "-1e3", 0),
    (["eq", "eval", "--set", "simple", "--inputs", "1"], "--x1", "-inf", 2),
    (["train"], "--kan-lam", "-inf", 2),
], ids=["x1=-1e3", "x1=-inf", "kan-lam=-inf"])
def test_flag_value_starting_with_minus_reads_as_joined(capsys, tmp_path, monkeypatch,
                                                        argv, flag, value, code):
    # argparse takes a word after a flag for an option when it starts with "-"
    # and is not a plain number like -1, unless the two are joined by "=".
    monkeypatch.chdir(tmp_path)
    outcomes = []
    for words in ([flag, value], [f"{flag}={value}"]):
        outcomes.append((main(argv + words), *capsys.readouterr()))
    assert outcomes[0] == outcomes[1]
    rc, out, err = outcomes[0]
    assert rc == code
    assert err.startswith("rwtkit: ") if code == 2 else out == "-849.96\n"
    assert list(tmp_path.iterdir()) == []


def test_eq_eval_missing_variable_is_runtime_error(capsys):
    rc = main(["eq", "eval", "--set", "simple", "--inputs", "2", "--x1", "0.5"])
    assert rc == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "UnboundVariable"
    assert "x2" in record["message"]


def test_eq_eval_outside_the_log_domain_is_runtime_error(capsys):
    # complex/5 holds log(9.86 - 9.81*x4), whose argument is negative at x4 = 1.01
    argv = ["eq", "eval", "--set", "complex", "--inputs", "5",
            "--x1", "0.5", "--x2", "0.5", "--x3", "0.5", "--x5", "0.5"]
    assert main(argv + ["--x4", "0.5"]) == 0
    assert capsys.readouterr().out == "0.339416531571\n"
    assert main(argv + ["--x4", "1.01"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {"error": "DomainError", "message": "log of non-positive value"}


def test_eq_unknown_entry(capsys):
    rc = main(["eq", "show", "--set", "simple", "--inputs", "99"])
    assert rc == 1
    assert json.loads(capsys.readouterr().err)["error"] == "NotFound"


def test_config_error_exit_code(capsys, tmp_path):
    rc = main(["train", "--model", "nosuch", "--out", str(tmp_path / "r")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("rwtkit:")


def test_too_few_synthetic_samples_is_usage_error(capsys, tmp_path):
    rc = main(["ingest", "--synthetic", "--synth-samples", "2", "--out", str(tmp_path / "r")])
    assert rc == 2
    assert "synth_samples" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("argv", [
    ["ingest", "--synthetic", "--synth-seed", "-1"],
    ["ingest", "--synthetic", "--split-seed", "-1"],
    ["train", "--model", "rf", "--preset", "quick", "--model-seed", "-1"],
    ["kan-run", "--kan-seeds=0,-3"],
], ids=["synth-seed", "split-seed", "model-seed", "kan-seeds"])
def test_negative_seed_is_usage_error(capsys, tmp_path, argv):
    # numpy's generators take no negative seed; the option is refused before
    # any work, with no traceback
    assert main(argv + ["--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("rwtkit:") and "must be >= 0" in err
    assert not (tmp_path / "r").exists()


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
    "split-ratio-nan": ("split.json", _edited("ratio", value="nan")),
    "split-seed-negative": ("split.json", _edited("seed", value=-1)),
    "scaler-truncated": ("scaler.json", _truncated),
    "scaler-emptied": ("scaler.json", _emptied),
    "scaler-type-swapped": ("scaler.json", _listed),
    "scaler-bound-not-a-list": ("scaler.json", _edited("feature_lo", value=3)),
    "scaler-mode-unknown": ("scaler.json", _edited("mode", value="x")),
    "profiles-truncated": ("profiles.jsonl", _truncated),
    "profiles-emptied": ("profiles.jsonl", _emptied),
    "profiles-type-swapped": ("profiles.jsonl", _listed),
    "profiles-samples-not-a-list": ("profiles.jsonl", _edited("samples", value=3)),
    "profiles-first-line-only": ("profiles.jsonl", lambda text, name: text.splitlines(True)[0]),
    "model-truncated": ("model_rf.json", _truncated),
    "model-emptied": ("model_rf.json", _emptied),
    "model-missing-trees": ("model_rf.json", _edited("state", "trees", drop=True)),
    "model-trees-not-a-list": ("model_rf.json", _edited("state", "trees", value="x")),
    "model-n-features-not-a-number": ("model_cart.json", _edited("state", "n_features", value=[])),
    "model-threshold-not-a-list": ("model_cart.json", _edited("state", "threshold", value=3)),
    "model-state-not-a-dict": ("model_gbm.json", _edited("state", value=[])),
    "notes-type-swapped": ("ingest_notes.json", _listed),
    "notes-source-unknown": ("ingest_notes.json", _edited("source", value=[])),
    "notes-truth-not-a-string": ("ingest_notes.json", _edited("truth", value=[])),
    "notes-noise-sigma-not-a-string": ("ingest_notes.json", _edited("noise_sigma", value={})),
    "metrics-truncated": ("metrics.json", _truncated),
    "metrics-emptied": ("metrics.json", _emptied),
    "shap-global-truncated": ("shap_global.json", _truncated),
    "shap-global-model-unknown": ("shap_global.json", _edited("model", value="x")),
    "shap-global-n-instances-negative": ("shap_global.json", _edited("n_instances", value=-1)),
    "shap-global-background-rows-zero": ("shap_global.json", _edited("background_rows", value=0)),
    "shap-global-importance-missing-a-feature": ("shap_global.json",
                                                 _edited("importance", "prcp", drop=True)),
    "r2-curve-short-row": ("r2_curve.csv", lambda text, name: text + "7,0.5\n"),
    "r2-curve-nan-row": ("r2_curve.csv", lambda text, name: text + "7,nan,1\n"),
    "report-profiles-first-line-only": ("profiles.jsonl",
                                        lambda text, name: text.splitlines(True)[0]),
}

#: Files that only ``report`` reads; every other case runs ``evaluate``,
#: except the ``report-`` cases, which run ``report`` on a file both read.
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
    reported = name in REPORT_ONLY or case.startswith("report-")
    command = ["report", "--model", "cart"] if reported else ["evaluate"]
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
    ("kan", "shap_global.json"): "9cb5f5660abe4c4b204006ecc93524f2b45f57bac213db2c0b3eb512a8237e6d",
    ("kan", "shap_heatmap.csv"): "2210cf53d4fc3216ba77a4e586307ae48ccd5cffd6d3ccdc4cdc110e74615d10",
    ("kan", "shap_summary.csv"): "7cdc16c3cbdd14e1a5a7483995609d145b081dee8b28c1942d9b839f5bf48dac",
    ("mlp", "shap_global.json"): "b52c5830d8587f40cf74f1e70d40d41aeea11dac66292a39d9e3b14dc729ca24",
    ("mlp", "shap_heatmap.csv"): "0337afa0a5513b9e773f98b35581e6e6f41275adee645d2fe75bcf37e83675be",
    ("mlp", "shap_summary.csv"): "3aad8fe555f5f0345407f3d315f009270b483d92f2514fc8b69d658380365459",
    ("rf", "shap_global.json"): "9fa8aae5fbd419ddad877349957dceee936b5e1896798be780db271abe21e122",
    ("rf", "shap_heatmap.csv"): "a1c62944ecb995886cac17ace9b5c43b397124057ccf74107d89c8ca6aea578b",
    ("rf", "shap_summary.csv"): "ac20adec15e9b1c914ec277ad58ab00ae04ee95679e3bcd5fc4b4270206ceb9d",
}

#: The same for the published (10, 48, 48, 1) MLP, whose factored head runs
#: in blocks of 8 coalitions on this background.
PUBLISHED_MLP_EXPLAIN_SHA256 = {
    "shap_global.json": "ff1c109c9c2f3572b98d6d01d0dea21e66797f5d0ef944bb202f4c479fc75465",
    "shap_heatmap.csv": "fd1acbc6ad7aad4fd701f7ef2ae0765f97bd5183e3eac7a132a649066e184271",
    "shap_summary.csv": "a0826344feb8c7b9760b6253c9d93b5f1134e86b7b81a2913f63497be2e84fb1",
}


def test_explain_outputs_match_pinned_bytes(tmp_path):
    base = ["--out", str(tmp_path / "r")]
    assert main(["ingest", "--synthetic", "--synth-profiles", "20", "--synth-samples", "5",
                 "--synth-seed", "3", "--split-seed", "3"] + base) == 0
    for model, preset in (("rf", "published"), ("gbm", "published"), ("mlp", "quick"),
                          ("kan", "quick"), ("mlp", "published")):
        assert main(["train", "--model", model, "--preset", preset] + base) == 0
        assert main(["explain", "--model", model, "--shap-instances", "6",
                     "--shap-background", "30"] + base) == 0
        for name in ("shap_summary.csv", "shap_heatmap.csv", "shap_global.json"):
            data = (tmp_path / "r" / name).read_bytes()
            if (model, preset) == ("mlp", "published"):
                want = PUBLISHED_MLP_EXPLAIN_SHA256[name]
            else:
                want = EXPLAIN_SHA256[(model, name)]
            assert hashlib.sha256(data).hexdigest() == want, (model, preset, name)


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("model", ["mlp", "kan"])
def test_network_explain_outputs_do_not_depend_on_blas_threads(tmp_path, model, threads):
    # The networks' coalition values run through BLAS products, reused from
    # one row to the next where a coalition cannot change, and OpenBLAS reads
    # its thread count at start-up; the benchmark runs one thread and users
    # run many.
    base = ["--out", str(tmp_path / "r")]
    commands = (
        ["ingest", "--synthetic", "--synth-profiles", "20", "--synth-samples", "5",
         "--synth-seed", "3", "--split-seed", "3"],
        ["train", "--model", model, "--preset", "quick"],
        ["explain", "--model", model, "--shap-instances", "6", "--shap-background", "30"],
    )
    code = (f"from rwtkit.cli import main\nfor argv in {commands!r}:\n"
            f"    assert main(argv + {base!r}) == 0\n")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
           "PYTHONPATH": str(Path(rwtkit.__file__).parents[1])}
    subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, timeout=300,
                   check=True)
    for name in ("shap_summary.csv", "shap_heatmap.csv", "shap_global.json"):
        data = (tmp_path / "r" / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == EXPLAIN_SHA256[(model, name)], name


def test_explain_on_a_short_test_split_warns(tmp_path, capsys):
    base = ["--out", str(tmp_path / "r")]
    assert main(["ingest", "--synthetic", "--synth-profiles", "30"] + base) == 0
    assert main(["train", "--model", "cart", "--preset", "quick"] + base) == 0
    capsys.readouterr()
    assert main(["explain", "--model", "cart", "--shap-instances", "100"] + base) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("explain: 54 instances of cart")
    assert captured.err == ("rwtkit: warning: explaining 54 instances, fewer than "
                            "--shap-instances 100: the test split has no more rows\n")
    shap_global = json.loads((tmp_path / "r" / "shap_global.json").read_text())
    assert shap_global["n_instances"] == 54


#: SHA-256 of a complex-regime kan-run on 40 synthetic profiles (x86-64 Linux,
#: numpy 2.4).  Any change to spline training or snapping shows up here.
KAN_RUN_SHA256 = {
    "kan_records.jsonl": "cc5ab84a7d2cc3c457692e75b5afc465b2db5e984d0b1701e38d1af299bfaf10",
    "r2_curve.csv": "df4d301836cf2a18c7b1076e8e74b5993e3b28bec18d493cc99274e24cc92832",
}


#: The commands of that run, each followed by ``--out``.
KAN_RUN_COMMANDS = (
    ["ingest", "--synthetic", "--synth-profiles", "40"],
    ["kan-run", "--kan-regime", "complex", "--kan-ordering", "1,2", "--kan-seeds", "0",
     "--kan-steps", "100"],
)


def test_kan_run_outputs_match_pinned_bytes(tmp_path):
    base = ["--out", str(tmp_path / "r")]
    for argv in KAN_RUN_COMMANDS:
        assert main(argv + base) == 0
    for name, want in KAN_RUN_SHA256.items():
        assert hashlib.sha256((tmp_path / "r" / name).read_bytes()).hexdigest() == want, name


@pytest.mark.parametrize("threads", ["1", "2"])
def test_kan_run_records_do_not_depend_on_blas_threads(tmp_path, threads):
    # The snap ranks its grid with a BLAS matrix-vector product, and OpenBLAS
    # reads its thread count at start-up; the benchmark runs one thread and
    # users run many.
    base = ["--out", str(tmp_path / "r")]
    code = (f"from rwtkit.cli import main\nfor argv in {KAN_RUN_COMMANDS!r}:\n"
            f"    assert main(argv + {base!r}) == 0\n")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
           "PYTHONPATH": str(Path(rwtkit.__file__).parents[1])}
    subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, timeout=300,
                   check=True)
    records = (tmp_path / "r" / "kan_records.jsonl").read_bytes()
    assert hashlib.sha256(records).hexdigest() == KAN_RUN_SHA256["kan_records.jsonl"]


@pytest.mark.parametrize("module", ["scipy.cluster", "concurrent.futures.process",
                                    "multiprocessing"])
def test_cli_import_leaves_scipy_cluster_unloaded(module):
    # No command clusters with scipy (the explain heatmap orders its
    # instances in numpy, see the next test), and only explain and kan-run
    # start worker processes; importing either up front would cost every
    # command, in memory (scipy.cluster, about 30 MB) or start-up time (the
    # pool).
    env = {**os.environ, "PYTHONPATH": str(Path(rwtkit.__file__).parents[1])}
    code = f"import sys, rwtkit.cli; print({module!r} in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout.strip() == "False"


def test_explain_leaves_scipy_cluster_and_spatial_unloaded(tmp_path):
    # The heatmap's average-linkage order is computed in numpy, so a whole
    # explain run never pays for importing scipy's clustering (about 31 MB).
    env = {**os.environ, "PYTHONPATH": str(Path(rwtkit.__file__).parents[1])}
    base = ["--out", str(tmp_path / "r")]
    code = (
        "import sys\n"
        "from rwtkit.cli import main\n"
        f"assert main(['ingest', '--synthetic', '--synth-profiles', '12'] + {base!r}) == 0\n"
        f"assert main(['train', '--model', 'cart', '--preset', 'quick'] + {base!r}) == 0\n"
        f"assert main(['explain', '--model', 'cart'] + {base!r}) == 0\n"
        "print('scipy.cluster' in sys.modules, 'scipy.spatial' in sys.modules)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout.strip().splitlines()[-1] == "False False"
    assert (tmp_path / "r" / "shap_heatmap.csv").is_file()


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
    for model in MODEL_NAMES:
        assert main(["train", "--model", model, "--preset", "quick"] + base) == 0
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


#: SHA-256 of every file the quick-preset pipeline above writes (x86-64 Linux,
#: numpy 2.4).  Manifests are hashed without their ``versions`` record, which
#: names the installed libraries.  Any refactor that moves one byte of one
#: artifact shows up here.
PIPELINE_SHA256 = {
    "evaluate.manifest.json": "970cbd98e93a687661bb8700b7f1e067a2bd050063973cc29e30ec65ab8d2283",
    "explain.manifest.json": "907b9ed3f7ebb25bd2799031797dc9bb54818baffd893c33441b59455d343758",
    "ingest.manifest.json": "2a83340c7baf9dbdcc4af61c9b583645ab6b74d1fa61c985a1410fae47f06ea9",
    "ingest_notes.json": "ed1549888ecb8d2aa742079009becf8cb923ac5914a3b5211ce9d3aa7cb104d6",
    "kan_records.jsonl": "f556df30ad9fc4ef966024185c30a0bfa280d3a5833c44a426b80841a22309eb",
    "kan_run.manifest.json": "032ffeb0fabb11c1309d74903d14bd546d0207811d22ec3552b55e138a08a21e",
    "metrics.json": "3f8fc1c272bead2060b7a20d05bd687547148a4a57f3bcd240b8393e4c8794fa",
    "model_cart.json": "6393ed62dcc9e230d75fa228416b5391b3c2cd49fe03272c3839fdc1182a41d7",
    "model_gbm.json": "6901966e5292ee373cba44ab893f880248f1e4bf05b28a258a9f4060452e015b",
    "model_kan.json": "3440e02b60b7ef202eb762c09c0e13ebf1443249c2db0c9cb5b06a55fc7d470a",
    "model_mlp.json": "8826d97195dce993072dd1c9c6d35057cfa5dc582051a4a0cdf369577725dd4f",
    "model_rf.json": "f6d246a9026817eaab38156e09713a1a0df3455a34d74701c5556622b97e8af4",
    "per_reservoir.csv": "806b109b9a4fed1beede061471e5a7a2fc248539ba6a79ca091ff0d48574318d",
    "profiles.jsonl": "e2adb13948adfb42fc2442e512009829ffcf2851295da92c74fe6737bb232d19",
    "qq.csv": "f4872c13f7d878ac2b99d62077f6682b9396b0474576c3c2c405f0e8057f9791",
    "r2_curve.csv": "47793e5c6d1b520c9a0d5029396a30be5689e5d7a25a82f5050ca4e936cfa67e",
    "report.manifest.json": "4e98aae87c456e8fe4c4ab2fd34e7e9ec10e47c90a937321849547d90751243b",
    "report.md": "8bf028c6a47e6ffd79b78ef24ac78a3fbd7f522f9bf36480539e6937d567cec6",
    "scaler.json": "29cd1b7678782d03c21b68328d102bd8c2ff18f11a6baf2d3834e625674f79e6",
    "scatter.csv": "586ae0f289c6bc68d7d58d89db3fa3cf532b1b9b859e17b9a1de5ad0f4c57c47",
    "shap_global.json": "f1a2b089569c00d3e11e2f2e2fa5ef8774cecb111d1ddd9203cd67b6f8166fbc",
    "shap_heatmap.csv": "6ec7a55561276dd8085b478170b6aa81644ce76e0c1478b54424a8b7f702a595",
    "shap_summary.csv": "2ee2785b96f49a01126cb3b17cb1f38cddc1102129f63b4c1a3e27aa8c074b7c",
    "split.json": "7fc176d5ff6abe56573a94027dbb6f3343645c9c32303280cfd399331d64c309",
    "train_cart.json": "b0d0be6009052614db48b9ee9414077da026357356e75189bebbf1fb09dadc7d",
    "train_cart.manifest.json": "4f6933da199078ea15604d6b6617e58be76dede417ed95d8db0755bb7d494e35",
    "train_gbm.json": "203c6d6e94287006d732a87e6c32637d7c9d5488b07742ff7bbee8581c9769a9",
    "train_gbm.manifest.json": "689cbf236838c2975c9a3153904029fd36302afb9c0e035a408976d71437293b",
    "train_kan.json": "d976df811636cbeae0b4262def74e320194eed19f017e7a8c3c652a049ecb9e1",
    "train_kan.manifest.json": "62e291814b0646400ed9df459e0ec855d96a981ec7cf351ba65dae2f825067b9",
    "train_mlp.json": "565a86d617fa53fb5ef602bfd15828245101de83f1b0d80de9a3424d71fbb8a6",
    "train_mlp.manifest.json": "d41efb2d0fd58f3f52d8130f545590a0ab73b122283de0ca22fc17c3072618dc",
    "train_rf.json": "ea761e4301f21413778e89570761edc267f7492ad7152f292283143d5b182483",
    "train_rf.manifest.json": "affa22b676d17f678ab8f82da216d2c1041943ec19f742802d12894c2a205765",
}


def _pinned_bytes(path: Path) -> bytes:
    data = path.read_bytes()
    if path.name.endswith(".manifest.json"):
        record = json.loads(data)
        assert json.dumps(record, sort_keys=True, indent=1) + "\n" == data.decode(), path.name
        del record["versions"]
        data = (json.dumps(record, sort_keys=True, indent=1) + "\n").encode()
    return data


def test_pipeline_artifacts_exist(pipeline_dir):
    assert sorted(p.name for p in pipeline_dir.iterdir()) == sorted(PIPELINE_SHA256)
    for name, want in PIPELINE_SHA256.items():
        assert hashlib.sha256(_pinned_bytes(pipeline_dir / name)).hexdigest() == want, name


#: The label columns of each CSV artifact but the heatmap; every other cell
#: is a number.
CSV_LABEL_COLUMNS = {
    "per_reservoir.csv": ("reservoir", "model"),
    "qq.csv": (),
    "r2_curve.csv": (),
    "scatter.csv": ("reservoir", "date", "site"),
    "shap_summary.csv": ("feature", "instance"),
}


def _is_na_or_finite(cell: str) -> bool:
    try:
        return cell == "NA" or math.isfinite(float(cell))
    except ValueError:
        return False


def test_csv_number_cells_are_na_or_finite_floats(pipeline_dir):
    names = sorted(p.name for p in pipeline_dir.glob("*.csv"))
    assert names == sorted([*CSV_LABEL_COLUMNS, "shap_heatmap.csv"])
    cells = []
    for name, labels in CSV_LABEL_COLUMNS.items():
        with (pipeline_dir / name).open(newline="") as fh:
            cells += [(name, key, cell) for row in csv.DictReader(fh)
                      for key, cell in row.items() if key not in labels]
    # The heatmap's rows start with a label; its global_importance trailer
    # has a header line of its own.
    heatmap = (pipeline_dir / "shap_heatmap.csv").read_text().splitlines()
    cut = heatmap.index("global_importance")
    assert heatmap[cut + 1] == "feature,importance,percentage"
    cells += [("shap_heatmap.csv", line.split(",")[0], cell)
              for line in heatmap[1:cut] + heatmap[cut + 2:] for cell in line.split(",")[1:]]
    assert {name for name, _, _ in cells} == set(names)
    assert [c for c in cells if not _is_na_or_finite(c[2])] == []


def test_metrics_artifact_is_well_formed(pipeline_dir):
    summary = json.loads((pipeline_dir / "metrics.json").read_text())
    assert list(summary) == sorted(MODEL_NAMES)
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


def test_non_finite_csv_value_is_schema_mismatch(csv_inputs, tmp_path, capsys):
    obs, daily, morph = csv_inputs
    lines = obs.read_text().splitlines()
    lines[3] = lines[3].rsplit(",", 1)[0] + ",nan"
    obs.write_text("\n".join(lines) + "\n")
    out = tmp_path / "run"
    capsys.readouterr()
    rc = main(["ingest", "--observations", str(obs), "--daily", str(daily),
               "--morphometry", str(morph), "--out", str(out)])
    assert rc == 1
    record = json.loads(capsys.readouterr().err)
    assert record == {"error": "SchemaMismatch", "message": "line 4: bad temp_c value 'nan'"}
    assert not (out / "profiles.jsonl").exists()


def test_kan_run_with_constant_test_targets_has_no_curve(tmp_path, capsys):
    # One reservoir and three profiles; the isothermal one is the whole test
    # split, so no record has a test r2 and the curve has no rows.
    obs = ["reservoir_id,date,site_id,depth_m,temp_c"]
    for day in (10, 11, 12):
        for depth in (0.5, 2.0, 5.0, 9.0):
            temp = 10.0 if day == 10 else 20.0 - 0.9 * depth + 0.3 * (day - 10)
            obs.append(f"alpha,2020-06-{day},s1,{depth},{temp}")
    daily = ["reservoir_id,date,air_temp_c,prcp_mm,wind_ms,vol_lake,inflow_lake"]
    daily += [f"alpha,2020-06-{day:02d},{15 + 0.2 * day},1.5,3.0,2.0e6,4.0" for day in range(1, 15)]
    morph = ["reservoir_id,surface_area_m2,max_depth_m", "alpha,5.0e6,30.0"]
    for name, lines in (("obs", obs), ("daily", daily), ("morph", morph)):
        (tmp_path / f"{name}.csv").write_text("\n".join(lines) + "\n")
    out = tmp_path / "run"
    base = ["--out", str(out)]
    assert main(["ingest", "--observations", str(tmp_path / "obs.csv"),
                 "--daily", str(tmp_path / "daily.csv"),
                 "--morphometry", str(tmp_path / "morph.csv")] + base) == 0
    assert json.loads((out / "split.json").read_text())["test"] == [["alpha", "2020-06-10", "s1"]]
    capsys.readouterr()
    assert main(["kan-run", "--kan-ordering", "1,2", "--kan-seeds", "0", "--kan-steps", "20"]
                + base) == 0
    assert capsys.readouterr().out == "kan-run: 2 runs, test r2 undefined\n"
    records = [json.loads(line) for line in (out / "kan_records.jsonl").read_text().splitlines()]
    assert [r["r2_test"] for r in records] == [None, None]
    assert (out / "r2_curve.csv").read_text() == "n_inputs,mean_r2_test,n_seeds\n"
    assert main(["report"] + base) == 0
    report = (out / "report.md").read_text()
    assert "- test r2 undefined: every test target is the same value\n" in report
    assert "mean test r2 |" not in report


def test_file_ingest_requires_all_paths(tmp_path, capsys):
    rc = main(["ingest", "--observations", "obs.csv", "--out", str(tmp_path / "r")])
    assert rc == 2
    assert "daily" in capsys.readouterr().err
