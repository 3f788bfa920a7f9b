"""Batch command surface for the temperature-profile pipeline.

Commands operate on a run directory: ``ingest`` materializes profiles, the
scaler, and the train/test split there; ``train`` adds model files;
``evaluate``, ``explain``, and ``kan-run`` add metric tables, attribution
exports, and the inputs-vs-accuracy experiment; ``report`` assembles a
markdown summary of whatever exists.  ``eq`` works on the built-in equation
bank and needs no run directory.

Everything is deterministic for a fixed config: outputs carry no
timestamps, floats are written with round-trip precision, JSON keys are
sorted, and manifests reference files by name only, so rerunning a command
with the same config and inputs reproduces every artifact byte for byte.
Exit codes: 0 success, 1 runtime failure (a JSON error record goes to
stderr), 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import hashlib
import json
import math
import operator
import platform
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import scipy

from . import __version__
from .dataset import (
    ProfileSet,
    SplitPlan,
    attach_covariates,
    design_matrix,
    parse_daily,
    parse_morphometry,
    parse_observations,
    split_profiles,
    synth_generate,
)
from .equation_bank import SET_NAMES, load_bank
from .errors import NotFound, RwtError, SchemaMismatch
from .features import MIN_PROFILE_SAMPLES, Feature, ObservationProfile, Scaler, scaler_fit
from .kan import REGIMES, incremental_experiment, kan_init, kan_train, regime_layout
from .metrics import metrics, per_group_metrics, quantile_compare
from .mlp import mlp_init, mlp_train
from .serialize import csv_text, from_state, load_model, reading, record, save_model, to_state
from .shapley import BackgroundSet, export_heatmap, export_summary, shap_batch, shap_global
from .trees import BoostParams, ForestParams, TreeParams, gbm_fit, rf_fit, tree_fit

__all__ = ["main", "RunConfig", "load_run_config"]

MODEL_NAMES = ("cart", "rf", "gbm", "mlp", "kan")

#: Each model kind's settings at each preset, recorded as the ``params`` of
#: ``train_<model>.json``.  The network settings a kan preset leaves out come
#: from the run config.
_PRESET_PARAMS = {
    "published": {
        "cart": {"max_depth": 30},
        "rf": {"n_estimators": 100, "max_features": 4, "max_depth": 30},
        "gbm": {"n_estimators": 600, "learning_rate": 0.01, "max_depth": 9, "gamma": 0.3},
        "mlp": {"layout": [len(Feature), 48, 48, 1], "epochs": 1000, "batch_size": 32,
                "learning_rate": 0.01},
        "kan": {},
    },
    "quick": {
        "cart": {"max_depth": 6},
        "rf": {"n_estimators": 20, "max_features": 4, "max_depth": 10},
        "gbm": {"n_estimators": 60, "learning_rate": 0.1, "max_depth": 3, "gamma": 0.0},
        "mlp": {"layout": [len(Feature), 16, 1], "epochs": 100, "batch_size": 32,
                "learning_rate": 0.01},
        "kan": {"steps": 300},
    },
}

#: Display rule for humans (report, eq eval): 12 significant digits, enough
#: to tell values apart without echoing last-ulp binary noise.  Machine
#: artifacts use the float rule of :mod:`rwtkit.serialize` instead.
DISPLAY_DIGITS = ".12g"


class ConfigError(ValueError):
    """Bad run configuration; reported as a usage error (exit 2)."""


#: The test of each comparison a bound may make.
_TESTS = {">=": operator.ge, ">": operator.gt, "<=": operator.le, "<": operator.lt}


@dataclass(frozen=True)
class Domain:
    """The values an option may take, and so each artifact field echoing it: of
    type ``kind``, finite if a float, within each of the ``bounds``, written as
    they read (``">= 0"``), and one of the ``choices`` if there are any."""

    kind: type = str
    bounds: tuple[str, ...] = ()
    choices: tuple[str, ...] = ()

    def check(self, name: str, value) -> None:
        if type(value) not in ((int, float) if self.kind is float else (self.kind,)):
            admitted = False
        elif self.choices:
            admitted = value in self.choices
        else:
            admitted = (self.kind is not float or math.isfinite(value)) and all(
                _TESTS[sign](value, float(bound)) for sign, bound in map(str.split, self.bounds))
        if not admitted:
            raise ConfigError(f"{name} must be {self.text() or 'a ' + self.kind.__name__}, "
                              f"got {value!r}")

    def text(self) -> str:
        """What the domain asks beyond the kind, as it reads after "must be"."""
        if self.choices:
            return "one of " + "|".join(self.choices)
        return " and ".join(["finite"] * (self.kind is float) + list(self.bounds))

    def parse(self, name: str, text: str):
        """``text`` as a value of this kind, checked against the domain."""
        words = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}
        try:
            value = words[text.lower()] if self.kind is bool else self.kind(text)
        except (KeyError, ValueError):
            noun = {bool: "a boolean", int: "an integer", float: "a number"}[self.kind]
            raise ConfigError(f"{name}: expected {noun}, got {text!r}")
        self.check(name, value)
        return value


def _option(default, *bounds, choices=()):
    """A run-config field: its default and its :class:`Domain`."""
    return field(default=default, metadata={"domain": Domain(type(default), bounds, choices)})


@dataclass
class RunConfig:
    """Everything a pipeline run needs, file-loadable and flag-overridable."""

    observations: str = _option("")
    daily: str = _option("")
    morphometry: str = _option("")
    synthetic: bool = _option(False)
    synth_profiles: int = _option(120, ">= 1")
    synth_samples: int = _option(6, f">= {MIN_PROFILE_SAMPLES}")
    synth_noise: float = _option(0.02, ">= 0")
    synth_reservoirs: int = _option(3, ">= 1")
    synth_seed: int = _option(11, ">= 0")
    scaler_mode: str = _option("fixed", choices=Scaler.MODES)
    split_ratio: float = _option(0.70, "> 0", "< 1")
    split_seed: int = _option(42, ">= 0")
    model: str = _option("rf", choices=MODEL_NAMES)
    preset: str = _option("published", choices=tuple(_PRESET_PARAMS))
    model_seed: int = _option(0, ">= 0")
    shap_instances: int = _option(20, ">= 1")
    shap_background: int = _option(64, ">= 1")
    kan_regime: str = _option("simple", choices=tuple(REGIMES))
    kan_ordering: str = _option("")
    kan_seeds: str = _option("0,1,2")
    kan_steps: int = _option(1200, ">= 1")
    kan_lr: float = _option(0.5, "> 0")
    kan_lam: float = _option(1e-3, ">= 0")
    kan_grid: int = _option(8, ">= 4")  # the fewest a cubic spline basis takes
    out: str = _option("run")

    def validate(self) -> None:
        for f in dataclasses.fields(self):
            f.metadata["domain"].check(f.name, getattr(self, f.name))
        self.kan_seed_list()
        self.kan_ordering_list()

    def kan_seed_list(self) -> tuple[int, ...]:
        seeds = _items("kan_seeds", self.kan_seeds, _DOMAINS["model_seed"])
        if not seeds:
            raise ConfigError("kan_seeds is empty")
        return seeds

    def kan_ordering_list(self) -> tuple[int, ...]:
        """0-based feature columns in experiment order; empty means canonical."""
        numbers = _items("kan_ordering", self.kan_ordering,
                         Domain(int, (">= 1", f"<= {len(Feature)}")))
        if len(set(numbers)) < len(numbers):
            raise ConfigError(f"kan_ordering must name each feature once, got {numbers}")
        return tuple(v - 1 for v in numbers) or tuple(range(len(Feature)))


def _items(name: str, text: str, domain: Domain) -> tuple:
    """The comma-separated values of ``text``, each checked against ``domain``."""
    return tuple(domain.parse(name, item) for item in text.split(",") if item.strip())


_DOMAINS = {f.name: f.metadata["domain"] for f in dataclasses.fields(RunConfig)}


def load_run_config(path: str | None, overrides: dict) -> RunConfig:
    """Config file (``key = value`` lines, ``#`` comments) plus overrides.

    Flags win over the file, and a flag's text is read as a file value is.
    Unknown keys anywhere are rejected; every value must be in its :class:`Domain`.
    """
    cfg = RunConfig()
    if path is not None:
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}")
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value, got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _DOMAINS:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            setattr(cfg, key, _DOMAINS[key].parse(key, value))
    for key, value in overrides.items():
        if value is None:
            continue
        if key not in _DOMAINS:
            raise ConfigError(f"unknown config key {key!r}")
        setattr(cfg, key, _DOMAINS[key].parse(key, value) if isinstance(value, str) else value)
    cfg.validate()
    return cfg


# --- deterministic artifact writing -----------------------------------------


def _json_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"


def _joined(lines: list[str]) -> str:
    """Lines of a text artifact (JSON lines or markdown) as one text."""
    return "\n".join(lines) + "\n"


def _jsonl(docs) -> str:
    """JSON lines: one compact line per document, its floats by the float rule."""
    return _joined([json.dumps(record(doc), sort_keys=True, separators=(",", ":")) for doc in docs])


def _manifest_config(cfg: RunConfig) -> dict:
    """Config as recorded in manifests.

    The output directory is where the manifest itself lives, so recording
    its path would make otherwise-identical runs differ byte-wise; it is
    dropped rather than written.
    """
    record = dataclasses.asdict(cfg)
    del record["out"]
    return record


def _config_sha256(cfg: RunConfig) -> str:
    canon = json.dumps(_manifest_config(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _emit(cfg: RunConfig, command: str, seed: int, artifacts: dict[str, str | None]) -> None:
    """Write each artifact into the run directory, then the command's manifest.

    A ``None`` text names a file the command has already written itself.
    The manifest is ``<command>.manifest.json`` with ``-`` spelled ``_``,
    except that each model kind has its own ``train_<model>.manifest.json``.
    """
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in artifacts.items():
        if text is not None:
            (out_dir / name).write_text(text)
    stem = f"train_{cfg.model}" if command == "train" else command.replace("-", "_")
    manifest = {
        "command": command,
        "config": _manifest_config(cfg),
        "config_sha256": _config_sha256(cfg),
        "seed": seed,
        "artifacts": sorted(artifacts),
        "versions": {
            "rwtkit": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
    }
    (out_dir / f"{stem}.manifest.json").write_text(_json_dumps(manifest))


def _disp(value) -> str:
    """A float, or its repr string as an artifact holds it, for humans; ``None`` is NA."""
    return "NA" if value is None else format(float(value), DISPLAY_DIGITS)


def _md_table(header: list[str], rows) -> list[str]:
    """A markdown table: the header, its rule, then one line per row of cells."""
    lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    lines.extend("| " + " | ".join(str(cell) for cell in row) + " |" for row in rows)
    return lines


# --- run-directory artifacts -------------------------------------------------


def _profiles_jsonl(profile_set: ProfileSet) -> str:
    return _jsonl({
        "reservoir": p.reservoir_id,
        "date": p.date.isoformat(),
        "site": p.site_id,
        "samples": p.samples,
        "covariates": {f.name: v for f, v in p.covariates.items()},
    } for p in profile_set.profiles)


def _parse_profiles(docs: list) -> ProfileSet:
    return ProfileSet(tuple(ObservationProfile(
        reservoir_id=rec["reservoir"],
        date=datetime.date.fromisoformat(rec["date"]),
        site_id=rec["site"],
        samples=tuple((float(d), float(t)) for d, t in rec["samples"]),
        covariates={Feature[k]: float(v) for k, v in rec["covariates"].items()},
    ) for rec in docs))


def _parse_split(doc: dict) -> SplitPlan:
    train, test = (tuple((r, d, s) for r, d, s in doc[side]) for side in ("train", "test"))
    return SplitPlan(train=train, test=test, ratio=doc["ratio"], seed=doc["seed"])


def _metrics_section(doc: dict) -> list[str]:
    return ["## Test metrics (degC)", "", *_md_table(["model", "rmse", "mae", "r2"], [
        (name, _disp(row["rmse_c"]), _disp(row["mae_c"]), _disp(row["r2"]))
        for name, row in sorted(doc.items())])]


def _attribution_section(doc: dict) -> list[str]:
    if sorted(doc["importance"]) != sorted(f.name for f in Feature):
        raise ValueError("importance does not name each of the ten features once")
    ranked = sorted(doc["importance"].items(), key=lambda kv: kv[1]["rank"])
    return [f"## Attribution ({doc['model']}, {doc['n_instances']} instances)", "",
            *_md_table(["rank", "feature", "mean abs value", "share"], [
                (row["rank"], name, _disp(row["mean_abs_shap"]),
                 "NA" if row["percentage"] is None else _disp(row["percentage"]) + "%")
                for name, row in ranked])]


def _curve_section(rows: list) -> list[str]:
    table = _md_table(["inputs", "mean test r2"],
                      [(row["n_inputs"], _disp(row["mean_r2_test"])) for row in rows])
    undefined = ["- test r2 undefined: every test target is the same value"]
    return ["## Accuracy vs number of inputs", "", *(table if rows else undefined)]


class _Artifact(NamedTuple):
    """The command that writes an artifact; the domain of each top-level JSON key
    or CSV column, ``None`` where ``decode`` checks it; the decoder of the checked
    document (or list of lines or rows), which for a file only report reads gives
    its report section; and the keys a file may lack."""

    writer: str
    fields: dict
    decode: Callable = lambda doc: doc
    optional: tuple[str, ...] = ()


#: Every JSON and CSV artifact a command reads back.  The model files are in
#: format 1, which only :func:`load_model` reads, so they declare no fields.
_ARTIFACTS = {
    **{f"model_{m}.json": _Artifact(f"train --model {m}", None) for m in MODEL_NAMES},
    "profiles.jsonl": _Artifact("ingest", dict.fromkeys(
        ("covariates", "date", "reservoir", "samples", "site")), _parse_profiles),
    "split.json": _Artifact("ingest", {
        "ratio": _DOMAINS["split_ratio"], "seed": _DOMAINS["split_seed"], "test": None,
        "train": None}, _parse_split),
    "scaler.json": _Artifact("ingest", {
        **dict.fromkeys(f.name for f in dataclasses.fields(Scaler)),
        "mode": _DOMAINS["scaler_mode"]}, lambda doc: from_state(Scaler, doc)),
    "ingest_notes.json": _Artifact("ingest", {
        "noise_sigma": Domain(str), "rejected_profiles": None, "truth": Domain(str),
        "source": Domain(str, choices=("files", "synthetic"))}, optional=("noise_sigma", "truth")),
    "metrics.json": _Artifact("evaluate", dict.fromkeys(MODEL_NAMES), _metrics_section),
    "shap_global.json": _Artifact("explain", {
        "background_rows": _DOMAINS["shap_background"], "importance": None,
        "model": _DOMAINS["model"], "n_instances": Domain(int, (">= 0",))}, _attribution_section),
    "r2_curve.csv": _Artifact("kan-run", {
        "n_inputs": Domain(int, (">= 1",)), "mean_r2_test": Domain(float),
        "n_seeds": Domain(int, (">= 1",))}, _curve_section),
}


def _read(out_dir: Path, name: str):
    """One artifact of the run directory, checked against its schema and decoded.

    A missing file is :class:`NotFound`, naming the command that writes it; one
    that does not parse, lacks a field or holds a value outside its domain is
    :class:`SchemaMismatch`."""
    writer, fields, decode, optional = _ARTIFACTS[name]
    path = out_dir / name
    if not path.exists():
        raise NotFound(f"{path} missing; run {writer} first")
    if fields is None:
        return load_model(path)
    with reading(path):
        text = path.read_text()
        if name.endswith(".csv"):
            header, *rows = text.splitlines()
            if header != ",".join(fields):
                raise ValueError(f"header {header!r} is not {','.join(fields)!r}")
            docs = [{key: fields[key].parse(key, cell)
                     for key, cell in zip(fields, row.split(","), strict=True)} for row in rows]
        elif name.endswith(".jsonl"):
            docs = [json.loads(line) for line in text.splitlines()]
        else:
            docs = [json.loads(text)]
        for doc in docs:
            for key, domain in fields.items():
                if domain is not None and (key not in optional or key in doc):
                    domain.check(key, doc[key])
        return decode(docs[0] if name.endswith(".json") else docs)


def _profiles_and_split(out_dir: Path) -> tuple[ProfileSet, SplitPlan]:
    """The ingested profiles and split plan, checked to agree.

    A split plan has two non-empty sides, so with every key present
    neither side of the design matrix comes out empty.
    """
    profile_set = _read(out_dir, "profiles.jsonl")
    plan = _read(out_dir, "split.json")
    missing = sorted(set(plan.train + plan.test) - set(profile_set.keys()))
    if missing:
        raise SchemaMismatch(f"{out_dir / 'split.json'} names {len(missing)} profiles absent "
                             f"from {out_dir / 'profiles.jsonl'}, first {list(missing[0])}")
    return profile_set, plan


def _normalized_split(out_dir: Path):
    """(train x/y, test x/y, scaler, test matrix) in normalized space."""
    profile_set, plan = _profiles_and_split(out_dir)
    scaler = _read(out_dir, "scaler.json")
    dm = design_matrix(profile_set)
    train = dm.subset(plan.train)
    test = dm.subset(plan.test)
    xtr, ytr, _ = train.normalized(scaler)
    xte, yte, _ = test.normalized(scaler)
    return xtr, ytr, xte, yte, scaler, test


# --- commands ----------------------------------------------------------------


def cmd_ingest(cfg: RunConfig) -> None:
    if cfg.synthetic:
        synth = synth_generate(
            n_profiles=cfg.synth_profiles,
            samples_per_profile=cfg.synth_samples,
            noise_sigma=cfg.synth_noise,
            seed=cfg.synth_seed,
            n_reservoirs=cfg.synth_reservoirs,
        )
        profile_set = synth.profile_set
        plan = split_profiles(profile_set, ratio=cfg.split_ratio, seed=cfg.split_seed)
        scaler = synth.scaler
        source_note = {
            "source": "synthetic",
            "truth": synth.truth_text,
            "noise_sigma": float(cfg.synth_noise),
        }
    else:
        for name in ("observations", "daily", "morphometry"):
            if not getattr(cfg, name):
                raise ConfigError(f"{name} path is required without synthetic = true")
        result = parse_observations(cfg.observations)
        daily = parse_daily(cfg.daily)
        morphometry = parse_morphometry(cfg.morphometry)
        profile_set = attach_covariates(result.profile_set, daily, morphometry)
        plan = split_profiles(profile_set, ratio=cfg.split_ratio, seed=cfg.split_seed)
        if cfg.scaler_mode == "fixed":
            scaler = scaler_fit(None, None, mode="fixed")
        else:
            train_dm = design_matrix(profile_set).subset(plan.train)
            scaler = scaler_fit(train_dm.x_raw, train_dm.y_temp_c, mode="from_data")
        source_note = {
            "source": "files",
            "rejected_profiles": [
                {"key": list(key), "reason": reason} for key, reason in result.rejected
            ],
        }
    _emit(cfg, "ingest", cfg.synth_seed if cfg.synthetic else cfg.split_seed, {
        "profiles.jsonl": _profiles_jsonl(profile_set),
        "scaler.json": _json_dumps(to_state(scaler)),
        "split.json": _json_dumps(dataclasses.asdict(plan)),
        "ingest_notes.json": _json_dumps(record(source_note)),
    })
    print(f"ingest: {len(profile_set)} profiles, {len(plan.train)} train / {len(plan.test)} test")


def _fit_model(cfg: RunConfig, xtr: np.ndarray, ytr: np.ndarray):
    """Model, its training settings and its loss trace under the trace's name.

    The fitters are looked up by their names in this module at call time,
    and the epoch and step counts passed by keyword, so a profiler can wrap
    them.
    """
    seed = cfg.model_seed
    params = dict(_PRESET_PARAMS[cfg.preset][cfg.model])
    if cfg.model == "kan":
        params = {"layout": list(regime_layout(cfg.kan_regime, len(Feature))),
                  "grid_size": cfg.kan_grid, "steps": cfg.kan_steps,
                  "learning_rate": cfg.kan_lr, "lam": cfg.kan_lam, **params}
    traces = {}
    if cfg.model == "cart":
        model = tree_fit(xtr, ytr, TreeParams(**params))
    elif cfg.model == "rf":
        model = rf_fit(xtr, ytr, ForestParams(**params, seed=seed))
    elif cfg.model == "gbm":
        model = gbm_fit(xtr, ytr, BoostParams(**params, seed=seed))
        traces["train_mse"] = model.train_mse
    elif cfg.model == "mlp":
        model, traces["loss_trace"] = mlp_train(
            mlp_init(tuple(params["layout"]), seed=seed), xtr, ytr, epochs=params["epochs"],
            batch_size=params["batch_size"], learning_rate=params["learning_rate"], seed=seed,
        )
        params["dropout_rate"] = model.dropout_rate
    else:
        model, traces["loss_trace"] = kan_train(
            kan_init(tuple(params["layout"]), grid_size=params["grid_size"], seed=seed), xtr, ytr,
            steps=params["steps"], learning_rate=params["learning_rate"], lam=params["lam"],
        )
    return model, params, traces


def cmd_train(cfg: RunConfig) -> None:
    out_dir = Path(cfg.out)
    xtr, ytr, _, _, scaler, _ = _normalized_split(out_dir)
    model, params, traces = _fit_model(cfg, xtr, ytr)
    pred_c = scaler.invert_target(model.predict(xtr))
    true_c = scaler.invert_target(ytr)
    scores = metrics(true_c, pred_c)
    doc = record({**traces, "model": cfg.model, "preset": cfg.preset, "seed": cfg.model_seed,
                  "n_train": len(ytr), "train_rmse_c": scores.rmse, "train_mae_c": scores.mae,
                  "train_r2": scores.r2})
    model_file = f"model_{cfg.model}.json"
    save_model(model, out_dir / model_file)
    _emit(cfg, "train", cfg.model_seed,
          {model_file: None, f"train_{cfg.model}.json": _json_dumps({**doc, "params": params})})
    print(f"train: {cfg.model} ({cfg.preset}) rmse {_disp(scores.rmse)} degC on train")


def _discover_models(out_dir: Path) -> dict[str, object]:
    models = {name: _read(out_dir, f"model_{name}.json") for name in MODEL_NAMES
              if (out_dir / f"model_{name}.json").exists()}
    if not models:
        raise NotFound(f"no model files in {out_dir}; run train first")
    return models


def cmd_evaluate(cfg: RunConfig) -> None:
    out_dir = Path(cfg.out)
    _, _, xte, yte, scaler, test = _normalized_split(out_dir)
    models = _discover_models(out_dir)
    true_c = scaler.invert_target(yte)
    preds_c = {name: scaler.invert_target(m.predict(xte)) for name, m in models.items()}

    scores = {name: metrics(true_c, preds_c[name]) for name in sorted(preds_c)}
    summary = {name: {"rmse_c": s.rmse, "mae_c": s.mae, "r2": s.r2, "n_test": len(true_c)}
               for name, s in scores.items()}
    reservoirs = [key[0] for key in test.keys]
    per_reservoir = [(row.group, row.model, row.scores.rmse, row.scores.mae, row.scores.r2,
                      row.best_r2, row.best_rmse)
                     for row in per_group_metrics(reservoirs, true_c, preds_c)]

    primary = cfg.model if cfg.model in preds_c else sorted(preds_c)[0]
    pred_primary = preds_c[primary]
    depths = test.x_raw[:, Feature.depth_measure.column]
    scatter = [(*key, depth, obs, pred, 0.9 * obs, 1.1 * obs)
               for key, depth, obs, pred in zip(test.keys, depths, true_c, pred_primary)]
    qq = map(dataclasses.astuple, quantile_compare(true_c, pred_primary))

    _emit(cfg, "evaluate", cfg.split_seed, {
        "metrics.json": _json_dumps(record(summary)),
        "per_reservoir.csv": csv_text(
            ("reservoir", "model", "rmse_c", "mae_c", "r2", "best_r2", "best_rmse"), per_reservoir),
        "scatter.csv": csv_text(("reservoir", "date", "site", "depth_m", "observed_c",
                                 "predicted_c", "bound_lo_c", "bound_hi_c"), scatter),
        "qq.csv": csv_text(("probability", "observed_c", "predicted_c"), qq),
    })
    for name, s in scores.items():
        print(f"evaluate: {name} rmse {_disp(s.rmse)} degC, r2 {_disp(s.r2)}")


def cmd_explain(cfg: RunConfig) -> None:
    out_dir = Path(cfg.out)
    xtr, _, xte, _, _, _ = _normalized_split(out_dir)
    model = _read(out_dir, f"model_{cfg.model}.json")
    background = BackgroundSet(xtr).subsample(cfg.shap_background, seed=cfg.model_seed)
    instances = xte[: cfg.shap_instances]
    if len(instances) < cfg.shap_instances:
        print(f"rwtkit: warning: explaining {len(instances)} instances, fewer than "
              f"--shap-instances {cfg.shap_instances}: the test split has no more rows",
              file=sys.stderr)
    explanations = shap_batch(model, instances, background)
    g = shap_global(explanations)
    importance = {
        Feature(col + 1).name: {
            "rank": rank,
            "mean_abs_shap": g.importance[col],
            "percentage": None if g.percentages is None else g.percentages[col],
        }
        for rank, col in enumerate(g.ranking, start=1)
    }
    _emit(cfg, "explain", cfg.model_seed, {
        "shap_summary.csv": export_summary(explanations),
        "shap_heatmap.csv": export_heatmap(explanations),
        "shap_global.json": _json_dumps(record({
            "model": cfg.model, "n_instances": len(explanations),
            "background_rows": len(background), "importance": importance})),
    })
    top = Feature(g.ranking[0] + 1).name
    print(f"explain: {len(explanations)} instances of {cfg.model}, top feature {top}")


def cmd_kan_run(cfg: RunConfig) -> None:
    xtr, ytr, xte, yte, _, _ = _normalized_split(Path(cfg.out))
    ordering = cfg.kan_ordering_list()
    records = incremental_experiment(
        xtr,
        ytr,
        xte,
        yte,
        ordering=ordering,
        regime=cfg.kan_regime,
        seeds=cfg.kan_seed_list(),
        grid_size=cfg.kan_grid,
        steps=cfg.kan_steps,
        learning_rate=cfg.kan_lr,
        lam=cfg.kan_lam,
    )
    docs = [dataclasses.asdict(r) for r in records]
    for doc in docs:
        doc["expression"] = doc.pop("expression_text")
    by_k: dict[int, list[float]] = {}
    for r in records:
        if r.r2_test is not None:
            by_k.setdefault(r.n_inputs, []).append(r.r2_test)
    curve = [(k, np.mean(by_k[k]), len(by_k[k])) for k in sorted(by_k)]
    _emit(cfg, "kan-run", cfg.model_seed, {
        "kan_records.jsonl": _jsonl(docs),
        "r2_curve.csv": csv_text(_ARTIFACTS["r2_curve.csv"].fields, curve),
    })
    if not by_k:  # every test target is the same value
        print(f"kan-run: {len(records)} runs, test r2 undefined")
        return
    last = max(by_k)
    print(f"kan-run: {len(records)} runs, mean test r2 at {last} inputs "
          f"{_disp(np.mean(by_k[last]))}")


def cmd_eq(args) -> None:
    bank = load_bank()
    if args.eq_command == "list":
        print("set,n_inputs,r2")
        for entry in bank.entries:
            print(f"{entry.set_name},{entry.n_inputs},{entry.r2_text}")
        return
    entry = bank.get(args.set, args.inputs)
    if args.eq_command == "show":
        print(entry.expression_text)
        return
    supplied = {i: getattr(args, f"x{i}") for i in range(1, len(Feature) + 1)}
    values = {i: Domain(float).parse(f"x{i}", text)
              for i, text in supplied.items() if text is not None}
    print(_disp(entry.evaluate(values)))


def _published_reference_lines(bank) -> list[str]:
    lines = [
        "Published reference values (from the source equation tables; not locally",
        "reproduced -- the originating dataset is not distributed):",
        "",
    ]
    return lines + _md_table(["set", "inputs", "published r2"],
                             [(e.set_name, e.n_inputs, e.r2_text) for e in bank.entries])


def cmd_report(cfg: RunConfig) -> None:
    out_dir = Path(cfg.out)
    bank = load_bank()
    lines = ["# Run report", "", f"Config sha256: `{_config_sha256(cfg)}`", "", "## Dataset", ""]
    if not (out_dir / "ingest_notes.json").exists():
        lines.append("- no ingest artifacts in this directory")
    else:
        notes = _read(out_dir, "ingest_notes.json")
        profile_set, plan = _profiles_and_split(out_dir)
        lines.append(f"- source: {notes['source']}")
        if "truth" in notes:
            lines.append(f"- generating truth (normalized space): `{notes['truth']}`")
        if "noise_sigma" in notes:
            lines.append(f"- noise sigma: {notes['noise_sigma']}")
        lines.append(f"- profiles: {len(profile_set)} "
                     f"({len(plan.train)} train / {len(plan.test)} test)")
    lines.append("")

    for name in ("metrics.json", "shap_global.json", "r2_curve.csv"):
        if (out_dir / name).exists():
            lines += [*_read(out_dir, name), ""]

    lines.append("## Reference equations")
    lines.append("")
    lines.extend(_published_reference_lines(bank))
    lines.append("")
    _emit(cfg, "report", cfg.split_seed, {"report.md": _joined(lines)})
    print(f"report: wrote {out_dir / 'report.md'}")


# --- argument parsing ---------------------------------------------------------


#: Each run-directory command: its handler, the run-config keys it takes as
#: flags (in ``--help`` order) and its one-line help.  ``eq`` works without a
#: run directory and has its own sub-parser.
_COMMANDS = {
    "ingest": (cmd_ingest, ("out", "observations", "daily", "morphometry", "synthetic",
                            "synth_profiles", "synth_samples", "synth_noise", "synth_reservoirs",
                            "synth_seed", "scaler_mode", "split_ratio", "split_seed"),
               "parse or generate profiles; write scaler and split"),
    "train": (cmd_train, ("out", "model", "preset", "model_seed", "kan_regime", "kan_steps",
                          "kan_lr", "kan_lam", "kan_grid"),
              "fit one model on the training split"),
    "evaluate": (cmd_evaluate, ("out", "model"), "score trained models on the test split"),
    "explain": (cmd_explain, ("out", "model", "model_seed", "shap_instances", "shap_background"),
                "exact per-instance attributions for one model"),
    "kan-run": (cmd_kan_run, ("out", "kan_regime", "kan_ordering", "kan_seeds", "kan_steps",
                              "kan_lr", "kan_lam", "kan_grid", "model_seed"),
                "inputs-vs-accuracy experiment with snapping"),
    "report": (cmd_report, ("out", "model"), "assemble a markdown report from run artifacts"),
}

#: Help for the flags whose name and domain do not say all they do.
_FLAG_HELP = {
    "shap_instances": "explain at most this many rows, the first ones of the test split",
    "kan_ordering": "distinct feature numbers 1..10, comma-separated; empty means 1..10",
    "kan_seeds": "seeds >= 0, comma-separated",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rwtkit",
        description="Reservoir water temperature pipeline: features, models, "
        "attribution, and symbolic distillation.",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    for command, (_, keys, help_text) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", metavar="FILE", help="key = value configuration file")
        for key in keys:
            flag, domain = "--" + key.replace("_", "-"), _DOMAINS[key]
            if domain.kind is bool:
                p.add_argument(flag, dest=key, action="store_const", const=True)
                continue
            help_text = "; ".join(filter(None, (domain.text(), _FLAG_HELP.get(key))))
            p.add_argument(flag, dest=key, help=help_text or None)

    p = sub.add_parser("eq", help="inspect or evaluate the built-in equation bank")
    eq_sub = p.add_subparsers(dest="eq_command", metavar="ACTION")
    eq_sub.add_parser("list", help="all entries with published r2")
    show = eq_sub.add_parser("show", help="print one expression")
    show.add_argument("--set", required=True, choices=SET_NAMES)
    show.add_argument("--inputs", required=True, type=int)
    ev = eq_sub.add_parser("eval", help="evaluate one expression")
    ev.add_argument("--set", required=True, choices=SET_NAMES)
    ev.add_argument("--inputs", required=True, type=int)
    for i in range(1, len(Feature) + 1):
        ev.add_argument(f"--x{i}", metavar="FLOAT")
    return parser


def _is_number(word: str) -> bool:
    try:
        float(word)
    except ValueError:
        return False
    return True


def _joined_flag_values(argv: list[str]) -> list[str]:
    """``argv`` with each number that starts with ``-`` joined to the flag before
    it, ``--x1 -1e3`` as ``--x1=-1e3``: argparse takes such a word for an option
    unless it is a plain number like ``-1``."""
    words = []
    for word in argv:
        flag = words[-1] if words else ""
        if flag.startswith("--") and "=" not in flag and word.startswith("-") and _is_number(word):
            words[-1] = f"{flag}={word}"
        else:
            words.append(word)
    return words


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_joined_flag_values(sys.argv[1:] if argv is None else argv))
    if args.command is None or (args.command == "eq" and args.eq_command is None):
        parser.print_usage(sys.stderr)
        return 2
    try:
        if args.command == "eq":
            cmd_eq(args)
        else:
            handler, keys, _ = _COMMANDS[args.command]
            handler(load_run_config(args.config, {key: getattr(args, key) for key in keys}))
        return 0
    except ConfigError as exc:
        print(f"rwtkit: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(json.dumps({"error": "FileNotFound", "message": str(exc)}), file=sys.stderr)
        return 1
    except RwtError as exc:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
