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
import hashlib
import json
import platform
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .dataset import (
    DesignMatrix,
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
from .features import Feature, ObservationProfile, Scaler, scaler_fit
from .kan import incremental_experiment, kan_init, kan_train, regime_layout
from .metrics import metrics, per_group_metrics, quantile_compare
from .mlp import mlp_init, mlp_train
from .serialize import load_model, reading, save_model, scaler_from_state, scaler_to_state
from .shapley import BackgroundSet, export_heatmap, export_summary, shap_batch, shap_global
from .symbolic import eval_expression
from .trees import BoostParams, ForestParams, TreeParams, gbm_fit, rf_fit, tree_fit

__all__ = ["main", "RunConfig", "load_run_config"]

MODEL_NAMES = ("cart", "rf", "gbm", "mlp", "kan")
PRESETS = ("published", "quick")

#: Display rule for humans (report, eq eval): 12 significant digits, enough
#: to tell values apart without echoing last-ulp binary noise.  Machine
#: artifacts always use full repr precision instead.
DISPLAY_DIGITS = ".12g"


class ConfigError(ValueError):
    """Bad run configuration; reported as a usage error (exit 2)."""


@dataclass
class RunConfig:
    """Everything a pipeline run needs, file-loadable and flag-overridable."""

    observations: str = ""
    daily: str = ""
    morphometry: str = ""
    synthetic: bool = False
    synth_profiles: int = 120
    synth_samples: int = 6
    synth_noise: float = 0.02
    synth_reservoirs: int = 3
    synth_seed: int = 11
    scaler_mode: str = "fixed"
    split_ratio: float = 0.70
    split_seed: int = 42
    model: str = "rf"
    preset: str = "published"
    model_seed: int = 0
    shap_instances: int = 20
    shap_background: int = 64
    kan_regime: str = "simple"
    kan_ordering: str = ""
    kan_seeds: str = "0,1,2"
    kan_steps: int = 1200
    kan_lr: float = 0.5
    kan_lam: float = 1e-3
    kan_grid: int = 8
    out: str = "run"

    def validate(self) -> None:
        if self.scaler_mode not in ("fixed", "from_data"):
            raise ConfigError(f"scaler_mode must be fixed|from_data, got {self.scaler_mode!r}")
        if self.model not in MODEL_NAMES:
            raise ConfigError(f"model must be one of {'|'.join(MODEL_NAMES)}, got {self.model!r}")
        if self.preset not in PRESETS:
            raise ConfigError(f"preset must be one of {'|'.join(PRESETS)}, got {self.preset!r}")
        if self.kan_regime not in ("simple", "complex"):
            raise ConfigError(f"kan_regime must be simple|complex, got {self.kan_regime!r}")
        if not 0.0 < self.split_ratio < 1.0:
            raise ConfigError(f"split_ratio must be in (0, 1), got {self.split_ratio}")
        for name in ("synth_profiles", "synth_samples", "synth_reservoirs",
                     "shap_instances", "shap_background", "kan_steps", "kan_grid"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        self.kan_seed_list()
        self.kan_ordering_list()

    def kan_seed_list(self) -> tuple[int, ...]:
        try:
            seeds = tuple(int(s) for s in self.kan_seeds.split(",") if s.strip())
        except ValueError:
            raise ConfigError(f"kan_seeds must be comma-separated integers, got {self.kan_seeds!r}")
        if not seeds:
            raise ConfigError("kan_seeds is empty")
        return seeds

    def kan_ordering_list(self) -> tuple[int, ...]:
        """0-based feature columns in experiment order; empty means canonical."""
        if not self.kan_ordering.strip():
            return tuple(range(len(Feature)))
        try:
            numbers = tuple(int(s) for s in self.kan_ordering.split(",") if s.strip())
        except ValueError:
            raise ConfigError(
                f"kan_ordering must be comma-separated feature numbers, got {self.kan_ordering!r}"
            )
        if sorted(numbers) != sorted(set(numbers)) or not all(
            1 <= v <= len(Feature) for v in numbers
        ):
            raise ConfigError(f"kan_ordering must be distinct numbers in 1..10, got {numbers}")
        return tuple(v - 1 for v in numbers)


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(RunConfig)}


def _coerce(key: str, text: str):
    kind = _FIELD_TYPES[key]
    if kind == "bool":
        low = text.strip().lower()
        if low in ("true", "yes", "1"):
            return True
        if low in ("false", "no", "0"):
            return False
        raise ConfigError(f"{key}: expected a boolean, got {text!r}")
    if kind == "int":
        try:
            return int(text.strip())
        except ValueError:
            raise ConfigError(f"{key}: expected an integer, got {text!r}")
    if kind == "float":
        try:
            return float(text.strip())
        except ValueError:
            raise ConfigError(f"{key}: expected a number, got {text!r}")
    return text.strip()


def load_run_config(path: str | None, overrides: dict) -> RunConfig:
    """Config file (``key = value`` lines, ``#`` comments) plus overrides.

    Flags win over the file.  Unknown keys anywhere are rejected.
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
            if key not in _FIELD_TYPES:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            setattr(cfg, key, _coerce(key, value))
    for key, value in overrides.items():
        if value is None:
            continue
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown config key {key!r}")
        setattr(cfg, key, value)
    cfg.validate()
    return cfg


# --- deterministic artifact writing -----------------------------------------


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _json_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"


def _jsonl_line(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


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


def _manifest(cfg: RunConfig, command: str, seed: int, artifacts: list[str]) -> str:
    return _json_dumps(
        {
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
    )


def _disp(value) -> str:
    if value is None:
        return "NA"
    return format(value, DISPLAY_DIGITS)


# --- run-directory artifacts -------------------------------------------------


def _profiles_jsonl(profile_set: ProfileSet) -> str:
    lines = []
    for p in profile_set.profiles:
        lines.append(
            _jsonl_line(
                {
                    "reservoir": p.reservoir_id,
                    "date": p.date.isoformat(),
                    "site": p.site_id,
                    "samples": [[repr(d), repr(t)] for d, t in p.samples],
                    "covariates": {f.name: repr(v) for f, v in sorted(p.covariates.items())},
                }
            )
        )
    return "\n".join(lines) + "\n"


def _read_profiles(out_dir: Path) -> ProfileSet:
    import datetime

    path = out_dir / "profiles.jsonl"
    if not path.exists():
        raise NotFound(f"{path} missing; run ingest first")
    profiles = []
    with reading(path):
        for line in path.read_text().splitlines():
            rec = json.loads(line)
            profiles.append(
                ObservationProfile(
                    reservoir_id=rec["reservoir"],
                    date=datetime.date.fromisoformat(rec["date"]),
                    site_id=rec["site"],
                    samples=tuple((float(d), float(t)) for d, t in rec["samples"]),
                    covariates={Feature[k]: float(v) for k, v in rec["covariates"].items()},
                )
            )
    if not profiles:
        raise SchemaMismatch(f"{path}: no profiles")
    return ProfileSet(tuple(profiles))


def _read_scaler(out_dir: Path) -> Scaler:
    path = out_dir / "scaler.json"
    if not path.exists():
        raise NotFound(f"{path} missing; run ingest first")
    with reading(path):
        return scaler_from_state(json.loads(path.read_text()))


def _read_split(out_dir: Path) -> SplitPlan:
    path = out_dir / "split.json"
    if not path.exists():
        raise NotFound(f"{path} missing; run ingest first")
    with reading(path):
        rec = json.loads(path.read_text())
        return SplitPlan(
            train=tuple((r, d, s) for r, d, s in rec["train"]),
            test=tuple((r, d, s) for r, d, s in rec["test"]),
            ratio=float(rec["ratio"]),
            seed=int(rec["seed"]),
        )


def _normalized_split(out_dir: Path):
    """(train x/y, test x/y, scaler, test matrix) in normalized space."""
    profile_set = _read_profiles(out_dir)
    scaler = _read_scaler(out_dir)
    plan = _read_split(out_dir)
    dm = design_matrix(profile_set)
    train = dm.subset(plan.train)
    test = dm.subset(plan.test)
    xtr, ytr, _ = train.normalized(scaler)
    xte, yte, _ = test.normalized(scaler)
    return xtr, ytr, xte, yte, scaler, test


# --- commands ----------------------------------------------------------------


def cmd_ingest(cfg: RunConfig) -> int:
    out_dir = Path(cfg.out)
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
            "noise_sigma": repr(cfg.synth_noise),
        }
    else:
        for name in ("observations", "daily", "morphometry"):
            if not getattr(cfg, name):
                raise ConfigError(f"{name} path is required without synthetic = true")
        result = parse_observations(cfg.observations, on_invalid="collect")
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
    _write_text(out_dir / "profiles.jsonl", _profiles_jsonl(profile_set))
    _write_text(out_dir / "scaler.json", _json_dumps(scaler_to_state(scaler)))
    _write_text(
        out_dir / "split.json",
        _json_dumps(
            {
                "ratio": cfg.split_ratio,
                "seed": cfg.split_seed,
                "train": [list(k) for k in plan.train],
                "test": [list(k) for k in plan.test],
            }
        ),
    )
    _write_text(out_dir / "ingest_notes.json", _json_dumps(source_note))
    _write_text(
        out_dir / "ingest.manifest.json",
        _manifest(
            cfg,
            "ingest",
            cfg.synth_seed if cfg.synthetic else cfg.split_seed,
            ["profiles.jsonl", "scaler.json", "split.json", "ingest_notes.json"],
        ),
    )
    print(f"ingest: {len(profile_set)} profiles, {len(plan.train)} train / {len(plan.test)} test")
    return 0


def _fit_model(cfg: RunConfig, xtr: np.ndarray, ytr: np.ndarray):
    """Model plus a JSON-able training record (loss traces and config)."""
    seed = cfg.model_seed
    quick = cfg.preset == "quick"
    if cfg.model == "cart":
        params = TreeParams(max_depth=6 if quick else 30, min_samples_leaf=1)
        model = tree_fit(xtr, ytr, params)
        record = {"params": {"max_depth": params.max_depth}}
    elif cfg.model == "rf":
        params = ForestParams(
            n_estimators=20 if quick else 100,
            max_features=4,
            max_depth=10 if quick else 30,
            seed=seed,
        )
        model = rf_fit(xtr, ytr, params)
        record = {
            "params": {
                "n_estimators": params.n_estimators,
                "max_features": params.max_features,
                "max_depth": params.max_depth,
            }
        }
    elif cfg.model == "gbm":
        params = (
            BoostParams(n_estimators=60, learning_rate=0.1, max_depth=3, gamma=0.0, seed=seed)
            if quick
            else BoostParams(seed=seed)
        )
        model = gbm_fit(xtr, ytr, params)
        record = {
            "params": {
                "n_estimators": params.n_estimators,
                "learning_rate": params.learning_rate,
                "max_depth": params.max_depth,
                "gamma": params.gamma,
            },
            "train_mse": [repr(v) for v in model.train_mse],
        }
    elif cfg.model == "mlp":
        layout = (len(Feature), 16, 1) if quick else (len(Feature), 48, 48, 1)
        epochs = 100 if quick else 1000
        model, trace = mlp_train(
            mlp_init(layout, seed=seed),
            xtr,
            ytr,
            epochs=epochs,
            batch_size=32,
            learning_rate=0.01,
            seed=seed,
        )
        record = {
            "params": {"layout": list(layout), "epochs": epochs, "batch_size": 32,
                       "learning_rate": 0.01, "dropout_rate": model.dropout_rate},
            "loss_trace": [repr(v) for v in trace],
        }
    else:
        steps = 300 if quick else cfg.kan_steps
        net = kan_init(regime_layout(cfg.kan_regime, len(Feature)), grid_size=cfg.kan_grid, seed=seed)
        model, trace = kan_train(
            net, xtr, ytr, steps=steps, learning_rate=cfg.kan_lr, lam=cfg.kan_lam
        )
        record = {
            "params": {"layout": list(model.layout), "grid_size": cfg.kan_grid,
                       "steps": steps, "learning_rate": cfg.kan_lr, "lam": cfg.kan_lam},
            "loss_trace": [repr(v) for v in trace],
        }
    return model, record


def cmd_train(cfg: RunConfig) -> int:
    out_dir = Path(cfg.out)
    xtr, ytr, _, _, scaler, _ = _normalized_split(out_dir)
    model, record = _fit_model(cfg, xtr, ytr)
    pred_c = scaler.invert_target(model.predict(xtr))
    true_c = scaler.invert_target(ytr)
    scores = metrics(true_c, pred_c)
    record.update(
        {
            "model": cfg.model,
            "preset": cfg.preset,
            "seed": cfg.model_seed,
            "n_train": int(len(ytr)),
            "train_rmse_c": repr(scores.rmse),
            "train_mae_c": repr(scores.mae),
            "train_r2": None if scores.r2 is None else repr(scores.r2),
        }
    )
    model_file = f"model_{cfg.model}.json"
    save_model(model, out_dir / model_file)
    _write_text(out_dir / f"train_{cfg.model}.json", _json_dumps(record))
    _write_text(
        out_dir / f"train_{cfg.model}.manifest.json",
        _manifest(cfg, "train", cfg.model_seed, [model_file, f"train_{cfg.model}.json"]),
    )
    print(f"train: {cfg.model} ({cfg.preset}) rmse {_disp(scores.rmse)} degC on train")
    return 0


def _discover_models(out_dir: Path) -> dict[str, object]:
    models = {}
    for name in MODEL_NAMES:
        path = out_dir / f"model_{name}.json"
        if path.exists():
            models[name] = load_model(path)
    if not models:
        raise NotFound(f"no model files in {out_dir}; run train first")
    return models


def cmd_evaluate(cfg: RunConfig) -> int:
    out_dir = Path(cfg.out)
    _, _, xte, yte, scaler, test = _normalized_split(out_dir)
    models = _discover_models(out_dir)
    true_c = scaler.invert_target(yte)
    preds_c = {name: scaler.invert_target(m.predict(xte)) for name, m in models.items()}

    summary = {}
    for name in sorted(preds_c):
        scores = metrics(true_c, preds_c[name])
        summary[name] = {
            "rmse_c": repr(scores.rmse),
            "mae_c": repr(scores.mae),
            "r2": None if scores.r2 is None else repr(scores.r2),
            "n_test": int(len(true_c)),
        }
    _write_text(out_dir / "metrics.json", _json_dumps(summary))

    reservoirs = [key[0] for key in test.keys]
    rows = per_group_metrics(reservoirs, true_c, preds_c)
    lines = ["reservoir,model,rmse_c,mae_c,r2,best_r2,best_rmse"]
    for row in rows:
        r2_text = "NA" if row.scores.r2 is None else repr(row.scores.r2)
        lines.append(
            f"{row.group},{row.model},{row.scores.rmse!r},{row.scores.mae!r},"
            f"{r2_text},{int(row.best_r2)},{int(row.best_rmse)}"
        )
    _write_text(out_dir / "per_reservoir.csv", "\n".join(lines) + "\n")

    primary = cfg.model if cfg.model in preds_c else sorted(preds_c)[0]
    pred_primary = preds_c[primary]
    lines = ["reservoir,date,site,depth_m,observed_c,predicted_c,bound_lo_c,bound_hi_c"]
    for key, obs, pred, row in zip(test.keys, true_c, pred_primary, test.x_raw):
        depth = row[Feature.depth_measure.column]
        lines.append(
            f"{key[0]},{key[1]},{key[2]},{depth!r},{obs!r},{pred!r},"
            f"{0.9 * obs!r},{1.1 * obs!r}"
        )
    _write_text(out_dir / "scatter.csv", "\n".join(lines) + "\n")

    lines = ["probability,observed_c,predicted_c"]
    for point in quantile_compare(true_c, pred_primary, n_quantiles=101):
        lines.append(f"{point.probability!r},{point.q_observed!r},{point.q_predicted!r}")
    _write_text(out_dir / "qq.csv", "\n".join(lines) + "\n")

    _write_text(
        out_dir / "evaluate.manifest.json",
        _manifest(
            cfg,
            "evaluate",
            cfg.split_seed,
            ["metrics.json", "per_reservoir.csv", "scatter.csv", "qq.csv"],
        ),
    )
    for name in sorted(summary):
        print(
            f"evaluate: {name} rmse {_disp(float(summary[name]['rmse_c']))} degC, "
            f"r2 {_disp(None if summary[name]['r2'] is None else float(summary[name]['r2']))}"
        )
    return 0


def cmd_explain(cfg: RunConfig) -> int:
    out_dir = Path(cfg.out)
    xtr, _, xte, _, _, _ = _normalized_split(out_dir)
    model_path = out_dir / f"model_{cfg.model}.json"
    if not model_path.exists():
        raise NotFound(f"{model_path} missing; run train --model {cfg.model} first")
    model = load_model(model_path)
    background = BackgroundSet(xtr).subsample(cfg.shap_background, seed=cfg.model_seed)
    instances = xte[: cfg.shap_instances]
    explanations = shap_batch(model, instances, background)
    _write_text(out_dir / "shap_summary.csv", export_summary(explanations))
    _write_text(out_dir / "shap_heatmap.csv", export_heatmap(explanations))
    g = shap_global(explanations)
    _write_text(
        out_dir / "shap_global.json",
        _json_dumps(
            {
                "model": cfg.model,
                "n_instances": len(explanations),
                "background_rows": len(background),
                "importance": {
                    Feature(col + 1).name: {
                        "rank": rank,
                        "mean_abs_shap": repr(g.importance[col]),
                        "percentage": None if g.percentages is None else repr(g.percentages[col]),
                    }
                    for rank, col in enumerate(g.ranking, start=1)
                },
            }
        ),
    )
    _write_text(
        out_dir / "explain.manifest.json",
        _manifest(
            cfg,
            "explain",
            cfg.model_seed,
            ["shap_summary.csv", "shap_heatmap.csv", "shap_global.json"],
        ),
    )
    top = Feature(g.ranking[0] + 1).name
    print(f"explain: {len(explanations)} instances of {cfg.model}, top feature {top}")
    return 0


def cmd_kan_run(cfg: RunConfig) -> int:
    out_dir = Path(cfg.out)
    xtr, ytr, xte, yte, _, _ = _normalized_split(out_dir)
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
    lines = []
    for r in records:
        lines.append(
            _jsonl_line(
                {
                    "n_inputs": r.n_inputs,
                    "regime": r.regime,
                    "seed": r.seed,
                    "r2_train": None if r.r2_train is None else repr(r.r2_train),
                    "r2_test": None if r.r2_test is None else repr(r.r2_test),
                    "expression": r.expression_text,
                    "n_failed_edges": r.n_failed_edges,
                    "snap_tolerance": repr(r.snap_tolerance),
                    "config": {k: repr(v) if isinstance(v, float) else v
                               for k, v in sorted(r.config.items())},
                }
            )
        )
    _write_text(out_dir / "kan_records.jsonl", "\n".join(lines) + "\n")

    by_k: dict[int, list[float]] = {}
    for r in records:
        if r.r2_test is not None:
            by_k.setdefault(r.n_inputs, []).append(r.r2_test)
    lines = ["n_inputs,mean_r2_test,n_seeds"]
    for k in sorted(by_k):
        lines.append(f"{k},{float(np.mean(by_k[k]))!r},{len(by_k[k])}")
    _write_text(out_dir / "r2_curve.csv", "\n".join(lines) + "\n")
    _write_text(
        out_dir / "kan_run.manifest.json",
        _manifest(cfg, "kan-run", cfg.model_seed, ["kan_records.jsonl", "r2_curve.csv"]),
    )
    last = max(by_k)
    print(f"kan-run: {len(records)} runs, mean test r2 at {last} inputs "
          f"{_disp(float(np.mean(by_k[last])))}")
    return 0


def cmd_eq(args) -> int:
    bank = load_bank()
    if args.eq_command == "list":
        print("set,n_inputs,r2")
        for entry in bank.entries:
            print(f"{entry.set_name},{entry.n_inputs},{entry.r2_text}")
        return 0
    entry = bank.get(args.set, args.inputs)
    if args.eq_command == "show":
        print(entry.expression_text)
        return 0
    values = {}
    for i in range(1, len(Feature) + 1):
        supplied = getattr(args, f"x{i}")
        if supplied is not None:
            values[i] = supplied
    result = entry.evaluate(values)
    print(_disp(result))
    return 0


def _published_reference_lines(bank) -> list[str]:
    lines = [
        "Published reference values (from the source equation tables; not locally",
        "reproduced -- the originating dataset is not distributed):",
        "",
        "| set | inputs | published r2 |",
        "|---|---|---|",
    ]
    for entry in bank.entries:
        lines.append(f"| {entry.set_name} | {entry.n_inputs} | {entry.r2_text} |")
    return lines


def cmd_report(cfg: RunConfig) -> int:
    out_dir = Path(cfg.out)
    bank = load_bank()
    lines = ["# Run report", ""]
    lines.append(f"Config sha256: `{_config_sha256(cfg)}`")
    lines.append("")

    notes_path = out_dir / "ingest_notes.json"
    if notes_path.exists():
        with reading(notes_path):
            notes = json.loads(notes_path.read_text())
            profile_set = _read_profiles(out_dir)
            plan = _read_split(out_dir)
            lines.append("## Dataset")
            lines.append("")
            lines.append(f"- source: {notes['source']}")
            if "truth" in notes:
                lines.append(f"- generating truth (normalized space): `{notes['truth']}`")
                lines.append(f"- noise sigma: {notes['noise_sigma']}")
            lines.append(f"- profiles: {len(profile_set)} "
                         f"({len(plan.train)} train / {len(plan.test)} test)")
            lines.append("")
    else:
        lines.append("## Dataset")
        lines.append("")
        lines.append("- no ingest artifacts in this directory")
        lines.append("")

    metrics_path = out_dir / "metrics.json"
    if metrics_path.exists():
        with reading(metrics_path):
            summary = json.loads(metrics_path.read_text())
            lines.append("## Test metrics (degC)")
            lines.append("")
            lines.append("| model | rmse | mae | r2 |")
            lines.append("|---|---|---|---|")
            for name in sorted(summary):
                row = summary[name]
                r2 = "NA" if row["r2"] is None else _disp(float(row["r2"]))
                lines.append(
                    f"| {name} | {_disp(float(row['rmse_c']))} "
                    f"| {_disp(float(row['mae_c']))} | {r2} |"
                )
            lines.append("")

    shap_path = out_dir / "shap_global.json"
    if shap_path.exists():
        with reading(shap_path):
            g = json.loads(shap_path.read_text())
            lines.append(f"## Attribution ({g['model']}, {g['n_instances']} instances)")
            lines.append("")
            lines.append("| rank | feature | mean abs value | share |")
            lines.append("|---|---|---|---|")
            ranked = sorted(g["importance"].items(), key=lambda kv: kv[1]["rank"])
            for name, row in ranked:
                share = "NA" if row["percentage"] is None else _disp(float(row["percentage"])) + "%"
                lines.append(f"| {row['rank']} | {name} | {_disp(float(row['mean_abs_shap']))} | {share} |")
            lines.append("")

    curve_path = out_dir / "r2_curve.csv"
    if curve_path.exists():
        with reading(curve_path):
            lines.append("## Accuracy vs number of inputs")
            lines.append("")
            lines.append("| inputs | mean test r2 |")
            lines.append("|---|---|")
            for row in curve_path.read_text().splitlines()[1:]:
                k, mean, _ = row.split(",")
                lines.append(f"| {k} | {_disp(float(mean))} |")
            lines.append("")

    lines.append("## Reference equations")
    lines.append("")
    lines.extend(_published_reference_lines(bank))
    lines.append("")
    _write_text(out_dir / "report.md", "\n".join(lines) + "\n")
    _write_text(
        out_dir / "report.manifest.json",
        _manifest(cfg, "report", cfg.split_seed, ["report.md"]),
    )
    print(f"report: wrote {out_dir / 'report.md'}")
    return 0


# --- argument parsing ---------------------------------------------------------


#: Help for the flags whose name does not say all they do.
_FLAG_HELP = {
    "shap_instances": "explain at most this many rows, the first ones of the test split",
}


def _add_config_flags(parser: argparse.ArgumentParser, keys) -> None:
    parser.add_argument("--config", metavar="FILE", help="key = value configuration file")
    for key in keys:
        kind = _FIELD_TYPES[key]
        flag = "--" + key.replace("_", "-")
        help_text = _FLAG_HELP.get(key)
        if kind == "bool":
            parser.add_argument(flag, dest=key, action="store_const", const=True, help=help_text)
        elif kind == "int":
            parser.add_argument(flag, dest=key, type=int, help=help_text)
        elif kind == "float":
            parser.add_argument(flag, dest=key, type=float, help=help_text)
        else:
            parser.add_argument(flag, dest=key, help=help_text)


_COMMON_KEYS = ("out",)
_INGEST_KEYS = _COMMON_KEYS + (
    "observations", "daily", "morphometry", "synthetic", "synth_profiles",
    "synth_samples", "synth_noise", "synth_reservoirs", "synth_seed",
    "scaler_mode", "split_ratio", "split_seed",
)
_TRAIN_KEYS = _COMMON_KEYS + (
    "model", "preset", "model_seed", "kan_regime", "kan_steps", "kan_lr",
    "kan_lam", "kan_grid",
)
_EVAL_KEYS = _COMMON_KEYS + ("model",)
_EXPLAIN_KEYS = _COMMON_KEYS + ("model", "model_seed", "shap_instances", "shap_background")
_KAN_KEYS = _COMMON_KEYS + (
    "kan_regime", "kan_ordering", "kan_seeds", "kan_steps", "kan_lr",
    "kan_lam", "kan_grid", "model_seed",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rwtkit",
        description="Reservoir water temperature pipeline: features, models, "
        "attribution, and symbolic distillation.",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("ingest", help="parse or generate profiles; write scaler and split")
    _add_config_flags(p, _INGEST_KEYS)

    p = sub.add_parser("train", help="fit one model on the training split")
    _add_config_flags(p, _TRAIN_KEYS)

    p = sub.add_parser("evaluate", help="score trained models on the test split")
    _add_config_flags(p, _EVAL_KEYS)

    p = sub.add_parser("explain", help="exact per-instance attributions for one model")
    _add_config_flags(p, _EXPLAIN_KEYS)

    p = sub.add_parser("kan-run", help="inputs-vs-accuracy experiment with snapping")
    _add_config_flags(p, _KAN_KEYS)

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
        ev.add_argument(f"--x{i}", type=float)

    p = sub.add_parser("report", help="assemble a markdown report from run artifacts")
    _add_config_flags(p, _COMMON_KEYS + ("model",))
    return parser


def _config_from_args(args, keys) -> RunConfig:
    overrides = {key: getattr(args, key) for key in keys}
    return load_run_config(args.config, overrides)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        if args.command == "ingest":
            return cmd_ingest(_config_from_args(args, _INGEST_KEYS))
        if args.command == "train":
            return cmd_train(_config_from_args(args, _TRAIN_KEYS))
        if args.command == "evaluate":
            return cmd_evaluate(_config_from_args(args, _EVAL_KEYS))
        if args.command == "explain":
            return cmd_explain(_config_from_args(args, _EXPLAIN_KEYS))
        if args.command == "kan-run":
            return cmd_kan_run(_config_from_args(args, _KAN_KEYS))
        if args.command == "eq":
            if args.eq_command is None:
                parser.parse_args([args.command, "--help"])
                return 2
            return cmd_eq(args)
        if args.command == "report":
            return cmd_report(_config_from_args(args, _COMMON_KEYS + ("model",)))
        parser.print_usage(sys.stderr)
        return 2
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
