"""Output checks computed apart from the program.

Every check returns a list of problems, empty when the output is right.  The
run directory is read, normalized and scored here with the benchmark's own
code; from rwtkit only the model under test is used (``load_model`` and the
model's ``predict``) and ``BackgroundSet.subsample`` to pick the same
background rows as ``explain``.  Shapley values are enumerated over all
coalitions and expressions are evaluated with numpy, not with the program's
Shapley or symbolic code.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from math import factorial
from pathlib import Path

import numpy as np

#: Canonical predictor order: column j holds x<j+1>.
FEATURES = ("air_temp7d", "air_temp", "depth_measure", "wind_avg7", "vol_lake", "wind",
            "surf_area_depth", "inflow_lake", "prcp_cum7", "prcp")
#: Everything the rwtkit expression grammar can print.
_TOKENS = re.compile(r"(?:\s+|\d+\.?\d*(?:[eE][-+]?\d+)?|[-+*/^()]|x\d+|exp|cos|tanh|tan|log)*")
_FUNCTIONS = {"exp": np.exp, "cos": np.cos, "tan": np.tan, "tanh": np.tanh, "log": np.log}


@dataclass(frozen=True)
class RunData:
    """Normalized rows of a run directory, in design-matrix order."""

    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray
    t_lo: float
    t_hi: float

    def celsius(self, y: np.ndarray) -> np.ndarray:
        return y * (self.t_hi - self.t_lo) + self.t_lo


def read_run(run_dir: Path) -> RunData:
    """Rebuild the normalized train and test matrices from ``ingest``'s files."""
    scaler = json.loads((run_dir / "scaler.json").read_text())
    lo = np.array([float(v) for v in scaler["feature_lo"]])
    hi = np.array([float(v) for v in scaler["feature_hi"]])
    t_lo, t_hi = float(scaler["target_lo"]), float(scaler["target_hi"])
    split = json.loads((run_dir / "split.json").read_text())
    test_keys = {tuple(k) for k in split["test"]}
    rows = {True: ([], []), False: ([], [])}
    for line in (run_dir / "profiles.jsonl").read_text().splitlines():
        rec = json.loads(line)
        xs, ys = rows[(rec["reservoir"], rec["date"], rec["site"]) in test_keys]
        cov = rec["covariates"]
        for depth, temp in rec["samples"]:
            xs.append([float(depth) if f == "depth_measure" else float(cov[f]) for f in FEATURES])
            ys.append(float(temp))

    def norm(xs, ys):
        x = (np.array(xs).reshape(-1, len(FEATURES)) - lo) / (hi - lo)
        return x, (np.array(ys) - t_lo) / (t_hi - t_lo)

    x_train, y_train = norm(*rows[False])
    x_test, y_test = norm(*rows[True])
    return RunData(x_train, y_train, x_test, y_test, t_lo, t_hi)


def r2_score(y: np.ndarray, pred: np.ndarray) -> float:
    return float(1.0 - np.sum((y - pred) ** 2) / np.sum((y - np.mean(y)) ** 2))


# -- expressions ----------------------------------------------------------------


def evaluate_expression(text: str, x: np.ndarray) -> np.ndarray:
    """Evaluate rwtkit infix text on the rows of ``x`` (column j is x<j+1>).

    The grammar's ``^`` takes an integer exponent and binds tighter than a
    unary minus, as Python's ``**`` does.
    """
    if not _TOKENS.fullmatch(text):
        raise ValueError(f"unexpected token in expression {text!r}")
    env = {"__builtins__": {}, **_FUNCTIONS}
    env.update({f"x{j + 1}": x[:, j] for j in range(x.shape[1])})
    with np.errstate(all="ignore"):
        value = eval(text.replace("^", "**"), env)  # noqa: S307 - tokens checked above
    return np.broadcast_to(np.asarray(value, dtype=float), (len(x),))


def variables(text: str) -> set[int]:
    return {int(v) for v in re.findall(r"\bx(\d+)\b", text)}


# -- fit ------------------------------------------------------------------------


def check_truth(data: RunData, truth_text: str, sigma: float) -> list[str]:
    """Targets equal the generator's equation plus noise of scale ``sigma``."""
    x = np.vstack([data.x_train, data.x_test])
    y = np.concatenate([data.y_train, data.y_test])
    resid = y - evaluate_expression(truth_text, x)
    n = len(resid)
    problems = []
    if abs(resid.mean()) > 5.0 * sigma / np.sqrt(n):
        problems.append(f"target residual mean {resid.mean():.3g} is not noise of sigma {sigma}")
    if not 0.7 * sigma < resid.std() < 1.3 * sigma:
        problems.append(f"target residual std {resid.std():.3g}, expected about {sigma}")
    if np.max(np.abs(resid)) > 6.0 * sigma:
        problems.append(f"target residual up to {np.max(np.abs(resid)):.3g}, over 6 sigma")
    return problems


def check_metrics(data: RunData, run_dir: Path, kind: str, r2_floor: float, load_model) -> list[str]:
    """``metrics.json`` for ``kind`` matches RMSE and R2 recomputed from predict."""
    reported = json.loads((run_dir / "metrics.json").read_text())[kind]
    model = load_model(run_dir / f"model_{kind}.json")
    true_c = data.celsius(data.y_test)
    pred_c = data.celsius(np.asarray(model.predict(data.x_test), dtype=float))
    rmse = float(np.sqrt(np.mean((pred_c - true_c) ** 2)))
    r2 = r2_score(true_c, pred_c)
    problems = []
    if reported["n_test"] != len(true_c):
        problems.append(f"{kind}: n_test {reported['n_test']}, expected {len(true_c)}")
    if not np.isclose(float(reported["rmse_c"]), rmse, rtol=1e-9, atol=0.0):
        problems.append(f"{kind}: rmse_c {reported['rmse_c']}, recomputed {rmse!r}")
    if reported["r2"] is None or not np.isclose(float(reported["r2"]), r2, rtol=1e-9, atol=1e-12):
        problems.append(f"{kind}: r2 {reported['r2']}, recomputed {r2!r}")
    if not r2 > r2_floor:
        problems.append(f"{kind}: test r2 {r2:.4f} not above {r2_floor}")
    return problems


# -- explain --------------------------------------------------------------------


def brute_shapley(predict, x: np.ndarray, background: np.ndarray):
    """(base, phi, f(x)) by enumerating all 2^q coalitions over the background."""
    q, m = len(x), len(background)
    masks = np.arange(1 << q)
    member = (masks[:, np.newaxis] >> np.arange(q)) & 1
    values = np.empty(len(masks))
    chunk = max(1, 8192 // m)
    for start in range(0, len(masks), chunk):
        sel = masks[start:start + chunk]
        z = np.where(member[sel][:, np.newaxis, :] == 1, x, background[np.newaxis, :, :])
        values[sel] = np.asarray(predict(z.reshape(-1, q)), dtype=float).reshape(len(sel), m).mean(axis=1)
    size = member.sum(axis=1)
    weight = np.array([factorial(s) * factorial(q - s - 1) / factorial(q) for s in range(q)])
    phi = np.empty(q)
    for i in range(q):
        without = masks[member[:, i] == 0]
        phi[i] = np.sum(weight[size[without]] * (values[without | (1 << i)] - values[without]))
    return values[0], phi, values[-1]


def read_summary(text: str) -> tuple[np.ndarray, np.ndarray]:
    """(phi, x) arrays of shape (instances, features) from ``shap_summary.csv``."""
    lines = text.splitlines()
    if lines[0] != "feature,rank,instance,shap_value,feature_value":
        raise ValueError(f"unexpected shap_summary header {lines[0]!r}")
    cells = [line.split(",") for line in lines[1:]]
    n = len({c[2] for c in cells})
    phi = np.full((n, len(FEATURES)), np.nan)
    x = np.full((n, len(FEATURES)), np.nan)
    for feature, _, instance, value, feature_value in cells:
        col = FEATURES.index(feature)
        phi[int(instance), col] = float(value)
        x[int(instance), col] = float(feature_value)
    return phi, x


def check_explain(summary_text: str, data: RunData, model, background: np.ndarray,
                  n_instances: int, brute_instances) -> list[str]:
    """Attributions of one ``explain`` call against enumeration and properties."""
    phi, x = read_summary(summary_text)
    problems = []
    if len(phi) != n_instances:
        return [f"{len(phi)} instances explained, {n_instances} asked for"]
    if np.isnan(phi).any():
        return ["shap_summary misses (instance, feature) cells"]
    if not np.allclose(x, data.x_test[:n_instances], rtol=0.0, atol=1e-12):
        problems.append("explained instances are not the first test rows")
    trees = getattr(model, "trees", None)
    if trees is not None:
        used = set()
        for tree in trees:
            used.update(int(f) for f in tree.feature if f >= 0)
        unused = [j for j in range(len(FEATURES)) if j not in used]
        if np.any(phi[:, unused] != 0.0):
            problems.append(f"features {unused} never split on but attributed")
    for i in brute_instances:
        base, want, fx = brute_shapley(model.predict, data.x_test[i], background)
        gap = float(np.max(np.abs(phi[i] - want)))
        if gap > 1e-9:
            problems.append(f"instance {i}: attributions differ from enumeration by {gap:.3g}")
        if abs(base + phi[i].sum() - fx) > 1e-9:
            problems.append(f"instance {i}: attributions do not sum to f(x) - base")
    return problems


# -- distill --------------------------------------------------------------------


def check_record(record: dict, ordering: tuple[int, ...], data: RunData, r2_floor: float) -> list[str]:
    """One ``kan_records.jsonl`` line: variables of its prefix, test R2 above a floor."""
    k = record["n_inputs"]
    text = record["expression"]
    allowed = set(ordering[:k])
    problems = []
    if not variables(text) <= allowed:
        problems.append(f"prefix {k}: expression uses {sorted(variables(text) - allowed)}")
    try:
        pred = evaluate_expression(text, data.x_test)
    except (ValueError, SyntaxError) as exc:
        return problems + [f"prefix {k}: {exc}"]
    if not np.all(np.isfinite(pred)):
        return problems + [f"prefix {k}: expression is not finite on the test rows"]
    r2 = r2_score(data.y_test, pred)
    if not r2 > r2_floor:
        problems.append(f"prefix {k} seed {record['seed']}: expression test r2 {r2:.4f} "
                        f"not above {r2_floor}")
    return problems
