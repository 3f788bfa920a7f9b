"""Fit metrics and comparison tables, and the central-difference gap that
the two networks' gradient checks report.

Scale conventions: callers pass whatever space they like (normalized or
degrees Celsius); the functions are unit-agnostic.  R-squared is undefined
for a constant truth vector and is carried as ``None`` in that case rather
than a number, so downstream tables can print a marker instead of a lie.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MetricSet",
    "QuantilePoint",
    "GroupRow",
    "metrics",
    "quantile_compare",
    "per_group_metrics",
    "gradient_gap",
]


@dataclass(frozen=True)
class MetricSet:
    """rmse, mae, and r2 for one prediction vector.

    Invariant: ``rmse >= mae >= 0``.  ``r2`` is ``None`` when the truth was
    constant.
    """

    rmse: float
    mae: float
    r2: float | None

    def __post_init__(self) -> None:
        if self.mae < 0.0 or self.rmse < self.mae:
            raise ValueError(f"need rmse >= mae >= 0, got rmse={self.rmse} mae={self.mae}")


def _as_pair(y_true, y_pred) -> tuple[np.ndarray, np.ndarray]:
    t = np.asarray(y_true, dtype=float).ravel()
    p = np.asarray(y_pred, dtype=float).ravel()
    if t.shape != p.shape:
        raise ValueError(f"length mismatch: {t.shape} vs {p.shape}")
    if t.size == 0:
        raise ValueError("metrics need at least one value")
    return t, p


def metrics(y_true, y_pred) -> MetricSet:
    """Root-mean-square error, mean absolute error, and R-squared.

    R-squared is ``1 - SSE/SST`` with SST about the mean of ``y_true``;
    when every truth value is identical it is reported as ``None`` (rmse and
    mae are still returned).
    """
    t, p = _as_pair(y_true, y_pred)
    d = p - t
    mae = float(np.mean(np.abs(d)))
    rmse = float(np.sqrt(np.mean(d * d)))
    # the power-mean inequality guarantees rmse >= mae in exact arithmetic;
    # the max() guards the invariant against last-ulp rounding
    rmse = max(rmse, mae)
    sse = float(np.sum(d * d))
    sst = float(np.sum((t - t.mean()) ** 2))
    # a constant truth can still give sst > 0, because the rounded mean need
    # not equal the repeated value; and sst can underflow to zero even when
    # the values are not all equal (subnormal spreads).  Either makes r2
    # undefined.
    if t.min() == t.max() or sst == 0.0:
        return MetricSet(rmse=rmse, mae=mae, r2=None)
    return MetricSet(rmse=rmse, mae=mae, r2=1.0 - sse / sst)


@dataclass(frozen=True)
class QuantilePoint:
    probability: float
    q_observed: float
    q_predicted: float


def quantile_compare(y_true, y_pred) -> tuple[QuantilePoint, ...]:
    """Matched quantiles of observed and predicted values.

    Probabilities are ``linspace(0, 1, 101)``, every percentile; quantiles
    use linear interpolation, so comparing a vector against itself lands
    exactly on the diagonal.
    """
    t, p = _as_pair(y_true, y_pred)
    probs = np.linspace(0.0, 1.0, 101)
    qt = np.quantile(t, probs)
    qp = np.quantile(p, probs)
    return tuple(
        QuantilePoint(float(pr), float(a), float(b)) for pr, a, b in zip(probs, qt, qp)
    )


@dataclass(frozen=True)
class GroupRow:
    """Metrics for one (group, model) cell plus best-in-group markers.

    Every model that attains the group's best value is marked, so ties flag
    all tied models.
    """

    group: str
    model: str
    scores: MetricSet
    best_r2: bool
    best_rmse: bool


def per_group_metrics(
    groups: Sequence[str],
    y_true,
    predictions: Mapping[str, Sequence[float] | np.ndarray],
) -> tuple[GroupRow, ...]:
    """Per-group metric table over several models.

    ``groups[i]`` names the group of sample ``i`` (typically the reservoir).
    Rows come back sorted by (group, model name).  Within a group the best
    R-squared (highest, ignoring undefined) and best rmse (lowest) are
    flagged on every row that attains them.
    """
    t = np.asarray(y_true, dtype=float).ravel()
    if len(groups) != t.size:
        raise ValueError("groups and y_true lengths differ")
    if not predictions:
        raise ValueError("need at least one model's predictions")
    labels = np.asarray(groups)
    model_names = sorted(predictions)
    preds = {}
    for name in model_names:
        _, preds[name] = _as_pair(t, predictions[name])
    rows: list[GroupRow] = []
    for group in sorted(set(labels.tolist())):
        mask = labels == group
        cell: dict[str, MetricSet] = {
            name: metrics(t[mask], preds[name][mask]) for name in model_names
        }
        defined_r2 = [m.r2 for m in cell.values() if m.r2 is not None]
        best_r2 = max(defined_r2) if defined_r2 else None
        best_rmse = min(m.rmse for m in cell.values())
        for name in model_names:
            m = cell[name]
            rows.append(
                GroupRow(
                    group=str(group),
                    model=name,
                    scores=m,
                    best_r2=(m.r2 is not None and m.r2 == best_r2),
                    best_rmse=(m.rmse == best_rmse),
                )
            )
    return tuple(rows)


def gradient_gap(arrays, loss, analytic, eps: float) -> float:
    """Analytic gradients against central differences of ``loss``.

    ``arrays`` are the parameters, which the probe writes in place before
    each call of ``loss()`` and restores at the end; ``analytic`` holds their
    gradients in the same order.  Returns ``max |g_an - g_fd| / max(|g_an| +
    |g_fd|, eps)``: flooring the denominator at the probe step keeps
    components below finite-difference resolution from reading as noise.
    """
    theta0 = np.concatenate([a.ravel() for a in arrays])

    def loss_at(theta: np.ndarray) -> float:
        offset = 0
        for arr in arrays:
            arr.flat[:] = theta[offset : offset + arr.size]
            offset += arr.size
        return loss()

    numeric = np.zeros_like(theta0)
    for i in range(len(theta0)):
        theta = theta0.copy()
        theta[i] = theta0[i] + eps
        up = loss_at(theta)
        theta[i] = theta0[i] - eps
        down = loss_at(theta)
        numeric[i] = (up - down) / (2.0 * eps)
    loss_at(theta0)
    analytic = np.concatenate([g.ravel() for g in analytic])
    denom = np.maximum(np.abs(analytic) + np.abs(numeric), eps)
    return float(np.max(np.abs(analytic - numeric) / denom))
