"""Canonical feature order, vertical profiles, and min-max scaling.

Everything downstream (models, attribution, symbolic equations) works in a
normalized space where each predictor and the water temperature target are
mapped to [0, 1].  This module owns that mapping and the small data types it
operates on.

The ten predictors have a fixed order; symbolic equations refer to them as
``x1`` .. ``x10``:

====  ===============  =============================================
 xN   name             meaning
====  ===============  =============================================
 x1   air_temp7d       7-day mean air temperature (deg C)
 x2   air_temp         same-day air temperature (deg C)
 x3   depth_measure    measurement depth (m)
 x4   wind_avg7        7-day mean wind speed (m/s)
 x5   vol_lake         reservoir storage volume (acre-feet)
 x6   wind             same-day wind speed (m/s)
 x7   surf_area_depth  surface area / max depth (m^2/m)
 x8   inflow_lake      inflow (cubic feet per second)
 x9   prcp_cum7        7-day cumulative precipitation (mm)
 x10  prcp             same-day precipitation (mm)
====  ===============  =============================================
"""

from __future__ import annotations

import datetime
import enum
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateColumn,
    DimensionMismatch,
    MissingFeature,
    NonFiniteInput,
    NonMonotoneDepths,
    ShortProfile,
)

__all__ = [
    "Feature",
    "FIXED_FEATURE_RANGES",
    "DEFAULT_TARGET_RANGE",
    "ObservationProfile",
    "FeatureVector",
    "Scaler",
    "scaler_fit",
    "scale_apply",
    "scale_invert",
]


class Feature(enum.IntEnum):
    """The ten predictors, numbered 1..10 in canonical order."""

    air_temp7d = 1
    air_temp = 2
    depth_measure = 3
    wind_avg7 = 4
    vol_lake = 5
    wind = 6
    surf_area_depth = 7
    inflow_lake = 8
    prcp_cum7 = 9
    prcp = 10

    @property
    def symbol(self) -> str:
        """The ``xN`` symbol used in symbolic equations."""
        return f"x{self.value}"

    @classmethod
    def from_symbol(cls, symbol: str) -> "Feature":
        if not symbol.startswith("x"):
            raise KeyError(symbol)
        return cls(int(symbol[1:]))

    @property
    def column(self) -> int:
        """0-based column index in feature matrices."""
        return self.value - 1


#: Fixed calibration ranges (lo, hi) per predictor, in raw units, taken from
#: the pooled observation record the models were calibrated on.  Used by the
#: ``fixed`` scaler mode so that models trained on different subsets share one
#: normalized space.
FIXED_FEATURE_RANGES: dict[Feature, tuple[float, float]] = {
    Feature.air_temp7d: (-2.81, 34.54),
    Feature.air_temp: (-6.91, 34.35),
    Feature.depth_measure: (0.0, 30.48),
    Feature.wind_avg7: (2.41, 6.61),
    Feature.vol_lake: (31956.0, 5.85e6),
    Feature.wind: (1.30, 8.72),
    Feature.surf_area_depth: (235.67, 14775.0),
    Feature.inflow_lake: (0.0, 131300.0),
    Feature.prcp_cum7: (0.0, 33.27),
    Feature.prcp: (0.0, 67.20),
}

#: Target (water temperature, deg C) range for the ``fixed`` scaler mode.
#: The published calibration table covers predictors only, so the package
#: fixes a conventional reservoir range wide enough for the source data.
DEFAULT_TARGET_RANGE: tuple[float, float] = (0.0, 40.0)

#: Profiles shorter than this carry too little vertical structure to keep.
MIN_PROFILE_SAMPLES = 4

#: A profile is identified by (reservoir_id, ISO date, site_id).
ProfileKey = tuple[str, str, str]


@dataclass(frozen=True)
class ObservationProfile:
    """One vertical temperature profile at a reservoir site on one day.

    ``samples`` are (depth_m, temp_c) pairs ordered by strictly increasing
    depth.  ``covariates`` holds the raw daily/morphometric predictors shared
    by every sample of the profile; ``depth_measure`` varies per sample and is
    taken from the samples themselves.

    Validation is total: construction either succeeds or raises with a
    specific reason (:class:`ShortProfile`, :class:`NonMonotoneDepths`,
    ``ValueError`` for a negative depth).
    """

    reservoir_id: str
    date: datetime.date
    site_id: str
    samples: tuple[tuple[float, float], ...]
    covariates: Mapping[Feature, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(self.samples) < MIN_PROFILE_SAMPLES:
            raise ShortProfile(
                f"profile {self.key} has {len(self.samples)} samples, "
                f"minimum is {MIN_PROFILE_SAMPLES}"
            )
        depths = [d for d, _ in self.samples]
        if depths[0] < 0.0:
            raise ValueError(f"profile {self.key} has negative depth {depths[0]}")
        for a, b in zip(depths, depths[1:]):
            if not (b > a):
                raise NonMonotoneDepths(
                    f"profile {self.key} depths not strictly increasing "
                    f"({a} then {b})"
                )

    @property
    def key(self) -> ProfileKey:
        return (self.reservoir_id, self.date.isoformat(), self.site_id)

    @property
    def n_samples(self) -> int:
        return len(self.samples)


@dataclass(frozen=True)
class FeatureVector:
    """One normalized model input row.

    ``x`` is the ten predictors in canonical order, normalized to [0, 1]
    when in range.  ``out_of_range`` lists predictors whose raw value fell
    outside the scaler's bounds; such values are flagged, never clipped, so
    ``x`` entries may lie outside [0, 1].
    """

    x: tuple[float, ...]
    y: float | None = None
    out_of_range: frozenset[Feature] = frozenset()

    def __post_init__(self) -> None:
        if len(self.x) != len(Feature):
            raise ValueError(f"expected {len(Feature)} features, got {len(self.x)}")

    def as_array(self) -> np.ndarray:
        return np.array(self.x, dtype=float)


def model_rows(x, width: int) -> np.ndarray:
    """Model input (a :class:`FeatureVector`, one row or a matrix) as finite
    (n, width) rows; every model checks its inputs here."""
    arr = np.asarray(x.as_array() if isinstance(x, FeatureVector) else x, dtype=float)
    if arr.ndim == 1:
        arr = arr[np.newaxis, :]
    if arr.ndim != 2 or arr.shape[1] != width:
        raise DimensionMismatch(f"model takes rows of width {width}, input has shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteInput("model inputs must be finite")
    return arr


def _as_raw_array(raw: Mapping[Feature, float] | Sequence[float]) -> np.ndarray:
    if isinstance(raw, Mapping):
        values = []
        for f in Feature:
            if f not in raw:
                raise MissingFeature(f"feature {f.name} (x{f.value}) missing from row")
            values.append(float(raw[f]))
        return np.array(values, dtype=float)
    arr = np.asarray(raw, dtype=float)
    if arr.shape != (len(Feature),):
        raise MissingFeature(
            f"expected {len(Feature)} raw feature values, got shape {arr.shape}"
        )
    return arr


@dataclass(frozen=True)
class Scaler:
    """Min-max mapping between raw units and the normalized [0, 1] space.

    ``mode`` records how the bounds were obtained: ``"from_data"`` (per-column
    extremes of a training set) or ``"fixed"`` (the published calibration
    ranges plus :data:`DEFAULT_TARGET_RANGE`).  Bounds are per-feature
    (lo, hi) with hi strictly greater than lo.
    """

    feature_lo: tuple[float, ...]
    feature_hi: tuple[float, ...]
    target_lo: float
    target_hi: float
    mode: str

    def __post_init__(self) -> None:
        if len(self.feature_lo) != len(Feature) or len(self.feature_hi) != len(Feature):
            raise ValueError("scaler bounds must cover all ten features")
        for f in Feature:
            lo, hi = self.feature_lo[f.column], self.feature_hi[f.column]
            if not hi > lo:
                raise DegenerateColumn(
                    f"feature {f.name}: bounds ({lo}, {hi}) have no width"
                )
        if not self.target_hi > self.target_lo:
            raise DegenerateColumn(
                f"target bounds ({self.target_lo}, {self.target_hi}) have no width"
            )

    # -- arrays ------------------------------------------------------------

    def _lo(self) -> np.ndarray:
        return np.array(self.feature_lo, dtype=float)

    def _hi(self) -> np.ndarray:
        return np.array(self.feature_hi, dtype=float)

    def transform(self, x_raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Normalize a (n, 10) raw matrix.

        Returns ``(x_norm, out_of_range)`` where ``out_of_range`` is a boolean
        mask of the same shape marking raw values outside the bounds.  Values
        are never clipped.
        """
        x_raw = np.asarray(x_raw, dtype=float)
        lo, hi = self._lo(), self._hi()
        x_norm = (x_raw - lo) / (hi - lo)
        oob = (x_raw < lo) | (x_raw > hi)
        return x_norm, oob

    def invert(self, x_norm: np.ndarray) -> np.ndarray:
        """Map a normalized (n, 10) matrix back to raw units."""
        x_norm = np.asarray(x_norm, dtype=float)
        lo, hi = self._lo(), self._hi()
        return x_norm * (hi - lo) + lo

    # -- single rows -------------------------------------------------------

    def apply(
        self,
        raw: Mapping[Feature, float] | Sequence[float],
        temp_c: float | None = None,
    ) -> FeatureVector:
        """Normalize one raw row (and optionally its target)."""
        arr = _as_raw_array(raw)
        x_norm, oob = self.transform(arr[np.newaxis, :])
        flags = frozenset(f for f in Feature if oob[0, f.column])
        y = None if temp_c is None else self.apply_target(temp_c)
        return FeatureVector(x=tuple(float(v) for v in x_norm[0]), y=y, out_of_range=flags)

    def apply_target(self, temp_c: float) -> float:
        return (float(temp_c) - self.target_lo) / (self.target_hi - self.target_lo)

    def invert_target(self, y_norm: float | np.ndarray):
        """Map a normalized prediction back to degrees Celsius."""
        scaled = np.asarray(y_norm, dtype=float) * (self.target_hi - self.target_lo)
        out = scaled + self.target_lo
        return float(out) if out.ndim == 0 else out

    def invert_feature(self, feature: Feature, x_norm: float) -> float:
        lo, hi = self.feature_lo[feature.column], self.feature_hi[feature.column]
        return float(x_norm) * (hi - lo) + lo


def scaler_fit(
    rows: Sequence[Mapping[Feature, float] | Sequence[float]] | np.ndarray | None,
    targets: Sequence[float] | None = None,
    mode: str = "from_data",
    target_range: tuple[float, float] = DEFAULT_TARGET_RANGE,
) -> Scaler:
    """Build a :class:`Scaler`.

    ``mode="from_data"`` takes per-column extremes from ``rows`` and target
    bounds from ``targets`` (both required; a constant column raises
    :class:`DegenerateColumn`).  ``mode="fixed"`` ignores the data and uses
    :data:`FIXED_FEATURE_RANGES` with ``target_range``.
    """
    if mode == "fixed":
        return Scaler(
            feature_lo=tuple(FIXED_FEATURE_RANGES[f][0] for f in Feature),
            feature_hi=tuple(FIXED_FEATURE_RANGES[f][1] for f in Feature),
            target_lo=float(target_range[0]),
            target_hi=float(target_range[1]),
            mode="fixed",
        )
    if mode != "from_data":
        raise ValueError(f"unknown scaler mode {mode!r}")
    if rows is None or len(rows) == 0:
        raise DegenerateColumn("from_data mode needs at least one row")
    if targets is None or len(targets) == 0:
        raise DegenerateColumn("from_data mode needs target values")
    if isinstance(rows, np.ndarray):
        matrix = np.asarray(rows, dtype=float)
        if matrix.ndim != 2 or matrix.shape[1] != len(Feature):
            raise MissingFeature(f"expected (n, {len(Feature)}) matrix, got {matrix.shape}")
    else:
        matrix = np.stack([_as_raw_array(r) for r in rows])
    lo = matrix.min(axis=0)
    hi = matrix.max(axis=0)
    for f in Feature:
        if not hi[f.column] > lo[f.column]:
            raise DegenerateColumn(f"feature {f.name} is constant at {lo[f.column]}")
    t = np.asarray(targets, dtype=float)
    t_lo, t_hi = float(t.min()), float(t.max())
    if not t_hi > t_lo:
        raise DegenerateColumn(f"target is constant at {t_lo}")
    return Scaler(
        feature_lo=tuple(float(v) for v in lo),
        feature_hi=tuple(float(v) for v in hi),
        target_lo=t_lo,
        target_hi=t_hi,
        mode="from_data",
    )


def scale_apply(
    scaler: Scaler,
    raw: Mapping[Feature, float] | Sequence[float],
    temp_c: float | None = None,
) -> FeatureVector:
    """Normalize one raw row with ``scaler``; see :meth:`Scaler.apply`."""
    return scaler.apply(raw, temp_c)


def scale_invert(scaler: Scaler, y_norm: float | np.ndarray):
    """Map normalized predictions back to degrees Celsius."""
    return scaler.invert_target(y_norm)
