"""Ingestion, rolling covariates, splits, and synthetic data.

CSV layouts (headers are matched exactly):

* observations: ``reservoir_id,date,site_id,depth_m,temp_c`` with one row per
  depth sample; rows with the same (reservoir, date, site) form one profile.
* daily covariates: ``reservoir_id,date,air_temp_c,prcp_mm,wind_ms,vol_lake,
  inflow_lake`` with one row per reservoir-day.
* morphometry: ``reservoir_id,surface_area_m2,max_depth_m`` with one row per
  reservoir.

Dates are ISO ``YYYY-MM-DD``.  All splitting is profile-atomic: a profile's
samples always land on the same side of a split.
"""

from __future__ import annotations

import contextlib
import csv
import datetime
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .equation_bank import load_bank
from .errors import (
    MissingFeature,
    NotFound,
    SchemaMismatch,
    TooFewProfiles,
    WindowGap,
)
from .features import (
    Feature,
    ObservationProfile,
    ProfileKey,
    Scaler,
    scaler_fit,
)

__all__ = [
    "ProfileSet",
    "DailySeries",
    "Morphometry",
    "ParseResult",
    "DesignMatrix",
    "SplitPlan",
    "SyntheticData",
    "parse_observations",
    "parse_daily",
    "parse_morphometry",
    "rolling_features",
    "attach_covariates",
    "design_matrix",
    "split_profiles",
    "synth_generate",
]

OBSERVATIONS_HEADER = ["reservoir_id", "date", "site_id", "depth_m", "temp_c"]
DAILY_HEADER = [
    "reservoir_id",
    "date",
    "air_temp_c",
    "prcp_mm",
    "wind_ms",
    "vol_lake",
    "inflow_lake",
]
MORPHOMETRY_HEADER = ["reservoir_id", "surface_area_m2", "max_depth_m"]

#: Days in the antecedent window of the rolling covariates, the date included.
WINDOW_DAYS = 7


@dataclass(frozen=True)
class ProfileSet:
    """An immutable collection of profiles with unique keys, sorted by key."""

    profiles: tuple[ObservationProfile, ...]

    def __post_init__(self) -> None:
        keys = [p.key for p in self.profiles]
        if len(set(keys)) != len(keys):
            dupes = sorted({k for k in keys if keys.count(k) > 1})
            raise SchemaMismatch(f"duplicate profile keys: {dupes[:3]}")
        object.__setattr__(
            self, "profiles", tuple(sorted(self.profiles, key=lambda p: p.key))
        )

    def __len__(self) -> int:
        return len(self.profiles)

    def keys(self) -> tuple[ProfileKey, ...]:
        return tuple(p.key for p in self.profiles)


@dataclass(frozen=True)
class DailyRecord:
    air_temp_c: float
    prcp_mm: float
    wind_ms: float
    vol_lake: float
    inflow_lake: float


@dataclass(frozen=True)
class DailySeries:
    """Per-day covariates keyed by (reservoir_id, date)."""

    records: dict[tuple[str, datetime.date], DailyRecord]

    def get(self, reservoir_id: str, date: datetime.date) -> DailyRecord:
        try:
            return self.records[(reservoir_id, date)]
        except KeyError:
            raise WindowGap(f"no daily record for {reservoir_id} on {date}") from None


@dataclass(frozen=True)
class Morphometry:
    """Static reservoir geometry: surface area (m^2) and max depth (m)."""

    records: dict[str, tuple[float, float]]

    def surf_area_depth(self, reservoir_id: str) -> float:
        """Surface area divided by maximum depth (m^2 per m)."""
        try:
            area, depth = self.records[reservoir_id]
        except KeyError:
            raise MissingFeature(f"no morphometry for reservoir {reservoir_id}") from None
        if depth <= 0:
            raise SchemaMismatch(f"non-positive max depth for {reservoir_id}")
        return area / depth


@dataclass(frozen=True)
class ParseResult:
    """Accepted profiles plus (key, reason) pairs for rejected ones."""

    profile_set: ProfileSet
    rejected: tuple[tuple[ProfileKey, str], ...] = ()


def _open_text(source):
    """A context manager over the text of a path (a ``str`` or ``Path``) or a
    stream.  A path that names no file raises :class:`NotFound`.  It closes a
    file it opens; a caller's stream is left open.
    """
    if isinstance(source, (str, Path)):
        try:
            return open(source, "r", newline="")
        except FileNotFoundError as exc:
            raise NotFound(f"no file {str(source)!r}") from exc
    return contextlib.nullcontext(source)


def _csv_rows(source, header: list[str], what: str):
    """Yield ``(lineno, row)`` for each non-blank row after a checked header.

    Every row yielded has as many fields as ``header``.
    """
    with _open_text(source) as stream:
        reader = csv.reader(stream)
        row = next(reader, None)
        if row != header:
            raise SchemaMismatch(f"{what} header {row!r} does not match {header!r}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise SchemaMismatch(
                    f"line {lineno}: expected {len(header)} fields, got {len(row)}"
                )
            yield lineno, row


def _parse_date(text: str, lineno: int) -> datetime.date:
    try:
        return datetime.date.fromisoformat(text)
    except ValueError as exc:
        raise SchemaMismatch(f"line {lineno}: bad date {text!r}") from exc


def _parse_float(text: str, column: str, lineno: int) -> float:
    """A finite number; ``nan`` and ``inf`` are as bad as any other non-number."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise SchemaMismatch(f"line {lineno}: bad {column} value {text!r}")
    return value


def parse_observations(source) -> ParseResult:
    """Read profile observations from a CSV stream or path.

    A path that names no file raises :class:`NotFound`.

    Rows sharing (reservoir_id, date, site_id) form one profile in file
    order.  Structural problems in the file itself (wrong header, bad
    numbers, duplicate depth rows) always raise :class:`SchemaMismatch`.
    Profile-level problems (too short, depths out of order or negative)
    are collected as (key, reason) pairs, so validation is total.
    """
    groups: dict[ProfileKey, list[tuple[float, float]]] = {}
    dates: dict[ProfileKey, datetime.date] = {}
    for lineno, row in _csv_rows(source, OBSERVATIONS_HEADER, "observations"):
        reservoir_id, date_text, site_id, depth_text, temp_text = row
        date = _parse_date(date_text, lineno)
        depth = _parse_float(depth_text, "depth_m", lineno)
        temp = _parse_float(temp_text, "temp_c", lineno)
        key = (reservoir_id, date.isoformat(), site_id)
        samples = groups.setdefault(key, [])
        if any(d == depth for d, _ in samples):
            raise SchemaMismatch(f"line {lineno}: duplicate depth {depth} in profile {key}")
        samples.append((depth, temp))
        dates[key] = date
    profiles: list[ObservationProfile] = []
    rejected: list[tuple[ProfileKey, str]] = []
    for key in sorted(groups):
        reservoir_id, _, site_id = key
        try:
            profiles.append(
                ObservationProfile(
                    reservoir_id=reservoir_id,
                    date=dates[key],
                    site_id=site_id,
                    samples=tuple(groups[key]),
                )
            )
        except Exception as exc:
            rejected.append((key, f"{type(exc).__name__}: {exc}"))
    return ParseResult(
        profile_set=ProfileSet(tuple(profiles)),
        rejected=tuple(rejected),
    )


def parse_daily(source) -> DailySeries:
    """Read the daily covariate series from a CSV stream or path; duplicate
    reservoir-days are rejected."""
    records: dict[tuple[str, datetime.date], DailyRecord] = {}
    for lineno, row in _csv_rows(source, DAILY_HEADER, "daily covariates"):
        reservoir_id = row[0]
        date = _parse_date(row[1], lineno)
        if (reservoir_id, date) in records:
            raise SchemaMismatch(f"line {lineno}: duplicate day {reservoir_id}/{date}")
        values = [
            _parse_float(text, name, lineno)
            for name, text in zip(DAILY_HEADER[2:], row[2:])
        ]
        records[(reservoir_id, date)] = DailyRecord(*values)
    return DailySeries(records)


def parse_morphometry(source) -> Morphometry:
    """Read per-reservoir surface area and maximum depth from a CSV stream or path."""
    records: dict[str, tuple[float, float]] = {}
    for lineno, row in _csv_rows(source, MORPHOMETRY_HEADER, "morphometry"):
        reservoir_id = row[0]
        if reservoir_id in records:
            raise SchemaMismatch(f"line {lineno}: duplicate reservoir {reservoir_id}")
        area = _parse_float(row[1], "surface_area_m2", lineno)
        depth = _parse_float(row[2], "max_depth_m", lineno)
        records[reservoir_id] = (area, depth)
    return Morphometry(records)


def rolling_features(
    daily: DailySeries,
    morphometry: Morphometry,
    reservoir_id: str,
    date: datetime.date,
) -> dict[Feature, float]:
    """Raw covariates for one reservoir-day (everything except depth).

    The rolling window is the :data:`WINDOW_DAYS` consecutive days ending on
    ``date``.  Air temperature and wind are averaged over the window,
    precipitation is summed; same-day values are read directly.  A missing
    day anywhere in the window raises :class:`WindowGap`.
    """
    days = [date - datetime.timedelta(days=i) for i in range(WINDOW_DAYS)]
    window_records = [daily.get(reservoir_id, d) for d in days]
    today = daily.get(reservoir_id, date)
    return {
        Feature.air_temp7d: float(np.mean([r.air_temp_c for r in window_records])),
        Feature.air_temp: today.air_temp_c,
        Feature.wind_avg7: float(np.mean([r.wind_ms for r in window_records])),
        Feature.vol_lake: today.vol_lake,
        Feature.wind: today.wind_ms,
        Feature.surf_area_depth: morphometry.surf_area_depth(reservoir_id),
        Feature.inflow_lake: today.inflow_lake,
        Feature.prcp_cum7: float(np.sum([r.prcp_mm for r in window_records])),
        Feature.prcp: today.prcp_mm,
    }


def attach_covariates(
    profile_set: ProfileSet,
    daily: DailySeries,
    morphometry: Morphometry,
) -> ProfileSet:
    """Return a new set whose profiles carry their rolling covariates."""
    enriched = []
    for p in profile_set.profiles:
        cov = rolling_features(daily, morphometry, p.reservoir_id, p.date)
        enriched.append(
            ObservationProfile(
                reservoir_id=p.reservoir_id,
                date=p.date,
                site_id=p.site_id,
                samples=p.samples,
                covariates=cov,
            )
        )
    return ProfileSet(tuple(enriched))


@dataclass(frozen=True)
class DesignMatrix:
    """Raw per-sample rows: one row per (profile, depth) pair.

    ``x_raw`` columns follow the canonical feature order; column 3 (depth)
    comes from the profile samples, everything else from the profile's
    covariates.  ``keys[i]`` identifies the profile row ``i`` came from.
    """

    keys: tuple[ProfileKey, ...]
    x_raw: np.ndarray
    y_temp_c: np.ndarray

    def __post_init__(self) -> None:
        if self.x_raw.shape != (len(self.keys), len(Feature)):
            raise ValueError(f"x_raw shape {self.x_raw.shape} does not match keys")
        if self.y_temp_c.shape != (len(self.keys),):
            raise ValueError("y_temp_c length does not match keys")

    def __len__(self) -> int:
        return len(self.keys)

    def subset(self, keys: Iterable[ProfileKey]) -> "DesignMatrix":
        wanted = set(keys)
        mask = np.array([k in wanted for k in self.keys], dtype=bool)
        return DesignMatrix(
            keys=tuple(k for k, m in zip(self.keys, mask) if m),
            x_raw=self.x_raw[mask],
            y_temp_c=self.y_temp_c[mask],
        )

    def normalized(self, scaler: Scaler) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(x_norm, y_norm, out_of_range mask) under ``scaler``."""
        x_norm, oob = scaler.transform(self.x_raw)
        y_norm = np.array([scaler.apply_target(t) for t in self.y_temp_c])
        return x_norm, y_norm, oob


def design_matrix(profile_set: ProfileSet) -> DesignMatrix:
    """Expand profiles into per-sample rows.

    Each profile contributes one row per depth sample; the rows differ only
    in depth (x3) and target.  Profiles must carry complete covariates.
    """
    keys: list[ProfileKey] = []
    rows: list[list[float]] = []
    targets: list[float] = []
    for p in profile_set.profiles:
        for f in Feature:
            if f is not Feature.depth_measure and f not in p.covariates:
                raise MissingFeature(f"profile {p.key} lacks covariate {f.name}")
        for depth, temp in p.samples:
            row = [
                depth if f is Feature.depth_measure else float(p.covariates[f])
                for f in Feature
            ]
            keys.append(p.key)
            rows.append(row)
            targets.append(temp)
    return DesignMatrix(
        keys=tuple(keys),
        x_raw=np.array(rows, dtype=float).reshape(len(rows), len(Feature)),
        y_temp_c=np.array(targets, dtype=float),
    )


@dataclass(frozen=True)
class SplitPlan:
    """A profile-atomic train/test assignment.

    ``train`` and ``test`` are disjoint, non-empty, and together cover every
    key that was split with ``ratio`` and ``seed``.
    """

    train: tuple[ProfileKey, ...]
    test: tuple[ProfileKey, ...]
    ratio: float
    seed: int

    def __post_init__(self) -> None:
        if not self.train or not self.test:
            raise TooFewProfiles("both split sides must be non-empty")
        overlap = set(self.train) & set(self.test)
        if overlap:
            raise ValueError(f"split sides overlap on {sorted(overlap)[:3]}")


def _keys_of(profiles: ProfileSet | Sequence[ProfileKey]) -> list[ProfileKey]:
    if isinstance(profiles, ProfileSet):
        return list(profiles.keys())
    return [tuple(k) for k in profiles]


def split_profiles(
    profiles: ProfileSet | Sequence[ProfileKey],
    ratio: float = 0.70,
    seed: int = 42,
) -> SplitPlan:
    """Split profiles into train/test at the profile level.

    Deterministic given ``seed``: keys are sorted, then shuffled with
    ``numpy.random.default_rng(seed)``.  A reservoir with exactly two
    profiles contributes one profile to each side (which one goes where is
    decided by the same generator) so no reservoir is unseen at test time;
    all remaining keys are pooled and cut at ``ceil(ratio * n)``, adjusted
    by at most one key so neither side ends up empty.
    """
    if not (0.0 < ratio < 1.0):
        raise ValueError(f"ratio must be in (0, 1), got {ratio}")
    keys = sorted(set(_keys_of(profiles)))
    if len(keys) < 2:
        raise TooFewProfiles(f"need at least 2 profiles to split, got {len(keys)}")
    by_reservoir: dict[str, list[ProfileKey]] = {}
    for k in keys:
        by_reservoir.setdefault(k[0], []).append(k)
    rng = np.random.default_rng(seed)
    train: list[ProfileKey] = []
    test: list[ProfileKey] = []
    pool: list[ProfileKey] = []
    for reservoir in sorted(by_reservoir):
        group = by_reservoir[reservoir]
        if len(group) == 2:
            order = rng.permutation(2)
            train.append(group[order[0]])
            test.append(group[order[1]])
        else:
            pool.extend(group)
    if pool:
        order = rng.permutation(len(pool))
        shuffled = [pool[i] for i in order]
        n_train = math.ceil(ratio * len(pool))
        if n_train == len(pool) and not test:
            n_train -= 1
        if n_train == 0 and not train:
            n_train = 1
        train.extend(shuffled[:n_train])
        test.extend(shuffled[n_train:])
    if not train or not test:
        raise TooFewProfiles("could not form non-empty train and test sides")
    return SplitPlan(train=tuple(train), test=tuple(test), ratio=ratio, seed=seed)


@dataclass(frozen=True)
class SyntheticData:
    """A generated profile set plus the text of its generating truth."""

    profile_set: ProfileSet
    truth_text: str
    scaler: Scaler = field(repr=False)


def synth_generate(
    n_profiles: int,
    samples_per_profile: int = 6,
    noise_sigma: float = 0.0,
    seed: int = 0,
    n_reservoirs: int = 1,
) -> SyntheticData:
    """Generate synthetic profiles from a known closed-form truth.

    Normalized predictors are drawn uniformly on [0, 1]; within a profile
    every predictor except depth is constant and depths are sorted draws.
    The normalized target is the four-input ``simple`` bank equation
    evaluated at the predictors, plus Gaussian noise of ``noise_sigma``;
    raw units are recovered through the fixed scaler, so running the
    generated set back through the pipeline reproduces the drawn values.

    Profiles are dealt round-robin over ``n_reservoirs`` reservoirs, which
    makes reservoirs with exactly two profiles easy to arrange (set
    ``n_profiles = 2 * n_reservoirs``).
    """
    if n_profiles < 1:
        raise ValueError("n_profiles must be >= 1")
    if samples_per_profile < 4:
        raise ValueError("samples_per_profile must be >= 4 to form valid profiles")
    if n_reservoirs < 1:
        raise ValueError("n_reservoirs must be >= 1")
    entry = load_bank().get("simple", 4)
    scaler = scaler_fit(None, mode="fixed")
    rng = np.random.default_rng(seed)
    base_date = datetime.date(2015, 1, 1)
    profiles: list[ObservationProfile] = []
    for i in range(n_profiles):
        consts = rng.uniform(0.0, 1.0, size=len(Feature))
        depths_norm = np.sort(rng.uniform(0.0, 1.0, size=samples_per_profile))
        while len(np.unique(depths_norm)) < samples_per_profile:
            depths_norm = np.sort(rng.uniform(0.0, 1.0, size=samples_per_profile))
        x_norm = np.tile(consts, (samples_per_profile, 1))
        x_norm[:, Feature.depth_measure.column] = depths_norm
        y_norm = entry.evaluate(x_norm)
        if noise_sigma > 0.0:
            y_norm = y_norm + rng.normal(0.0, noise_sigma, size=samples_per_profile)
        x_raw = scaler.invert(x_norm)
        temps = scaler.invert_target(y_norm)
        covariates = {
            f: float(x_raw[0, f.column]) for f in Feature if f is not Feature.depth_measure
        }
        profiles.append(
            ObservationProfile(
                reservoir_id=f"R{i % n_reservoirs:03d}",
                date=base_date + datetime.timedelta(days=i),
                site_id="S1",
                samples=tuple(
                    (float(d), float(t))
                    for d, t in zip(x_raw[:, Feature.depth_measure.column], temps)
                ),
                covariates=covariates,
            )
        )
    return SyntheticData(
        profile_set=ProfileSet(tuple(profiles)),
        truth_text=entry.expression_text,
        scaler=scaler,
    )
