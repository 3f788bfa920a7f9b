"""Feature order, calibration ranges, and min-max scaling round trips."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rwtkit.errors import (
    DegenerateColumn,
    DimensionMismatch,
    EmptyData,
    MissingFeature,
    NonFiniteInput,
)
from rwtkit.features import (
    DEFAULT_TARGET_RANGE,
    FIXED_FEATURE_RANGES,
    Feature,
    ObservationProfile,
    scaler_fit,
)
from rwtkit.kan import kan_gradcheck, kan_init, kan_train
from rwtkit.mlp import mlp_gradcheck, mlp_init, mlp_train
from rwtkit.trees import BoostParams, ForestParams, gbm_fit, rf_fit, tree_fit

CANONICAL_ORDER = [
    "air_temp7d",
    "air_temp",
    "depth_measure",
    "wind_avg7",
    "vol_lake",
    "wind",
    "surf_area_depth",
    "inflow_lake",
    "prcp_cum7",
    "prcp",
]


def test_feature_numbering_and_order():
    assert [f.name for f in Feature] == CANONICAL_ORDER
    assert [f.value for f in Feature] == list(range(1, 11))
    for f in Feature:
        assert f.column == f.value - 1


def test_fixed_ranges_cover_every_feature():
    assert set(FIXED_FEATURE_RANGES) == set(Feature)
    for lo, hi in FIXED_FEATURE_RANGES.values():
        assert hi > lo
    assert DEFAULT_TARGET_RANGE == (0.0, 40.0)


def _random_in_range(rng):
    """One raw (1, 10) row inside the fixed calibration ranges."""
    return np.array([[rng.uniform(*FIXED_FEATURE_RANGES[f]) for f in Feature]])


def test_fixed_scaler_maps_bounds_to_unit_interval():
    scaler = scaler_fit(None, mode="fixed")
    bounds = np.array([FIXED_FEATURE_RANGES[f] for f in Feature]).T
    x_norm, oob = scaler.transform(bounds)
    assert np.allclose(x_norm[0], 0.0)
    assert np.allclose(x_norm[1], 1.0)
    assert not oob.any()
    assert scaler.apply_target(0.0) == 0.0
    assert scaler.apply_target(40.0) == 1.0
    assert scaler.apply_target(20.0) == 0.5


@given(seed=st.integers(min_value=0, max_value=10_000))
def test_feature_round_trip_below_1e12(seed):
    rng = np.random.default_rng(seed)
    scaler = scaler_fit(None, mode="fixed")
    raw = _random_in_range(rng)
    x_norm, oob = scaler.transform(raw)
    assert not oob.any()
    back = scaler.invert(x_norm)
    assert np.all(np.abs(back - raw) / np.maximum(np.abs(raw), 1.0) < 1e-12)


@given(temp=st.floats(min_value=0.0, max_value=40.0))
def test_target_round_trip_below_1e12(temp):
    scaler = scaler_fit(None, mode="fixed")
    back = scaler.invert_target(scaler.apply_target(temp))
    assert abs(back - temp) < 1e-12 * max(temp, 1.0)


def test_invert_target_is_vectorized():
    scaler = scaler_fit(None, mode="fixed")
    y_norm = np.array([0.0, 0.25, 0.5, 1.0])
    assert np.allclose(scaler.invert_target(y_norm), [0.0, 10.0, 20.0, 40.0])


def test_out_of_range_flagged_never_clipped():
    scaler = scaler_fit(None, mode="fixed")
    raw = _random_in_range(np.random.default_rng(0))
    lo, hi = FIXED_FEATURE_RANGES[Feature.air_temp]
    col = Feature.air_temp.column
    raw[0, col] = hi + (hi - lo)  # far above calibration
    x_norm, oob = scaler.transform(raw)
    assert oob[0].tolist() == [f is Feature.air_temp for f in Feature]
    assert x_norm[0, col] == pytest.approx(2.0)  # not clipped to 1
    assert scaler.invert(x_norm)[0, col] == pytest.approx(raw[0, col])


def test_from_data_mode_uses_observed_extremes():
    rng = np.random.default_rng(3)
    rows = rng.uniform(5.0, 9.0, size=(40, 10))
    targets = rng.uniform(2.0, 30.0, size=40)
    scaler = scaler_fit(rows, targets, mode="from_data")
    x_norm, oob = scaler.transform(rows)
    assert x_norm.min() == pytest.approx(0.0)
    assert x_norm.max() == pytest.approx(1.0)
    assert not oob.any()
    assert scaler.apply_target(targets.min()) == pytest.approx(0.0)
    assert scaler.apply_target(targets.max()) == pytest.approx(1.0)


def test_from_data_round_trip():
    rng = np.random.default_rng(4)
    rows = rng.uniform(-3.0, 3.0, size=(30, 10))
    targets = rng.uniform(1.0, 25.0, size=30)
    scaler = scaler_fit(rows, targets, mode="from_data")
    x_norm, _ = scaler.transform(rows)
    assert np.abs(scaler.invert(x_norm) - rows).max() < 1e-12


def test_constant_column_raises():
    rng = np.random.default_rng(5)
    rows = rng.uniform(0.0, 1.0, size=(20, 10))
    rows[:, 4] = 7.7
    with pytest.raises(DegenerateColumn):
        scaler_fit(rows, rng.uniform(0, 30, size=20), mode="from_data")


def test_from_data_requires_rows_and_targets():
    with pytest.raises(Exception):
        scaler_fit(None, None, mode="from_data")
    for shape in [(3, 9), (10,), (2, 10, 1)]:
        with pytest.raises(MissingFeature):
            scaler_fit(np.arange(float(np.prod(shape))).reshape(shape), [1.0, 2.0, 3.0])


def test_profile_requires_sorted_depths():
    import datetime

    good = ObservationProfile(
        reservoir_id="r",
        date=datetime.date(2015, 6, 1),
        site_id="s",
        samples=((0.5, 20.0), (2.0, 18.0), (5.0, 12.0), (9.0, 8.0)),
        covariates={},
    )
    assert len(good.samples) == 4
    with pytest.raises(Exception):
        ObservationProfile(
            reservoir_id="r",
            date=datetime.date(2015, 6, 1),
            site_id="s",
            samples=((2.0, 18.0), (0.5, 20.0), (5.0, 12.0), (9.0, 8.0)),
            covariates={},
        )


# --- training data -------------------------------------------------------------

#: Every fitter and gradient check, at its smallest setting, on 3-wide rows.
FITTERS = {
    "tree": tree_fit,
    "forest": lambda x, y: rf_fit(x, y, ForestParams(n_estimators=2)),
    "boosted": lambda x, y: gbm_fit(x, y, BoostParams(n_estimators=2)),
    "mlp": lambda x, y: mlp_train(mlp_init((3, 4, 1)), x, y, epochs=1),
    "kan": lambda x, y: kan_train(kan_init((3, 2, 1), grid_size=4), x, y, steps=1),
    "mlp-gradcheck": lambda x, y: mlp_gradcheck(mlp_init((3, 4, 1)), x, y),
    "kan-gradcheck": lambda x, y: kan_gradcheck(kan_init((3, 2, 1), grid_size=4), x, y),
}


@pytest.mark.parametrize("fitter", sorted(FITTERS))
def test_every_fitter_checks_its_training_data_alike(fitter):
    fit = FITTERS[fitter]
    x = np.random.default_rng(0).uniform(size=(6, 3))
    y = np.arange(6.0) / 6.0
    fit(x, y)
    for bad in (np.nan, np.inf, -np.inf):
        rows, targets = x.copy(), y.copy()
        rows[2, 1] = targets[3] = bad
        with pytest.raises(NonFiniteInput):
            fit(rows, y)
        with pytest.raises(NonFiniteInput):
            fit(x, targets)
    with pytest.raises(DimensionMismatch):
        fit(x, y[:-1])
    with pytest.raises(DimensionMismatch):
        fit(x[0], y[:1])  # one row is not training data
    with pytest.raises(EmptyData):
        fit(x[:0], y[:0])
