"""Metric definitions against hand-computed oracles and order properties."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rwtkit.metrics import metrics, per_group_metrics, quantile_compare


def test_hand_oracle():
    y = np.array([1.0, 2.0, 3.0, 4.0])
    p = np.array([1.5, 2.0, 2.0, 5.0])
    # errors: 0.5, 0, -1, 1
    m = metrics(y, p)
    assert m.mae == pytest.approx((0.5 + 0.0 + 1.0 + 1.0) / 4.0)
    assert m.rmse == pytest.approx(np.sqrt((0.25 + 0.0 + 1.0 + 1.0) / 4.0))
    ss_res = 0.25 + 0.0 + 1.0 + 1.0
    ss_tot = sum((v - 2.5) ** 2 for v in y)
    assert m.r2 == pytest.approx(1.0 - ss_res / ss_tot)


def test_perfect_and_mean_predictions():
    y = np.array([3.0, 7.0, 1.0, 9.0])
    perfect = metrics(y, y)
    assert perfect.rmse == 0.0 and perfect.mae == 0.0 and perfect.r2 == 1.0
    at_mean = metrics(y, np.full_like(y, y.mean()))
    assert at_mean.r2 == pytest.approx(0.0)


def test_constant_truth_r2_undefined():
    y = np.full(5, 4.2)
    m = metrics(y, np.array([4.0, 4.1, 4.2, 4.3, 4.4]))
    assert m.r2 is None
    assert m.rmse > 0.0


def test_errors_on_bad_input():
    with pytest.raises(ValueError):
        metrics([], [])
    with pytest.raises(ValueError):
        metrics([1.0, 2.0], [1.0])


finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@given(
    y=arrays(np.float64, st.integers(min_value=1, max_value=40), elements=finite),
    noise=arrays(np.float64, st.integers(min_value=1, max_value=40), elements=finite),
)
def test_rmse_at_least_mae(y, noise):
    n = min(len(y), len(noise))
    m = metrics(y[:n], y[:n] + noise[:n])
    assert m.rmse >= m.mae - 1e-12


#: Multiples of 2**-10 up to 2**10 in magnitude, and integer shifts up to
#: 2**20: every y + shift and y + shift + 1 then fits in 31 significant
#: bits, so the shifted data are an exact shift of the original.
dyadic = st.integers(min_value=-(2**20), max_value=2**20).map(lambda k: k / 1024.0)
whole = st.integers(min_value=-(2**20), max_value=2**20).map(float)


@given(y=arrays(np.float64, 12, elements=dyadic), shift=whole)
def test_metrics_shift_invariant(y, shift):
    base = metrics(y, y + 1.0)
    shifted = metrics(y + shift, y + shift + 1.0)
    assert base.rmse == pytest.approx(shifted.rmse, abs=1e-9)
    assert base.mae == pytest.approx(shifted.mae, abs=1e-9)
    if base.r2 is not None and shifted.r2 is not None:
        assert base.r2 == pytest.approx(shifted.r2, rel=1e-6, abs=1e-9)


def test_quantile_compare_matches_numpy():
    rng = np.random.default_rng(0)
    y = rng.normal(10.0, 3.0, size=500)
    p = rng.normal(11.0, 2.5, size=500)
    points = quantile_compare(y, p, n_quantiles=21)
    assert len(points) == 21
    probs = [pt.probability for pt in points]
    assert probs[0] == 0.0 and probs[-1] == 1.0
    assert np.allclose(np.diff(probs), 0.05)
    for pt in points:
        assert pt.q_observed == pytest.approx(np.quantile(y, pt.probability))
        assert pt.q_predicted == pytest.approx(np.quantile(p, pt.probability))
    observed = [pt.q_observed for pt in points]
    assert all(a <= b for a, b in zip(observed, observed[1:]))


def test_per_group_metrics_basic():
    groups = ["a", "a", "b", "b", "b"]
    y = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    preds = {
        "m1": np.array([1.0, 2.0, 3.5, 4.5, 5.5]),
        "m2": np.array([1.4, 2.4, 3.0, 4.0, 5.0]),
    }
    rows = per_group_metrics(groups, y, preds)
    assert [(r.group, r.model) for r in rows] == [
        ("a", "m1"),
        ("a", "m2"),
        ("b", "m1"),
        ("b", "m2"),
    ]
    by = {(r.group, r.model): r for r in rows}
    assert by[("a", "m1")].best_rmse and not by[("a", "m2")].best_rmse
    assert by[("b", "m2")].best_rmse and not by[("b", "m1")].best_rmse


def test_per_group_ties_flag_all_models():
    groups = ["g", "g", "g"]
    y = np.array([1.0, 2.0, 3.0])
    same = np.array([1.1, 2.1, 3.1])
    rows = per_group_metrics(groups, y, {"m1": same, "m2": same.copy()})
    assert all(r.best_rmse for r in rows)
    assert all(r.best_r2 for r in rows)


def test_per_group_length_mismatch():
    with pytest.raises(ValueError):
        per_group_metrics(["a"], [1.0, 2.0], {"m": [1.0, 2.0]})
