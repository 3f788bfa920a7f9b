"""Ingestion, rolling covariates, design matrices, splits, and synthesis."""

import datetime
import io
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rwtkit import dataset as dataset_module
from rwtkit.dataset import (
    design_matrix,
    parse_daily,
    parse_morphometry,
    parse_observations,
    rolling_features,
    split_profiles,
    synth_generate,
)
from rwtkit.equation_bank import load_bank
from rwtkit.errors import (
    MissingFeature,
    NotFound,
    SchemaMismatch,
    ShortProfile,
    WindowGap,
)
from rwtkit.features import Feature, ObservationProfile
from rwtkit.symbolic import parse_expression, to_text

OBS_HEADER = "reservoir_id,date,site_id,depth_m,temp_c"
DAILY_HEADER = "reservoir_id,date,air_temp_c,prcp_mm,wind_ms,vol_lake,inflow_lake"
MORPH_HEADER = "reservoir_id,surface_area_m2,max_depth_m"


def obs_csv(rows):
    return io.StringIO("\n".join([OBS_HEADER] + rows) + "\n")


PROFILE_ROWS = [
    "res1,2015-06-01,s1,0.5,21.0",
    "res1,2015-06-01,s1,2.0,19.5",
    "res1,2015-06-01,s1,5.0,14.0",
    "res1,2015-06-01,s1,9.0,9.5",
]


# --- observation parsing -----------------------------------------------------


def test_parse_observations_groups_by_profile():
    extra = [
        "res1,2015-06-02,s1,0.5,20.0",
        "res1,2015-06-02,s1,2.0,18.0",
        "res1,2015-06-02,s1,5.0,13.0",
        "res1,2015-06-02,s1,9.0,9.0",
    ]
    result = parse_observations(obs_csv(PROFILE_ROWS + extra))
    assert result.rejected == ()
    keys = [p.key for p in result.profile_set.profiles]
    assert keys == [
        ("res1", "2015-06-01", "s1"),
        ("res1", "2015-06-02", "s1"),
    ]
    first = result.profile_set.profiles[0]
    assert first.date == datetime.date(2015, 6, 1)
    assert first.samples == ((0.5, 21.0), (2.0, 19.5), (5.0, 14.0), (9.0, 9.5))


def test_depths_out_of_file_order_are_a_profile_violation():
    # Samples keep file order; a profile whose depths are not strictly
    # increasing is invalid rather than silently resorted.
    shuffled = [PROFILE_ROWS[2], PROFILE_ROWS[0], PROFILE_ROWS[3], PROFILE_ROWS[1]]
    result = parse_observations(obs_csv(shuffled))
    assert result.profile_set.profiles == ()
    [(key, reason)] = result.rejected
    assert key == ("res1", "2015-06-01", "s1")
    assert reason.startswith("NonMonotoneDepths: ")


def test_short_profile_raises_or_collects():
    # Building a short profile raises; parsing one collects the same error.
    with pytest.raises(ShortProfile):
        ObservationProfile("res1", datetime.date(2015, 6, 1), "s1",
                           ((0.5, 21.0), (2.0, 19.5), (5.0, 14.0)))
    result = parse_observations(obs_csv(PROFILE_ROWS[:3]))
    assert len(result.profile_set.profiles) == 0
    [(key, reason)] = result.rejected
    assert key == ("res1", "2015-06-01", "s1")
    assert reason.startswith("ShortProfile: ")


def test_duplicate_depth_is_structural():
    # A repeated depth row is file corruption, so it raises rather than
    # being collected.
    dup = PROFILE_ROWS + ["res1,2015-06-01,s1,9.0,9.4"]
    with pytest.raises(SchemaMismatch):
        parse_observations(obs_csv(dup))


def test_collect_keeps_good_profiles():
    rows = PROFILE_ROWS + [
        "res2,2015-06-01,s1,0.5,22.0",
        "res2,2015-06-01,s1,2.0,20.0",
        "res2,2015-06-01,s1,5.0,15.0",  # only 3 samples: rejected
    ]
    result = parse_observations(obs_csv(rows))
    assert [p.reservoir_id for p in result.profile_set.profiles] == ["res1"]
    assert [key[0] for key, _ in result.rejected] == ["res2"]


def test_bad_header_rejected():
    with pytest.raises(SchemaMismatch):
        parse_observations(io.StringIO("a,b,c\n1,2,3\n"))


def test_bad_field_reports_line_number():
    bad = PROFILE_ROWS + ["res1,2015-06-88,s1,1.0,5.0"]
    with pytest.raises(SchemaMismatch) as exc:
        parse_observations(obs_csv(bad))
    assert "line 6" in str(exc.value)  # header is line 1, bad row is line 6

    bad = PROFILE_ROWS + ["res1,2015-06-03,s1,deep,5.0"]
    with pytest.raises(SchemaMismatch):
        parse_observations(obs_csv(bad))


@pytest.mark.parametrize("parser, text, message", [
    (parse_observations, obs_csv(PROFILE_ROWS[:3] + ["res1,2015-06-01,s1,9.0,nan"]).getvalue(),
     "line 5: bad temp_c value 'nan'"),
    (parse_daily, f"{DAILY_HEADER}\nres1,2015-05-01,10.0,inf,2.0,5.0e7,14.0\n",
     "line 2: bad prcp_mm value 'inf'"),
    (parse_morphometry, f"{MORPH_HEADER}\nres1,3.0e6,-Infinity\n",
     "line 2: bad max_depth_m value '-Infinity'"),
], ids=["observations", "daily", "morphometry"])
def test_non_finite_value_is_schema_mismatch(parser, text, message):
    with pytest.raises(SchemaMismatch) as exc:
        parser(io.StringIO(text))
    assert str(exc.value) == message


# --- daily and morphometry parsing ------------------------------------------


def daily_csv(n_days=30, res="res1", start=datetime.date(2015, 5, 1)):
    lines = [DAILY_HEADER]
    for i in range(n_days):
        d = start + datetime.timedelta(days=i)
        lines.append(f"{res},{d.isoformat()},{10.0 + i},{0.5 * i},{2.0 + 0.1 * i},5.0e7,14.0")
    return io.StringIO("\n".join(lines) + "\n")


def test_parse_daily_and_lookup():
    series = parse_daily(daily_csv())
    rec = series.get("res1", datetime.date(2015, 5, 3))
    assert rec.air_temp_c == 12.0
    assert rec.prcp_mm == 1.0
    assert rec.wind_ms == pytest.approx(2.2)


def test_parse_morphometry_ratio():
    morph = parse_morphometry(io.StringIO(f"{MORPH_HEADER}\nres1,3.0e6,30.0\n"))
    assert morph.surf_area_depth("res1") == pytest.approx(1.0e5)


@pytest.mark.parametrize("parser, text, error", [
    (parse_observations, obs_csv(PROFILE_ROWS).getvalue(), None),
    (parse_daily, daily_csv().getvalue(), None),
    (parse_morphometry, f"{MORPH_HEADER}\nres1,3.0e6,30.0\n", None),
    (parse_morphometry, "a,b,c\n1,2,3\n", "header"),
    (parse_observations, obs_csv(PROFILE_ROWS + ["res1,2015-06-88,s1,1.0,5.0"]).getvalue(),
     "bad date"),
], ids=["observations", "daily", "morphometry", "bad-header", "bad-row"])
def test_parsers_close_the_files_they_open(parser, text, error, tmp_path, monkeypatch):
    path = tmp_path / "in.csv"
    path.write_text(text)
    opened = []

    def recording_open(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(dataset_module, "open", recording_open, raising=False)
    if error is None:
        parser(path)
    else:
        with pytest.raises(SchemaMismatch, match=error):
            parser(path)
    assert len(opened) == 1 and opened[0].closed


def test_parsers_leave_a_callers_stream_open():
    stream = daily_csv()
    parse_daily(stream)
    assert not stream.closed


@pytest.mark.parametrize("parser", [parse_observations, parse_daily, parse_morphometry])
def test_header_without_newline_is_a_path_that_is_not_found(parser, tmp_path):
    # A one-line string is read as a path, so a header alone names no file.
    with pytest.raises(NotFound, match="reservoir_id,surface_area_m2,max_depth_m"):
        parser("reservoir_id,surface_area_m2,max_depth_m")
    missing = tmp_path / "absent.csv"
    with pytest.raises(NotFound, match="absent.csv"):
        parser(missing)


# --- rolling covariates ------------------------------------------------------


def test_rolling_features_hand_oracle():
    series = parse_daily(daily_csv())
    morph = parse_morphometry(io.StringIO(f"{MORPH_HEADER}\nres1,2.0e6,25.0\n"))
    date = datetime.date(2015, 5, 10)  # day index 9
    cov = rolling_features(series, morph, "res1", date)
    # Window = day indices 3..9 inclusive (7 days ending on the date).
    temps = [10.0 + i for i in range(3, 10)]
    winds = [2.0 + 0.1 * i for i in range(3, 10)]
    prcps = [0.5 * i for i in range(3, 10)]
    assert cov[Feature.air_temp7d] == pytest.approx(np.mean(temps))
    assert cov[Feature.wind_avg7] == pytest.approx(np.mean(winds))
    assert cov[Feature.prcp_cum7] == pytest.approx(sum(prcps))
    assert cov[Feature.air_temp] == pytest.approx(19.0)
    assert cov[Feature.wind] == pytest.approx(2.9)
    assert cov[Feature.prcp] == pytest.approx(4.5)
    assert cov[Feature.vol_lake] == pytest.approx(5.0e7)
    assert cov[Feature.inflow_lake] == pytest.approx(14.0)
    assert cov[Feature.surf_area_depth] == pytest.approx(2.0e6 / 25.0)
    assert Feature.depth_measure not in cov


def test_rolling_window_gap_raises():
    lines = [DAILY_HEADER]
    for i in range(10):
        if i == 5:
            continue  # hole in the record
        d = datetime.date(2015, 5, 1) + datetime.timedelta(days=i)
        lines.append(f"res1,{d.isoformat()},15.0,0.0,3.0,5.0e7,14.0")
    series = parse_daily(io.StringIO("\n".join(lines) + "\n"))
    morph = parse_morphometry(io.StringIO(f"{MORPH_HEADER}\nres1,2.0e6,25.0\n"))
    with pytest.raises(WindowGap):
        rolling_features(series, morph, "res1", datetime.date(2015, 5, 10))


# --- design matrix -----------------------------------------------------------


def test_design_matrix_layout(synth_small):
    dm = design_matrix(synth_small.profile_set)
    n_samples = sum(len(p.samples) for p in synth_small.profile_set.profiles)
    assert dm.x_raw.shape == (n_samples, 10)
    assert len(dm.keys) == n_samples
    row = 0
    for p in synth_small.profile_set.profiles:
        for depth, temp in p.samples:
            assert dm.keys[row] == p.key
            assert dm.x_raw[row, Feature.depth_measure.column] == depth
            assert dm.y_temp_c[row] == temp
            for f in Feature:
                if f is not Feature.depth_measure:
                    assert dm.x_raw[row, f.column] == p.covariates[f]
            row += 1


def test_design_matrix_requires_covariates():
    result = parse_observations(obs_csv(PROFILE_ROWS))
    with pytest.raises(MissingFeature):
        design_matrix(result.profile_set)


def test_design_matrix_subset(synth_small):
    dm = design_matrix(synth_small.profile_set)
    plan = split_profiles(synth_small.profile_set, ratio=0.7, seed=1)
    sub = dm.subset(plan.test)
    assert set(sub.keys) == set(plan.test)
    assert len(sub) + len(dm.subset(plan.train)) == len(dm)


# --- splits ------------------------------------------------------------------


def test_split_deterministic(synth_small):
    a = split_profiles(synth_small.profile_set, ratio=0.7, seed=42)
    b = split_profiles(synth_small.profile_set, ratio=0.7, seed=42)
    assert a == b
    c = split_profiles(synth_small.profile_set, ratio=0.7, seed=43)
    assert c != a


def test_split_no_leakage_and_coverage(synth_small):
    plan = split_profiles(synth_small.profile_set, ratio=0.7, seed=0)
    train, test = set(plan.train), set(plan.test)
    assert not train & test
    assert train | test == {p.key for p in synth_small.profile_set.profiles}
    assert len(train) == math.ceil(0.7 * (len(train) + len(test)))


def test_two_profile_reservoirs_straddle_the_split():
    data = synth_generate(8, samples_per_profile=4, seed=2, n_reservoirs=4)
    # Round-robin dealing gives every reservoir exactly two profiles, and the
    # split promises each such reservoir one profile on each side.
    expected = sorted({p.reservoir_id for p in data.profile_set.profiles})
    assert len(expected) == 4
    for plan_seed in range(5):
        plan = split_profiles(data.profile_set, ratio=0.7, seed=plan_seed)
        for side in (plan.train, plan.test):
            reservoirs = sorted({k[0] for k in side})
            assert reservoirs == expected


@given(
    n_profiles=st.integers(min_value=2, max_value=40),
    ratio=st.floats(min_value=0.1, max_value=0.9),
    seed=st.integers(min_value=0, max_value=999),
)
def test_split_fuzz_invariants(n_profiles, ratio, seed):
    keys = [
        (f"r{i % 5}", (datetime.date(2015, 1, 1) + datetime.timedelta(days=i)).isoformat(), "s")
        for i in range(n_profiles)
    ]
    plan = split_profiles(keys, ratio=ratio, seed=seed)
    assert not set(plan.train) & set(plan.test)
    assert set(plan.train) | set(plan.test) == set(keys)
    assert plan.train and plan.test


# --- synthetic generation ----------------------------------------------------


def test_synth_deterministic():
    a = synth_generate(10, samples_per_profile=4, noise_sigma=0.05, seed=9)
    b = synth_generate(10, samples_per_profile=4, noise_sigma=0.05, seed=9)
    assert a.profile_set == b.profile_set
    assert a.truth_text == b.truth_text


def test_synth_truth_text_parses():
    data = synth_generate(4, samples_per_profile=4, seed=0)
    expr = parse_expression(data.truth_text)
    assert to_text(expr) == data.truth_text


def test_synth_round_robin_reservoirs():
    data = synth_generate(7, samples_per_profile=4, seed=1, n_reservoirs=3)
    names = [p.reservoir_id for p in data.profile_set.profiles]
    assert len(set(names)) == 3
    counts = {n: names.count(n) for n in set(names)}
    assert sorted(counts.values()) == [2, 2, 3]


def test_noiseless_synth_matches_generating_truth(synth_small):
    # Push the generated raw values back through the pipeline: normalized
    # target must equal the truth expression at the normalized predictors,
    # up to scaler round-trip error.
    dm = design_matrix(synth_small.profile_set)
    x_norm, y_norm, oob = dm.normalized(synth_small.scaler)
    assert not oob.any()
    truth = load_bank().get("simple", 4)
    expected = truth.evaluate(x_norm)
    assert np.abs(y_norm - expected).max() < 1e-9


def test_synth_rejects_bad_params():
    with pytest.raises(ValueError):
        synth_generate(0)
    with pytest.raises(ValueError):
        synth_generate(5, samples_per_profile=3)
    with pytest.raises(ValueError):
        synth_generate(5, n_reservoirs=0)
