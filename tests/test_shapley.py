"""Exact attribution: game-theory axioms and a permutation-sum oracle."""

import itertools
import math
import multiprocessing
import warnings
from dataclasses import replace

import numpy as np
import pytest

from rwtkit import parallel, shapley
from rwtkit.errors import (
    DimensionMismatch,
    EmptyBackground,
    NonFiniteInput,
    RwtError,
    TooManyFeatures,
)
from rwtkit.kan import kan_init
from rwtkit.mlp import mlp_init
from rwtkit.shapley import (
    MAX_EXACT_FEATURES,
    BackgroundSet,
    coalition_value,
    export_heatmap,
    export_summary,
    shap_batch,
    shap_exact,
    shap_global,
)
from rwtkit.trees import BoostParams, ForestParams, TreeParams, gbm_fit, rf_fit, tree_fit


class LinearModel:
    def __init__(self, coef, intercept=0.0):
        self.coef = np.asarray(coef, dtype=float)
        self.intercept = intercept

    def predict(self, x):
        return np.asarray(x, dtype=float) @ self.coef + self.intercept


# --- permutation oracle ------------------------------------------------------
#
# The textbook definition: phi_i is the average over all q! orderings of the
# marginal contribution of feature i when it joins the features before it.
# Exponentially slower than the subset-weighted implementation, and entirely
# independent of it.


def permutation_shapley(model, x, background):
    q = background.n_features
    phi = np.zeros(q)
    for order in itertools.permutations(range(q)):
        seen = []
        value = coalition_value(model, x, seen, background)
        for i in order:
            seen.append(i)
            nxt = coalition_value(model, x, seen, background)
            phi[i] += nxt - value
            value = nxt
    return phi / math.factorial(q)


def test_matches_permutation_oracle_nonlinear():
    rng = np.random.default_rng(0)
    x_train = rng.uniform(size=(40, 4))
    y_train = x_train[:, 0] * x_train[:, 1] - np.sin(3 * x_train[:, 2])
    model = tree_fit(x_train, y_train, TreeParams(max_depth=5))
    background = BackgroundSet(x_train[:10])
    for row in x_train[20:24]:
        expected = permutation_shapley(model, row, background)
        got = shap_exact(model, row, background)
        assert np.abs(np.array(got.phi) - expected).max() < 1e-9


def test_efficiency_axiom(small_xy):
    x, y = small_xy
    model = rf_fit(x, y, ForestParams(n_estimators=5, max_depth=5, seed=0))
    background = BackgroundSet(x[:32])
    for row in x[40:50]:
        e = shap_exact(model, row, background)
        assert abs(e.base + sum(e.phi) - e.fx) < 1e-9
        assert e.fx == pytest.approx(float(model.predict(row)[0]), abs=1e-12)


def test_symmetry_axiom():
    # Two features entering identically get identical attributions.
    model = LinearModel([2.0, 2.0, -1.0])
    background = BackgroundSet(np.zeros((4, 3)))
    e = shap_exact(model, np.array([0.7, 0.7, 0.3]), background)
    assert e.phi[0] == pytest.approx(e.phi[1], abs=1e-12)


def test_dummy_axiom():
    # A feature the model ignores gets exactly zero.
    model = LinearModel([1.5, 0.0, -0.5])
    rng = np.random.default_rng(1)
    background = BackgroundSet(rng.uniform(size=(8, 3)))
    e = shap_exact(model, rng.uniform(size=3), background)
    assert e.phi[1] == 0.0


def test_linear_closed_form():
    rng = np.random.default_rng(2)
    for _ in range(20):
        q = int(rng.integers(2, 8))
        coef = rng.normal(size=q)
        intercept = float(rng.normal())
        model = LinearModel(coef, intercept)
        background = BackgroundSet(rng.uniform(size=(int(rng.integers(1, 12)), q)))
        x = rng.uniform(size=q)
        e = shap_exact(model, x, background)
        mean = background.rows.mean(axis=0)
        expected = coef * (x - mean)
        assert np.abs(np.array(e.phi) - expected).max() < 1e-9
        assert e.base == pytest.approx(float(coef @ mean + intercept), abs=1e-9)


def test_coalition_value_endpoints():
    model = LinearModel([1.0, 2.0])
    background = BackgroundSet(np.array([[0.0, 0.0], [1.0, 1.0]]))
    x = np.array([0.5, 0.5])
    assert coalition_value(model, x, [], background) == pytest.approx(1.5)
    assert coalition_value(model, x, [0, 1], background) == pytest.approx(1.5)
    # Pinning x1: mean over background of 1*0.5 + 2*b2 = 0.5 + 2*0.5.
    assert coalition_value(model, x, [0], background) == pytest.approx(1.5)
    with pytest.raises(ValueError):
        coalition_value(model, x, [7], background)


def test_wrong_width_instance_is_dimension_mismatch():
    model = LinearModel([1.0, 2.0])
    background = BackgroundSet(np.array([[0.0, 0.0], [1.0, 1.0]]))
    with pytest.raises(DimensionMismatch):
        shap_exact(model, np.ones(3), background)
    with pytest.raises(DimensionMismatch):
        coalition_value(model, np.ones(3), [0], background)


def test_shap_batch_matches_single(small_xy):
    x, y = small_xy
    model = gbm_fit(x, y, BoostParams(n_estimators=5, max_depth=3, seed=0))
    background = BackgroundSet(x[:16])
    rows = x[30:33]
    batch = shap_batch(model, rows, background)
    for row, e in zip(rows, batch):
        single = shap_exact(model, row, background)
        assert e.phi == single.phi


def test_background_subsample():
    rows = np.arange(50.0).reshape(25, 2)
    bg = BackgroundSet(rows)
    sub = bg.subsample(10, seed=3)
    assert len(sub) == 10
    assert np.array_equal(sub.rows, bg.subsample(10, seed=3).rows)
    # Original order is preserved within the draw.
    assert np.all(np.diff(sub.rows[:, 0]) > 0)
    # Requesting at least the full size returns everything.
    assert len(bg.subsample(25)) == 25
    assert len(bg.subsample(999)) == 25
    with pytest.raises(EmptyBackground):
        bg.subsample(0)
    with pytest.raises(EmptyBackground):
        BackgroundSet(np.zeros((0, 3)))


def test_feature_count_cap():
    q = MAX_EXACT_FEATURES + 1
    model = LinearModel(np.ones(q))
    background = BackgroundSet(np.zeros((2, q)))
    with pytest.raises(TooManyFeatures):
        shap_exact(model, np.ones(q), background)


def test_global_importance_ranking():
    rng = np.random.default_rng(3)
    model = LinearModel([3.0, -1.0, 0.0])
    background = BackgroundSet(np.zeros((3, 3)))
    exps = shap_batch(model, rng.uniform(size=(12, 3)), background)
    g = shap_global(exps)
    assert g.ranking[0] == 0 and g.ranking[-1] == 2
    assert g.importance[2] == 0.0
    assert sum(g.percentages) == pytest.approx(100.0)


def test_global_importance_all_zero():
    model = LinearModel([0.0, 0.0])
    background = BackgroundSet(np.zeros((2, 2)))
    exps = shap_batch(model, np.ones((3, 2)), background)
    g = shap_global(exps)
    assert g.percentages is None
    assert g.ranking == (0, 1)


def test_export_summary_shape():
    model = LinearModel([1.0, -2.0, 0.5])
    background = BackgroundSet(np.zeros((2, 3)))
    exps = shap_batch(model, np.random.default_rng(4).uniform(size=(5, 3)), background)
    text = export_summary(exps)
    lines = text.strip().split("\n")
    assert lines[0] == "feature,rank,instance,shap_value,feature_value"
    assert len(lines) == 1 + 3 * 5
    assert text == export_summary(exps)  # deterministic


def test_export_heatmap_shape():
    model = LinearModel([1.0, -2.0, 0.5])
    background = BackgroundSet(np.zeros((2, 3)))
    exps = shap_batch(model, np.random.default_rng(5).uniform(size=(6, 3)), background)
    text = export_heatmap(exps)
    lines = text.strip().split("\n")
    assert lines[0].startswith("instance,")
    assert lines[1].startswith("f(x),")
    assert len(lines[0].split(",")) == 7  # label + 6 instances
    assert text == export_heatmap(exps)


# --- heatmap order against scipy ---------------------------------------------
#
# The heatmap's average-linkage order is computed without scipy.cluster; scipy's
# own linkage/leaves_list is the oracle, on matrices built to tie: integer
# grids, duplicated rows, zero columns and features scaled from 1e-8 to 1e8.


def scipy_order(phi):
    from scipy.cluster.hierarchy import ClusterWarning, leaves_list, linkage

    # A square 2-D input is still read as observations; scipy only warns
    # when one happens to look like a distance matrix.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ClusterWarning)
        z = linkage(phi, method="average", metric="euclidean")
    return [int(i) for i in leaves_list(z)]


def tie_prone_matrix(rng, family):
    n, q = int(rng.integers(2, 41)), int(rng.integers(1, 11))
    if family == "grid":
        phi = rng.integers(-2, 3, size=(n, q)).astype(float)
    elif family == "duplicates":
        distinct = rng.normal(size=(int(rng.integers(1, n // 2 + 2)), q))
        phi = distinct[rng.integers(0, len(distinct), size=n)]
    elif family == "zero_columns":
        phi = rng.integers(0, 3, size=(n, q)) * rng.normal(size=q)
        phi[:, rng.random(q) < 0.5] = 0.0
    else:  # "scales"
        phi = rng.normal(size=(n, q)) * 10.0 ** rng.uniform(-8, 8, size=q)
    return phi * 10.0 ** int(rng.integers(-8, 9))


TIE_PRONE_FAMILIES = ("grid", "duplicates", "zero_columns", "scales")


@pytest.mark.parametrize("family", TIE_PRONE_FAMILIES)
def test_heatmap_order_matches_scipy(family):
    rng = np.random.default_rng(TIE_PRONE_FAMILIES.index(family))
    for _ in range(500):
        phi = tie_prone_matrix(rng, family)
        assert shapley._average_linkage_order(phi) == scipy_order(phi), phi.tolist()


def test_heatmap_order_small_cases():
    assert shapley._average_linkage_order(np.array([[3.0, -1.0]])) == [0]
    for phi in ([[1.0], [0.0]], [[0.0], [0.0]], [[2.0, 1.0], [1e-300, 0.0]]):
        assert shapley._average_linkage_order(np.array(phi)) == scipy_order(phi)


def test_heatmap_order_rejects_overflowing_distances():
    phi = np.array([[1e155, 0.0], [-1e155, 0.0], [0.0, 1.0]])
    with pytest.raises(NonFiniteInput):
        shapley._average_linkage_order(phi)


def test_export_heatmap_orders_tied_instances_like_scipy():
    model = LinearModel([1.0, 0.0, 0.0, 2.0])
    grid = np.random.default_rng(6).integers(0, 2, size=(12, 4)).astype(float)
    exps = shap_batch(model, grid, BackgroundSet(np.zeros((1, 4))))
    header = export_heatmap(exps).split("\n")[0]
    want = scipy_order(np.stack([e.phi for e in exps]))
    assert header == "instance," + ",".join(str(i) for i in want)


def test_instance_keys_flow_to_exports(small_xy):
    x, y = small_xy
    model = tree_fit(x, y, TreeParams(max_depth=3))
    background = BackgroundSet(x[:8])
    e = shap_exact(model, x[50], background, instance_key="siteA")
    assert e.instance_key == "siteA"
    assert "siteA" in export_summary([e])


# --- structure-aware paths against the enumerator ----------------------------
#
# A plain callable such as ``model.predict`` always goes through the full
# coalition enumeration, which makes it the oracle for the leaf-box path of
# the tree models and the factored first layer of the networks.


def assert_matches_enumerator(model, rows, background, tol=1e-12):
    for row in rows:
        got = shap_exact(model, row, background)
        want = shap_exact(model.predict, row, background)
        assert np.abs(np.array(got.phi) - np.array(want.phi)).max() < tol
        assert abs(got.base - want.base) < tol
        assert got.fx == float(model.predict(row)[0])


def random_tree_models(seed):
    """A tree, a forest and a gamma > 0 boosted ensemble on one random dataset."""
    rng = np.random.default_rng(seed)
    q = int(rng.integers(2, 7))
    x = np.round(rng.uniform(size=(80, q)), 2)
    y = np.sin(3.0 * x[:, 0]) + x[:, -1] * x[:, 1 % q] + 0.1 * rng.normal(size=80)
    models = (
        tree_fit(x, y, TreeParams(max_depth=int(rng.integers(2, 7)))),
        rf_fit(x, y, ForestParams(n_estimators=6, max_features=max(1, q - 1),
                                  max_depth=6, seed=seed)),
        gbm_fit(x, y, BoostParams(n_estimators=15, learning_rate=0.3, max_depth=3,
                                  gamma=0.05, seed=seed)),
    )
    return rng, x, models


@pytest.mark.parametrize("seed", range(4))
def test_tree_paths_match_enumerator(seed):
    _, x, models = random_tree_models(seed)
    background = BackgroundSet(x[:12])
    for model in models:
        assert_matches_enumerator(model, x[60:66], background)


@pytest.mark.parametrize("seed", range(3))
def test_tree_paths_on_split_thresholds(seed):
    # A value equal to a threshold goes left; the leaf boxes must agree with
    # prediction for instances and background rows sitting on thresholds.
    rng, x, models = random_tree_models(seed)
    for model in models:
        trees = getattr(model, "trees", (model,))
        splits = [
            (int(t.feature[i]), float(t.threshold[i]))
            for t in trees
            for i in np.nonzero(t.feature >= 0)[0]
        ]
        assert splits
        rows = x[:16].copy()
        for row in rows:
            for k in rng.choice(len(splits), size=min(3, len(splits)), replace=False):
                f, thr = splits[k]
                row[f] = thr
        assert_matches_enumerator(model, rows[10:], BackgroundSet(rows[:10]))


@pytest.mark.parametrize("hidden", [(), (6,), (7, 5)])
def test_mlp_path_matches_enumerator(hidden):
    rng = np.random.default_rng(len(hidden))
    q = 6
    model = mlp_init((q, *hidden, 1), seed=3)
    model = replace(model, biases=tuple(rng.normal(size=b.shape) for b in model.biases))
    background = BackgroundSet(rng.normal(size=(9, q)))
    assert_matches_enumerator(model, rng.normal(size=(5, q)), background)


@pytest.mark.parametrize("hidden", [(2,), (3, 2)])
def test_spline_network_path_matches_enumerator(hidden):
    rng = np.random.default_rng(10 + len(hidden))
    q = 5
    net = kan_init((q, *hidden, 1), grid_size=6, seed=2)
    net = replace(net, coefs=tuple(rng.normal(size=c.shape) for c in net.coefs))
    background = BackgroundSet(rng.uniform(-0.3, 1.3, size=(8, q)))
    rows = rng.uniform(-0.5, 1.5, size=(6, q))
    for x in (rows, background.rows):
        assert ((x < 0.0) | (x > 1.0)).any()  # some entries outside the spline span
    assert_matches_enumerator(net, rows, background)


@pytest.mark.parametrize(
    "layout", [(6, 1), (6, 5, 1), (6, 7, 5, 1), ("kan", 6, 2, 1), ("kan", 6, 3, 2, 1)]
)
def test_factored_table_bytes_do_not_depend_on_block_size(monkeypatch, layout):
    # The smallest block (4 masks), a middle one and the whole table in one
    # block; 9 background rows, so no block's row count is a multiple of 4
    # unless its mask count is.
    rng = np.random.default_rng(len(layout))
    if layout[0] == "kan":
        model = kan_init(layout[1:], grid_size=6, seed=2)
        model = replace(model, coefs=tuple(rng.normal(size=c.shape) for c in model.coefs))
    else:
        model = mlp_init(layout, seed=3)
        model = replace(model, biases=tuple(rng.normal(size=b.shape) for b in model.biases))
    background = BackgroundSet(rng.uniform(-0.3, 1.3, size=(9, 6)))
    tables = shapley._first_layer_tables(model, background)
    bits = shapley._coalitions(6).bits
    for row in rng.uniform(-0.5, 1.5, size=(3, 6)):
        got = set()
        for block in (1, 600, 1 << 30):
            monkeypatch.setattr(shapley, "_BLOCK_VALUES", block)
            got.add(shapley._factored_table(model, tables, row, bits).tobytes())
        assert len(got) == 1


@pytest.mark.parametrize("q", [1, 3, 10, 15])
def test_phi_from_table_matches_per_feature_sums_bitwise(q):
    # The per-q index sets and weights are built once and every feature's
    # sum runs in one reduction; the bits must be those of one sum per
    # feature over its own index set.
    c = shapley._coalitions(q)
    masks = np.arange(1 << q)
    weights = np.array([math.factorial(s) * math.factorial(q - s - 1) / math.factorial(q)
                        for s in range(q)])
    assert c.weights.tobytes() == weights[c.popcount[c.without]].tobytes()
    for seed in range(3):
        values = np.random.default_rng(seed).normal(scale=10.0 ** seed, size=1 << q)
        want = np.empty(q)
        for i in range(q):
            without = masks[(masks >> i) & 1 == 0]
            gain = values[without | (1 << i)] - values[without]
            want[i] = np.sum(c.weights[i] * gain)
        assert shapley._phi_from_table(values, c).tobytes() == want.tobytes()
    assert not c.bits.flags.writeable and not c.with_.flags.writeable


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_rows_rejected(small_xy, bad):
    x, y = small_xy
    background = BackgroundSet(x[:8])
    row = x[50].copy()
    row[3] = bad
    for model in (tree_fit(x, y, TreeParams(max_depth=3)), LinearModel(np.ones(10))):
        with pytest.raises(NonFiniteInput):
            shap_exact(model, row, background)
    rows = x[:8].copy()
    rows[2, 0] = bad
    with pytest.raises(NonFiniteInput):
        BackgroundSet(rows)
    assert issubclass(NonFiniteInput, RwtError)


# --- explanations in worker processes ----------------------------------------


def _force_workers(monkeypatch, n):
    monkeypatch.setattr(parallel, "worker_count", lambda n_tasks: max(1, min(n, n_tasks)))


def pool_models(x, y):
    """One model of each kind the attribution has a path for, by name."""
    return {
        "cart": tree_fit(x, y, TreeParams(max_depth=4)),
        "rf": rf_fit(x, y, ForestParams(n_estimators=4, max_depth=4, seed=0)),
        "gbm": gbm_fit(x, y, BoostParams(n_estimators=5, max_depth=3, seed=0)),
        "mlp": mlp_init((10, 6, 1), seed=3),
        "kan": kan_init((10, 2, 1), grid_size=5, seed=2),
        "callable": LinearModel(np.linspace(-1.0, 1.0, 10), 0.5).predict,
    }


def _refuses_large_inputs(matrix):
    if np.any(matrix > 100.0):
        raise OverflowError("input above 100")
    return matrix.sum(axis=1)


def test_pooled_explanations_equal_inline_ones(monkeypatch, small_xy):
    x, y = small_xy
    rows = x[40:45]
    for name, model in pool_models(x, y).items():
        runs = {}
        for workers in (1, 2):
            _force_workers(monkeypatch, workers)
            # A fresh background each time, so the workers build their own tables.
            runs[workers] = shap_batch(model, rows, BackgroundSet(x[:16]))
            assert multiprocessing.active_children() == []
        assert [e.instance_key for e in runs[2]] == ["0", "1", "2", "3", "4"]
        assert repr(runs[2]) == repr(runs[1]), name


def test_pooled_explanations_with_fewer_rows_than_workers(monkeypatch, small_xy):
    x, y = small_xy
    model = pool_models(x, y)["gbm"]
    background = BackgroundSet(x[:16])
    _force_workers(monkeypatch, 4)
    for rows in (x[40:43], x[40:41], x[40:40]):
        want = tuple(shap_exact(model, row, background, instance_key=str(i))
                     for i, row in enumerate(rows))
        assert shap_batch(model, rows, BackgroundSet(x[:16])) == want
        assert multiprocessing.active_children() == []


def test_pooled_error_is_the_first_in_row_order(monkeypatch, small_xy):
    # Row 1 closes the first chunk with a NaN; row 2 opens the second with
    # a value the model refuses, so the second chunk fails first in time.
    x, _ = small_xy
    rows = x[40:44].copy()
    rows[1, 3] = np.nan
    rows[2, 0] = 1e3
    background = BackgroundSet(x[:16])
    for workers in (1, 2):
        _force_workers(monkeypatch, workers)
        with pytest.raises(NonFiniteInput):
            shap_batch(_refuses_large_inputs, rows, background)
        assert multiprocessing.active_children() == []
    with pytest.raises(OverflowError, match="input above 100"):
        shap_batch(_refuses_large_inputs, rows[2:], background)
    assert multiprocessing.active_children() == []


def test_spawned_workers_give_the_same_explanations(monkeypatch, small_xy):
    # Where workers are spawned they start from a fresh import and unpickle
    # the model, the rows and the background.
    x, y = small_xy
    models = pool_models(x, y)
    rows = x[40:43]
    _force_workers(monkeypatch, 1)
    inline = {name: shap_batch(models[name], rows, BackgroundSet(x[:16]))
              for name in ("rf", "mlp", "kan")}
    monkeypatch.setattr(parallel, "START_METHOD", "spawn")
    _force_workers(monkeypatch, 2)
    for name, want in inline.items():
        assert repr(shap_batch(models[name], rows, BackgroundSet(x[:16]))) == repr(want), name
    assert multiprocessing.active_children() == []
