"""Trees, forests, and boosting against an exhaustive split-search oracle."""

import numpy as np
import pytest

from rwtkit.errors import DimensionMismatch, EmptyData, InvalidParam, NonFiniteInput
from rwtkit.trees import (
    BoostedEnsemble,
    BoostParams,
    Forest,
    ForestParams,
    TreeParams,
    gbm_fit,
    predict,
    rf_fit,
    tree_fit,
)

# --- independent oracle ------------------------------------------------------
#
# Reimplements the documented split rule with no shortcuts: every admissible
# midpoint of every feature is scored with the canonical per-side formula,
# and the winner minimizes (score, feature index, threshold) exactly.


def oracle_sse(y):
    return float(np.sum((y - y.mean()) ** 2))


def oracle_best_split(x, y, min_leaf):
    n = len(y)
    best = None
    for f in range(x.shape[1]):
        v = np.sort(x[:, f], kind="stable")
        for k in range(min_leaf, n - min_leaf + 1):
            if k == 0 or k == n or v[k - 1] == v[k]:
                continue
            thr = (v[k - 1] + v[k]) / 2.0
            if thr >= v[k]:
                continue
            mask = x[:, f] <= thr
            score = oracle_sse(y[mask]) + oracle_sse(y[~mask])
            key = (score, f, float(thr))
            if best is None or key < best:
                best = key
    return best  # (score, feature, threshold) or None


def oracle_tree(x, y, params, depth=0):
    """Nested (feature, thr, left, right) tuples; a leaf is ('leaf', mean)."""
    if depth >= params.max_depth or len(y) < 2 * params.min_samples_leaf:
        return ("leaf", float(y.mean()))
    found = oracle_best_split(x, y, params.min_samples_leaf)
    if found is None:
        return ("leaf", float(y.mean()))
    score, f, thr = found
    if not (oracle_sse(y) - score > params.gamma):
        return ("leaf", float(y.mean()))
    mask = x[:, f] <= thr
    return (
        f,
        thr,
        oracle_tree(x[mask], y[mask], params, depth + 1),
        oracle_tree(x[~mask], y[~mask], params, depth + 1),
    )


def assert_matches_oracle(tree, node, idx=0):
    if node[0] == "leaf":
        assert tree.feature[idx] == -1
        assert tree.value[idx] == node[1]
        return
    f, thr, left, right = node
    assert tree.feature[idx] == f
    assert tree.threshold[idx] == thr
    assert_matches_oracle(tree, left, tree.left[idx])
    assert_matches_oracle(tree, right, tree.right[idx])


@pytest.mark.parametrize("seed", range(30))
def test_greedy_matches_exhaustive_enumeration(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    q = int(rng.integers(1, 4))
    x = np.round(rng.uniform(0.0, 1.0, size=(n, q)), 2)  # force value ties
    y = np.round(rng.normal(0.0, 1.0, size=n), 2)
    params = TreeParams(max_depth=int(rng.integers(1, 5)), min_samples_leaf=1)
    fitted = tree_fit(x, y, params)
    assert_matches_oracle(fitted, oracle_tree(x, y, params))


def test_oracle_agreement_with_min_leaf_and_gamma():
    rng = np.random.default_rng(99)
    for trial in range(20):
        x = np.round(rng.uniform(0.0, 1.0, size=(8, 2)), 1)
        y = np.round(rng.normal(size=8), 1)
        params = TreeParams(max_depth=4, min_samples_leaf=2, gamma=0.05)
        assert_matches_oracle(tree_fit(x, y, params), oracle_tree(x, y, params))


def exhaustive_stage_tree(x, r, max_depth, min_child, gamma, depth=0):
    """One boosting stage's tree by brute force, leaves as ('leaf', sum, rows).

    Every midpoint of every feature is scored canonically; a split needs at
    least ``min_child`` rows on each side and a gain above ``gamma``.
    """
    leaf = ("leaf", float(r.sum()), len(r))
    if depth >= max_depth:
        return leaf
    best = None
    for f in range(x.shape[1]):
        v = np.sort(x[:, f])
        for k in range(1, len(r)):
            if k < min_child or len(r) - k < min_child or v[k - 1] == v[k]:
                continue
            thr = (v[k - 1] + v[k]) / 2.0
            if thr >= v[k]:
                continue
            mask = x[:, f] <= thr
            key = (oracle_sse(r[mask]) + oracle_sse(r[~mask]), f, float(thr))
            if best is None or key < best:
                best = key
    if best is None or not (oracle_sse(r) - best[0] > gamma):
        return leaf
    _, f, thr = best
    mask = x[:, f] <= thr
    return (
        f,
        thr,
        exhaustive_stage_tree(x[mask], r[mask], max_depth, min_child, gamma, depth + 1),
        exhaustive_stage_tree(x[~mask], r[~mask], max_depth, min_child, gamma, depth + 1),
    )


def assert_stage_matches(tree, node, params, idx=0):
    if node[0] == "leaf":
        _, total, rows = node
        shrunk = max(abs(total) - params.reg_alpha, 0.0) * np.sign(total)
        assert tree.feature[idx] == -1
        assert tree.n_node_samples[idx] == rows
        assert tree.value[idx] == shrunk / (rows + params.reg_lambda)
        return
    f, thr, left, right = node
    assert tree.feature[idx] == f
    assert tree.threshold[idx] == thr
    assert_stage_matches(tree, left, params, tree.left[idx])
    assert_stage_matches(tree, right, params, tree.right[idx])


@pytest.mark.parametrize("seed", range(10))
def test_boosted_stages_match_exhaustive_enumeration(seed):
    # Rounded inputs force value ties; min_child_weight and gamma both prune.
    rng = np.random.default_rng(100 + seed)
    n, q = int(rng.integers(30, 81)), int(rng.integers(1, 5))
    x = np.round(rng.uniform(0.0, 1.0, size=(n, q)), 1)
    y = np.round(rng.normal(0.0, 1.0, size=n), 1)
    params = BoostParams(
        n_estimators=3,
        learning_rate=0.5,
        max_depth=int(rng.integers(2, 6)),
        gamma=float(rng.choice([0.05, 0.5, 2.0])),
        min_child_weight=float(rng.choice([1.0, 2.5, 4.0])),
        reg_alpha=float(rng.choice([0.0, 0.2])),
        seed=seed,
    )
    model = gbm_fit(x, y, params)
    min_child = int(np.ceil(params.min_child_weight))
    for stage, tree in enumerate(model.trees):
        residual = y - model.staged_predict(x, stage)
        oracle = exhaustive_stage_tree(x, residual, params.max_depth, min_child, params.gamma)
        assert_stage_matches(tree, oracle, params)


@pytest.mark.parametrize("offset", [1e5, -3e5, 1e6])
def test_oracle_agreement_with_large_target_offset(offset):
    # The prefix-sum screen must stay inside the tie band when the targets'
    # offset dwarfs their spread: uncentred prefix sums of y ~ 1e5 carry
    # rounding errors near 1e-5, above the band, and lose the true winner.
    rng = np.random.default_rng(5)
    for trial in range(20):
        n, q = int(rng.integers(10, 60)), int(rng.integers(1, 4))
        x = np.round(rng.uniform(0.0, 1.0, size=(n, q)), 2)
        y = rng.normal(size=n) + offset
        params = TreeParams(max_depth=int(rng.integers(1, 6)), min_samples_leaf=int(rng.integers(1, 3)))
        assert_matches_oracle(tree_fit(x, y, params), oracle_tree(x, y, params))


def test_exact_interpolation_on_distinct_rows():
    rng = np.random.default_rng(1)
    x = rng.uniform(0.0, 1.0, size=(40, 3))
    y = rng.normal(size=40)
    tree = tree_fit(x, y, TreeParams(max_depth=30))
    assert np.array_equal(tree.predict(x), y)


def test_constant_target_single_leaf():
    x = np.arange(10.0).reshape(-1, 1)
    tree = tree_fit(x, np.full(10, 3.3))
    assert len(tree) == 1
    assert tree.n_leaves == 1
    assert np.all(tree.predict(x) == 3.3)


def test_max_depth_and_min_leaf_respected():
    rng = np.random.default_rng(2)
    x = rng.uniform(size=(200, 4))
    y = rng.normal(size=200)
    tree = tree_fit(x, y, TreeParams(max_depth=3, min_samples_leaf=5))
    assert tree.depth <= 3
    leaf_sizes = tree.n_node_samples[tree.feature < 0]
    assert leaf_sizes.min() >= 5


def test_huge_gamma_gives_stump():
    rng = np.random.default_rng(3)
    x = rng.uniform(size=(50, 2))
    y = rng.normal(size=50)
    tree = tree_fit(x, y, TreeParams(gamma=1e9))
    assert len(tree) == 1


def test_param_validation():
    with pytest.raises(InvalidParam):
        TreeParams(max_depth=0)
    with pytest.raises(InvalidParam):
        TreeParams(min_samples_leaf=0)
    with pytest.raises(InvalidParam):
        TreeParams(gamma=-0.1)
    with pytest.raises(InvalidParam):
        ForestParams(n_estimators=0)
    with pytest.raises(InvalidParam):
        BoostParams(learning_rate=0.0)
    with pytest.raises(InvalidParam):
        BoostParams(colsample_bytree=1.5)


def test_training_data_validation():
    with pytest.raises(EmptyData):
        tree_fit(np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(DimensionMismatch):
        tree_fit(np.zeros((3, 2)), np.zeros(4))
    tree = tree_fit(np.zeros((3, 2)), np.arange(3.0))
    with pytest.raises(DimensionMismatch):
        tree.predict(np.zeros((2, 5)))


def test_tree_subsampling_requires_rng():
    x = np.random.default_rng(0).uniform(size=(10, 3))
    y = np.arange(10.0)
    with pytest.raises(InvalidParam):
        tree_fit(x, y, max_features=2)
    with pytest.raises(InvalidParam):
        tree_fit(x, y, max_features=7, rng=np.random.default_rng(0))


# --- forests -----------------------------------------------------------------


def test_forest_deterministic(small_xy):
    x, y = small_xy
    params = ForestParams(n_estimators=8, max_features=4, max_depth=8, seed=5)
    a = rf_fit(x, y, params)
    b = rf_fit(x, y, params)
    assert np.array_equal(a.predict(x), b.predict(x))
    c = rf_fit(x, y, ForestParams(n_estimators=8, max_features=4, max_depth=8, seed=6))
    assert not np.array_equal(a.predict(x), c.predict(x))


def test_forest_is_mean_of_trees(small_xy):
    x, y = small_xy
    forest = rf_fit(x, y, ForestParams(n_estimators=5, max_depth=6, seed=0))
    member_mean = np.mean([t.predict(x) for t in forest.trees], axis=0)
    assert np.allclose(forest.predict(x), member_mean, atol=1e-12)


def test_forest_prediction_permutation_invariant(small_xy):
    x, y = small_xy
    forest = rf_fit(x, y, ForestParams(n_estimators=6, max_depth=6, seed=1))
    reversed_forest = Forest(
        trees=forest.trees[::-1], params=forest.params, n_features=forest.n_features
    )
    assert np.array_equal(forest.predict(x), reversed_forest.predict(x))


def test_forest_beats_stump_on_smooth_data(small_xy):
    x, y = small_xy
    forest = rf_fit(x, y, ForestParams(n_estimators=30, max_depth=10, seed=0))
    stump = tree_fit(x, y, TreeParams(max_depth=1))
    mse_forest = np.mean((forest.predict(x) - y) ** 2)
    mse_stump = np.mean((stump.predict(x) - y) ** 2)
    assert mse_forest < mse_stump


# --- boosting ----------------------------------------------------------------


def test_boost_mse_non_increasing(small_xy):
    x, y = small_xy
    model = gbm_fit(x, y, BoostParams(n_estimators=80, learning_rate=0.1, max_depth=3,
                                      gamma=0.0, seed=0))
    trace = np.array(model.train_mse)
    assert len(trace) == 80
    assert np.all(np.diff(trace) <= 0.0)


def test_boost_base_score_is_target_mean(small_xy):
    x, y = small_xy
    model = gbm_fit(x, y, BoostParams(n_estimators=3, seed=0))
    assert model.base_score == float(y.mean())
    assert np.allclose(model.staged_predict(x, 0), y.mean())


def test_single_stage_full_rate_reconstruction():
    # One stage at learning_rate 1 with lambda 0 fits the residuals exactly
    # when rows are separable, so predictions hit the targets.
    rng = np.random.default_rng(4)
    x = rng.uniform(size=(30, 2))
    y = rng.normal(size=30)
    model = gbm_fit(
        x,
        y,
        BoostParams(
            n_estimators=1,
            learning_rate=1.0,
            max_depth=30,
            gamma=0.0,
            reg_lambda=0.0,
            min_child_weight=0.0,
            seed=0,
        ),
    )
    assert np.abs(model.predict(x) - y).max() < 1e-9


def test_reg_lambda_shrinks_leaves():
    rng = np.random.default_rng(5)
    x = rng.uniform(size=(40, 2))
    y = rng.normal(size=40)
    common = dict(n_estimators=1, learning_rate=1.0, max_depth=2, gamma=0.0,
                  min_child_weight=0.0, seed=0)
    plain = gbm_fit(x, y, BoostParams(reg_lambda=0.0, **common))
    shrunk = gbm_fit(x, y, BoostParams(reg_lambda=50.0, **common))
    spread = lambda m: np.abs(m.predict(x) - m.base_score).max()
    assert spread(shrunk) < spread(plain)


def test_huge_reg_alpha_zeroes_leaves(small_xy):
    x, y = small_xy
    model = gbm_fit(x, y, BoostParams(n_estimators=3, reg_alpha=1e9, seed=0))
    assert np.allclose(model.predict(x), model.base_score)


def test_learning_rate_scales_at_prediction_time(small_xy):
    x, y = small_xy
    model = gbm_fit(x, y, BoostParams(n_estimators=5, learning_rate=0.2, seed=0))
    # Stored leaves are unscaled: rebuilding with a different rate but the
    # same trees changes predictions by exactly the rate ratio per stage.
    contributions = model.predict(x) - model.base_score
    manual = sum(0.2 * t.predict(x) for t in model.trees)
    assert np.allclose(contributions, manual, atol=1e-12)


def test_colsample_deterministic(small_xy):
    x, y = small_xy
    params = BoostParams(n_estimators=6, colsample_bytree=0.4, seed=11)
    a = gbm_fit(x, y, params)
    b = gbm_fit(x, y, params)
    assert np.array_equal(a.predict(x), b.predict(x))


def test_staged_predict_bounds(small_xy):
    x, y = small_xy
    model = gbm_fit(x, y, BoostParams(n_estimators=4, seed=0))
    assert np.allclose(model.staged_predict(x, 4), model.predict(x))
    with pytest.raises(InvalidParam):
        model.staged_predict(x, 5)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("kind", ["cart", "rf", "gbm"])
def test_predict_rejects_non_finite_rows(small_xy, kind, bad):
    # A NaN fails every "<=" test, so unchecked it would reach a right child
    # and come back as an ordinary-looking prediction.
    x, y = small_xy
    model = {
        "cart": lambda: tree_fit(x, y, TreeParams(max_depth=4)),
        "rf": lambda: rf_fit(x, y, ForestParams(n_estimators=3, max_depth=4, seed=0)),
        "gbm": lambda: gbm_fit(x, y, BoostParams(n_estimators=3, seed=0)),
    }[kind]()
    rows = x[:4].copy()
    rows[2, 0] = bad
    with pytest.raises(NonFiniteInput):
        model.predict(rows)
    with pytest.raises(NonFiniteInput):
        predict(model, rows[2])
    assert np.isfinite(model.predict(x[:4])).all()


# --- dispatcher --------------------------------------------------------------


def test_predict_dispatcher(small_xy):
    x, y = small_xy
    models = [
        tree_fit(x, y, TreeParams(max_depth=4)),
        rf_fit(x, y, ForestParams(n_estimators=3, max_depth=4, seed=0)),
        gbm_fit(x, y, BoostParams(n_estimators=3, seed=0)),
    ]
    for model in models:
        full = predict(model, x)
        assert full.shape == (len(x),)
        single = predict(model, x[0])
        assert single.shape == (1,)
        assert single[0] == full[0]
