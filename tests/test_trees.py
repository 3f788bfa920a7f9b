"""Trees, forests, and boosting against an exhaustive split-search oracle."""

import numpy as np
import pytest

from rwtkit import trees
from rwtkit.errors import DimensionMismatch, EmptyData, InvalidParam, NonFiniteInput
from rwtkit.trees import (
    BoostedEnsemble,
    BoostParams,
    Forest,
    ForestParams,
    TreeParams,
    gbm_fit,
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
    for bad in (-0.1, np.nan, np.inf):
        with pytest.raises(InvalidParam):
            TreeParams(gamma=bad)
        for field in ("gamma", "min_child_weight", "reg_alpha", "reg_lambda"):
            with pytest.raises(InvalidParam):
                BoostParams(**{field: bad})
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
        model.predict(rows[2])
    assert np.isfinite(model.predict(x[:4])).all()


# --- node table against the per-tree loops -------------------------------------
#
# The per-tree descents and reductions that the ensembles' node table
# replaced, kept as the reference: predictions, stages and leaf boxes must
# agree bit for bit.


def loop_tree_predict(tree, x):
    x = np.atleast_2d(x)
    idx = np.zeros(len(x), dtype=np.int64)
    while True:
        feat = tree.feature[idx]
        active = feat >= 0
        if not np.any(active):
            return tree.value[idx]
        rows = np.nonzero(active)[0]
        go_left = x[rows, feat[rows]] <= tree.threshold[idx[rows]]
        idx[rows] = np.where(go_left, tree.left[idx[rows]], tree.right[idx[rows]])


def loop_predict(model, x, n_stages=None):
    if isinstance(model, Forest):
        stacked = np.stack([loop_tree_predict(t, x) for t in model.trees])
        stacked.sort(axis=0)
        return stacked.sum(axis=0) / len(model.trees)
    if isinstance(model, BoostedEnsemble):
        out = np.full(len(np.atleast_2d(x)), model.base_score)
        for tree in model.trees[:n_stages]:
            out = out + model.params.learning_rate * loop_tree_predict(tree, x)
        return out
    return loop_tree_predict(model, x)


def loop_leaf_boxes(tree):
    lo = np.full((len(tree.feature), tree.n_features), -np.inf)
    hi = np.full((len(tree.feature), tree.n_features), np.inf)
    frontier = np.zeros(1, dtype=np.int64)
    while frontier.size:
        inner = frontier[tree.feature[frontier] >= 0]
        f, thr = tree.feature[inner], tree.threshold[inner]
        left, right = tree.left[inner], tree.right[inner]
        for child in (left, right):
            lo[child] = lo[inner]
            hi[child] = hi[inner]
        hi[left, f] = np.minimum(hi[inner, f], thr)
        lo[right, f] = np.maximum(lo[inner, f], thr)
        frontier = np.concatenate([left, right])
    leaves = tree.feature < 0
    return tree.value[leaves], lo[leaves], hi[leaves]


def table_models(seed):
    """cart, a 24-tree forest and a 40-stage ensemble, plus query rows of
    which every third sits on split thresholds."""
    rng = np.random.default_rng(seed)
    q = int(rng.integers(2, 7))
    x = np.round(rng.normal(size=(120, q)), 1)
    y = np.sin(x).sum(axis=1) + 0.3 * rng.normal(size=120) + 10.0 ** seed
    models = (
        tree_fit(x, y, TreeParams(max_depth=8)),
        rf_fit(x, y, ForestParams(n_estimators=24, max_features=max(1, q // 2), seed=seed)),
        gbm_fit(x, y, BoostParams(n_estimators=40, learning_rate=0.1, max_depth=4,
                                  gamma=(0.0, 0.3)[seed % 2], colsample_bytree=0.7, seed=seed)),
    )
    thresholds = np.concatenate([t.threshold[t.feature >= 0] for m in models
                                 for t in getattr(m, "trees", (m,))])
    rows = rng.normal(size=(301, q))
    rows[::3] = rng.choice(thresholds, size=rows[::3].shape)
    return x, y, models, rows


@pytest.mark.parametrize("seed", range(4))
def test_node_table_predict_matches_per_tree_loops(seed):
    _, _, models, rows = table_models(seed)
    for model in models:
        # One row alone is summed pairwise, several sequentially.
        for x in (rows[0], rows[:1], rows[:2], rows[:3], rows[:7], rows, rows[:0]):
            assert model.predict(x).tobytes() == loop_predict(model, x).tobytes()


@pytest.mark.parametrize("seed", range(4))
def test_staged_predict_and_train_mse_match_per_stage_loop(seed):
    x, y, (_, _, model), rows = table_models(seed)
    for k in range(len(model.trees) + 1):
        assert model.staged_predict(rows, k).tobytes() == loop_predict(model, rows, k).tobytes()
        assert model.staged_predict(rows[5], k).tobytes() == loop_predict(model, rows[5], k).tobytes()
    # The fit takes each stage's training predictions from the rows' leaves.
    trace = [float(np.mean((y - loop_predict(model, x, k)) ** 2)) for k in range(1, 41)]
    assert model.train_mse == tuple(trace)


@pytest.mark.parametrize("seed", range(4))
def test_leaf_boxes_match_per_tree_loop(seed):
    _, _, models, _ = table_models(seed)
    for model in models:
        members = getattr(model, "trees", (model,))
        for tree in members:
            for got, want in zip(tree.leaf_boxes(), loop_leaf_boxes(tree)):
                assert got.tobytes() == want.tobytes()
        joined = [np.concatenate(part) for part in zip(*map(loop_leaf_boxes, members))]
        for got, want in zip(model.leaf_boxes(), joined):
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("block", [240, trees._DESCENT_BLOCK])
def test_descent_runs_in_blocks(monkeypatch, block):
    # At 240 lookups a block the forest descends 10 rows at a time and the
    # ensemble 6, so 301 rows leave one row over, which the last block takes
    # in (a lone row would be summed pairwise).  At the default block the
    # forest and the ensemble need more than one block for 3311 rows.
    _, _, models, rows = table_models(1)
    if block == trees._DESCENT_BLOCK:
        rows = np.concatenate([rows] * 11)
    monkeypatch.setattr(trees, "_DESCENT_BLOCK", block)
    sizes = []
    leaves = trees._NodeTable._leaves
    monkeypatch.setattr(trees._NodeTable, "_leaves",
                        lambda self, x: sizes.append(len(x)) or leaves(self, x))
    for model in models:
        sizes.clear()
        assert model.predict(rows).tobytes() == loop_predict(model, rows).tobytes()
        n_trees = len(getattr(model, "trees", (model,)))
        assert sum(sizes) == len(rows) and min(sizes) > 1
        assert max(sizes) <= block // n_trees + 1
        assert len(sizes) > 1 or n_trees == 1


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_rows_rejected_by_stages_and_boosting_fit(small_xy, bad):
    x, y = small_xy
    model = gbm_fit(x, y, BoostParams(n_estimators=3, seed=0))
    rows = x[:4].copy()
    rows[1, 2] = bad
    with pytest.raises(NonFiniteInput):
        model.staged_predict(rows, 2)
    with pytest.raises(NonFiniteInput):
        gbm_fit(rows, y[:4], BoostParams(n_estimators=3, seed=0))


# --- one row or a matrix ------------------------------------------------------


def test_predict_takes_one_row_or_a_matrix(small_xy):
    x, y = small_xy
    models = [
        tree_fit(x, y, TreeParams(max_depth=4)),
        rf_fit(x, y, ForestParams(n_estimators=3, max_depth=4, seed=0)),
        gbm_fit(x, y, BoostParams(n_estimators=3, seed=0)),
    ]
    for model in models:
        full = model.predict(x)
        assert full.shape == (len(x),)
        single = model.predict(x[0])
        assert single.shape == (1,)
        assert single[0] == full[0]
