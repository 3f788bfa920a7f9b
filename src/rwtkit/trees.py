"""Regression trees, bagged forests, and gradient-boosted ensembles.

Split rule (shared by every tree grown here): candidate thresholds are the
midpoints between consecutive distinct sorted values of a feature; a
candidate scores the summed squared error of its two sides, where each
side's error is ``sum((y - y.mean())**2)`` computed over the side's rows in
ascending row order.  The winner is the candidate minimizing
(score, feature index, threshold), compared exactly in that order, and a
split is kept only when it reduces the parent error by strictly more than
``gamma``.  Rows go left when ``x <= threshold``; a midpoint that rounds up
to the upper neighbouring value cannot separate the two rows and is skipped.

Those rules pin the fit down to the float level, so an independent
exhaustive enumeration of all candidates reproduces every chosen split
bit for bit.  Internally the search follows XGBoost's exact-greedy column
block (Chen & Guestrin, KDD 2016): each column is sorted once per tree (once
per ensemble when boosting, whose rows never change), and a node hands its
children their rows by stable partition, which is exactly the order a
stable argsort of the child's own values would give.  At each node one
array screen scores every admissible midpoint of every drawn feature from
prefix sums of the node's centred targets, and only candidates within a
tie band of the screened optimum are rescored canonically; the band is far
wider than the screen's rounding error, so the screen never changes the
winner.

Bagged forests average ``n_estimators`` trees fitted on bootstrap resamples
(n draws with replacement), with ``max_features`` candidate features drawn
per split.  Boosted ensembles fit each stage's tree to the current
residuals; leaf values are ``soft_threshold(sum(residuals), reg_alpha) /
(n_leaf + reg_lambda)`` and the learning rate scales tree contributions at
prediction time, never the stored leaves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InvalidParam
from .features import model_rows, training_rows

__all__ = [
    "TreeParams",
    "DecisionTree",
    "ForestParams",
    "Forest",
    "BoostParams",
    "BoostedEnsemble",
    "tree_fit",
    "rf_fit",
    "gbm_fit",
]

#: (trees x rows) leaf lookups per block of a descent; bounds its index arrays.
_DESCENT_BLOCK = 1 << 16

#: Screening tolerance for near-tied split candidates, scaled by the node's
#: total squared error.  Anything within this band of the screened optimum
#: is rescored with the canonical formula before the winner is chosen.
_TIE_BAND = 1e-6


@dataclass(frozen=True)
class TreeParams:
    """Growth limits for a single regression tree."""

    max_depth: int = 30
    min_samples_leaf: int = 1
    gamma: float = 0.0

    def __post_init__(self) -> None:
        if self.max_depth < 1:
            raise InvalidParam(f"max_depth must be >= 1, got {self.max_depth}")
        if self.min_samples_leaf < 1:
            raise InvalidParam(f"min_samples_leaf must be >= 1, got {self.min_samples_leaf}")
        if not 0.0 <= self.gamma < math.inf:
            raise InvalidParam(f"gamma must be finite and >= 0, got {self.gamma}")


def _sum_and_sse(y: np.ndarray) -> tuple[float, float]:
    """``(sum(y), sum((y - y.mean())**2))`` in documented arithmetic.

    Bit for bit what ``y.sum()`` and ``np.sum((y - y.mean()) ** 2)`` give,
    without their Python-level wrappers: numpy's mean is the same pairwise
    sum divided by the count.
    """
    total = np.add.reduce(y)
    dev = y - total / len(y)
    return float(total), float(np.add.reduce(dev * dev))


def _soft_threshold(value: float, alpha: float) -> float:
    if value > alpha:
        return value - alpha
    if value < -alpha:
        return value + alpha
    return 0.0


class _NodeTable:
    """Trees concatenated into one set of flat node arrays.

    Tree ``t`` occupies the nodes from ``roots[t]`` on, in its own preorder;
    ``left`` and ``right`` index the whole table.  One descent routes every
    row through every tree at once.
    """

    def __init__(self, trees, n_features: int):
        sizes = [len(t) for t in trees]
        self.roots = np.cumsum([0] + sizes[:-1])
        self.feature, self.threshold, self.left, self.right, self.value = (
            np.concatenate([getattr(t, name) for t in trees])
            for name in ("feature", "threshold", "left", "right", "value"))
        self.left += np.repeat(self.roots, sizes)
        self.right += np.repeat(self.roots, sizes)
        self.n_features = n_features

    def _leaves(self, x: np.ndarray) -> np.ndarray:
        """The leaf each tree routes each row of ``x`` to, shape (trees, rows)."""
        node = np.repeat(self.roots, len(x))
        row = np.tile(np.arange(len(x)), len(self.roots))
        live = np.flatnonzero(self.feature[node] >= 0)
        while live.size:
            at = node[live]
            go_left = x[row[live], self.feature[at]] <= self.threshold[at]
            node[live] = nxt = np.where(go_left, self.left[at], self.right[at])
            live = live[self.feature[nxt] >= 0]
        return node.reshape(len(self.roots), len(x))

    def reduce(self, x, combine) -> np.ndarray:
        """``combine`` applied to the (trees, rows) leaf values of each block
        of rows, concatenated.

        numpy sums one column pairwise and several columns sequentially, so
        the last block takes in a trailing single row: a block holds one row
        only when ``x`` does, and every row is summed as in one whole block.
        """
        x = model_rows(x, self.n_features)
        starts = range(0, max(len(x) - 1, 1), max(2, _DESCENT_BLOCK // len(self.roots)))
        return np.concatenate([combine(self.value[self._leaves(x[a:b])])
                               for a, b in zip(starts, [*starts[1:], len(x)])])

    def leaf_boxes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`DecisionTree.leaf_boxes` of every tree, in table order."""
        lo = np.full((len(self.feature), self.n_features), -np.inf)
        hi = np.full((len(self.feature), self.n_features), np.inf)
        frontier = self.roots
        while frontier.size:
            inner = frontier[self.feature[frontier] >= 0]
            f, thr = self.feature[inner], self.threshold[inner]
            left, right = self.left[inner], self.right[inner]
            for child in (left, right):
                lo[child] = lo[inner]
                hi[child] = hi[inner]
            hi[left, f] = np.minimum(hi[inner, f], thr)
            lo[right, f] = np.maximum(lo[inner, f], thr)
            frontier = np.concatenate([left, right])
        leaves = self.feature < 0
        return self.value[leaves], lo[leaves], hi[leaves]


@dataclass(frozen=True)
class DecisionTree:
    """A fitted regression tree in flat-array form.

    ``feature[i] == -1`` marks a leaf whose prediction is ``value[i]``;
    internal nodes route rows left when ``x[:, feature] <= threshold``.
    Children are stored preorder.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    n_node_samples: np.ndarray
    n_features: int

    def __len__(self) -> int:
        return len(self.feature)

    @property
    def depth(self) -> int:
        depths = np.zeros(len(self.feature), dtype=int)
        for i in range(len(self.feature)):
            if self.feature[i] >= 0:
                depths[self.left[i]] = depths[i] + 1
                depths[self.right[i]] = depths[i] + 1
        return int(depths.max()) if len(depths) else 0

    @cached_property
    def _table(self) -> _NodeTable:
        return _NodeTable((self,), self.n_features)

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self._table.reduce(x, lambda v: v[0])

    def leaf_boxes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(value, lo, hi)`` for each leaf, in node order.

        ``lo`` and ``hi`` have shape (n_leaves, n_features): a finite row
        reaches a leaf exactly when ``lo < x <= hi`` in every column, which
        is the ``<=``-goes-left rule applied along the leaf's path.
        """
        return self._table.leaf_boxes()


def _mean_leaf(total: float, count: int) -> float:
    return total / count


class _TreeBuilder:
    """Grows one tree; collects nodes preorder into parallel lists.

    ``cols`` is the training matrix transposed, one row per feature, and
    ``order`` holds, for each allowed feature, the row indices sorted stably
    by that feature's value.  A node's rows travel down the recursion twice:
    ``idx`` in ascending row order (for the canonical arithmetic) and
    ``rows`` as the stable partition of ``order``, which is exactly what a
    stable argsort of the node's own values would give.
    """

    def __init__(
        self,
        cols: np.ndarray,
        order: np.ndarray,
        y: np.ndarray,
        params: TreeParams,
        rng: np.random.Generator | None,
        max_features: int | None = None,
        leaf_value=_mean_leaf,
        allowed_features: np.ndarray | None = None,
        min_child_weight: float = 0.0,
    ):
        self.cols = cols
        self.order = order
        self.y = y
        self.params = params
        self.leaf_value = leaf_value
        self.allowed = np.arange(len(cols)) if allowed_features is None else allowed_features
        self.max_features = max_features
        # The fewest rows a child may hold; ``min_child_weight`` counts rows
        # here (unit hessians), and a bound past ``len(y)`` forbids any split.
        self.min_child = math.ceil(min(max(params.min_samples_leaf, min_child_weight), len(y)))
        self.rng = rng
        self.goes_left = np.zeros(len(y), dtype=bool)
        # The leaf each training row ends in, filled in as leaves are made.
        self.leaf = np.zeros(len(y), dtype=np.int64)
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[float] = []
        self.n_node: list[int] = []

    def _pick_features(self) -> np.ndarray:
        """Positions into ``allowed`` of the features this split may use."""
        if self.max_features is None or self.max_features >= len(self.allowed):
            return np.arange(len(self.allowed))
        return np.sort(self.rng.choice(len(self.allowed), size=self.max_features, replace=False))

    def _best_split(
        self, idx: np.ndarray, rows: np.ndarray, stats: tuple[float, float], depth: int
    ):
        """The split a node at ``depth`` takes as ``(key, mask, left, right)``,
        or None when it stays a leaf.

        ``key`` is ``(score, feature, threshold)``, ``mask`` selects the left
        rows of ``idx`` and ``left``/``right`` are the sides'
        :func:`_sum_and_sse`.
        """
        total, sse = stats
        params = self.params
        m, first = len(idx), self.min_child
        if depth >= params.max_depth or m < 2 * first or sse == 0.0:
            return None
        pos = self._pick_features()
        # Both sides' errors are >= 0, so a node whose own error is within
        # gamma cannot gain more than gamma.  Its features are drawn all the
        # same, so that every later node draws the ones it always drew.
        if sse <= params.gamma:
            return None
        feats = self.allowed[pos]
        by_value = rows[pos]
        v = self.cols[feats[:, None], by_value]
        # Prefix sums of the targets centred on the node mean: their rounding
        # error then scales with the node's own squared error, which also
        # sets the tie band, and not with the targets' offset.  A candidate's
        # score is sum(centred**2) - gain, and that first term is the same
        # for every candidate up to rounding, so the screen ranks by gain.
        cum = (self.y[by_value] - total / m).cumsum(axis=1)
        # Candidate j puts first + j rows left, between sorted values
        # first + j - 1 and first + j.
        lc, lo = cum[:, first - 1 : m - first], v[:, first - 1 : m - first]
        hi = v[:, first : m - first + 1]
        n_left = np.arange(first, m - first + 1.0)
        gain = lc * lc / n_left + (cum[:, -1:] - lc) ** 2 / (m - n_left)
        thr = (lo + hi) / 2.0
        # A midpoint that rounds up to the upper value (equal neighbours give
        # exactly that) cannot separate the two rows.
        gain[thr >= hi] = -np.inf
        top = gain.max()
        if top == -np.inf:
            return None
        near = np.nonzero(gain >= top - _TIE_BAND * (sse + 1.0))
        y_node = self.y[idx]
        best, seen = None, set()
        for i, j in zip(*near):
            t = float(thr[i, j])
            mask = self.cols[feats[i], idx] <= t
            # A partition met before came from a smaller feature: same score,
            # smaller key.
            if (side := mask.tobytes()) in seen:
                continue
            seen.add(side)
            left, right = _sum_and_sse(y_node[mask]), _sum_and_sse(y_node[~mask])
            key = (left[1] + right[1], int(feats[i]), t)
            if best is None or key < best[0]:
                best = (key, mask, left, right)
        return best if sse - best[0][0] > params.gamma else None

    def grow(
        self, idx: np.ndarray, rows: np.ndarray, stats: tuple[float, float], depth: int
    ) -> int:
        """Grow the subtree over ``idx``; ``stats`` is its :func:`_sum_and_sse`."""
        node = len(self.feature)
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(self.leaf_value(stats[0], len(idx)))
        self.n_node.append(len(idx))
        found = self._best_split(idx, rows, stats, depth)
        if found is None:
            self.leaf[idx] = node
            return node
        (_, f, thr), mask, left, right = found
        self.goes_left[idx] = mask
        sel = self.goes_left[rows]
        left_rows, right_rows = rows[sel].reshape(len(rows), -1), rows[~sel].reshape(len(rows), -1)
        self.feature[node] = f
        self.threshold[node] = thr
        self.left[node] = self.grow(idx[mask], left_rows, left, depth + 1)
        self.right[node] = self.grow(idx[~mask], right_rows, right, depth + 1)
        return node

    def build(self) -> DecisionTree:
        self.grow(np.arange(len(self.y)), self.order, _sum_and_sse(self.y), depth=0)
        return DecisionTree(
            feature=np.array(self.feature, dtype=np.int64),
            threshold=np.array(self.threshold),
            left=np.array(self.left, dtype=np.int64),
            right=np.array(self.right, dtype=np.int64),
            value=np.array(self.value),
            n_node_samples=np.array(self.n_node, dtype=np.int64),
            n_features=len(self.cols),
        )


def _presort(cols: np.ndarray) -> np.ndarray:
    """Each row's indices in stable ascending order of its values."""
    return np.argsort(cols, axis=1, kind="stable")


def _sorted_mean(v: np.ndarray) -> np.ndarray:
    v.sort(axis=0)
    return v.sum(axis=0) / len(v)


def tree_fit(x, y, params: TreeParams = TreeParams()) -> DecisionTree:
    """Fit one regression tree with mean-valued leaves, every feature open to every split."""
    x, y = training_rows(x, y)
    cols = np.ascontiguousarray(x.T)
    return _TreeBuilder(cols, _presort(cols), y, params, None).build()


@dataclass(frozen=True)
class ForestParams:
    """Bagging configuration; defaults follow the published tuning."""

    n_estimators: int = 100
    max_features: int = 4
    max_depth: int = 30
    min_samples_leaf: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_estimators < 1:
            raise InvalidParam(f"n_estimators must be >= 1, got {self.n_estimators}")
        if self.max_features < 1:
            raise InvalidParam(f"max_features must be >= 1, got {self.max_features}")


class _Ensemble:
    """The node table of ``self.trees``, built on first use."""

    @cached_property
    def _table(self) -> _NodeTable:
        return _NodeTable(self.trees, self.n_features)

    def leaf_boxes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every tree's :meth:`DecisionTree.leaf_boxes`, concatenated in tree order."""
        return self._table.leaf_boxes()


@dataclass(frozen=True)
class Forest(_Ensemble):
    """A bagged ensemble predicting the mean of its trees.

    Its trees are concatenated, once per model and never serialized, into
    one node table that a single descent routes every row through.  Each
    row's per-tree values are sorted before they are summed, so the
    prediction is exactly invariant under any permutation of the trees.
    """

    trees: tuple[DecisionTree, ...]
    params: ForestParams
    n_features: int

    def predict(self, x) -> np.ndarray:
        return self._table.reduce(x, _sorted_mean)


def rf_fit(x, y, params: ForestParams = ForestParams()) -> Forest:
    """Fit a bagged forest.

    Each tree gets an independent child stream of ``SeedSequence(seed)``;
    within a tree the stream first draws the bootstrap indices (n with
    replacement), then the per-split feature subsets.  Fitting trees in any
    order, serially or in parallel, therefore gives identical forests.
    """
    x, y = training_rows(x, y)
    n, q = x.shape
    max_features = min(params.max_features, q)
    tree_params = TreeParams(
        max_depth=params.max_depth, min_samples_leaf=params.min_samples_leaf
    )
    cols = np.ascontiguousarray(x.T)
    streams = np.random.SeedSequence(params.seed).spawn(params.n_estimators)
    trees = []
    for stream in streams:
        rng = np.random.default_rng(stream)
        boot = rng.integers(0, n, size=n)
        boot_cols = cols[:, boot]
        builder = _TreeBuilder(boot_cols, _presort(boot_cols), y[boot], tree_params, rng,
                               max_features)
        trees.append(builder.build())
    return Forest(trees=tuple(trees), params=params, n_features=q)


@dataclass(frozen=True)
class BoostParams:
    """Boosting configuration; defaults follow the published tuning."""

    n_estimators: int = 600
    learning_rate: float = 0.01
    max_depth: int = 9
    gamma: float = 0.3
    colsample_bytree: float = 1.0
    min_child_weight: float = 1.0
    reg_alpha: float = 0.0
    reg_lambda: float = 1.0
    min_samples_leaf: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_estimators < 1:
            raise InvalidParam(f"n_estimators must be >= 1, got {self.n_estimators}")
        if not (0.0 < self.learning_rate <= 1.0):
            raise InvalidParam(
                f"learning_rate must be in (0, 1], got {self.learning_rate}"
            )
        if not 0.0 <= self.gamma < math.inf:
            raise InvalidParam(f"gamma must be finite and >= 0, got {self.gamma}")
        if not (0.0 < self.colsample_bytree <= 1.0):
            raise InvalidParam(
                f"colsample_bytree must be in (0, 1], got {self.colsample_bytree}"
            )
        if not 0.0 <= self.min_child_weight < math.inf:
            raise InvalidParam(
                f"min_child_weight must be finite and >= 0, got {self.min_child_weight}"
            )
        if not (0.0 <= self.reg_alpha < math.inf and 0.0 <= self.reg_lambda < math.inf):
            raise InvalidParam("reg_alpha and reg_lambda must be finite and >= 0")


@dataclass(frozen=True)
class BoostedEnsemble(_Ensemble):
    """A gradient-boosted sum of trees over a constant base score.

    Prediction is ``base_score + learning_rate * sum(tree(x))``; the stored
    leaf values are unscaled.  The trees are concatenated, once per model
    and never serialized, into one node table that a single descent routes
    every row through; the scaled leaf values are then added in stage
    order, one at a time, onto the base score.  ``train_mse`` traces the
    training mean-squared error after each stage.
    """

    base_score: float
    trees: tuple[DecisionTree, ...]
    params: BoostParams
    n_features: int
    train_mse: tuple[float, ...] = field(repr=False, default=())

    def predict(self, x) -> np.ndarray:
        return self.staged_predict(x, len(self.trees))

    def staged_predict(self, x, n_stages: int) -> np.ndarray:
        """Prediction using only the first ``n_stages`` trees."""
        if not (0 <= n_stages <= len(self.trees)):
            raise InvalidParam(f"n_stages must be 0..{len(self.trees)}")

        def staged(v: np.ndarray) -> np.ndarray:
            terms = [np.full((1, v.shape[1]), self.base_score),
                     self.params.learning_rate * v[:n_stages]]
            return np.add.accumulate(np.concatenate(terms))[-1]  # row by row, for any shape

        return self._table.reduce(x, staged)


def gbm_fit(x, y, params: BoostParams = BoostParams()) -> BoostedEnsemble:
    """Fit a gradient-boosted ensemble to squared-error residuals.

    The base score is the target mean.  Each stage fits a tree to the
    current residuals; splits are gated by ``gamma`` on the squared-error
    reduction, children must hold at least ``min_child_weight`` rows, and
    leaf values are the soft-thresholded residual sum over ``n + reg_lambda``.
    Per-tree column subsets (``colsample_bytree``) come from independent
    ``SeedSequence(seed)`` child streams.
    """
    x, y = training_rows(x, y)
    n, q = x.shape
    base = float(y.mean())
    tree_params = TreeParams(
        max_depth=params.max_depth,
        min_samples_leaf=params.min_samples_leaf,
        gamma=params.gamma,
    )

    def shrunk_leaf(total: float, count: int) -> float:
        return _soft_threshold(total, params.reg_alpha) / (count + params.reg_lambda)

    n_cols = max(1, math.ceil(params.colsample_bytree * q))
    cols = np.ascontiguousarray(x.T)
    order = _presort(cols)
    streams = np.random.SeedSequence(params.seed).spawn(params.n_estimators)
    pred = np.full(n, base)
    trees = []
    trace = []
    for stream in streams:
        rng = np.random.default_rng(stream)
        if n_cols < q:
            allowed = np.sort(rng.choice(q, size=n_cols, replace=False))
        else:
            allowed = np.arange(q)
        residual = y - pred
        builder = _TreeBuilder(cols, order[allowed], residual, tree_params, rng,
                               leaf_value=shrunk_leaf, allowed_features=allowed,
                               min_child_weight=params.min_child_weight)
        tree = builder.build()
        trees.append(tree)
        pred = pred + params.learning_rate * tree.value[builder.leaf]
        trace.append(float(np.mean((y - pred) ** 2)))
    return BoostedEnsemble(
        base_score=base,
        trees=tuple(trees),
        params=params,
        n_features=q,
        train_mse=tuple(trace),
    )
