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

import numpy as np

from .errors import DimensionMismatch, EmptyData, InvalidParam
from .features import model_rows

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
    "predict",
]

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
        if self.gamma < 0.0:
            raise InvalidParam(f"gamma must be >= 0, got {self.gamma}")


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
    def n_leaves(self) -> int:
        return int(np.sum(self.feature < 0))

    @property
    def depth(self) -> int:
        depths = np.zeros(len(self.feature), dtype=int)
        for i in range(len(self.feature)):
            if self.feature[i] >= 0:
                depths[self.left[i]] = depths[i] + 1
                depths[self.right[i]] = depths[i] + 1
        return int(depths.max()) if len(depths) else 0

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = model_rows(x, self.n_features)
        idx = np.zeros(len(x), dtype=np.int64)
        while True:
            feat = self.feature[idx]
            active = feat >= 0
            if not np.any(active):
                break
            rows = np.nonzero(active)[0]
            f = feat[rows]
            go_left = x[rows, f] <= self.threshold[idx[rows]]
            nxt = np.where(go_left, self.left[idx[rows]], self.right[idx[rows]])
            idx[rows] = nxt
        return self.value[idx]

    def leaf_boxes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(value, lo, hi)`` for each leaf, in node order.

        ``lo`` and ``hi`` have shape (n_leaves, n_features): a finite row
        reaches a leaf exactly when ``lo < x <= hi`` in every column, which
        is the ``<=``-goes-left rule applied along the leaf's path.
        """
        lo = np.full((len(self.feature), self.n_features), -np.inf)
        hi = np.full((len(self.feature), self.n_features), np.inf)
        frontier = np.zeros(1, dtype=np.int64)
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

    def to_state(self) -> dict:
        return {
            "n_features": self.n_features,
            "feature": [int(v) for v in self.feature],
            "threshold": [repr(float(v)) for v in self.threshold],
            "left": [int(v) for v in self.left],
            "right": [int(v) for v in self.right],
            "value": [repr(float(v)) for v in self.value],
            "n_node_samples": [int(v) for v in self.n_node_samples],
        }

    @classmethod
    def from_state(cls, state: dict) -> "DecisionTree":
        return cls(
            feature=np.array(state["feature"], dtype=np.int64),
            threshold=np.array([float(s) for s in state["threshold"]]),
            left=np.array(state["left"], dtype=np.int64),
            right=np.array(state["right"], dtype=np.int64),
            value=np.array([float(s) for s in state["value"]]),
            n_node_samples=np.array(state["n_node_samples"], dtype=np.int64),
            n_features=int(state["n_features"]),
        )


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
        leaf_value,
        allowed_features: np.ndarray,
        max_features: int | None,
        min_child_weight: float,
        rng: np.random.Generator | None,
    ):
        self.cols = cols
        self.order = order
        self.y = y
        self.params = params
        self.leaf_value = leaf_value
        self.allowed = allowed_features
        self.max_features = max_features
        # The fewest rows a child may hold; ``min_child_weight`` counts rows
        # here (unit hessians), and a bound past ``len(y)`` forbids any split.
        self.min_child = math.ceil(min(max(params.min_samples_leaf, min_child_weight), len(y)))
        self.rng = rng
        self.goes_left = np.zeros(len(y), dtype=bool)
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
        self, idx: np.ndarray, rows: np.ndarray, pos: np.ndarray, stats: tuple[float, float]
    ):
        """The winning ``(key, mask, left, right)`` over ``allowed[pos]``, or None.

        ``key`` is ``(score, feature, threshold)``, ``mask`` selects the left
        rows of ``idx`` and ``left``/``right`` are the sides'
        :func:`_sum_and_sse`.
        """
        total, sse = stats
        m, first = len(idx), self.min_child
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
        return best

    def grow(
        self, idx: np.ndarray, rows: np.ndarray, stats: tuple[float, float], depth: int
    ) -> int:
        """Grow the subtree over ``idx``; ``stats`` is its :func:`_sum_and_sse`."""
        node = len(self.feature)
        total, sse = stats
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(self.leaf_value(total, len(idx)))
        self.n_node.append(len(idx))
        params = self.params
        if depth >= params.max_depth or len(idx) < 2 * self.min_child or sse == 0.0:
            return node
        pos = self._pick_features()
        # Both sides' errors are >= 0, so a node whose own error is within
        # gamma cannot gain more than gamma.  Its features are drawn all the
        # same, so that every later node draws the ones it always drew.
        if sse <= params.gamma:
            return node
        found = self._best_split(idx, rows, pos, stats)
        if found is None:
            return node
        (score, f, thr), mask, left, right = found
        if not (sse - score > params.gamma):
            return node
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


def _mean_leaf(total: float, count: int) -> float:
    return total / count


def _check_training_data(x, y) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if x.ndim != 2:
        raise DimensionMismatch(f"x must be 2-D, got ndim={x.ndim}")
    if len(x) == 0:
        raise EmptyData("cannot fit on an empty dataset")
    if len(x) != len(y):
        raise DimensionMismatch(f"{len(x)} rows but {len(y)} targets")
    return x, y


def tree_fit(
    x,
    y,
    params: TreeParams = TreeParams(),
    max_features: int | None = None,
    rng: np.random.Generator | None = None,
) -> DecisionTree:
    """Fit one regression tree with mean-valued leaves.

    With ``max_features`` set, each split considers that many features drawn
    without replacement from ``rng`` (required then), in preorder node
    visit order.
    """
    x, y = _check_training_data(x, y)
    if max_features is not None:
        if not (1 <= max_features <= x.shape[1]):
            raise InvalidParam(
                f"max_features must be in 1..{x.shape[1]}, got {max_features}"
            )
        if rng is None:
            raise InvalidParam("max_features subsampling needs an rng")
    cols = np.ascontiguousarray(x.T)
    builder = _TreeBuilder(
        cols,
        _presort(cols),
        y,
        params,
        leaf_value=_mean_leaf,
        allowed_features=np.arange(x.shape[1]),
        max_features=max_features,
        min_child_weight=0.0,
        rng=rng,
    )
    return builder.build()


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


@dataclass(frozen=True)
class Forest:
    """A bagged ensemble predicting the mean of its trees.

    Tree outputs are sorted before averaging, so the prediction is exactly
    invariant under any permutation of the trees.
    """

    trees: tuple[DecisionTree, ...]
    params: ForestParams
    n_features: int

    def predict(self, x) -> np.ndarray:
        x = model_rows(x, self.n_features)
        stacked = np.stack([t.predict(x) for t in self.trees])
        stacked.sort(axis=0)
        return stacked.sum(axis=0) / len(self.trees)

    def to_state(self) -> dict:
        return {
            "n_features": self.n_features,
            "params": {
                "n_estimators": self.params.n_estimators,
                "max_features": self.params.max_features,
                "max_depth": self.params.max_depth,
                "min_samples_leaf": self.params.min_samples_leaf,
                "seed": self.params.seed,
            },
            "trees": [t.to_state() for t in self.trees],
        }

    @classmethod
    def from_state(cls, state: dict) -> "Forest":
        return cls(
            trees=tuple(DecisionTree.from_state(s) for s in state["trees"]),
            params=ForestParams(**state["params"]),
            n_features=int(state["n_features"]),
        )


def rf_fit(x, y, params: ForestParams = ForestParams()) -> Forest:
    """Fit a bagged forest.

    Each tree gets an independent child stream of ``SeedSequence(seed)``;
    within a tree the stream first draws the bootstrap indices (n with
    replacement), then the per-split feature subsets.  Fitting trees in any
    order, serially or in parallel, therefore gives identical forests.
    """
    x, y = _check_training_data(x, y)
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
        builder = _TreeBuilder(
            boot_cols,
            _presort(boot_cols),
            y[boot],
            tree_params,
            leaf_value=_mean_leaf,
            allowed_features=np.arange(q),
            max_features=max_features,
            min_child_weight=0.0,
            rng=rng,
        )
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
        if self.gamma < 0.0:
            raise InvalidParam(f"gamma must be >= 0, got {self.gamma}")
        if not (0.0 < self.colsample_bytree <= 1.0):
            raise InvalidParam(
                f"colsample_bytree must be in (0, 1], got {self.colsample_bytree}"
            )
        if self.min_child_weight < 0.0:
            raise InvalidParam(
                f"min_child_weight must be >= 0, got {self.min_child_weight}"
            )
        if self.reg_alpha < 0.0 or self.reg_lambda < 0.0:
            raise InvalidParam("reg_alpha and reg_lambda must be >= 0")


@dataclass(frozen=True)
class BoostedEnsemble:
    """A gradient-boosted sum of trees over a constant base score.

    Prediction is ``base_score + learning_rate * sum(tree(x))``; the stored
    leaf values are unscaled.  ``train_mse`` traces the training
    mean-squared error after each stage.
    """

    base_score: float
    trees: tuple[DecisionTree, ...]
    params: BoostParams
    n_features: int
    train_mse: tuple[float, ...] = field(repr=False, default=())

    def predict(self, x) -> np.ndarray:
        x = model_rows(x, self.n_features)
        out = np.full(len(x), self.base_score)
        for tree in self.trees:
            out = out + self.params.learning_rate * tree.predict(x)
        return out

    def staged_predict(self, x, n_stages: int) -> np.ndarray:
        """Prediction using only the first ``n_stages`` trees."""
        if not (0 <= n_stages <= len(self.trees)):
            raise InvalidParam(f"n_stages must be 0..{len(self.trees)}")
        x = model_rows(x, self.n_features)
        out = np.full(len(x), self.base_score)
        for tree in self.trees[:n_stages]:
            out = out + self.params.learning_rate * tree.predict(x)
        return out

    def to_state(self) -> dict:
        return {
            "n_features": self.n_features,
            "base_score": repr(float(self.base_score)),
            "params": {
                "n_estimators": self.params.n_estimators,
                "learning_rate": self.params.learning_rate,
                "max_depth": self.params.max_depth,
                "gamma": self.params.gamma,
                "colsample_bytree": self.params.colsample_bytree,
                "min_child_weight": self.params.min_child_weight,
                "reg_alpha": self.params.reg_alpha,
                "reg_lambda": self.params.reg_lambda,
                "min_samples_leaf": self.params.min_samples_leaf,
                "seed": self.params.seed,
            },
            "trees": [t.to_state() for t in self.trees],
            "train_mse": [repr(float(v)) for v in self.train_mse],
        }

    @classmethod
    def from_state(cls, state: dict) -> "BoostedEnsemble":
        return cls(
            base_score=float(state["base_score"]),
            trees=tuple(DecisionTree.from_state(s) for s in state["trees"]),
            params=BoostParams(**state["params"]),
            n_features=int(state["n_features"]),
            train_mse=tuple(float(v) for v in state["train_mse"]),
        )


def gbm_fit(x, y, params: BoostParams = BoostParams()) -> BoostedEnsemble:
    """Fit a gradient-boosted ensemble to squared-error residuals.

    The base score is the target mean.  Each stage fits a tree to the
    current residuals; splits are gated by ``gamma`` on the squared-error
    reduction, children must hold at least ``min_child_weight`` rows, and
    leaf values are the soft-thresholded residual sum over ``n + reg_lambda``.
    Per-tree column subsets (``colsample_bytree``) come from independent
    ``SeedSequence(seed)`` child streams.
    """
    x, y = _check_training_data(x, y)
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
        builder = _TreeBuilder(
            cols,
            order[allowed],
            residual,
            tree_params,
            leaf_value=shrunk_leaf,
            allowed_features=allowed,
            max_features=None,
            min_child_weight=params.min_child_weight,
            rng=rng,
        )
        tree = builder.build()
        trees.append(tree)
        pred = pred + params.learning_rate * tree.predict(x)
        trace.append(float(np.mean((y - pred) ** 2)))
    return BoostedEnsemble(
        base_score=base,
        trees=tuple(trees),
        params=params,
        n_features=q,
        train_mse=tuple(trace),
    )


def predict(model, x) -> np.ndarray:
    """Predict with any fitted model from this module.

    Accepts a :class:`FeatureVector`, a single row, or an (n, q) matrix and
    always returns a 1-D array.
    """
    if not isinstance(model, (DecisionTree, Forest, BoostedEnsemble)):
        raise TypeError(f"not a tree-family model: {type(model).__name__}")
    return model.predict(x)
