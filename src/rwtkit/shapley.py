"""Exact Shapley attribution.

The value of a coalition S for an instance x is the model's mean prediction
over a background set with the features in S taken from x and everything
else from the background row.  Feature i's attribution is the
Shapley-weighted sum of its marginal contributions over all coalitions that
exclude i, with the weights |S|! (q-|S|-1)! / q! formed as exact rationals
and converted to float once.

How the coalition values are obtained depends on the model, and every path
is exact:

* Trees, forests and boosted ensembles use the leaf-box form of
  interventional TreeSHAP (Lundberg et al., Nature MI 2020).  For a leaf
  with value v and one background row, let A be the features where only x
  lies inside the leaf's box and B those where only the background row
  does.  If some feature has neither inside, the pair contributes nothing;
  otherwise each feature in A gets v (|A|-1)! |B|! / (|A|+|B|)! and each
  feature in B gets -v |A|! (|B|-1)! / (|A|+|B|)!.  A and B are stored as
  q-bit integers and summed per bit pattern, so no coalition table is
  built at all.
* The MLP and the spline network have an additive first layer: the
  first-layer sum for coalition S is ``pre(b) + bits(S) @ (phi(x) -
  phi(b))`` with phi the per-input terms, so the first layer sees 1 + M
  rows and only the later layers see the 2^q x M batch.  That batch runs
  in fixed-size blocks of coalitions, so that a block's widest activation
  holds at most 2^14 values (128 KiB) whatever q is; only a background so
  large that 4 coalitions exceed it gets blocks of 4.  A block adds its
  constants as contiguous runs: the background sums, and the MLP head's
  biases, are tiled once to a block's length, which gives the bits of a
  broadcast add without its per-row loop.
* Any other model or callable enumerates the 2^q coalitions, pushing every
  hybrid row through its prediction function.  Passing ``model.predict``
  instead of the model takes this path, which makes it the oracle for the
  other two.

The attribution is exact, so the axioms hold by construction: the base
value plus all attributions telescopes to the model's prediction at x
(checked at 1e-9 whenever an explanation is built), features the model
ignores get zero, and symmetric features get equal credit.

Instances are independent, so :func:`shap_batch` explains its rows on
every usable CPU: one contiguous chunk per worker process (inline when that
is one; see :mod:`rwtkit.parallel`).  Each worker builds its own per-model
tables, and the explanations are the same whatever the number of workers.

Attribution is capped at 15 features; every path indexes the 2^q
coalitions, which stop being a desk-scale table beyond that.  What depends
on q alone (the coalition bits and sizes, the Shapley weights and the
index sets of each feature's marginal contributions) is built once per q
and kept read-only.  Instances and background rows must be finite.

The heatmap orders its instances by average-linkage clustering of their
attribution vectors, computed here with the nearest-neighbour chain
(Müllner 2011, arXiv:1109.2378).  Distances, tie-breaks, the stable sort of
the merges and the relabelling follow scipy step by step, so the order is
the same as scipy's ``linkage``/``leaves_list`` (checked against it in
tests) without importing ``scipy.cluster``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from math import factorial

import numpy as np

from . import parallel
from .errors import EmptyBackground, NonFiniteInput, TooManyFeatures
from .features import Feature, model_rows
from .kan import KanNetwork
from .mlp import MlpModel
from .serialize import csv_text
from .trees import BoostedEnsemble, DecisionTree, Forest

__all__ = [
    "MAX_EXACT_FEATURES",
    "BackgroundSet",
    "ShapExplanation",
    "GlobalImportance",
    "coalition_value",
    "shap_exact",
    "shap_batch",
    "shap_global",
    "export_summary",
    "export_heatmap",
]

MAX_EXACT_FEATURES = 15

#: Absolute tolerance for the telescoping identity base + sum(phi) == f(x).
EFFICIENCY_TOL = 1e-9

#: Rows per model call when a coalition batch is evaluated in chunks.
_CHUNK_ROWS = 1 << 17

#: Values in the widest activation of one block of a network's coalition
#: batch (rows times layer width): 128 KiB, well inside a core's L2 cache.
_BLOCK_VALUES = 1 << 14

class _Coalitions:
    """The read-only arrays that depend only on the feature count q.

    ``bits[mask, j]`` is 1.0 when column j belongs to coalition ``mask`` and
    ``popcount[mask]`` is the coalition's size.  Row i of ``without`` lists
    the coalitions that exclude feature i in ascending order, ``with_`` the
    same coalitions with i added, and ``weights`` their Shapley weights
    |S|! (q-|S|-1)! / q!.  ``pair_weights[a, b]`` is (a-1)! b! / (a+b)!
    for a >= 1 and a + b <= q, else 0.  Every weight is an exact rational
    converted to float once.
    """

    def __init__(self, q: int):
        masks = np.arange(1 << q)
        self.bits = ((masks[:, np.newaxis] >> np.arange(q)) & 1).astype(float)
        self.popcount = self.bits.sum(axis=1).astype(np.intp)
        shapley = np.array([
            float(Fraction(factorial(s) * factorial(q - s - 1), factorial(q)))
            for s in range(q)
        ])
        self.without = np.stack([masks[(masks >> i) & 1 == 0] for i in range(q)])
        self.with_ = self.without | (1 << np.arange(q))[:, np.newaxis]
        self.weights = shapley[self.popcount[self.without]]
        self.pair_weights = np.zeros((q + 1, q + 1))
        for a in range(1, q + 1):
            for b in range(q + 1 - a):
                self.pair_weights[a, b] = float(
                    Fraction(factorial(a - 1) * factorial(b), factorial(a + b)))
        for array in vars(self).values():
            array.flags.writeable = False


@cache
def _coalitions(q: int) -> _Coalitions:
    return _Coalitions(q)


def _predict_fn(model):
    fn = model.predict if hasattr(model, "predict") else model
    if not callable(fn):
        raise TypeError(f"model {type(model).__name__} is neither callable nor has .predict")

    def call(matrix: np.ndarray) -> np.ndarray:
        out = np.asarray(fn(matrix), dtype=float).ravel()
        if out.shape != (len(matrix),):
            raise ValueError(
                f"model returned shape {out.shape} for {len(matrix)} rows"
            )
        return out

    return call


@dataclass(frozen=True)
class BackgroundSet:
    """Reference rows the attribution marginalizes over."""

    rows: np.ndarray
    #: Per-model tables built from these rows, keyed by ``id(model)``.
    _tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        rows = np.asarray(self.rows, dtype=float)
        if rows.ndim != 2:
            raise ValueError(f"background must be 2-D, got ndim={rows.ndim}")
        if len(rows) == 0:
            raise EmptyBackground("background set has no rows")
        if not np.all(np.isfinite(rows)):
            raise NonFiniteInput("background rows must be finite")
        object.__setattr__(self, "rows", rows)

    def __reduce__(self):
        # The tables are keyed by object ids, which mean nothing in another
        # process, so a pickled background carries its rows only.
        return BackgroundSet, (self.rows,)

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def n_features(self) -> int:
        return self.rows.shape[1]

    def subsample(self, size: int, seed: int = 0) -> "BackgroundSet":
        """At most ``size`` rows, drawn without replacement, original order."""
        if size < 1:
            raise EmptyBackground(f"subsample size must be >= 1, got {size}")
        if size >= len(self):
            return self
        rng = np.random.default_rng(seed)
        chosen = np.sort(rng.choice(len(self), size=size, replace=False))
        return BackgroundSet(self.rows[chosen])


def coalition_value(model, x, subset, background: BackgroundSet) -> float:
    """Mean prediction with columns in ``subset`` pinned to ``x``.

    ``subset`` holds 0-based column indices; the empty subset gives the
    background mean prediction and the full subset gives the prediction
    at x.
    """
    q = background.n_features
    (row,) = model_rows(x, q)
    cols = sorted(set(int(c) for c in subset))
    if cols and (cols[0] < 0 or cols[-1] >= q):
        raise ValueError(f"subset {cols} outside columns 0..{q - 1}")
    z = background.rows.copy()
    z[:, cols] = row[cols]
    return float(np.mean(_predict_fn(model)(z)))


@dataclass(frozen=True)
class ShapExplanation:
    """Exact attributions for one instance.

    ``base`` is the empty-coalition value, ``phi`` the per-feature
    attributions in column order, and ``fx`` the full-coalition value;
    ``base + sum(phi) == fx`` within 1e-9 by construction.
    """

    base: float
    phi: tuple[float, ...]
    fx: float
    x: tuple[float, ...]
    instance_key: str = ""

    def __post_init__(self) -> None:
        gap = abs(self.base + sum(self.phi) - self.fx)
        if gap > EFFICIENCY_TOL:
            raise ValueError(
                f"attributions do not telescope to the prediction (gap {gap:.3e})"
            )


def _prepared(model, background: BackgroundSet, build):
    """``build(model, background)``, built once per (model, background) pair.

    Model arrays are treated as immutable, so a table stays valid for the
    model object it was built from.  The entry holds that object, so its id
    cannot be reused by another model while the entry exists.
    """
    key = id(model)
    if key not in background._tables:
        background._tables[key] = (model, build(model, background))
    return background._tables[key][1]


def _coalition_table(predict, x: np.ndarray, background: BackgroundSet) -> np.ndarray:
    """values[mask] for every coalition bitmask, one model call per chunk."""
    q = background.n_features
    m = len(background)
    n_masks = 1 << q
    values = np.empty(n_masks)
    chunk = max(1, _CHUNK_ROWS // max(m, 1))
    for start in range(0, n_masks, chunk):
        masks = np.arange(start, min(start + chunk, n_masks))
        z = np.broadcast_to(background.rows, (len(masks), m, q)).copy()
        for j in range(q):
            with_j = (masks >> j) & 1 == 1
            z[with_j, :, j] = x[j]
        preds = predict(z.reshape(-1, q)).reshape(len(masks), m)
        values[masks] = preds.mean(axis=1)
    return values


def _first_layer_tables(model, background: BackgroundSet):
    """Per-input first-layer terms of the background (M, q, H) and their sums."""
    terms = model.input_terms(background.rows)
    return terms, terms.sum(axis=1)


def _factored_table(model, tables, x: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """values[mask] for a network whose first layer is additive per input."""
    terms, pre = tables
    m, q, h = terms.shape
    delta = (model.input_terms(x)[0] - terms).transpose(1, 0, 2).reshape(q, m * h)
    values = np.empty(len(bits))
    # Blocks are a power of two of at least 4 masks.  numpy hands a one-row
    # product to a matrix-vector kernel with other bits, and OpenBLAS takes
    # (rows, h) @ (h, 1) four rows at a time with a separate path for the
    # rest, so these blocks give every row the bits of a whole-table block.
    fit = _BLOCK_VALUES // (m * max(model.layout[1:]))
    chunk = min(len(bits), 1 << max(2, fit.bit_length() - 1))
    buffer = np.empty((chunk, m * h))
    # The background sums repeated once per mask of a block, so that they
    # are added as one contiguous run rather than broadcast row by row.
    pre_block = np.tile(pre.ravel(), chunk).reshape(chunk, m * h)
    for start in range(0, len(bits), chunk):
        sel = slice(start, start + chunk)
        hidden = np.matmul(bits[sel], delta, out=buffer)
        hidden += pre_block
        # The same sum and division as ``mean(axis=1)``, without its wrapper.
        values[sel] = np.add.reduce(model.head(hidden.reshape(-1, h)).reshape(-1, m), axis=1) / m
    return values


def _phi_from_table(values: np.ndarray, c: _Coalitions) -> np.ndarray:
    """Shapley-weighted marginal contributions over a full coalition table."""
    return np.sum(c.weights * (values[c.with_] - values[c.without]), axis=1)


def _box_bits(lo: np.ndarray, hi: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """bits[leaf, r] has bit j set when row r lies inside the leaf's box in column j."""
    bits = np.zeros((len(lo), len(rows)), dtype=np.uint16)
    for j in range(rows.shape[1]):
        inside = (lo[:, j, np.newaxis] < rows[:, j]) & (rows[:, j] <= hi[:, j, np.newaxis])
        bits |= inside.astype(np.uint16) << np.uint16(j)
    return bits


def _leaf_tables(model, background: BackgroundSet):
    """Scaled leaf values, boxes, background membership bits and base value."""
    if isinstance(model, BoostedEnsemble):
        scale = model.params.learning_rate
    else:  # a forest averages its trees; a lone tree is a forest of one
        scale = 1.0 / len(getattr(model, "trees", (model,)))
    value, lo, hi = model.leaf_boxes()
    base = float(np.mean(model.predict(background.rows)))
    return scale * value, lo, hi, _box_bits(lo, hi, background.rows), base


def _leaf_phi(tables, x: np.ndarray, c: _Coalitions) -> np.ndarray:
    """Attributions from (leaf, background row) pairs; see the module docstring."""
    value, lo, hi, bg_in, _ = tables
    q = c.bits.shape[1]
    x_in = np.broadcast_to(_box_bits(lo, hi, x[np.newaxis]), bg_in.shape)
    keep = (x_in | bg_in) == (1 << q) - 1
    xk, bk = x_in[keep], bg_in[keep]
    v = np.broadcast_to(value[:, np.newaxis], bg_in.shape)[keep]
    only_x, only_b = xk & ~bk, bk & ~xk
    na, nb = c.popcount[only_x], c.popcount[only_b]
    w = c.pair_weights
    gain = np.bincount(only_x, weights=v * w[na, nb], minlength=len(c.bits))
    loss = np.bincount(only_b, weights=v * w[nb, na], minlength=len(c.bits))
    return c.bits.T @ (gain - loss) / bg_in.shape[1]


def shap_exact(model, x, background: BackgroundSet, instance_key: str = "") -> ShapExplanation:
    """Exact attributions for one instance.

    Tree models use their leaf boxes, the MLP and spline network factor out
    their first layer, and any other model or plain callable enumerates all
    coalitions (see the module docstring).  Tables that depend only on the
    model and the background are built on first use and kept on
    ``background``.
    """
    q = background.n_features
    if q > MAX_EXACT_FEATURES:
        raise TooManyFeatures(
            f"exact enumeration supports up to {MAX_EXACT_FEATURES} features, got {q}"
        )
    (row,) = model_rows(x, q)
    c = _coalitions(q)
    if isinstance(model, (DecisionTree, Forest, BoostedEnsemble)):
        tables = _prepared(model, background, _leaf_tables)
        base, phi = tables[-1], _leaf_phi(tables, row, c)
        fx = float(model.predict(row)[0])
    elif isinstance(model, (MlpModel, KanNetwork)):
        tables = _prepared(model, background, _first_layer_tables)
        values = _factored_table(model, tables, row, c.bits)
        base, phi = float(values[0]), _phi_from_table(values, c)
        fx = float(model.predict(row)[0])
    else:
        values = _coalition_table(_predict_fn(model), row, background)
        base, phi = float(values[0]), _phi_from_table(values, c)
        fx = float(values[-1])
    return ShapExplanation(
        base=base,
        phi=tuple(float(v) for v in phi),
        fx=fx,
        x=tuple(float(v) for v in row),
        instance_key=instance_key,
    )


def _explain_rows(model, matrix, background, start: int, stop: int) -> tuple[ShapExplanation, ...]:
    return tuple(
        shap_exact(model, matrix[i], background, instance_key=str(i))
        for i in range(start, stop)
    )


def shap_batch(model, x_rows, background: BackgroundSet) -> tuple[ShapExplanation, ...]:
    """Explain each row of an (n, q) matrix; keys are the row indices.

    The rows are split into one contiguous chunk per usable CPU, each
    explained in a worker process (inline when that is one) that receives
    the model, the rows and the background once.  The explanations come
    back in row order, and the first error in row order is raised, as an
    inline loop would raise it.
    """
    matrix = np.asarray(x_rows, dtype=float)
    if matrix.ndim != 2:
        raise ValueError(f"x_rows must be 2-D, got ndim={matrix.ndim}")
    n_chunks = parallel.worker_count(len(matrix))
    bounds = [len(matrix) * k // n_chunks for k in range(n_chunks + 1)]
    chunks = parallel.run_tasks(_explain_rows, list(zip(bounds, bounds[1:])),
                                shared=(model, matrix, background))
    return tuple(e for chunk in chunks for e in chunk)


@dataclass(frozen=True)
class GlobalImportance:
    """Mean absolute attribution per feature over a set of explanations.

    ``percentages`` is ``None`` when every attribution is zero (the shares
    would be 0/0); ``ranking`` lists feature columns by descending
    importance, ties broken by lower column index.
    """

    importance: tuple[float, ...]
    percentages: tuple[float, ...] | None
    ranking: tuple[int, ...]


def shap_global(explanations) -> GlobalImportance:
    if not explanations:
        raise ValueError("need at least one explanation")
    phi = np.stack([e.phi for e in explanations])
    importance = np.mean(np.abs(phi), axis=0)
    total = float(importance.sum())
    if total > 0.0:
        percentages = tuple(float(100.0 * v / total) for v in importance)
    else:
        percentages = None
    ranking = tuple(
        sorted(range(len(importance)), key=lambda c: (-importance[c], c))
    )
    return GlobalImportance(
        importance=tuple(float(v) for v in importance),
        percentages=percentages,
        ranking=ranking,
    )


def _feature_label(column: int, q: int) -> str:
    if q == len(Feature):
        return Feature(column + 1).name
    return f"x{column + 1}"


def _instance_label(explanation: ShapExplanation, index: int) -> str:
    return explanation.instance_key or str(index)


def export_summary(explanations) -> str:
    """Per-(feature, instance) attribution rows as CSV text.

    Columns: feature, rank (global, 1-based), instance, shap_value,
    feature_value (the instance's value of that feature, model-input
    space).  Rows are ordered by rank, then instance.
    """
    explanations = tuple(explanations)
    ranking = shap_global(explanations).ranking
    q = len(explanations[0].phi)
    return csv_text(("feature", "rank", "instance", "shap_value", "feature_value"), [
        (_feature_label(col, q), rank, _instance_label(e, idx), e.phi[col], e.x[col])
        for rank, col in enumerate(ranking, start=1) for idx, e in enumerate(explanations)])


def export_heatmap(explanations) -> str:
    """Attribution heatmap as CSV text.

    Instances (columns) are ordered by average-linkage hierarchical
    clustering of their attribution vectors (Euclidean distance), so
    identical profiles sit adjacent; features (rows) are ordered by global
    rank.  The clustering is the nearest-neighbour chain (Müllner 2011),
    with the same order as scipy's ``linkage``/``leaves_list``, checked
    against it in tests.  After the matrix an ``f(x)`` row repeats each
    instance's prediction, and a ``global_importance`` trailer lists mean
    absolute attribution and percentage share per feature (percentage
    ``NA`` when undefined).
    """
    explanations = tuple(explanations)
    g = shap_global(explanations)
    q = len(explanations[0].phi)
    phi = np.stack([e.phi for e in explanations])  # (n, q)
    order = _average_linkage_order(phi)
    labels = [_instance_label(explanations[i], i) for i in order]
    return csv_text(("instance", *labels), [
        ("f(x)", *(explanations[i].fx for i in order)),
        *((_feature_label(col, q), *phi[order, col]) for col in g.ranking),
        ("global_importance",),
        ("feature", "importance", "percentage"),
        *((_feature_label(col, q), g.importance[col],
           None if g.percentages is None else g.percentages[col]) for col in g.ranking),
    ])


def _average_linkage_order(phi: np.ndarray) -> list[int]:
    """Leaf order of the average-linkage dendrogram of the rows of ``phi``.

    Each step mirrors scipy's: distances are square roots of squared
    differences summed feature by feature, as ``pdist`` sums them; the
    chain starts at the lowest active row and moves to a strictly closer
    row only, the lowest index winning a tie; merging x < y keeps slot y.
    Raises :class:`NonFiniteInput` when a distance overflows.
    """
    n = len(phi)
    d = np.zeros((n, n))
    with np.errstate(over="ignore"):
        for column in phi.T:
            d += (column[:, None] - column[None, :]) ** 2
    d = np.sqrt(d)
    if not np.isfinite(d).all():
        raise NonFiniteInput("attribution distances overflow a float")
    # Every finite distance is below 1.4e154, the root of the largest float,
    # so no average overflows and inf can keep the diagonal and merged slots
    # out of every argmin.
    np.fill_diagonal(d, np.inf)
    size = np.ones(n, dtype=np.int64)
    merges, chain = [], []
    while len(merges) < n - 1:
        if not chain:
            chain.append(int(np.flatnonzero(size)[0]))
        x = chain[-1]
        y = int(np.argmin(d[x]))
        if len(chain) == 1 or d[x, y] < d[x, chain[-2]]:
            chain.append(y)
            continue
        y = chain[-2]
        del chain[-2:]
        x, y = min(x, y), max(x, y)
        nx, ny = size[x], size[y]
        merges.append((d[x, y], x, y))
        d[y] = d[:, y] = (nx * d[x] + ny * d[y]) / (nx + ny)
        d[x] = d[:, x] = np.inf
        size[x], size[y] = 0, nx + ny
    # Relabel in stable distance order as scipy does: merge k makes cluster
    # n + k, whose leaves are its smaller root's leaves, then the other's.
    cluster, leaves = list(range(n)), [[i] for i in range(n)]
    for _, x, y in sorted(merges, key=lambda m: m[0]):
        left, right = sorted((cluster[x], cluster[y]))
        leaves.append(leaves[left] + leaves[right])
        for i in leaves[-1]:
            cluster[i] = len(leaves) - 1
    return leaves[-1]
