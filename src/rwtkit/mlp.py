"""A small fully-connected regressor trained with mini-batch SGD.

Hidden layers use the rectifier; the output is a single linear unit.
Weights initialize uniformly on (-1/sqrt(fan_in), +1/sqrt(fan_in)) with zero
biases.  Training applies inverted dropout to hidden activations only, so
inference needs no rescaling, and records the training loss per epoch.

Everything is driven by ``numpy.random.default_rng`` streams: one stream
seeds the initial weights, another drives the per-epoch shuffles and dropout
masks, which makes every fit reproducible from its two seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import Diverged, DimensionMismatch, InvalidLayout, InvalidParam
from .features import model_rows

__all__ = [
    "MlpModel",
    "mlp_init",
    "mlp_forward",
    "mlp_train",
    "mlp_gradcheck",
]

#: Pre-activations closer to zero than this get nudged (via the unit's bias)
#: before a gradient check, keeping finite differences away from the
#: rectifier kink.
_KINK_MARGIN = 1e-3


@dataclass(frozen=True)
class MlpModel:
    """Weights and biases for a fixed layout.

    ``layout`` lists layer widths input-first, for example ``(10, 48, 48, 1)``.
    ``weights[l]`` has shape (fan_in, fan_out); arrays are treated as
    immutable and training returns a new model.
    """

    layout: tuple[int, ...]
    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]
    dropout_rate: float = 0.1

    def __post_init__(self) -> None:
        if len(self.layout) < 2 or any(w < 1 for w in self.layout):
            raise InvalidLayout(f"layout must list >= 2 positive widths, got {self.layout}")
        if self.layout[-1] != 1:
            raise InvalidLayout(f"output width must be 1, got {self.layout[-1]}")
        if not (0.0 <= self.dropout_rate < 1.0):
            raise InvalidParam(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        for l, (a, b) in enumerate(zip(self.layout, self.layout[1:])):
            if self.weights[l].shape != (a, b) or self.biases[l].shape != (b,):
                raise InvalidLayout(f"layer {l} arrays do not match layout {self.layout}")

    @property
    def n_params(self) -> int:
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))

    def to_state(self) -> dict:
        return {
            "layout": list(self.layout),
            "dropout_rate": self.dropout_rate,
            "weights": [[[repr(float(v)) for v in row] for row in w] for w in self.weights],
            "biases": [[repr(float(v)) for v in b] for b in self.biases],
        }

    @classmethod
    def from_state(cls, state: dict) -> "MlpModel":
        return cls(
            layout=tuple(int(v) for v in state["layout"]),
            weights=tuple(
                np.array([[float(v) for v in row] for row in w]) for w in state["weights"]
            ),
            biases=tuple(np.array([float(v) for v in b]) for b in state["biases"]),
            dropout_rate=float(state["dropout_rate"]),
        )

    def predict(self, x) -> np.ndarray:
        return mlp_forward(self, x)

    def input_terms(self, x) -> np.ndarray:
        """First-layer contribution of each input, shape (n, n_inputs, width).

        The first layer is additive per input, so ``head`` applied to the
        sum over axis 1 is the prediction.
        """
        batch = model_rows(x, self.layout[0])
        return batch[:, :, np.newaxis] * self.weights[0][np.newaxis, :, :]

    def head(self, s: np.ndarray) -> np.ndarray:
        """Inference prediction from summed first-layer terms (n, width)."""
        z = s + self.biases[0]
        for w, b in zip(self.weights[1:], self.biases[1:]):
            z = np.maximum(z, 0.0, out=z) @ w
            z += b
        return z[:, 0]


def mlp_init(layout, seed: int = 0, dropout_rate: float = 0.1) -> MlpModel:
    """Fresh model: weights uniform on +-1/sqrt(fan_in), biases zero."""
    layout = tuple(int(v) for v in layout)
    if len(layout) < 2:
        raise InvalidLayout(f"layout must list >= 2 widths, got {layout}")
    rng = np.random.default_rng(seed)
    weights = []
    biases = []
    for fan_in, fan_out in zip(layout, layout[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpModel(
        layout=layout,
        weights=tuple(weights),
        biases=tuple(biases),
        dropout_rate=dropout_rate,
    )


def _forward(
    model: MlpModel,
    x: np.ndarray,
    train: bool,
    rng: np.random.Generator | None,
):
    """Returns (prediction, per-layer activations, pre-activations, masks).

    In train mode each hidden activation is multiplied by an inverted
    dropout mask ``bernoulli(keep) / keep`` drawn from ``rng``.
    """
    keep = 1.0 - model.dropout_rate
    activations = [x]
    preacts = []
    masks = []
    a = x
    n_hidden = len(model.layout) - 2
    for l in range(n_hidden):
        z = a @ model.weights[l] + model.biases[l]
        preacts.append(z)
        a = np.maximum(z, 0.0)
        if train and model.dropout_rate > 0.0:
            mask = (rng.uniform(size=a.shape) < keep) / keep
            a = a * mask
            masks.append(mask)
        else:
            masks.append(None)
        activations.append(a)
    z_out = a @ model.weights[-1] + model.biases[-1]
    preacts.append(z_out)
    return z_out[:, 0], activations, preacts, masks


def mlp_forward(model: MlpModel, x, mode: str = "infer", rng=None) -> np.ndarray:
    """Predict for a row or batch.

    ``mode="train"`` applies fresh dropout masks from ``rng`` (required
    then); ``mode="infer"`` is deterministic.
    """
    if mode not in ("infer", "train"):
        raise ValueError(f"mode must be 'infer' or 'train', got {mode!r}")
    if mode == "train" and model.dropout_rate > 0.0 and rng is None:
        raise InvalidParam("train-mode forward needs an rng for dropout masks")
    batch = model_rows(x, model.layout[0])
    pred, _, _, _ = _forward(model, batch, train=(mode == "train"), rng=rng)
    return pred


def _backward(model, x, y, pred, activations, preacts, masks):
    """Mean-squared-error gradients for every weight and bias."""
    n = len(x)
    keep = 1.0 - model.dropout_rate
    grads_w = [np.zeros_like(w) for w in model.weights]
    grads_b = [np.zeros_like(b) for b in model.biases]
    delta = (2.0 / n) * (pred - y)[:, np.newaxis]
    grads_w[-1] = activations[-1].T @ delta
    grads_b[-1] = delta.sum(axis=0)
    upstream = delta @ model.weights[-1].T
    for l in range(len(model.layout) - 3, -1, -1):
        gate = (preacts[l] > 0.0).astype(float)
        if masks[l] is not None:
            gate = gate * masks[l]
        d = upstream * gate
        grads_w[l] = activations[l].T @ d
        grads_b[l] = d.sum(axis=0)
        if l > 0:
            upstream = d @ model.weights[l].T
    return grads_w, grads_b


def mlp_train(
    model: MlpModel,
    x,
    y,
    epochs: int = 1000,
    batch_size: int = 32,
    learning_rate: float = 0.01,
    seed: int = 0,
    momentum: float = 0.0,
) -> tuple[MlpModel, tuple[float, ...]]:
    """Train with plain mini-batch SGD; returns (new model, loss per epoch).

    Each epoch shuffles the rows with one draw from the seeded stream, walks
    consecutive batches (the last may be short), draws dropout masks from the
    same stream, and steps every parameter by ``learning_rate`` times its
    gradient.  ``momentum`` folds a classical velocity term into the step
    (zero means plain descent).  The trace entry for an epoch is the
    sample-weighted mean of its batch losses.  A non-finite loss raises
    :class:`Diverged`.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    batch_all = model_rows(x, model.layout[0])
    if len(batch_all) != len(y):
        raise DimensionMismatch(f"{len(batch_all)} rows but {len(y)} targets")
    if epochs < 1 or batch_size < 1:
        raise InvalidParam("epochs and batch_size must be >= 1")
    if learning_rate <= 0.0:
        raise InvalidParam(f"learning_rate must be > 0, got {learning_rate}")
    if not 0.0 <= momentum < 1.0:
        raise InvalidParam(f"momentum must be in [0, 1), got {momentum}")
    rng = np.random.default_rng(seed)
    weights = [w.copy() for w in model.weights]
    biases = [b.copy() for b in model.biases]
    vel_w = [np.zeros_like(w) for w in weights]
    vel_b = [np.zeros_like(b) for b in biases]
    current = replace(model, weights=tuple(weights), biases=tuple(biases))
    n = len(y)
    trace = []
    for epoch in range(epochs):
        order = rng.permutation(n)
        sse = 0.0
        for start in range(0, n, batch_size):
            rows = order[start : start + batch_size]
            xb, yb = batch_all[rows], y[rows]
            with np.errstate(over="ignore", invalid="ignore"):
                pred, acts, preacts, masks = _forward(current, xb, train=True, rng=rng)
                loss = float(np.mean((pred - yb) ** 2))
            if not np.isfinite(loss):
                raise Diverged(f"non-finite loss at epoch {epoch}")
            sse += loss * len(rows)
            with np.errstate(over="ignore", invalid="ignore"):
                gw, gb = _backward(current, xb, yb, pred, acts, preacts, masks)
                for l in range(len(weights)):
                    vel_w[l] = momentum * vel_w[l] + gw[l]
                    vel_b[l] = momentum * vel_b[l] + gb[l]
                    weights[l] -= learning_rate * vel_w[l]
                    biases[l] -= learning_rate * vel_b[l]
        trace.append(sse / n)
    return current, tuple(trace)


def _flatten(arrays) -> np.ndarray:
    return np.concatenate([a.ravel() for a in arrays])


def mlp_gradcheck(model: MlpModel, x, y, eps: float = 1e-5) -> float:
    """Compare backprop gradients against central finite differences.

    Dropout is off.  Returns ``max |g_bp - g_fd| / max(|g_bp| + |g_fd|,
    eps)`` over every parameter; flooring the denominator at the probe step
    keeps components below finite-difference resolution from reading as
    noise.  Hidden units whose pre-activation sits
    within a small margin of zero get their bias nudged first (on a copy),
    because the rectifier's kink would make one-sided curvature leak into
    the finite difference.
    """
    x = model_rows(x, model.layout[0])
    y = np.asarray(y, dtype=float).ravel()
    if len(x) != len(y):
        raise DimensionMismatch(f"{len(x)} rows but {len(y)} targets")
    weights = [w.copy() for w in model.weights]
    biases = [b.copy() for b in model.biases]
    probe = replace(model, weights=tuple(weights), biases=tuple(biases))
    for _ in range(64):
        _, _, preacts, _ = _forward(probe, x, train=False, rng=None)
        moved = False
        for l in range(len(model.layout) - 2):
            near = np.abs(preacts[l]) < _KINK_MARGIN
            if np.any(near):
                units = np.any(near, axis=0)
                biases[l][units] += 3.0 * _KINK_MARGIN
                moved = True
        if not moved:
            break

    def loss_at(theta: np.ndarray) -> float:
        offset = 0
        for arr in (*weights, *biases):
            arr.flat[:] = theta[offset : offset + arr.size]
            offset += arr.size
        pred, _, _, _ = _forward(probe, x, train=False, rng=None)
        return float(np.mean((pred - y) ** 2))

    theta0 = _flatten([*weights, *biases])
    pred, acts, preacts, masks = _forward(probe, x, train=False, rng=None)
    gw, gb = _backward(probe, x, y, pred, acts, preacts, masks)
    analytic = _flatten([*gw, *gb])
    numeric = np.zeros_like(theta0)
    for i in range(len(theta0)):
        theta = theta0.copy()
        theta[i] = theta0[i] + eps
        up = loss_at(theta)
        theta[i] = theta0[i] - eps
        down = loss_at(theta)
        numeric[i] = (up - down) / (2.0 * eps)
    loss_at(theta0)  # restore parameters
    denom = np.maximum(np.abs(analytic) + np.abs(numeric), eps)
    return float(np.max(np.abs(analytic - numeric) / denom))
