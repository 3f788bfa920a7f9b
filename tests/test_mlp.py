"""The perceptron: forward oracle, gradient checks, and training behavior."""

from dataclasses import replace

import numpy as np
import pytest

from rwtkit.errors import DimensionMismatch, InvalidLayout, InvalidParam, NonFiniteInput
from rwtkit.mlp import MlpModel, mlp_gradcheck, mlp_init, mlp_train


def tiny_model(dropout_rate=0.0):
    """A (2, 2, 1) network with hand-chosen weights for exact arithmetic."""
    w0 = np.array([[1.0, -1.0], [0.5, 2.0]])
    b0 = np.array([0.1, -0.2])
    w1 = np.array([[2.0], [-1.0]])
    b1 = np.array([0.3])
    return MlpModel(
        layout=(2, 2, 1),
        weights=(w0, w1),
        biases=(b0, b1),
        dropout_rate=dropout_rate,
    )


def test_forward_hand_oracle():
    model = tiny_model()
    x = np.array([1.0, 2.0])
    # Hidden pre-activations: [1*1 + 2*0.5 + 0.1, 1*(-1) + 2*2 - 0.2] = [2.1, 2.8]
    # After relu: [2.1, 2.8]; output: 2*2.1 - 1*2.8 + 0.3 = 1.7
    assert model.predict(x) == pytest.approx(1.7)
    # A negative pre-activation is clipped by the rectifier.
    x = np.array([-1.0, 0.0])
    # Pre-activations: [-0.9, 0.8] -> [0, 0.8]; output: -0.8 + 0.3 = -0.5
    assert model.predict(x) == pytest.approx(-0.5)


def test_forward_batch_matches_rows():
    model = mlp_init((10, 7, 1), seed=0, dropout_rate=0.0)
    x = np.random.default_rng(0).uniform(size=(20, 10))
    batch = model.predict(x)
    rows = np.concatenate([model.predict(row) for row in x])
    assert np.allclose(batch, rows, atol=1e-12)


def _broadcast_head(model, s):
    """The head as first written: each bias broadcast over the rows."""
    z = s + model.biases[0]
    for w, b in zip(model.weights[1:], model.biases[1:]):
        z = np.maximum(z, 0.0, out=z) @ w
        z += b
    return z[:, 0]


@pytest.mark.parametrize("layout", [(4, 1), (4, 6, 1), (4, 6, 5, 1)])
def test_head_matches_broadcast_bias_bits(layout):
    # The head adds tiled biases as contiguous runs; the bits must be those
    # of the broadcast adds, for cached and new row counts alike, and the
    # caller's array must not change.
    rng = np.random.default_rng(len(layout))
    model = mlp_init(layout, seed=1)
    model = replace(model, biases=tuple(rng.normal(size=b.shape) for b in model.biases))
    for n in (1, 7, 256, 7, 33, 1):
        s = rng.normal(size=(n, layout[1]))
        before = s.copy()
        got = model.head(s)
        assert got.shape == (n,)
        assert got.tobytes() == _broadcast_head(model, before).tobytes()
        assert s.tobytes() == before.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_predict_rejects_non_finite_rows(bad):
    model = mlp_init((3, 5, 1), seed=0)
    x = np.full((4, 3), 0.5)
    x[2, 1] = bad
    with pytest.raises(NonFiniteInput):
        model.predict(x)
    with pytest.raises(NonFiniteInput):
        model.predict(x[2])


def test_init_deterministic_and_shaped():
    a = mlp_init((10, 48, 48, 1), seed=3)
    b = mlp_init((10, 48, 48, 1), seed=3)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    assert a.layout == (10, 48, 48, 1)
    assert [w.shape for w in a.weights] == [(10, 48), (48, 48), (48, 1)]
    assert all(np.all(b == 0.0) for b in a.biases)
    bound = 1.0 / np.sqrt(10)
    assert np.abs(a.weights[0]).max() <= bound


def test_layout_validation():
    with pytest.raises(InvalidLayout):
        mlp_init((10,))
    with pytest.raises(InvalidLayout):
        mlp_init((10, 5, 2))  # output must be width 1
    with pytest.raises(InvalidParam):
        mlp_init((10, 5, 1), dropout_rate=1.0)


@pytest.mark.parametrize("seed", range(5))
def test_gradcheck_small_configs(seed):
    rng = np.random.default_rng(seed)
    layout = (int(rng.integers(2, 6)), int(rng.integers(2, 8)), 1)
    model = mlp_init(layout, seed=seed, dropout_rate=0.0)
    x = rng.uniform(-1.0, 1.0, size=(12, layout[0]))
    y = rng.normal(size=12)
    assert mlp_gradcheck(model, x, y) < 1e-4


def test_gradcheck_deep_config():
    model = mlp_init((4, 6, 6, 1), seed=7, dropout_rate=0.0)
    rng = np.random.default_rng(7)
    x = rng.uniform(-1.0, 1.0, size=(10, 4))
    y = rng.normal(size=10)
    assert mlp_gradcheck(model, x, y) < 1e-4


def test_training_reduces_loss(small_xy):
    x, y = small_xy
    model = mlp_init((10, 16, 1), seed=0, dropout_rate=0.0)
    trained, trace = mlp_train(model, x, y, epochs=60, batch_size=16,
                               learning_rate=0.05, seed=0)
    assert len(trace) == 60
    assert trace[-1] < trace[0] * 0.5
    mse_before = np.mean((model.predict(x) - y) ** 2)
    mse_after = np.mean((trained.predict(x) - y) ** 2)
    assert mse_after < mse_before


def test_training_deterministic(small_xy):
    x, y = small_xy
    kwargs = dict(epochs=10, batch_size=16, learning_rate=0.05, seed=4)
    a, trace_a = mlp_train(mlp_init((10, 8, 1), seed=1), x, y, **kwargs)
    b, trace_b = mlp_train(mlp_init((10, 8, 1), seed=1), x, y, **kwargs)
    assert trace_a == trace_b
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)


def test_training_returns_new_model(small_xy):
    x, y = small_xy
    model = mlp_init((10, 8, 1), seed=0)
    before = [w.copy() for w in model.weights]
    mlp_train(model, x, y, epochs=2, batch_size=32, learning_rate=0.05, seed=0)
    for w_orig, w_now in zip(before, model.weights):
        assert np.array_equal(w_orig, w_now)


def test_momentum_trains_and_differs(small_xy):
    x, y = small_xy
    init = mlp_init((10, 8, 1), seed=2, dropout_rate=0.0)
    kwargs = dict(epochs=20, batch_size=16, learning_rate=0.02, seed=0)
    plain, _ = mlp_train(init, x, y, momentum=0.0, **kwargs)
    heavy, trace = mlp_train(init, x, y, momentum=0.9, **kwargs)
    assert not np.array_equal(plain.weights[0], heavy.weights[0])
    assert trace[-1] < trace[0]
    with pytest.raises(InvalidParam):
        mlp_train(init, x, y, momentum=1.0, **kwargs)


def test_dropout_changes_the_fit_and_its_seed_repeats_it(small_xy):
    x, y = small_xy
    kwargs = dict(epochs=5, batch_size=16, learning_rate=0.05, seed=3)
    plain, _ = mlp_train(mlp_init((10, 8, 1), seed=1, dropout_rate=0.0), x, y, **kwargs)
    a, trace_a = mlp_train(mlp_init((10, 8, 1), seed=1, dropout_rate=0.3), x, y, **kwargs)
    b, trace_b = mlp_train(mlp_init((10, 8, 1), seed=1, dropout_rate=0.3), x, y, **kwargs)
    assert not np.array_equal(plain.weights[0], a.weights[0])
    assert trace_a == trace_b
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)


def test_train_input_validation(small_xy):
    x, y = small_xy
    model = mlp_init((10, 4, 1), seed=0)
    with pytest.raises(DimensionMismatch):
        mlp_train(model, x, y[:-1], epochs=1)
    with pytest.raises(InvalidParam):
        mlp_train(model, x, y, epochs=0)
    for learning_rate in (0.0, np.nan, np.inf):
        with pytest.raises(InvalidParam):
            mlp_train(model, x, y, learning_rate=learning_rate)
