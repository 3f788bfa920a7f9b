"""Spline networks: forward oracle, gradients, training, and distillation."""

import json
import multiprocessing
import os
import shutil
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from rwtkit import kan as kan_module
from rwtkit import parallel
from rwtkit.bspline import CubicSplineBasis
from rwtkit.cli import main as cli_main
from rwtkit.errors import Diverged, InvalidLayout, InvalidParam, NonFiniteInput
from rwtkit.kan import (
    COMPLEX_LIBRARY,
    SIMPLE_LIBRARY,
    EdgeReport,
    KanNetwork,
    edge_function,
    _forward_full,
    _loss_and_grads,
    incremental_experiment,
    kan_gradcheck,
    kan_init,
    kan_snap,
    kan_train,
    min_abs_edge_output,
    regime_layout,
)
from rwtkit.symbolic import Var, add, const, eval_expression, simplify, to_text

GRID = 8


def single_edge_net(coef_values, bypass_weight, grid_size=GRID):
    """A (1, 1) network whose only edge we control exactly."""
    k = grid_size + 3
    coefs = (np.asarray(coef_values, dtype=float).reshape(1, 1, k),)
    bypass = (np.array([[bypass_weight]]),)
    return KanNetwork(layout=(1, 1), grid_size=grid_size, coefs=coefs, bypass=bypass)


# --- construction and shapes -------------------------------------------------


def test_init_shapes_and_determinism():
    net = kan_init((10, 2, 1), grid_size=GRID, seed=0)
    assert net.layout == (10, 2, 1)
    assert net.coefs[0].shape == (2, 10, GRID + 3)
    assert net.coefs[1].shape == (1, 2, GRID + 3)
    assert net.bypass[0].shape == (2, 10)
    assert net.bypass[1].shape == (1, 2)
    again = kan_init((10, 2, 1), grid_size=GRID, seed=0)
    for a, b in zip(net.coefs, again.coefs):
        assert np.array_equal(a, b)
    other = kan_init((10, 2, 1), grid_size=GRID, seed=1)
    assert not np.array_equal(net.coefs[0], other.coefs[0])


def test_init_bypass_near_input_average():
    net = kan_init((4, 3, 1), seed=5)
    # Bypass starts near 1/fan_in so hidden values stay in the spline span.
    assert np.allclose(net.bypass[0], 1.0 / 4.0, atol=0.15)
    assert np.allclose(net.bypass[1], 1.0 / 3.0, atol=0.15)


def test_layout_validation():
    with pytest.raises(InvalidLayout):
        kan_init((10,))
    with pytest.raises(InvalidLayout):
        kan_init((10, 3, 2))  # output width must be 1
    good = kan_init((3, 2, 1))
    with pytest.raises(InvalidLayout):
        KanNetwork(
            layout=(3, 2, 1),
            grid_size=good.grid_size,
            coefs=(good.coefs[0][:, :2, :], good.coefs[1]),  # wrong edge count
            bypass=good.bypass,
        )


def test_regime_layouts():
    assert regime_layout("simple", 10) == (10, 2, 1)
    assert regime_layout("complex", 10) == (10, 3, 1)
    assert regime_layout("simple", 4) == (4, 2, 1)
    with pytest.raises(Exception):
        regime_layout("fancy", 10)


# --- forward oracle ----------------------------------------------------------


def test_single_edge_forward_equals_spline_plus_bypass():
    rng = np.random.default_rng(0)
    coef = rng.normal(size=GRID + 3)
    net = single_edge_net(coef, bypass_weight=0.7)
    basis = CubicSplineBasis(GRID)
    u = rng.uniform(0.0, 1.0, size=50)
    expected = basis.evaluate(u) @ coef + 0.7 * u
    got = net.forward(u[:, np.newaxis])
    assert np.abs(got - expected).max() < 1e-12


def test_two_input_node_sums_edges():
    rng = np.random.default_rng(1)
    k = GRID + 3
    coefs = (rng.normal(size=(1, 2, k)),)
    bypass = (rng.normal(size=(1, 2)),)
    net = KanNetwork(layout=(2, 1), grid_size=GRID, coefs=coefs, bypass=bypass)
    basis = CubicSplineBasis(GRID)
    x = rng.uniform(0.0, 1.0, size=(20, 2))
    expected = sum(
        basis.evaluate(x[:, p]) @ coefs[0][0, p] + bypass[0][0, p] * x[:, p]
        for p in range(2)
    )
    assert np.abs(net.forward(x) - expected).max() < 1e-12


def test_two_layer_composition():
    rng = np.random.default_rng(2)
    net = kan_init((2, 2, 1), grid_size=GRID, seed=3)
    x = rng.uniform(0.0, 1.0, size=(15, 2))
    # Compose manually through edge_function.
    hidden = np.stack(
        [
            sum(edge_function(net, 0, q, p, x[:, p]) for p in range(2))
            for q in range(2)
        ],
        axis=1,
    )
    out = sum(edge_function(net, 1, 0, q, hidden[:, q]) for q in range(2))
    assert np.abs(net.forward(x) - out).max() < 1e-12


def test_kan_forward_row_vs_batch():
    net = kan_init((3, 2, 1), seed=0)
    row = np.array([0.2, 0.5, 0.8])
    single = net.forward(row)
    batch = net.forward(row[np.newaxis, :])
    assert single.shape == batch.shape == (1,)
    assert single[0] == batch[0]


def test_predict_bit_identical_to_training_forward():
    # predict skips the derivative and cache work of the training forward;
    # the values it returns must not change by a single bit.
    rng = np.random.default_rng(6)
    for layout in [(3, 2, 1), (4, 3, 2, 1)]:
        net = kan_init(layout, seed=4)
        x = rng.uniform(-0.5, 1.5, size=(40, layout[0]))
        expected, _ = _forward_full(net, x)
        assert np.array_equal(net.predict(x), expected)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_predict_rejects_non_finite_rows(bad):
    # Inputs beyond [0, 1] are fine (the bypass carries them); only
    # non-finite ones are rejected.
    net = kan_init((3, 2, 1), seed=0)
    x = np.full((4, 3), 0.5)
    x[2, 0] = bad
    with pytest.raises(NonFiniteInput):
        net.predict(x)
    with pytest.raises(NonFiniteInput):
        net.forward(x[2])


# --- gradients ---------------------------------------------------------------


@pytest.mark.parametrize("layout", [(2, 2, 1), (3, 2, 1), (4, 3, 1), (2, 3, 3, 1)])
def test_gradcheck_layouts(layout):
    rng = np.random.default_rng(layout[0])
    net = kan_init(layout, grid_size=5, seed=1)
    x = rng.uniform(0.05, 0.95, size=(20, layout[0]))
    y = rng.normal(size=20)
    assert min_abs_edge_output(net, x) > 1e-4
    assert kan_gradcheck(net, x, y, lam=1e-3) < 1e-4


def test_gradcheck_after_training(small_xy):
    x, y = small_xy
    net = kan_init((10, 2, 1), seed=0)
    trained, _ = kan_train(net, x, y, steps=100, learning_rate=0.3, lam=1e-3)
    if min_abs_edge_output(trained, x) > 1e-4:
        assert kan_gradcheck(trained, x, y, lam=1e-3) < 1e-4


# --- training ----------------------------------------------------------------


def test_training_reduces_loss(small_xy):
    x, y = small_xy
    net = kan_init((10, 2, 1), seed=0)
    trained, trace = kan_train(net, x, y, steps=200, learning_rate=0.5, lam=1e-3)
    assert len(trace) == 200
    assert trace[-1] < trace[0] * 0.5
    mse_before = np.mean((net.forward(x) - y) ** 2)
    mse_after = np.mean((trained.forward(x) - y) ** 2)
    assert mse_after < mse_before


def test_training_deterministic(small_xy):
    x, y = small_xy
    a, trace_a = kan_train(kan_init((10, 2, 1), seed=2), x, y, steps=50)
    b, trace_b = kan_train(kan_init((10, 2, 1), seed=2), x, y, steps=50)
    assert trace_a == trace_b
    for la, lb in zip(a.coefs, b.coefs):
        assert np.array_equal(la, lb)


def test_cached_basis_training_is_bitwise_plain_descent(small_xy):
    # kan_train evaluates the first layer's basis once; stepping with a
    # basis rebuilt at every step must give the same bits.
    x, y = small_xy[0][:, :4], small_xy[1]
    net = kan_init((4, 3, 1), seed=2)
    trained, trace = kan_train(net, x, y, steps=40, learning_rate=0.5, lam=1e-3)
    coefs = [c.copy() for c in net.coefs]
    bypass = [b.copy() for b in net.bypass]
    current = KanNetwork(net.layout, net.grid_size, tuple(coefs), tuple(bypass))
    losses = []
    for _ in range(40):
        with np.errstate(over="ignore", invalid="ignore"):
            loss, gc, gb = _loss_and_grads(current, x, y, 1e-3)
        losses.append(loss)
        for l in range(len(coefs)):
            coefs[l] -= 0.5 * gc[l]
            bypass[l] -= 0.5 * gb[l]
    assert trace == tuple(losses)
    for got, want in zip(trained.coefs + trained.bypass, current.coefs + current.bypass):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("bad", [{"steps": 0}, {"learning_rate": 0.0},
                                 {"learning_rate": np.nan}, {"learning_rate": np.inf},
                                 {"lam": -1.0}, {"lam": np.nan}, {"lam": np.inf}],
                         ids=lambda bad: "-".join(f"{k}={v}" for k, v in bad.items()))
def test_train_rejects_parameters_outside_their_domain(small_xy, bad):
    # NaN fails every comparison, so each bound is written to fail on it
    x, y = small_xy
    with pytest.raises(InvalidParam):
        kan_train(kan_init((10, 2, 1), seed=0), x, y, **{"steps": 5, **bad})


def test_divergence_raises(small_xy):
    x, y = small_xy
    net = kan_init((10, 2, 1), seed=0)
    with pytest.raises(Diverged):
        kan_train(net, x, y, steps=200, learning_rate=1e4, lam=1e-3)


# --- the einsum oracle for the matmul kernel ---------------------------------


def _einsum_edge_out(net, l, a, bas):
    """Edge outputs (n, Q, P) by ``np.einsum``, the kernel the matmul replaced."""
    spline = np.einsum("npk,qpk->nqp", bas, net.coefs[l])
    return spline + net.bypass[l][np.newaxis, :, :] * a[:, np.newaxis, :]


def _einsum_propagate(net, a, start):
    for l in range(start, len(net.layout) - 1):
        a = _einsum_edge_out(net, l, a, net.basis.evaluate(a)).sum(axis=2)
    return a[:, 0]


def _einsum_loss_and_grads(net, x, y, lam):
    """Loss and gradients with every contraction an ``np.einsum``."""
    n = len(x)
    caches = []
    a = x
    for l in range(len(net.layout) - 1):
        if l == 0:
            bas, slope = net.basis.evaluate(a), None
        else:
            bas, dbas = net.basis.evaluate_with_derivative(a)
            slope = np.einsum("npk,qpk->nqp", dbas, net.coefs[l]) + net.bypass[l][np.newaxis]
        edge_out = _einsum_edge_out(net, l, a, bas)
        caches.append((a, bas, edge_out, slope))
        a = edge_out.sum(axis=2)
    err = a[:, 0] - y
    loss = float(np.mean(err * err))
    for cache in caches:
        loss += lam * float(np.mean(np.abs(cache[2]), axis=0).sum())
    grads_c, grads_b = [], []
    upstream = (2.0 / n) * err[:, np.newaxis]
    for l in range(len(net.layout) - 2, -1, -1):
        a, bas, edge_out, slope = caches[l]
        s = upstream[:, :, np.newaxis] + (lam / n) * np.sign(edge_out)
        grads_c.insert(0, np.einsum("nqp,npk->qpk", s, bas))
        grads_b.insert(0, np.einsum("nqp,np->qp", s, a))
        if l > 0:
            upstream = np.einsum("nqp,nqp->np", s, slope)
    return loss, grads_c, grads_b


def _assert_rel_close(got, want, rel=1e-12):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= rel * max(np.max(np.abs(want)), 1e-300)


ORACLE_LAYOUTS = [(1, 3, 1), (3, 3, 1), (10, 2, 1), (4, 3, 2, 1), (5, 4, 3, 1)]


def _random_net(layout, seed):
    """A network with random spline coefficients and bypass weights."""
    rng = np.random.default_rng(seed)
    net = kan_init(layout, seed=seed)
    return replace(net, coefs=tuple(rng.normal(0.0, 0.3, size=c.shape) for c in net.coefs),
                   bypass=tuple(b + rng.normal(0.0, 0.1, size=b.shape) for b in net.bypass))


@pytest.mark.parametrize("lam", [0.0, 1e-3, 0.1])
@pytest.mark.parametrize("layout", ORACLE_LAYOUTS)
def test_matmul_step_matches_einsum_oracle(layout, lam):
    rng = np.random.default_rng(len(layout) * 10 + layout[0])
    net = _random_net(layout, seed=layout[0])
    x = rng.uniform(-0.5, 1.5, size=(50, layout[0]))
    y = rng.normal(size=50)
    loss, gc, gb = _loss_and_grads(net, x, y, lam)
    want_loss, want_gc, want_gb = _einsum_loss_and_grads(net, x, y, lam)
    _assert_rel_close(loss, want_loss)
    for got, want in zip(gc + gb, want_gc + want_gb):
        _assert_rel_close(got, want)
    _assert_rel_close(net.predict(x), _einsum_propagate(net, x, 0))
    terms = net.input_terms(x)
    _assert_rel_close(terms, _einsum_edge_out(net, 0, x, net.basis.evaluate(x)).transpose(0, 2, 1))
    hidden = terms.sum(axis=1)
    _assert_rel_close(net.head(hidden), _einsum_propagate(net, hidden, 1))


@pytest.mark.parametrize("lam", [0.0, 1e-3, 0.1])
@pytest.mark.parametrize("layout", ORACLE_LAYOUTS)
def test_matmul_training_matches_einsum_oracle(layout, lam):
    # At a learning rate of 0.1 the lam = 0.1 runs oscillate, and any
    # last-bit difference grows to 2e-7 by step 200 whichever kernel makes
    # it; at 0.02 descent is smooth and the two kernels stay within 2e-15.
    rng = np.random.default_rng(layout[0])
    x = rng.uniform(-0.5, 1.5, size=(60, layout[0]))
    y = 0.3 * np.sin(2.0 * x[:, 0]) + 0.1 * x.sum(axis=1)
    net = kan_init(layout, seed=layout[0])
    trained, trace = kan_train(net, x, y, steps=200, learning_rate=0.02, lam=lam)
    coefs = [c.copy() for c in net.coefs]
    bypass = [b.copy() for b in net.bypass]
    current = replace(net, coefs=tuple(coefs), bypass=tuple(bypass))
    want_trace = []
    for _ in range(200):
        loss, gc, gb = _einsum_loss_and_grads(current, x, y, lam)
        want_trace.append(loss)
        for l in range(len(coefs)):
            coefs[l] -= 0.02 * gc[l]
            bypass[l] -= 0.02 * gb[l]
    assert trace[-1] < trace[0]
    for got, want in zip(trace, want_trace):
        _assert_rel_close(got, want)
    for got, want in zip(trained.coefs + trained.bypass, current.coefs + current.bypass):
        _assert_rel_close(got, want)


def _max_edge_abs_mean_on_data(net, x):
    """Largest per-edge mean |output| over the inputs each edge actually sees.

    The sparsity penalty is computed on edge outputs at the batch, so hidden
    edges must be probed at the hidden activations, not on a uniform grid the
    training data never visits.
    """
    means = []
    inputs = x
    for layer in range(len(net.layout) - 1):
        n_out, n_in = net.bypass[layer].shape
        outputs = np.zeros((x.shape[0], n_out))
        for q in range(n_out):
            for p in range(n_in):
                e = edge_function(net, layer, q, p, inputs[:, p])
                means.append(np.abs(e).mean())
                outputs[:, q] += e
        inputs = outputs
    return max(means)


def test_penalty_dominates_when_lambda_large():
    # With the sparsity weight far above the fit weight, edge outputs at the
    # data are driven toward zero even though the target has spread.  At a
    # learning rate of 0.02 the loss swings between 0.27 and 1.08 late in
    # training, and a 1-ulp change to the initial coefficients moves the
    # value below from 0.019 to 0.03-0.047; at 0.005 it reads 0.0071 under
    # every such change, well inside the bound.
    rng = np.random.default_rng(0)
    x = rng.uniform(0.0, 1.0, size=(200, 2))
    y = 0.5 * x[:, 0] - 0.25  # target spread ~ 0.5/sqrt(12) per unit coef
    net = kan_init((2, 2, 1), seed=0)
    suppressed, _ = kan_train(net, x, y, steps=800, learning_rate=0.005, lam=5.0)
    assert _max_edge_abs_mean_on_data(suppressed, x) < 0.05
    # Contrast: a near-unpenalized fit keeps edges large enough to carry y.
    free, _ = kan_train(net, x, y, steps=800, learning_rate=0.5, lam=1e-3)
    assert _max_edge_abs_mean_on_data(free, x) > 0.1


# --- snapping ----------------------------------------------------------------


def test_snap_linear_single_input():
    # A network trained on a pure line should distil to that line.
    rng = np.random.default_rng(3)
    x = rng.uniform(0.0, 1.0, size=(400, 1))
    y = 0.82 * x[:, 0] + 0.1
    net = kan_init((1, 2, 1), grid_size=GRID, seed=0)
    trained, _ = kan_train(net, x, y, steps=800, learning_rate=0.5, lam=1e-3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        expr, report = kan_snap(trained, x, library="simple")
    x1 = np.linspace(0.0, 1.0, 200)
    values = eval_expression(expr, {1: x1})
    target = 0.82 * x1 + 0.1
    assert np.abs(values - target).max() < 0.05
    assert report.tolerance < 0.05


def test_snap_zeroed_network_gives_constant():
    k = GRID + 3
    net = KanNetwork(
        layout=(1, 1),
        grid_size=GRID,
        coefs=(np.zeros((1, 1, k)),),
        bypass=(np.zeros((1, 1)),),
    )
    x = np.linspace(0.0, 1.0, 100)[:, np.newaxis]
    expr, report = kan_snap(net, x, library="simple")
    assert eval_expression(expr, {1: 0.5}) == 0.0
    assert report.n_failed == 0
    assert all(e.candidate == "constant" for e in report.edges)


def test_snap_identity_edge_is_exact_linear():
    # Spline coefficients that reproduce the identity plus zero bypass snap
    # to a linear edge with slope 1 at machine precision.
    basis = CubicSplineBasis(GRID)
    u = np.linspace(0.0, 1.0, 400)
    coef = basis.fit(u, u)
    net = single_edge_net(coef, bypass_weight=0.0)
    x = u[:, np.newaxis]
    expr, report = kan_snap(net, x, library="simple")
    edge0 = report.edges[0]
    assert edge0.candidate == "linear"
    assert edge0.r2 > 1.0 - 1e-9
    x1 = np.linspace(0.0, 1.0, 100)
    assert np.abs(eval_expression(expr, {1: x1}) - x1).max() < 1e-6


def test_snap_var_indices_renames_inputs():
    rng = np.random.default_rng(4)
    x = rng.uniform(size=(200, 1))
    y = 0.5 * x[:, 0]
    trained, _ = kan_train(kan_init((1, 2, 1), seed=0), x, y, steps=400)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        expr, _ = kan_snap(trained, x, library="simple", var_indices=(7,))
    assert "x7" in to_text(expr)
    assert "x1" not in to_text(expr)


def test_snap_poor_fit_raise_mode():
    # A wiggly edge cannot be matched by the simple library at r2 0.9: the
    # edge is reported failed with a warning, and the expression is still
    # returned.
    basis = CubicSplineBasis(GRID)
    u = np.linspace(0.0, 1.0, 300)
    coef = basis.fit(u, np.sin(8.0 * np.pi * u))
    net = single_edge_net(coef, bypass_weight=0.0)
    x = u[:, np.newaxis]
    with pytest.warns(UserWarning):
        _, report = kan_snap(net, x, library="simple")
    assert report.n_failed >= 1


def test_snap_report_tolerance_is_true_max_gap():
    rng = np.random.default_rng(5)
    x = rng.uniform(size=(300, 1))
    y = 0.4 * x[:, 0] + 0.2
    trained, _ = kan_train(kan_init((1, 2, 1), seed=1), x, y, steps=400)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        expr, report = kan_snap(trained, x, library="simple")
    gap = np.abs(eval_expression(expr, {1: x[:, 0]}) - trained.forward(x)).max()
    assert gap <= report.tolerance + 1e-12


def test_snap_complex_library_handles_gaussian_bump():
    basis = CubicSplineBasis(GRID)
    u = np.linspace(0.0, 1.0, 400)
    target = 0.8 * np.exp(-18.0 * (u - 0.5) ** 2)
    coef = basis.fit(u, target)
    net = single_edge_net(coef, bypass_weight=0.0)
    x = u[:, np.newaxis]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        expr, report = kan_snap(net, x, library="complex")
    values = eval_expression(expr, {1: u})
    assert np.abs(values - target).max() < 0.02


#: Edge fits of the seeded (3, 3, 1) network below, trained through the
#: batched-matmul kernel and captured from the dense basis and the full
#: 25 x 25 sweep ranked by centred moments (numpy 2.4, x86-64): (layer, out,
#: in, candidate, r2, params).  The exp and sq_shift sweeps hold their second parameter at 0, so
#: they may not pick a different first parameter.
SNAP_3_3_1 = [
    (0, 0, 0, "tan", 0.94670129508145,
     (-2.465277777777778, 7.515432098765432, -0.08681936920183217, 0.14788479099798962)),
    (0, 0, 1, "cos", 0.9472922700540083,
     (-9.64891975308642, -2.681327160493827, 0.04715447898820241, 0.06254062132615605)),
    (0, 0, 2, "exp", 0.8868608374073041,
     (-2.20679012345679, 0.1781048601147267, -0.05521158605732673)),
    (0, 1, 0, "gauss", 0.9807552721372194,
     (6.109992283950616, 0.9593575608948659, 0.33729612339765813, -0.0003799455899602677)),
    (0, 1, 1, "linear", 0.9363542688161417,
     (0.19988378724799993, -0.024322310916136288)),
    (0, 1, 2, "tanh", 0.8333782818335546,
     (-11.990740740740739, 5.104166666666669, 0.0218027264556332, 0.05574186393133497)),
    (0, 2, 0, "linear", 0.9856098132206484,
     (0.6050861840137011, -0.06419780257454048)),
    (0, 2, 1, "tan", 0.726870403166785,
     (-2.8472222222222223, -1.6242283950617278, 0.007209799216556238, 0.021214682577239765)),
    (0, 2, 2, "linear", 0.9512258966056942,
     (-0.2838968112336749, 0.11419539650632643)),
    (1, 0, 0, "tan", 0.9544198246858004,
     (-3.5455246913580245, 0.8873456790123463, -0.13132795505315453, 0.10158708059800932)),
    (1, 0, 1, "cos", 0.9986925662227762,
     (-8.892746913580245, 4.108796296296298, 0.09111579706786219, 0.08083862857829366)),
    (1, 0, 2, "linear", 0.961870230852241,
     (0.73066971870972, -0.055436148505552035)),
]
SNAP_3_3_1_TEXT = (
    "-(0.13132795505315453*tan(-(3.5455246913580245*(-(0.08681936920183217*tan("
    "-(2.465277777777778*x1) + 7.515432098765432)))) - "
    "0.1671873695607948*cos(-(9.64891975308642*x2) - 2.681327160493827) - "
    "0.6314751791876305*exp(-(2.20679012345679*x3)) + 0.337031225543185)) + "
    "0.09111579706786219*cos(-(2.999489060307106*exp(-(6.109992283950616*(x1 - "
    "0.9593575608948659)^2))) - 1.7775159321243819*x2 - "
    "0.1938861283959665*tanh(-(11.990740740740739*x3) + 5.104166666666669) + "
    "3.8327689231667663) + 0.44211815186842884*x1 + "
    "0.005267981965514705*tan(-(2.8472222222222223*x2) - 1.6242283950617278) + "
    "0.73066971870972*(-(0.2838968112336749*x3)) + 0.17902221471627955"
)


def test_reciprocal_fit_keeps_pole_between_grid_points_out():
    # 10u - 5 changes sign at u = 0.5, which falls between two of the 256
    # grid points, so no grid point comes near the pole
    u = np.linspace(0.0, 1.0, 256)
    arg = 10.0 * u - 5.0
    assert np.min(np.abs(arg)) > 0.019
    assert not kan_module._guard_away_from_zero(arg[np.newaxis, np.newaxis, :], None)[0, 0]
    for cand, v in ((kan_module._RECIP, 1.0 / arg), (kan_module._RECIP2, 1.0 / arg**2)):
        got = cand.fit(u, v)
        if got is not None:
            a, b, _, _ = got[0]
            assert min(b, a + b) > 0.0 or max(b, a + b) < 0.0, (cand.name, got[0])


def test_snap_complex_library_matches_captured_fits(small_xy):
    x, y = small_xy[0][:, :3], small_xy[1]
    net, _ = kan_train(kan_init((3, 3, 1), seed=5), x, y, steps=200)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        expr, report = kan_snap(net, x, library="complex")
    got = [(e.layer, e.out_index, e.in_index, e.candidate, e.r2, e.params) for e in report.edges]
    assert got == SNAP_3_3_1
    assert to_text(expr) == SNAP_3_3_1_TEXT


#: Each library entry's own form with seeded parameters (``r`` draws them).
_ENTRY_FORMS = {
    "constant": lambda r, u: np.full_like(u, r.uniform(-1, 1)),
    "linear": lambda r, u: r.uniform(-2, 2) * u + r.uniform(-1, 1),
    "reciprocal": lambda r, u: r.uniform(-1, 1) / (r.uniform(1, 3) * u + r.uniform(0.5, 2)),
    "reciprocal_sq": lambda r, u: r.uniform(-1, 1) / (r.uniform(1, 3) * u + r.uniform(0.5, 2)) ** 2,
    "sq_shift": lambda r, u: r.uniform(-1, 1) * (r.uniform(0.2, 0.8) - u) ** 2,
    "exp": lambda r, u: r.uniform(-1, 1) * np.exp(r.uniform(-3, 3) * u),
    "gauss": lambda r, u: r.uniform(-1, 1) * np.exp(-r.uniform(5, 20)
                                                     * (u - r.uniform(0.3, 0.7)) ** 2),
    "cos": lambda r, u: r.uniform(-1, 1) * np.cos(r.uniform(2, 8) * u + r.uniform(-1, 1)),
    "tanh": lambda r, u: r.uniform(-1, 1) * np.tanh(r.uniform(2, 8) * u + r.uniform(-4, 0)),
    "tan": lambda r, u: r.uniform(-1, 1) * np.tan(r.uniform(1, 2) * (u - 0.5)),
}

#: Each entry's fit of a noisy edge drawn from its own form (see the test),
#: captured from the sweep ranked by centred moments (numpy 2.4, x86-64):
#: (params, r2, built expression).  The reciprocal and tanh fits are the
#: mirrors, with the same r2, of those the residual-pass sweep picked.
ENTRY_FITS = {
    "constant": ((0.6704430546715471,), 0.0, "0.6704430546715471"),
    "linear": ((1.7712405323714815, -0.2804888241619393), 0.999604090789531,
               "1.7712405323714815*x1 - 0.2804888241619393"),
    "reciprocal": ((-10.115740740740739, -8.287037037037038, 3.254290648073085,
                    0.0015298326846791555), 0.9715299381402371,
                   "3.254290648073085/(-(10.115740740740739*x1) - 8.287037037037038) + "
                   "0.0015298326846791555"),
    "reciprocal_sq": ((-7.222222222222223, -3.749999999999999, -8.839728159267182,
                       -0.0031646550428611753), 0.9952137814156746,
                      "-8.839728159267182/(-(7.222222222222223*x1) - 3.749999999999999)^2 - "
                      "0.0031646550428611753"),
    "sq_shift": ((0.6161265432098769, 0.6856571267399316, -0.0003915940951978031),
                 0.980701390109931,
                 "0.6856571267399316*(-x1 + 0.6161265432098769)^2 - 0.0003915940951978031"),
    "exp": ((2.9475308641975317, 0.2768301969178889, -0.0010935459297225503),
            0.9999399073874771,
            "0.2768301969178889*exp(2.9475308641975317*x1) - 0.0010935459297225503"),
    "gauss": ((5.6716435185185174, 0.34953703703703703, 0.9579986789096623,
               0.0073555851106403836), 0.9987348334109456,
              "0.9579986789096623*exp(-(5.6716435185185174*(x1 - 0.34953703703703703)^2)) + "
              "0.0073555851106403836"),
    "cos": ((-4.861111111111111, -0.011574074074074063, 0.2976284385110366,
             0.000685428476185912), 0.9974685373194018,
            "0.2976284385110366*cos(-(4.861111111111111*x1) - 0.011574074074074063) + "
            "0.000685428476185912"),
    "tanh": ((-5.817901234567901, 3.541666666666668, -0.7123283481900455,
              0.0008240507550304754), 0.9996384808591818,
             "-(0.7123283481900455*tanh(-(5.817901234567901*x1) + 3.541666666666668)) + "
             "0.0008240507550304754"),
    "tan": ((1.8672839506172854, -0.9259259259259247, 0.08458630439601383,
             -0.0017309066567881828), 0.9741611980638676,
            "0.08458630439601383*tan(1.8672839506172854*x1 - 0.9259259259259247) - "
            "0.0017309066567881828"),
}


@pytest.mark.parametrize("index", range(len(COMPLEX_LIBRARY)),
                         ids=[cand.name for cand in COMPLEX_LIBRARY])
def test_every_library_entry_fits_its_own_form_as_captured(index):
    # SNAP_3_3_1 never selects constant, reciprocal, reciprocal_sq or
    # sq_shift; here every entry fits a seeded noisy edge of its own form.
    cand = COMPLEX_LIBRARY[index]
    r = np.random.default_rng(100 + index)
    u = np.linspace(0.0, 1.0, 256)
    v = _ENTRY_FORMS[cand.name](r, u) + 0.01 * r.normal(size=u.size)
    params, pred = cand.fit(u, v)
    want_params, want_r2, want_text = ENTRY_FITS[cand.name]
    assert tuple(float(p) for p in params) == want_params
    assert abs(kan_module._edge_r2(v, pred) - want_r2) <= 1e-15
    built = cand.build(Var(1), params)
    assert to_text(built) == want_text
    assert np.abs(eval_expression(built, {1: u}) - pred).max() < 1e-9


def _reference_snap(net, x, library, param_penalty):
    """kan_snap with every candidate fitted on every edge: the oracle for its skip."""
    _, caches = _forward_full(net, x)
    exprs = [Var(p + 1) for p in range(net.n_inputs)]
    reports = []
    for l, cache in enumerate(caches):
        next_exprs = []
        for qi in range(net.layout[l + 1]):
            terms = []
            for pi in range(net.layout[l]):
                reached = cache["a"][:, pi]
                u = np.linspace(float(reached.min()), float(reached.max()), 256)
                v = edge_function(net, l, qi, pi, u)
                best = None
                for cand in library:
                    got = cand.fit(u, v)
                    if got is None:
                        continue
                    params, pred = got
                    r2 = kan_module._edge_r2(v, pred)
                    score = r2 - param_penalty * cand.n_params
                    if best is None or score > best[0]:
                        best = (score, cand, params, r2)
                _, cand, params, r2 = best
                reports.append(EdgeReport(l, qi, pi, cand.name, tuple(float(p) for p in params),
                                          r2, float(u.min()), float(u.max()), r2 < 0.9))
                terms.append(cand.build(exprs[pi], params))
            next_exprs.append(simplify(add(*terms)))
        exprs = next_exprs
    return simplify(exprs[0]), tuple(reports)


def _counted(library, counts):
    """The library with each candidate's fit counting its calls by name."""
    def counting(cand):
        def fit(u, v):
            counts[cand.name] = counts.get(cand.name, 0) + 1
            return cand.fit(u, v)
        return replace(cand, fit=fit)
    return tuple(counting(cand) for cand in library)


_NONE = kan_module._Candidate("none", 1, lambda u, v: None, lambda child, p: const(0.0))
_NAN = kan_module._Candidate("nan", 1, lambda u, v: ((0.5,), np.full_like(v, np.nan)),
                             lambda child, p: const(p[0]))
_CUSTOM_NAN_LAST = (_NONE, kan_module._CONSTANT, kan_module._LINEAR, _NAN, kan_module._RECIP)
_CUSTOM_NAN_FIRST = (_NAN, _NONE, kan_module._CONSTANT, kan_module._LINEAR)


@pytest.mark.parametrize("layout, library, penalty", [
    ((1, 2, 1), SIMPLE_LIBRARY, 0.01),
    ((3, 3, 1), SIMPLE_LIBRARY, 0.01),
    ((4, 2, 1), SIMPLE_LIBRARY, 0.01),
    ((1, 2, 1), COMPLEX_LIBRARY, 0.01),
    ((3, 3, 1), COMPLEX_LIBRARY, 0.01),
    ((4, 2, 1), COMPLEX_LIBRARY, 0.01),
    ((3, 3, 1), COMPLEX_LIBRARY, 0.0),
    ((3, 3, 1), _CUSTOM_NAN_LAST, 0.01),
    ((3, 3, 1), _CUSTOM_NAN_FIRST, 0.01),
])
def test_snap_skip_equals_fitting_every_candidate(small_xy, layout, library, penalty):
    x, y = small_xy[0][:, : layout[0]], small_xy[1]
    net, _ = kan_train(kan_init(layout, seed=len(layout) + layout[0]), x, y, steps=150)
    counts = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        expr, report = kan_snap(net, x, library=_counted(library, counts),
                                param_penalty=penalty)
    want_expr, want_edges = _reference_snap(net, x, library, penalty)
    # repr, not ==, so that a NaN r2 compares equal to itself
    assert repr(report.edges) == repr(want_edges)
    assert to_text(expr) == to_text(want_expr)
    if library is _CUSTOM_NAN_FIRST:  # a NaN leader never passes the bound
        assert sum(counts.values()) == len(want_edges) * len(library)


def test_snap_skips_candidates_that_cannot_win():
    # every edge of a zeroed network is constant, which the constant
    # candidate fits with r2 = 1, so with no penalty nothing else is fitted
    k = GRID + 3
    net = KanNetwork((2, 2, 1), GRID, (np.zeros((2, 2, k)), np.zeros((1, 2, k))),
                     (np.zeros((2, 2)), np.zeros((1, 2))))
    x = np.linspace(0.0, 1.0, 50)[:, np.newaxis].repeat(2, axis=1)
    counts = {}
    expr, report = kan_snap(net, x, library=_counted(COMPLEX_LIBRARY, counts), param_penalty=0.0)
    want_expr, want_edges = _reference_snap(net, x, COMPLEX_LIBRARY, 0.0)
    assert report.edges == want_edges
    assert to_text(expr) == to_text(want_expr)
    assert counts == {"constant": len(report.edges)}


def _old_guard_tan(arg):
    """The tan guard before it read the tan values: the oracle for _guard_tan."""
    finite = np.min(np.abs(np.cos(arg)), axis=-1) >= 1e-2
    span = np.abs(arg[..., -1] - arg[..., 0]) if arg.shape[-1] > 1 else np.zeros(arg.shape[:-1])
    return finite & (span < np.pi)


def _assert_tan_guard_matches(arg):
    with np.errstate(invalid="ignore", over="ignore"):
        got = kan_module._guard_tan(arg, np.tan(arg))
        want = _old_guard_tan(arg)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)


def test_guard_tan_matches_cos_guard_on_sweep_grids():
    rng = np.random.default_rng(11)
    u = np.linspace(0.0, 1.0, 256)
    for lo, hi in ((-10.0, 10.0), (-0.5, 0.5), (1.4, 1.8), (-50.0, 50.0)):
        a = np.linspace(lo, hi, 25)
        b = np.linspace(lo, hi, 25)
        _assert_tan_guard_matches(a[:, np.newaxis, np.newaxis] * u + b[np.newaxis, :, np.newaxis])
    for scale in (0.1, 1.0, 10.0, 1e3):
        _assert_tan_guard_matches(rng.normal(0.0, scale, size=(30, 40, 7)))
        _assert_tan_guard_matches(np.sort(rng.normal(0.0, scale, size=(30, 40, 7)), axis=-1))


def test_guard_tan_matches_cos_guard_at_the_bound_and_poles():
    # |cos| within 1e-6 of 1e-2 on either side, and points next to the poles
    delta = np.linspace(-1e-6, 1e-6, 41)
    base = np.concatenate([np.arccos(1e-2 + delta), np.arccos(-1e-2 - delta)])
    k = np.arange(-6, 7)[:, np.newaxis] * np.pi
    near_bound = (base[np.newaxis, :] + k).ravel()
    near_bound = np.concatenate([near_bound, -near_bound, np.nextafter(near_bound, np.inf),
                                 np.nextafter(near_bound, -np.inf)])
    poles = (np.pi / 2 + np.arange(-6, 7) * np.pi)[:, np.newaxis]
    offsets = np.array([0.0, 1e-15, 1e-9, 1e-4, 9.9e-3, 1e-2, 1.01e-2, 0.1])
    near_pole = np.concatenate([poles + offsets, poles - offsets], axis=1).ravel()
    rng = np.random.default_rng(5)
    for centres in (near_bound, near_pole):
        # each row is a short monotone run ending on (or starting at) an adversarial value
        steps = np.array([0.0, 1e-7, 1e-3, 0.05, 0.5])
        for run in (centres[:, np.newaxis] - steps, centres[:, np.newaxis] + steps[::-1]):
            _assert_tan_guard_matches(run[:, np.newaxis, :])
            _assert_tan_guard_matches(centres[:, np.newaxis, np.newaxis])
        mixed = rng.choice(centres, size=(200, 3, 6))
        _assert_tan_guard_matches(mixed)


def test_guard_tan_matches_cos_guard_on_non_finite_rows():
    rows = np.array([
        [0.1, 0.2, 0.3],
        [np.nan, 0.2, 0.3],
        [0.1, np.nan, 0.3],
        [0.1, 0.2, np.inf],
        [-np.inf, 0.2, 0.3],
        [np.inf, np.inf, np.inf],
        [1.2, 1.3, 1.56],
        [1.2, 1.3, 1.5608],
    ])
    _assert_tan_guard_matches(rows[:, np.newaxis, :])
    _assert_tan_guard_matches(rows[:, np.newaxis, :1])
    _assert_tan_guard_matches(rows[:, :, np.newaxis])


# --- the sweep's kernels against their full-pass references ------------------


def _residual_outer_lstsq(f, v):
    """_outer_lstsq with raw moments and a pass over the residual: its oracle."""
    fm = f.mean(axis=-1)
    vm = v.mean()
    var = (f * f).mean(axis=-1) - fm * fm
    cov = (f * v).mean(axis=-1) - fm * vm
    with np.errstate(invalid="ignore", divide="ignore"):
        c = np.where(var > 1e-14, cov / np.maximum(var, 1e-300), 0.0)
    d = vm - c * fm
    return c, d, ((v - (c[..., np.newaxis] * f + d[..., np.newaxis])) ** 2).sum(axis=-1)


def _full_pass_guard_away_from_zero(arg, f):
    one_sign = np.sign(arg[..., 0]) == np.sign(arg[..., -1])
    return one_sign & (np.min(np.abs(arg), axis=-1) >= kan_module._RANGE_GUARD)


def _full_pass_guard_tan(arg, f):
    valid = np.abs(arg[..., -1] - arg[..., 0]) < np.pi
    peak = np.max(np.abs(f), axis=-1)
    near = valid & (peak > 99.0) & (peak < 101.0)
    valid &= peak <= 99.0
    valid[near] = np.min(np.abs(np.cos(arg[near])), axis=-1) >= 1e-2
    return valid


def _full_pass_guard_exp(arg, f):
    return np.max(np.abs(arg), axis=-1) <= 50.0


#: Each guard of the library with its full-pass oracle, which reads every
#: sample, and the outer form whose feature it is given.
_FULL_PASS_GUARDS = {
    kan_module._guard_away_from_zero: (_full_pass_guard_away_from_zero, lambda t: 1.0 / t),
    kan_module._guard_tan: (_full_pass_guard_tan, np.tan),
    kan_module._guard_exp: (_full_pass_guard_exp, np.exp),
}


def _reference_sweep(u, v, inner, outer, guard, p1_lo, p1_hi, p2_lo, p2_hi):
    """_sweep with the residual pass, the full-pass guards and fresh arrays at every zoom."""
    steps = kan_module._SWEEP_STEPS
    best = None
    for _ in range(kan_module._SWEEP_ZOOMS):
        p1_grid = np.linspace(p1_lo, p1_hi, steps)
        p2_grid = np.linspace(p2_lo, p2_hi, 1 if p2_lo == p2_hi else steps)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            arg = inner(p1_grid[:, np.newaxis, np.newaxis], p2_grid[np.newaxis, :, np.newaxis], u)
            f = outer(arg)
            c, d, sse = _residual_outer_lstsq(f, v)
            bad = ~np.isfinite(sse)
            if guard is not None:
                bad |= ~_FULL_PASS_GUARDS[guard][0](arg, f)
        sse = np.where(bad, np.inf, sse)
        i1, i2 = np.unravel_index(int(np.argmin(sse)), sse.shape)
        if not np.isfinite(sse[i1, i2]):
            return best
        cand = (float(sse[i1, i2]), float(p1_grid[i1]), float(p2_grid[i2]),
                float(c[i1, i2]), float(d[i1, i2]))
        if best is None or cand[0] < best[0]:
            best = cand
        step1 = (p1_hi - p1_lo) / (steps - 1)
        step2 = (p2_hi - p2_lo) / (steps - 1)
        p1_lo, p1_hi = best[1] - 2 * step1, best[1] + 2 * step1
        p2_lo, p2_hi = best[2] - 2 * step2, best[2] + 2 * step2
    return best


def _ramp_grids(rng, count):
    """Ramp grids a*u + b over ascending samples u, as the sweep builds them.

    Each grid puts its first ramp on a corner of the guards: a zero, a tan
    pole, |cos| = 1e-2, the 1e-3 bound or the exp bound 50, on a sample or
    between two.  The grids also cover zero-width u, spans of pi and more,
    slopes up to 1e4 and one-point p2 axes.
    """
    targets = (0.0, np.pi / 2, -np.pi / 2, 3 * np.pi / 2, np.arccos(1e-2), -np.arccos(1e-2),
               1e-3, -1e-3, 50.0, -50.0)
    for i in range(count):
        n = int(rng.choice([1, 2, 3, 16, 256]))
        lo = rng.uniform(-3.0, 3.0)
        width = 0.0 if i % 7 == 0 else 10.0 ** rng.uniform(-4.0, 1.0)
        u = np.linspace(lo, lo + width, n) if i % 2 else np.sort(rng.uniform(lo, lo + width, n))
        a = rng.uniform(-1.0, 1.0, int(rng.integers(1, 6))) * 10.0 ** rng.uniform(-3.0, 4.0)
        b = rng.uniform(-60.0, 60.0, 1 if i % 3 == 0 else int(rng.integers(2, 6)))
        k = int(rng.integers(n))
        at = u[k] if i % 4 < 2 or k == 0 else 0.5 * (u[k - 1] + u[k])
        b[0] = targets[i % len(targets)] - a[0] * at
        yield kan_module._ramp(a[:, np.newaxis, np.newaxis], b[np.newaxis, :, np.newaxis], u)


def test_guards_read_at_the_ramp_ends_match_the_full_pass():
    rng = np.random.default_rng(24)
    seen = {guard: set() for guard in _FULL_PASS_GUARDS}
    for arg in _ramp_grids(rng, 2400):
        for guard, (reference, outer) in _FULL_PASS_GUARDS.items():
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                f = outer(arg)
                got, want = guard(arg, f), reference(arg, f)
            assert got.shape == want.shape == arg.shape[:-1] and got.dtype == want.dtype
            assert np.array_equal(got, want), (guard.__name__, arg)
            seen[guard].update(np.unique(want).tolist())
    assert all(values == {False, True} for values in seen.values())


def test_centred_moments_match_the_residual_pass():
    rng = np.random.default_rng(17)
    n = kan_module._SNAP_SAMPLES
    for _ in range(300):
        grid = (int(rng.integers(1, 6)), int(rng.integers(1, 6)), 1)
        scale = 10.0 ** rng.uniform(-2.0, 2.0)
        v = scale * (rng.normal(size=n) + rng.uniform(-3.0, 3.0))
        slope = rng.choice([-1.0, 1.0], grid) * rng.uniform(0.5, 3.0, grid)
        offset = scale * rng.choice([-1.0, 1.0], grid) * rng.uniform(0.5, 3.0, grid)
        noise = scale * 10.0 ** rng.uniform(-3.0, -0.5, grid)
        f = slope * v + offset + noise * rng.normal(size=grid[:2] + (n,))
        want_c, want_d, want_sse = _residual_outer_lstsq(f, v)
        centred = f.copy()
        c, d, sse = kan_module._outer_lstsq(centred, v)
        assert np.array_equal(centred, f - f.mean(axis=-1, keepdims=True))
        sst = np.sum((v - v.mean()) ** 2)
        np.testing.assert_allclose(c, want_c, rtol=1e-9, atol=0.0)
        np.testing.assert_allclose(d, want_d, rtol=1e-9, atol=0.0)
        assert np.abs(sse - want_sse).max() <= 1e-9 * sst
        # a constant feature fits with c = 0, whatever its size
        c, d, sse = kan_module._outer_lstsq(np.full((1, 1, n), offset[0, 0, 0]), v)
        assert c[0, 0] == 0.0 and d[0, 0] == v.mean() and abs(sse[0, 0] - sst) <= 1e-9 * sst
        # an exact affine feature leaves no residual, and the SSE is never negative
        c, d, sse = kan_module._outer_lstsq(slope * v + offset, v)
        assert np.all(sse >= 0.0) and sse.max() <= 1e-9 * sst


@pytest.mark.parametrize("index", [i for i, cand in enumerate(COMPLEX_LIBRARY)
                                   if cand.name not in ("constant", "linear")],
                         ids=lambda i: COMPLEX_LIBRARY[i].name)
def test_sweep_returns_the_reference_grid_point_or_its_mirror(monkeypatch, index):
    # The edges of test_every_library_entry_fits_its_own_form_as_captured.
    # The closed-form SSE differs from the residual's in its last bits, so
    # an exact mirror tie, d + c*g(a*u + b) against d - c*g(-a*u - b) for an
    # odd g, may resolve to the other side.
    cand = COMPLEX_LIBRARY[index]
    r = np.random.default_rng(100 + index)
    u = np.linspace(0.0, 1.0, 256)
    v = _ENTRY_FORMS[cand.name](r, u) + 0.01 * r.normal(size=u.size)
    sweeps = []
    sweep = kan_module._sweep
    monkeypatch.setattr(kan_module, "_sweep", lambda *args: sweeps.append(args) or sweep(*args))
    cand.fit(u, v)
    (args,) = sweeps
    inner, outer = args[2], args[3]
    _, p1, p2, c, d = sweep(*args)
    _, q1, q2, qc, qd = _reference_sweep(*args)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        r2 = kan_module._edge_r2(v, c * outer(inner(p1, p2, u)) + d)
        want_r2 = kan_module._edge_r2(v, qc * outer(inner(q1, q2, u)) + qd)
    assert abs(r2 - want_r2) <= 1e-15
    if not np.allclose((p1, p2), (q1, q2), rtol=1e-9, atol=0.0):
        q1, q2, qc = -q1, -q2, -qc
    np.testing.assert_allclose((p1, p2, c, d), (q1, q2, qc, qd), rtol=1e-9, atol=0.0)


def test_sweep_guard_reads_the_feature_before_it_is_centred():
    u = np.linspace(0.0, 1.0, 256)
    seen = []

    def guard(arg, f):
        seen.append(np.array_equal(f, np.exp(arg)))
        return np.ones(arg.shape[:-1], dtype=bool)

    kan_module._sweep(u, np.exp(u), kan_module._ramp, np.exp, guard, -1.0, 1.0, -1.0, 1.0)
    assert seen == [True] * kan_module._SWEEP_ZOOMS


# --- incremental experiment --------------------------------------------------


def _normalized_split(synth):
    from rwtkit.dataset import design_matrix, split_profiles

    dm = design_matrix(synth.profile_set)
    plan = split_profiles(synth.profile_set, ratio=0.7, seed=0)
    xtr, ytr, _ = dm.subset(plan.train).normalized(synth.scaler)
    xte, yte, _ = dm.subset(plan.test).normalized(synth.scaler)
    return xtr, ytr, xte, yte


def test_incremental_experiment_structure(synth_small):
    records = incremental_experiment(
        *_normalized_split(synth_small),
        ordering=(0, 2),
        regime="simple",
        seeds=(0, 1),
        steps=150,
    )
    assert len(records) == 4  # 2 prefixes x 2 seeds
    assert [(r.n_inputs, r.seed) for r in records] == [(1, 0), (1, 1), (2, 0), (2, 1)]
    for r in records:
        assert r.regime == "simple"
        assert r.expression_text
        assert r.r2_train is None or r.r2_train <= 1.0
        assert r.snap_tolerance >= 0.0
        assert r.config["steps"] == 150


# --- records in worker processes ------------------------------------------------


def _force_workers(monkeypatch, n):
    monkeypatch.setattr(parallel, "worker_count", lambda n_tasks: min(n, n_tasks))


def test_worker_count_is_usable_cpus_capped_by_tasks():
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert parallel.worker_count(0) == 1
    assert parallel.worker_count(1) == 1
    assert parallel.worker_count(10_000) == cpus


def test_pooled_records_equal_inline_records(monkeypatch, synth_small):
    split = _normalized_split(synth_small)
    runs = {}
    for workers in (1, 2):
        _force_workers(monkeypatch, workers)
        runs[workers] = incremental_experiment(*split, ordering=(0, 2, 1), seeds=(0, 1),
                                               steps=60)
        assert multiprocessing.active_children() == []
    assert [(r.n_inputs, r.seed) for r in runs[2]] == [
        (1, 0), (1, 1), (2, 0), (2, 1), (3, 0), (3, 1)
    ]
    assert runs[2] == runs[1]


def test_record_needs_no_state_inherited_through_fork(synth_small):
    # Where workers are spawned they start from a fresh import.
    from concurrent.futures import ProcessPoolExecutor

    xtr, ytr, xte, yte = _normalized_split(synth_small)
    config = {"grid_size": 5, "steps": 40, "learning_rate": 0.5, "lam": 1e-3}
    task = (xtr[:, [0, 2]], ytr, xte[:, [0, 2]], yte, "complex", 1, [1, 3], config)
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool:
        spawned = pool.submit(kan_module._fit_record, *task).result(timeout=300)
    assert multiprocessing.active_children() == []
    assert spawned == kan_module._fit_record(*task)


def test_pooled_error_is_the_first_in_task_order(monkeypatch, synth_small):
    # The first record trains and snaps, then fails on a non-finite test
    # row.  The second, widest and so dispatched first, diverges at once on
    # a huge input column.  The inline loop raises the first record's error.
    xtr, ytr, xte, yte = _normalized_split(synth_small)
    xtr, xte = xtr.copy(), xte.copy()
    xtr[:, 1] *= 1e200
    xte[0, 0] = np.nan
    for workers in (1, 2):
        _force_workers(monkeypatch, workers)
        with pytest.raises(NonFiniteInput):
            incremental_experiment(xtr, ytr, xte, yte, ordering=(0, 1), seeds=(0,), steps=300)
        assert multiprocessing.active_children() == []
    with pytest.raises(Diverged, match="at step 0$"):
        incremental_experiment(xtr, ytr, xte, yte, ordering=(1,), seeds=(0,), steps=300)


def _kan_run(out, *extra):
    return cli_main(["kan-run", "--kan-ordering", "1,3", "--kan-seeds", "0,1",
                     "--kan-steps", "60", "--kan-grid", "5",
                     "--out", str(out), *extra])


@pytest.fixture(scope="module")
def ingested_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("pool") / "run"
    assert cli_main(["ingest", "--synthetic", "--synth-profiles", "16", "--synth-samples", "4",
                     "--synth-seed", "3", "--out", str(out)]) == 0
    return out


def test_kan_run_bytes_do_not_depend_on_workers(monkeypatch, ingested_dir, tmp_path):
    outputs = {}
    for workers in (1, 2):
        out = tmp_path / f"workers{workers}"
        shutil.copytree(ingested_dir, out)
        _force_workers(monkeypatch, workers)
        assert _kan_run(out) == 0
        assert multiprocessing.active_children() == []
        outputs[workers] = {name: (out / name).read_bytes() for name in
                            ("kan_records.jsonl", "r2_curve.csv", "kan_run.manifest.json")}
    assert len(outputs[2]["kan_records.jsonl"].splitlines()) == 4
    assert outputs[2] == outputs[1]


def test_spline_network_bytes_do_not_depend_on_blas_threads(tmp_path):
    # Every spline contraction is a BLAS matmul; the thread count OpenBLAS
    # reads at start-up must not move a byte of the model or the records.
    # 240 profiles give about 1000 training rows.
    outputs = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        code = (
            "from rwtkit.cli import main\n"
            f"out = ['--out', {str(out)!r}]\n"
            "assert main(['ingest', '--synthetic', '--synth-profiles', '240'] + out) == 0\n"
            "assert main(['train', '--model', 'kan', '--preset', 'quick'] + out) == 0\n"
            "assert main(['kan-run', '--kan-ordering', '1,3', '--kan-seeds', '0,1',\n"
            "             '--kan-steps', '60', '--kan-grid', '5'] + out) == 0\n"
        )
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": str(Path(kan_module.__file__).parents[1])}
        subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                       timeout=300, check=True)
        outputs[threads] = {name: (out / name).read_bytes() for name in
                            ("model_kan.json", "train_kan.json", "kan_records.jsonl",
                             "r2_curve.csv")}
    assert outputs["2"] == outputs["1"]


def test_kan_run_diverging_in_pool_writes_error_record(monkeypatch, ingested_dir, tmp_path,
                                                         capsys):
    out = tmp_path / "run"
    shutil.copytree(ingested_dir, out)
    _force_workers(monkeypatch, 2)
    capsys.readouterr()
    assert _kan_run(out, "--kan-lr", "1e4", "--kan-steps", "200") == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "Diverged"
    assert "non-finite loss" in record["message"]
    assert not (out / "kan_records.jsonl").exists()
    assert multiprocessing.active_children() == []
