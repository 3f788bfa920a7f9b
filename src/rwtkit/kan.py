"""Spline-edge networks and their distillation into closed-form equations.

Every edge of the network carries its own learnable scalar function: a
cubic B-spline on [0, 1] (see :mod:`rwtkit.bspline`) plus a linear bypass
term that keeps gradients alive outside the spline's span.  A node simply
sums its incoming edge outputs; there are no separate activation functions.
Training is full-batch gradient descent on mean squared error plus an L1
penalty on the mean absolute edge outputs, which starves edges the target
does not need.

After training, each edge function is fitted against a small library of
closed forms (grid sweep over the inner affine parameters, exact least
squares for the outer scale and offset, then repeated zooming; entirely
deterministic).  Candidates are scored by R-squared minus a per-parameter
penalty, rational candidates with a pole inside the edge's reachable input
range are rejected, a candidate that cannot win even at R-squared 1 is not
fitted, and the winning forms are composed layer by layer into one
expression, which is checked against the network before it is returned.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import parallel
from .bspline import CubicSplineBasis
from .errors import Diverged, InvalidLayout, InvalidParam, SnapFailure
from .features import model_rows, training_rows
from .metrics import gradient_gap, metrics
from .symbolic import (
    Call,
    Div,
    Expr,
    Neg,
    Pow,
    Var,
    add,
    const,
    eval_expression,
    mul,
    simplify,
    to_text,
)

__all__ = [
    "KanNetwork",
    "EdgeReport",
    "SnapReport",
    "StepRecord",
    "kan_init",
    "kan_train",
    "kan_gradcheck",
    "kan_snap",
    "edge_function",
    "min_abs_edge_output",
    "regime_layout",
    "incremental_experiment",
    "SIMPLE_LIBRARY",
    "COMPLEX_LIBRARY",
]

#: Denominators (and log arguments) must stay at least this far from zero
#: across an edge's reachable range for a rational/log candidate to be valid.
_RANGE_GUARD = 1e-3

#: Grid resolution and zoom rounds for the inner-parameter sweep.
_SWEEP_STEPS = 25
_SWEEP_ZOOMS = 4

#: An edge whose best candidate fits with a lower R-squared is reported failed.
_MIN_EDGE_R2 = 0.9

#: Points at which each edge function is sampled for snapping.
_SNAP_SAMPLES = 256


@dataclass(frozen=True)
class KanNetwork:
    """Edge-spline network state.

    ``layout`` lists node counts input-first and must end in 1.  For a layer
    mapping P inputs to Q outputs, ``coefs[l]`` has shape (Q, P, n_basis)
    and ``bypass[l]`` shape (Q, P).  All layers share one basis spanning
    [0, 1]; inputs outside the span are handled by the bypass extension.
    """

    layout: tuple[int, ...]
    grid_size: int
    coefs: tuple[np.ndarray, ...]
    bypass: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if len(self.layout) < 2 or any(w < 1 for w in self.layout):
            raise InvalidLayout(f"layout must list >= 2 positive widths, got {self.layout}")
        if self.layout[-1] != 1:
            raise InvalidLayout(f"output width must be 1, got {self.layout[-1]}")
        k = self.basis.n_basis
        for l, (p, q) in enumerate(zip(self.layout, self.layout[1:])):
            if self.coefs[l].shape != (q, p, k) or self.bypass[l].shape != (q, p):
                raise InvalidLayout(f"layer {l} arrays do not match layout {self.layout}")

    @property
    def basis(self) -> CubicSplineBasis:
        return CubicSplineBasis(self.grid_size)

    @property
    def n_inputs(self) -> int:
        return self.layout[0]

    def forward(self, x) -> np.ndarray:
        return _propagate(self, model_rows(x, self.n_inputs), start=0)

    predict = forward

    def input_terms(self, x) -> np.ndarray:
        """First-layer edge outputs per input, shape (n, n_inputs, width).

        A node sums its incoming edges, so ``head`` applied to the sum over
        axis 1 is the prediction.
        """
        batch = model_rows(x, self.n_inputs)
        return _edge_out(self, 0, batch, self.basis.evaluate(batch)).transpose(0, 2, 1)

    def head(self, s: np.ndarray) -> np.ndarray:
        """Prediction from first-layer node values (n, width)."""
        return _propagate(self, s, start=1)


def kan_init(
    layout,
    grid_size: int = 8,
    seed: int = 0,
) -> KanNetwork:
    """Fresh network.

    Bypass weights start near 1/fan_in (so each node initially averages its
    inputs, keeping hidden values inside the spline span) and spline
    coefficients start as small noise; both get mild jitter from the seeded
    stream so symmetric edges can differentiate.
    """
    layout = tuple(int(v) for v in layout)
    basis = CubicSplineBasis(grid_size)  # validates grid_size
    rng = np.random.default_rng(seed)
    coefs = []
    bypass = []
    for p, q in zip(layout, layout[1:]):
        coefs.append(rng.normal(0.0, 0.1, size=(q, p, basis.n_basis)) / np.sqrt(basis.n_basis))
        bypass.append((1.0 + 0.2 * rng.normal(size=(q, p))) / p)
    return KanNetwork(
        layout=layout, grid_size=grid_size, coefs=tuple(coefs), bypass=tuple(bypass)
    )


def _edge_out(net: KanNetwork, l: int, a: np.ndarray, bas: np.ndarray) -> np.ndarray:
    """Edge outputs (n, Q, P) of layer ``l`` from its inputs and their basis."""
    spline = np.einsum("npk,qpk->nqp", bas, net.coefs[l])
    return spline + net.bypass[l][np.newaxis, :, :] * a[:, np.newaxis, :]


def _propagate(net: KanNetwork, a: np.ndarray, start: int) -> np.ndarray:
    """Prediction from the inputs ``a`` of layer ``start``, values only."""
    for l in range(start, len(net.layout) - 1):
        a = _edge_out(net, l, a, net.basis.evaluate(a)).sum(axis=2)
    return a[:, 0]


def _forward_full(net: KanNetwork, x: np.ndarray, bas0: np.ndarray | None = None):
    """Prediction plus per-layer caches for backprop.

    ``bas0`` is the first layer's basis at ``x`` when the caller already has
    it.  The first layer's edge slopes are never consumed (backprop stops at
    the inputs), so they are left out of its cache.
    """
    basis = net.basis
    caches = []
    a = x
    for l in range(len(net.layout) - 1):
        if l == 0:
            bas = basis.evaluate(a) if bas0 is None else bas0  # (n, P, K)
            edge_slope = None
        else:
            bas, dbas = basis.evaluate_with_derivative(a)
            dspline = np.einsum("npk,qpk->nqp", dbas, net.coefs[l])
            edge_slope = dspline + net.bypass[l][np.newaxis, :, :]
        edge_out = _edge_out(net, l, a, bas)
        caches.append({"a": a, "bas": bas, "edge_out": edge_out, "edge_slope": edge_slope})
        a = edge_out.sum(axis=2)               # (n, Q)
    return a[:, 0], caches


def _loss_and_grads(net: KanNetwork, x: np.ndarray, y: np.ndarray, lam: float,
                    bas0: np.ndarray | None = None):
    """Total loss and parameter gradients.

    Loss is mean squared error plus ``lam`` times the sum over edges of the
    mean absolute edge output.  ``bas0`` as for :func:`_forward_full`.
    """
    n = len(x)
    pred, caches = _forward_full(net, x, bas0)
    err = pred - y
    loss = float(np.mean(err * err))
    for cache in caches:
        loss += lam * float(np.mean(np.abs(cache["edge_out"]), axis=0).sum())
    grads_c = []
    grads_b = []
    upstream = (2.0 / n) * err[:, np.newaxis]  # (n, Q) gradient w.r.t. layer output
    for l in range(len(net.layout) - 2, -1, -1):
        cache = caches[l]
        # d loss / d edge_out = upstream (every edge feeds its node's sum)
        # plus the sparsity term's own sign contribution
        s = upstream[:, :, np.newaxis] + (lam / n) * np.sign(cache["edge_out"])
        grads_c.append(np.einsum("nqp,npk->qpk", s, cache["bas"]))
        grads_b.append(np.einsum("nqp,np->qp", s, cache["a"]))
        if l > 0:
            upstream = np.einsum("nqp,nqp->np", s, cache["edge_slope"])
    grads_c.reverse()
    grads_b.reverse()
    return loss, grads_c, grads_b


def kan_train(
    net: KanNetwork,
    x,
    y,
    steps: int = 2000,
    learning_rate: float = 0.5,
    lam: float = 1e-3,
) -> tuple[KanNetwork, tuple[float, ...]]:
    """Full-batch gradient descent; returns (new network, loss per step).

    The loop draws no randomness.  A non-finite loss raises
    :class:`Diverged`.  The inputs never change, so the first layer's basis
    is evaluated once for all steps.
    """
    x, y = training_rows(x, y, net.n_inputs)
    if steps < 1 or learning_rate <= 0.0 or lam < 0.0:
        raise InvalidParam("need steps >= 1, learning_rate > 0, lam >= 0")
    coefs = [c.copy() for c in net.coefs]
    bypass = [b.copy() for b in net.bypass]
    current = replace(net, coefs=tuple(coefs), bypass=tuple(bypass))
    bas0 = current.basis.evaluate(x)
    trace = []
    for step in range(steps):
        with np.errstate(over="ignore", invalid="ignore"):
            loss, gc, gb = _loss_and_grads(current, x, y, lam, bas0)
        if not np.isfinite(loss):
            raise Diverged(f"non-finite loss at step {step}")
        trace.append(loss)
        for l in range(len(coefs)):
            coefs[l] -= learning_rate * gc[l]
            bypass[l] -= learning_rate * gb[l]
    return current, tuple(trace)


def kan_gradcheck(net: KanNetwork, x, y, lam: float = 1e-3, eps: float = 1e-5) -> float:
    """Analytic gradients against central differences on the full loss.

    Returns ``max |g_an - g_fd| / max(|g_an| + |g_fd|, eps)``.  The
    denominator floor is the probe step itself: a true gradient smaller than
    ``eps`` is below what central differences can resolve (their roundoff is
    about ``machine_eps * loss / eps``), so components at that scale compare
    absolutely rather than amplifying noise.  The L1 penalty has a kink at
    zero edge output, so callers should check :func:`min_abs_edge_output`
    is comfortably above ``eps`` first.
    """
    x, y = training_rows(x, y, net.n_inputs)
    coefs = [c.copy() for c in net.coefs]
    bypass = [b.copy() for b in net.bypass]
    probe = replace(net, coefs=tuple(coefs), bypass=tuple(bypass))
    _, gc, gb = _loss_and_grads(probe, x, y, lam)
    return gradient_gap(coefs + bypass, lambda: _loss_and_grads(probe, x, y, lam)[0],
                        gc + gb, eps)


def min_abs_edge_output(net: KanNetwork, x) -> float:
    """Smallest |edge output| over all edges and rows; gradcheck conditioning."""
    _, caches = _forward_full(net, model_rows(x, net.n_inputs))
    return min(float(np.min(np.abs(c["edge_out"]))) for c in caches)


# --- closed-form candidates -------------------------------------------------


@dataclass(frozen=True)
class _Candidate:
    """One library entry: a parametric scalar form and its expression builder."""

    name: str
    n_params: int
    fit: callable = field(compare=False)
    build: callable = field(compare=False)


def _affine(child: Expr, a: float, b: float) -> Expr:
    return simplify(add(mul(const(a), child), const(b)))


def _outer_lstsq(f: np.ndarray, v: np.ndarray):
    """Closed-form (c, d, sse) for v ~ c*f + d along the last axis.

    Every product of ``f``'s size goes through one scratch array.
    """
    fm = f.mean(axis=-1)
    vm = v.mean()
    tmp = np.multiply(f, f)
    var = tmp.mean(axis=-1) - fm * fm
    cov = np.multiply(f, v, out=tmp).mean(axis=-1) - fm * vm
    with np.errstate(invalid="ignore", divide="ignore"):
        c = np.where(var > 1e-14, cov / np.maximum(var, 1e-300), 0.0)
    d = vm - c * fm
    np.multiply(c[..., np.newaxis], f, out=tmp)
    np.add(tmp, d[..., np.newaxis], out=tmp)
    np.subtract(v, tmp, out=tmp)
    return c, d, np.multiply(tmp, tmp, out=tmp).sum(axis=-1)


def _sweep(u, v, make_feature, p1_lo, p1_hi, p2_lo, p2_hi):
    """Best (p1, p2, c, d, sse) by grid sweep with zooming.

    ``make_feature(p1_grid, p2_grid, u)`` returns the feature tensor
    (n1, n2, n) and a validity mask (n1, n2) or None.  A fixed second
    parameter (``p2_lo == p2_hi``) gets a one-point axis.  Deterministic.
    """
    best = None
    for _ in range(_SWEEP_ZOOMS):
        p1_grid = np.linspace(p1_lo, p1_hi, _SWEEP_STEPS)
        p2_grid = np.linspace(p2_lo, p2_hi, 1 if p2_lo == p2_hi else _SWEEP_STEPS)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            f, valid = make_feature(p1_grid, p2_grid, u)
            c, d, sse = _outer_lstsq(f, v)
        bad = ~np.isfinite(sse)
        if valid is not None:
            bad |= ~valid
        sse = np.where(bad, np.inf, sse)
        flat = int(np.argmin(sse))
        i1, i2 = np.unravel_index(flat, sse.shape)
        if not np.isfinite(sse[i1, i2]):
            return best
        cand = (float(sse[i1, i2]), float(p1_grid[i1]), float(p2_grid[i2]),
                float(c[i1, i2]), float(d[i1, i2]))
        if best is None or cand[0] < best[0]:
            best = cand
        step1 = (p1_hi - p1_lo) / (_SWEEP_STEPS - 1)
        step2 = (p2_hi - p2_lo) / (_SWEEP_STEPS - 1)
        p1_lo, p1_hi = best[1] - 2 * step1, best[1] + 2 * step1
        p2_lo, p2_hi = best[2] - 2 * step2, best[2] + 2 * step2
    return best


def _affine_feature(transform, guard=None):
    def make(a_grid, b_grid, u):
        arg = a_grid[:, np.newaxis, np.newaxis] * u + b_grid[np.newaxis, :, np.newaxis]
        f = transform(arg)
        return f, None if guard is None else guard(arg, f)
    return make


def _guard_away_from_zero(arg, f):
    # arg is monotone along the sorted grid, so a sign change between its
    # ends is a zero in between, however far from zero the grid points are
    one_sign = np.sign(arg[..., 0]) == np.sign(arg[..., -1])
    return one_sign & (np.min(np.abs(arg), axis=-1) >= _RANGE_GUARD)


def _guard_positive(arg, f):
    return np.min(arg, axis=-1) >= _RANGE_GUARD


def _guard_tan(arg, f):
    # |cos| >= 1e-2 is |tan| <= 99.995, so only a peak |tan| near that needs the cos test
    valid = np.abs(arg[..., -1] - arg[..., 0]) < np.pi
    peak = np.max(np.abs(f), axis=-1)
    near = valid & (peak > 99.0) & (peak < 101.0)
    valid &= peak <= 99.0
    valid[near] = np.min(np.abs(np.cos(arg[near])), axis=-1) >= 1e-2
    return valid


def _fit_constant(u, v):
    mean = float(v.mean())
    return (mean,), np.full_like(v, mean)


def _build_constant(child, params):
    return const(params[0])


def _fit_linear(u, v):
    a, b = np.polyfit(u, v, 1) if len(np.unique(u)) > 1 else (0.0, float(v.mean()))
    pred = a * u + b
    return (float(a), float(b)), pred


def _build_linear(child, params):
    a, b = params
    return _affine(child, a, b)


def _wrapped_fit(transform, guard):
    """Fit of d + c*transform(a*u + b) by sweeping (a, b)."""

    def fit(u, v):
        got = _sweep(u, v, _affine_feature(transform, guard), -10.0, 10.0, -10.0, 10.0)
        if got is None:
            return None
        _, a, b, c, d = got
        with np.errstate(over="ignore", divide="ignore"):
            pred = c * transform(a * u + b) + d
        return (a, b, c, d), pred

    return fit


def _make_wrapped(name, transform, guard, build_core):
    """Candidate d + c*g(a*u + b) fitted by sweeping (a, b)."""

    def build(child, params):
        a, b, c, d = params
        return _affine(build_core(_affine(child, a, b)), c, d)

    fit = _wrapped_fit(transform, guard)
    return _Candidate(name=name, n_params=4, fit=fit, build=build)


def _guard_exp(arg, f):
    return np.max(np.abs(arg), axis=-1) <= 50.0


def _fit_exp(u, v):
    got = _sweep(u, v, _affine_feature(np.exp, _guard_exp), -10.0, 10.0, 0.0, 0.0)
    if got is None:
        return None
    _, a, _, c, d = got
    return (a, c, d), c * np.exp(a * u) + d


def _build_exp(child, params):
    a, c, d = params
    return _affine(Call("exp", simplify(mul(const(a), child))), c, d)


def _fit_gauss(u, v):
    lo, hi = float(u.min()), float(u.max())
    pad = max(hi - lo, 0.1)

    def make(k_grid, m_grid, u_arr):
        diff = u_arr - m_grid[np.newaxis, :, np.newaxis]
        arg = -k_grid[:, np.newaxis, np.newaxis] * diff * diff
        return np.exp(arg), None

    got = _sweep(u, v, make, 0.1, 30.0, lo - pad, hi + pad)
    if got is None:
        return None
    _, k, m, c, d = got
    return (k, m, c, d), c * np.exp(-k * (u - m) ** 2) + d


def _build_gauss(child, params):
    k, m, c, d = params
    sq = Pow(simplify(add(child, const(-m))), 2)
    return _affine(Call("exp", simplify(mul(const(-k), sq))), c, d)


def _fit_sqshift(u, v):
    lo, hi = float(u.min()), float(u.max())
    pad = max(hi - lo, 0.1)

    def make(a_grid, b_grid, u_arr):
        diff = a_grid[:, np.newaxis, np.newaxis] - u_arr
        return diff * diff, None

    got = _sweep(u, v, make, lo - 3 * pad, hi + 3 * pad, 0.0, 0.0)
    if got is None:
        return None
    _, a, _, c, d = got
    return (a, c, d), c * (a - u) ** 2 + d


def _build_sqshift(child, params):
    a, c, d = params
    return _affine(Pow(simplify(add(const(a), Neg(child))), 2), c, d)


def _make_reciprocal(name, power):
    """Candidate d + c/(a*u + b)**power with the pole kept out of range."""
    transform = (lambda t: 1.0 / t) if power == 1 else (lambda t: 1.0 / (t * t))

    def build(child, params):
        a, b, c, d = params
        inner = _affine(child, a, b)
        den = inner if power == 1 else Pow(inner, 2)
        return simplify(add(Div(const(c), den), const(d)))

    fit = _wrapped_fit(transform, _guard_away_from_zero)
    return _Candidate(name=name, n_params=4, fit=fit, build=build)


_CONSTANT = _Candidate("constant", 1, _fit_constant, _build_constant)
_LINEAR = _Candidate("linear", 2, _fit_linear, _build_linear)
_RECIP = _make_reciprocal("reciprocal", 1)
_RECIP2 = _make_reciprocal("reciprocal_sq", 2)
_COS = _make_wrapped("cos", np.cos, None, lambda inner: Call("cos", inner))
_TAN = _make_wrapped("tan", np.tan, _guard_tan, lambda inner: Call("tan", inner))
_TANH = _make_wrapped("tanh", np.tanh, None, lambda inner: Call("tanh", inner))
_LOG = _make_wrapped("log", np.log, _guard_positive, lambda inner: Call("log", inner))
_EXP = _Candidate("exp", 3, _fit_exp, _build_exp)
_GAUSS = _Candidate("gauss", 4, _fit_gauss, _build_gauss)
_SQSHIFT = _Candidate("sq_shift", 3, _fit_sqshift, _build_sqshift)

#: Candidate order is the tie-break order: earlier wins on equal score.
SIMPLE_LIBRARY: tuple[_Candidate, ...] = (_CONSTANT, _LINEAR, _RECIP, _RECIP2)
COMPLEX_LIBRARY: tuple[_Candidate, ...] = (
    _CONSTANT,
    _LINEAR,
    _RECIP,
    _RECIP2,
    _SQSHIFT,
    _EXP,
    _GAUSS,
    _COS,
    _TANH,
    _TAN,
    _LOG,
)


@dataclass(frozen=True)
class EdgeReport:
    """How one edge was snapped."""

    layer: int
    out_index: int
    in_index: int
    candidate: str
    params: tuple[float, ...]
    r2: float
    u_lo: float
    u_hi: float
    failed: bool


@dataclass(frozen=True)
class SnapReport:
    """Distillation summary: per-edge fits plus the self-consistency bound.

    ``tolerance`` is the max absolute gap between the composed expression
    and the network over the snap sample (checked, not assumed).
    """

    edges: tuple[EdgeReport, ...]
    tolerance: float

    @property
    def n_failed(self) -> int:
        return sum(1 for e in self.edges if e.failed)


def _edge_r2(v: np.ndarray, pred: np.ndarray) -> float:
    sst = float(np.sum((v - v.mean()) ** 2))
    sse = float(np.sum((v - pred) ** 2))
    if sst < 1e-14:
        return 1.0 if sse <= 1e-10 else 0.0
    return 1.0 - sse / sst


def edge_function(net: KanNetwork, layer: int, out_index: int, in_index: int, u) -> np.ndarray:
    """One edge's univariate function (spline plus bypass) at ``u``."""
    u = np.asarray(u, dtype=float)
    bas = net.basis.evaluate(u)
    return (
        bas @ net.coefs[layer][out_index, in_index]
        + net.bypass[layer][out_index, in_index] * u
    )


def _resolve_library(library) -> tuple[_Candidate, ...]:
    if library == "simple":
        return SIMPLE_LIBRARY
    if library == "complex":
        return COMPLEX_LIBRARY
    return tuple(library)


def kan_snap(
    net: KanNetwork,
    x_sample,
    library="simple",
    var_indices=None,
    param_penalty: float = 0.01,
) -> tuple[Expr, SnapReport]:
    """Distil the network into one closed-form expression.

    Every edge function is sampled on a dense uniform grid
    (:data:`_SNAP_SAMPLES` points) over its reachable range — the span of values it actually sees
    on ``x_sample`` — and fitted against the library; the best candidate by
    ``r2 - param_penalty * n_params`` wins, earlier library entries winning
    ties.  Edge R-squared never exceeds 1, so a candidate is not fitted at
    all when the best score so far is at least ``1 - param_penalty *
    n_params``; fitting it could not change the result.  Edges whose best
    R-squared falls below :data:`_MIN_EDGE_R2` are recorded as failed and
    warned about; the expression is still emitted.

    ``var_indices`` maps input columns to canonical predictor numbers
    (1-based); by default column p is ``x<p+1>``.  Returns the composed,
    simplified expression and a :class:`SnapReport` whose tolerance is the
    max absolute disagreement with the network over ``x_sample``.
    """
    x = model_rows(x_sample, net.n_inputs)
    candidates = _resolve_library(library)
    if var_indices is None:
        var_indices = tuple(range(1, net.n_inputs + 1))
    if len(var_indices) != net.n_inputs:
        raise InvalidParam(
            f"var_indices has {len(var_indices)} entries for {net.n_inputs} inputs"
        )
    inputs = [x]  # each layer's inputs, from values only, as in _propagate
    for l in range(len(net.layout) - 2):
        inputs.append(_edge_out(net, l, inputs[-1], net.basis.evaluate(inputs[-1])).sum(axis=2))
    exprs: list[Expr] = [Var(int(i)) for i in var_indices]
    reports: list[EdgeReport] = []
    for l, a in enumerate(inputs):
        q_width = net.layout[l + 1]
        p_width = net.layout[l]
        next_exprs: list[Expr] = []
        for qi in range(q_width):
            terms: list[Expr] = []
            for pi in range(p_width):
                reached = a[:, pi]
                u = np.linspace(float(reached.min()), float(reached.max()), _SNAP_SAMPLES)
                v = edge_function(net, l, qi, pi, u)
                best = None
                for cand in candidates:
                    if best is not None and best[0] >= 1.0 - param_penalty * cand.n_params:
                        continue
                    got = cand.fit(u, v)
                    if got is None:
                        continue
                    params, pred = got
                    r2 = _edge_r2(v, pred)
                    score = r2 - param_penalty * cand.n_params
                    if best is None or score > best[0]:
                        best = (score, cand, params, r2)
                if best is None:
                    raise SnapFailure(
                        f"no admissible candidate for edge layer {l} ({qi},{pi})"
                    )
                _, cand, params, r2 = best
                failed = r2 < _MIN_EDGE_R2
                if failed:
                    warnings.warn(
                        f"edge layer {l} ({qi},{pi}): best candidate {cand.name} "
                        f"fits with r2 {r2:.4f}, below {_MIN_EDGE_R2}",
                        stacklevel=2,
                    )
                reports.append(
                    EdgeReport(
                        layer=l,
                        out_index=qi,
                        in_index=pi,
                        candidate=cand.name,
                        params=tuple(float(p) for p in params),
                        r2=r2,
                        u_lo=float(u.min()),
                        u_hi=float(u.max()),
                        failed=failed,
                    )
                )
                terms.append(cand.build(exprs[pi], params))
            next_exprs.append(simplify(add(*terms)))
        exprs = next_exprs
    expression = simplify(exprs[0])
    composed = eval_expression(expression, {int(i): x[:, p] for p, i in enumerate(var_indices)})
    network = net.forward(x)
    tolerance = float(np.max(np.abs(np.asarray(composed) - network)))
    return expression, SnapReport(edges=tuple(reports), tolerance=tolerance)


def regime_layout(regime: str, n_inputs: int) -> tuple[int, ...]:
    """Network layout used for a distillation regime."""
    if regime == "simple":
        return (n_inputs, 2, 1)
    if regime == "complex":
        return (n_inputs, 3, 1)
    raise InvalidParam(f"regime must be 'simple' or 'complex', got {regime!r}")


@dataclass(frozen=True)
class StepRecord:
    """One (input prefix, seed) run of the incremental experiment."""

    n_inputs: int
    regime: str
    seed: int
    r2_train: float | None
    r2_test: float | None
    expression_text: str
    n_failed_edges: int
    snap_tolerance: float
    config: dict


def _fit_record(xt, y_train, xv, y_test, regime, seed, var_indices, config) -> StepRecord:
    """One (prefix, seed) record: train from scratch, snap, score.

    Everything it uses arrives as an argument, so it gives the same record
    inline and in a worker process.
    """
    net = kan_init(regime_layout(regime, xt.shape[1]), grid_size=config["grid_size"], seed=seed)
    net, _ = kan_train(net, xt, y_train, steps=config["steps"],
                       learning_rate=config["learning_rate"], lam=config["lam"])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        expr, report = kan_snap(net, xt, library=regime, var_indices=var_indices)
    return StepRecord(
        n_inputs=xt.shape[1],
        regime=regime,
        seed=int(seed),
        r2_train=metrics(y_train, net.forward(xt)).r2,
        r2_test=metrics(y_test, net.forward(xv)).r2,
        expression_text=to_text(expr),
        n_failed_edges=report.n_failed,
        snap_tolerance=report.tolerance,
        config=dict(config),
    )


def incremental_experiment(
    x_train,
    y_train,
    x_test,
    y_test,
    ordering,
    regime: str = "simple",
    seeds=(0, 1, 2),
    grid_size: int = 8,
    steps: int = 1500,
    learning_rate: float = 0.5,
    lam: float = 1e-3,
) -> tuple[StepRecord, ...]:
    """Grow the input set one predictor at a time and refit.

    ``ordering`` lists 0-based columns of the full matrices in the order
    they should be added; prefix k uses the first k of them with the
    ``regime`` layout.  Every (prefix, seed) pair trains from scratch, is
    scored on train and test, and is snapped to an expression in which
    column c is the variable ``x<c+1>``.
    The pairs are independent, so they run one per usable CPU in worker
    processes (inline when that is one); the records do not depend on how
    many ran at once.
    """
    x_train = np.asarray(x_train, dtype=float)
    x_test = np.asarray(x_test, dtype=float)
    y_train = np.asarray(y_train, dtype=float).ravel()
    y_test = np.asarray(y_test, dtype=float).ravel()
    ordering = [int(c) for c in ordering]
    var_indices = [c + 1 for c in ordering]
    config = {
        "grid_size": grid_size,
        "steps": steps,
        "learning_rate": learning_rate,
        "lam": lam,
    }
    tasks = []
    for k in range(1, len(ordering) + 1):
        cols = ordering[:k]
        xt, xv = x_train[:, cols], x_test[:, cols]
        tasks.extend((xt, y_train, xv, y_test, regime, seed, var_indices[:k], config)
                     for seed in seeds)
    # The widest prefix takes longest, so it is dispatched first.
    return parallel.run_tasks(_fit_record, tasks, key=lambda task: -task[0].shape[1])
