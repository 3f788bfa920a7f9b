"""Spline-edge networks and their distillation into closed-form equations.

Every edge of the network carries its own learnable scalar function: a
cubic B-spline on [0, 1] (see :mod:`rwtkit.bspline`) plus a linear bypass
term that keeps gradients alive outside the spline's span.  A node simply
sums its incoming edge outputs; there are no separate activation functions.
Training is full-batch gradient descent on mean squared error plus an L1
penalty on the mean absolute edge outputs, which starves edges the target
does not need.

After training, each edge function is fitted against a small library of
closed forms.  Beside the constant and the line, the library is a table of
swept forms d + c*outer(inner(p1, p2, u)), each written once: a grid sweep
over the inner parameters (p1, p2) inside a box, ranking each grid point by
the closed-form SSE of its least-squares outer scale c and offset d, from
centred moments with no residual pass, then repeated zooming; entirely
deterministic.
The same inner and outer functions give the sweep's features and the fitted
prediction.  Each distillation regime names its hidden width and its
library in one table.  Candidates are scored by R-squared minus a
per-parameter penalty, rational candidates with a pole inside the edge's
reachable input range are rejected, a candidate that cannot win even at
R-squared 1 is not fitted, and the winning forms are composed layer by
layer into one expression, checked against the network before it is
returned (through :mod:`rwtkit.symbolic`, which writes each unary
function's value, slope and domain rule once, in one table and one check).
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
    "REGIMES",
    "incremental_experiment",
    "SIMPLE_LIBRARY",
    "COMPLEX_LIBRARY",
]

#: Denominators must stay at least this far from zero across an edge's
#: reachable range for a rational candidate to be valid.
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
        return _edge_out(self, 0, batch, self.basis.evaluate(batch)).transpose(1, 0, 2)

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


def _spline(bas: np.ndarray, coefs: np.ndarray) -> np.ndarray:
    """Spline sums (P, n, Q) of a basis (n, P, K) against coefficients (Q, P, K).

    One batched ``np.matmul`` over the input axis: input p's (n, K) basis
    block times its (K, Q) coefficient block.
    """
    return bas.transpose(1, 0, 2) @ coefs.transpose(1, 2, 0)


def _edge_out(net: KanNetwork, l: int, a: np.ndarray, bas: np.ndarray) -> np.ndarray:
    """Edge outputs (P, n, Q) of layer ``l`` from its inputs and their basis.

    The kernel is :func:`_spline`, a batched ``np.matmul`` over the input
    axis, so the outputs come input-major: ``[p, i, q]`` is the edge from
    input p to node q at row i, and a node's value is the sum over axis 0.
    """
    out = _spline(bas, net.coefs[l])
    out += net.bypass[l].T[:, np.newaxis, :] * a.T[:, :, np.newaxis]
    return out


def _propagate(net: KanNetwork, a: np.ndarray, start: int) -> np.ndarray:
    """Prediction from the inputs ``a`` of layer ``start``, values only."""
    for l in range(start, len(net.layout) - 1):
        a = _edge_out(net, l, a, net.basis.evaluate(a)).sum(axis=0)
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
            edge_slope = _spline(dbas, net.coefs[l])  # (P, n, Q), as edge_out
            edge_slope += net.bypass[l].T[:, np.newaxis, :]
        edge_out = _edge_out(net, l, a, bas)
        caches.append({"a": a, "bas": bas, "edge_out": edge_out, "edge_slope": edge_slope})
        a = edge_out.sum(axis=0)               # (n, Q)
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
        loss += lam * float(np.abs(cache["edge_out"]).sum()) / n
    grads_c = []
    grads_b = []
    upstream = (2.0 / n) * err[:, np.newaxis]  # (n, Q) gradient w.r.t. layer output
    for l in range(len(net.layout) - 2, -1, -1):
        cache = caches[l]
        # d loss / d edge_out (P, n, Q) = upstream (every edge feeds its
        # node's sum) plus the sparsity term's own sign contribution
        s = upstream + (lam / n) * np.sign(cache["edge_out"])
        # per input p: (Q, n) @ (n, K) and (Q, n) @ (n, 1), summing over rows
        s_t = s.transpose(0, 2, 1)
        grads_c.append((s_t @ cache["bas"].transpose(1, 0, 2)).transpose(1, 0, 2))
        grads_b.append((s_t @ cache["a"].T[:, :, np.newaxis])[:, :, 0].T)
        if l > 0:
            upstream = (s * cache["edge_slope"]).sum(axis=2).T
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
    if not (steps >= 1 and 0.0 < learning_rate < np.inf and 0.0 <= lam < np.inf):
        raise InvalidParam("need steps >= 1, learning_rate finite and > 0, lam finite and >= 0")
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

    Works from centred moments and centres ``f`` in place (it holds
    f - mean(f) afterwards): c = sum(fc*vc) / sum(fc**2), and the SSE is
    sum(vc**2) - c*sum(fc*vc), floored at 0, with no residual pass.
    """
    fm = f.mean(axis=-1)
    vm = v.mean()
    vc = v - vm
    fc = np.subtract(f, fm[..., np.newaxis], out=f)
    sff = np.einsum("...i,...i->...", fc, fc)
    sfv = fc @ vc
    with np.errstate(invalid="ignore", divide="ignore"):
        c = np.where(sff > 1e-14 * v.size, sfv / np.maximum(sff, 1e-300), 0.0)
    return c, vm - c * fm, np.maximum(vc @ vc - c * sfv, 0.0)


def _sweep(u, v, inner, outer, guard, p1_lo, p1_hi, p2_lo, p2_hi):
    """Best (sse, p1, p2, c, d) for v ~ d + c*outer(inner(p1, p2, u)).

    Grid sweep over (p1, p2) with zooming.  ``inner`` takes the grids
    broadcast to (n1, 1, 1) and (1, n2, 1); ``guard(arg, f)``, if given,
    returns the (n1, n2) mask of admissible grid points from the inner
    values and the feature, and runs before :func:`_outer_lstsq` centres the
    feature in place.  ``u`` must be ascending, so that a ramp's ends bound
    it.  A fixed second parameter (``p2_lo == p2_hi``) gets a one-point
    axis.  Each call has one workspace, into which ``inner`` and ``outer``
    write through ``out=`` at every zoom.  Deterministic.
    """
    n2 = 1 if p2_lo == p2_hi else _SWEEP_STEPS
    work = np.empty((2, _SWEEP_STEPS, n2, u.size))
    best = None
    for _ in range(_SWEEP_ZOOMS):
        p1_grid = np.linspace(p1_lo, p1_hi, _SWEEP_STEPS)
        p2_grid = np.linspace(p2_lo, p2_hi, n2)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            arg = inner(p1_grid[:, np.newaxis, np.newaxis], p2_grid[np.newaxis, :, np.newaxis], u,
                        out=work[0])
            f = outer(arg, out=work[1])
            ok = True if guard is None else guard(arg, f)
            c, d, sse = _outer_lstsq(f, v)
        sse = np.where(ok & np.isfinite(sse), sse, np.inf)
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


def _swept(name, n_params, inner, outer, guard, box, build):
    """Candidate d + c*outer(inner(p1, p2, u)), fitted by :func:`_sweep`.

    ``box(lo, hi, pad)`` gives the first sweep's (p1_lo, p1_hi, p2_lo,
    p2_hi) from the edge's input range [lo, hi], with ``pad`` its width
    floored at 0.1.  A 3-parameter candidate fixes p2 in its box and
    leaves it out of its params (p1, c, d).  ``inner`` and ``outer`` take an
    optional ``out=`` array, the sweep's one workspace; ``guard`` runs
    before the moments centre ``f`` in place, and bounds a ramp by its two
    ends, so ``u`` must be ascending (:func:`kan_snap` samples a linspace).
    """

    def fit(u, v):
        lo, hi = float(u.min()), float(u.max())
        got = _sweep(u, v, inner, outer, guard, *box(lo, hi, max(hi - lo, 0.1)))
        if got is None:
            return None
        _, p1, p2, c, d = got
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            pred = c * outer(inner(p1, p2, u)) + d
        return ((p1, p2, c, d) if n_params == 4 else (p1, c, d)), pred

    return _Candidate(name, n_params, fit, build)


def _guard_away_from_zero(arg, f):
    # arg is monotone along the ascending samples, so its ends bound it: a
    # sign change between them is a zero in between, however far from zero
    # the samples are, and otherwise the end nearer zero is its least |arg|
    lo, hi = arg[..., 0], arg[..., -1]
    return (np.sign(lo) == np.sign(hi)) & (np.minimum(np.abs(lo), np.abs(hi)) >= _RANGE_GUARD)


def _guard_tan(arg, f):
    # |cos| >= 1e-2 is |tan| <= 99.995, so only a peak |tan| near that needs the cos test
    valid = np.abs(arg[..., -1] - arg[..., 0]) < np.pi
    peak = np.maximum(f.max(axis=-1), -f.min(axis=-1))
    near = valid & (peak > 99.0) & (peak < 101.0)
    valid &= peak <= 99.0
    valid[near] = np.min(np.abs(np.cos(arg[near])), axis=-1) >= 1e-2
    return valid


def _guard_exp(arg, f):
    return np.maximum(np.abs(arg[..., 0]), np.abs(arg[..., -1])) <= 50.0


def _fit_constant(u, v):
    mean = float(v.mean())
    return (mean,), np.full_like(v, mean)


def _fit_linear(u, v):
    a, b = np.polyfit(u, v, 1) if len(np.unique(u)) > 1 else (0.0, float(v.mean()))
    return (float(a), float(b)), a * u + b


def _ramp(a, b, u, out=None):
    return np.add(a * u, b, out=out)


def _wide(lo, hi, pad):
    return -10.0, 10.0, -10.0, 10.0


def _called(fn):
    """Build of d + c*fn(a*x + b)."""
    return lambda x, p: _affine(Call(fn, _affine(x, p[0], p[1])), p[2], p[3])


def _build_gauss(x, p):
    k, m, c, d = p
    sq = Pow(simplify(add(x, const(-m))), 2)
    return _affine(Call("exp", simplify(mul(const(-k), sq))), c, d)


def _over(power):
    """Build of d + c/(a*x + b)**power."""

    def build(x, p):
        den = _affine(x, p[0], p[1])
        return simplify(add(Div(const(p[2]), den if power == 1 else Pow(den, power)),
                            const(p[3])))

    return build


# The swept entries in _swept's argument order: name, n_params, inner(p1, p2, u),
# outer(t), guard(arg, f), box(lo, hi, pad) and the expression builder.
_CONSTANT = _Candidate("constant", 1, _fit_constant, lambda x, p: const(p[0]))
_LINEAR = _Candidate("linear", 2, _fit_linear, lambda x, p: _affine(x, p[0], p[1]))
_RECIP = _swept("reciprocal", 4, _ramp, lambda t, out=None: np.divide(1.0, t, out=out),
                _guard_away_from_zero, _wide, _over(1))
_RECIP2 = _swept("reciprocal_sq", 4, _ramp,
                 lambda t, out=None: np.divide(1.0, np.multiply(t, t, out=out), out=out),
                 _guard_away_from_zero, _wide, _over(2))
_SQSHIFT = _swept("sq_shift", 3, lambda a, b, u, out=None: np.subtract(a, u, out=out),
                  np.square, None, lambda lo, hi, pad: (lo - 3 * pad, hi + 3 * pad, 0.0, 0.0),
                  lambda x, p: _affine(Pow(simplify(add(const(p[0]), Neg(x))), 2), p[1], p[2]))
_EXP = _swept("exp", 3, _ramp, np.exp, _guard_exp, lambda lo, hi, pad: (-10.0, 10.0, 0.0, 0.0),
              lambda x, p: _affine(Call("exp", simplify(mul(const(p[0]), x))), p[1], p[2]))
_GAUSS = _swept("gauss", 4,
                lambda k, m, u, out=None: np.multiply(np.multiply(-k, u - m, out=out), u - m,
                                                      out=out),
                np.exp, None, lambda lo, hi, pad: (0.1, 30.0, lo - pad, hi + pad), _build_gauss)
_COS = _swept("cos", 4, _ramp, np.cos, None, _wide, _called("cos"))
_TAN = _swept("tan", 4, _ramp, np.tan, _guard_tan, _wide, _called("tan"))
_TANH = _swept("tanh", 4, _ramp, np.tanh, None, _wide, _called("tanh"))

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
)

#: Each distillation regime's hidden width and snap library.
REGIMES = {"simple": (2, SIMPLE_LIBRARY), "complex": (3, COMPLEX_LIBRARY)}


def _regime(name: str) -> tuple[int, tuple[_Candidate, ...]]:
    """(hidden width, snap library) of a distillation regime."""
    if name not in REGIMES:
        raise InvalidParam(f"regime must be one of {'|'.join(REGIMES)}, got {name!r}")
    return REGIMES[name]


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
    candidates = _regime(library)[1] if isinstance(library, str) else tuple(library)
    if var_indices is None:
        var_indices = tuple(range(1, net.n_inputs + 1))
    if len(var_indices) != net.n_inputs:
        raise InvalidParam(
            f"var_indices has {len(var_indices)} entries for {net.n_inputs} inputs"
        )
    inputs = [x]  # each layer's inputs, from values only, as in _propagate
    for l in range(len(net.layout) - 2):
        inputs.append(_edge_out(net, l, inputs[-1], net.basis.evaluate(inputs[-1])).sum(axis=0))
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
    return (n_inputs, _regime(regime)[0], 1)


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
