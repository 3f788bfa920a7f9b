"""Spans around calls into rwtkit's public functions, installed from outside.

The CLI imports library names directly (``from .trees import rf_fit``), so a
wrapper goes where the caller looks the name up: on ``rwtkit.cli`` for the
commands' own calls, on ``rwtkit.kan`` for the calls the incremental
experiment makes, and on the classes for methods.  Nothing is patched until
:meth:`Tracer.install`, and :meth:`Tracer.uninstall` puts every original back,
so untraced rounds run the program's own functions.

Spans stay in memory; :func:`layer_metrics` turns them into the per-layer
metrics when the workload ends.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from rwtkit import cli, kan, shapley
from rwtkit.bspline import CubicSplineBasis
from rwtkit.kan import KanNetwork
from rwtkit.mlp import MlpModel
from rwtkit.trees import BoostedEnsemble, DecisionTree, Forest

#: Model class -> the CLI's model name.
KIND = {DecisionTree: "cart", Forest: "rf", BoostedEnsemble: "gbm", MlpModel: "mlp", KanNetwork: "kan"}
TREE_KINDS = ("cart", "rf", "gbm")
MODEL_KINDS = ("cart", "rf", "gbm", "mlp", "kan")
EXPLAIN_KINDS = ("rf", "gbm", "mlp", "kan")


def kind_of(model) -> str:
    return KIND[type(model)]


def _rows(x) -> int:
    shape = getattr(x, "shape", None)
    return 1 if not shape or len(shape) == 1 else int(shape[0])


def _nodes(model) -> int:
    trees = getattr(model, "trees", (model,))
    return sum(len(t) for t in trees)


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    phase: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while installed; ``phase`` tags each span's unit of work."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.phase = "setup"
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> Span:
        span = Span(len(self.spans), name, self._stack[-1] if self._stack else None,
                    self.phase, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _open_names(self) -> set[str]:
        return {self.spans[i].name for i in self._stack}

    def _wrap(self, owner, attr: str, name, count=None, outermost: bool = False) -> None:
        """Patch ``owner.attr`` with a timed wrapper.

        ``name`` is a span name or a function of the call's arguments giving
        one; ``count(args, kwargs, result)`` returns counts for the span.
        ``outermost`` skips spans nested in a span of the same name, so an
        ensemble's predict is not counted again for each of its trees.
        """
        original = owner.__dict__[attr]
        tracer = self

        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            if outermost and label in tracer._open_names():
                return original(*args, **kwargs)
            span = tracer.open(label)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(span)
            if count is not None:
                span.counts.update(count(args, kwargs, result))
            return result

        self._originals.append((owner, attr, original))
        setattr(owner, attr, traced)

    # -- installation ------------------------------------------------------

    @property
    def installed(self) -> bool:
        return bool(self._originals)

    def install(self) -> None:
        if self.installed:
            return
        w = self._wrap
        w(cli, "design_matrix", "dataset.design_matrix", lambda a, k, r: {"rows": len(r)})
        for fn, model in (("tree_fit", "cart"), ("rf_fit", "rf"), ("gbm_fit", "gbm")):
            w(cli, fn, f"trees.fit.{model}", lambda a, k, r: {"nodes": _nodes(r)})
        for cls in (DecisionTree, Forest, BoostedEnsemble):
            w(cls, "predict", "trees.predict", lambda a, k, r: {"rows": _rows(a[1])}, outermost=True)
        w(DecisionTree, "leaf_boxes", "trees.leaf_boxes")
        w(cli, "mlp_train", "mlp.train", lambda a, k, r: {"epochs": k["epochs"]})
        w(MlpModel, "predict", "mlp.predict", lambda a, k, r: {"rows": _rows(a[1])})
        w(MlpModel, "head", "mlp.head", lambda a, k, r: {"rows": _rows(a[1])})
        for attr in ("evaluate", "evaluate_with_derivative"):
            w(CubicSplineBasis, attr, f"bspline.{attr}",
              lambda a, k, r: {"values": int(getattr(a[1], "size", 1)) * a[0].n_basis})
        for owner in (cli, kan):
            w(owner, "kan_train", "kan.train", lambda a, k, r: {"steps": k["steps"]})
        w(kan, "kan_snap", "kan.snap", lambda a, k, r: {"edges": len(r[1].edges)})
        w(KanNetwork, "predict", "kan.predict", lambda a, k, r: {"rows": _rows(a[1])})
        w(KanNetwork, "head", "kan.head", lambda a, k, r: {"rows": _rows(a[1])})
        w(kan, "simplify", "symbolic.simplify", outermost=True)
        w(kan, "eval_expression", "symbolic.eval")
        w(shapley, "shap_exact", lambda a, k: f"shapley.exact.{kind_of(a[0])}")
        w(cli, "save_model", "serialize.save",
          lambda a, k, r: {"kind": kind_of(a[0]), "kb": Path(a[1]).stat().st_size / 1024})
        w(cli, "load_model", "serialize.load")

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)


# -- per-layer metrics --------------------------------------------------------


def _per_unit(spans: list[Span], value, n_rounds: int, n_setups: int) -> float:
    """Sum of ``value(span)`` per traced round, or per set-up when the layer
    only runs during set-up; 0 when it does not run at all."""
    in_rounds = [s for s in spans if s.phase == "round"]
    if in_rounds:
        return sum(value(s) for s in in_rounds) / n_rounds
    in_setup = [s for s in spans if s.phase == "setup"]
    if in_setup:
        return sum(value(s) for s in in_setup) / n_setups
    return 0.0


def _ratio(spans: list[Span], key: str, scale: float) -> float:
    work = sum(s.counts[key] for s in spans)
    return scale * sum(s.seconds for s in spans) / work if work else 0.0


def layer_metrics(tracer: Tracer, n_rounds: int, n_setups: int) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as ``name -> (value, unit)``.

    Times and counts are per traced round of the measured phase, or per
    set-up for layers that run only in set-up; ``trees.nodes`` is per fitted
    model and ``dataset.rows`` the largest design matrix built.
    """
    spans = [s for s in tracer.spans if s.phase in ("setup", "round")]
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def named(name: str) -> list[Span]:
        return by_name.get(name, [])

    def secs(name: str) -> float:
        return _per_unit(named(name), lambda s: s.seconds, n_rounds, n_setups)

    def total(name: str, key: str) -> float:
        return _per_unit(named(name), lambda s: s.counts[key], n_rounds, n_setups)

    out: dict[str, tuple[float, str]] = {}
    out["cli.ingest_s"] = (secs("cli.ingest"), "s")
    for m in MODEL_KINDS:
        out[f"cli.train_s.{m}"] = (secs(f"cli.train.{m}"), "s")
    out["cli.evaluate_s"] = (secs("cli.evaluate"), "s")
    for m in EXPLAIN_KINDS:
        out[f"cli.explain_s.{m}"] = (secs(f"cli.explain.{m}"), "s")
    out["cli.kan_run_s"] = (secs("cli.kan-run"), "s")

    out["dataset.design_matrix_s"] = (secs("dataset.design_matrix"), "s")
    out["dataset.rows"] = (float(max((s.counts["rows"] for s in named("dataset.design_matrix")),
                                     default=0)), "count")

    for m in TREE_KINDS:
        out[f"trees.fit_s.{m}"] = (secs(f"trees.fit.{m}"), "s")
    for m in TREE_KINDS:
        fits = named(f"trees.fit.{m}")
        out[f"trees.nodes.{m}"] = (statistics.median(s.counts["nodes"] for s in fits)
                                   if fits else 0.0, "count")
    for m in ("rf", "gbm"):
        out[f"trees.us_per_node.{m}"] = (_ratio(named(f"trees.fit.{m}"), "nodes", 1e6), "us")
    out["trees.predict_s"] = (secs("trees.predict"), "s")
    out["trees.leaf_boxes_s"] = (secs("trees.leaf_boxes"), "s")

    out["mlp.train_s"] = (secs("mlp.train"), "s")
    out["mlp.ms_per_epoch"] = (_ratio(named("mlp.train"), "epochs", 1e3), "ms")
    out["mlp.head_s"] = (secs("mlp.head"), "s")
    out["mlp.head_rows"] = (total("mlp.head", "rows"), "count")

    out["bspline.evaluate_s"] = (secs("bspline.evaluate"), "s")
    out["bspline.evaluate_calls"] = (_per_unit(named("bspline.evaluate"), lambda s: 1,
                                               n_rounds, n_setups), "count")
    basis = named("bspline.evaluate") + named("bspline.evaluate_with_derivative")
    out["bspline.basis_values"] = (_per_unit(basis, lambda s: s.counts["values"],
                                             n_rounds, n_setups), "count")
    out["bspline.evaluate_with_derivative_s"] = (secs("bspline.evaluate_with_derivative"), "s")

    out["kan.train_s"] = (secs("kan.train"), "s")
    out["kan.ms_per_step"] = (_ratio(named("kan.train"), "steps", 1e3), "ms")
    out["kan.snap_s"] = (secs("kan.snap"), "s")
    out["kan.snap_edges"] = (total("kan.snap", "edges"), "count")
    out["kan.ms_per_edge"] = (_ratio(named("kan.snap"), "edges", 1e3), "ms")
    out["kan.head_s"] = (secs("kan.head"), "s")
    out["kan.head_rows"] = (total("kan.head", "rows"), "count")

    out["symbolic.simplify_s"] = (secs("symbolic.simplify"), "s")
    out["symbolic.eval_s"] = (secs("symbolic.eval"), "s")

    for m in EXPLAIN_KINDS:
        first, rest, rows = _shapley_split(tracer, f"shapley.exact.{m}")
        out[f"shapley.first_instance_ms.{m}"] = (1e3 * statistics.median(first) if first else 0.0, "ms")
        out[f"shapley.ms_per_instance.{m}"] = (1e3 * statistics.median(rest) if rest else 0.0, "ms")
        out[f"shapley.predict_rows.{m}"] = (
            _per_unit(named(f"cli.explain.{m}"), lambda s: rows.get(s.id, 0), n_rounds, n_setups),
            "count")

    out["serialize.save_s"] = (secs("serialize.save"), "s")
    out["serialize.load_s"] = (secs("serialize.load"), "s")
    for m in MODEL_KINDS:
        saved = [s.counts["kb"] for s in named("serialize.save") if s.counts["kind"] == m]
        out[f"serialize.model_kb.{m}"] = (statistics.median(saved) if saved else 0.0, "KiB")
    return out


def _shapley_split(tracer: Tracer, name: str):
    """Per-instance seconds of ``shap_exact`` split into the first instance of
    each explain call and the rest, plus the rows each explain call sent to a
    model's ``predict`` from inside ``shap_exact``."""
    def command_of(span: Span) -> Span:
        while not span.name.startswith("cli."):
            span = tracer.spans[span.parent]
        return span

    first, rest, seen = [], [], set()
    rows: dict[int, int] = {}
    for s in tracer.spans:
        if s.name == name and s.phase in ("setup", "round"):
            call = command_of(s).id
            (rest if call in seen else first).append(s.seconds)
            seen.add(call)
        elif s.name in ("trees.predict", "mlp.predict", "kan.predict") and s.parent is not None:
            owner = tracer.spans[s.parent]
            while owner.parent is not None and not owner.name.startswith("shapley.exact."):
                owner = tracer.spans[owner.parent]
            if owner.name == name:
                call = command_of(owner).id
                rows[call] = rows.get(call, 0) + s.counts["rows"]
    return first, rest, rows
