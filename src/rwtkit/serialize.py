"""The float rule of every artifact, and JSON persistence for models and scalers.

The float rule writes a float, numpy's included, as ``repr(float(x))``: the
shortest text that reads back to the same float.  :func:`record` applies it to
JSON documents and :func:`csv_text` to CSV rows.

Model files are in format 1: a wrapper ``{"format": "rwtkit-model",
"version": 1, "kind": ..., "state": ...}``; ``scaler.json`` is a scaler's
state alone.  A state maps each dataclass field of the object to its encoded
value, under the field's name.  Every float in it, alone, in a tuple or in a
float array at any depth, is written by the float rule, so a save/load round
trip is bit-exact and the files diff cleanly.  Ints, int arrays and strings
stay JSON ints and strings, and a tuple of arrays or of trees is a list of
encoded items.  The rule has two exceptions, the fields named in
``_PLAIN_FIELDS``, which are written as plain JSON values: a model's
``params`` (its training settings, through ``dataclasses.asdict``) and an
MLP's ``dropout_rate``.  Keys are always sorted, which makes the byte stream
a pure function of the model.

This module is the only one that knows the format: the model classes and
:class:`~rwtkit.features.Scaler` are plain dataclasses, and :func:`to_state`
and :func:`from_state` work from their fields and type hints.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import asdict, fields, is_dataclass
from functools import cache, partial
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .errors import SchemaMismatch
from .kan import KanNetwork
from .mlp import MlpModel
from .trees import BoostedEnsemble, DecisionTree, Forest

__all__ = [
    "record",
    "csv_text",
    "FORMAT_NAME",
    "FORMAT_VERSION",
    "save_model",
    "load_model",
    "model_document",
    "reading",
    "to_state",
    "from_state",
]

FORMAT_NAME = "rwtkit-model"
FORMAT_VERSION = 1

#: The fields written as plain JSON values rather than by the float rule.
_PLAIN_FIELDS = frozenset({"params", "dropout_rate"})

_KINDS = {
    "tree": DecisionTree,
    "forest": Forest,
    "boosted": BoostedEnsemble,
    "mlp": MlpModel,
    "kan": KanNetwork,
}


def _repr_float(value) -> str:
    return repr(float(value))


def record(obj):
    """``obj`` with every float at any depth written by the float rule; dicts are
    walked, lists and tuples become lists, and every other value is kept."""
    if isinstance(obj, (float, np.floating)):
        return _repr_float(obj)
    if isinstance(obj, dict):
        return {key: record(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return list(map(record, obj))
    return obj


def _cell(value) -> str:
    if value is None:
        return "NA"
    return str(int(value) if isinstance(value, (bool, np.bool_)) else record(value))


def csv_text(header, rows) -> str:
    """The ``header`` line, then one line per row: a float cell by the float
    rule, ``None`` as ``NA``, a bool as ``0`` or ``1`` and any other cell as its ``str``."""
    return "".join(",".join(map(_cell, line)) + "\n" for line in (header, *rows))


def _list(value) -> list:
    if not isinstance(value, list):
        raise TypeError(f"expected a list, got {type(value).__name__}")
    return value


def _text(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {type(value).__name__}")
    return value


def _map_leaves(fn, value: list) -> list:
    """``fn`` over the leaves of nested lists, one ``map`` per innermost list."""
    if value and isinstance(value[0], list):
        return [_map_leaves(fn, v) for v in value]
    return list(map(fn, value))


def _encode_array(a: np.ndarray) -> list:
    return _map_leaves(repr, a.tolist()) if a.dtype.kind == "f" else a.tolist()


def _decode_array(value) -> np.ndarray:
    """Strings give a float64 array, ints an int64 array."""
    leaf = _list(value)
    while leaf and isinstance(leaf, list):
        leaf = leaf[0]
    if isinstance(leaf, str):
        return np.array(_map_leaves(float, value))  # Python floats: float64
    return np.array(value, dtype=np.int64)


def _codec(hint, plain: bool):
    """(encode, decode) for a value of type ``hint``."""
    if is_dataclass(hint):
        if plain:
            return asdict, lambda value: hint(**value)
        return to_state, partial(from_state, hint)
    if get_origin(hint) is tuple:
        encode, decode = _codec(get_args(hint)[0], plain)
        return (lambda v: list(map(encode, v))), (lambda v: tuple(map(decode, _list(v))))
    if hint is np.ndarray:
        return _encode_array, _decode_array
    if hint is float:
        return (float if plain else _repr_float), float
    if hint is int:
        return int, int
    if hint is str:
        return str, _text
    raise TypeError(f"no format-{FORMAT_VERSION} encoding for {hint!r}")


@cache
def _field_codecs(cls) -> tuple:
    """(name, encode, decode) for each field of ``cls``, built once per class."""
    hints = get_type_hints(cls)
    return tuple((f.name, *_codec(hints[f.name], f.name in _PLAIN_FIELDS)) for f in fields(cls))


def to_state(obj) -> dict:
    """The format-1 state of a model, tree or scaler."""
    return {name: encode(getattr(obj, name)) for name, encode, _ in _field_codecs(type(obj))}


def from_state(cls, state: dict):
    """Rebuild a ``cls`` from :func:`to_state`'s output.

    A value of the wrong JSON type raises ``TypeError``, and a missing field
    ``KeyError``; :func:`reading` reports both as :class:`SchemaMismatch`.
    """
    return cls(*[decode(state[name]) for name, _, decode in _field_codecs(cls)])


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
        "state": to_state(model),
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
        return from_state(_KINDS[kind], doc["state"])
