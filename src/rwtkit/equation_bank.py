"""The bank of published water-temperature equations.

Twenty entries: for each input count 1..10 there is one equation from the
``simple`` set (linear and rational terms only) and one from the ``complex``
set (wider function library).  All operate on normalized predictors
x1..x10 in [0, 1] and return normalized temperature.

The equations live in a versioned text file shipped with the package
(``data/equation_bank_v1.txt``).  Constants are stored as decimal strings and
parsed once, so printed precision is preserved end to end; the loader
verifies the file against an embedded sha256 checksum and rejects anything
that was edited without bumping the version.  Transcription judgment calls
are recorded as comments at the top of the bank file itself.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from pathlib import Path

from .errors import NotFound, SchemaMismatch
from .symbolic import Expr, eval_expression, parse_expression, variables

__all__ = [
    "BANK_VERSION",
    "BANK_SHA256",
    "BankEntry",
    "EquationBank",
    "load_bank",
]

BANK_VERSION = 1
BANK_FILENAME = f"equation_bank_v{BANK_VERSION}.txt"

#: sha256 of the shipped bank file; the loader refuses to serve a file whose
#: digest differs.
BANK_SHA256 = "4a30a7f2471038801995ab678d773de3a81392c87041411626e8f2b64b4b0623"

SET_NAMES = ("simple", "complex")


@dataclass(frozen=True)
class BankEntry:
    """One published equation.

    ``r2_text`` is the published test R-squared exactly as printed.
    ``expression_text`` round-trips through the parser and printer byte for
    byte.
    """

    set_name: str
    n_inputs: int
    r2_text: str
    expression_text: str
    expression: Expr

    def __post_init__(self) -> None:
        if self.set_name not in SET_NAMES:
            raise ValueError(f"unknown set {self.set_name!r}")
        if not (1 <= self.n_inputs <= 10):
            raise ValueError(f"n_inputs must be 1..10, got {self.n_inputs}")
        used = variables(self.expression)
        expected = tuple(range(1, self.n_inputs + 1))
        if used != expected:
            raise ValueError(
                f"{self.set_name}/{self.n_inputs} uses variables {used}, "
                f"expected exactly x1..x{self.n_inputs}"
            )

    def evaluate(self, x):
        """Evaluate at ``x`` (row, matrix, or index mapping)."""
        return eval_expression(self.expression, x)


@dataclass(frozen=True)
class EquationBank:
    """All bank entries, addressable by (set, input count)."""

    version: int
    entries: tuple[BankEntry, ...]

    def get(self, set_name: str, n_inputs: int) -> BankEntry:
        for entry in self.entries:
            if entry.set_name == set_name and entry.n_inputs == n_inputs:
                return entry
        raise NotFound(f"no bank entry {set_name}/{n_inputs}")


def _default_bank_bytes() -> bytes:
    return resources.files("rwtkit.data").joinpath(BANK_FILENAME).read_bytes()


def _parse_bank(raw: bytes, verify_checksum: bool) -> EquationBank:
    if verify_checksum:
        digest = hashlib.sha256(raw).hexdigest()
        if digest != BANK_SHA256:
            raise SchemaMismatch(
                f"bank file checksum mismatch: expected {BANK_SHA256}, got {digest}"
            )
    entries: list[BankEntry] = []
    for lineno, line in enumerate(raw.decode("utf-8").splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split(",", 3)
        if len(parts) != 4:
            raise SchemaMismatch(f"bank line {lineno}: expected 4 fields, got {len(parts)}")
        set_name, n_text, r2_text, expr_text = parts
        try:
            n_inputs = int(n_text)
        except ValueError as exc:
            raise SchemaMismatch(f"bank line {lineno}: bad input count {n_text!r}") from exc
        entries.append(
            BankEntry(
                set_name=set_name,
                n_inputs=n_inputs,
                r2_text=r2_text,
                expression_text=expr_text,
                expression=parse_expression(expr_text),
            )
        )
    seen = {(e.set_name, e.n_inputs) for e in entries}
    expected = {(s, n) for s in SET_NAMES for n in range(1, 11)}
    if seen != expected:
        missing = sorted(expected - seen)
        extra = sorted(seen - expected)
        raise SchemaMismatch(f"bank incomplete: missing {missing}, unexpected {extra}")
    return EquationBank(version=BANK_VERSION, entries=tuple(entries))


@lru_cache(maxsize=1)
def _load_default_bank() -> EquationBank:
    return _parse_bank(_default_bank_bytes(), verify_checksum=True)


def load_bank(path: str | Path | None = None) -> EquationBank:
    """Load the equation bank.

    With no argument the packaged bank is loaded and checked against
    :data:`BANK_SHA256`.  An explicit ``path`` loads an external bank file in
    the same format without a checksum requirement (for experiments with
    edited banks).
    """
    if path is None:
        return _load_default_bank()
    return _parse_bank(Path(path).read_bytes(), verify_checksum=False)
