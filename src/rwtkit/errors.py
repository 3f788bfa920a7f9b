"""Exception types shared across the package.

Every error raised deliberately by rwtkit derives from :class:`RwtError`,
which lets the command line map any failure to a single machine-readable
record.  Names describe the condition, not the call site; several modules
share a type (for example ``InvalidParam``).
"""

from __future__ import annotations


class RwtError(Exception):
    """Base class for all rwtkit errors."""


# --- data model -------------------------------------------------------------

class DegenerateColumn(RwtError):
    """A feature column is constant, so min-max scaling has no width."""


class MissingFeature(RwtError):
    """A required feature is absent from a covariate row."""


class SchemaMismatch(RwtError):
    """An input file or stream does not match its documented format."""


class NonMonotoneDepths(RwtError):
    """Profile depths are not strictly increasing."""


class ShortProfile(RwtError):
    """A profile has fewer than the minimum number of samples."""


class WindowGap(RwtError):
    """A rolling window covers days missing from the daily series."""


class TooFewProfiles(RwtError):
    """Not enough profiles to perform the requested split or fold."""


# --- models -----------------------------------------------------------------

class EmptyData(RwtError):
    """A fit was requested on an empty dataset."""


class InvalidParam(RwtError):
    """A hyperparameter is outside its allowed range."""


class DimensionMismatch(RwtError):
    """Input width does not match what the model was fitted on."""


class Diverged(RwtError):
    """Training produced a non-finite loss."""


class InvalidLayout(RwtError):
    """A network layout description is malformed."""


# --- attribution ------------------------------------------------------------

class EmptyBackground(RwtError):
    """A background set with zero rows was supplied."""


class TooManyFeatures(RwtError):
    """Exact enumeration was requested over more features than supported."""


class NonFiniteInput(RwtError):
    """An instance or background row holds NaN or an infinity."""


# --- symbolic expressions ---------------------------------------------------

class ParseError(RwtError):
    """Expression text could not be parsed.

    Carries the character position of the offending token.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position

    def __reduce__(self):
        return type(self), (self.message, self.position)


class UnknownFunction(ParseError):
    """An identifier is not one of the supported function names."""


class BadVariableIndex(ParseError):
    """A variable is outside x1..x10."""


class UnboundVariable(RwtError):
    """Evaluation referenced a variable with no supplied value."""


class PoleError(RwtError):
    """A denominator (or tangent) was evaluated too close to a pole."""


class DomainError(RwtError):
    """A function argument is outside its mathematical domain."""


class SnapFailure(RwtError):
    """No symbolic candidate fits an edge to the required quality."""


class NotFound(RwtError):
    """A requested bank entry or artifact does not exist."""
