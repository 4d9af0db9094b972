"""Exception hierarchy for the kuniform package.

Every error raised by the library derives from :class:`KuniformError`, so
callers can catch one base class.  The concrete classes are part of the
public API: each names the contract it enforces.
"""

from __future__ import annotations


class KuniformError(Exception):
    """Base class for all library errors."""


# --- finite fields ---------------------------------------------------------

class NotPrimePower(KuniformError):
    """The requested field order is not a prime power (or is < 2)."""


class FieldMismatch(KuniformError):
    """An operation combined elements of two different fields."""


class DivisionByZero(KuniformError):
    """Multiplicative inverse of the additive identity was requested."""


# --- orthogonal arrays -----------------------------------------------------

class NotAnOAAtStrength(KuniformError):
    """The array does not have the requested/declared strength."""


class EmptyResult(KuniformError):
    """A transformation would produce an array with no columns (or rows)."""


class SymbolOutOfRange(KuniformError):
    """A symbol outside 0..d-1 was supplied."""


class ShapeMismatch(KuniformError):
    """Arrays or states with incompatible dimensions were combined."""


class WrongCount(KuniformError):
    """An operation received the wrong number of inputs."""


class NotAPermutation(KuniformError):
    """The supplied specification is not a permutation of its index set."""


class ParameterViolation(KuniformError):
    """A documented precondition on parameters was violated."""


class DuplicateRows(KuniformError):
    """Duplicate rows/words where distinctness is required."""


# --- Hadamard matrices -----------------------------------------------------

class BadOrder(KuniformError):
    """No supported Hadamard construction exists for the requested order."""


class NotNormalized(KuniformError):
    """A normalized Hadamard matrix (all-ones first row/column) is required."""


class NotPowerOfTwo(KuniformError):
    """The construction requires a power-of-two level count."""


# --- states and phases -----------------------------------------------------

class PhaseLengthMismatch(KuniformError):
    """A phase vector's length differs from the number of rows/terms."""


class BadSubset(KuniformError):
    """A column subset is empty, improper, repeated, or out of range."""


class LengthMismatch(KuniformError):
    """A vector argument has the wrong length."""


class OddContributions(KuniformError):
    """An off-diagonal reduction cell receives an odd number of row pairs,
    so no +/-1 sign assignment can cancel it."""


class UnsupportedMultiplicity(KuniformError):
    """An off-diagonal reduction cell receives four or more row pairs;
    the linear sign-constraint derivation does not apply."""


class Unsupported(KuniformError):
    """The request falls outside the implemented scope."""


class TooLarge(KuniformError):
    """The request would allocate more memory than the library allows."""


class PostconditionFailed(KuniformError):
    """A result failed the library's own check of it: a library defect,
    not a bad input."""


# --- graphs ----------------------------------------------------------------

class PhasesPresent(KuniformError):
    """Graph-rule certification requires a state with one common phase."""


# --- serialization ---------------------------------------------------------

class ParseError(KuniformError):
    """Malformed input text; message carries line/column context."""

    def __init__(self, message: str, line: int | None = None,
                 column: int | None = None) -> None:
        if line is not None:
            where = f"line {line}" + ("" if column is None else f", column {column}")
            message = f"{message} ({where})"
        super().__init__(message)
        self.line = line
        self.column = column


class ParameterMismatch(KuniformError):
    """Declared catalog parameters disagree with the file's rows."""
