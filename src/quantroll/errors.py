"""Exception hierarchy, and the rules for each kind of value a setting takes.

Three top-level families map onto the CLI exit codes: ConfigError (1),
DataError (2), EngineError (3).
"""
import math
import numbers
from collections.abc import Callable
from dataclasses import dataclass


class QuantrollError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(QuantrollError):
    """Invalid configuration, CLI arguments, or model parameters."""


class DataError(QuantrollError):
    """Bad input data: unreadable or malformed files, invalid candles."""


class EngineError(QuantrollError):
    """Failure inside the evaluation pipeline itself."""


# --- ingest ---------------------------------------------------------------

class MalformedRow(DataError):
    pass


class DuplicateTimestamp(DataError):
    pass


class NonPositivePrice(DataError):
    pass


class OhlcViolation(DataError):
    pass


class EmptyRange(DataError):
    pass


# --- shared numeric preconditions ------------------------------------------

class SeriesTooShort(EngineError):
    pass


class LengthMismatch(EngineError):
    pass


class WidthMismatch(EngineError):
    pass


class NonFiniteInput(EngineError):
    pass


# --- the kinds of value a setting or hyperparameter takes --------------------

@dataclass(frozen=True)
class Rule:
    """One kind of value: `accepts` says whether a value is of it."""

    description: str
    accepts: Callable[[object], bool]

    def check(self, name: str, value) -> None:
        if not self.accepts(value):
            raise ValueError(f"{name} must be {self.description}, got {value!r}")


def check_fields(obj, **rules: Rule) -> None:
    """Check each named attribute of obj by its rule."""
    for name, rule in rules.items():
        rule.check(name, getattr(obj, name))


def _integer(value) -> bool:  # an int or numpy integer; a bool is never a number
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _real(value) -> bool:  # a finite number; an integer too large for a float is still finite
    return _integer(value) or (isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value))


INTEGER = Rule("integer", _integer)
POSITIVE_INTEGER = Rule("positive integer", lambda v: _integer(v) and v > 0)
NON_NEGATIVE_INTEGER = Rule("non-negative integer", lambda v: _integer(v) and v >= 0)
POSITIVE_REAL = Rule("positive real", lambda v: _real(v) and v > 0)
NON_NEGATIVE_REAL = Rule("non-negative real", lambda v: _real(v) and v >= 0)
STRING = Rule("string", lambda v: isinstance(v, str))


# --- models -----------------------------------------------------------------

class ParamError(ConfigError):
    pass


class KindMismatch(EngineError):
    pass


class EmptyTraining(EngineError):
    pass


# --- dataset / walk-forward ---------------------------------------------------

class EmptySegment(EngineError):
    pass


class InsufficientHistory(EngineError):
    pass


# --- metrics -------------------------------------------------------------------

class ZeroVolatility(EngineError):
    pass


class TooFewObservations(EngineError):
    pass


class ConstantTruth(EngineError):
    pass


class ConstantCurve(EngineError):
    pass


class MixedTasks(EngineError):
    pass


# --- app / tuner -----------------------------------------------------------------

class UnknownSelector(EngineError):
    pass


class AllTrialsFailed(EngineError):
    pass
