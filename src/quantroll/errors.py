"""Exception hierarchy, and the integer check the config objects share.

Three top-level families map onto the CLI exit codes: ConfigError (1),
DataError (2), EngineError (3).
"""
import numbers


class QuantrollError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(QuantrollError):
    """Invalid configuration, CLI arguments, or model parameters."""


class DataError(QuantrollError):
    """Bad input data: malformed files, invalid candles, fetch failures."""


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


class NetworkError(DataError):
    pass


class MalformedPayload(DataError):
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


def check_int(name: str, value) -> None:
    """Raise ValueError unless value is an int or numpy integer; a bool is neither."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


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
