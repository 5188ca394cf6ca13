"""Hyperparameter distributions, validation rules and tuning ranges by parameter name."""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Uniform:
    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("uniform requires lo < hi")


@dataclass(frozen=True)
class LogUniform:
    lo: float
    hi: float

    def __post_init__(self):
        if not 0 < self.lo < self.hi:
            raise ValueError("loguniform requires 0 < lo < hi")


@dataclass(frozen=True)
class IntRange:
    """Inclusive integer range; lo == hi is a legal degenerate dimension."""

    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("int range requires lo <= hi")


@dataclass(frozen=True)
class Categorical:
    choices: tuple

    def __post_init__(self):
        if not self.choices:
            raise ValueError("categorical requires at least one choice")


Distribution = Uniform | LogUniform | IntRange | Categorical


@dataclass(frozen=True)
class HyperParamSpace:
    kind: str
    dims: tuple[tuple[str, Distribution], ...]


def _pos_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= 1


def _pos_int_or_none(v) -> bool:
    return v is None or _pos_int(v)


def _pos_float(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and v > 0


def _nonneg_float(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and v >= 0


def _bool(v) -> bool:
    return isinstance(v, bool)


def _choice(*allowed):
    return lambda v: v in allowed


# Keyed by parameter name: every kind that takes a parameter shares its rule
# and range. RULES bound the legal values; RANGES are the (narrower) tuning
# ranges, in draw order, since the tuner keys each draw by its dimension index.
RULES = {
    "learning_rate": (_pos_float, "positive real"),
    "epochs": (_pos_int, "positive integer"),
    "batch_size": (_pos_int, "positive integer"),
    "lam": (_nonneg_float, "non-negative real"),
    "k": (_pos_int, "positive integer"),
    "alpha": (_pos_float, "positive real"),
    "max_depth": (_pos_int_or_none, "positive integer or None"),
    "min_samples_leaf": (_pos_int, "positive integer"),
    "n_members": (_pos_int, "positive integer"),
    "bootstrap": (_bool, "boolean"),
    "max_features": (_choice("all", "sqrt", "log2"), "all|sqrt|log2"),
}

RANGES: dict[str, Distribution] = {
    "learning_rate": LogUniform(1e-4, 1.0),
    "epochs": IntRange(5, 200),
    "lam": LogUniform(1e-6, 1e3),
    "k": IntRange(1, 25),
    "alpha": LogUniform(1e-2, 1e1),
    "max_depth": IntRange(1, 12),
    "min_samples_leaf": IntRange(1, 20),
    "n_members": IntRange(5, 200),
    "max_features": Categorical(("all", "sqrt", "log2")),
}
