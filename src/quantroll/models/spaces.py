"""Hyperparameter distributions, validation rules and tuning ranges by parameter name."""
from __future__ import annotations

from dataclasses import dataclass

from ..errors import NON_NEGATIVE_REAL, POSITIVE_INTEGER, POSITIVE_REAL, Rule


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


# Keyed by parameter name: every kind that takes a parameter shares its rule
# and range. RULES bound the legal values; RANGES are the (narrower) tuning
# ranges, in draw order, since the tuner keys each draw by its dimension index.
RULES = {
    "learning_rate": POSITIVE_REAL,
    "epochs": POSITIVE_INTEGER,
    "batch_size": POSITIVE_INTEGER,
    "lam": NON_NEGATIVE_REAL,
    "k": POSITIVE_INTEGER,
    "alpha": POSITIVE_REAL,
    "max_depth": Rule("positive integer or None", lambda v: v is None or POSITIVE_INTEGER.accepts(v)),
    "min_samples_leaf": POSITIVE_INTEGER,
    "n_members": POSITIVE_INTEGER,
    "bootstrap": Rule("boolean", lambda v: isinstance(v, bool)),
    "max_features": Rule("all|sqrt|log2", lambda v: v in ("all", "sqrt", "log2")),
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
