"""Model roster behind a uniform fit/score contract.

Kinds are addressed by string names (e.g. "random_forest_c"); the suffix
marks the task: _c classifies the next move as up/down, _r regresses the
next-interval log return. All estimators are implemented in this package on
top of numpy; stochastic ones draw every random number from the spec seed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from ..direction import DOWN, UP
from ..errors import NON_NEGATIVE_INTEGER, KindMismatch, NonFiniteInput, ParamError, WidthMismatch
from .base import Estimator, check_fit_inputs, class_label_set
from .ensemble import (
    BaggingClassifier,
    BaggingRegressor,
    RandomForestClassifier,
    RandomForestRegressor,
)
from .linear import (
    ConstantClassifier,
    ConstantRegressor,
    LogisticClassifier,
    OLSRegressor,
    PerceptronClassifier,
    Ridge,
    SGDClassifier,
    SGDRegressor,
)
from .naive_bayes import BernoulliNBClassifier
from .neighbors import KNNClassifier, KNNRegressor
from .spaces import RANGES, RULES, Categorical, Distribution, IntRange, LogUniform
from .tree import (
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    ExtraTreeClassifier,
    ExtraTreeRegressor,
    cart_best_split,
)

CLASSIFIER = "classifier"
REGRESSOR = "regressor"


# The one per-kind table. Everything else is derived from it: ModelKind
# enumerates its names; task_of reads the suffix, so one class (Ridge) can
# serve both tasks; display_name capitalizes the parts ("bernoulli_nb_c" ->
# "BernoulliNbC"); a kind's hyperparameters are its class's constructor
# arguments less the seed, which build_estimator passes from the spec to
# every class that takes one.
_REGISTRY: dict[str, type] = {
    "logistic_c": LogisticClassifier,
    "ridge_c": Ridge,
    "perceptron_c": PerceptronClassifier,
    "sgd_c": SGDClassifier,
    "knn_c": KNNClassifier,
    "bernoulli_nb_c": BernoulliNBClassifier,
    "decision_tree_c": DecisionTreeClassifier,
    "extra_tree_c": ExtraTreeClassifier,
    "random_forest_c": RandomForestClassifier,
    "bagging_c": BaggingClassifier,
    "ols_r": OLSRegressor,
    "ridge_r": Ridge,
    "sgd_r": SGDRegressor,
    "knn_r": KNNRegressor,
    "decision_tree_r": DecisionTreeRegressor,
    "extra_tree_r": ExtraTreeRegressor,
    "random_forest_r": RandomForestRegressor,
    "bagging_r": BaggingRegressor,
}

ModelKind = Enum("ModelKind", [(name.upper(), name) for name in _REGISTRY], type=str, module=__name__)

ALL_KINDS = tuple(ModelKind)
CLASSIFIER_KINDS = tuple(k for k in ALL_KINDS if k.value.endswith("_c"))
REGRESSOR_KINDS = tuple(k for k in ALL_KINDS if k.value.endswith("_r"))


def coerce_kind(kind: str | ModelKind) -> ModelKind:
    if isinstance(kind, ModelKind):
        return kind
    try:
        return ModelKind(kind)
    except ValueError:
        raise ParamError(f"unknown model kind {kind!r}") from None


def task_of(kind: str | ModelKind) -> str:
    return CLASSIFIER if coerce_kind(kind).value.endswith("_c") else REGRESSOR


def display_name(kind: str | ModelKind) -> str:
    return "".join(part.capitalize() for part in coerce_kind(kind).value.split("_"))


def hyperparameters(kind: str | ModelKind) -> tuple[str, ...]:
    """The names a spec of this kind may set: its constructor's, less the seed."""
    return tuple(name for name in _REGISTRY[coerce_kind(kind)]._param_names() if name != "seed")


def default_space(kind: str | ModelKind) -> tuple[tuple[str, Distribution], ...]:
    """The tuning space a search samples for one model kind: its
    (name, distribution) pairs in draw order."""
    names = hyperparameters(kind)
    return tuple((n, d) for n, d in RANGES.items() if n in names)


def _check(rule, name: str, value) -> None:
    try:
        rule.check(name, value)
    except ValueError as exc:
        raise ParamError(str(exc)) from None


def validate_params(kind: str | ModelKind, params: dict) -> None:
    """Reject unknown names and out-of-domain values for this kind."""
    key = coerce_kind(kind).value
    names = hyperparameters(kind)
    for name, value in params.items():
        if name not in names:
            raise ParamError(f"{key} has no hyperparameter {name!r}")
        _check(RULES[name], f"{key}.{name}", value)


@dataclass(frozen=True)
class ModelSpec:
    """A model kind, its hyperparameters, and the seed driving its randomness."""

    kind: ModelKind
    params: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "kind", coerce_kind(self.kind))
        validate_params(self.kind, self.params)
        _check(NON_NEGATIVE_INTEGER, "seed", self.seed)  # a generator takes no negative seed

    @property
    def task(self) -> str:
        return task_of(self.kind)


@dataclass(frozen=True)
class TrainedModel:
    """Immutable fitted state plus the vector width it accepts."""

    kind: ModelKind
    task: str
    estimator: Estimator
    feature_width: int


def build_estimator(spec: ModelSpec) -> Estimator:
    """The unfitted estimator of a spec. Its fit checks nothing: give it a window
    `fit` would accept, with at least two rows and, for a classifier, both labels."""
    cls = _REGISTRY[spec.kind]
    kwargs = dict(spec.params)
    if "seed" in cls._param_names():
        kwargs["seed"] = spec.seed
    return cls(**kwargs)


def fit(spec: ModelSpec, X, y, memo: dict | None = None) -> TrainedModel:
    """Fit one model on a training window: the one place a window is checked.

    X must be finite, with at least one column and one row per entry of the finite,
    1-D y; a classifier's y must be +1/-1. Degenerate windows never abort a run:
    fewer than two rows, or a single-class classification window, produce a
    constant model. Any other window reaches the estimator as float64 arrays.

    memo, if given, is a dict the caller passes to every refit of a run; it goes
    to every estimator's fit. Forests that bootstrap or subsample columns keep
    their members' draws in it, keyed by everything they depend on, so a later
    fit draws nothing and returns what a fresh fit would; the other kinds ignore
    it, the extra trees and the GD kinds drawing afresh from their seed at every
    fit. No fitted model refers to it.
    """
    X, y = check_fit_inputs(X, y)
    task = spec.task
    labels = class_label_set(y) if task == CLASSIFIER else set()

    estimator: Estimator
    if X.shape[0] < 2 or len(labels) == 1:
        estimator = ConstantClassifier(int(y[0])) if task == CLASSIFIER else ConstantRegressor(float(y.mean()))
    else:
        estimator = build_estimator(spec).fit(X, y, memo)
    return TrainedModel(spec.kind, task, estimator, X.shape[1])


_FLOAT64 = np.dtype(np.float64)


def _check_vector(model: TrainedModel, x) -> np.ndarray:
    if type(x) is not np.ndarray or x.dtype is not _FLOAT64:
        x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise WidthMismatch(f"expected a feature vector, got shape {x.shape}")
    if x.size != model.feature_width:
        raise WidthMismatch(f"expected {model.feature_width} features, got {x.size}")
    if not all(map(math.isfinite, x.tolist())):
        raise NonFiniteInput("feature vector contains non-finite entries")
    return x


def predict_class(model: TrainedModel, x) -> tuple[int, float]:
    """Direction plus decision score; score > 0 iff up, ties resolve down."""
    if model.task != CLASSIFIER:
        raise KindMismatch(f"{model.kind.value} is not a classifier")
    score = model.estimator.score_row(_check_vector(model, x))
    return (UP if score > 0 else DOWN), score


def predict_value(model: TrainedModel, x) -> float:
    """Predicted next-interval log return."""
    if model.task != REGRESSOR:
        raise KindMismatch(f"{model.kind.value} is not a regressor")
    return model.estimator.score_row(_check_vector(model, x))


__all__ = [
    "ALL_KINDS",
    "CLASSIFIER",
    "CLASSIFIER_KINDS",
    "REGRESSOR",
    "REGRESSOR_KINDS",
    "Categorical",
    "IntRange",
    "LogUniform",
    "ModelKind",
    "ModelSpec",
    "TrainedModel",
    "build_estimator",
    "cart_best_split",
    "coerce_kind",
    "default_space",
    "display_name",
    "fit",
    "hyperparameters",
    "predict_class",
    "predict_value",
    "task_of",
    "validate_params",
]
