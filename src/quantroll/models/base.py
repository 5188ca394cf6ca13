"""Estimator plumbing: scikit-style get_params/set_params and the fit contract's checks.

The estimators in this package follow the familiar fit/predict contract
(fit returns self, constructor args are hyperparameters) so they compose
with pipeline tooling that duck-types against the scikit-learn API, without
pulling that library in as a dependency.
"""
from __future__ import annotations

import functools
import inspect

import numpy as np

from ..direction import DOWN, UP
from ..errors import EmptyTraining, LengthMismatch, NonFiniteInput, WidthMismatch


class Estimator:
    """Base class exposing hyperparameters via get_params/set_params.

    `quantroll.models.fit` checks each training window once (check_fit_inputs,
    and class_label_set for a classifier) and gives a degenerate window a
    constant model, so an estimator's fit only computes: it is handed float64,
    finite arrays with at least two rows and, for a classifier, both +1 and -1
    labels. An estimator fitted directly must be given arrays that meet the
    same contract. A classifier's predict is the sign of its decision scores,
    ties going down.
    """

    @classmethod
    @functools.cache
    def _param_names(cls) -> tuple[str, ...]:
        sig = inspect.signature(cls.__init__)
        return tuple(name for name in sig.parameters if name != "self")

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params) -> "Estimator":
        valid = set(self._param_names())
        for name, value in params.items():
            if name not in valid:
                raise ValueError(f"{type(self).__name__} has no parameter {name!r}")
            setattr(self, name, value)
        return self

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({args})"

    def score_row(self, x: np.ndarray) -> float:
        """Score of one checked float64 feature vector: a classifier's decision
        score, a regressor's prediction. This default runs the batch method on
        a one-row view; overrides must return the same float bit for bit."""
        batch = getattr(self, "decision_function", None) or self.predict
        return float(batch(x.reshape(1, -1))[0])

    def predict(self, X) -> np.ndarray:
        """A classifier's labels: +1 where its decision score is positive, else -1."""
        return classify_from_scores(self.decision_function(X))


def check_matrix(X, name: str = "X") -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    if X.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise NonFiniteInput(f"{name} contains non-finite entries")
    return X


def check_fit_inputs(X, y) -> tuple[np.ndarray, np.ndarray]:
    X = check_matrix(X)
    y = np.asarray(y, dtype=np.float64)
    if X.shape[0] == 0:
        raise EmptyTraining("training set is empty")
    if X.shape[1] == 0:
        raise WidthMismatch("X has no feature columns")
    if y.ndim != 1 or y.shape[0] != X.shape[0]:
        raise LengthMismatch(f"X has {X.shape[0]} rows but y has shape {y.shape}")
    if not np.isfinite(y).all():
        raise NonFiniteInput("y contains non-finite entries")
    return X, y


def class_label_set(y: np.ndarray) -> set[float]:
    """The distinct labels of y, which must all be +1/-1."""
    labels = set(np.unique(y).tolist())
    if not labels <= {float(UP), float(DOWN)}:
        raise ValueError(f"classification targets must be +1/-1, got {sorted(labels)}")
    return labels


class StandardizerMixin:
    """Per-fit feature standardization using training mean and deviation.

    Constant columns get unit scale so they standardize to exactly zero.
    """

    scaler_mean_: np.ndarray
    scaler_scale_: np.ndarray

    def _fit_scaler(self, X: np.ndarray) -> np.ndarray:
        self.scaler_mean_ = X.mean(axis=0)
        std = X.std(axis=0)
        self.scaler_scale_ = np.where(std > 0, std, 1.0)
        return self.standardize(X)

    def standardize(self, X: np.ndarray) -> np.ndarray:
        return (X - self.scaler_mean_) / self.scaler_scale_


def classify_from_scores(scores: np.ndarray) -> np.ndarray:
    """Map decision scores to labels: positive is up, ties resolve down."""
    return np.where(scores > 0, UP, DOWN).astype(np.int8)
