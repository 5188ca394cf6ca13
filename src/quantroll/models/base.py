"""The estimator base class and the fit contract's checks.

Every estimator in this package has one fit signature, `fit(X, y, memo=None)`,
which returns self; its constructor's arguments are its hyperparameters (and,
for a kind that draws random numbers, its seed). memo is a dict a caller may
pass to every refit of a run: a forest that bootstraps or subsamples columns
keeps its members' seed-determined draws in it; the others ignore it.
"""
from __future__ import annotations

import functools
import inspect

import numpy as np

from ..direction import DOWN, UP
from ..errors import EmptyTraining, LengthMismatch, NonFiniteInput, WidthMismatch


class Estimator:
    """Base class: the constructor's argument names, and the scoring contract.

    `quantroll.models.fit` checks each training window once (check_fit_inputs,
    and class_label_set for a classifier) and gives a degenerate window a
    constant model, so an estimator's fit only computes: it is handed float64,
    finite arrays with at least two rows and, for a classifier, both +1 and -1
    labels. An estimator fitted directly must be given arrays that meet the
    same contract. Every estimator scores rows through one batch method,
    `scores(X)`: one float64 per row, a classifier's decision score (up iff
    positive, see classify_from_scores) or a regressor's predicted return:
    the float `score_row` gives that row alone, whatever rows come with it.
    """

    @classmethod
    @functools.cache
    def _param_names(cls) -> tuple[str, ...]:
        sig = inspect.signature(cls.__init__)
        return tuple(name for name in sig.parameters if name != "self")

    def scores(self, X) -> np.ndarray:
        raise NotImplementedError

    def score_row(self, x: np.ndarray) -> float:
        """`scores` of one checked float64 feature vector, as a one-row X;
        overrides must return the same float bit for bit."""
        return float(self.scores(x.reshape(1, -1))[0])


def check_fit_inputs(X, y) -> tuple[np.ndarray, np.ndarray]:
    """X as a finite float64 matrix (a 1-d X is one column) with at least one
    row and column, and y as a finite float64 vector of one entry per row."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-dimensional, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise NonFiniteInput("X contains non-finite entries")
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
        """X.mean(axis=0) and X.std(axis=0) in their exact steps, without their per-call overhead."""
        mean = np.add.reduce(X, 0, keepdims=True) / X.shape[0]
        d = X - mean
        std = np.sqrt(np.add.reduce(np.square(d, out=d), 0) / X.shape[0])
        self.scaler_mean_, self.scaler_scale_ = mean[0], np.where(std > 0, std, 1.0)
        return self.standardize(X)

    def standardize(self, X: np.ndarray) -> np.ndarray:
        return (X - self.scaler_mean_) / self.scaler_scale_


def last_axis_mean(A: np.ndarray) -> np.ndarray:
    """np.mean(A, axis=-1) in its exact steps, a sum reduction and a division by the count, without its
    per-call overhead."""
    return np.add.reduce(A, -1) / A.shape[-1]


def classify_from_scores(scores: np.ndarray) -> np.ndarray:
    """Map decision scores to labels: positive is up, ties resolve down."""
    return np.where(scores > 0, UP, DOWN).astype(np.int8)
