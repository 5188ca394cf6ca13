"""Bootstrap ensembles of CART trees: bagging and random forests."""
from __future__ import annotations

import numpy as np

from .base import classify_from_scores
from .tree import GINI, VARIANCE, _Grown


class _ForestBase(_Grown):
    """Member i draws its bootstrap, then its splits, from seed + i."""

    def __init__(
        self, n_members: int = 25, max_depth: int | None = None, min_samples_leaf: int = 1, bootstrap: bool = True,
        max_features: str = "all", seed: int = 0,
    ):
        self.n_members = n_members
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.bootstrap = bootstrap
        self.max_features = max_features
        self.seed = seed


class _ForestClassifierBase(_ForestBase):
    criterion = GINI

    def decision_function(self, X) -> np.ndarray:
        return self.member_predictions(X).astype(np.float64).mean(axis=0) / 2.0  # up share of the votes - 0.5

    def predict(self, X) -> np.ndarray:
        return classify_from_scores(self.decision_function(X))


class _ForestRegressorBase(_ForestBase):
    criterion = VARIANCE

    def predict(self, X) -> np.ndarray:
        return self.member_predictions(X).mean(axis=0)


class BaggingClassifier(_ForestClassifierBase):
    """Bootstrap-aggregated CART trees over the full feature set."""

    def __init__(self, n_members=25, max_depth=None, min_samples_leaf=1, bootstrap=True, seed=0):
        super().__init__(n_members, max_depth, min_samples_leaf, bootstrap, "all", seed)


class BaggingRegressor(_ForestRegressorBase):
    def __init__(self, n_members=25, max_depth=None, min_samples_leaf=1, bootstrap=True, seed=0):
        super().__init__(n_members, max_depth, min_samples_leaf, bootstrap, "all", seed)


class RandomForestClassifier(_ForestClassifierBase):
    """Bagging plus optional per-split feature subsampling (max_features)."""


class RandomForestRegressor(_ForestRegressorBase):
    pass
