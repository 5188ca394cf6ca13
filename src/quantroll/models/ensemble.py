"""Bootstrap ensembles of CART trees: bagging and random forests."""
from __future__ import annotations

import numpy as np

from .base import Estimator, check_fit_inputs, check_class_labels, classify_from_scores
from .tree import DecisionTreeClassifier, DecisionTreeRegressor


def _resolve_max_features(setting: str, width: int) -> int | None:
    if setting == "all":
        return None
    if setting == "sqrt":
        return max(1, int(np.sqrt(width)))
    if setting == "log2":
        return max(1, int(np.log2(width)))
    raise ValueError(f"unknown max_features {setting!r}")


class _ForestBase(Estimator):
    """Shared bootstrap machinery; member i seeds from seed + i."""

    task = "classifier"
    member_cls: type

    def __init__(
        self,
        n_members: int = 25,
        max_depth: int | None = None,
        min_samples_leaf: int = 1,
        bootstrap: bool = True,
        max_features: str = "all",
        seed: int = 0,
    ):
        self.n_members = n_members
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.bootstrap = bootstrap
        self.max_features = max_features
        self.seed = seed

    def fit(self, X, y):
        X, y = check_fit_inputs(X, y)
        if self.task == "classifier":
            y = check_class_labels(y).astype(np.float64)
        m = _resolve_max_features(self.max_features, X.shape[1])
        n = X.shape[0]
        self.members_ = []
        for i in range(self.n_members):
            rng = np.random.default_rng(np.random.PCG64(self.seed + i))
            if self.bootstrap:
                idx = rng.integers(0, n, size=n)
                Xs, ys = X[idx], y[idx]
            else:
                Xs, ys = X, y
            tree = self.member_cls(self.max_depth, self.min_samples_leaf, seed=self.seed + i)
            tree._fit_tree(Xs, ys, rng=rng, max_features=m)  # splits draw after the bootstrap
            self.members_.append(tree)
        return self

    def _member_predictions(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        return np.stack([t.predict(X) for t in self.members_])


class _ForestClassifierBase(_ForestBase):
    task = "classifier"
    member_cls = DecisionTreeClassifier

    def decision_function(self, X) -> np.ndarray:
        votes = self._member_predictions(X).astype(np.float64)
        return votes.mean(axis=0) / 2.0

    def predict(self, X) -> np.ndarray:
        return classify_from_scores(self.decision_function(X))


class _ForestRegressorBase(_ForestBase):
    task = "regressor"
    member_cls = DecisionTreeRegressor

    def predict(self, X) -> np.ndarray:
        return self._member_predictions(X).mean(axis=0)


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
