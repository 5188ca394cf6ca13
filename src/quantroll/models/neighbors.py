"""k-nearest-neighbour models over standardized training rows."""
from __future__ import annotations

import numpy as np

from .base import Estimator, StandardizerMixin, last_axis_mean


class _KNNBase(Estimator, StandardizerMixin):
    def __init__(self, k: int = 5):
        self.k = k

    def fit(self, X, y, memo: dict | None = None) -> "_KNNBase":
        self.rows_ = self._fit_scaler(X)
        self.targets_ = y
        return self

    def _neighbor_targets(self, X) -> np.ndarray:
        """Targets of the k nearest stored rows per query, k capped at n.

        Distance ties resolve to the lower stored index (stable sort).
        """
        Xz = self.standardize(np.asarray(X, dtype=np.float64))
        k = min(self.k, self.rows_.shape[0])
        d2 = np.add.reduce((Xz[:, None, :] - self.rows_[None, :, :]) ** 2, 2)
        order = d2.argsort(axis=1, kind="stable")[:, :k]
        return self.targets_[order]


class KNNClassifier(_KNNBase):
    """Vote of the k nearest neighbours; the score is the up-share minus 0.5."""

    def scores(self, X) -> np.ndarray:
        return last_axis_mean(self._neighbor_targets(X)) / 2.0


class KNNRegressor(_KNNBase):
    """Mean target of the k nearest neighbours."""

    def scores(self, X) -> np.ndarray:
        return last_axis_mean(self._neighbor_targets(X))
