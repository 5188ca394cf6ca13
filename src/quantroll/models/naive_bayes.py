"""Bernoulli naive Bayes over median-binarized continuous features."""
from __future__ import annotations

import numpy as np

from ..direction import DOWN, UP
from .base import Estimator


class BernoulliNBClassifier(Estimator):
    """Features binarize at their training medians (strictly above -> 1).

    Likelihoods are Laplace-smoothed with `alpha`; priors are empirical.
    A row's score depends on its binarized pattern alone, so `score_row`
    memoizes it per pattern: at most 2**width entries per fit.
    """

    def __init__(self, alpha: float = 1.0):
        self.alpha = alpha

    def fit(self, X, y, memo: dict | None = None) -> "BernoulliNBClassifier":
        self.medians_ = np.median(X, axis=0)
        B = self._binarize(X)
        self.classes_ = np.array([UP, DOWN], dtype=np.int8)
        log_prior, log_p1, log_p0 = [], [], []
        for cls in self.classes_:
            rows = B[y == cls]
            n_c = rows.shape[0]
            p1 = (rows.sum(axis=0) + self.alpha) / (n_c + 2.0 * self.alpha)
            log_prior.append(np.log(n_c / B.shape[0]))
            log_p1.append(np.log(p1))
            log_p0.append(np.log(1.0 - p1))
        self.log_prior_ = np.array(log_prior)
        self.log_p1_ = np.array(log_p1)
        self.log_p0_ = np.array(log_p0)
        self.pattern_scores_: dict[bytes, float] = {}
        return self

    def _binarize(self, X: np.ndarray) -> np.ndarray:
        return (np.asarray(X, dtype=np.float64) > self.medians_).astype(np.float64)

    def _log_posteriors(self, X) -> np.ndarray:
        B = self._binarize(X)
        return self.log_prior_ + B @ self.log_p1_.T + (1.0 - B) @ self.log_p0_.T

    def scores(self, X) -> np.ndarray:
        """Posterior probability of up, minus 0.5."""
        log_post = self._log_posteriors(X)
        shifted = log_post - log_post.max(axis=1, keepdims=True)
        probs = np.exp(shifted)
        probs /= probs.sum(axis=1, keepdims=True)
        return probs[:, 0] - 0.5  # classes_ puts UP first

    def score_row(self, x: np.ndarray) -> float:
        pattern = (x > self.medians_).tobytes()
        score = self.pattern_scores_.get(pattern)
        if score is None:
            score = self.pattern_scores_[pattern] = super().score_row(x)
        return score
