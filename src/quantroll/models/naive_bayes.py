"""Bernoulli naive Bayes over median-binarized continuous features."""
from __future__ import annotations

import numpy as np

from ..direction import DOWN, UP
from .base import Estimator


class BernoulliNBClassifier(Estimator):
    """Features binarize at their training medians (strictly above -> 1).

    Likelihoods are Laplace-smoothed with `alpha`; priors are empirical.
    A row's score depends on its binarized pattern alone, so `score_row`
    computes it once per pattern and memoizes it: at most 2**width one-row
    posteriors per fit. `scores` returns each row's `score_row`.
    """

    def __init__(self, alpha: float = 1.0):
        self.alpha = alpha

    def fit(self, X, y, memo: dict | None = None) -> "BernoulliNBClassifier":
        self.medians_ = np.median(X, axis=0)
        B = X > self.medians_
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

    def scores(self, X) -> np.ndarray:
        """Posterior probability of up, minus 0.5."""
        return np.array([self.score_row(x) for x in np.asarray(X, dtype=np.float64)], dtype=np.float64)

    def score_row(self, x: np.ndarray) -> float:
        pattern = x > self.medians_
        key = pattern.tobytes()
        score = self.pattern_scores_.get(key)
        if score is None:
            b = pattern[None].astype(np.float64)  # one (1, width) row: the products reduce it as one row alone
            log_post = (self.log_prior_ + b @ self.log_p1_.T + (1.0 - b) @ self.log_p0_.T)[0]
            probs = np.exp(log_post - log_post.max())
            score = self.pattern_scores_[key] = float(probs[0] / (probs[0] + probs[1])) - 0.5  # classes_: UP first
        return score
