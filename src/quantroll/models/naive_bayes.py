"""Bernoulli naive Bayes over median-binarized continuous features."""
from __future__ import annotations

import numpy as np

from ..direction import UP
from .base import Estimator, check_fit_inputs, class_label_set, classify_from_scores


class BernoulliNBClassifier(Estimator):
    """Features binarize at their training medians (strictly above -> 1).

    Likelihoods are Laplace-smoothed with `alpha`; priors are empirical.
    Only classes present in training are scored, so a single-class window
    degenerates gracefully to a constant predictor. A row's score depends on
    its binarized pattern alone, so `score_row` memoizes it per pattern: at
    most 2**width entries per fit.
    """

    def __init__(self, alpha: float = 1.0):
        self.alpha = alpha

    def fit(self, X, y) -> "BernoulliNBClassifier":
        X, y = check_fit_inputs(X, y)
        labels = class_label_set(y)
        y = y.astype(np.int8)
        self.medians_ = np.median(X, axis=0)
        B = self._binarize(X)
        self.classes_ = np.array(sorted(labels, reverse=True), dtype=np.int8)  # UP first
        self.up_column_ = list(self.classes_).index(UP) if UP in self.classes_ else None
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

    def predict_proba_up(self, X) -> np.ndarray:
        log_post = self._log_posteriors(X)
        if self.classes_.size == 1:
            return np.full(log_post.shape[0], 1.0 if self.classes_[0] == UP else 0.0)
        shifted = log_post - log_post.max(axis=1, keepdims=True)
        probs = np.exp(shifted)
        probs /= probs.sum(axis=1, keepdims=True)
        return probs[:, self.up_column_] if self.up_column_ is not None else np.zeros(log_post.shape[0])

    def decision_function(self, X) -> np.ndarray:
        return self.predict_proba_up(X) - 0.5

    def predict(self, X) -> np.ndarray:
        return classify_from_scores(self.decision_function(X))

    def score_row(self, x: np.ndarray) -> float:
        pattern = (x > self.medians_).tobytes()
        score = self.pattern_scores_.get(pattern)
        if score is None:
            score = self.pattern_scores_[pattern] = super().score_row(x)
        return score
