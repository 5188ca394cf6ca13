"""Linear models: normal-equation OLS/ridge, gradient-descent losses, perceptron."""
from __future__ import annotations

import numpy as np

from ..direction import DOWN, UP
from .base import Estimator, StandardizerMixin


def _augment(X: np.ndarray) -> np.ndarray:
    Xa = np.empty((X.shape[0], X.shape[1] + 1))
    Xa[:, 0] = 1.0
    Xa[:, 1:] = X
    return Xa


def _augmented_row(x: np.ndarray, mean: np.ndarray | None = None, scale: np.ndarray | None = None) -> np.ndarray:
    """One feature vector as a fresh (1, d + 1) row, intercept first; standardized
    as (x - mean) / scale when a scaler is given."""
    row = np.empty((1, x.size + 1))
    row[0, 0] = 1.0
    body = row[0, 1:]
    if mean is None:
        body[:] = x
    else:
        np.subtract(x, mean, body)
        np.divide(body, scale, body)
    return row


def _solve_normal_equations(X_aug: np.ndarray, y: np.ndarray, lam: float) -> np.ndarray:
    # lstsq keeps the solve total when X'X is singular (constant features are
    # routine inside tiny rolling windows); with lam > 0 the system is definite.
    gram = X_aug.T @ X_aug + lam * np.eye(X_aug.shape[1])
    weights, *_ = np.linalg.lstsq(gram, X_aug.T @ y, rcond=None)
    return weights


class _Linear(Estimator):
    """Scores are margins: each intercept-augmented row's own dot with weights_, as in `_row_margin`."""

    def scores(self, X) -> np.ndarray:
        return np.vecdot(_augment(np.asarray(X, dtype=np.float64)), self.weights_)

    def _row_margin(self, x: np.ndarray) -> np.ndarray:
        """The (1,) margin of one checked row, bit for bit its margin as a one-row X."""
        return _augmented_row(x).dot(self.weights_)

    def score_row(self, x: np.ndarray) -> float:
        return self._row_margin(x).item()


class Ridge(_Linear):
    """Ridge regression on an intercept-augmented design; a classifier fits it
    on the +1/-1 targets."""

    def __init__(self, lam: float = 1.0):
        self.lam = lam

    def fit(self, X, y, memo: dict | None = None) -> "Ridge":
        self.weights_ = _solve_normal_equations(_augment(X), y, self.lam)
        return self


class OLSRegressor(Ridge):
    """Ordinary least squares: ridge at lam = 0."""

    def __init__(self):
        self.lam = 0.0


class _GradientDescent(_Linear, StandardizerMixin):
    """Mini-batch gradient descent over standardized features.

    Each epoch draws one seeded permutation of the rows; the mini-batches are
    consecutive slices of it. The permutations depend only on the seed, the
    row count and the epochs, so a memo dict passed to fit keeps them for later
    fits. Subclasses define the derivative of the per-margin loss in terms of a
    per-row target factor.
    """

    def __init__(self, learning_rate: float = 0.01, epochs: int = 100, batch_size: int = 32, seed: int = 0):
        self.learning_rate = learning_rate
        self.epochs = epochs
        self.batch_size = batch_size
        self.seed = seed

    def _target_factor(self, y: np.ndarray) -> np.ndarray:
        """The per-row factor `_dloss_dmargin` reads."""
        return y

    def _dloss_dmargin(self, margins: np.ndarray, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def fit(self, X, y, memo: dict | None = None) -> "_GradientDescent":
        """memo, if given, is read and filled with the epochs' permutations, never kept."""
        t = self._target_factor(y)
        Xz = _augment(self._fit_scaler(X))
        n, width = Xz.shape
        w = np.zeros(width)
        key = ("gd", self.seed, n, self.epochs)
        orders = None if memo is None else memo.get(key)
        if orders is None:
            rng = np.random.default_rng(np.random.PCG64(self.seed))
            orders = (rng.permutation(n) for _ in range(self.epochs))
            if memo is not None:
                orders = memo[key] = tuple(orders)
        batch = min(self.batch_size, n)
        # Each epoch gathers its permutation into Xo/to once; the batch views
        # into them are made once per fit. The batch size and the rate are 0-d
        # arrays, which numpy dispatches faster than Python floats, and the rate
        # multiplies from the right (exact: multiplication commutes).
        Xo, to = np.empty_like(Xz), np.empty_like(t)
        batches = [(Xo[s : s + batch], to[s : s + batch], np.array(float(min(batch, n - s)))) for s in range(0, n, batch)]
        dloss, lr = self._dloss_dmargin, np.array(float(self.learning_rate))
        for order in orders:
            Xz.take(order, 0, Xo)
            t.take(order, out=to)
            for Xb, tb, size in batches:
                w = w - Xb.T.dot(dloss(Xb.dot(w), tb)) / size * lr
        self.weights_ = w
        return self

    def scores(self, X) -> np.ndarray:
        return np.vecdot(_augment(self.standardize(np.asarray(X, dtype=np.float64))), self.weights_)

    def _row_margin(self, x: np.ndarray) -> np.ndarray:
        return _augmented_row(x, self.scaler_mean_, self.scaler_scale_).dot(self.weights_)


class LogisticClassifier(_GradientDescent):
    """Binary logistic regression; decision score is probability(up) - 0.5."""

    def __init__(self, learning_rate: float = 0.1, epochs: int = 100, batch_size: int = 32, seed: int = 0):
        super().__init__(learning_rate, epochs, batch_size, seed)

    def _target_factor(self, y):
        return 0.5 * y

    _one = np.array(1.0)  # a 0-d operand dispatches faster than a Python float

    def _dloss_dmargin(self, margins, half_y):
        # d/dm log(1 + exp(-y m)) = -y * sigmoid(-y m); tanh form avoids overflow
        return half_y * (np.tanh(half_y * margins) - self._one)

    def scores(self, X) -> np.ndarray:
        return 0.5 * (1.0 + np.tanh(0.5 * super().scores(X))) - 0.5

    def score_row(self, x: np.ndarray) -> float:
        # tanh stays numpy's; the affine tail after it is exact in Python floats
        t = np.tanh(0.5 * self._row_margin(x)).item()
        return 0.5 * (1.0 + t) - 0.5


class SGDClassifier(_GradientDescent):
    """Hinge-loss linear classifier trained with mini-batch gradient descent."""

    def _target_factor(self, y):
        return -y

    def _dloss_dmargin(self, margins, neg_y):
        # hinge: -y where y * m < 1, written on -y (negation is exact)
        return np.where(neg_y * margins > -1.0, neg_y, 0.0)


class SGDRegressor(_GradientDescent):
    """Squared-loss linear regressor trained with mini-batch gradient descent."""

    def _dloss_dmargin(self, margins, y):
        return margins - y


class PerceptronClassifier(_Linear):
    """Rosenblatt's mistake-driven updates, swept in row order each epoch."""

    def __init__(self, learning_rate: float = 1.0, epochs: int = 100):
        self.learning_rate = learning_rate
        self.epochs = epochs

    def fit(self, X, y, memo: dict | None = None) -> "PerceptronClassifier":
        Xa = _augment(X)
        w = np.zeros(Xa.shape[1])
        # yi * m <= 0 is m <= 0 for an up row and m >= 0 for a down row, for +-0, +-inf and NaN alike
        rows = [(xi.dot, yi > 0, self.learning_rate * yi * xi) for yi, xi in zip(y.tolist(), Xa)]
        for _ in range(self.epochs):
            mistakes = 0
            for dot, up, update in rows:
                m = dot(w)
                if m <= 0.0 if up else m >= 0.0:
                    w += update
                    mistakes += 1
            if mistakes == 0:
                break
        self.weights_ = w
        return self


class ConstantClassifier(Estimator):
    """Degenerate-window fallback: always predicts one class at score +/-0.5."""

    def __init__(self, label: int = DOWN):
        self.label = label

    def scores(self, X) -> np.ndarray:
        n = np.asarray(X).shape[0]
        return np.full(n, 0.5 if self.label == UP else -0.5)


class ConstantRegressor(Estimator):
    """Degenerate-window fallback: always predicts the training-mean target."""

    def __init__(self, value: float = 0.0):
        self.value = value

    def scores(self, X) -> np.ndarray:
        return np.full(np.asarray(X).shape[0], self.value)
