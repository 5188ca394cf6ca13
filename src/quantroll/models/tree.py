"""CART decision trees: exhaustive (classic) and random-threshold (extra) splits.

Split search is vectorized per feature with prefix statistics over the sorted
column, so node cost stays O(n log n) per feature.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..direction import DOWN, UP
from .base import Estimator, check_fit_inputs, check_class_labels

GINI = "gini"
VARIANCE = "variance"


@dataclass(frozen=True)
class Split:
    feature: int
    threshold: float
    decrease: float


def gini_impurity(y: np.ndarray) -> float:
    if y.size == 0:
        return 0.0
    p_up = float(np.count_nonzero(y == UP)) / y.size
    return 1.0 - p_up * p_up - (1.0 - p_up) * (1.0 - p_up)


def variance_impurity(y: np.ndarray) -> float:
    if y.size == 0:
        return 0.0
    return float(np.var(y))


def _node_impurity(y: np.ndarray, criterion: str) -> float:
    return gini_impurity(y) if criterion == GINI else variance_impurity(y)


def _scan_exhaustive(X: np.ndarray, y: np.ndarray, criterion: str, parent: float, min_leaf: int, features):
    """Best midpoint split over the given feature columns, or None.

    All columns are scanned in one matrix pass. Candidates run in ascending
    threshold order per column and columns in ascending feature order, so
    ties resolve to the lowest feature index, then the lowest threshold.
    """
    n = X.shape[0]
    Xf = X[:, features]
    order = np.argsort(Xf, axis=0, kind="stable")
    xs = np.take_along_axis(Xf, order, axis=0)
    ys = y[order]
    boundary = xs[1:] != xs[:-1]
    n_left = np.arange(1, n, dtype=np.float64)[:, None]
    n_right = n - n_left
    valid = boundary & (n_left >= min_leaf) & (n_right >= min_leaf)
    if not valid.any():
        return None

    if criterion == GINI:
        up_left = np.cumsum(ys == UP, axis=0)[:-1].astype(np.float64)
        p_l = up_left / n_left
        p_r = (float(np.count_nonzero(y == UP)) - up_left) / n_right
        child = n_left * (2.0 * p_l * (1.0 - p_l)) + n_right * (2.0 * p_r * (1.0 - p_r))
    else:
        yc = ys - y.mean()  # centering cuts cancellation in the squared sums
        s = np.cumsum(yc, axis=0)
        s2 = np.cumsum(yc * yc, axis=0)
        s_tot, s2_tot = s[-1], s2[-1]
        s, s2 = s[:-1], s2[:-1]
        var_l = np.maximum(s2 / n_left - (s / n_left) ** 2, 0.0)
        var_r = np.maximum((s2_tot - s2) / n_right - ((s_tot - s) / n_right) ** 2, 0.0)
        child = n_left * var_l + n_right * var_r

    decrease = parent - child / n
    decrease[~valid] = -np.inf
    flat = int(np.argmax(decrease.T))  # row-major over (feature, position): lowest feature wins ties
    col, pos = divmod(flat, n - 1)
    best = float(decrease[pos, col])
    if best <= 0.0:
        return None
    lo, hi = xs[pos, col], xs[pos + 1, col]
    threshold = (lo + hi) / 2.0
    if threshold >= hi:  # adjacent floats: keep the left side closed at lo
        threshold = lo
    return int(features[col]), float(threshold), best


def _random_feature_split(x: np.ndarray, y: np.ndarray, criterion: str, parent: float, min_leaf: int, rng):
    lo, hi = x.min(), x.max()
    if lo == hi:
        return None
    threshold = float(rng.uniform(lo, hi))
    mask = x <= threshold
    n_l = int(np.count_nonzero(mask))
    n_r = x.size - n_l
    if n_l < min_leaf or n_r < min_leaf:
        return None
    child = n_l * _node_impurity(y[mask], criterion) + n_r * _node_impurity(y[~mask], criterion)
    decrease = parent - child / x.size
    if decrease <= 0.0:
        return None
    return threshold, float(decrease)


def _best_split(X, y, criterion: str, candidate_mode: str, rng, min_leaf: int, features, parent: float):
    """cart_best_split on prepared inputs, given the node's impurity."""
    if candidate_mode == "exhaustive":
        found = _scan_exhaustive(X, y, criterion, parent, min_leaf, features)
        return None if found is None else Split(*found)
    if candidate_mode != "random":
        raise ValueError(f"unknown candidate_mode {candidate_mode!r}")
    best: Split | None = None
    for f in features:
        found = _random_feature_split(X[:, f], y, criterion, parent, min_leaf, rng)
        if found is not None and (best is None or found[1] > best.decrease):
            best = Split(int(f), found[0], found[1])
    return best


def cart_best_split(
    X,
    y,
    criterion: str = GINI,
    candidate_mode: str = "exhaustive",
    rng: np.random.Generator | int | None = None,
    min_leaf: int = 1,
    feature_subset: np.ndarray | None = None,
) -> Split | None:
    """Best (feature, threshold, impurity decrease) for this node, or None.

    Exhaustive mode scans midpoints of consecutive sorted distinct values;
    random mode draws one uniform threshold per feature inside its observed
    range. Ties resolve to the lowest feature index, then lowest threshold.
    None means the node should become a leaf.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    if X.shape[0] < 2:
        return None
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(np.random.PCG64(0 if rng is None else rng))
    features = np.arange(X.shape[1]) if feature_subset is None else np.asarray(feature_subset)
    return _best_split(X, y, criterion, candidate_mode, rng, min_leaf, features, _node_impurity(y, criterion))


@dataclass
class _Node:
    feature: int = -1
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None
    # leaf payload
    value: float = 0.0   # regression mean or classifier up-share
    label: int = 0

    @property
    def is_leaf(self) -> bool:
        return self.left is None


class _TreeBase(Estimator):
    criterion: str
    candidate_mode = "exhaustive"

    def __init__(self, max_depth: int | None = None, min_samples_leaf: int = 1, seed: int = 0):
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.seed = seed

    def _leaf(self, y: np.ndarray) -> _Node:
        raise NotImplementedError

    def _grow(self, X: np.ndarray, y: np.ndarray, depth: int, rng, max_features: int | None) -> _Node:
        n = X.shape[0]
        if n < 2 or n < 2 * self.min_samples_leaf or (self.max_depth is not None and depth >= self.max_depth):
            return self._leaf(y)
        parent = _node_impurity(y, self.criterion)
        if parent == 0.0:
            return self._leaf(y)
        features = np.arange(X.shape[1])
        if max_features is not None and max_features < X.shape[1]:
            features = np.sort(rng.choice(X.shape[1], size=max_features, replace=False))
        split = _best_split(X, y, self.criterion, self.candidate_mode, rng, self.min_samples_leaf, features, parent)
        if split is None:
            return self._leaf(y)
        mask = X[:, split.feature] <= split.threshold
        node = _Node(feature=split.feature, threshold=split.threshold)
        node.left = self._grow(X[mask], y[mask], depth + 1, rng, max_features)
        node.right = self._grow(X[~mask], y[~mask], depth + 1, rng, max_features)
        return node

    def _fit_tree(self, X: np.ndarray, y: np.ndarray, rng=None, max_features: int | None = None) -> None:
        """Grow from checked inputs; rng defaults to a fresh stream from self.seed."""
        if rng is None:
            rng = np.random.default_rng(np.random.PCG64(self.seed))
        self.root_ = self._grow(X, y, 0, rng, max_features)

    def _leaf_for(self, x: np.ndarray) -> _Node:
        node = self.root_
        while not node.is_leaf:
            node = node.left if x[node.feature] <= node.threshold else node.right
        return node


class DecisionTreeClassifier(_TreeBase):
    """CART with exhaustive Gini splits."""

    criterion = GINI

    def _leaf(self, y: np.ndarray) -> _Node:
        up_share = float(np.count_nonzero(y == UP)) / y.size
        label = UP if up_share > 0.5 else DOWN  # ties resolve down
        return _Node(value=up_share, label=label)

    def fit(self, X, y):
        X, y = check_fit_inputs(X, y)
        self._fit_tree(X, check_class_labels(y).astype(np.float64))
        return self

    def decision_function(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        return np.array([self._leaf_for(row).value - 0.5 for row in X])

    def predict(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        return np.array([self._leaf_for(row).label for row in X], dtype=np.int8)


class DecisionTreeRegressor(_TreeBase):
    """CART with exhaustive variance-reduction splits."""

    criterion = VARIANCE

    def _leaf(self, y: np.ndarray) -> _Node:
        return _Node(value=float(y.mean()))

    def fit(self, X, y):
        X, y = check_fit_inputs(X, y)
        self._fit_tree(X, y)
        return self

    def predict(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        return np.array([self._leaf_for(row).value for row in X])


class ExtraTreeClassifier(DecisionTreeClassifier):
    """One uniform random threshold per candidate feature instead of a scan."""

    candidate_mode = "random"


class ExtraTreeRegressor(DecisionTreeRegressor):
    candidate_mode = "random"
