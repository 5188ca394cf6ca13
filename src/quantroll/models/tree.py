"""CART trees and forests: exhaustive (classic) and random-threshold (extra) splits.

One grower builds all members of a forest together; a tree is a forest of one. Each member keeps a
stack of open nodes. Each step takes all of a member's open nodes if it draws no random numbers
after its bootstrap (exhaustive splits over all features), else only its next node in depth-first
preorder, so every member draws in the order of recursive left-first growth. The exhaustive split
search of the taken nodes is one padded pass over (node, feature, sorted row) cells, at most
_BATCH_CELLS cells at a time, largest nodes first. It rounds as a per-node search does: +inf padding
sorts after a node's rows, prefix sums are sequential, and means and variances reduce equal-size
nodes stacked along the last axis. Fitted trees are flat node arrays with one root per member;
prediction walks all members for all rows together, one level per vectorised step.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from ..direction import DOWN, UP
from .base import Estimator, check_fit_inputs, check_class_labels

GINI = "gini"
VARIANCE = "variance"
_BATCH_CELLS = 1 << 12  # padded cells per scan: keeps its ~12 temporaries near 32 kB each
_LOCKSTEP = 32  # members grown together


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


def _mean_var(Y: np.ndarray):
    """np.mean and np.var along the last axis, in their exact steps but without their per-call overhead."""
    n = Y.shape[-1]
    mean = np.add.reduce(Y, axis=-1) / n
    d = Y - mean[..., None]
    return mean, np.add.reduce(d * d, axis=-1) / n


def variance_impurity(y: np.ndarray) -> float:
    if y.size == 0:
        return 0.0
    return float(_mean_var(y)[1])


def _node_impurity(y: np.ndarray, criterion: str) -> float:
    return gini_impurity(y) if criterion == GINI else variance_impurity(y)


def _scan(Xb: np.ndarray, Yb: np.ndarray, n: np.ndarray, parent, centre, criterion: str, min_leaf: int):
    """Best midpoint split of each padded node: (column, threshold, decrease), no split if decrease <= 0.

    Xb is (nodes, columns, width), Yb (nodes, width): node k's n[k] rows, then
    +inf in Xb and 0 in Yb. centre is each node's mean y. Ties resolve to the
    lowest column, then the lowest threshold.
    """
    B, F, N = Xb.shape
    k = np.arange(B)
    order = np.argsort(Xb, axis=2, kind="stable")
    xs = Xb[k[:, None, None], np.arange(F)[:, None], order]
    ys = Yb[k[:, None, None], order]
    size = n.astype(np.float64)[:, None, None]
    n_left = np.arange(1, N, dtype=np.float64)
    n_right = size - n_left
    valid = (xs[:, :, 1:] != xs[:, :, :-1]) & (n_left >= min_leaf) & (n_right >= max(min_leaf, 1))
    with np.errstate(divide="ignore", invalid="ignore"):  # padded cells have n_right <= 0
        if criterion == GINI:
            up = np.cumsum(ys == UP, axis=2)  # padding is 0, so the last column is the node's count
            p_l = up[:, :, :-1] / n_left
            p_r = (up[:, :, -1:] - up[:, :, :-1]) / n_right
            child = n_left * (2.0 * p_l * (1.0 - p_l)) + n_right * (2.0 * p_r * (1.0 - p_r))
        else:
            yc = ys - centre[:, None, None]  # centering cuts cancellation in the squared sums
            s = np.cumsum(yc, axis=2)
            s2 = np.cumsum(yc * yc, axis=2)
            s_tot, s2_tot = s[k, :, n - 1][:, :, None], s2[k, :, n - 1][:, :, None]
            s, s2 = s[:, :, :-1], s2[:, :, :-1]
            var_l = np.maximum(s2 / n_left - (s / n_left) ** 2, 0.0)
            var_r = np.maximum((s2_tot - s2) / n_right - ((s_tot - s) / n_right) ** 2, 0.0)
            child = n_left * var_l + n_right * var_r
        decrease = parent[:, None, None] - child / size
    decrease[~valid] = -np.inf
    col, pos = np.divmod(np.argmax(decrease.reshape(B, -1), axis=1), N - 1)
    lo, hi = xs[k, col, pos], xs[k, col, pos + 1]
    mid = (lo + hi) / 2.0
    return col, np.where(mid >= hi, lo, mid), decrease[k, col, pos]  # adjacent floats: the threshold is lo


def _random_split(X, y, criterion: str, parent: float, min_leaf: int, rng, features) -> Split | None:
    """One uniform threshold per non-constant feature, drawn in feature order; the largest decrease wins."""
    Xf = X[:, features]
    lo, hi = Xf.min(axis=0), Xf.max(axis=0)
    spread = np.flatnonzero(lo != hi)
    thresholds = rng.uniform(lo[spread], hi[spread])
    left = Xf[:, spread] <= thresholds
    n = X.shape[0]
    best: Split | None = None
    for j, n_l in enumerate(left.sum(axis=0).tolist()):
        if n_l < min_leaf or n - n_l < min_leaf:
            continue
        mask = left[:, j]
        child = n_l * _node_impurity(y[mask], criterion) + (n - n_l) * _node_impurity(y[~mask], criterion)
        decrease = parent - child / n
        if decrease > 0.0 and (best is None or decrease > best.decrease):
            best = Split(int(features[spread[j]]), float(thresholds[j]), float(decrease))
    return best


def cart_best_split(
    X, y, criterion: str = GINI, candidate_mode: str = "exhaustive", rng: np.random.Generator | int | None = None,
    min_leaf: int = 1, feature_subset: np.ndarray | None = None,
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
    features = np.arange(X.shape[1]) if feature_subset is None else np.asarray(feature_subset)
    if X.shape[0] < 2 or features.size == 0:
        return None
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(np.random.PCG64(0 if rng is None else rng))
    parent = _node_impurity(y, criterion)
    if candidate_mode == "random":
        return _random_split(X, y, criterion, parent, min_leaf, rng, features)
    if candidate_mode != "exhaustive":
        raise ValueError(f"unknown candidate_mode {candidate_mode!r}")
    Xb, n = X[:, features].T[None], np.array([X.shape[0]])
    col, threshold, best = _scan(Xb, y[None], n, np.array([parent]), np.array([y.mean()]), criterion, min_leaf)
    return Split(int(features[col[0]]), float(threshold[0]), float(best[0])) if best[0] > 0.0 else None


@dataclass(frozen=True)
class FlatTrees:
    """Fitted trees as flat node arrays; member i's root is node roots[i].

    Node j's children are left[j] and left[j] + 1, and feature[j] is -1 at a leaf. value is a node's
    mean target (up share under Gini) and label its majority class, ties down.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    value: np.ndarray
    label: np.ndarray
    roots: np.ndarray

    def leaves(self, X) -> np.ndarray:
        """(members, rows) index of the leaf each member sends each row of X to."""
        X = np.asarray(X, dtype=np.float64)
        rows = np.arange(X.shape[0])
        node = np.repeat(self.roots[:, None], X.shape[0], axis=1)
        while True:
            feature = self.feature[node]
            inner = feature >= 0
            if not inner.any():
                return node
            go_left = X[rows, feature] <= self.threshold[node]
            node = np.where(inner, self.left[node] + ~go_left, node)


def _node_stats(y_pad: np.ndarray, R: np.ndarray, sizes: list, criterion: str):
    """Impurity and mean target (up share under Gini) of the rows in R; sizes must be non-increasing."""
    if criterion == GINI:
        p_up = (y_pad[R] == UP).sum(axis=1) / np.array(sizes)
        return 1.0 - p_up * p_up - (1.0 - p_up) * (1.0 - p_up), p_up
    impurity, mean = np.empty(len(sizes)), np.empty(len(sizes))
    start = 0
    for size, run in itertools.groupby(sizes):  # equal sizes reduce together, rounding as one node does
        stop = start + len(list(run))
        mean[start:stop], impurity[start:stop] = _mean_var(y_pad[R[start:stop, :size]])
        start = stop
    return impurity, mean


def grow_forest(
    X: np.ndarray, y: np.ndarray, criterion: str, seeds: range, bootstrap: bool = False,
    max_features: int | None = None, max_depth: int | None = None, min_leaf: int = 1, random_split: bool = False,
) -> FlatTrees:
    """Grow one tree per seed, which draws the tree's bootstrap sample of X's rows, then its splits."""
    n_rows, width = X.shape
    subsample = max_features is not None and max_features < width
    XT = np.concatenate([X.T, np.full((width, 1), np.inf)], axis=1)  # row index n_rows is padding
    y_pad = np.append(y, 0.0)
    depth_cap = np.inf if max_depth is None else max_depth
    min_split = max(2, 2 * min_leaf)
    n_nodes = len(seeds)  # node i is member i's root
    grown = []  # (nodes, features, thresholds, left children, values) of each batch

    def grow(taken):
        nonlocal n_nodes
        taken.sort(key=lambda node: -len(node[3]))  # largest first, so each batch pads little
        while taken:
            batch = taken[: max(1, _BATCH_CELLS // (width * len(taken[0][3])))]
            del taken[: len(batch)]
            members, ids, depths, rows = zip(*batch)
            sizes = [len(r) for r in rows]
            R = np.full((len(batch), sizes[0]), n_rows)
            for k, r in enumerate(rows):
                R[k, : sizes[k]] = r
            parent, mean = _node_stats(y_pad, R, sizes, criterion)
            n = np.array(sizes)
            cand = np.flatnonzero((n >= min_split) & (np.array(depths) < depth_cap) & (parent != 0.0))
            cols = np.arange(width)[None].repeat(cand.size, axis=0)
            if subsample:
                cols = np.array([np.sort(rngs[members[k]].choice(width, max_features, replace=False)) for k in cand])
            feature, threshold = np.full(len(batch), -1), np.zeros(len(batch))
            if random_split:
                for k, kc in zip(cand.tolist(), cols):
                    found = _random_split(X[rows[k]], y[rows[k]], criterion, parent[k], min_leaf, rngs[members[k]], kc)
                    if found is not None:
                        feature[k], threshold[k] = found.feature, found.threshold
            elif cand.size:
                Rc = R[cand, : sizes[cand[0]]]
                Xc = XT[cols[:, :, None], Rc[:, None, :]]
                col, thr, best = _scan(Xc, y_pad[Rc], n[cand], parent[cand], mean[cand], criterion, min_leaf)
                ok = best > 0.0
                feature[cand[ok]], threshold[cand[ok]] = cols[ok, col[ok]], thr[ok]
            split = np.flatnonzero(feature >= 0)
            left = np.full(len(batch), -1)
            left[split] = n_nodes + 2 * np.arange(split.size)
            n_nodes += 2 * split.size
            grown.append((np.array(ids), feature, threshold, left, mean))
            if not split.size:
                continue
            go_left = XT[feature[split, None], R[split]] <= threshold[split, None]  # padding is +inf: never left
            Rs = R[split[:, None], np.argsort(~go_left, axis=1, kind="stable")]  # left rows, then right, in order
            n_left = go_left.sum(axis=1).tolist()
            for j, (k, nl, child) in enumerate(zip(split.tolist(), n_left, left[split].tolist())):
                m, d = members[k], depths[k] + 1
                for node in (m, child + 1, d, Rs[j, nl : sizes[k]].copy()), (m, child, d, Rs[j, :nl].copy()):
                    (stacks[m] if len(node[3]) >= min_split and d < depth_cap else final).append(node)

    for first in range(0, len(seeds), _LOCKSTEP):  # members grow together in groups, which bounds memory
        rngs, stacks, final = [], [], []  # stacks hold (member in group, node, depth, rows)
        for j, seed in enumerate(seeds[first : first + _LOCKSTEP]):
            rng = np.random.default_rng(np.random.PCG64(seed))
            stacks.append([(j, first + j, 0, rng.integers(0, n_rows, size=n_rows) if bootstrap else np.arange(n_rows))])
            rngs.append(rng if random_split or subsample else None)  # a generator holds ~4.5 kB
        while any(stacks):
            if random_split or subsample:  # members that draw grow one node at a time, in preorder
                grow([stack.pop() for stack in stacks if stack])
            else:  # the others grow all their open nodes, level by level
                taken, stacks = [node for stack in stacks for node in stack], [[] for _ in stacks]
                grow(taken)
        grow(final)  # the children too small or too deep to split, as leaves in one pass
    ids, feature, threshold, left, value = (np.concatenate(part) for part in zip(*grown))
    at = np.argsort(ids)
    label = np.where(value[at] > 0.5, UP, DOWN).astype(np.int8)  # ties resolve down
    return FlatTrees(feature[at], threshold[at], left[at], value[at], label, np.arange(len(seeds)))


def _resolve_max_features(setting: str, width: int) -> int | None:
    if setting == "all":
        return None
    if setting == "sqrt":
        return max(1, int(np.sqrt(width)))
    if setting == "log2":
        return max(1, int(np.log2(width)))
    raise ValueError(f"unknown max_features {setting!r}")


class _Grown(Estimator):
    """The fit shared by trees and forests: member i grows from seed + i."""

    criterion: str
    candidate_mode = "exhaustive"
    n_members, bootstrap, max_features = 1, False, "all"  # a single tree is a forest of one

    def fit(self, X, y):
        X, y = check_fit_inputs(X, y)
        if self.criterion == GINI:
            y = check_class_labels(y).astype(np.float64)
        self.trees_ = grow_forest(
            X, y, self.criterion, range(self.seed, self.seed + self.n_members), self.bootstrap,
            _resolve_max_features(self.max_features, X.shape[1]), self.max_depth, self.min_samples_leaf,
            self.candidate_mode == "random",
        )
        return self

    def member_predictions(self, X) -> np.ndarray:
        """(n_members, rows): each member's label (Gini) or value (variance)."""
        leaves = self.trees_.leaves(X)
        return (self.trees_.label if self.criterion == GINI else self.trees_.value)[leaves]


class _TreeBase(_Grown):
    def __init__(self, max_depth: int | None = None, min_samples_leaf: int = 1, seed: int = 0):
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.seed = seed

    def predict(self, X) -> np.ndarray:
        return self.member_predictions(X)[0]


class DecisionTreeClassifier(_TreeBase):
    """CART with exhaustive Gini splits."""

    criterion = GINI

    def decision_function(self, X) -> np.ndarray:
        return self.trees_.value[self.trees_.leaves(X)[0]] - 0.5


class DecisionTreeRegressor(_TreeBase):
    """CART with exhaustive variance-reduction splits."""

    criterion = VARIANCE


class ExtraTreeClassifier(DecisionTreeClassifier):
    """One uniform random threshold per candidate feature instead of a scan."""

    candidate_mode = "random"


class ExtraTreeRegressor(DecisionTreeRegressor):
    candidate_mode = "random"
