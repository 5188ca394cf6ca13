"""CART trees and forests: exhaustive (classic) and random-threshold (extra) splits.

One grower builds all members of a forest together as one array frontier; a tree is a forest of one. Member
m's rows fill slice m of one (members x rows) index array, a node is a row of a node table (member, slice,
depth, id), and a split stably partitions its node's slice into its left rows, then its right rows. Each step
takes all open nodes of members that draw nothing after their bootstrap, and of the others each member's
leftmost open node, its next in depth-first preorder, so every member draws in the order of recursive
left-first growth. One stable sort by size orders the taken nodes, largest first, into padded batches of at
most _BATCH_CELLS (node, column, row) cells. The search rounds as a per-node search does: +inf padding sorts
after a node's rows, prefix sums are sequential, and means and variances reduce equal-size nodes stacked
along the last axis. Fitted trees are flat node arrays with one root per member, in which a leaf is its own
child; prediction moves all rows through all members together in exactly as many vectorised steps as the
deepest leaf's depth, with no test for which rows have arrived.

A member's draws depend only on its seed, the row count and the settings, never on X or y, so a
caller that refits on equal-length windows may pass one memo dict to every fit: the first fit
stores each member's bootstrap rows and generator in it, later fits reuse them and draw the same
numbers. A member that draws nothing (no bootstrap, subsampling or random split) builds no generator.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from ..direction import DOWN, UP
from .base import Estimator, last_axis_mean

GINI = "gini"
VARIANCE = "variance"
_BATCH_CELLS = 1 << 12  # padded cells per scan: keeps its ~12 temporaries near 32 kB each


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
    mean = last_axis_mean(Y)
    d = Y - mean[..., None]
    return mean, last_axis_mean(d * d)


def variance_impurity(y: np.ndarray) -> float:
    if y.size == 0:
        return 0.0
    return float(_mean_var(y)[1])


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
    """One uniform threshold per non-constant feature, drawn in feature order; the largest decrease wins.
    All are scored in one pass, each child's impurity rounding as on that child alone."""
    Xf = X[:, features]
    lo, hi = np.minimum.reduce(Xf), np.maximum.reduce(Xf)
    spread = (lo != hi).nonzero()[0]
    thresholds = rng.uniform(lo[spread], hi[spread])
    if not spread.size:
        return None
    left = Xf[:, spread] <= thresholds
    sides = np.concatenate([left, ~left], axis=1)  # (rows, children): each threshold's left child, then right
    size, n = sides.sum(axis=0), X.shape[0]
    if criterion == GINI:
        impurity = _node_stats(np.where(sides.T, y, 0.0), np.maximum(size, 1), GINI)[0]  # an empty child's is 0
    else:  # largest children first, each child's targets first, in order
        by_size, impurity = np.argsort(-size, kind="stable"), np.empty(size.size)
        Y = y[np.argsort(~sides[:, by_size], axis=0, kind="stable").T]
        impurity[by_size] = _node_stats(Y, np.maximum(size[by_size], 1), VARIANCE)[0]  # one row has variance 0
    child = size * impurity
    decrease = parent - (child[: spread.size] + child[spread.size :]) / n
    decrease[(size[: spread.size] < min_leaf) | (size[spread.size :] < min_leaf) | ~(decrease > 0.0)] = -np.inf
    j = int(np.argmax(decrease))  # the first of equal decreases, as a strict > over the features keeps
    return Split(int(features[spread[j]]), float(thresholds[j]), float(decrease[j])) if decrease[j] > -np.inf else None


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
    parent = float(_node_stats(y[None], np.array([y.size]), criterion)[0][0])
    if candidate_mode == "random":
        return _random_split(X, y, criterion, parent, min_leaf, rng, features)
    if candidate_mode != "exhaustive":
        raise ValueError(f"unknown candidate_mode {candidate_mode!r}")
    Xb, n = X[:, features].T[None], np.array([X.shape[0]])
    col, threshold, best = _scan(Xb, y[None], n, np.array([parent]), np.array([y.mean()]), criterion, min_leaf)
    return Split(int(features[col[0]]), float(threshold[0]), float(best[0])) if best[0] > 0.0 else None


@dataclass(frozen=True)
class FlatTrees:
    """Fitted trees as flat node arrays; member i's root is node roots[i], and no leaf is deeper than depth.

    A row goes from node j to child[j, x[feature[j]] <= threshold[j]]: child[j] holds j's right child, then its
    left one, and a leaf's holds the leaf itself twice. feature[j] is -1 at a leaf. value is a node's mean
    target (up share under Gini) and label its majority class, ties down.
    """

    feature: np.ndarray
    threshold: np.ndarray
    child: np.ndarray
    value: np.ndarray
    label: np.ndarray
    roots: np.ndarray
    depth: int

    def leaves(self, X) -> np.ndarray:
        """(rows, members) index of the leaf each member sends each row of X to, in C order."""
        X = np.asarray(X, dtype=np.float64)
        rows = np.arange(X.shape[0])[:, None]
        node = np.repeat(self.roots[None], X.shape[0], axis=0)
        for _ in range(self.depth):  # a NaN fails the <= test and goes right
            node = self.child[node, (X[rows, self.feature[node]] <= self.threshold[node]).view(np.int8)]
        return node


def _node_stats(Y: np.ndarray, n: np.ndarray, criterion: str):
    """Impurity and mean (Gini: up share) of each row's first n[k] targets, then non-UP padding; variances need n
    non-increasing."""
    if criterion == GINI:
        p_up = (Y == UP).sum(axis=1) / n  # the padding after a node's targets is never UP
        return 1.0 - p_up * p_up - (1.0 - p_up) * (1.0 - p_up), p_up
    impurity, mean, start = np.empty(n.size), np.empty(n.size), 0
    for size, run in itertools.groupby(n.tolist()):  # equal sizes reduce together, rounding as one node does
        stop = start + len(list(run))
        mean[start:stop], impurity[start:stop] = _mean_var(Y[start:stop, :size])
        start = stop
    return impurity, mean


class _Draws:
    """A member's draws from its seed: its bootstrap rows, then, if it draws while it grows, its
    generator. A random-split member's generator restarts from `start`, its state once the rows are
    drawn, at every fit. A subsampling member's generator sits just after the last of `subsets`,
    the sorted column subsets drawn so far in preorder; each fit replays them before drawing more."""

    __slots__ = ("rows", "rng", "start", "subsets", "used")

    def __init__(self, seed: int, n_rows: int, bootstrap: bool, random_split: bool, subsample: bool):
        rng = np.random.default_rng(np.random.PCG64(seed))
        self.rows = rng.integers(0, n_rows, size=n_rows) if bootstrap else np.arange(n_rows)
        self.rows.flags.writeable = False
        self.rng = rng if random_split or subsample else None  # a generator holds ~0.9 kB
        self.start = rng.bit_generator.state if random_split else None
        self.subsets, self.used = [], 0  # used: the subsets this fit has taken

    def subset(self, width: int, max_features: int) -> np.ndarray:
        if self.used == len(self.subsets):
            self.subsets.append(np.sort(self.rng.choice(width, max_features, replace=False)))
        self.used += 1
        return self.subsets[self.used - 1]


MEMBER, LO, HI, DEPTH, ID = range(5)  # node table columns; a node's rows are rows[LO:HI] in grow_forest


def grow_forest(
    X: np.ndarray, y: np.ndarray, criterion: str, seeds: range, bootstrap: bool = False,
    max_features: int | None = None, max_depth: int | None = None, min_leaf: int = 1, random_split: bool = False,
    memo: dict | None = None,
) -> FlatTrees:
    """Grow one tree per seed, which draws the tree's bootstrap sample of X's rows, then its splits.

    Random splits draw their thresholds over all columns, never with column subsampling: the random-split
    members the estimators grow are single, bootstrap-free, all-column trees. memo, if given, keeps each
    member's draws (keyed by seed, row count and settings) for later calls.
    """
    n_rows, width = X.shape
    subsample = max_features is not None and max_features < width
    if random_split and subsample:
        raise ValueError("random splits draw over all columns")
    key = ("tree", n_rows, bootstrap, random_split, max_features if subsample else None, width)  # + seed
    memo = {} if memo is None else memo
    members = [None] * len(seeds)  # each member's _Draws, or None if it draws nothing
    for i, seed in enumerate(seeds if bootstrap or subsample or random_split else ()):
        member = members[i] = memo.get(key + (seed,))
        if member is None:
            member = members[i] = memo[key + (seed,)] = _Draws(seed, n_rows, bootstrap, random_split, subsample)
        elif random_split:
            member.rng.bit_generator.state = member.start
        member.used = 0
    pad = len(members) * n_rows  # rows[pad] pads; member m's rows sit at [m * n_rows, (m + 1) * n_rows)
    rows = np.append(np.concatenate([m.rows for m in members]) if bootstrap else np.arange(pad) % n_rows, n_rows)
    XT, y_pad = np.concatenate([X.T, np.full((width, 1), np.inf)], axis=1), np.append(y, 0.0)  # row n_rows pads
    depth_cap, min_split = np.inf if max_depth is None else max_depth, max(2, 2 * min_leaf)
    scanned = max_features if subsample else width  # the columns a split searches
    means, splits = [], []  # of each batch: (nodes, means) and (split nodes, features, thresholds, child rows)
    n_nodes, depth = len(members), 0  # node i is member i's root
    roots = np.arange(n_nodes)
    nodes = roots[:, None] * (1, n_rows, n_rows, 0, 1) + (0, 0, n_rows, 0, 0)  # the roots, by position in rows
    while len(nodes):  # each step takes all nodes, level by level, but members that draw while they grow
        taken, children = nodes, [nodes[:0]]  # take each one's leftmost open node, its next in preorder
        if random_split or subsample:
            open_ = ((nodes[:, HI] - nodes[:, LO] >= min_split) & (nodes[:, DEPTH] < depth_cap)).nonzero()[0]
            if open_.size:  # else the leaves, which wait for this last step
                member, take = nodes[open_, MEMBER], np.zeros(len(nodes), dtype=bool)
                take[open_[member != np.concatenate([[-1], member])[:-1]] if len(members) > 1 else open_[:1]] = True
                taken, children = nodes[take], [nodes[~take]]
        size = taken[:, HI] - taken[:, LO]
        if len(taken) > 1:  # largest first, _BATCH_CELLS padded cells at a time
            order = np.argsort(-size, kind="stable")
            taken, size = taken[order], size[order]
        sizes, b = size.tolist(), 0
        while b < len(sizes):
            a, b = b, min(len(sizes), b + max(1, _BATCH_CELLS // (scanned * sizes[b])))
            T, n, j = taken[a:b], size[a:b], np.arange(sizes[a])
            at = T[:, LO, None] + j  # each node's positions in rows, then the padding row's
            at[j >= n[:, None]] = pad
            R = rows[at]
            Y = y_pad[R]
            parent, mean = _node_stats(Y, n, criterion)
            means.append((T[:, ID].copy(), mean))  # a view would keep the whole table alive
            cand = ((n >= min_split) & (T[:, DEPTH] < depth_cap) & (parent != 0.0)).nonzero()[0]
            if not cand.size:
                continue
            if random_split:
                found = []
                for k in cand.tolist():
                    r, rng = R[k, : n[k]], members[T[k, MEMBER]].rng
                    best = _random_split(X[r], y[r], criterion, parent[k], min_leaf, rng, np.arange(width))
                    if best is not None:
                        found.append((k, best.feature, best.threshold))
                split, feature, threshold = map(np.array, zip(*found)) if found else (cand[:0],) * 3
            else:
                w, cols = n[cand[0]], np.arange(width)[None].repeat(cand.size, axis=0)
                if subsample:
                    cols = np.array([members[m].subset(width, max_features) for m in T[cand, MEMBER].tolist()])
                Xc = XT[cols[:, :, None], R[cand, None, :w]]
                col, thr, best = _scan(Xc, Y[cand, :w], n[cand], parent[cand], mean[cand], criterion, min_leaf)
                ok = best > 0.0
                split, feature, threshold = cand[ok], cols[ok, col[ok]], thr[ok]
            go_left = XT[feature[:, None], R[split]] <= threshold[:, None]  # padding is +inf: never left
            rows[at[split]] = R[split[:, None], np.argsort(~go_left, axis=1, kind="stable")]  # left rows, then right
            kids = T[split].repeat(2, axis=0)  # each split node's left child, then its right
            kids[0::2, HI] = kids[1::2, LO] = kids[0::2, LO] + go_left.sum(axis=1)
            kids[:, DEPTH] += 1
            kids[:, ID] = np.arange(n_nodes, n_nodes + 2 * split.size)
            n_nodes += 2 * split.size
            splits.append((T[split, ID], feature, threshold, kids[:, ID].reshape(-1, 2)[:, ::-1]))  # right, left
            depth = max(depth, int(kids[:, DEPTH].max(initial=0)))
            children.insert(-1, kids)  # before the open nodes left, so a lone member's stay in preorder
        nodes = np.concatenate(children)
        if len(members) > 1 and (random_split or subsample):
            nodes = nodes[np.argsort(nodes[:, LO])]
    value, feature, threshold = np.empty(n_nodes), np.full(n_nodes, -1), np.zeros(n_nodes)
    child = np.arange(n_nodes)[:, None].repeat(2, axis=1)  # a leaf is its own child on both sides
    for ids, mean in means:
        value[ids] = mean
    for ids, *split in splits:
        feature[ids], threshold[ids], child[ids] = split
    label = np.where(value > 0.5, UP, DOWN).astype(np.int8)  # ties resolve down
    return FlatTrees(feature, threshold, child, value, label, roots, depth)


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

    def fit(self, X, y, memo: dict | None = None):
        """memo: see grow_forest; it is read and filled, never kept."""
        self.trees_ = grow_forest(
            X, y, self.criterion, range(self.seed, self.seed + self.n_members), self.bootstrap,
            _resolve_max_features(self.max_features, X.shape[1]), self.max_depth, self.min_samples_leaf,
            self.candidate_mode == "random", memo,
        )
        return self

    def member_predictions(self, X) -> np.ndarray:
        """(rows, members), C order: each member's label (Gini) or value (variance)."""
        leaves = self.trees_.leaves(X)
        return (self.trees_.label if self.criterion == GINI else self.trees_.value)[leaves]


class _TreeBase(_Grown):
    def __init__(self, max_depth: int | None = None, min_samples_leaf: int = 1, seed: int = 0):
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.seed = seed

    def scores(self, X) -> np.ndarray:
        return self.member_predictions(X)[:, 0]


class DecisionTreeClassifier(_TreeBase):
    """CART with exhaustive Gini splits."""

    criterion = GINI

    def scores(self, X) -> np.ndarray:
        return self.trees_.value[self.trees_.leaves(X)[:, 0]] - 0.5


class DecisionTreeRegressor(_TreeBase):
    """CART with exhaustive variance-reduction splits."""

    criterion = VARIANCE


class ExtraTreeClassifier(DecisionTreeClassifier):
    """One uniform random threshold per candidate feature instead of a scan."""

    candidate_mode = "random"


class ExtraTreeRegressor(DecisionTreeRegressor):
    candidate_mode = "random"
