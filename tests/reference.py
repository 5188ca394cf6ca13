"""Straight-line pure-Python reference implementations used as test oracles.

These stay deliberately independent of the package internals: plain lists,
plain loops, no numpy vectorization, so a bug in the production path cannot
hide in a shared helper.
"""
import csv
import io
import math

import numpy as np

from quantroll.candles import CSV_HEADER, CandleSeries, _check_rows
from quantroll.direction import direction_name
from quantroll.errors import MalformedRow
from quantroll.models import CLASSIFIER, fit, predict_class, predict_value, task_of
from quantroll.walkforward import GLOBAL, TRAILING, PredictionSeries

NAN = float("nan")


def ref_acc_dist(bars):
    """bars: list of (o, h, l, c, v) tuples."""
    out = []
    ad = 0.0
    for _o, h, l, c, v in bars:
        clv = 0.0 if h == l else ((c - l) - (h - c)) / (h - l)
        ad = ad + clv * v
        out.append(ad)
    return out


def ref_mfi(bars, period):
    n = len(bars)
    tp = [(h + l + c) / 3.0 for _o, h, l, c, _v in bars]
    raw = [tp[i] * bars[i][4] for i in range(n)]
    pos, neg = [], []
    for i in range(1, n):
        if tp[i] > tp[i - 1]:
            pos.append(raw[i])
            neg.append(0.0)
        elif tp[i] < tp[i - 1]:
            pos.append(0.0)
            neg.append(raw[i])
        else:
            pos.append(0.0)
            neg.append(0.0)
    out = [NAN] * n
    for t in range(period, n):
        ps = sum(pos[t - period : t])
        ns = sum(neg[t - period : t])
        out[t] = 100.0 * ps / (ps + ns) if ps + ns > 0 else 50.0
    return out


def ref_bollinger(bars, period, k):
    closes = [c for _o, _h, _l, c, _v in bars]
    n = len(closes)
    middle = [NAN] * n
    upper = [NAN] * n
    lower = [NAN] * n
    bandwidth = [NAN] * n
    for t in range(period - 1, n):
        window = closes[t - period + 1 : t + 1]
        m = sum(window) / period
        var = sum((x - m) ** 2 for x in window) / period
        sd = math.sqrt(var)
        middle[t] = m
        upper[t] = m + k * sd
        lower[t] = m - k * sd
        bandwidth[t] = (upper[t] - lower[t]) / m
    return middle, upper, lower, bandwidth


def ref_keltner_width(bars, ema_period, atr_period, mult):
    n = len(bars)
    tp = [(h + l + c) / 3.0 for _o, h, l, c, _v in bars]

    ema = [NAN] * n
    ema[ema_period - 1] = sum(tp[:ema_period]) / ema_period
    alpha = 2.0 / (ema_period + 1.0)
    for t in range(ema_period, n):
        ema[t] = ema[t - 1] + alpha * (tp[t] - ema[t - 1])

    tr = [NAN] * n
    for t in range(1, n):
        _o, h, l, _c, _v = bars[t]
        pc = bars[t - 1][3]
        tr[t] = max(h - l, abs(h - pc), abs(l - pc))
    atr = [NAN] * n
    atr[atr_period] = sum(tr[1 : atr_period + 1]) / atr_period
    for t in range(atr_period + 1, n):
        atr[t] = (atr[t - 1] * (atr_period - 1) + tr[t]) / atr_period

    warmup = max(ema_period, atr_period)
    out = [NAN] * n
    for t in range(warmup, n):
        out[t] = (2.0 * mult * atr[t]) / ema[t]
    return out


def ref_parabolic_sar(bars, af_start, af_step, af_max):
    """Returns (sar list, trend list with +1/-1 and 0 at index 0, flip indices)."""
    n = len(bars)
    highs = [h for _o, h, _l, _c, _v in bars]
    lows = [l for _o, _h, l, _c, _v in bars]
    closes = [c for _o, _h, _l, c, _v in bars]

    sar = [NAN] * n
    trend = [0] * n
    flips = []

    up = closes[1] >= closes[0]
    sar[1] = lows[0] if up else highs[0]
    trend[1] = 1 if up else -1
    ep = max(highs[0], highs[1]) if up else min(lows[0], lows[1])
    af = af_start

    for t in range(2, n):
        cand = sar[t - 1] + af * (ep - sar[t - 1])
        if up:
            cand = min(cand, lows[t - 1], lows[t - 2])
            if lows[t] < cand:
                up = False
                flips.append(t)
                sar[t] = ep
                ep = lows[t]
                af = af_start
            else:
                sar[t] = cand
                if highs[t] > ep:
                    ep = highs[t]
                    af = min(af + af_step, af_max)
        else:
            cand = max(cand, highs[t - 1], highs[t - 2])
            if highs[t] > cand:
                up = True
                flips.append(t)
                sar[t] = ep
                ep = highs[t]
                af = af_start
            else:
                sar[t] = cand
                if lows[t] < ep:
                    ep = lows[t]
                    af = min(af + af_step, af_max)
        trend[t] = 1 if up else -1
    return sar, trend, flips


def ref_log_returns(closes):
    out = [NAN]
    for i in range(1, len(closes)):
        out.append(math.log(closes[i]) - math.log(closes[i - 1]))
    return out


def ref_sharpe(returns, rf, periods_per_year):
    n = len(returns)
    mean = sum(returns) / n
    var = sum((r - mean) ** 2 for r in returns) / (n - 1)
    sd = math.sqrt(var)
    return (mean - rf / periods_per_year) / sd * math.sqrt(periods_per_year)


def ref_confusion(y_true, y_pred):
    tp = fp = fn = tn = 0
    for t, p in zip(y_true, y_pred):
        if t == 1 and p == 1:
            tp += 1
        elif t != 1 and p == 1:
            fp += 1
        elif t == 1 and p != 1:
            fn += 1
        else:
            tn += 1
    return tp, fp, fn, tn


def ref_classification_metrics(y_true, y_pred):
    tp, fp, fn, tn = ref_confusion(y_true, y_pred)
    n = tp + fp + fn + tn
    accuracy = (tp + tn) / n
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return accuracy, precision, recall, f1


def ref_regression_errors(y_true, y_pred):
    n = len(y_true)
    mae = sum(abs(p - t) for t, p in zip(y_true, y_pred)) / n
    mse = sum((p - t) ** 2 for t, p in zip(y_true, y_pred)) / n
    return mae, mse, math.sqrt(mse)


def ref_r_squared(y_true, y_pred):
    n = len(y_true)
    mean = sum(y_true) / n
    ss_tot = sum((t - mean) ** 2 for t in y_true)
    ss_res = sum((t - p) ** 2 for t, p in zip(y_true, y_pred))
    return 1.0 - ss_res / ss_tot


def ref_line_r2(ys):
    """R^2 of the OLS line of ys against 0..n-1, via explicit fitted residuals."""
    n = len(ys)
    xs = list(range(n))
    xm = sum(xs) / n
    ym = sum(ys) / n
    sxy = sum((x - xm) * (y - ym) for x, y in zip(xs, ys))
    sxx = sum((x - xm) ** 2 for x in xs)
    slope = sxy / sxx
    intercept = ym - slope * xm
    ss_res = sum((y - (intercept + slope * x)) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - ym) ** 2 for y in ys)
    return 1.0 - ss_res / ss_tot


def ref_simulate(positions, simple_returns, fee_bps):
    """Returns (equity list, n_trades)."""
    fee = fee_bps / 1e4
    prev = 0
    equity = []
    total = 0.0
    trades = 0
    for pos, ret in zip(positions, simple_returns):
        step = pos * ret
        if pos != prev:
            step -= fee
            trades += 1
        total += step
        equity.append(total)
        prev = pos
    return equity, trades


# --- CART trees and forests -------------------------------------------------
#
# A recursive, one-node-at-a-time CART grower: the oracle for the batched
# flat-array forests. Unlike the references above it uses numpy, because the
# property it pins is bit identity: plain Python sums would round differently
# from the numpy reductions both sides share.

UP, DOWN = 1, -1


def ref_impurity(y, criterion):
    if y.size == 0:
        return 0.0
    if criterion == "gini":
        p_up = float(np.count_nonzero(y == UP)) / y.size
        return 1.0 - p_up * p_up - (1.0 - p_up) * (1.0 - p_up)
    return float(np.var(y))


def ref_scan_exhaustive(X, y, criterion, parent, min_leaf, features):
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
    if criterion == "gini":
        up_left = np.cumsum(ys == UP, axis=0)[:-1].astype(np.float64)
        p_l = up_left / n_left
        p_r = (float(np.count_nonzero(y == UP)) - up_left) / n_right
        child = n_left * (2.0 * p_l * (1.0 - p_l)) + n_right * (2.0 * p_r * (1.0 - p_r))
    else:
        yc = ys - y.mean()
        s = np.cumsum(yc, axis=0)
        s2 = np.cumsum(yc * yc, axis=0)
        s_tot, s2_tot = s[-1], s2[-1]
        s, s2 = s[:-1], s2[:-1]
        var_l = np.maximum(s2 / n_left - (s / n_left) ** 2, 0.0)
        var_r = np.maximum((s2_tot - s2) / n_right - ((s_tot - s) / n_right) ** 2, 0.0)
        child = n_left * var_l + n_right * var_r
    decrease = parent - child / n
    decrease[~valid] = -np.inf
    flat = int(np.argmax(decrease.T))
    col, pos = divmod(flat, n - 1)
    best = float(decrease[pos, col])
    if best <= 0.0:
        return None
    lo, hi = xs[pos, col], xs[pos + 1, col]
    threshold = (lo + hi) / 2.0
    if threshold >= hi:
        threshold = lo
    return int(features[col]), float(threshold)


def ref_random_split(X, y, criterion, parent, min_leaf, rng, features):
    best = None
    for f in features:
        x = X[:, f]
        lo, hi = x.min(), x.max()
        if lo == hi:
            continue
        threshold = float(rng.uniform(lo, hi))
        mask = x <= threshold
        n_l = int(np.count_nonzero(mask))
        n_r = x.size - n_l
        if n_l < min_leaf or n_r < min_leaf:
            continue
        child = n_l * ref_impurity(y[mask], criterion) + n_r * ref_impurity(y[~mask], criterion)
        decrease = parent - child / x.size
        if decrease > 0.0 and (best is None or decrease > best[2]):
            best = (int(f), threshold, float(decrease))
    return None if best is None else best[:2]


class RefNode:
    def __init__(self, feature=-1, threshold=0.0, left=None, right=None, value=0.0, label=0):
        self.feature, self.threshold, self.left, self.right = feature, threshold, left, right
        self.value, self.label = value, label


def _ref_leaf(y, criterion):
    if criterion == "gini":
        up_share = float(np.count_nonzero(y == UP)) / y.size
        return RefNode(value=up_share, label=UP if up_share > 0.5 else DOWN)
    return RefNode(value=float(y.mean()))


def ref_grow(X, y, depth, rng, criterion, random_split, max_depth, min_leaf, max_features):
    """Recursive left-first CART growth; returns the root RefNode."""
    n = X.shape[0]
    if n < 2 or n < 2 * min_leaf or (max_depth is not None and depth >= max_depth):
        return _ref_leaf(y, criterion)
    parent = ref_impurity(y, criterion)
    if parent == 0.0:
        return _ref_leaf(y, criterion)
    features = np.arange(X.shape[1])
    if max_features is not None and max_features < X.shape[1]:
        features = np.sort(rng.choice(X.shape[1], size=max_features, replace=False))
    if random_split:
        found = ref_random_split(X, y, criterion, parent, min_leaf, rng, features)
    else:
        found = ref_scan_exhaustive(X, y, criterion, parent, min_leaf, features)
    if found is None:
        return _ref_leaf(y, criterion)
    feature, threshold = found
    mask = X[:, feature] <= threshold
    args = (depth + 1, rng, criterion, random_split, max_depth, min_leaf, max_features)
    return RefNode(feature, threshold, ref_grow(X[mask], y[mask], *args), ref_grow(X[~mask], y[~mask], *args))


def ref_leaf_for(root, x):
    node = root
    while node.left is not None:
        node = node.left if x[node.feature] <= node.threshold else node.right
    return node


def ref_tree_roots(kind, X, y, params, seed):
    """The root RefNode of each member of one tree or forest kind, grown the recursive way.

    y holds +1/-1 labels for the _c kinds. params are the kind's
    hyperparameters as the estimators take them.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    criterion = "gini" if kind.endswith("_c") else "variance"
    max_depth = params.get("max_depth")
    min_leaf = params.get("min_samples_leaf", 1)
    if kind.startswith(("decision_tree", "extra_tree")):
        rng = np.random.default_rng(np.random.PCG64(seed))
        roots = [ref_grow(X, y, 0, rng, criterion, kind.startswith("extra"), max_depth, min_leaf, None)]
    else:
        setting = params.get("max_features", "all")
        width = X.shape[1]
        max_features = {
            "all": None, "sqrt": max(1, int(np.sqrt(width))), "log2": max(1, int(np.log2(width))),
        }[setting]
        roots = []
        for i in range(params.get("n_members", 25)):
            rng = np.random.default_rng(np.random.PCG64(seed + i))
            if params.get("bootstrap", True):
                idx = rng.integers(0, X.shape[0], size=X.shape[0])
                Xs, ys = X[idx], y[idx]
            else:
                Xs, ys = X, y
            roots.append(ref_grow(Xs, ys, 0, rng, criterion, False, max_depth, min_leaf, max_features))
    return roots


def ref_tree_kind(kind, X, y, Xq, params, seed):
    """(predict, decision_function or None) of one tree or forest kind, fitted the recursive way."""
    Xq = np.asarray(Xq, dtype=np.float64)
    criterion = "gini" if kind.endswith("_c") else "variance"
    roots = ref_tree_roots(kind, X, y, params, seed)
    if len(roots) == 1 and kind.startswith(("decision_tree", "extra_tree")):
        leaves = [ref_leaf_for(roots[0], row) for row in Xq]
        if criterion == "gini":
            return (
                np.array([leaf.label for leaf in leaves], dtype=np.int8),
                np.array([leaf.value - 0.5 for leaf in leaves]),
            )
        return np.array([leaf.value for leaf in leaves]), None
    if criterion == "gini":
        votes = np.stack([np.array([ref_leaf_for(r, row).label for row in Xq], dtype=np.int8) for r in roots])
        scores = votes.astype(np.float64).mean(axis=0) / 2.0
        return np.where(scores > 0, UP, DOWN).astype(np.int8), scores
    values = np.stack([np.array([ref_leaf_for(r, row).value for row in Xq]) for r in roots])
    return np.array([np.mean(values[:, q]) for q in range(len(Xq))]), None  # each row's members alone


def ref_augment(X):
    """Intercept column first, as np.column_stack builds it."""
    return np.column_stack([np.ones(X.shape[0]), X])


def ref_standardize_fit(X):
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    scale = np.where(std > 0, std, 1.0)
    return (X - mean) / scale


def ref_gd_weights(kind, X, y, learning_rate, epochs, batch_size, seed):
    """Mini-batch GD as one gather of Xz[rows] and y[rows] per batch."""
    dloss = {
        "logistic_c": lambda m, y: -y * 0.5 * (1.0 - np.tanh(0.5 * y * m)),
        "sgd_c": lambda m, y: np.where(y * m < 1.0, -y, 0.0),
        "sgd_r": lambda m, y: m - y,
    }[kind]
    Xz = ref_augment(ref_standardize_fit(np.asarray(X, dtype=np.float64)))
    y = np.asarray(y, dtype=np.float64)
    n = Xz.shape[0]
    w = np.zeros(Xz.shape[1])
    rng = np.random.default_rng(np.random.PCG64(seed))
    batch = min(batch_size, n)
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch):
            rows = order[start : start + batch]
            margins = Xz[rows] @ w
            grad = Xz[rows].T @ dloss(margins, y[rows]) / rows.size
            w = w - learning_rate * grad
    return w


def ref_perceptron_weights(X, y, learning_rate, epochs):
    """Rosenblatt updates indexing Xa[i] and y[i] row by row."""
    Xa = ref_augment(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64)
    w = np.zeros(Xa.shape[1])
    for _ in range(epochs):
        mistakes = 0
        for i in range(Xa.shape[0]):
            if y[i] * (Xa[i] @ w) <= 0:
                w = w + learning_rate * y[i] * Xa[i]
                mistakes += 1
        if mistakes == 0:
            break
    return w


def ref_row_score(kind, est, x):
    """One-row decision score (classifiers) or value (regressors) of a fitted
    linear, GD or naive-Bayes estimator; None for the other kinds."""
    row = np.asarray(x, dtype=np.float64).reshape(1, -1)
    if kind in ("ols_r", "ridge_r", "ridge_c", "perceptron_c"):
        return float((ref_augment(row) @ est.weights_)[0])
    if kind in ("logistic_c", "sgd_c", "sgd_r"):
        m = ref_augment((row - est.scaler_mean_) / est.scaler_scale_) @ est.weights_
        if kind == "logistic_c":
            return float((0.5 * (1.0 + np.tanh(0.5 * m)) - 0.5)[0])
        return float(m[0])
    if kind == "bernoulli_nb_c":
        B = (row > est.medians_).astype(np.float64)
        log_post = est.log_prior_ + B @ est.log_p1_.T + (1.0 - B) @ est.log_p0_.T
        if est.classes_.size == 1:
            return (1.0 if est.classes_[0] == UP else 0.0) - 0.5
        probs = np.exp(log_post - log_post.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        return float(probs[0, list(est.classes_).index(UP)]) - 0.5
    return None


def ref_run_walkforward(view, spec, config, train_view=None):
    """The walk-forward loop storing each step's direction, score and value
    into preallocated numpy arrays; fits and predicts through the package."""
    parent = view.parent
    X = parent.frame.rows
    task = task_of(spec.kind)
    y_train = parent.class_target if task == CLASSIFIER else parent.reg_target
    if config.mode == GLOBAL:
        eval_indices = view.indices
        model = fit(spec, X[train_view.indices], y_train[train_view.indices])
    else:
        eval_indices = view.indices[view.indices >= parent.valid_from + config.window]
    n = eval_indices.size
    direction = np.zeros(n, dtype=np.int8)
    score = np.zeros(n)
    value = np.full(n, np.nan)
    for i, t in enumerate(eval_indices):
        if config.mode == TRAILING and i % config.retrain_stride == 0:
            lo = int(t) - config.window
            model = fit(spec, X[lo:t], y_train[lo:t])
        if task == CLASSIFIER:
            direction[i], score[i] = predict_class(model, X[t])
        else:
            v = predict_value(model, X[t])
            value[i] = v
            score[i] = v
            direction[i] = UP if v > 0 else DOWN
    return PredictionSeries(
        task, parent.timestamps[eval_indices].copy(), direction, score, value,
        parent.class_target[eval_indices].copy(), parent.reg_target[eval_indices].copy(),
    )


def ref_dead_band(values, threshold):
    """Regressor positions: the sign of the last value outside the band, else 0."""
    out = []
    current = 0
    for v in values:
        if v > threshold:
            current = 1
        elif v < -threshold:
            current = -1
        out.append(current)
    return out


# Per-kind hyperparameter tables as they stood when each kind kept its own:
# every name a kind accepts with the rule's description, and its tuning
# space as (name, distribution, bounds) in draw order.
_GD = {"learning_rate": "positive real", "epochs": "positive integer", "batch_size": "positive integer"}
_TREE = {"max_depth": "positive integer or None", "min_samples_leaf": "positive integer"}
_FOREST = {**_TREE, "n_members": "positive integer", "bootstrap": "boolean"}
_RF = {**_FOREST, "max_features": "all|sqrt|log2"}

REF_PARAM_SCHEMAS = {
    "logistic_c": _GD,
    "sgd_c": _GD,
    "sgd_r": _GD,
    "perceptron_c": {"learning_rate": "positive real", "epochs": "positive integer"},
    "ridge_c": {"lam": "non-negative real"},
    "ridge_r": {"lam": "non-negative real"},
    "ols_r": {},
    "knn_c": {"k": "positive integer"},
    "knn_r": {"k": "positive integer"},
    "bernoulli_nb_c": {"alpha": "positive real"},
    "decision_tree_c": _TREE,
    "decision_tree_r": _TREE,
    "extra_tree_c": _TREE,
    "extra_tree_r": _TREE,
    "bagging_c": _FOREST,
    "bagging_r": _FOREST,
    "random_forest_c": _RF,
    "random_forest_r": _RF,
}

_GD_DIMS = (("learning_rate", "LogUniform", 1e-4, 1.0), ("epochs", "IntRange", 5, 200))
_TREE_DIMS = (("max_depth", "IntRange", 1, 12), ("min_samples_leaf", "IntRange", 1, 20))
_FOREST_DIMS = (*_TREE_DIMS, ("n_members", "IntRange", 5, 200))
_RF_DIMS = (*_FOREST_DIMS, ("max_features", "Categorical", ("all", "sqrt", "log2")))

REF_SPACES = {
    "logistic_c": _GD_DIMS,
    "sgd_c": _GD_DIMS,
    "sgd_r": _GD_DIMS,
    "perceptron_c": _GD_DIMS,
    "ridge_c": (("lam", "LogUniform", 1e-6, 1e3),),
    "ridge_r": (("lam", "LogUniform", 1e-6, 1e3),),
    "ols_r": (),
    "knn_c": (("k", "IntRange", 1, 25),),
    "knn_r": (("k", "IntRange", 1, 25),),
    "bernoulli_nb_c": (("alpha", "LogUniform", 1e-2, 1e1),),
    "decision_tree_c": _TREE_DIMS,
    "decision_tree_r": _TREE_DIMS,
    "extra_tree_c": _TREE_DIMS,
    "extra_tree_r": _TREE_DIMS,
    "bagging_c": _FOREST_DIMS,
    "bagging_r": _FOREST_DIMS,
    "random_forest_c": _RF_DIMS,
    "random_forest_r": _RF_DIMS,
}

# Values each rule rejects, and one it accepts.
REF_RULE_VALUES = {
    "positive real": ((0, -0.5, 0.0, True, "1", None), 0.25),
    "positive integer": ((0, -3, 2.0, True, "4", None), 3),
    "non-negative real": ((-1e-9, -1, False, "0", None), 0.0),
    "positive integer or None": ((0, -1, 1.5, True), None),
    "boolean": ((1, 0, "yes", None), False),
    "all|sqrt|log2": (("half", None, 1), "log2"),
}


def ref_parse_candles_csv(text, interval):
    """The row-at-a-time CSV parser: every field of a row is converted before
    the next row is read, so the first bad field in file order raises.

    The rule check and the series constructor run after conversion and are
    the package's own (`_check_rows`, `CandleSeries`); only the conversion
    is restated here.
    """

    def parse_price(raw, line_no, column):
        try:
            return float(raw)
        except ValueError:
            raise MalformedRow(f"line {line_no}: {column} {raw!r} is not numeric") from None

    def parse_timestamp(raw, line_no):
        try:
            stamp = int(raw)
        except ValueError:
            try:
                value = float(raw)
            except ValueError:
                raise MalformedRow(f"line {line_no}: timestamp {raw!r} is not numeric") from None
            if not math.isfinite(value) or value != int(value):
                raise MalformedRow(f"line {line_no}: timestamp {raw!r} is not a whole number of seconds")
            stamp = int(value)
        if not -(1 << 63) <= stamp < 1 << 63:
            raise MalformedRow(f"line {line_no}: timestamp {raw!r} is outside the int64 range")
        return stamp

    reader = csv.reader(io.StringIO(text.lstrip("\ufeff")))
    try:
        header = next(reader)
    except StopIteration:
        raise MalformedRow("empty document: missing header") from None
    if tuple(h.strip().lower() for h in header) != CSV_HEADER:
        raise MalformedRow(f"header must be {','.join(CSV_HEADER)}, got {','.join(header)!r}")

    lines = []
    stamps = []
    values = []
    for line_no, fields in enumerate(reader, start=2):
        if not fields or (len(fields) == 1 and not fields[0].strip()):
            continue
        if len(fields) != 6:
            raise MalformedRow(f"line {line_no}: expected 6 fields, got {len(fields)}")
        lines.append(line_no)
        stamps.append(parse_timestamp(fields[0].strip(), line_no))
        values.extend([parse_price(fields[i].strip(), line_no, CSV_HEADER[i]) for i in range(1, 6)])

    if not stamps:
        raise MalformedRow("document contains a header but no data rows")
    columns = np.ascontiguousarray(np.array(values, dtype=np.float64).reshape(-1, 5).T)
    _check_rows(*columns, lambda i: f"line {lines[i]}")
    ts = np.array(stamps, dtype=np.int64)
    order = np.argsort(ts, kind="stable")
    return CandleSeries(ts[order], *columns.take(order, axis=1), interval=interval)


# --- CSV writers --------------------------------------------------------------
# The four writers as each caller kept its own before the shared dialect:
# csv.writer for candles and features, a "%d,%r" format for equity curves and
# an f-string loop for one raw indicator.


def ref_candles_csv(series):
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    prices = (map(repr, getattr(series, name).tolist()) for name in CSV_HEADER[1:])
    writer.writerows(zip(series.timestamps.tolist(), *prices))
    return out.getvalue()


def ref_dataset_csv(ds):
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(("timestamp", *ds.frame.feature_names, "class_target", "reg_target"))
    for t in ds.usable_indices():
        writer.writerow(
            [
                int(ds.timestamps[t]),
                *(repr(float(v)) for v in ds.frame.rows[t]),
                direction_name(ds.class_target[t]),
                repr(float(ds.reg_target[t])),
            ]
        )
    return out.getvalue()


def ref_equity_csv(curve):
    rows = zip(curve.timestamps.tolist(), curve.equity.tolist())
    return "timestamp,equity_fraction\n" + "".join("%d,%r\n" % row for row in rows)


def ref_indicator_csv(series, ind):
    lines = ["timestamp,value"]
    for i in range(ind.warmup_len, len(ind)):
        lines.append(f"{int(series.timestamps[i])},{float(ind.values[i])!r}")
    return "\n".join(lines) + "\n"


def ref_ema(values, period):
    """The EMA recurrence stepped on numpy float64 scalars; `indicators.ema`
    steps on Python floats and must give the same bytes."""
    alpha = 2.0 / (period + 1.0)
    out = np.full(values.size, np.nan)
    out[period - 1] = values[:period].mean()
    for t in range(period, values.size):
        out[t] = out[t - 1] + alpha * (values[t] - out[t - 1])
    return out


def ref_wilder_atr(tr, period):
    """Wilder's ATR recurrence over true ranges `tr` (index 0 undefined), stepped
    on numpy float64 scalars; `indicators.wilder_atr` steps on Python floats
    and must give the same bytes."""
    out = np.full(tr.size, np.nan)
    out[period] = tr[1 : period + 1].mean()
    for t in range(period + 1, tr.size):
        out[t] = (out[t - 1] * (period - 1) + tr[t]) / period
    return out
