"""The batched forest grower against the recursive reference, and its memory bound."""
import tracemalloc

import numpy as np
import pytest

from quantroll.direction import DOWN, UP
from quantroll.models import ModelSpec, build_estimator, cart_best_split, fit, task_of
from quantroll.models.tree import _mean_var

from .reference import ref_impurity, ref_random_split, ref_scan_exhaustive, ref_tree_kind

TREE_KINDS = (
    "decision_tree_c", "extra_tree_c", "random_forest_c", "bagging_c",
    "decision_tree_r", "extra_tree_r", "random_forest_r", "bagging_r",
)


def random_case(case: int):
    """A seeded (kind, params, X, y, Xq) drawn over the shapes growth branches on."""
    rng = np.random.default_rng(case)
    kind = TREE_KINDS[case % len(TREE_KINDS)]
    n = int(rng.integers(2, 60))
    width = int(rng.integers(1, 8))
    X = rng.normal(size=(n, width))
    if rng.random() < 0.4:  # tied values inside a column
        X = np.round(X, 1)
    noise = rng.normal(size=n)
    if task_of(kind) == "classifier":
        y = np.where(X[:, 0] + noise > 0, UP, DOWN).astype(np.int8)
    else:
        y = 0.01 * X[:, 0] + 0.01 * noise
        if rng.random() < 0.3:
            y = np.round(y, 3)
    params = {
        "max_depth": [None, None, 1, 2, 3, 5, 8][int(rng.integers(7))],
        "min_samples_leaf": [1, 1, 1, 2, 3, 5][int(rng.integers(6))],
    }
    if kind.startswith(("random_forest", "bagging")):
        params["n_members"] = int(rng.integers(1, 8))
        params["bootstrap"] = bool(rng.random() < 0.8)
    if kind.startswith("random_forest"):
        params["max_features"] = ("all", "sqrt", "log2")[int(rng.integers(3))]
    Xq = np.vstack([X, np.round(rng.normal(size=(20, width)), 1)])
    return kind, params, X, y, Xq


def assert_matches_reference(kind, params, seed, X, y, Xq):
    est = build_estimator(ModelSpec(kind, params, seed=seed)).fit(X, y)
    want_predict, want_scores = ref_tree_kind(kind, X, y, Xq, params, seed)
    got = est.predict(Xq)
    assert got.dtype == want_predict.dtype and got.shape == want_predict.shape
    assert got.tobytes() == want_predict.tobytes()
    if want_scores is not None:
        scores = est.decision_function(Xq)
        assert scores.dtype == want_scores.dtype and scores.tobytes() == want_scores.tobytes()


@pytest.mark.parametrize("case", range(200))
def test_bit_identical_to_recursive_reference(case):
    kind, params, X, y, Xq = random_case(case)
    assert_matches_reference(kind, params, case % 5, X, y, Xq)


@pytest.mark.parametrize(
    "kind, params",
    [("random_forest_c", {"n_members": 70, "max_features": "log2"}), ("bagging_r", {"n_members": 40, "max_depth": 6})],
)
def test_bit_identical_past_one_lockstep_group(kind, params):
    rng = np.random.default_rng(70)
    X = np.round(rng.normal(size=(40, 7)), 1)
    noise = rng.normal(size=40)
    y = np.where(X[:, 0] + noise > 0, UP, DOWN) if task_of(kind) == "classifier" else 0.01 * X[:, 2] + 0.01 * noise
    assert_matches_reference(kind, params, 2, X, y, X)


@pytest.mark.parametrize(
    "kind, params",
    [("random_forest_r", {"n_members": 3, "max_features": "sqrt"}), ("bagging_c", {"n_members": 3, "min_samples_leaf": 2})],
)
def test_bit_identical_at_1000_rows(kind, params):
    rng = np.random.default_rng(1000)
    X = np.round(rng.normal(size=(1000, 7)), 2)
    noise = rng.normal(size=1000)
    y = np.where(X[:, 0] + noise > 0, UP, DOWN) if task_of(kind) == "classifier" else 0.01 * X[:, 1] + 0.01 * noise
    assert_matches_reference(kind, params, 3, X, y, X[:300])


@pytest.mark.parametrize("case", range(60))
def test_cart_best_split_matches_reference(case):
    rng = np.random.default_rng(case)
    n, width = int(rng.integers(2, 40)), int(rng.integers(1, 8))
    X = np.round(rng.normal(size=(n, width)), int(rng.integers(1, 4)))
    criterion = ("gini", "variance")[case % 2]
    y = np.where(rng.normal(size=n) > 0, 1.0, -1.0) if criterion == "gini" else 0.01 * rng.normal(size=n)
    features = np.sort(rng.choice(width, size=int(rng.integers(1, width + 1)), replace=False))
    min_leaf = int(rng.integers(1, 4))
    parent = ref_impurity(y, criterion)
    for mode in ("exhaustive", "random"):
        found = cart_best_split(X, y, criterion, mode, rng=case, min_leaf=min_leaf, feature_subset=features)
        if mode == "random":
            want = ref_random_split(X, y, criterion, parent, min_leaf, np.random.default_rng(case), features)
        else:
            want = ref_scan_exhaustive(X, y, criterion, parent, min_leaf, features)
        assert (None if found is None else (found.feature, found.threshold)) == want


def test_stacked_mean_var_rounds_as_numpy_per_row():
    rng = np.random.default_rng(5)
    for size in (1, 2, 7, 8, 9, 16, 17, 127, 128, 129, 1000):
        Y = rng.normal(size=(5, size)) * rng.choice([1e-3, 1.0, 1e3])
        mean, var = _mean_var(Y)
        assert [float(m) for m in mean] == [float(row.mean()) for row in Y]
        assert [float(v) for v in var] == [float(np.var(row)) for row in Y]


def test_forest_growth_memory_is_bounded():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(1000, 7))
    y = 0.01 * X[:, 0] + 0.01 * rng.normal(size=1000)
    spec = ModelSpec("random_forest_r", {"n_members": 50, "max_depth": 8})
    tracemalloc.start()
    try:
        fit(spec, X, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
