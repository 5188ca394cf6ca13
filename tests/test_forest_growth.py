"""The batched forest grower and the fixed-depth leaf walk against the recursive reference, the grower's memory
bound, and the generators it builds."""
import tracemalloc

import numpy as np
import pytest

from quantroll.direction import DOWN, UP
from quantroll.models import ModelSpec, cart_best_split, default_space, fit, task_of
from quantroll.models.base import classify_from_scores
from quantroll.models.tree import _mean_var
from quantroll.tuner import sample_params

from .reference import (
    ref_impurity,
    ref_leaf_for,
    ref_random_split,
    ref_scan_exhaustive,
    ref_tree_kind,
    ref_tree_roots,
)

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
    est = fit(ModelSpec(kind, params, seed=seed), X, np.asarray(y, dtype=np.float64)).estimator
    want_predict, want_scores = ref_tree_kind(kind, X, y, Xq, params, seed)
    scores = est.scores(Xq)
    got = scores if want_scores is None else classify_from_scores(scores)  # a regressor's scores are its values
    assert got.dtype == want_predict.dtype and got.shape == want_predict.shape
    assert got.tobytes() == want_predict.tobytes()
    if want_scores is not None:
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


@pytest.mark.parametrize("case", range(12))
def test_random_split_matches_reference_on_wide_nodes(case):
    """Past 128 rows numpy sums in pairwise blocks, so each child's variance must reduce at its own size."""
    rng = np.random.default_rng(500 + case)
    n, width = (130, 257, 1000)[case % 3], int(rng.integers(1, 9))
    X = np.round(rng.normal(size=(n, width)), int(rng.integers(0, 3)))
    criterion = ("gini", "variance")[case % 2]
    y = np.where(rng.normal(size=n) > 0, 1.0, -1.0) if criterion == "gini" else 0.01 * rng.normal(size=n) + 1.0
    min_leaf = int(rng.integers(1, 40))
    found = cart_best_split(X, y, criterion, "random", rng=case, min_leaf=min_leaf)
    parent = ref_impurity(y, criterion)
    want = ref_random_split(X, y, criterion, parent, min_leaf, np.random.default_rng(case), range(width))
    assert (None if found is None else (found.feature, found.threshold)) == want
    if found is not None:  # and the decrease rounds as the children's own impurities do
        left = X[:, found.feature] <= found.threshold
        child = left.sum() * ref_impurity(y[left], criterion) + (~left).sum() * ref_impurity(y[~left], criterion)
        assert found.decrease == parent - child / n


TUNED_KINDS = ("random_forest_c", "random_forest_r", "bagging_c", "bagging_r")
TUNED_TRIALS = (1, 3, 5, 7, 28, 34, 48, 56)  # wide, root-only, deep and shallow draws; see the coverage test


def tuned_case(kind: str, trial: int, rows: int):
    """The tuner's draw of trial for kind, and a seeded window of rows with tied values."""
    params = sample_params(default_space(kind), trial)
    rng = np.random.default_rng([trial, rows])
    X = np.round(rng.normal(size=(rows, 7)), 1)
    noise = rng.normal(size=rows)
    y = np.where(X[:, 0] + noise > 0, UP, DOWN) if task_of(kind) == "classifier" else 0.01 * X[:, 0] + 0.01 * noise
    return params, X, y, np.vstack([X, np.round(rng.normal(size=(20, 7)), 1)])


@pytest.mark.parametrize("rows", [7, 28])
@pytest.mark.parametrize("trial", TUNED_TRIALS)
@pytest.mark.parametrize("kind", TUNED_KINDS)
def test_bit_identical_on_tuner_draws(kind, trial, rows):
    params, X, y, Xq = tuned_case(kind, trial, rows)
    assert_matches_reference(kind, params, trial, X, y, Xq)


def test_tuner_draws_cover_wide_root_only_and_deep_forests():
    draws = [sample_params(default_space(kind), trial) for kind in TUNED_KINDS for trial in TUNED_TRIALS]
    assert any(p["n_members"] > 128 for p in draws)
    assert any(2 * p["min_samples_leaf"] > 28 for p in draws)  # every member is its root, at both window sizes
    assert any(p["min_samples_leaf"] <= 3 and p["max_depth"] >= 8 for p in draws)
    assert {p["max_features"] for p in draws if "max_features" in p} == {"all", "sqrt", "log2"}


def reference_nodes(trees, roots):
    """Each flat node's RefNode, found by walking every member's flat tree and its recursive twin together; both
    must split alike at every node, and a flat leaf must be its own child on both sides."""
    found, stack = {}, list(zip(trees.roots.tolist(), roots))
    while stack:
        j, node = stack.pop()
        found[j] = node
        assert (trees.feature[j] >= 0) == (node.left is not None)
        if node.left is None:
            assert trees.child[j].tolist() == [j, j]
        else:
            assert (trees.feature[j], trees.threshold[j]) == (node.feature, node.threshold)
            stack += [(int(trees.child[j, 1]), node.left), (int(trees.child[j, 0]), node.right)]
    return found


def ref_depth(node):
    return 0 if node.left is None else 1 + max(ref_depth(node.left), ref_depth(node.right))


def chain_forest(kind):
    """A 100-member, max_depth 12 forest on 28 rows whose labels alternate along three monotone columns, so that
    splits peel off one row at a time, beside five constant columns; a member whose drawn columns are all
    constant at its root stays a root."""
    X = np.ones((28, 8))
    X[:, 5], X[:, 6], X[:, 7] = np.arange(28), 2.0 * np.arange(28), np.arange(28) ** 1.5
    y = np.where(np.arange(28) % 2 == 0, UP, DOWN).astype(np.float64)
    if task_of(kind) == "regressor":
        y = 0.01 * y
    params = {"n_members": 100, "max_depth": 12, "max_features": "log2", "bootstrap": False}
    return fit(ModelSpec(kind, params, seed=0), X, y).estimator.trees_, ref_tree_roots(kind, X, y, params, 0)


@pytest.mark.parametrize("kind", ["random_forest_c", "random_forest_r"])
def test_leaf_walk_matches_reference_leaves(kind):
    """Root-only and depth-12 members in one forest; one-row and 300-row batches; NaN, +-inf and +-0 entries
    go to FlatTrees.leaves directly and route as the recursive walk's `x <= threshold` does."""
    trees, roots = chain_forest(kind)
    nodes = reference_nodes(trees, roots)
    depths = [ref_depth(root) for root in roots]
    assert trees.depth == max(depths) == 12 and 0 in depths
    rng = np.random.default_rng(12)
    Xq = rng.uniform(-3.0, 160.0, size=(300, 8))
    special = rng.random(Xq.shape) < 0.2
    Xq[special] = rng.choice([np.nan, np.inf, -np.inf, 0.0, -0.0], size=int(special.sum()))
    Xq[:5, 5:] = [[np.nan], [np.inf], [-np.inf], [0.0], [-0.0]]
    leaves = trees.leaves(Xq)
    assert leaves.shape == (300, 100) and leaves.flags.c_contiguous
    for q, x in enumerate(Xq):
        assert [nodes[j] for j in leaves[q].tolist()] == [ref_leaf_for(root, x) for root in roots]
        assert trees.leaves(x[None]).tolist() == [leaves[q].tolist()]


def test_stacked_mean_var_rounds_as_numpy_per_row():
    rng = np.random.default_rng(5)
    for size in (1, 2, 7, 8, 9, 16, 17, 127, 128, 129, 1000):
        Y = rng.normal(size=(5, size)) * rng.choice([1e-3, 1.0, 1e3])
        mean, var = _mean_var(Y)
        assert [float(m) for m in mean] == [float(row.mean()) for row in Y]
        assert [float(v) for v in var] == [float(np.var(row)) for row in Y]


def peak_bytes_of_fit(spec, X, y):
    tracemalloc.start()
    try:
        fit(spec, X, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_forest_growth_memory_is_bounded():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(1000, 7))
    y = 0.01 * X[:, 0] + 0.01 * rng.normal(size=1000)
    spec = ModelSpec("random_forest_r", {"n_members": 50, "max_depth": 8})
    assert peak_bytes_of_fit(spec, X, y) < 16 * 2**20


def test_wide_forest_growth_memory_is_bounded():
    """The tuner's widest forest grows as one frontier; its memory is the index array's and the fitted nodes'."""
    rng = np.random.default_rng(7)
    X = rng.normal(size=(1000, 7))
    y = 0.01 * X[:, 0] + 0.01 * rng.normal(size=1000)
    spec = ModelSpec("random_forest_r", {"n_members": 200, "max_depth": 8})
    assert peak_bytes_of_fit(spec, X, y) < 16 * 2**20


@pytest.mark.parametrize(
    "kind, params, fresh, reused",
    [
        ("decision_tree_c", {}, 0, 0),
        ("decision_tree_r", {}, 0, 0),
        ("random_forest_r", {"n_members": 40, "bootstrap": False}, 0, 0),
        ("bagging_c", {"n_members": 40}, 40, 0),  # a memo hit reuses the bootstrap rows
        ("random_forest_c", {"n_members": 40, "max_features": "sqrt"}, 40, 0),
        ("extra_tree_r", {}, 1, 0),  # the generator restarts from its stored state
        ("sgd_r", {"epochs": 5}, 1, 0),  # a memo hit reuses the epochs' permutations
    ],
)
def test_generators_built_per_fit(monkeypatch, kind, params, fresh, reused):
    """Members that draw nothing build no generator; a fit through a memo that
    already holds a member's draws builds none either."""
    built = []
    real = np.random.PCG64
    monkeypatch.setattr(np.random, "PCG64", lambda seed: built.append(seed) or real(seed))
    rng = np.random.default_rng(80)
    X = rng.normal(size=(28, 7))
    y = np.where(X[:, 0] + rng.normal(size=28) > 0, UP, DOWN) if task_of(kind) == "classifier" else rng.normal(size=28)
    spec, memo = ModelSpec(kind, params, seed=4), {}
    for rows, shared, want in ((slice(None), None, fresh), (slice(None), memo, fresh), (slice(None, None, -1), memo, reused)):
        fit(spec, X[rows], y[rows], shared)
        assert len(built) == want
        built.clear()
