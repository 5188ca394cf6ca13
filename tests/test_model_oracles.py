"""Seeded bit-identity checks of the gradient-descent epoch, the perceptron
sweep and the one-row predict path against the straight-line loops in
tests/reference.py, of the scaler's and the vote scores' direct reductions
against numpy's mean and std, of each kind's `score_row` against its own
`scores` on a one-row matrix, of batch scores against `score_row`, and of
fits through a shared draw memo against fresh fits. Every comparison is exact
equality, never a tolerance."""
import dataclasses
import math

import numpy as np
import pytest

from quantroll.direction import DOWN, UP
from quantroll.errors import NonFiniteInput, WidthMismatch
from quantroll.models import (
    ALL_KINDS,
    CLASSIFIER,
    REGRESSOR,
    REGRESSOR_KINDS,
    ModelKind,
    ModelSpec,
    TrainedModel,
    fit,
    predict_class,
    predict_value,
    task_of,
)
from quantroll.models.linear import (
    ConstantRegressor,
    LogisticClassifier,
    PerceptronClassifier,
    SGDClassifier,
    SGDRegressor,
)
from quantroll.models.naive_bayes import BernoulliNBClassifier
from quantroll.models.neighbors import KNNClassifier, KNNRegressor

from .reference import ref_gd_weights, ref_perceptron_weights, ref_row_score

GD_CLASSES = {"logistic_c": LogisticClassifier, "sgd_c": SGDClassifier, "sgd_r": SGDRegressor}


def case_data(seed, n_max=60, width_max=7):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, n_max + 1))
    X = rng.normal(0.0, 1.0, size=(n, int(rng.integers(1, width_max + 1)))) * rng.uniform(0.01, 100.0)
    if seed % 4 == 0:
        X[:, 0] = 2.5  # a constant column standardizes to exactly zero
    y_class = np.where(rng.normal(size=n) > 0, UP, DOWN).astype(np.float64)
    y_class[:2] = (UP, DOWN)
    return rng, X, y_class, rng.normal(0.0, 0.01, n)


GD_CASES = [
    (kind, seed, batch)
    for kind in GD_CLASSES
    for seed in range(10)
    for batch in (1, 5, 32, "n+1")
]


@pytest.mark.parametrize("kind,seed,batch", GD_CASES)
def test_gd_weights_match_per_batch_gathers(kind, seed, batch):
    rng, X, y_class, y_reg = case_data(seed)
    y = y_reg if kind == "sgd_r" else y_class
    batch_size = X.shape[0] + 1 if batch == "n+1" else batch
    # learning rates span the tuner's 1e-4..1 range; epochs run 1..200
    learning_rate = (1e-4, 1.0)[seed] if seed < 2 else float(10 ** rng.uniform(-4.0, 0.0))
    epochs = (1, 200)[seed % 2] if seed < 4 else int(rng.integers(1, 201))
    # squared loss at a large rate can diverge to NaN; it must do so identically
    with np.errstate(over="ignore", invalid="ignore"):
        est = GD_CLASSES[kind](learning_rate=learning_rate, epochs=epochs, batch_size=batch_size, seed=seed)
        weights = est.fit(X, y).weights_
        expected = ref_gd_weights(kind, X, y, learning_rate, epochs, batch_size, seed)
    assert np.array_equal(weights, expected, equal_nan=True)


@pytest.mark.parametrize("seed", range(30))
def test_perceptron_weights_match_indexed_sweep(seed):
    rng, X, y, _ = case_data(seed)
    if seed % 3 == 0:
        y = np.where(X.sum(axis=1) > 0, UP, DOWN).astype(np.float64)  # separable: stops early
    learning_rate = float(10 ** rng.uniform(-4.0, 0.3))
    epochs = int(rng.integers(1, 201))
    est = PerceptronClassifier(learning_rate=learning_rate, epochs=epochs).fit(X, y)
    assert np.array_equal(est.weights_, ref_perceptron_weights(X, y, learning_rate, epochs))


@pytest.mark.parametrize("seed", range(10))
def test_perceptron_sweep_on_zero_inf_and_nan_margins(seed):
    """Entries fitted directly, past the fit checks, make margins of +-0, +-inf and NaN; the sweep's sign tests
    treat each as `y * margin <= 0` does."""
    rng, X, y, _ = case_data(300 + seed, n_max=20)
    special = rng.random(X.shape) < 0.2
    X[special] = rng.choice([0.0, -0.0, np.inf, -np.inf, np.nan, 1e308], size=int(special.sum()))
    X[: 1 + seed % 3] = 0.0  # all-zero rows: the first margins are exactly zero
    learning_rate, epochs = float(10 ** rng.uniform(-4.0, 0.3)), int(rng.integers(1, 30))
    with np.errstate(over="ignore", invalid="ignore"):
        got = PerceptronClassifier(learning_rate=learning_rate, epochs=epochs).fit(X, y).weights_
        want = ref_perceptron_weights(X, y, learning_rate, epochs)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("rows", [2, 3, 7, 8, 9, 28, 129, 1000, 3000])
def test_direct_reductions_equal_numpy_mean_and_std(rows):
    """The scaler's and the KNN and forest vote scores' add.reduce steps give the bits of X.mean(axis=0),
    X.std(axis=0) and the np.mean vote formulas, constant columns included."""
    rng = np.random.default_rng(rows)
    X = rng.normal(size=(rows, 6)) * 10.0 ** rng.uniform(-3.0, 6.0, size=6) + rng.normal(size=6) * 1e3
    X[:, 1], X[:, 4], X[:, 5] = 2.5, -0.0, 7.3  # 7.3's mean rounds, so its deviation is tiny but not zero
    y = np.where(rng.normal(size=rows) > 0, UP, DOWN).astype(np.float64)
    y[:2] = (UP, DOWN)
    est = SGDRegressor()
    est._fit_scaler(X)
    std = X.std(axis=0)
    assert est.scaler_mean_.tobytes() == X.mean(axis=0).tobytes()
    assert est.scaler_scale_.tobytes() == np.where(std > 0, std, 1.0).tobytes()
    assert est.scaler_scale_[1] == est.scaler_scale_[4] == 1.0
    Q = X[rng.integers(0, rows, size=40)] + rng.normal(size=(40, 6))
    k = int(rng.integers(1, 26))
    knn_c, knn_r = KNNClassifier(k).fit(X, y), KNNRegressor(k).fit(X, y * rng.uniform(0.0, 0.02, rows))
    assert knn_c.scores(Q).tobytes() == (np.mean(knn_c._neighbor_targets(Q), axis=1) / 2.0).tobytes()
    assert knn_r.scores(Q).tobytes() == np.mean(knn_r._neighbor_targets(Q), axis=1).tobytes()
    if rows <= 129:  # forests: the rows are the query's
        for kind, target in (("random_forest_c", y), ("bagging_r", y * 0.01)):
            est = fit(ModelSpec(kind, {"n_members": int(rng.integers(1, 40))}, seed=rows), X, target).estimator
            votes = est.member_predictions(Q)
            want = np.mean(votes.astype(np.float64), axis=1) / 2.0 if kind.endswith("_c") else [np.mean(v) for v in votes]
            assert est.scores(Q).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("kind", [k.value for k in ALL_KINDS])
@pytest.mark.parametrize("seed", range(3))
def test_one_row_predict_matches_reference(kind, seed):
    rng, X, y_class, y_reg = case_data(100 + seed, n_max=40)
    classifier = task_of(kind) == "classifier"
    model = fit(ModelSpec(kind, seed=seed), X, y_class if classifier else y_reg)
    est = model.estimator
    queries = rng.normal(0.0, 50.0, size=(8, X.shape[1]))
    queries[0] = X[0]
    for x in queries:
        expected = ref_row_score(kind, est, x)
        row = x.reshape(1, -1)
        if classifier:
            if expected is None:
                expected = float(est.scores(row)[0])
            direction, score = predict_class(model, x)
            assert np.array_equal(score, expected)
            assert direction == (UP if expected > 0 else DOWN)
        else:
            if expected is None:
                expected = float(est.scores(row)[0])
            assert np.array_equal(predict_value(model, x), expected)


@pytest.mark.parametrize(
    "row,error",
    [
        ([0.1, np.nan, 0.3], NonFiniteInput),
        ([0.1, np.inf, 0.3], NonFiniteInput),
        ([0.1, 0.2, -np.inf], NonFiniteInput),
        ([[0.1, 0.2, 0.3]], WidthMismatch),
        ([0.1, 0.2], WidthMismatch),
    ],
    ids=["nan", "+inf", "-inf", "2-d", "width"],
)
@pytest.mark.parametrize("kind", ["ols_r", "logistic_c"])
def test_one_row_predict_rejects(kind, row, error):
    rng = np.random.default_rng(7)
    X = rng.normal(size=(20, 3))
    y = np.where(X[:, 0] > 0, UP, DOWN) if kind.endswith("_c") else 0.01 * X[:, 1]
    model = fit(ModelSpec(kind), X, y)
    with pytest.raises(error):
        (predict_class if kind.endswith("_c") else predict_value)(model, np.array(row))


def assert_row_matches_batch(model, x):
    """`score_row` and `predict_class`/`predict_value` on x equal `scores`
    on x as a one-row matrix, byte for byte. Returns the score."""
    est, row = model.estimator, x.reshape(1, -1)
    want = est.scores(row)
    if model.task == CLASSIFIER:
        direction, score = predict_class(model, x)
        assert direction == (UP if want[0] > 0 else DOWN)
    else:
        score = predict_value(model, x)
    got = est.score_row(x)
    assert type(got) is float and type(score) is float and want.dtype == np.float64
    assert np.float64(got).tobytes() == np.float64(score).tobytes() == want[:1].tobytes()
    return score


def one_row_queries(rng, X, n):
    """n rows around, at and far beyond the training rows: copies of them, rows
    with entries at the column medians, wide draws and saturating magnitudes."""
    mean, std, median = X.mean(axis=0), X.std(axis=0) + 1e-3, np.median(X, axis=0)
    parts = n // 5
    near = mean + std * rng.normal(size=(parts, X.shape[1]))
    at_median = near.copy()
    pick = rng.random(at_median.shape) < 0.5
    at_median[pick] = np.broadcast_to(median, at_median.shape)[pick]
    copies = X[rng.integers(0, X.shape[0], size=parts)]
    wide = rng.normal(0.0, 50.0, size=(parts, X.shape[1]))
    huge = mean + std * rng.normal(size=(n - 4 * parts, X.shape[1])) * 10.0 ** rng.uniform(3, 12, size=(n - 4 * parts, 1))
    return np.vstack([median, near, at_median, copies, wide, huge])


@pytest.mark.parametrize("kind", [k.value for k in ALL_KINDS])
def test_score_row_matches_one_row_batch(kind):
    checked = 0
    for seed in range(5):  # seeds 200 and 204 hold a constant column
        rng, X, y_class, y_reg = case_data(200 + seed, n_max=40)
        model = fit(ModelSpec(kind, seed=seed), X, y_class if task_of(kind) == CLASSIFIER else y_reg)
        for x in one_row_queries(rng, X, 110):
            assert_row_matches_batch(model, x)
            checked += 1
    assert checked >= 500


@pytest.mark.parametrize("kind", ["logistic_c", "sgd_c", "sgd_r", "knn_c", "knn_r"])
def test_score_row_with_a_constant_scaler_column(kind):
    rng, X, y_class, y_reg = case_data(210, n_max=40)
    X[:, -1] = -3.25  # unit scale, so the column standardizes to x + 3.25
    model = fit(ModelSpec(kind), X, y_class if task_of(kind) == CLASSIFIER else y_reg)
    assert model.estimator.scaler_scale_[-1] == 1.0
    queries = one_row_queries(rng, X, 100)
    queries[::2, -1] = -3.25
    for x in queries:
        assert_row_matches_batch(model, x)


@pytest.mark.parametrize("kind", [
    "ols_r", "ridge_r", "ridge_c", "sgd_r", "sgd_c", "logistic_c", "perceptron_c",
    "knn_c", "knn_r", "decision_tree_c", "decision_tree_r", "extra_tree_c", "extra_tree_r", "random_forest_c", "bagging_c",
    "random_forest_r", "bagging_r",
])
def test_batch_scores_are_row_count_invariant(kind):
    """`scores` on batches of 1-1000 rows gives each row the bits `score_row`
    gives it alone, whichever BLAS kernel a matrix product would pick.
    bernoulli_nb_c does not hold to this yet."""
    rng, X, y_class, y_reg = case_data(230, n_max=40)
    est = fit(ModelSpec(kind, seed=3), X, y_class if task_of(kind) == CLASSIFIER else y_reg).estimator
    queries = one_row_queries(rng, X, 5550)
    start = 0
    while start < len(queries):
        batch = queries[start : start + int(rng.integers(1, 1001))]
        want = np.array([est.score_row(x) for x in batch])
        assert est.scores(batch).tobytes() == want.tobytes()
        start += len(batch)


def test_logistic_score_row_saturates_like_the_batch():
    rng, X, y, _ = case_data(220, n_max=40)
    model = fit(ModelSpec("logistic_c", {"learning_rate": 1.0}), X, y)
    est = model.estimator
    scores = set()
    for scale in 10.0 ** np.arange(0, 13):
        for u in rng.normal(size=(20, X.shape[1])):
            scores.add(assert_row_matches_batch(model, est.scaler_mean_ + scale * u * est.scaler_scale_))
    assert {0.5, -0.5} <= scores  # tanh reached +-1


def test_signed_zero_scores():
    """Zero targets, tied votes and hand-set negative-zero leaves and
    constants: the score's sign bit is kept."""
    rng = np.random.default_rng(230)
    X = rng.normal(size=(12, 3))
    queries = np.vstack([rng.normal(size=(20, 3)), np.zeros((1, 3)), np.full((1, 3), -0.0)])
    models = [fit(ModelSpec(k), X, np.full(12, zero)) for k in REGRESSOR_KINDS for zero in (0.0, -0.0)]
    models.append(fit(ModelSpec("knn_c", {"k": 2}), X, np.where(np.arange(12) % 2 == 0, 1.0, -1.0)))
    for kind in ("decision_tree_r", "extra_tree_r", "random_forest_r", "bagging_r"):
        model = fit(ModelSpec(kind), X, rng.normal(size=12))
        model.estimator.trees_.value[:] = -0.0
        models.append(model)
    models += [TrainedModel(ModelKind.OLS_R, REGRESSOR, ConstantRegressor(zero), 3) for zero in (0.0, -0.0)]
    signs = set()
    for model in models:
        for x in queries:
            score = assert_row_matches_batch(model, x)
            if score == 0.0:
                signs.add(math.copysign(1.0, score))
    assert signs == {1.0, -1.0}


@pytest.mark.parametrize("seed", range(6))
def test_nb_scores_are_memoized_by_binarized_pattern(seed):
    rng, X, y, _ = case_data(240 + seed, n_max=40)
    model = fit(ModelSpec("bernoulli_nb_c"), X, y)
    est = model.estimator
    assert isinstance(est, BernoulliNBClassifier) and est.pattern_scores_ == {}
    # each entry just below, at or above its column's median
    offsets = rng.choice([-1.0, 0.0, 0.0, 1.0], size=(300, X.shape[1])) * rng.uniform(1e-9, 3.0, size=(300, X.shape[1]))
    by_pattern = {}
    for x in np.vstack([est.medians_, est.medians_ + offsets]):
        score = np.float64(assert_row_matches_batch(model, x)).tobytes()
        assert by_pattern.setdefault((x > est.medians_).tobytes(), score) == score
    assert len(est.pattern_scores_) == len(by_pattern) <= 2 ** X.shape[1]
    est.fit(X[::-1], y[::-1])
    assert est.pattern_scores_ == {}


SHARED_MEMO_CASES = {
    "random_forest_c": [{"n_members": 40, "max_features": f, "bootstrap": b} for f in ("all", "sqrt", "log2") for b in (True, False)],
    "random_forest_r": [{"n_members": 40, "max_features": "sqrt"}, {"n_members": 40, "max_depth": 2}],
    "bagging_c": [{"n_members": 40}, {"n_members": 40, "bootstrap": False}],
    "extra_tree_c": [{}, {"max_depth": 2}],
    "extra_tree_r": [{}, {"min_samples_leaf": 3}],
    "logistic_c": [{"epochs": 7}, {"epochs": 1, "batch_size": 5}],
    "sgd_c": [{"epochs": 7, "batch_size": 1}, {"epochs": 7}],
    "sgd_r": [{"epochs": 7}, {"epochs": 3, "batch_size": 5}],
}


def fitted_arrays(model):
    est = model.estimator
    if hasattr(est, "trees_"):
        return [np.asarray(getattr(est.trees_, f.name)) for f in dataclasses.fields(est.trees_)]  # depth is an int
    return [est.weights_]


@pytest.mark.parametrize("kind", sorted(SHARED_MEMO_CASES))
def test_shared_memo_fits_equal_fresh_fits(kind):
    """One memo serves specs that share a seed but differ in their settings,
    and windows of several lengths, in an order that revisits each: every
    fit's arrays equal a fresh fit's byte for byte."""
    rng = np.random.default_rng(260)
    X = rng.normal(size=(80, 7))
    y = np.where(X[:, 0] + rng.normal(size=80) > 0, UP, DOWN) if task_of(kind) == CLASSIFIER else rng.normal(0.0, 0.01, 80)
    memo = {}
    for lo, n in [(0, 28), (5, 14), (30, 28), (9, 9), (52, 28), (60, 14)] * 2:
        for params in SHARED_MEMO_CASES[kind]:
            spec = ModelSpec(kind, params, seed=11)
            got, want = fit(spec, X[lo : lo + n], y[lo : lo + n], memo), fit(spec, X[lo : lo + n], y[lo : lo + n])
            for a, b in zip(fitted_arrays(got), fitted_arrays(want)):
                assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    assert memo
