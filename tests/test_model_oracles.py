"""Seeded bit-identity checks of the gradient-descent epoch, the perceptron
sweep and the one-row predict path against the straight-line loops in
tests/reference.py. Every comparison is exact equality, never a tolerance."""
import numpy as np
import pytest

from quantroll.direction import DOWN, UP
from quantroll.errors import NonFiniteInput, WidthMismatch
from quantroll.models import ALL_KINDS, ModelSpec, fit, predict_class, predict_value, task_of
from quantroll.models.linear import LogisticClassifier, PerceptronClassifier, SGDClassifier, SGDRegressor

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
                expected = float(est.decision_function(row)[0])
            direction, score = predict_class(model, x)
            assert np.array_equal(score, expected)
            assert direction == (UP if expected > 0 else DOWN)
        else:
            if expected is None:
                expected = float(est.predict(row)[0])
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
