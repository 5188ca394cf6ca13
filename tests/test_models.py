import numpy as np
import pytest

from quantroll.direction import DOWN, UP
from quantroll.errors import (
    EmptyTraining,
    KindMismatch,
    NonFiniteInput,
    ParamError,
    WidthMismatch,
)
from quantroll.models import (
    ALL_KINDS,
    ModelKind,
    ModelSpec,
    build_estimator,
    cart_best_split,
    default_space,
    display_name,
    fit,
    predict_class,
    predict_value,
    task_of,
)
from quantroll.models.linear import LogisticClassifier, SGDClassifier, SGDRegressor
from quantroll.models.neighbors import KNNClassifier
from quantroll.models.tree import gini_impurity, variance_impurity
from quantroll.tuner import sample_params


def linear_data(n=5, intercept=3.0, slope=2.0):
    X = np.arange(n, dtype=np.float64).reshape(-1, 1)
    y = intercept + slope * X[:, 0]
    return X, y


def blob_data(n=50, seed=0, width=4):
    rng = np.random.default_rng(seed)
    X = rng.normal(0, 1, size=(n, width))
    y_class = np.where(X[:, 0] + 0.5 * X[:, 1] + rng.normal(0, 0.3, n) > 0, UP, DOWN)
    y_reg = X[:, 0] * 0.01 + rng.normal(0, 0.002, n)
    return X, y_class.astype(np.int8), y_reg


class TestLinear:
    def test_ols_recovers_noiseless_coefficients(self):
        X, y = linear_data()
        model = fit(ModelSpec("ols_r"), X, y)
        w = model.estimator.weights_
        assert w[0] == pytest.approx(3.0, abs=1e-8)
        assert w[1] == pytest.approx(2.0, abs=1e-8)

    def test_ols_prediction(self):
        X, y = linear_data()
        model = fit(ModelSpec("ols_r"), X, y)
        assert predict_value(model, np.array([10.0])) == pytest.approx(23.0, abs=1e-8)

    def test_ridge_shrinkage_limit(self):
        X = np.array([[-1.0], [0.0], [1.0]])
        y = np.array([-0.1, 0.0, 0.1])
        model = fit(ModelSpec("ridge_r", {"lam": 1e9}), X, y)
        assert np.abs(model.estimator.weights_).max() < 1e-6

    def test_ols_handles_constant_column(self):
        X = np.column_stack([np.arange(5.0), np.ones(5)])
        y = 1.0 + 2.0 * X[:, 0]
        model = fit(ModelSpec("ols_r"), X, y)
        assert predict_value(model, np.array([3.0, 1.0])) == pytest.approx(7.0, abs=1e-8)

    def test_perceptron_convergence_on_separable_fixture(self):
        X = np.array([[0.0, 0.0], [0.0, 1.0], [3.0, 3.0], [3.0, 4.0]])
        y = np.array([DOWN, DOWN, UP, UP], dtype=np.int8)
        model = fit(ModelSpec("perceptron_c"), X, y)
        for xi, yi in zip(X, y):
            direction, _score = predict_class(model, xi)
            assert direction == yi

    def test_ridge_classifier_separable(self):
        X = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        y = np.array([DOWN, DOWN, UP, UP], dtype=np.int8)
        model = fit(ModelSpec("ridge_c", {"lam": 1e-6}), X, y)
        assert predict_class(model, np.array([1.5]))[0] == UP
        assert predict_class(model, np.array([-1.5]))[0] == DOWN


class TestGradientDescent:
    @staticmethod
    def epoch_losses(cls, loss, X, y, epochs=60):
        """Full-set loss after each epoch: the fit with epochs=k draws the same
        first k permutations as a longer fit, so its weights are epoch k's."""
        losses = []
        for k in range(1, epochs + 1):
            est = cls(learning_rate=0.05, epochs=k, batch_size=2, seed=0).fit(X, y)
            losses.append(loss(est._margins(X), y))
        return np.array(losses)

    @pytest.mark.parametrize("cls", [LogisticClassifier, SGDClassifier])
    def test_monotone_loss_classifiers(self, cls):
        X = np.array([[0.0], [1.0]])
        y = np.array([DOWN, UP], dtype=np.float64)
        loss = {
            LogisticClassifier: lambda m, y: float(np.logaddexp(0.0, -y * m).mean()),
            SGDClassifier: lambda m, y: float(np.maximum(0.0, 1.0 - y * m).mean()),
        }[cls]
        diffs = np.diff(self.epoch_losses(cls, loss, X, y))
        assert (diffs <= 1e-12).all()

    def test_monotone_loss_regressor(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([-0.01, 0.02])
        losses = self.epoch_losses(SGDRegressor, lambda m, y: float(0.5 * np.mean((m - y) ** 2)), X, y)
        assert (np.diff(losses) <= 1e-12).all()

    def test_logistic_learns_separable(self):
        X, y_class, _ = blob_data(40, seed=3)
        model = fit(ModelSpec("logistic_c", {"learning_rate": 0.5, "epochs": 200}), X, y_class)
        correct = sum(predict_class(model, xi)[0] == yi for xi, yi in zip(X, y_class))
        assert correct / len(y_class) > 0.8

    def test_score_sign_consistency(self):
        X, y_class, _ = blob_data(30, seed=4)
        for kind in ("logistic_c", "sgd_c"):
            model = fit(ModelSpec(kind, {"epochs": 50}), X, y_class)
            for xi in X[:10]:
                direction, score = predict_class(model, xi)
                assert direction == (UP if score > 0 else DOWN)

    def test_standardization_consistency(self):
        X, y_class, _ = blob_data(30, seed=5)
        est = SGDClassifier(epochs=10, seed=1).fit(X, y_class.astype(np.float64))
        expected = (X - X.mean(axis=0)) / np.where(X.std(axis=0) > 0, X.std(axis=0), 1.0)
        np.testing.assert_array_equal(est.standardize(X), expected)


class TestKnn:
    def test_single_stored_point_up(self):
        model = fit(ModelSpec("knn_c", {"k": 7}), np.array([[1.0, 2.0]]), np.array([UP]))
        assert predict_class(model, np.array([5.0, 5.0])) == (UP, 0.5)

    def test_k1_training_accuracy(self):
        X, y_class, _ = blob_data(25, seed=6)
        model = fit(ModelSpec("knn_c", {"k": 1}), X, y_class)
        for xi, yi in zip(X, y_class):
            assert predict_class(model, xi)[0] == yi

    def test_knn_regressor_mean_of_neighbors(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([0.01, 0.03])
        model = fit(ModelSpec("knn_r", {"k": 2}), X, y)
        assert predict_value(model, np.array([0.5])) == pytest.approx(0.02, abs=1e-12)

    def test_stored_rows_standardized(self):
        X, y_class, _ = blob_data(20, seed=7)
        est = KNNClassifier(k=3).fit(X, y_class.astype(np.float64))
        expected = (X - X.mean(axis=0)) / np.where(X.std(axis=0) > 0, X.std(axis=0), 1.0)
        np.testing.assert_array_equal(est.rows_, expected)

    def test_k_capped_at_training_size(self):
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array([UP, UP, DOWN], dtype=np.int8)
        model = fit(ModelSpec("knn_c", {"k": 25}), X, y)
        assert predict_class(model, np.array([0.0]))[0] == UP  # 2 of 3 vote up


class TestBernoulliNB:
    def test_learns_median_split_rule(self):
        X = np.concatenate([np.full((10, 1), -1.0), np.full((10, 1), 1.0)])
        y = np.array([DOWN] * 10 + [UP] * 10, dtype=np.int8)
        model = fit(ModelSpec("bernoulli_nb_c", {"alpha": 0.5}), X, y)
        assert predict_class(model, np.array([1.0]))[0] == UP
        assert predict_class(model, np.array([-1.0]))[0] == DOWN

    def test_score_is_probability_shift(self):
        X, y_class, _ = blob_data(30, seed=8)
        model = fit(ModelSpec("bernoulli_nb_c"), X, y_class)
        _, score = predict_class(model, X[0])
        assert -0.5 <= score <= 0.5


class TestDegenerate:
    def test_single_class_window_constant_up(self):
        X = np.random.default_rng(0).normal(size=(6, 3))
        y = np.full(6, UP, dtype=np.int8)
        for kind in ("logistic_c", "random_forest_c", "knn_c"):
            model = fit(ModelSpec(kind), X, y)
            assert predict_class(model, np.zeros(3)) == (UP, 0.5)

    def test_single_row_classification(self):
        model = fit(ModelSpec("sgd_c"), np.array([[1.0, 2.0]]), np.array([DOWN]))
        assert predict_class(model, np.array([9.0, 9.0])) == (DOWN, -0.5)

    def test_single_row_regression_mean(self):
        model = fit(ModelSpec("random_forest_r"), np.array([[1.0]]), np.array([0.042]))
        assert predict_value(model, np.array([5.0])) == pytest.approx(0.042)

    def test_empty_training_rejected(self):
        with pytest.raises(EmptyTraining):
            fit(ModelSpec("ols_r"), np.zeros((0, 2)), np.zeros(0))


class TestCartSplit:
    def test_pure_node_absent(self):
        X = np.array([[1.0], [2.0], [3.0]])
        y = np.array([UP, UP, UP], dtype=np.float64)
        assert cart_best_split(X, y, "gini") is None

    def test_textbook_split(self):
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([UP, UP, DOWN, DOWN], dtype=np.float64)
        found = cart_best_split(X, y, "gini")
        assert found is not None
        assert found.feature == 0
        assert found.threshold == pytest.approx(2.5, abs=1e-12)
        assert found.decrease == pytest.approx(0.5, abs=1e-12)

    def test_identical_rows_different_labels_absent(self):
        X = np.array([[1.0, 2.0], [1.0, 2.0]])
        y = np.array([UP, DOWN], dtype=np.float64)
        assert cart_best_split(X, y, "gini") is None

    def test_tie_breaks_to_lowest_feature_then_threshold(self):
        # identical predictive power in both columns
        X = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [4.0, 4.0]])
        y = np.array([UP, UP, DOWN, DOWN], dtype=np.float64)
        found = cart_best_split(X, y, "gini")
        assert found.feature == 0
        assert found.threshold == pytest.approx(2.5)

    def test_variance_criterion(self):
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        found = cart_best_split(X, y, "variance")
        assert found.threshold == pytest.approx(2.5)
        assert found.decrease == pytest.approx(0.25, abs=1e-12)  # var 0.25 -> 0

    def test_random_mode_deterministic_per_seed(self):
        X, _, y_reg = blob_data(30, seed=9)
        a = cart_best_split(X, y_reg, "variance", "random", rng=42)
        b = cart_best_split(X, y_reg, "variance", "random", rng=42)
        assert a == b

    def test_min_leaf_respected(self):
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([UP, DOWN, DOWN, DOWN], dtype=np.float64)
        found = cart_best_split(X, y, "gini", min_leaf=2)
        assert found is None or found.threshold == pytest.approx(2.5)

    def test_impurity_primitives(self):
        assert gini_impurity(np.array([UP, UP], dtype=np.float64)) == 0.0
        assert variance_impurity(np.array([0.3, 0.3, 0.3])) == 0.0
        assert gini_impurity(np.array([UP, DOWN], dtype=np.float64)) == pytest.approx(0.5)


class TestForests:
    def test_forest_of_one_equals_tree_regression(self):
        X, _, y_reg = blob_data(50, seed=10)
        forest_spec = ModelSpec("random_forest_r", {"n_members": 1, "bootstrap": False, "max_depth": None}, seed=5)
        tree_spec = ModelSpec("decision_tree_r", {"max_depth": None}, seed=5)
        forest = fit(forest_spec, X, y_reg)
        tree = fit(tree_spec, X, y_reg)
        for xi in X:
            assert predict_value(forest, xi) == predict_value(tree, xi)

    def test_forest_of_one_equals_tree_classification(self):
        X, y_class, _ = blob_data(50, seed=11)
        for forest_kind, tree_kind in (("random_forest_c", "decision_tree_c"), ("bagging_c", "decision_tree_c")):
            forest = fit(ModelSpec(forest_kind, {"n_members": 1, "bootstrap": False}, seed=3), X, y_class)
            tree = fit(ModelSpec(tree_kind, {}, seed=3), X, y_class)
            for xi in X:
                assert predict_class(forest, xi)[0] == predict_class(tree, xi)[0]

    def test_bagging_of_one_equals_tree_regression(self):
        X, _, y_reg = blob_data(50, seed=12)
        forest = fit(ModelSpec("bagging_r", {"n_members": 1, "bootstrap": False}, seed=3), X, y_reg)
        tree = fit(ModelSpec("decision_tree_r", {}, seed=3), X, y_reg)
        for xi in X:
            assert predict_value(forest, xi) == predict_value(tree, xi)

    def test_split_vote_resolves_down(self):
        X, y_class, _ = blob_data(40, seed=20)
        model = fit(ModelSpec("bagging_c", {"n_members": 2, "max_depth": 1}, seed=8), X, y_class)
        votes = model.estimator.member_predictions(X)
        split = np.nonzero(votes.sum(axis=0) == 0)[0]
        assert split.size > 0
        for i in split:
            assert predict_class(model, X[i]) == (DOWN, 0.0)

    def test_max_features_subsampling_runs(self):
        X, y_class, _ = blob_data(40, seed=13, width=7)
        model = fit(ModelSpec("random_forest_c", {"n_members": 5, "max_features": "sqrt"}, seed=1), X, y_class)
        direction, score = predict_class(model, X[0])
        assert direction in (UP, DOWN)
        assert -0.5 <= score <= 0.5

    @pytest.mark.parametrize("kind", ["random_forest_c", "bagging_c", "extra_tree_c", "sgd_c", "random_forest_r", "extra_tree_r"])
    def test_determinism_per_seed(self, kind):
        X, y_class, y_reg = blob_data(40, seed=14)
        y = y_class if task_of(kind) == "classifier" else y_reg
        spec = ModelSpec(kind, {}, seed=77)
        a = fit(spec, X, y)
        b = fit(spec, X, y)
        for xi in X[:10]:
            if task_of(kind) == "classifier":
                assert predict_class(a, xi) == predict_class(b, xi)
            else:
                assert predict_value(a, xi) == predict_value(b, xi)

    def test_different_seeds_differ_somewhere(self):
        X, y_class, _ = blob_data(60, seed=15)
        a = fit(ModelSpec("random_forest_c", {"n_members": 9}, seed=1), X, y_class)
        b = fit(ModelSpec("random_forest_c", {"n_members": 9}, seed=2), X, y_class)
        scores_a = [predict_class(a, xi)[1] for xi in X]
        scores_b = [predict_class(b, xi)[1] for xi in X]
        assert scores_a != scores_b


class TestRegistry:
    # (display name, task, takes the spec seed) for every kind.
    ROSTER = {
        "logistic_c": ("LogisticC", "classifier", True),
        "ridge_c": ("RidgeC", "classifier", False),
        "perceptron_c": ("PerceptronC", "classifier", False),
        "sgd_c": ("SgdC", "classifier", True),
        "knn_c": ("KnnC", "classifier", False),
        "bernoulli_nb_c": ("BernoulliNbC", "classifier", False),
        "decision_tree_c": ("DecisionTreeC", "classifier", True),
        "extra_tree_c": ("ExtraTreeC", "classifier", True),
        "random_forest_c": ("RandomForestC", "classifier", True),
        "bagging_c": ("BaggingC", "classifier", True),
        "ols_r": ("OlsR", "regressor", False),
        "ridge_r": ("RidgeR", "regressor", False),
        "sgd_r": ("SgdR", "regressor", True),
        "knn_r": ("KnnR", "regressor", False),
        "decision_tree_r": ("DecisionTreeR", "regressor", True),
        "extra_tree_r": ("ExtraTreeR", "regressor", True),
        "random_forest_r": ("RandomForestR", "regressor", True),
        "bagging_r": ("BaggingR", "regressor", True),
    }

    def test_derived_columns_match_roster(self):
        assert [k.value for k in ALL_KINDS] == list(self.ROSTER)
        for kind, (name, task, seeded) in self.ROSTER.items():
            est = build_estimator(ModelSpec(kind, seed=41))
            assert (display_name(kind), task_of(kind)) == (name, task)
            assert (est.get_params().get("seed") == 41) == seeded


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ParamError):
            ModelSpec("svm_c")

    def test_unknown_param(self):
        with pytest.raises(ParamError):
            ModelSpec("knn_c", {"neighbors": 5})

    def test_bad_value(self):
        with pytest.raises(ParamError):
            ModelSpec("knn_c", {"k": 0})

    def test_none_depth_means_unlimited(self):
        ModelSpec("decision_tree_c", {"max_depth": None})

    def test_kind_mismatch_errors(self):
        X, y_class, y_reg = blob_data(10, seed=16)
        classifier = fit(ModelSpec("knn_c"), X, y_class)
        regressor = fit(ModelSpec("knn_r"), X, y_reg)
        with pytest.raises(KindMismatch):
            predict_value(classifier, X[0])
        with pytest.raises(KindMismatch):
            predict_class(regressor, X[0])

    def test_width_mismatch(self):
        X, y_class, _ = blob_data(10, seed=17)
        model = fit(ModelSpec("knn_c"), X, y_class)
        with pytest.raises(WidthMismatch):
            predict_class(model, np.zeros(2))

    def test_non_finite_rejected(self):
        X, y_class, _ = blob_data(10, seed=18)
        model = fit(ModelSpec("knn_c"), X, y_class)
        with pytest.raises(NonFiniteInput):
            predict_class(model, np.array([np.nan, 0, 0, 0]))
        bad = X.copy()
        bad[0, 0] = np.inf
        with pytest.raises(NonFiniteInput):
            fit(ModelSpec("knn_c"), bad, y_class)


class TestSpaces:
    def test_knn_space_contains_k(self):
        space = default_space("knn_c")
        names = dict(space.dims)
        assert "k" in names
        assert (names["k"].lo, names["k"].hi) == (1, 25)

    def test_ols_space_empty(self):
        assert default_space("ols_r").dims == ()

    @pytest.mark.parametrize("kind", [k.value for k in ALL_KINDS])
    def test_sampled_points_fit(self, kind):
        X, y_class, y_reg = blob_data(12, seed=19)
        y = y_class if task_of(kind) == "classifier" else y_reg
        space = default_space(kind)
        for trial_seed in range(10):
            params = sample_params(space, trial_seed)
            spec = ModelSpec(kind, params, seed=trial_seed)  # validates
            model = fit(spec, X, y)
            if task_of(kind) == "classifier":
                predict_class(model, X[0])
            else:
                predict_value(model, X[0])

    def test_estimator_get_set_params_roundtrip(self):
        spec = ModelSpec("random_forest_c", {"n_members": 7, "max_depth": 3}, seed=9)
        est = build_estimator(spec)
        params = est.get_params()
        assert params["n_members"] == 7 and params["max_depth"] == 3 and params["seed"] == 9
        est.set_params(n_members=11)
        assert est.get_params()["n_members"] == 11
        with pytest.raises(ValueError):
            est.set_params(bogus=1)
