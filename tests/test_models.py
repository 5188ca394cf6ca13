import re

import numpy as np
import pytest

from quantroll.direction import DOWN, UP
from quantroll.errors import (
    EmptyTraining,
    KindMismatch,
    LengthMismatch,
    NonFiniteInput,
    ParamError,
    WidthMismatch,
)
from quantroll.models import (
    ALL_KINDS,
    CLASSIFIER_KINDS,
    ModelKind,
    ModelSpec,
    build_estimator,
    cart_best_split,
    default_space,
    display_name,
    fit,
    hyperparameters,
    predict_class,
    predict_value,
    task_of,
    validate_params,
)
from quantroll.models.base import classify_from_scores
from quantroll.models.linear import LogisticClassifier, SGDClassifier, SGDRegressor, _GradientDescent
from quantroll.models.neighbors import KNNClassifier
from quantroll.models.tree import gini_impurity, grow_forest, variance_impurity
from quantroll.tuner import sample_params

from .reference import REF_PARAM_SCHEMAS, REF_RULE_VALUES, REF_SPACES


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
            losses.append(loss(_GradientDescent.scores(est, X), y))  # margins, before logistic's tanh
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
        """Every classifier kind, on a window of either label alone."""
        X = np.random.default_rng(0).normal(size=(6, 3))
        for label in (UP, DOWN):
            y = np.full(6, label, dtype=np.int8)
            for kind in CLASSIFIER_KINDS:
                model = fit(ModelSpec(kind), X, y)
                assert type(model.estimator).__name__ == "ConstantClassifier"
                assert predict_class(model, np.zeros(3)) == (label, 0.5 * label)

    def test_single_row_classification(self):
        model = fit(ModelSpec("sgd_c"), np.array([[1.0, 2.0]]), np.array([DOWN]))
        assert predict_class(model, np.array([9.0, 9.0])) == (DOWN, -0.5)

    def test_single_row_regression_mean(self):
        model = fit(ModelSpec("random_forest_r"), np.array([[1.0]]), np.array([0.042]))
        assert predict_value(model, np.array([5.0])) == pytest.approx(0.042)

    def test_empty_training_rejected(self):
        with pytest.raises(EmptyTraining):
            fit(ModelSpec("ols_r"), np.zeros((0, 2)), np.zeros(0))


KIND_NAMES = [k.value for k in ALL_KINDS]
CLASSIFIER_NAMES = [k.value for k in CLASSIFIER_KINDS]


class TestFitContract:
    """`models.fit` is the one place a training window is checked; no
    estimator's fit checks its arrays again."""

    @staticmethod
    def window(kind):
        X, y_class, y_reg = blob_data(8, seed=21, width=3)
        return X, (y_class if task_of(kind) == "classifier" else y_reg).astype(np.float64)

    @pytest.mark.parametrize("kind", KIND_NAMES)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_x_rejected(self, kind, bad):
        X, y = self.window(kind)
        X[3, 1] = bad
        with pytest.raises(NonFiniteInput, match="^X contains non-finite entries$"):
            fit(ModelSpec(kind), X, y)

    @pytest.mark.parametrize("kind", KIND_NAMES)
    def test_nan_y_rejected(self, kind):
        X, y = self.window(kind)
        y[3] = np.nan
        with pytest.raises(NonFiniteInput, match="^y contains non-finite entries$"):
            fit(ModelSpec(kind), X, y)

    @pytest.mark.parametrize("kind", KIND_NAMES)
    def test_short_or_2d_y_rejected(self, kind):
        X, y = self.window(kind)
        for bad_y in (y[:-1], y[:, None]):
            with pytest.raises(LengthMismatch):
                fit(ModelSpec(kind), X, bad_y)

    @pytest.mark.parametrize("kind", KIND_NAMES)
    def test_zero_rows_rejected(self, kind):
        X, y = self.window(kind)
        with pytest.raises(EmptyTraining):
            fit(ModelSpec(kind), X[:0], y[:0])

    @pytest.mark.parametrize("kind", KIND_NAMES)
    def test_zero_columns_rejected(self, kind):
        X, y = self.window(kind)
        with pytest.raises(WidthMismatch, match="^X has no feature columns$"):
            fit(ModelSpec(kind), X[:, :0], y)

    @pytest.mark.parametrize("kind", CLASSIFIER_NAMES)
    @pytest.mark.parametrize("labels", [(0, 1), (2, -1)], ids=["0/1", "2/-1"])
    def test_labels_other_than_plus_minus_one_rejected(self, kind, labels):
        X, _ = self.window(kind)
        y = np.resize(np.array(labels, dtype=np.float64), X.shape[0])
        with pytest.raises(ValueError, match=r"classification targets must be \+1/-1"):
            fit(ModelSpec(kind), X, y)

    # memo stays empty for these: they draw nothing, or (extra trees, GD kinds) draw afresh from their seed at every fit
    DRAW_NOTHING = {
        "ols_r", "ridge_r", "ridge_c", "perceptron_c", "knn_c", "knn_r", "bernoulli_nb_c", "decision_tree_c",
        "decision_tree_r", "extra_tree_c", "extra_tree_r", "logistic_c", "sgd_c", "sgd_r",
    }

    @pytest.mark.parametrize("kind", KIND_NAMES)
    def test_every_estimator_fit_takes_a_memo(self, kind):
        X, y = self.window(kind)
        estimator = build_estimator(ModelSpec(kind))
        assert estimator.fit(X, y, {}) is estimator

    @pytest.mark.parametrize("kind", KIND_NAMES)
    @pytest.mark.parametrize("rows", [2, 7])
    def test_memo_holds_draws_of_the_kinds_that_draw_and_changes_no_prediction(self, kind, rows):
        X, y = self.window(kind)
        X, y = X[1 : 1 + rows], y[1 : 1 + rows]  # two classes from the first two rows on
        assert set(y[:2].tolist()) == {UP, DOWN} or task_of(kind) == "regressor"
        spec, memo = ModelSpec(kind, seed=7), {}
        shared, fresh = fit(spec, X, y, memo), fit(spec, X, y)
        assert (not memo) == (kind in self.DRAW_NOTHING)
        queries = blob_data(6, seed=22, width=3)[0]
        for model in shared, fresh:
            assert type(model.estimator) is type(build_estimator(spec))  # no constant fallback
        score = predict_class if task_of(kind) == "classifier" else predict_value
        got = np.array([score(shared, x) for x in queries], dtype=np.float64)
        want = np.array([score(fresh, x) for x in queries], dtype=np.float64)
        assert got.tobytes() == want.tobytes()
        assert shared.estimator.scores(queries).tobytes() == fresh.estimator.scores(queries).tobytes()


class TestClassifierPredict:
    @pytest.mark.parametrize("kind", [*CLASSIFIER_NAMES, "constant"])
    def test_predict_is_sign_of_decision_scores(self, kind):
        """int8 labels, +1 exactly where the score is positive: ties go down.

        Identical rows with alternating labels tie every kind's score at 0 but
        the forests', whose two members split their vote on the blob window;
        "constant" is the fallback fitted on single-class windows."""
        X, y_class, _ = blob_data(40, seed=20)
        if kind == "constant":
            cases = [("logistic_c", {}, X, np.full(40, label)) for label in (UP, DOWN)]
        else:
            split_vote = {"n_members": 2, "max_depth": 1} if kind in ("random_forest_c", "bagging_c") else {}
            tied = np.array([UP, DOWN, UP, DOWN], dtype=np.float64)
            cases = [(kind, {}, np.zeros((4, 3)), tied), (kind, split_vote, X, y_class)]
        ties = 0
        for case_kind, params, Xw, yw in cases:
            est = fit(ModelSpec(case_kind, params, seed=8), Xw, yw).estimator
            assert (type(est).__name__ == "ConstantClassifier") == (kind == "constant")
            scores = est.scores(Xw)
            labels = classify_from_scores(scores)
            assert scores.dtype == np.float64 and labels.dtype == np.int8
            np.testing.assert_array_equal(labels, np.where(scores > 0, UP, DOWN))
            ties += np.count_nonzero(scores == 0.0)
        assert (ties == 0) == (kind == "constant")


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
        split = np.nonzero(votes.sum(axis=1) == 0)[0]
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


class TestRandomSplits:
    def test_random_splits_take_no_column_subsets(self):
        X, _, y = blob_data(10, seed=24)
        for seeds in (range(1), range(2)):
            with pytest.raises(ValueError, match="^random splits draw over all columns$"):
                grow_forest(X, y, "variance", seeds, max_features=2, random_split=True)

    @pytest.mark.parametrize("seeds", [range(2), range(5, 8), range(0)])
    def test_random_splits_grow_one_tree(self, seeds):
        X, _, y = blob_data(10, seed=24)
        with pytest.raises(ValueError, match="^random splits grow one tree$"):
            grow_forest(X, y, "variance", seeds, random_split=True)

    @pytest.mark.parametrize("memo", [None, {}])
    def test_random_splits_refuse_a_bootstrap(self, memo):
        X, y_class, _ = blob_data(30, seed=26)
        with pytest.raises(ValueError, match="^random splits grow on every row$"):
            grow_forest(X, y_class.astype(np.float64), "gini", range(3, 4), bootstrap=True, random_split=True, memo=memo)
        assert memo in (None, {})


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
            assert (getattr(est, "seed", None) == 41) == seeded
        est = build_estimator(ModelSpec("random_forest_c", {"n_members": 7, "max_depth": 3}, seed=9))
        assert (est.n_members, est.max_depth, est.seed) == (7, 3, 9)


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

    @pytest.mark.parametrize("kind", [k.value for k in ALL_KINDS])
    def test_derived_tables_match_reference(self, kind):
        assert set(REF_SPACES) == set(REF_PARAM_SCHEMAS) == {k.value for k in ALL_KINDS}
        dims = tuple(
            (name, type(dist).__name__, dist.choices) if hasattr(dist, "choices")
            else (name, type(dist).__name__, dist.lo, dist.hi)
            for name, dist in default_space(ModelKind(kind))
        )
        assert dims == REF_SPACES[kind]
        assert default_space(kind) == default_space(ModelKind(kind))
        schema = REF_PARAM_SCHEMAS[kind]
        assert set(hyperparameters(kind)) == set(schema)
        for name, description in schema.items():
            bad_values, good = REF_RULE_VALUES[description]
            ModelSpec(kind, {name: good})
            for value in bad_values:
                with pytest.raises(ParamError) as err:
                    validate_params(kind, {name: value})
                assert str(err.value) == f"{kind}.{name} must be {description}, got {value!r}"
        with pytest.raises(ParamError, match=f"^{kind} has no hyperparameter 'seed'$"):
            ModelSpec(kind, {"seed": 3})
        with pytest.raises(ParamError, match="^unknown model kind 'svm_c'$"):
            ModelSpec("svm_c")
        with pytest.raises(ParamError, match="^unknown model kind 'svm_c'$"):
            default_space("svm_c")

    @pytest.mark.parametrize("seed", [2.5, True, "3", -1, None], ids=["float", "bool", "str", "negative", "none"])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ParamError, match=re.escape(f"seed must be non-negative integer, got {seed!r}")):
            ModelSpec("random_forest_c", seed=seed)

    @pytest.mark.parametrize("kind", KIND_NAMES)
    def test_numpy_integer_seed_fits_like_int(self, kind):
        X, y_class, y_reg = blob_data(20, seed=23)
        y = y_class if task_of(kind) == "classifier" else y_reg
        got, want = (fit(ModelSpec(kind, seed=seed), X, y, {}) for seed in (np.int64(3), 3))
        assert got.estimator.scores(X).tobytes() == want.estimator.scores(X).tobytes()

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
        names = dict(space)
        assert "k" in names
        assert (names["k"].lo, names["k"].hi) == (1, 25)

    def test_ols_space_empty(self):
        assert default_space("ols_r") == ()

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
