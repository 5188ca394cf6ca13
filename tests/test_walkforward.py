import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

import quantroll.walkforward

from quantroll.dataset import DatasetView, FeatureFrame, LabeledDataset, SegmentSplit, split
from quantroll.direction import DOWN, UP
from quantroll.errors import InsufficientHistory
from quantroll.models import ModelSpec, TrainedModel
from quantroll.models.base import Estimator
from quantroll.walkforward import (
    GLOBAL,
    TRAILING,
    PredictionSeries,
    WalkForwardConfig,
    run_walkforward,
    signal_from_predictions,
)

from .conftest import DAY, T0
from .reference import ref_dead_band, ref_run_walkforward


def make_dataset(n, class_target=None, reg_target=None, valid_from=0, seed=0):
    rng = np.random.default_rng(seed)
    rows = rng.normal(0.0, 1.0, size=(n, 3))
    frame = FeatureFrame(("f1", "f2", "f3"), rows, np.arange(n, dtype=np.int64) * DAY + T0, valid_from)
    if reg_target is None:
        reg_target = np.concatenate([rng.normal(0, 0.01, n - 1), [np.nan]])
    if class_target is None:
        class_target = np.where(reg_target > 0, UP, DOWN).astype(np.int8)
        class_target[-1] = 0
    return LabeledDataset(frame, np.asarray(class_target, dtype=np.int8), np.asarray(reg_target), (valid_from, n - 2))


def view_of(ds, lo, hi):
    """View over global indices [lo, hi] clipped to the usable range."""
    indices = np.array([t for t in range(lo, hi + 1) if ds.usable_range[0] <= t <= ds.usable_range[1]], dtype=np.int64)
    return DatasetView(ds, "backtest", indices)


class TestCounting:
    def test_full_history_yields_one_record_per_index(self):
        ds = make_dataset(40)
        view = view_of(ds, 20, 34)
        preds = run_walkforward(view, ModelSpec("knn_c", {"k": 3}), WalkForwardConfig(window=7))
        assert len(preds) == 15
        assert (np.diff(preds.timestamps) > 0).all()

    def test_window7_over_10_indices_no_history(self):
        ds = make_dataset(11)  # usable 0..9
        view = view_of(ds, 0, 9)
        preds = run_walkforward(view, ModelSpec("knn_c", {"k": 1}), WalkForwardConfig(window=7))
        assert len(preds) == 3
        np.testing.assert_array_equal(preds.timestamps, ds.timestamps[[7, 8, 9]])

    def test_insufficient_history(self):
        ds = make_dataset(11)
        view = view_of(ds, 0, 9)
        with pytest.raises(InsufficientHistory):
            run_walkforward(view, ModelSpec("knn_c", {"k": 1}), WalkForwardConfig(window=25))

    def test_single_class_momentum_window1(self):
        n = 30
        reg = np.concatenate([np.full(n - 1, 0.01), [np.nan]])
        ds = make_dataset(n, reg_target=reg)  # every label up
        view = view_of(ds, 5, 25)
        preds = run_walkforward(view, ModelSpec("sgd_c"), WalkForwardConfig(window=1))
        assert (preds.direction == preds.realized_class).all()


class TestRecords:
    def test_realized_fields_come_from_row_t(self):
        ds = make_dataset(30, seed=1)
        view = view_of(ds, 10, 20)
        preds = run_walkforward(view, ModelSpec("ols_r"), WalkForwardConfig(window=5))
        np.testing.assert_array_equal(preds.realized_return, ds.reg_target[10:21])
        np.testing.assert_array_equal(preds.realized_class, ds.class_target[10:21])

    def test_regressor_records_value_and_direction(self):
        ds = make_dataset(30, seed=2)
        view = view_of(ds, 10, 20)
        preds = run_walkforward(view, ModelSpec("knn_r", {"k": 2}), WalkForwardConfig(window=5))
        assert np.isfinite(preds.value).all()
        np.testing.assert_array_equal(preds.direction, np.where(preds.value > 0, UP, DOWN))

    def test_classifier_value_is_nan(self):
        ds = make_dataset(30, seed=3)
        view = view_of(ds, 10, 20)
        preds = run_walkforward(view, ModelSpec("knn_c"), WalkForwardConfig(window=5))
        assert np.isnan(preds.value).all()


class TestNoLookahead:
    @pytest.mark.parametrize("kind,params", [("knn_c", {"k": 3}), ("random_forest_r", {"n_members": 5}), ("sgd_c", {})])
    def test_future_rows_do_not_change_prediction(self, kind, params):
        ds = make_dataset(60, seed=5)
        view = view_of(ds, 20, 50)
        spec = ModelSpec(kind, params, seed=9)
        config = WalkForwardConfig(window=7)
        clean = run_walkforward(view, spec, config)
        rng = np.random.default_rng(123)
        for t in (25, 33, 47):
            rows = ds.frame.rows.copy()
            class_t = ds.class_target.copy()
            reg_t = ds.reg_target.copy()
            rows[t + 1 :] = rng.normal(5.0, 3.0, size=rows[t + 1 :].shape)
            flips = rng.integers(0, 2, size=class_t[t + 1 :].shape).astype(np.int8) * 2 - 1
            class_t[t + 1 :] = flips
            reg_t[t + 1 :] = rng.normal(0, 0.05, size=reg_t[t + 1 :].shape)
            corrupted = LabeledDataset(
                FeatureFrame(ds.frame.feature_names, rows, ds.frame.timestamps, ds.frame.valid_from),
                class_t,
                reg_t,
                ds.usable_range,
            )
            cview = view_of(corrupted, 20, t)
            dirty = run_walkforward(cview, spec, config)
            i = int(np.nonzero(clean.timestamps == ds.timestamps[t])[0][0])
            assert dirty.direction[-1] == clean.direction[i]
            assert dirty.score[-1] == clean.score[i]
            if not np.isnan(clean.value[i]):
                assert dirty.value[-1] == clean.value[i]

    def test_stride_agrees_at_retrain_points(self):
        ds = make_dataset(60, seed=6)
        view = view_of(ds, 20, 50)
        spec = ModelSpec("knn_c", {"k": 3})
        base = run_walkforward(view, spec, WalkForwardConfig(window=7, retrain_stride=1))
        strided = run_walkforward(view, spec, WalkForwardConfig(window=7, retrain_stride=3))
        for k in range(0, len(base), 3):
            assert strided.direction[k] == base.direction[k]
            assert strided.score[k] == base.score[k]

    def test_stride_reuses_model_between_retrains(self):
        ds = make_dataset(60, seed=7)
        view = view_of(ds, 20, 50)
        preds = run_walkforward(view, ModelSpec("knn_c", {"k": 3}), WalkForwardConfig(window=7, retrain_stride=5))
        assert len(preds) == len(view.indices)


class ModelProbe:
    """Wraps the walk-forward's fit and predict lookups to count fits and live models."""

    def __init__(self, monkeypatch):
        self.fits = 0
        self.live_at_predict = []
        self._refs = []
        real_fit = quantroll.walkforward.fit
        real_class = quantroll.walkforward.predict_class
        real_value = quantroll.walkforward.predict_value

        def fit(*args):
            model = real_fit(*args)
            self.fits += 1
            self._refs.append(weakref.ref(model))
            return model

        def predicting(real):
            def predict(model, x):
                self.live_at_predict.append(sum(ref() is not None for ref in self._refs))
                return real(model, x)

            return predict

        monkeypatch.setattr(quantroll.walkforward, "fit", fit)
        monkeypatch.setattr(quantroll.walkforward, "predict_class", predicting(real_class))
        monkeypatch.setattr(quantroll.walkforward, "predict_value", predicting(real_value))


class TestModelLifetime:
    @pytest.mark.parametrize("stride", [1, 3, 4])
    def test_trailing_fits_once_per_stride(self, monkeypatch, stride):
        ds = make_dataset(60, seed=10)
        view = view_of(ds, 20, 50)
        probe = ModelProbe(monkeypatch)
        preds = run_walkforward(view, ModelSpec("knn_c", {"k": 3}), WalkForwardConfig(window=7, retrain_stride=stride))
        assert probe.fits == math.ceil(len(preds) / stride)

    @pytest.mark.parametrize("kind, params", [("bagging_c", {"n_members": 3}), ("decision_tree_r", {})])
    def test_at_most_one_model_alive_at_each_prediction(self, monkeypatch, kind, params):
        ds = make_dataset(40, seed=11)
        view = view_of(ds, 20, 34)
        probe = ModelProbe(monkeypatch)
        preds = run_walkforward(view, ModelSpec(kind, params), WalkForwardConfig(window=7))
        assert probe.fits == len(preds) > 1
        assert probe.live_at_predict == [1] * len(preds)


def reachable(root):
    """The objects reachable from root through instances and containers, not through classes or modules."""
    seen, todo = {}, [root]
    while todo:
        obj = todo.pop()
        if id(obj) not in seen and not isinstance(obj, (type, type(gc))):
            seen[id(obj)] = obj
            todo.extend(gc.get_referents(obj))
    return seen


class TestDrawMemo:
    def test_tuned_size_forest_walk_is_bounded_and_keeps_its_memo_apart(self, monkeypatch):
        """The tuner's largest forest, refit at every step: the memo holds each
        member's draws and no model, no model holds the memo, and nothing
        holds it once the walk returns."""
        ds = make_dataset(80, seed=15)
        view = view_of(ds, 40, 59)
        memos = []
        real_fit = quantroll.walkforward.fit

        def fit(*args):
            model = real_fit(*args)
            memos.append(args[3])
            assert all(obj is not args[3] for obj in reachable(model).values())
            return model

        monkeypatch.setattr(quantroll.walkforward, "fit", fit)
        spec = ModelSpec("random_forest_c", {"n_members": 200, "max_features": "sqrt"}, seed=3)
        tracemalloc.start()
        try:
            preds = run_walkforward(view, spec, WalkForwardConfig(window=28))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(preds) == len(memos) == 20
        assert all(memo is memos[0] for memo in memos) and len(memos[0]) == 200
        assert not any(isinstance(obj, (TrainedModel, Estimator)) for obj in reachable(memos[0]).values())
        assert gc.get_referrers(memos[0]) == [memos]  # nothing kept it past the walk
        assert peak < 8 * 2**20


class TestGlobalMode:
    def test_global_fits_once_on_training_view(self, monkeypatch):
        ds = make_dataset(60, seed=8)
        seg = SegmentSplit(
            train=(T0, T0 + 30 * DAY),
            backtest=(T0 + 30 * DAY, T0 + 45 * DAY),
            forward=(T0 + 45 * DAY, T0 + 60 * DAY),
        )
        train, back, _fwd = split(ds, seg)
        probe = ModelProbe(monkeypatch)
        preds = run_walkforward(back, ModelSpec("knn_c", {"k": 5}), WalkForwardConfig(window=7, mode=GLOBAL), train_view=train)
        assert len(preds) == len(back)
        assert probe.fits == 1
        assert probe.live_at_predict == [1] * len(back)

    def test_global_requires_train_view(self):
        ds = make_dataset(60, seed=9)
        view = view_of(ds, 30, 40)
        with pytest.raises(ValueError):
            run_walkforward(view, ModelSpec("knn_c"), WalkForwardConfig(window=7, mode=GLOBAL))


WALK_KINDS = [
    ("logistic_c", {}), ("ridge_c", {}), ("bernoulli_nb_c", {}), ("knn_c", {"k": 2}), ("decision_tree_c", {}),
    ("ols_r", {}), ("sgd_r", {"epochs": 20}), ("knn_r", {"k": 2}), ("decision_tree_r", {"max_depth": 2}),
]


class TestMatchesStepwiseReference:
    """The loop collects scores and derives direction and value afterwards;
    the reference stores all three step by step. The series must be equal
    byte for byte, dtypes included."""

    @pytest.mark.parametrize("kind, params", WALK_KINDS, ids=[k for k, _ in WALK_KINDS])
    @pytest.mark.parametrize(
        "mode, window, stride", [(TRAILING, 7, 1), (TRAILING, 7, 3), (TRAILING, 1, 1), (TRAILING, 1, 4), (GLOBAL, 7, 1)],
        ids=["trailing-w7-s1", "trailing-w7-s3", "trailing-w1-s1", "trailing-w1-s4", "global"],
    )
    def test_series_bytes(self, kind, params, mode, window, stride):
        ds = make_dataset(70, valid_from=3, seed=12)
        train, back, _fwd = split(ds, SegmentSplit(
            train=(T0 + 3 * DAY, T0 + 40 * DAY), backtest=(T0 + 40 * DAY, T0 + 58 * DAY),
            forward=(T0 + 58 * DAY, T0 + 70 * DAY),
        ))
        spec, config = ModelSpec(kind, params, seed=5), WalkForwardConfig(window=window, mode=mode, retrain_stride=stride)
        got = run_walkforward(back, spec, config, train_view=train)
        want = ref_run_walkforward(back, spec, config, train_view=train)
        assert got.task == want.task and len(got) == len(want) > 0
        for name in ("timestamps", "direction", "score", "value", "realized_class", "realized_return"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name

    def test_window_one_takes_the_constant_fallback(self, monkeypatch):
        ds = make_dataset(30, seed=13)
        fitted = []
        real_fit = quantroll.walkforward.fit
        monkeypatch.setattr(quantroll.walkforward, "fit", lambda *args: fitted.append(real_fit(*args)) or fitted[-1])
        preds = run_walkforward(view_of(ds, 10, 20), ModelSpec("sgd_r"), WalkForwardConfig(window=1))
        assert len(fitted) == len(preds) == 11
        assert {type(m.estimator).__name__ for m in fitted} == {"ConstantRegressor"}
        # each step predicts the one target it trained on, the previous row's
        assert preds.value.tobytes() == preds.score.tobytes() == ds.reg_target[9:20].tobytes()


FOREST = {"n_members": 40}
SEEDED_KINDS = [
    *(("random_forest_c", {**FOREST, "max_features": f, "bootstrap": b}) for f in ("all", "sqrt", "log2") for b in (True, False)),
    ("random_forest_r", {**FOREST, "max_features": "sqrt", "min_samples_leaf": 8}),  # no window splits a root
    ("random_forest_r", {**FOREST, "max_features": "log2", "bootstrap": False, "max_depth": 1}),
    ("bagging_c", FOREST), ("bagging_c", {**FOREST, "bootstrap": False}),
    ("bagging_r", {**FOREST, "max_depth": 1}), ("bagging_r", {**FOREST, "min_samples_leaf": 8}),
    ("extra_tree_c", {}), ("extra_tree_r", {}), ("decision_tree_c", {}), ("decision_tree_r", {"max_depth": 3}),
    *((k, {"epochs": e, "batch_size": b}) for k in ("logistic_c", "sgd_c", "sgd_r") for e in (1, 7) for b in (1, 5, 64)),
    ("perceptron_c", {}),
]


class TestRefitsMatchFreshFits:
    """Trailing refits share one memo of seeded draws; the reference fits
    afresh at every refit. The series must be equal byte for byte."""

    @pytest.mark.parametrize(
        "kind, params", SEEDED_KINDS, ids=[f"{k}-" + "-".join(f"{n}={v}" for n, v in p.items()) for k, p in SEEDED_KINDS]
    )
    @pytest.mark.parametrize("window", [1, 7, 14])
    @pytest.mark.parametrize("stride", [1, 3, 20])
    def test_series_bytes(self, kind, params, window, stride):
        ds = make_dataset(90, valid_from=3, seed=14)
        back = view_of(ds, 40, 69)  # 30 steps: two refits at stride 20
        spec, config = ModelSpec(kind, params, seed=5), WalkForwardConfig(window=window, retrain_stride=stride)
        got = run_walkforward(back, spec, config)
        want = ref_run_walkforward(back, spec, config)
        assert len(got) == len(want) == 30
        for name in ("timestamps", "direction", "score", "value", "realized_class", "realized_return"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name


def preds_fixture(task, directions=None, values=None):
    n = len(directions) if directions is not None else len(values)
    ts = np.arange(n, dtype=np.int64) * DAY + T0
    if task == "classifier":
        direction = np.array(directions, dtype=np.int8)
        value = np.full(n, np.nan)
        score = direction.astype(np.float64) * 0.25
    else:
        value = np.array(values, dtype=np.float64)
        direction = np.where(value > 0, UP, DOWN).astype(np.int8)
        score = value
    return PredictionSeries(
        task=task,
        timestamps=ts,
        direction=direction,
        score=score,
        value=value,
        realized_class=direction.copy(),
        realized_return=np.full(n, 0.01),
    )


class TestSignals:
    def test_classifier_mapping(self):
        preds = preds_fixture("classifier", directions=[UP, UP, DOWN])
        positions = signal_from_predictions(preds)
        np.testing.assert_array_equal(positions.positions, [1, 1, -1])

    def test_regressor_sign_rule(self):
        preds = preds_fixture("regressor", values=[0.02, -0.01])
        positions = signal_from_predictions(preds, threshold=0.0)
        np.testing.assert_array_equal(positions.positions, [1, -1])

    def test_regressor_dead_band_holds_flat(self):
        preds = preds_fixture("regressor", values=[0.001, -0.002])
        positions = signal_from_predictions(preds, threshold=0.005)
        np.testing.assert_array_equal(positions.positions, [0, 0])

    def test_regressor_dead_band_holds_prior_position(self):
        preds = preds_fixture("regressor", values=[0.02, 0.001, -0.001, -0.02, 0.002])
        positions = signal_from_predictions(preds, threshold=0.005)
        np.testing.assert_array_equal(positions.positions, [1, 1, 1, -1, -1])

    @pytest.mark.parametrize("threshold", [0.0, 0.005])
    @pytest.mark.parametrize("seed", range(12))
    def test_dead_band_matches_row_loop(self, seed, threshold):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 60))
        values = rng.normal(0.0, 0.006, n)
        edges = np.array([threshold, -threshold, np.nan, 0.0, -0.0])
        picks = rng.random(n) < 0.3
        values[picks] = rng.choice(edges, size=int(picks.sum()))
        values[: int(rng.integers(0, 4))] = threshold / 2  # leading in-band rows
        positions = signal_from_predictions(preds_fixture("regressor", values=values), threshold=threshold)
        assert positions.positions.dtype == np.int8
        assert positions.positions.tolist() == ref_dead_band(values.tolist(), threshold)

    def test_dead_band_holds_at_edges_and_nan(self):
        preds = preds_fixture("regressor", values=[0.005, 0.006, 0.005, np.nan, -0.005, -0.006, np.nan, 0.0])
        positions = signal_from_predictions(preds, threshold=0.005)
        np.testing.assert_array_equal(positions.positions, [0, 1, 1, 1, 1, -1, -1, -1])

    @pytest.mark.parametrize("threshold", [-0.001, math.nan, math.inf, True])
    def test_bad_threshold_rejected(self, threshold):
        preds = preds_fixture("regressor", values=[0.01])
        with pytest.raises(ValueError, match=f"^threshold must be non-negative real, got {threshold!r}$"):
            signal_from_predictions(preds, threshold=threshold)

    def test_threshold_rejected_for_classifiers(self):
        preds = preds_fixture("classifier", directions=[UP])
        with pytest.raises(ValueError):
            signal_from_predictions(preds, threshold=0.01)


class TestConfigValidation:
    def test_bad_window(self):
        with pytest.raises(ValueError):
            WalkForwardConfig(window=0)

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            WalkForwardConfig(mode="expanding")

    def test_modes_exposed(self):
        assert TRAILING == "trailing" and GLOBAL == "global"
