"""Acceptance gate: every criterion below prints one PASS line with its runtime.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import quantroll.tuner as tuner_mod
from quantroll.candles import serialize_candles_csv
from quantroll.dataset import (
    DatasetView,
    FeatureFrame,
    LabeledDataset,
    SegmentSplit,
    build_features,
    label,
    log_diff,
    split,
)
from quantroll.direction import DOWN, UP
from quantroll.errors import ConstantTruth, ZeroVolatility
from quantroll.evaluation import evaluate_segment
from quantroll.indicators import IndicatorConfig, acc_dist, bollinger, keltner_width, mfi, parabolic_sar
from quantroll.metrics import classification_metrics, r_squared, regression_errors, sharpe
from quantroll.models import ALL_KINDS, ModelSpec, cart_best_split, fit, predict_class, predict_value
from quantroll.models.base import classify_from_scores
from quantroll.models.tree import gini_impurity, variance_impurity
from quantroll.report import CLASSIFIER_COLUMNS, REGRESSOR_COLUMNS, emit_table
from quantroll.run import RunConfig, run_experiment
from quantroll.trading import simulate
from quantroll.tuner import run_study
from quantroll.walkforward import WalkForwardConfig, evaluated_indices, run_walkforward

from .conftest import DAY, T0, bars_to_series, momentum_bars, random_walk_bars, trend_cycle_bars
from .reference import (
    ref_acc_dist,
    ref_bollinger,
    ref_classification_metrics,
    ref_keltner_width,
    ref_mfi,
    ref_parabolic_sar,
    ref_r_squared,
    ref_regression_errors,
    ref_sharpe,
)


class Budget:
    def __init__(self, number, description, limit_s):
        self.number = number
        self.description = description
        self.limit_s = limit_s

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[ACCEPTANCE] criterion {self.number:02d} {status} ({elapsed:6.2f}s / limit {self.limit_s:.0f}s) - {self.description}")
        if exc_type is None and self.limit_s is not None:
            assert elapsed < self.limit_s, f"criterion {self.number} exceeded its {self.limit_s}s budget ({elapsed:.2f}s)"
        return False


def bars_of(series):
    return [
        (float(series.open[i]), float(series.high[i]), float(series.low[i]),
         float(series.close[i]), float(series.volume[i]))
        for i in range(len(series))
    ]


def test_criterion_01_indicator_oracles(fixture_40):
    with Budget(1, "indicator oracle suite on the 40-bar fixture (1e-9)", 1.0):
        bars = bars_of(fixture_40)

        ad = acc_dist(fixture_40)
        assert ad.warmup_len == 0
        np.testing.assert_allclose(ad.values, ref_acc_dist(bars), rtol=0, atol=1e-9)

        m = mfi(fixture_40, 14)
        assert m.warmup_len == 14
        np.testing.assert_allclose(m.values[14:], np.array(ref_mfi(bars, 14))[14:], rtol=0, atol=1e-9)

        bands = bollinger(fixture_40, 20, 2.0)
        mid, up, lo, bw = ref_bollinger(bars, 20, 2.0)
        for series, expected in ((bands.middle, mid), (bands.upper, up), (bands.lower, lo), (bands.bandwidth, bw)):
            assert series.warmup_len == 19
            assert np.isnan(series.values[:19]).all()
            np.testing.assert_allclose(series.values[19:], np.array(expected)[19:], rtol=0, atol=1e-9)

        kc = keltner_width(fixture_40, 20, 10, 2.0)
        assert kc.warmup_len == 20
        np.testing.assert_allclose(kc.values[20:], np.array(ref_keltner_width(bars, 20, 10, 2.0))[20:], rtol=0, atol=1e-9)

        sar, trend = parabolic_sar(fixture_40, 0.02, 0.02, 0.2)
        ref_sar, ref_trend, _flips = ref_parabolic_sar(bars, 0.02, 0.02, 0.2)
        assert sar.warmup_len == 1
        np.testing.assert_allclose(sar.values[1:], np.array(ref_sar)[1:], rtol=0, atol=1e-9)
        np.testing.assert_array_equal(trend, np.array(ref_trend))


def test_criterion_02_metric_oracles():
    with Budget(2, "metric oracle suite on 1000 seeded random fixtures (1e-12)", 5.0):
        rng = np.random.default_rng(20240212)
        approx = lambda x: pytest.approx(x, rel=1e-12, abs=1e-12)
        zero_denominator_hits = 0
        for _ in range(1000):
            n = int(rng.integers(2, 40))
            returns = rng.normal(0.0, 0.02, n)
            truth = rng.choice([UP, DOWN], n)
            pred = rng.choice([UP, DOWN], n)
            t_reg = rng.normal(0.0, 0.02, n)
            p_reg = rng.normal(0.0, 0.02, n)

            if returns.std(ddof=1) > 0:
                assert sharpe(returns, 0.02, 365.0) == approx(ref_sharpe(list(returns), 0.02, 365.0))
            mine = classification_metrics(truth, pred)
            theirs = ref_classification_metrics(list(truth), list(pred))
            if theirs[1] == 0.0 or theirs[2] == 0.0:
                zero_denominator_hits += 1
            for a, b in zip(mine, theirs):
                assert a == approx(b)
            for a, b in zip(regression_errors(t_reg, p_reg), ref_regression_errors(list(t_reg), list(p_reg))):
                assert a == approx(b)
            if ((t_reg - t_reg.mean()) ** 2).sum() > 0:
                assert r_squared(t_reg, p_reg) == approx(ref_r_squared(list(t_reg), list(p_reg)))

        assert zero_denominator_hits > 0
        # explicit zero-denominator conventions
        assert classification_metrics([UP, UP], [DOWN, DOWN])[1:] == (0.0, 0.0, 0.0)
        assert classification_metrics([DOWN, DOWN], [DOWN, DOWN])[1:] == (0.0, 0.0, 0.0)
        with pytest.raises(ZeroVolatility):
            sharpe([0.01, 0.01, 0.01], 0.0, 365.0)
        with pytest.raises(ConstantTruth):
            r_squared([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


def test_criterion_03_trading_properties():
    with Budget(3, "trading-simulation properties on 200 seeded sequences", 5.0):
        rng = np.random.default_rng(987)
        for _ in range(200):
            n = int(rng.integers(1, 60))
            pos = rng.choice([-1, 0, 1], n).astype(np.int8)
            rets = rng.normal(0.0, 0.03, n)
            ts = np.arange(n, dtype=np.int64) * DAY + T0
            zero_fee, _ = simulate(ts, pos, rets, 0.0)
            expected = 0.0
            for p, r in zip(pos, rets):
                expected += p * r
            assert zero_fee.equity[-1] == expected  # additivity, exact

            finals = [simulate(ts, pos, rets, f)[0].equity[-1] for f in (0.0, 2.0, 20.0, 200.0)]
            assert all(a >= b - 1e-15 for a, b in zip(finals, finals[1:]))  # fee monotonicity

            assert zero_fee.equity[-1] <= np.abs(rets).sum() + 1e-12  # perfect-foresight bound

            mirrored, _ = simulate(ts, -pos, rets, 0.0)
            np.testing.assert_allclose(mirrored.equity, -zero_fee.equity, rtol=0, atol=1e-15)  # sign symmetry

        best = np.array([0.01, -0.02, 0.0, 0.03])
        curve, _ = simulate(np.arange(4, dtype=np.int64), np.sign(best).astype(np.int8), best)
        assert curve.equity[-1] == pytest.approx(np.abs(best).sum(), abs=1e-15)  # equality case


def test_criterion_04_model_sanity():
    with Budget(4, "model sanity: OLS, ridge, KNN, forest-of-one, CART", 10.0):
        X = np.arange(5, dtype=np.float64).reshape(-1, 1)
        y = 3.0 + 2.0 * X[:, 0]
        ols = fit(ModelSpec("ols_r"), X, y)
        assert ols.estimator.weights_[0] == pytest.approx(3.0, abs=1e-8)
        assert ols.estimator.weights_[1] == pytest.approx(2.0, abs=1e-8)

        Xc = np.array([[-1.0], [0.0], [1.0]])
        yc = np.array([-0.1, 0.0, 0.1])
        ridge = fit(ModelSpec("ridge_r", {"lam": 1e9}), Xc, yc)
        assert np.abs(ridge.estimator.weights_).max() < 1e-6

        rng = np.random.default_rng(17)
        Xb = rng.normal(0, 1, size=(50, 4))
        yb_class = np.where(Xb[:, 0] > 0, UP, DOWN).astype(np.int8)
        yb_reg = Xb[:, 0] * 0.01 + rng.normal(0, 0.001, 50)

        knn = fit(ModelSpec("knn_c", {"k": 1}), Xb, yb_class)
        assert all(predict_class(knn, xi)[0] == yi for xi, yi in zip(Xb, yb_class))

        forest = fit(ModelSpec("random_forest_r", {"n_members": 1, "bootstrap": False, "max_depth": None}, seed=4), Xb, yb_reg)
        tree = fit(ModelSpec("decision_tree_r", {"max_depth": None}, seed=4), Xb, yb_reg)
        for xi in Xb:
            assert predict_value(forest, xi) == predict_value(tree, xi)
        forest_c = fit(ModelSpec("bagging_c", {"n_members": 1, "bootstrap": False}, seed=4), Xb, yb_class)
        tree_c = fit(ModelSpec("decision_tree_c"), Xb, yb_class)
        for xi in Xb:
            assert predict_class(forest_c, xi)[0] == predict_class(tree_c, xi)[0]

        assert gini_impurity(np.array([UP, UP, UP], dtype=np.float64)) == 0.0
        assert variance_impurity(np.array([0.7, 0.7])) == 0.0

        found = cart_best_split(
            np.array([[1.0], [2.0], [3.0], [4.0]]),
            np.array([UP, UP, DOWN, DOWN], dtype=np.float64),
            "gini",
        )
        assert found.threshold == pytest.approx(2.5, abs=1e-12)
        assert found.decrease == pytest.approx(0.5, abs=1e-12)


def _corrupt_after(ds, t, rng):
    rows = ds.frame.rows.copy()
    class_t = ds.class_target.copy()
    reg_t = ds.reg_target.copy()
    rows[t + 1 :] = rng.normal(10.0, 5.0, size=rows[t + 1 :].shape)
    class_t[t + 1 :] = rng.integers(0, 2, size=class_t[t + 1 :].shape).astype(np.int8) * 2 - 1
    reg_t[t + 1 :] = rng.normal(0.0, 0.1, size=reg_t[t + 1 :].shape)
    return LabeledDataset(
        FeatureFrame(ds.frame.feature_names, rows, ds.frame.timestamps, ds.frame.valid_from),
        class_t,
        reg_t,
        ds.usable_range,
    )


def test_criterion_05_no_lookahead():
    with Budget(5, "no-lookahead: 20 random (model, window) pairs, 10 t each, bit-exact", 60.0):
        series = bars_to_series(random_walk_bars(300, seed=99))
        ds = label(build_features(series, IndicatorConfig()), log_diff(series))
        rng = np.random.default_rng(555)
        windows = (1, 7, 14, 21, 28)

        view_lo = ds.valid_from + max(windows)
        view_hi = view_lo + 30
        base_indices = np.arange(view_lo, view_hi + 1, dtype=np.int64)

        for _pair in range(20):
            kind = ALL_KINDS[int(rng.integers(0, len(ALL_KINDS)))]
            window = int(windows[int(rng.integers(0, len(windows)))])
            spec = ModelSpec(kind, {}, seed=int(rng.integers(0, 2**32)))
            config = WalkForwardConfig(window=window)
            clean_view = DatasetView(ds, "backtest", base_indices)
            clean = run_walkforward(clean_view, spec, config)

            ts = sorted(rng.choice(base_indices, size=10, replace=False).tolist())
            for t in ts:
                corrupted = _corrupt_after(ds, int(t), np.random.default_rng(int(rng.integers(0, 2**32))))
                cview = DatasetView(corrupted, "backtest", np.arange(view_lo, t + 1, dtype=np.int64))
                dirty = run_walkforward(cview, spec, config)
                i = int(np.nonzero(evaluated_indices(clean_view, config) == t)[0][0])
                assert classify_from_scores(dirty)[-1] == classify_from_scores(clean)[i]
                assert dirty[-1] == clean[i]


def test_criterion_06_run_determinism(tmp_path):
    with Budget(6, "byte-identical report.json/trials.jsonl across reruns (concurrent)", 120.0):
        series = bars_to_series(random_walk_bars(160, seed=77))
        csv_file = tmp_path / "candles.csv"
        csv_file.write_text(serialize_candles_csv(series), encoding="utf-8")
        raw = {
            "data": {"csv_path": str(csv_file)},
            "interval": DAY,
            "split": {
                "train_start": T0,
                "backtest_start": T0 + 80 * DAY,
                "forward_start": T0 + 130 * DAY,
                "forward_end": T0 + 160 * DAY,
            },
            "models": ["sgd_c", "knn_r"],
            "windows": [7, 14],
            "tuner_trials": 5,
            "jobs": 4,
            "seed": 3,
            "out_dir": str(tmp_path / "runs"),
        }
        config = RunConfig.from_dict(raw)
        run_experiment(config, run_id="first")
        run_experiment(config, run_id="second")
        root = tmp_path / "runs"
        for name in ("report.json", "trials.jsonl", "config.json"):
            assert (root / "first" / name).read_bytes() == (root / "second" / name).read_bytes()
        serial = RunConfig.from_dict({**raw, "jobs": 1, "out_dir": str(tmp_path / "serial")})
        c = run_experiment(serial, run_id="third")
        assert c.report_rows() == json.loads((root / "first" / "report.json").read_text())["reports"]

        # Two runs at once, on two threads, into separate run directories.
        start = threading.Barrier(2)

        def run_together(run_id):
            start.wait(timeout=60)
            run_experiment(config, run_id=run_id)

        with ThreadPoolExecutor(max_workers=2) as pool:
            for future in [pool.submit(run_together, run_id) for run_id in ("left", "right")]:
                future.result(timeout=110)
        curves = sorted(p.name for p in (root / "first" / "equity").iterdir())
        assert len(curves) == 2 * 2 * 2
        for run_id in ("left", "right"):
            assert sorted(p.name for p in (root / run_id / "equity").iterdir()) == curves
            for name in ("report.json", "trials.jsonl", *(f"equity/{curve}" for curve in curves)):
                assert (root / run_id / name).read_bytes() == (root / "first" / name).read_bytes()


def test_criterion_07_walkforward_counting():
    with Budget(7, "window 7 over a 10-index view with no history -> 3 predictions", 5.0):
        n = 11
        rng = np.random.default_rng(1)
        frame = FeatureFrame(
            ("f1", "f2"), rng.normal(size=(n, 2)), np.arange(n, dtype=np.int64) * DAY + T0, 0
        )
        reg = np.concatenate([rng.normal(0, 0.01, n - 1), [np.nan]])
        class_t = np.where(reg > 0, UP, DOWN).astype(np.int8)
        class_t[-1] = 0
        ds = LabeledDataset(frame, class_t, reg, (0, n - 2))
        view = DatasetView(ds, "backtest", np.arange(0, 10, dtype=np.int64))
        config = WalkForwardConfig(window=7)
        scores = run_walkforward(view, ModelSpec("knn_c", {"k": 1}), config)
        assert len(scores) == 3
        np.testing.assert_array_equal(ds.timestamps[evaluated_indices(view, config)], ds.timestamps[[7, 8, 9]])


def test_criterion_08_synthetic_market_end_to_end(tmp_path):
    with Budget(8, "18 models x 5 windows sweep on the drift+sinusoid market", 300.0):
        series = bars_to_series(trend_cycle_bars(400))
        csv_file = tmp_path / "trend.csv"
        csv_file.write_text(serialize_candles_csv(series), encoding="utf-8")
        config = RunConfig.from_dict(
            {
                "data": {"csv_path": str(csv_file)},
                "interval": DAY,
                "split": {
                    "train_start": T0,
                    "backtest_start": T0 + 200 * DAY,
                    "forward_start": T0 + 320 * DAY,
                    "forward_end": T0 + 400 * DAY,
                },
                "models": "all",
                "windows": [1, 7, 14, 21, 28],
                "seed": 8,
                "out_dir": str(tmp_path / "runs"),
            }
        )
        artifact = run_experiment(config, persist=False)
        assert len(artifact.reports) == 18 * 5 * 2

        ds = label(build_features(series, IndicatorConfig()), log_diff(series))
        seg = config.segment_split(series)
        _train, back, fwd = split(ds, seg)
        bounds = {}
        baselines = {}
        for view in (back, fwd):
            simple = np.expm1(ds.reg_target[view.indices])
            bounds[view.segment] = 100.0 * float(np.abs(simple).sum())
            baselines[view.segment] = 100.0 * float(-simple.sum())

        for report in artifact.reports:
            assert report.pnl_percent <= bounds[report.segment] + 1e-9  # perfect-foresight bound

        by_key = {(r.model, r.window, r.segment): r for r in artifact.reports}
        for kind in ("sgd_c", "random_forest_c"):
            row = by_key[(kind, 28, "backtest")]
            assert row.pnl_percent > 0.0
            assert row.pnl_percent > baselines["backtest"]


def test_criterion_09_tuner_selects_k1(momentum_series, monkeypatch):
    with Budget(9, "100-trial study on the momentum fixture selects k in {1,2}", 60.0):
        ds = label(build_features(momentum_series, IndicatorConfig()), log_diff(momentum_series))
        seg = SegmentSplit(
            train=(T0, T0 + 80 * DAY),
            backtest=(T0 + 80 * DAY, T0 + 144 * DAY),
            forward=(T0 + 144 * DAY, T0 + 160 * DAY),
        )
        train, back, _fwd = split(ds, seg)

        # pre-establish the optimum by exhaustive sweep
        sweep = {}
        for k in range(1, 26):
            _, report = evaluate_segment(back, ModelSpec("knn_c", {"k": k}), WalkForwardConfig(window=8), train_view=train)
            sweep[k] = report.pnl_percent
        best_k = max(sorted(sweep), key=lambda k: sweep[k])
        assert best_k in (1, 2)

        result = run_study("knn_c", ds, seg, WalkForwardConfig(window=8), n_trials=100, seed=41)
        assert len(result.trials) == 100
        assert result.best.params["k"] in (1, 2)
        assert result.best.objective == pytest.approx(sweep[result.best.params["k"]], abs=1e-9)
        assert result.best.objective >= max(t.objective for t in result.trials)
        ties = [t for t in result.trials if t.objective == result.best.objective]
        assert result.best.index == min(t.index for t in ties)

        # failed-trial handling: blow up half the trials and check -inf bookkeeping
        real = tuner_mod.evaluate_segment

        def flaky(view, spec, *args, **kwargs):
            if spec.params["k"] % 2 == 0:
                raise RuntimeError("synthetic failure")
            return real(view, spec, *args, **kwargs)

        monkeypatch.setattr(tuner_mod, "evaluate_segment", flaky)
        flaky_result = run_study("knn_c", ds, seg, WalkForwardConfig(window=8), n_trials=40, seed=42)
        failed = [t for t in flaky_result.trials if t.error is not None]
        assert failed
        assert all(t.objective == float("-inf") for t in failed)
        assert flaky_result.best.params["k"] % 2 == 1
        for line in flaky_result.to_jsonl().strip().split("\n"):
            record = json.loads(line)
            assert (record["objective"] is None) == ("error" in record)


def test_criterion_10_report_fidelity():
    with Budget(10, "table headers match the reference column sets exactly", 5.0):
        from .test_app import classifier_report, regressor_report

        ctext = emit_table(
            [classifier_report("knn_c", 7, "backtest", 10.0), classifier_report("knn_c", 7, "forward", 5.0)],
            "classifier",
        )
        cells = [cell.strip() for cell in ctext.split("\n")[1].split("|")]
        assert cells == ["Classifier", "Rolling window", *CLASSIFIER_COLUMNS, *CLASSIFIER_COLUMNS]
        assert CLASSIFIER_COLUMNS == ("PNL (%)", "Sharpe", "R2", "Accuracy", "F1 score", "Precision", "Recall", "No. of Trades")

        rtext = emit_table([regressor_report("sgd_r", 28, "backtest", 81.28)], "regressor")
        cells = [cell.strip() for cell in rtext.split("\n")[1].split("|")]
        assert cells == ["Regressor", "Rolling window", *REGRESSOR_COLUMNS, *REGRESSOR_COLUMNS]
        assert REGRESSOR_COLUMNS == ("PNL (%)", "Sharpe", "R2", "MAE", "MSE", "RMSE", "No. of Trades")

        block_line = ctext.split("\n")[0]
        assert "Backtest" in block_line and "Forwardtest" in block_line
