import math

import numpy as np
import pytest

import quantroll.tuner as tuner_mod
from quantroll.dataset import SegmentSplit, build_features, label, log_diff
from quantroll.errors import AllTrialsFailed
from quantroll.indicators import IndicatorConfig
from quantroll.models import HyperParamSpace, IntRange, LogUniform, Uniform, default_space
from quantroll.tuner import derive_trial_seed, run_study, sample_params
from quantroll.walkforward import WalkForwardConfig

from .conftest import DAY, T0, bars_to_series, random_walk_bars


@pytest.fixture(scope="module")
def study_data():
    series = bars_to_series(random_walk_bars(120, seed=21))
    ds = label(build_features(series, IndicatorConfig()), log_diff(series))
    seg = SegmentSplit(
        train=(T0, T0 + 60 * DAY),
        backtest=(T0 + 60 * DAY, T0 + 95 * DAY),
        forward=(T0 + 95 * DAY, T0 + 120 * DAY),
    )
    return ds, seg


class TestSampling:
    def test_deterministic(self):
        space = default_space("random_forest_c")
        a = sample_params(space, 12345)
        b = sample_params(space, 12345)
        assert a == b

    def test_different_seeds_differ(self):
        space = default_space("random_forest_c")
        assert sample_params(space, 1) != sample_params(space, 2)

    def test_degenerate_int_range(self):
        space = HyperParamSpace("knn_c", (("k", IntRange(3, 3)),))
        for seed in range(20):
            assert sample_params(space, seed) == {"k": 3}

    def test_int_bounds_inclusive(self):
        space = HyperParamSpace("knn_c", (("k", IntRange(1, 3)),))
        seen = {sample_params(space, seed)["k"] for seed in range(200)}
        assert seen == {1, 2, 3}

    def test_loguniform_median(self):
        space = HyperParamSpace("x", (("lr", LogUniform(1e-4, 1.0)),))
        draws = [sample_params(space, seed)["lr"] for seed in range(10_000)]
        median = sorted(draws)[len(draws) // 2]
        assert 1e-2 / 3 < median < 1e-2 * 3

    def test_uniform_dimension_in_bounds(self):
        space = HyperParamSpace("x", (("frac", Uniform(0.25, 0.75)),))
        draws = [sample_params(space, seed)["frac"] for seed in range(300)]
        assert all(0.25 <= d < 0.75 for d in draws)
        assert max(draws) > 0.6 and min(draws) < 0.4

    def test_distribution_invariants(self):
        with pytest.raises(ValueError):
            Uniform(1.0, 1.0)
        with pytest.raises(ValueError):
            LogUniform(0.0, 1.0)
        with pytest.raises(ValueError):
            IntRange(5, 4)

    def test_python_native_types(self):
        params = sample_params(default_space("random_forest_c"), 5)
        assert isinstance(params["n_members"], int) and not isinstance(params["n_members"], bool)
        assert isinstance(params["max_features"], str)

    def test_trial_seed_stable(self):
        assert derive_trial_seed(7, 3) == derive_trial_seed(7, 3)
        assert derive_trial_seed(7, 3) != derive_trial_seed(7, 4)
        assert derive_trial_seed(-1, 0) >= 0  # negative master seeds are masked


class TestRunStudy:
    def test_single_trial_is_best(self, study_data):
        ds, seg = study_data
        result = run_study("knn_c", ds, seg, WalkForwardConfig(window=7), n_trials=1, seed=3)
        assert result.best.index == 0
        assert len(result.trials) == 1
        assert result.best.objective == result.best.report.pnl_percent

    def test_rerun_byte_identical(self, study_data):
        ds, seg = study_data
        a = run_study("ridge_c", ds, seg, WalkForwardConfig(window=7), n_trials=8, seed=11)
        b = run_study("ridge_c", ds, seg, WalkForwardConfig(window=7), n_trials=8, seed=11)
        assert a.to_jsonl() == b.to_jsonl()
        assert a.best.index == b.best.index

    def test_best_is_max_with_lowest_index_on_ties(self, study_data):
        ds, seg = study_data
        result = run_study("ols_r", ds, seg, WalkForwardConfig(window=7), n_trials=5, seed=2)
        # ols_r has an empty space: every trial scores identically; ties -> index 0
        objectives = [t.objective for t in result.trials]
        assert all(o == objectives[0] for o in objectives)
        assert result.best.index == 0

    def test_failed_trials_never_best(self, study_data, monkeypatch):
        ds, seg = study_data
        real = tuner_mod.evaluate_segment

        def flaky(view, spec, *args, **kwargs):
            if spec.params["k"] > 10:
                raise RuntimeError("simulated blow-up")
            return real(view, spec, *args, **kwargs)

        monkeypatch.setattr(tuner_mod, "evaluate_segment", flaky)
        result = run_study("knn_c", ds, seg, WalkForwardConfig(window=7), n_trials=30, seed=5)
        failed = [t for t in result.trials if t.error is not None]
        assert failed, "expected some simulated failures"
        for trial in failed:
            assert trial.objective == float("-inf")
            assert "simulated blow-up" in trial.error
        assert result.best.params["k"] <= 10
        assert result.best.objective >= max(t.objective for t in result.trials)

    def test_all_trials_failed(self, study_data, monkeypatch):
        ds, seg = study_data

        def never(*args, **kwargs):
            raise RuntimeError("nope")

        monkeypatch.setattr(tuner_mod, "evaluate_segment", never)
        with pytest.raises(AllTrialsFailed):
            run_study("knn_c", ds, seg, WalkForwardConfig(window=7), n_trials=3, seed=1)

    def test_trial_log_format(self, study_data):
        import json

        ds, seg = study_data
        result = run_study("knn_c", ds, seg, WalkForwardConfig(window=7), n_trials=3, seed=9)
        lines = result.to_jsonl().strip().split("\n")
        assert len(lines) == 3
        for i, line in enumerate(lines):
            record = json.loads(line)
            assert record["index"] == i
            assert "params" in record and "objective" in record

    def test_trial_independence(self, study_data):
        ds, seg = study_data
        result = run_study("knn_c", ds, seg, WalkForwardConfig(window=7), n_trials=12, seed=6)
        survivors = [t for t in result.trials if t.index != result.best.index + 1]
        best_again = max(survivors, key=lambda t: (t.objective, -t.index))
        assert best_again.params == result.best.params

    def test_objective_is_backtest_pnl(self, study_data):
        ds, seg = study_data
        result = run_study("knn_c", ds, seg, WalkForwardConfig(window=7), n_trials=3, seed=4)
        assert {t.report.segment for t in result.trials} == {"backtest"}
        assert [t.objective for t in result.trials] == [t.report.pnl_percent for t in result.trials]

    def test_config_validation(self, study_data):
        ds, seg = study_data
        config = WalkForwardConfig(window=7)
        for bad in (0, 2.5, True):
            with pytest.raises(ValueError, match=f"n_trials must be positive integer, got {bad!r}"):
                run_study("knn_c", ds, seg, config, n_trials=bad)
        for bad in (2.5, True):
            with pytest.raises(ValueError, match=f"seed must be integer, got {bad!r}"):
                run_study("knn_c", ds, seg, config, n_trials=1, seed=bad)
