import dataclasses
import json
import logging
import math
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantroll.candles import CandleSeries, serialize_candles_csv
from quantroll.errors import ConfigError, DataError, MalformedRow, MixedTasks
from quantroll.indicators import IndicatorConfig
from quantroll.metrics import ClassifierReport, RegressorReport, report_from_row, report_row
from quantroll.report import CLASSIFIER_COLUMNS, REGRESSOR_COLUMNS, emit_table
from quantroll.run import RunConfig, equity_path, make_run_id, parse_instant, persist_artifact, run_experiment
from quantroll.walkforward import WalkForwardConfig
from quantroll import cli, run as run_module, tuner as tuner_mod

from .conftest import DAY, T0, bars_to_series, random_walk_bars

N_BARS = 120
SPLIT = {
    "train_start": T0,
    "backtest_start": T0 + 60 * DAY,
    "forward_start": T0 + 95 * DAY,
    "forward_end": T0 + N_BARS * DAY,
}


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    series = bars_to_series(random_walk_bars(N_BARS, seed=31))
    path = tmp_path_factory.mktemp("data") / "candles.csv"
    path.write_text(serialize_candles_csv(series), encoding="utf-8")
    return path


# The settings of an HTTP candle source, which a data block does not take.
NOT_DATA_KEYS = ["fetch", "symbol", "start", "end"]


# Any JSON value, with a few strings that some keys accept.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from(["all", "knn_c", "global", "2023-02-01", "c.csv"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _names(cls):
    return [f.name for f in dataclasses.fields(cls)]


def _edited(base: dict, keys) -> st.SearchStrategy:
    """base with some of keys given arbitrary JSON values and some of its keys dropped."""
    return st.tuples(st.dictionaries(st.sampled_from(keys), JSON_VALUES, max_size=3), st.sets(st.sampled_from(keys))).map(
        lambda edit: {k: v for k, v in {**base, **edit[0]}.items() if k not in edit[1] or k in edit[0]}
    )


@st.composite
def edited_configs(draw):
    raw = {
        "data": draw(_edited({"csv_path": "c.csv"}, ["csv_path", *NOT_DATA_KEYS])),
        "split": draw(_edited(SPLIT, list(SPLIT))),
        "indicators": draw(_edited({}, _names(IndicatorConfig))),
        "models": ["knn_c"],
        "windows": [7],
    }
    return draw(_edited(raw, [*(set(_names(RunConfig)) - set(SPLIT)), "data", "split"]))  # a top-level csv_path too


def config_dict(csv_path, out_dir, /, **overrides):
    raw = {
        "data": {"csv_path": str(csv_path)},
        "interval": DAY,
        "split": dict(SPLIT),
        "models": ["knn_c", "ols_r"],
        "windows": [7, 14],
        "seed": 11,
        "out_dir": str(out_dir),
    }
    raw.update(overrides)
    return raw


class TestRunConfig:
    def test_instant_parsing(self):
        assert parse_instant("2023-02-01") == 1675209600
        assert parse_instant("2023-02-01T00:00:00Z") == 1675209600
        assert parse_instant("20230201T000000Z") == 1675209600
        assert parse_instant("20230201") == 1675209600  # a basic-form date, not 20,230,201 s
        assert parse_instant("1675209600") == 1675209600  # digits that are no ISO date stay epoch seconds
        assert parse_instant("99999999") == 99999999
        assert parse_instant(1675209600) == 1675209600
        with pytest.raises(Exception):
            parse_instant("not-a-date")

    def test_snapshot_round_trip(self, csv_path, tmp_path):
        config = RunConfig.from_dict(config_dict(csv_path, tmp_path))
        again = RunConfig.from_dict(config.to_dict())
        assert again == config
        assert again.to_dict() == config.to_dict()

    def test_unknown_key_rejected(self, csv_path, tmp_path):
        raw = config_dict(csv_path, tmp_path)
        raw["bogus"] = 1
        with pytest.raises(Exception):
            RunConfig.from_dict(raw)

    def test_model_all_expansion(self, csv_path, tmp_path):
        raw = config_dict(csv_path, tmp_path, models="all")
        assert len(RunConfig.from_dict(raw).models) == 18

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"split": {**SPLIT, "forward_strat": T0}}, r"unknown split keys: \['forward_strat'\]"),
            ({"data": {"csv_path": "c.csv", "path": "c.csv"}}, r"unknown data keys: \['path'\]"),
            ({"indicators": {"mfi_periods": 14}}, "mfi_periods"),
            ({"mode": "bogus"}, "mode must be"),
            ({"retrain_stride": 0}, "retrain_stride must be positive integer, got 0"),
            ({"fee_bps": -1.0}, r"fee_bps must be non-negative real, got -1\.0"),
            ({"dead_band": -0.001}, r"dead_band must be non-negative real, got -0\.001"),
            ({"tuner_trials": 0}, "tuner_trials must be positive integer, got 0"),
            ({"models": ["knn_c", "knn_c"]}, "models has duplicate entries"),
            ({"windows": [7, 7]}, "windows has duplicate entries"),
            ({"windows": [0]}, "windows must be positive integer, got 0"),
            ({"windows": [7.5]}, r"windows must be positive integer, got 7\.5"),
            ({"windows": [True]}, "windows must be positive integer, got True"),
            ({"retrain_stride": True}, "retrain_stride must be positive integer, got True"),
            ({"tuner_trials": 2.5}, r"tuner_trials must be positive integer, got 2\.5"),
            ({"tuner_trials": True}, "tuner_trials must be positive integer, got True"),
            ({"seed": 1.5}, r"seed must be integer, got 1\.5"),
            ({"seed": True}, "seed must be integer, got True"),
            ({"jobs": 1.5}, r"jobs must be positive integer, got 1\.5"),
            ({"indicators": {"mfi_period": 14.0}}, r"mfi_period must be positive integer, got 14\.0"),
            ({"indicators": {"bb_period": True}}, "bb_period must be positive integer, got True"),
            ({"indicators": {"kc_ema_period": 20.5}}, r"kc_ema_period must be positive integer, got 20\.5"),
            ({"indicators": {"kc_atr_period": 10.0}}, r"kc_atr_period must be positive integer, got 10\.0"),
            ({"models": "knn_c"}, "models must be a list, got 'knn_c'"),
            ({"windows": 7}, "windows must be a list, got 7"),
            ({"out_dir": None}, "out_dir must be string, got None"),
            ({"data": {"csv_path": 5}}, "csv_path must be string, got 5"),
            ({"data": "c.csv"}, "data must be a JSON object, got 'c.csv'"),
            ({"split": "x"}, "split must be a JSON object, got 'x'"),
            ({"indicators": [1]}, r"indicators must be a JSON object, got \[1\]"),
            ({"indicators": {"mfi_periods": 14}}, r"^unknown indicators keys: \['mfi_periods'\]$"),
            ({"data": None}, r"^missing data keys: \['csv_path'\]$"),
            ({"data": {}}, r"^missing data keys: \['csv_path'\]$"),
            ({"data": {"csv_path": "c.csv", "fetch": {"base_url": "http://localhost:1", "path_template": "/k"}}},
             r"^unknown data keys: \['fetch'\]$"),
            ({"data": {"csv_path": "c.csv", "symbol": "BTCUSD", "start": T0, "end": T0 + DAY}},
             r"^unknown data keys: \['end', 'start', 'symbol'\]$"),
            ({"data": {"csv_path": "c.csv", "symbol": "BTCUSD"}}, r"^unknown data keys: \['symbol'\]$"),
            ({"data": {"csv_path": "c.csv", "start": T0}}, r"^unknown data keys: \['start'\]$"),
            ({"data": {"csv_path": "c.csv", "end": T0 + DAY}}, r"^unknown data keys: \['end'\]$"),
            ({"data": {"fetch": {"base_url": "http://localhost:1", "path_template": "/k"}}}, r"^unknown data keys: \['fetch'\]$"),
            ({"data": {"csv_path": None}}, r"^csv_path must be string, got None$"),
            ({"data": ["c.csv"]}, r"^data must be a JSON object, got \['c\.csv'\]$"),
            ({"indicators": {"bb_k": -1.0}}, r"^bb_k must be positive real, got -1\.0$"),
            ({"windows": [[1]]}, r"^windows must be positive integer, got \[1\]$"),
            ({"windows": [{}]}, r"^windows must be positive integer, got \{\}$"),
        ],
        ids=["split-key", "data-key", "indicator-key", "mode", "stride", "fee", "dead-band", "trials",
             "duplicate-model", "duplicate-window", "window", "fractional-window", "bool-window", "bool-stride",
             "fractional-trials", "bool-trials", "fractional-seed", "bool-seed", "fractional-jobs",
             "float-mfi-period", "bool-bb-period", "fractional-kc-ema-period", "float-kc-atr-period",
             "string-models", "int-windows", "null-out-dir", "int-csv-path", "string-data", "string-split",
             "list-indicators", "indicator-key-named", "null-data", "empty-data", "fetch-in-data",
             "symbol-start-end-in-data", "symbol-in-data", "start-in-data", "end-in-data", "fetch-only",
             "null-csv-path", "list-data", "bb-k-unprefixed", "list-window", "object-window"],
    )
    def test_bad_config_rejected(self, csv_path, tmp_path, overrides, message):
        with pytest.raises(ConfigError, match=message):
            RunConfig.from_dict(config_dict(csv_path, tmp_path, **overrides))

    def test_direct_construction_checks_csv_path(self):
        with pytest.raises(ConfigError, match=r"^csv_path must be string, got 5$"):
            RunConfig(5)

    @pytest.mark.parametrize("raw", [[1], "c.csv", 5], ids=["list", "string", "int"])
    def test_config_not_an_object_rejected(self, raw):
        with pytest.raises(ConfigError, match=f"config must be a JSON object, got {re.escape(repr(raw))}"):
            RunConfig.from_dict(raw)

    @settings(max_examples=200, deadline=None)
    @given(raw=edited_configs())
    def test_any_json_values_raise_only_config_error(self, raw):
        """Every key of every block, given any JSON value or left out, either
        parses or raises ConfigError naming a rule, never a constructor's
        signature or a bare key."""
        try:
            RunConfig.from_dict(raw)
        except ConfigError as exc:
            assert "__init__()" not in str(exc)
            assert not re.fullmatch(r"(bad run config: )?'[^']*'", str(exc))

    @pytest.mark.parametrize("raw", [{}, None, {"interval": DAY}], ids=["empty", "null", "no-data"])
    def test_config_without_data_rejected(self, raw):
        with pytest.raises(ConfigError, match=r"^missing config keys: \['data'\]$"):
            RunConfig.from_dict(raw)

    def test_null_block_is_empty(self, csv_path, tmp_path):
        raw = config_dict(csv_path, tmp_path)
        assert RunConfig.from_dict({**raw, "indicators": None}) == RunConfig.from_dict(raw)
        assert RunConfig.from_dict({**raw, "split": None}) == RunConfig.from_dict({**raw, "split": {}})

    def test_snapshot_literal(self):
        raw = {
            "data": {"csv_path": "clean.csv"},
            "split": {"train_start": None, "backtest_start": "2023-02-01",
                      "forward_start": "2023-08-01", "forward_end": "2023-11-01"},
            "seed": 7,
        }
        assert RunConfig.from_dict(raw).to_dict() == {
            "data": {"csv_path": "clean.csv"},
            "interval": 86400,
            "indicators": {"mfi_period": 14, "bb_period": 20, "bb_k": 2.0, "kc_ema_period": 20,
                           "kc_atr_period": 10, "kc_mult": 2.0, "sar_af_start": 0.02,
                           "sar_af_step": 0.02, "sar_af_max": 0.2},
            "split": {"train_start": None, "backtest_start": 1675209600,
                      "forward_start": 1690848000, "forward_end": 1698796800},
            "models": ["logistic_c", "ridge_c", "perceptron_c", "sgd_c", "knn_c", "bernoulli_nb_c",
                       "decision_tree_c", "extra_tree_c", "random_forest_c", "bagging_c",
                       "ols_r", "ridge_r", "sgd_r", "knn_r", "decision_tree_r", "extra_tree_r",
                       "random_forest_r", "bagging_r"],
            "windows": [1, 7, 14, 21, 28],
            "mode": "trailing",
            "retrain_stride": 1,
            "fee_bps": 0.0,
            "dead_band": 0.0,
            "tuner_trials": None,
            "seed": 7,
            "out_dir": "runs",
            "jobs": 1,
        }

    def test_persisted_config_bytes(self, tmp_path, monkeypatch):
        """A run's config.json nests csv_path under data and the bounds under
        split; these bytes and the run id's config hash are pinned."""
        raw = {
            "data": {"csv_path": "clean.csv"},
            "split": {"train_start": None, "backtest_start": T0 + 60 * DAY, "forward_start": T0 + 95 * DAY,
                      "forward_end": None},
            "indicators": {"mfi_period": 10, "bb_k": 1.5},
            "models": ["ols_r"],
            "windows": [7],
        }
        config = RunConfig.from_dict(raw)
        monkeypatch.chdir(tmp_path)
        run_experiment(config, series=bars_to_series(random_walk_bars(N_BARS, seed=31)), run_id="pinned")
        assert (tmp_path / "runs" / "pinned" / "config.json").read_bytes() == (
            b'{\n  "data": {\n    "csv_path": "clean.csv"\n  },\n  "dead_band": 0.0,\n  "fee_bps": 0.0,\n'
            b'  "indicators": {\n    "bb_k": 1.5,\n    "bb_period": 20,\n    "kc_atr_period": 10,\n'
            b'    "kc_ema_period": 20,\n    "kc_mult": 2.0,\n    "mfi_period": 10,\n    "sar_af_max": 0.2,\n'
            b'    "sar_af_start": 0.02,\n    "sar_af_step": 0.02\n  },\n  "interval": 86400,\n  "jobs": 1,\n'
            b'  "mode": "trailing",\n  "models": [\n    "ols_r"\n  ],\n  "out_dir": "runs",\n'
            b'  "retrain_stride": 1,\n  "seed": 0,\n  "split": {\n    "backtest_start": 1362182400,\n'
            b'    "forward_end": null,\n    "forward_start": 1365206400,\n    "train_start": null\n  },\n'
            b'  "tuner_trials": null,\n  "windows": [\n    7\n  ]\n}\n'
        )
        assert make_run_id(config).endswith("-d52517c1")


# Each numeric setting of each config object, with its rule's description.
SETTINGS = [
    *((RunConfig, name, "positive integer") for name in ("interval", "windows", "retrain_stride", "tuner_trials", "jobs")),
    *((RunConfig, name, "non-negative real") for name in ("fee_bps", "dead_band")),
    (RunConfig, "seed", "integer"),
    *((IndicatorConfig, name, "positive integer") for name in ("mfi_period", "bb_period", "kc_ema_period", "kc_atr_period")),
    *((IndicatorConfig, name, "positive real") for name in ("bb_k", "kc_mult", "sar_af_start", "sar_af_step", "sar_af_max")),
    (WalkForwardConfig, "window", "positive integer"),
    (WalkForwardConfig, "retrain_stride", "positive integer"),
    *((WalkForwardConfig, name, "non-negative real") for name in ("fee_bps", "dead_band")),
    (WalkForwardConfig, "periods_per_year", "positive real"),
    (CandleSeries, "interval", "positive integer"),
]

# Per rule: the values it rejects besides True and a string, and the least
# values it accepts (numpy scalars included).
RULE_CASES = {
    "integer": ((2.5,), (-(2**70), np.int64(-3))),
    "positive integer": ((2.5, 0, -1), (1, np.int64(1))),
    "positive real": ((math.nan, math.inf, -math.inf, 0.0), (5e-324, 1, np.float64(0.25))),
    "non-negative real": ((math.nan, math.inf, -math.inf, math.nextafter(0.0, -1.0)), (0.0, 0, np.float64(0.5))),
}


def build_setting(cls, name, value):
    if cls is RunConfig:
        return RunConfig("c.csv", **{name: (value,) if name == "windows" else value})
    if cls is CandleSeries:
        return CandleSeries([T0], [1.0], [2.0], [1.0], [1.5], [1.0], interval=value)
    if cls is IndicatorConfig:  # room for either SAR bound to take any accepted value
        return IndicatorConfig(**{"sar_af_start": 5e-324, "sar_af_max": 1.0, name: value})
    return cls(**{name: value})


class TestSettingRules:
    @pytest.mark.parametrize("cls, name, description", SETTINGS, ids=[f"{c.__name__}.{n}" for c, n, _ in SETTINGS])
    def test_rule_of_each_setting(self, cls, name, description):
        rejected, accepted = RULE_CASES[description]
        for value in (True, "1", *rejected):
            with pytest.raises((ValueError, ConfigError)) as err:
                build_setting(cls, name, value)
            assert str(err.value) == f"{name} must be {description}, got {value!r}"
        for value in accepted:
            build_setting(cls, name, value)


class TestRunExperiment:
    def test_report_counting(self, csv_path, tmp_path):
        config = RunConfig.from_dict(config_dict(csv_path, tmp_path))
        artifact = run_experiment(config, persist=False)
        assert len(artifact.reports) == 2 * 2 * 2  # 2 models x 2 windows x 2 segments
        assert len(artifact.curves) == 8

    def test_report_rows_round_trip(self, csv_path, tmp_path):
        config = RunConfig.from_dict(config_dict(csv_path, tmp_path, tuner_trials=2, windows=[7]))
        artifact = run_experiment(config, run_id="rt")
        tasks = {ClassifierReport: "classifier", RegressorReport: "regressor"}
        assert sorted(tasks[type(r)] for r in artifact.reports) == ["classifier"] * 2 + ["regressor"] * 2
        for report in artifact.reports:
            assert report_row(report) == {**dataclasses.asdict(report), "task": tasks[type(report)]}
            assert report_from_row(report_row(report)) == report
        persisted = json.loads((tmp_path / "rt" / "report.json").read_text(encoding="utf-8"))["reports"]
        assert sorted(map(report_from_row, persisted), key=repr) == sorted(artifact.reports, key=repr)

    def test_byte_identical_reruns(self, csv_path, tmp_path):
        config = RunConfig.from_dict(config_dict(csv_path, tmp_path, tuner_trials=3))
        a = run_experiment(config, run_id="a")
        b = run_experiment(config, run_id="b")
        assert a.report_json() == b.report_json()
        assert a.trials_jsonl() == b.trials_jsonl()
        root = Path(config.out_dir)
        assert (root / "a" / "report.json").read_bytes() == (root / "b" / "report.json").read_bytes()
        assert (root / "a" / "trials.jsonl").read_bytes() == (root / "b" / "trials.jsonl").read_bytes()

    def test_concurrent_jobs_identical(self, csv_path, tmp_path, monkeypatch, caplog):
        """jobs > 1 is accepted and recorded, but the run starts no thread and warns once."""
        serial = RunConfig.from_dict(config_dict(csv_path, tmp_path / "s", jobs=1, tuner_trials=2))
        threaded = RunConfig.from_dict(config_dict(csv_path, tmp_path / "t", jobs=4, tuner_trials=2))
        a = run_experiment(serial, persist=False)

        def no_thread(thread):
            raise AssertionError(f"a run started thread {thread.name}")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        with caplog.at_level(logging.WARNING, logger="quantroll.run"):
            b = run_experiment(threaded, persist=False)
        assert a.report_rows() == b.report_rows()  # configs differ only in jobs/out_dir
        assert a.trials_jsonl() == b.trials_jsonl()
        assert b.config["jobs"] == 4
        assert [r.getMessage() for r in caplog.records] == [
            "jobs: 4 has no effect; every job runs in config order on the calling thread"]

    def test_persist_layout(self, csv_path, tmp_path):
        config = RunConfig.from_dict(config_dict(csv_path, tmp_path))
        run_experiment(config, run_id="layout")
        root = Path(config.out_dir) / "layout"
        assert (root / "config.json").exists()
        assert (root / "report.json").exists()
        assert sorted(p.name for p in (root / "equity").iterdir()) == [
            "knn_c_14_backtest.csv",
            "knn_c_14_forward.csv",
            "knn_c_7_backtest.csv",
            "knn_c_7_forward.csv",
            "ols_r_14_backtest.csv",
            "ols_r_14_forward.csv",
            "ols_r_7_backtest.csv",
            "ols_r_7_forward.csv",
        ]
        payload = json.loads((root / "report.json").read_text())
        for row in payload["reports"]:
            name = f"{row['model']}_{row['window']}_{row['segment']}.csv"
            assert (root / "equity" / name).exists()

    @pytest.mark.parametrize("run_id", ["../../escape", "..", ".", "", "a/b", "a\\b", 7])
    def test_bad_run_id_refused_before_writing(self, csv_path, tmp_path, run_id):
        config = RunConfig.from_dict(config_dict(csv_path, tmp_path / "a" / "b" / "runs", models=["ols_r"], windows=[7]))
        with pytest.raises(ConfigError, match=f"^run id must be one path component, got {re.escape(repr(run_id))}$"):
            run_experiment(config, run_id=run_id)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("run_id", ["smoke", "a.b", "..a", "a..", "run 1"])
    def test_one_component_run_id_used_as_given(self, csv_path, tmp_path, run_id):
        config = RunConfig.from_dict(config_dict(csv_path, tmp_path / "runs", models=["ols_r"], windows=[7]))
        run_experiment(config, run_id=run_id)
        assert [p.name for p in (tmp_path / "runs").iterdir()] == [run_id]
        assert (tmp_path / "runs" / run_id / "report.json").exists()

    def test_persist_artifact_write_failure_is_a_config_error(self, csv_path, tmp_path):
        """persist_artifact called directly maps a failed write as run_experiment does."""
        config = RunConfig.from_dict(config_dict(csv_path, tmp_path / "runs", models=["ols_r"], windows=[7]))
        artifact = run_experiment(config, persist=False)
        (tmp_path / "file").write_text("", encoding="utf-8")
        run_dir = tmp_path / "file" / "run"  # a directory under a regular file
        with pytest.raises(ConfigError, match=f"^cannot write {re.escape(str(run_dir))}: .*Not a directory"):
            persist_artifact(artifact, run_dir)
        assert persist_artifact(artifact, tmp_path / "run") == tmp_path / "run"
        assert (tmp_path / "run" / "report.json").read_text(encoding="utf-8") == artifact.report_json()

    def test_every_report_has_equity_curve(self, csv_path, tmp_path):
        config = RunConfig.from_dict(config_dict(csv_path, tmp_path))
        artifact = run_experiment(config, persist=False)
        for report in artifact.reports:
            assert (report.model, report.window, report.segment) in artifact.curves

    def test_global_mode_runs(self, csv_path, tmp_path):
        config = RunConfig.from_dict(config_dict(csv_path, tmp_path, mode="global", windows=[7]))
        artifact = run_experiment(config, persist=False)
        assert len(artifact.reports) == 2 * 1 * 2
        a = run_experiment(config, persist=False)
        assert a.report_rows() == artifact.report_rows()

    def test_gapped_data_refused(self, tmp_path):
        series = bars_to_series(random_walk_bars(80, seed=32))
        ts = series.timestamps.copy()
        ts[40:] += DAY
        from quantroll.candles import CandleSeries

        gapped = CandleSeries(ts, series.open, series.high, series.low, series.close, series.volume, DAY)
        path = tmp_path / "gapped.csv"
        path.write_text(serialize_candles_csv(gapped), encoding="utf-8")
        config = RunConfig.from_dict(config_dict(path, tmp_path))
        from quantroll.errors import DataError

        with pytest.raises(DataError):
            run_experiment(config, persist=False)

    def test_series_of_another_interval_refused(self, csv_path, tmp_path, monkeypatch):
        """A series passed in is held to the config's interval, which annualizes Sharpe."""
        config = RunConfig.from_dict(config_dict(csv_path, tmp_path, models=["ols_r"], windows=[7]))
        daily = bars_to_series(random_walk_bars(N_BARS, seed=31))
        assert run_experiment(config, series=daily, persist=False).report_rows() == run_experiment(config, persist=False).report_rows()
        hourly = bars_to_series(random_walk_bars(N_BARS * 24, seed=31), interval=3600)
        monkeypatch.setattr(run_module, "prepare_dataset", lambda *args: pytest.fail("a job ran"))
        with pytest.raises(DataError, match="^series interval 3600s differs from the config's interval 86400s$"):
            run_experiment(config, series=hourly, persist=False)

    def test_unwritable_run_directory_refused_before_any_candle_is_read(self, csv_path, tmp_path, monkeypatch):
        """out_dir under a regular file fails before the candles are read, as a ConfigError."""
        (tmp_path / "file").write_text("", encoding="utf-8")
        config = RunConfig.from_dict(config_dict(csv_path, tmp_path / "file" / "runs"))
        monkeypatch.setattr(run_module, "load_candles", no_data)
        with pytest.raises(ConfigError, match=f"^cannot write {re.escape(str(tmp_path / 'file' / 'runs' / 'x'))}: Not a directory"):
            run_experiment(config, run_id="x")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]

    def test_failed_persist_write_is_a_config_error(self, csv_path, tmp_path):
        config = RunConfig.from_dict(config_dict(csv_path, tmp_path, models=["ols_r"], windows=[7]))
        (tmp_path / "x").mkdir()
        (tmp_path / "x" / "equity").write_text("", encoding="utf-8")  # a file where the curves' directory goes
        with pytest.raises(ConfigError, match=f"^cannot write {re.escape(str(tmp_path / 'x'))}: .*File exists"):
            run_experiment(config, run_id="x")

    def test_persisted_log_line_escapes_its_path(self, csv_path, tmp_path, caplog):
        config = RunConfig.from_dict(config_dict(csv_path, tmp_path / "ru\nns", models=["ols_r"], windows=[7]))
        with caplog.at_level(logging.INFO, logger="quantroll.run"):
            run_experiment(config, run_id="x")
        assert caplog.messages[-1] == f"persisted run to {tmp_path}/ru\\nns/x"

    def test_broken_row_before_split_refused(self, tmp_path):
        """Every row of the candle file is checked, also one before train_start."""
        series = bars_to_series(random_walk_bars(N_BARS + 5, seed=31), t0=T0 - 5 * DAY)
        lines = serialize_candles_csv(series).splitlines(keepends=True)
        fields = lines[1].split(",")
        lines[1] = ",".join([*fields[:5], "-1.0\n"])
        path = tmp_path / "candles.csv"
        path.write_text("".join(lines), encoding="utf-8")
        config = RunConfig.from_dict(config_dict(path, tmp_path / "runs"))
        with pytest.raises(MalformedRow, match=r"^volume must be >= 0 \(line 2\): "):
            run_experiment(config, persist=False)
        assert not (tmp_path / "runs").exists()


STARTUP_PROBE = """
import json, sys
sys.modules["requests"] = None  # every import of requests now fails
import quantroll.run
unused = [name for name in ("urllib3", "ssl", "hashlib", "concurrent.futures") if name in sys.modules]
from quantroll import cli
config = quantroll.run.RunConfig.from_json(sys.argv[1])
ingest_code = cli.main(["ingest", "--csv", config.csv_path, "--out", sys.argv[2]])
artifact = quantroll.run.run_experiment(config, run_id="probe")
print(json.dumps({"unused": unused, "ingest": ingest_code, "reports": len(artifact.reports),
                  "run_id": quantroll.run.make_run_id(config)}))
"""


def test_run_import_loads_no_http_or_hash_module(csv_path, tmp_path):
    """With requests unimportable, `ingest` and a one-model run over a CSV
    succeed, and `import quantroll.run` loads neither the TLS stack, hashlib
    nor concurrent.futures; run ids import hashlib when they are made."""
    raw = config_dict(csv_path, tmp_path / "runs", models=["ols_r"], windows=[7])
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-c", STARTUP_PROBE, json.dumps(raw), str(tmp_path / "clean.csv")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["unused"] == []
    assert out["ingest"] == 0
    assert (tmp_path / "clean.csv").read_bytes() == csv_path.read_bytes()
    assert out["reports"] == 2
    assert (tmp_path / "runs" / "probe" / "report.json").exists()
    assert re.fullmatch(r"\d{8}T\d{6}Z-[0-9a-f]{8}", out["run_id"])
    assert out["run_id"].split("-")[1] == make_run_id(RunConfig.from_dict(raw)).split("-")[1]


class TestExportEquity:
    def test_row_count_and_order(self, csv_path, tmp_path):
        config = RunConfig.from_dict(config_dict(csv_path, tmp_path))
        artifact = run_experiment(config, persist=False)
        curve = artifact.curves[("knn_c", 7, "backtest")]
        lines = curve.to_csv().strip().split("\n")
        assert len(lines) == len(curve) + 1
        back = lines[1:]
        fwd = artifact.curves[("knn_c", 7, "forward")].to_csv().strip().split("\n")[1:]
        stamps = [int(line.split(",")[0]) for line in back + fwd]
        assert stamps == sorted(stamps)

    def test_flat_strategy_exports_zero_column(self):
        from quantroll.run import RunArtifact
        from quantroll.trading import EquityCurve

        n = 5
        curve = EquityCurve(np.arange(n, dtype=np.int64) * DAY + T0, np.zeros(n), np.zeros(n))
        artifact = RunArtifact(config={}, reports=[], curves={("knn_r", 7, "backtest"): curve}, trials={})
        lines = artifact.curves[("knn_r", 7, "backtest")].to_csv().strip().split("\n")[1:]
        assert all(line.split(",")[1] == "0.0" for line in lines)

    def test_persisted_config_reproduces_run(self, csv_path, tmp_path):
        config = RunConfig.from_dict(config_dict(csv_path, tmp_path))
        run_experiment(config, run_id="orig")
        root = Path(config.out_dir) / "orig"
        reparsed = RunConfig.from_json((root / "config.json").read_text())
        again = run_experiment(reparsed, run_id="again")
        assert (root / "report.json").read_bytes() == (Path(config.out_dir) / "again" / "report.json").read_bytes()


def classifier_report(model, window, segment, pnl, **overrides):
    base = dict(
        model=model, window=window, segment=segment, pnl_percent=pnl, sharpe=1.5, r2=0.8,
        accuracy=0.55, f1=0.6, precision=0.5, recall=0.7, n_trades=42,
    )
    base.update(overrides)
    return ClassifierReport(**base)


def regressor_report(model, window, segment, pnl):
    return RegressorReport(
        model=model, window=window, segment=segment, pnl_percent=pnl, sharpe=2.0, r2=0.1,
        mae=0.0117, mse=0.0004, rmse=0.0198, n_trades=16,
    )


class TestEmitTable:
    @staticmethod
    def header_cells(text):
        return [cell.strip() for cell in text.split("\n")[1].split("|")]

    def test_classifier_header_columns(self):
        text = emit_table([classifier_report("knn_c", 7, "backtest", 10.0), classifier_report("knn_c", 7, "forward", 5.0)], "classifier")
        cells = self.header_cells(text)
        for column in CLASSIFIER_COLUMNS:
            assert cells.count(column) == 2
        assert "Rolling window" in cells
        assert "Backtest" in text and "Forwardtest" in text

    def test_regressor_header_columns(self):
        text = emit_table([regressor_report("ols_r", 7, "backtest", 10.0)], "regressor")
        cells = self.header_cells(text)
        for column in REGRESSOR_COLUMNS:
            assert cells.count(column) == 2
        for absent in ("Accuracy", "F1 score", "Precision", "Recall"):
            assert absent not in cells

    def test_four_decimal_error_metrics(self):
        text = emit_table([regressor_report("sgd_r", 28, "forward", 34.01)], "regressor")
        assert "0.0198" in text and "0.0004" in text

    def test_best_window_selected_by_backtest_pnl(self):
        reports = [
            classifier_report("knn_c", 7, "backtest", 5.0),
            classifier_report("knn_c", 7, "forward", 1.0),
            classifier_report("knn_c", 28, "backtest", 25.0),
            classifier_report("knn_c", 28, "forward", 2.0),
        ]
        text = emit_table(reports, "classifier")
        row = [line for line in text.split("\n") if line.startswith("KnnC")][0]
        assert row.split("|")[1].strip() == "28"

    def test_best_rows_flagged(self):
        reports = [
            classifier_report("knn_c", 7, "backtest", 30.0),
            classifier_report("knn_c", 7, "forward", -5.0),
            classifier_report("sgd_c", 7, "backtest", 10.0),
            classifier_report("sgd_c", 7, "forward", 15.0),
        ]
        text = emit_table(reports, "classifier")
        assert any("KnnC *" in line for line in text.split("\n"))
        assert any("SgdC +" in line for line in text.split("\n"))

    def test_undefined_metric_rendered(self):
        text = emit_table([classifier_report("knn_c", 7, "backtest", 1.0, sharpe=None)], "classifier")
        assert "n/a" in text

    def test_mixed_tasks_rejected(self):
        with pytest.raises(MixedTasks):
            emit_table([classifier_report("knn_c", 7, "backtest", 1.0), regressor_report("ols_r", 7, "backtest", 1.0)], "classifier")

    # Both tables byte for byte: the best window by backtest PNL, a best window
    # with no forward row (and one with no backtest row), None as n/a, '*' and
    # '+' on different rows, '*+' on one row, and 4-decimal error metrics.
    GOLDEN = {
        "classifier": (
            '                                                                    Backtest                                      |                                    Forwardtest                                    ',
            'Classifier  | Rolling window | PNL (%) | Sharpe | R2   | Accuracy | F1 score | Precision | Recall | No. of Trades | PNL (%) | Sharpe | R2   | Accuracy | F1 score | Precision | Recall | No. of Trades',
            '------------------------------------------------------------------------------------------------------------------------------------------------------------------------------------------------------',
            'KnnC *      | 28             | 25.00   | 1.50   | 0.80 | 0.55     | 0.60     | 0.50      | 0.70   | 42            | 2.00    | 1.50   | 0.80 | 0.55     | 0.60     | 0.50      | 0.70   | 42',
            'LogisticC   | 14             | 10.00   | n/a    | n/a  | 0.55     | 0.60     | 0.50      | 0.70   | 42            | n/a     | n/a    | n/a  | n/a      | n/a      | n/a       | n/a    | n/a',
            'PerceptronC | 21             | n/a     | n/a    | n/a  | n/a      | n/a      | n/a       | n/a    | n/a           | -2.50   | 1.50   | 0.80 | 0.55     | 0.60     | 0.50      | 0.70   | 42',
            'SgdC +      | 7              | 3.00    | 1.50   | 0.80 | 0.12     | 0.60     | 0.50      | 0.70   | 7             | 15.00   | 1.50   | 0.80 | 0.55     | 0.00     | 0.50      | 0.70   | 42',
            '',
            '* best backtest PNL   + best forwardtest PNL',
        ),
        "regressor": (
            '                                                          Backtest                              |                            Forwardtest                            ',
            'Regressor | Rolling window | PNL (%) | Sharpe | R2   | MAE    | MSE    | RMSE   | No. of Trades | PNL (%) | Sharpe | R2   | MAE    | MSE    | RMSE   | No. of Trades',
            '--------------------------------------------------------------------------------------------------------------------------------------------------------------------',
            'KnnR      | 7              | -2.00   | 2.00   | 0.10 | 0.0117 | 0.0004 | 0.0198 | 16            | n/a     | n/a    | n/a  | n/a    | n/a    | n/a    | n/a',
            'OlsR *+   | 14             | 12.00   | 2.00   | 0.10 | 0.0123 | 0.0001 | 0.0122 | 16            | 8.00    | 2.00   | 0.10 | 0.0117 | 0.0004 | 0.0198 | 16',
            'SgdR      | 28             | 1.00    | 2.00   | n/a  | 0.0117 | 0.0004 | 0.0198 | 16            | -3.50   | 2.00   | 0.10 | 0.0117 | 0.0004 | 0.0198 | 16',
            '',
            '* best backtest PNL   + best forwardtest PNL',
        ),
    }

    @staticmethod
    def golden_reports():
        classifiers = [
            classifier_report("knn_c", 7, "backtest", 5.0),
            classifier_report("knn_c", 7, "forward", 1.0),
            classifier_report("knn_c", 28, "backtest", 25.0),
            classifier_report("knn_c", 28, "forward", 2.0),
            classifier_report("logistic_c", 14, "backtest", 10.0, sharpe=None, r2=None),
            classifier_report("sgd_c", 7, "backtest", 3.0, accuracy=0.125, n_trades=7),
            classifier_report("sgd_c", 7, "forward", 15.0, f1=0.0),
            classifier_report("perceptron_c", 21, "forward", -2.5),
        ]
        regressors = [
            regressor_report("ols_r", 7, "backtest", 10.0),
            regressor_report("ols_r", 7, "forward", 4.0),
            dataclasses.replace(regressor_report("ols_r", 14, "backtest", 12.0), mae=0.012345, mse=0.00015, rmse=0.012247),
            regressor_report("ols_r", 14, "forward", 8.0),
            dataclasses.replace(regressor_report("sgd_r", 28, "backtest", 1.0), r2=None),
            regressor_report("sgd_r", 28, "forward", -3.5),
            regressor_report("knn_r", 7, "backtest", -2.0),
        ]
        return {"classifier": classifiers, "regressor": regressors}

    @pytest.mark.parametrize("task", ["classifier", "regressor"])
    def test_golden_text(self, task):
        assert emit_table(self.golden_reports()[task], task) == "\n".join(self.GOLDEN[task]) + "\n"

    def test_empty_reports_header_only(self):
        text = emit_table([], "classifier")
        lines = [line for line in text.strip().split("\n") if line]
        assert len(lines) == 3  # block line, header, rule
        for column in CLASSIFIER_COLUMNS:
            assert column in lines[1]


# Configs that break a rule, by test id, each with the run or tune flags that break it
# (none where the config file alone does).
BAD_CONFIGS = {
    "split-key": ({"split": {**SPLIT, "forward_strat": T0}}, []),
    "data-key": ({"data": {"csv_path": "c.csv", "path": "c.csv"}}, []),
    "mode": ({"mode": "bogus"}, []),
    "fee": ({"fee_bps": -1.0}, []),
    "duplicate-window": ({"windows": [7, 7]}, []),
    "fee-flag": ({}, ["--fee-bps", "-1"]),
    "duplicate-window-flag": ({}, ["--windows", "7,14,7"]),
    "inf-instant": ({"split": {**SPLIT, "backtest_start": float("inf")}}, []),
    "-inf-instant": ({"split": {**SPLIT, "forward_start": float("-inf")}}, []),
    "nan-instant": ({"split": {**SPLIT, "forward_end": float("nan")}}, []),
    "fractional-trials": ({"tuner_trials": 2.5}, []),
    "float-mfi-period": ({"indicators": {"mfi_period": 14.0}}, []),
    "bool-fee": ({"fee_bps": True}, []),
    "nan-dead-band": ({"dead_band": float("nan")}, []),
    "fractional-interval": ({"interval": 86400.5}, []),
    "inf-bb-k": ({"indicators": {"bb_k": float("inf")}}, []),
    "tune-window-0": ({}, ["tune", "--model", "knn_c", "--window", "0"]),
    "null-out-dir": ({"out_dir": None}, []),
    "int-csv-path": ({"data": {"csv_path": 5}}, []),
    "string-models": ({"models": "knn_c"}, []),
    "int-windows": ({"windows": 7}, []),
    "string-data": ({"data": "c.csv"}, []),
    "string-split": ({"split": "x"}, []),
    "list-indicators": ({"indicators": [1]}, []),
    "indicator-key": ({"indicators": {"mfi_periods": 14}}, []),
    "list-window": ({"windows": [[1]]}, []),
    "empty-data": ({"data": {}}, []),
    "fetch-in-data": ({"data": {"csv_path": "c.csv", "fetch": {"base_url": "http://localhost:1", "path_template": "/k"}}}, []),
    "symbol-start-end-in-data": ({"data": {"csv_path": "c.csv", "symbol": "BTCUSD", "start": T0, "end": T0 + DAY}}, []),
    "symbol-in-data": ({"data": {"csv_path": "c.csv", "symbol": "BTCUSD"}}, []),
    "start-in-data": ({"data": {"csv_path": "c.csv", "start": T0}}, []),
    "end-in-data": ({"data": {"csv_path": "c.csv", "end": T0 + DAY}}, []),
    "fetch-only": ({"data": {"fetch": {"base_url": "http://localhost:1", "path_template": "/k"}}}, []),
    "null-csv-path": ({"data": {"csv_path": None}}, []),
    "list-data": ({"data": ["c.csv"]}, []),
    "null-data": ({"data": None}, []),
}

# Each command that writes an output path, given the candles, a config, a persisted run and that path.
WRITING_COMMANDS = {
    "ingest": lambda csv, cfg, run_dir, out: ["ingest", "--csv", csv, "--out", out],
    "features": lambda csv, cfg, run_dir, out: ["features", "--csv", csv, "--out", out],
    "tune": lambda csv, cfg, run_dir, out: ["tune", "--config", cfg, "--model", "knn_c", "--window", "7", "--trials", "1", "--out", out],
    "export-equity": lambda csv, cfg, run_dir, out: [
        "export-equity", "--run-dir", run_dir, "--model", "knn_c", "--window", "7", "--segment", "backtest", "--out", out],
    "run": lambda csv, cfg, run_dir, out: ["run", "--config", cfg, "--models", "ols_r", "--windows", "7", "--out", out],
}

# The commands whose --out names a file; run's names a directory, which it makes.
FILE_WRITERS = ["ingest", "features", "tune", "export-equity"]


def no_data(config):
    raise AssertionError("candles were read before the config was checked")


class TestCli:
    def run_cli(self, *argv):
        return cli.main(list(argv))

    def test_ingest_ok(self, csv_path, tmp_path, capsys):
        out = tmp_path / "clean.csv"
        code = self.run_cli("ingest", "--csv", str(csv_path), "--interval", str(DAY), "--out", str(out))
        assert code == 0
        assert out.exists()
        assert "no gaps" in capsys.readouterr().out

    def write_config(self, path, raw):
        path.write_text(json.dumps(raw), encoding="utf-8")
        return str(path)

    def test_ingest_gap_exit_2(self, tmp_path, capsys):
        series = bars_to_series(random_walk_bars(10, seed=33))
        ts = series.timestamps.copy()
        ts[5:] += DAY
        from quantroll.candles import CandleSeries

        gapped = CandleSeries(ts, series.open, series.high, series.low, series.close, series.volume, DAY)
        path = tmp_path / "gapped.csv"
        path.write_text(serialize_candles_csv(gapped), encoding="utf-8")
        assert self.run_cli("ingest", "--csv", str(path), "--interval", str(DAY)) == 2

    def test_ingest_gap_lists_gaps_then_the_shared_line(self, tmp_path, capsys):
        """ingest lists the first 10 gaps, then refuses the series with the line features, run and tune give."""
        lines = serialize_candles_csv(bars_to_series(random_walk_bars(60, seed=35))).splitlines(keepends=True)
        path = tmp_path / "gap.csv"
        path.write_text("".join(lines[:2] + lines[2:50:4]), encoding="utf-8")  # 11 gaps of 4 days after T0 + DAY
        assert self.run_cli("ingest", "--csv", str(path), "--interval", str(DAY)) == 2
        err = capsys.readouterr().err.splitlines()
        shared = (
            f"data error: series has 11 spacing violation(s); first gap of {4 * DAY}s "
            f"between {T0 + DAY} and {T0 + 5 * DAY}"
        )
        gaps = [f"gap of {4 * DAY}s between {T0 + (1 + 4 * i) * DAY} and {T0 + (5 + 4 * i) * DAY}" for i in range(10)]
        assert err == [*gaps, shared]
        cfg = self.write_config(tmp_path / "config.json", config_dict(path, tmp_path / "runs"))
        tune = ["tune", "--config", cfg, "--model", "knn_c", "--window", "7", "--trials", "1"]
        for argv in (["features", "--csv", str(path)], ["run", "--config", cfg], tune):
            assert self.run_cli(*argv) == 2
            assert capsys.readouterr().err.splitlines() == [shared]

    def test_ingest_timestamp_overflow_exit_2(self, tmp_path, capsys):
        path = tmp_path / "big.csv"
        path.write_text("timestamp,open,high,low,close,volume\n99999999999999999999,1,2,1,2,5\n", encoding="utf-8")
        assert self.run_cli("ingest", "--csv", str(path), "--interval", str(DAY)) == 2
        assert "line 2: timestamp '99999999999999999999' is outside the int64 range" in capsys.readouterr().err

    def test_ingest_missing_csv_exit_2(self, tmp_path):
        assert self.run_cli("ingest", "--csv", str(tmp_path / "missing.csv"), "--interval", str(DAY)) == 2

    def test_ingest_undecodable_csv_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"timestamp,open,high,low,close,volume\n\xff\xfe,1,2,1,2,5\n")
        assert self.run_cli("ingest", "--csv", str(path)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: cannot read {path}: 'utf-8' codec can't decode byte 0xff in position 37")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [["features", "--config"], ["run", "--config"], ["tune", "--model", "knn_c", "--window", "7", "--trials", "1", "--config"]],
        ids=["features", "run", "tune"],
    )
    def test_undecodable_csv_exit_2_in_each_reader(self, tmp_path, capsys, argv):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"timestamp,open,high,low,close,volume\n\xff\xfe,1,2,1,2,5\n")
        cfg = self.write_config(tmp_path / "config.json", config_dict(path, tmp_path / "runs"))
        assert self.run_cli(*argv, cfg) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: cannot read {path}: 'utf-8' codec can't decode byte 0xff in position 37")
        assert err.count("\n") == 1
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize(
        "argv",
        [["features", "--config"], ["run", "--config"], ["tune", "--model", "knn_c", "--window", "7", "--trials", "1", "--config"]],
        ids=["features", "run", "tune"],
    )
    def test_csv_path_holding_a_nul_exit_2_in_each_reader(self, tmp_path, capsys, argv):
        cfg = self.write_config(tmp_path / "config.json", config_dict("candles\0.csv", tmp_path / "runs"))
        assert self.run_cli(*argv, cfg) == 2
        assert capsys.readouterr().err == "data error: cannot read candles\\x00.csv: embedded null byte\n"
        assert not (tmp_path / "runs").exists()

    def test_undecodable_config_exit_1(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_bytes(b'{"data": "\xff"}')
        assert self.run_cli("run", "--config", str(path)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: cannot read config {path}: 'utf-8' codec can't decode byte 0xff")
        assert err.count("\n") == 1

    def test_undecodable_report_exit_2(self, tmp_path, capsys):
        (tmp_path / "report.json").write_bytes(b'{"reports": ["\xff"]}')
        assert self.run_cli("report", "--run-dir", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: cannot read {tmp_path / 'report.json'}: 'utf-8' codec can't decode byte 0xff")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("curve", ["directory", "undecodable"])
    def test_unreadable_equity_curve_exit_2(self, tmp_path, capsys, curve):
        path = equity_path(tmp_path, "knn_c", 7, "backtest")
        path.parent.mkdir()
        path.mkdir() if curve == "directory" else path.write_bytes(b"timestamp,equity_fraction\n\xff")
        argv = ["export-equity", "--run-dir", str(tmp_path), "--model", "knn_c", "--window", "7", "--segment", "backtest"]
        assert self.run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: cannot read {path}: ") and err.count("\n") == 1
        assert ("Is a directory" if curve == "directory" else "can't decode byte 0xff") in err

    @pytest.mark.parametrize("name, shown", [("ru\0ns", "ru\\x00ns"), ("ru\nns", "ru\\nns"), ("rün s", "rün s")])
    def test_paths_in_messages_escape_non_printable_characters(self, tmp_path, capsys, name, shown):
        """A user-named path shows as repr shows its characters, printable non-ASCII kept, so each message is one line."""
        argv = ["export-equity", "--run-dir", str(tmp_path / name), "--model", "ols_r", "--window", "3", "--segment", "backtest"]
        assert self.run_cli(*argv) == 3
        assert capsys.readouterr().err == f"engine error: no equity curve at {tmp_path / shown}/equity/ols_r_3_backtest.csv\n"
        assert self.run_cli("features", "--csv", str(tmp_path / name)) == 2
        assert capsys.readouterr().err.startswith(f"data error: cannot read {tmp_path / shown}: ")

    @pytest.mark.parametrize(
        "flag, value",
        [("--base-url", "http://localhost:1"), ("--path-template", "/k"), ("--symbol", "BTC"), ("--start", "garbage"),
         ("--end", "5"), ("--page-limit", "0"), ("--max-retries", "3"), ("--retry-backoff", "1")],
    )
    def test_ingest_has_no_fetch_flags(self, csv_path, capsys, flag, value):
        """A fetch is described only by a config's data.fetch block."""
        assert self.run_cli("ingest", "--csv", str(csv_path), flag, value) == 1
        err = capsys.readouterr().err
        assert "No such option" in err and flag in err

    def test_ingest_without_candles_exit_1(self, capsys):
        assert self.run_cli("ingest") == 1
        assert "configuration error: missing config keys: ['data']" in capsys.readouterr().err

    def test_ingest_csv_replaces_config_data(self, csv_path, tmp_path, capsys):
        cfg = self.write_config(tmp_path / "config.json", {"data": {"csv_path": str(tmp_path / "missing.csv")}, "interval": DAY})
        assert self.run_cli("ingest", "--config", cfg, "--csv", str(csv_path)) == 0
        assert f"{N_BARS} candles" in capsys.readouterr().out

    def test_missing_config_exit_1(self, tmp_path):
        assert self.run_cli("run", "--config", str(tmp_path / "missing.json")) == 1

    @pytest.mark.parametrize("overrides, flags", list(BAD_CONFIGS.values()), ids=list(BAD_CONFIGS))
    def test_bad_config_exit_1_before_any_run(self, csv_path, tmp_path, capsys, monkeypatch, overrides, flags):
        monkeypatch.setattr(run_module, "load_candles", no_data)
        monkeypatch.setattr(cli, "load_candles", no_data)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config_dict(csv_path, tmp_path / "runs", **overrides)), encoding="utf-8")
        command, flags = ("tune", flags[1:]) if flags[:1] == ["tune"] else ("run", flags)
        assert self.run_cli(command, "--config", str(cfg), *flags) == 1
        assert "configuration error:" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("command", ["ingest", "features"])
    @pytest.mark.parametrize(
        "overrides", [o for o, flags in BAD_CONFIGS.values() if not flags], ids=[k for k, (_, f) in BAD_CONFIGS.items() if not f]
    )
    def test_bad_config_exit_1_before_candles_read(self, csv_path, tmp_path, capsys, monkeypatch, command, overrides):
        monkeypatch.setattr(cli, "load_candles", no_data)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config_dict(csv_path, tmp_path / "runs", **overrides)), encoding="utf-8")
        assert self.run_cli(command, "--config", str(cfg)) == 1
        assert "configuration error:" in capsys.readouterr().err

    @pytest.mark.parametrize("run_id", ["../../escape", "..", ".", "", "a/b", "a\\b", "/abs"])
    def test_bad_run_id_exit_1_before_any_run(self, csv_path, tmp_path, capsys, monkeypatch, run_id):
        monkeypatch.setattr(run_module, "load_candles", no_data)
        cfg = self.write_config(tmp_path / "config.json", config_dict(csv_path, tmp_path))
        out = tmp_path / "a" / "b" / "runs"
        assert self.run_cli("run", "--config", cfg, "--out", str(out), "--run-id", run_id) == 1
        assert capsys.readouterr().err == f"configuration error: run id must be one path component, got {run_id!r}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize("command", ["run", "tune"])
    def test_output_holding_a_nul_exit_1_before_any_run(self, csv_path, tmp_path, capsys, monkeypatch, command):
        """pathlib's exists() and is_dir() are False for such a path; it is refused before any candle is read."""
        monkeypatch.setattr(run_module, "load_candles", no_data)
        monkeypatch.setattr(cli, "load_candles", no_data)
        cfg = self.write_config(tmp_path / "config.json", config_dict(csv_path, tmp_path / "ru\0ns"))
        out = tmp_path / "ru\0ns" / "x"
        argv = WRITING_COMMANDS[command]("unused", cfg, "unused", str(out))
        if command == "run":  # out_dir's run directory x, as the config names it
            argv = [*argv[:-2], "--run-id", "x"]
        assert self.run_cli(*argv) == 1
        shown = str(out).replace("\0", "\\x00")
        assert capsys.readouterr().err == f"configuration error: cannot write {shown}: embedded null byte\n"
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @pytest.fixture(scope="class")
    def persisted_run(self, csv_path, tmp_path_factory):
        config = RunConfig.from_dict(config_dict(csv_path, tmp_path_factory.mktemp("persisted"), models=["knn_c"], windows=[7]))
        return persist_artifact(run_experiment(config, persist=False), Path(config.out_dir) / "written")

    @pytest.mark.parametrize("command", list(WRITING_COMMANDS.values()), ids=list(WRITING_COMMANDS))
    def test_unwritable_output_exit_1(self, csv_path, tmp_path, capsys, persisted_run, command):
        cfg = self.write_config(tmp_path / "config.json", config_dict(csv_path, tmp_path / "runs"))
        (tmp_path / "file").write_text("", encoding="utf-8")
        out = tmp_path / "file" / "out"  # a path under a regular file
        assert self.run_cli(*command(str(csv_path), cfg, str(persisted_run), str(out))) == 1
        err = capsys.readouterr().err.splitlines()
        assert err[-1].startswith(f"configuration error: cannot write {out}") and "Not a directory" in err[-1]

    @pytest.mark.parametrize("command", [WRITING_COMMANDS[c] for c in FILE_WRITERS], ids=FILE_WRITERS)
    def test_output_in_missing_directory_exit_1(self, csv_path, tmp_path, capsys, persisted_run, command):
        cfg = self.write_config(tmp_path / "config.json", config_dict(csv_path, tmp_path / "runs"))
        out = tmp_path / "missing" / "out"
        assert self.run_cli(*command(str(csv_path), cfg, str(persisted_run), str(out))) == 1
        err = capsys.readouterr().err.splitlines()
        assert err[-1].startswith(f"configuration error: cannot write {out}") and "No such file or directory" in err[-1]
        assert not (tmp_path / "missing").exists()

    def test_tune_out_naming_a_directory_exit_1_before_any_trial(self, csv_path, tmp_path, capsys, monkeypatch):
        trials = []
        monkeypatch.setattr(tuner_mod, "evaluate_segment", lambda *args, **kwargs: trials.append(args))
        cfg = self.write_config(tmp_path / "config.json", config_dict(csv_path, tmp_path / "runs"))
        out = tmp_path / "adir"
        out.mkdir()
        assert self.run_cli(*WRITING_COMMANDS["tune"](str(csv_path), cfg, "unused", str(out))) == 1
        assert capsys.readouterr().err == f"configuration error: cannot write {out}: Is a directory: {str(out)!r}\n"
        assert trials == []
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["run", "tune"])
    def test_unwritable_output_found_before_data_read(self, tmp_path, capsys, command):
        """An output under a regular file fails before the candles are read: the
        config's CSV does not exist, yet the error is the output's."""
        cfg = self.write_config(tmp_path / "config.json", config_dict(tmp_path / "missing.csv", tmp_path / "runs"))
        (tmp_path / "file").write_text("", encoding="utf-8")
        out = tmp_path / "file" / "out"
        assert self.run_cli(*WRITING_COMMANDS[command]("unused", cfg, "unused", str(out))) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: cannot write {out}") and "Not a directory" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "file"]  # nothing made

    def test_split_order_checked_before_data(self, tmp_path, capsys):
        split = {**SPLIT, "backtest_start": SPLIT["forward_start"] + DAY}
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config_dict(tmp_path / "missing.csv", tmp_path / "runs", split=split)), encoding="utf-8")
        assert self.run_cli("run", "--config", str(cfg)) == 1
        assert "configuration error: backtest range" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_bad_model_override_exit_1(self, csv_path, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config_dict(csv_path, tmp_path)), encoding="utf-8")
        assert self.run_cli("run", "--config", str(cfg), "--models", "svm_c") == 1

    def test_features_dump(self, csv_path, tmp_path, capsys):
        code = self.run_cli("features", "--csv", str(csv_path), "--interval", str(DAY))
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("timestamp,logret,")

    def test_indicator_dump(self, csv_path, tmp_path, capsys):
        code = self.run_cli("features", "--csv", str(csv_path), "--interval", str(DAY), "--indicator", "mfi")
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "timestamp,value"
        assert len(lines) == N_BARS - 14 + 1
        ts, value = lines[1].split(",")
        int(ts), float(value)  # plain decimal text, no numpy reprs

    @pytest.mark.parametrize("mode", [[], ["--indicator", "mfi"]], ids=["frame", "indicator"])
    def test_features_gap_exit_2_as_run(self, tmp_path, capsys, mode):
        """features refuses a series with a missing candle, in both modes, with the message run gives."""
        lines = serialize_candles_csv(bars_to_series(random_walk_bars(60, seed=34))).splitlines(keepends=True)
        path = tmp_path / "gap.csv"
        path.write_text("".join(lines[:31] + lines[32:]), encoding="utf-8")  # drops the candle at T0 + 30 days
        assert self.run_cli("features", "--csv", str(path), "--interval", str(DAY), *mode) == 2
        err = capsys.readouterr().err
        assert err == (
            f"data error: series has 1 spacing violation(s); first gap of {2 * DAY}s "
            f"between {T0 + 29 * DAY} and {T0 + 31 * DAY}\n"
        )
        cfg = self.write_config(tmp_path / "config.json", config_dict(path, tmp_path / "runs"))
        assert self.run_cli("run", "--config", cfg) == 2
        assert capsys.readouterr().err == err

    def test_run_report_export_cycle(self, csv_path, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config_dict(csv_path, tmp_path / "runs")), encoding="utf-8")
        code = self.run_cli("run", "--config", str(cfg), "--run-id", "cycle", "--windows", "7")
        assert code == 0
        run_dir = tmp_path / "runs" / "cycle"
        assert (run_dir / "report.json").exists()
        capsys.readouterr()

        assert self.run_cli("report", "--run-dir", str(run_dir), "--task", "classifier") == 0
        out = capsys.readouterr().out
        assert "Rolling window" in out

        assert self.run_cli("export-equity", "--run-dir", str(run_dir), "--model", "knn_c", "--window", "7", "--segment", "backtest") == 0
        out = capsys.readouterr().out
        assert out.startswith("timestamp,equity_fraction")

        assert self.run_cli("export-equity", "--run-dir", str(run_dir), "--model", "knn_c", "--window", "9", "--segment", "backtest") == 3
        capsys.readouterr()

        assert self.run_cli("export-equity", "--run-dir", str(run_dir), "--model", "bogus", "--window", "7", "--segment", "backtest") == 1
        assert "configuration error: unknown model kind 'bogus'" in capsys.readouterr().err

    def test_rerun_into_a_run_id_replaces_its_trials_and_curves(self, csv_path, tmp_path, capsys):
        """An untuned run into the directory of a tuned one leaves no trial log
        or curve of the first run behind, and no other file is touched."""
        cfg = self.write_config(tmp_path / "config.json", config_dict(csv_path, tmp_path / "runs"))
        argv = ["run", "--config", cfg, "--run-id", "same"]
        assert self.run_cli(*argv, "--models", "knn_c,ols_r", "--windows", "3,5", "--tuner-trials", "2") == 0
        run_dir = tmp_path / "runs" / "same"
        assert (run_dir / "trials.jsonl").exists() and len(list((run_dir / "equity").iterdir())) == 8
        (run_dir / "notes.txt").write_text("kept", encoding="utf-8")
        (run_dir / "equity" / "notes.txt").write_text("kept", encoding="utf-8")
        assert self.run_cli(*argv, "--models", "ridge_c", "--windows", "3") == 0
        assert sorted(p.name for p in run_dir.iterdir()) == ["config.json", "equity", "notes.txt", "report.json"]
        assert sorted(p.name for p in (run_dir / "equity").iterdir()) == [
            "notes.txt", "ridge_c_3_backtest.csv", "ridge_c_3_forward.csv"]
        capsys.readouterr()
        export = ["export-equity", "--run-dir", str(run_dir), "--window", "3", "--segment", "backtest"]
        assert self.run_cli(*export, "--model", "knn_c") == 3
        assert "no equity curve at" in capsys.readouterr().err
        assert self.run_cli(*export, "--model", "ridge_c") == 0

    REPORT_ROW = {
        "task": "classifier", "model": "knn_c", "window": 7, "segment": "backtest", "pnl_percent": 1, "sharpe": None,
        "r2": 0.25, "accuracy": 0.5, "f1": 0.5, "precision": 0.5, "recall": 0.5, "n_trades": 3,
    }

    def test_report_well_typed_row_renders(self, tmp_path, capsys):
        (tmp_path / "report.json").write_text(json.dumps({"reports": [self.REPORT_ROW]}), encoding="utf-8")
        assert self.run_cli("report", "--run-dir", str(tmp_path)) == 0
        assert "KnnC" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "payload",
        [
            {}, {"reports": [{"task": "classifier", "model": "knn_c"}]}, {"reports": [{"task": "svm"}]},
            {"reports": [{**REPORT_ROW, "pnl_percent": "x"}]}, {"reports": [{**REPORT_ROW, "window": "7"}]},
            {"reports": [{**REPORT_ROW, "sharpe": True}]},
            {"reports": [{**REPORT_ROW, "model": "zzz"}]}, {"reports": [{**REPORT_ROW, "model": "ols_r"}]},
            {"reports": [{**REPORT_ROW, "segment": "sideways"}]}, {"reports": [{**REPORT_ROW, "window": 0}]},
            {"reports": [{**REPORT_ROW, "n_trades": -4}]}, {"reports": [REPORT_ROW, {**REPORT_ROW, "pnl_percent": 9}]},
        ],
        ids=["no-reports", "missing-fields", "unknown-task", "string-metric", "string-window", "bool-sharpe",
             "unknown-model", "regressor-kind-in-classifier-row", "unknown-segment", "zero-window",
             "negative-trades", "duplicate-row"],
    )
    def test_report_bad_rows_exit_2(self, tmp_path, capsys, payload):
        (tmp_path / "report.json").write_text(json.dumps(payload), encoding="utf-8")
        assert self.run_cli("report", "--run-dir", str(tmp_path)) == 2
        assert "data error:" in capsys.readouterr().err

    def test_tune_command(self, csv_path, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config_dict(csv_path, tmp_path / "runs")), encoding="utf-8")
        trials_path = tmp_path / "trials.jsonl"
        code = self.run_cli("tune", "--config", str(cfg), "--model", "knn_c", "--window", "7", "--trials", "4", "--out", str(trials_path))
        assert code == 0
        records = [json.loads(line) for line in trials_path.read_text().strip().split("\n")]
        assert len(records) == 4
        assert all(r["model"] == "knn_c" and r["window"] == 7 for r in records)
        best = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
        assert "params" in best and "objective" in best


def test_readme_library_snippet_runs(tmp_path, monkeypatch, capsys):
    """README's "Library use" block runs as written on a daily CSV spanning its three segments."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    snippet = re.search(r"## Library use\n\n```python\n(.*?)```", readme, re.S).group(1)
    start = int(parse_instant("2022-06-01"))
    series = bars_to_series(random_walk_bars(560, seed=36), t0=start)  # through 2023-12-12
    (tmp_path / "clean.csv").write_text(serialize_candles_csv(series), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(snippet, "README.md", "exec"), namespace)
    assert len(namespace["curve"]) == len(namespace["back"]) == 181  # 2023-02-01 up to 2023-08-01
    pnl, trades = capsys.readouterr().out.split()
    assert float(pnl) == namespace["q"].pnl_percent(namespace["curve"])
    assert int(trades) == namespace["report"].n_trades > 0
