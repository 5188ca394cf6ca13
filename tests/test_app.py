import json
from pathlib import Path

import numpy as np
import pytest

from quantroll.candles import serialize_candles_csv
from quantroll.errors import ConfigError, MixedTasks, UnknownSelector
from quantroll.metrics import ClassifierReport, RegressorReport
from quantroll.report import CLASSIFIER_COLUMNS, REGRESSOR_COLUMNS, emit_table
from quantroll.run import RunConfig, export_equity, parse_instant, run_experiment
from quantroll import cli

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


def config_dict(csv_path, out_dir, **overrides):
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
            ({"retrain_stride": 0}, "retrain_stride must be an integer >= 1"),
            ({"fee_bps": -1.0}, "fee_bps must be >= 0"),
            ({"dead_band": -0.001}, "dead-band threshold must be >= 0"),
            ({"tuner_trials": 0}, "n_trials must be >= 1"),
            ({"models": ["knn_c", "knn_c"]}, "models has duplicate entries"),
            ({"windows": [7, 7]}, "windows has duplicate entries"),
            ({"windows": [0]}, "window must be an integer >= 1"),
            ({"windows": [7.5]}, "window must be an integer >= 1, got 7.5"),
        ],
        ids=["split-key", "data-key", "indicator-key", "mode", "stride", "fee", "dead-band", "trials",
             "duplicate-model", "duplicate-window", "window", "fractional-window"],
    )
    def test_bad_config_rejected(self, csv_path, tmp_path, overrides, message):
        with pytest.raises(ConfigError, match=message):
            RunConfig.from_dict(config_dict(csv_path, tmp_path, **overrides))

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

    def test_fetch_snapshot_round_trip(self):
        raw = {
            "data": {"fetch": {"base_url": "http://localhost:1", "path_template": "/c?s={start}"},
                     "symbol": "BTCUSD", "start": "2013-01-01", "end": "2023-11-01"},
            "models": ["knn_c"],
        }
        config = RunConfig.from_dict(raw)
        assert config.to_dict()["data"] == {
            "fetch": {"base_url": "http://localhost:1", "path_template": "/c?s={start}", "page_limit": 1000,
                      "max_retries": 3, "retry_backoff": 1.0},
            "symbol": "BTCUSD", "start": 1356998400, "end": 1698796800,
        }
        assert RunConfig.from_dict(config.to_dict()) == config


class TestRunExperiment:
    def test_report_counting(self, csv_path, tmp_path):
        config = RunConfig.from_dict(config_dict(csv_path, tmp_path))
        artifact = run_experiment(config, persist=False)
        assert len(artifact.reports) == 2 * 2 * 2  # 2 models x 2 windows x 2 segments
        assert len(artifact.curves) == 8

    def test_byte_identical_reruns(self, csv_path, tmp_path):
        config = RunConfig.from_dict(config_dict(csv_path, tmp_path, tuner_trials=3))
        a = run_experiment(config, run_id="a")
        b = run_experiment(config, run_id="b")
        assert a.report_json() == b.report_json()
        assert a.trials_jsonl() == b.trials_jsonl()
        root = Path(config.out_dir)
        assert (root / "a" / "report.json").read_bytes() == (root / "b" / "report.json").read_bytes()
        assert (root / "a" / "trials.jsonl").read_bytes() == (root / "b" / "trials.jsonl").read_bytes()

    def test_concurrent_jobs_identical(self, csv_path, tmp_path):
        serial = RunConfig.from_dict(config_dict(csv_path, tmp_path / "s", jobs=1, tuner_trials=2))
        threaded = RunConfig.from_dict(config_dict(csv_path, tmp_path / "t", jobs=4, tuner_trials=2))
        a = run_experiment(serial, persist=False)
        b = run_experiment(threaded, persist=False)
        assert a.report_rows() == b.report_rows()  # configs differ only in jobs/out_dir
        assert a.trials_jsonl() == b.trials_jsonl()

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


class TestExportEquity:
    def test_row_count_and_order(self, csv_path, tmp_path):
        config = RunConfig.from_dict(config_dict(csv_path, tmp_path))
        artifact = run_experiment(config, persist=False)
        text = export_equity(artifact, "knn_c", 7, "backtest")
        lines = text.strip().split("\n")
        curve = artifact.curves[("knn_c", 7, "backtest")]
        assert len(lines) == len(curve) + 1
        back = export_equity(artifact, "knn_c", 7, "backtest").strip().split("\n")[1:]
        fwd = export_equity(artifact, "knn_c", 7, "forward").strip().split("\n")[1:]
        stamps = [int(line.split(",")[0]) for line in back + fwd]
        assert stamps == sorted(stamps)

    def test_unknown_selector(self, csv_path, tmp_path):
        config = RunConfig.from_dict(config_dict(csv_path, tmp_path))
        artifact = run_experiment(config, persist=False)
        with pytest.raises(UnknownSelector):
            export_equity(artifact, "sgd_c", 7, "backtest")

    def test_flat_strategy_exports_zero_column(self):
        from quantroll.run import RunArtifact
        from quantroll.trading import EquityCurve

        n = 5
        curve = EquityCurve(np.arange(n, dtype=np.int64) * DAY + T0, np.zeros(n), np.zeros(n))
        artifact = RunArtifact(config={}, reports=[], curves={("knn_r", 7, "backtest"): curve}, trials={})
        lines = export_equity(artifact, "knn_r", 7, "backtest").strip().split("\n")[1:]
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

    def test_empty_reports_header_only(self):
        text = emit_table([], "classifier")
        lines = [line for line in text.strip().split("\n") if line]
        assert len(lines) == 3  # block line, header, rule
        for column in CLASSIFIER_COLUMNS:
            assert column in lines[1]


class TestCli:
    def run_cli(self, *argv):
        return cli.main(list(argv))

    def test_ingest_ok(self, csv_path, tmp_path, capsys):
        out = tmp_path / "clean.csv"
        code = self.run_cli("ingest", "--csv", str(csv_path), "--interval", str(DAY), "--out", str(out))
        assert code == 0
        assert out.exists()
        assert "no gaps" in capsys.readouterr().out

    def test_ingest_fetch_path(self, candle_stub, tmp_path, capsys):
        t0 = 1700000000
        rows = []
        price = 100.0
        for i in range(5):
            o = price
            price *= 1.001
            rows.append([t0 + i * DAY, o, max(o, price) * 1.01, min(o, price) * 0.99, price, 1.0])
        candle_stub.reset()
        candle_stub.set_rows(rows)
        out = tmp_path / "fetched.csv"
        code = self.run_cli(
            "ingest",
            "--base-url", candle_stub.base_url,
            "--path-template", "/candles?symbol={symbol}&interval={interval}&start={start}&end={end}&limit={limit}",
            "--symbol", "BTCUSD",
            "--start", str(t0),
            "--end", str(t0 + 5 * DAY),
            "--interval", str(DAY),
            "--retry-backoff", "0",
            "--out", str(out),
        )
        assert code == 0
        assert out.read_text().count("\n") == 6  # header + 5 rows
        capsys.readouterr()

    def test_ingest_gap_exit_2(self, tmp_path, capsys):
        series = bars_to_series(random_walk_bars(10, seed=33))
        ts = series.timestamps.copy()
        ts[5:] += DAY
        from quantroll.candles import CandleSeries

        gapped = CandleSeries(ts, series.open, series.high, series.low, series.close, series.volume, DAY)
        path = tmp_path / "gapped.csv"
        path.write_text(serialize_candles_csv(gapped), encoding="utf-8")
        assert self.run_cli("ingest", "--csv", str(path), "--interval", str(DAY)) == 2

    def test_ingest_timestamp_overflow_exit_2(self, tmp_path, capsys):
        path = tmp_path / "big.csv"
        path.write_text("timestamp,open,high,low,close,volume\n99999999999999999999,1,2,1,2,5\n", encoding="utf-8")
        assert self.run_cli("ingest", "--csv", str(path), "--interval", str(DAY)) == 2
        assert "line 2: timestamp '99999999999999999999' is outside the int64 range" in capsys.readouterr().err

    def test_ingest_missing_csv_exit_2(self, tmp_path):
        assert self.run_cli("ingest", "--csv", str(tmp_path / "missing.csv"), "--interval", str(DAY)) == 2

    def test_ingest_csv_and_base_url_exit_1(self, csv_path, candle_stub, capsys):
        code = self.run_cli(
            "ingest", "--csv", str(csv_path), "--base-url", candle_stub.base_url,
            "--start", str(T0), "--end", str(T0 + DAY), "--interval", str(DAY),
        )
        assert code == 1
        assert "exactly one of csv_path or fetch" in capsys.readouterr().err

    def test_ingest_empty_fetch_range_exit_1(self, candle_stub, capsys):
        code = self.run_cli("ingest", "--base-url", candle_stub.base_url, "--start", str(T0), "--end", str(T0))
        assert code == 1
        assert "configuration error: fetch range requires start < end" in capsys.readouterr().err

    def test_ingest_bad_page_limit_exit_1(self, candle_stub, capsys):
        code = self.run_cli(
            "ingest", "--base-url", candle_stub.base_url, "--start", str(T0), "--end", str(T0 + DAY), "--page-limit", "0",
        )
        assert code == 1
        assert "configuration error: page_limit must be >= 1" in capsys.readouterr().err

    def test_missing_config_exit_1(self, tmp_path):
        assert self.run_cli("run", "--config", str(tmp_path / "missing.json")) == 1

    @pytest.mark.parametrize(
        "overrides, flags",
        [
            ({"split": {**SPLIT, "forward_strat": T0}}, []),
            ({"data": {"csv_path": "c.csv", "path": "c.csv"}}, []),
            ({"mode": "bogus"}, []),
            ({"fee_bps": -1.0}, []),
            ({"windows": [7, 7]}, []),
            ({}, ["--fee-bps", "-1"]),
            ({}, ["--windows", "7,14,7"]),
        ],
        ids=["split-key", "data-key", "mode", "fee", "duplicate-window", "fee-flag", "duplicate-window-flag"],
    )
    def test_bad_config_exit_1_before_any_run(self, csv_path, tmp_path, capsys, overrides, flags):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config_dict(csv_path, tmp_path / "runs", **overrides)), encoding="utf-8")
        assert self.run_cli("run", "--config", str(cfg), *flags) == 1
        assert "configuration error:" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

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

    def test_tune_command(self, csv_path, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config_dict(csv_path, tmp_path / "runs")), encoding="utf-8")
        trials_path = tmp_path / "trials.jsonl"
        code = self.run_cli("tune", "--config", str(cfg), "--model", "knn_c", "--window", "7", "--trials", "4", "--out", str(trials_path))
        assert code == 0
        assert len(trials_path.read_text().strip().split("\n")) == 4
        best = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
        assert "params" in best and "objective" in best
