"""Batch CLI.

Exit codes: 0 success, 1 configuration error, 2 data error, 3 engine error.
A config file that cannot be read and an output path that cannot be written
are configuration errors; a candle file that cannot be read is a data error.
"""
from __future__ import annotations

import json
import logging
import sys
from contextlib import contextmanager
from pathlib import Path

import click

from .candles import csv_text, serialize_candles_csv, validate_series
from .dataset import build_features, label, log_diff
from .errors import ConfigError, DataError, QuantrollError, UnknownSelector
from .indicators import acc_dist, bollinger, keltner_width, mfi, parabolic_sar
from .metrics import REPORTS, SEGMENTS, report_from_row
from .models import coerce_kind
from .report import emit_table
from .run import (
    RunConfig,
    check_run_id,
    equity_path,
    load_candles,
    make_run_id,
    persist_artifact,
    prepare_dataset,
    run_experiment,
)
from .tuner import run_study

logger = logging.getLogger(__name__)


@click.group()
@click.option("-v", "--verbose", is_flag=True, help="Enable debug logging.")
def cli(verbose: bool) -> None:
    logging.basicConfig(
        level=logging.DEBUG if verbose else logging.INFO,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )


def _load_config(path: str | None, **overrides) -> RunConfig:
    """The config at path, with each override that is not None put in its
    top-level key and the result parsed again by RunConfig.from_dict; with no
    path, the overrides alone."""
    given = {name: value for name, value in overrides.items() if value is not None}
    if path is None:
        return RunConfig.from_dict(given)
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    config = RunConfig.from_json(text)
    return RunConfig.from_dict({**config.to_dict(), **given}) if given else config


@contextmanager
def _writing(path):
    """Around the writes to an output path: one that fails is a configuration error."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from None


def _check_writable(path: Path, directory: Path) -> None:
    """Before any data is read: directory, or its nearest existing ancestor, is a directory, and a
    file's path (one other than directory) is not a directory; creates nothing."""
    with _writing(path):
        if path != directory and path.is_dir():
            raise IsADirectoryError(f"Is a directory: {str(path)!r}")
        found = next(p for p in (directory, *directory.parents) if p.exists())
        if not found.is_dir():
            raise NotADirectoryError(f"Not a directory: {str(found)!r}")


def _candle_config(config_path, csv_path, interval) -> RunConfig:
    """The run config that names ingest's and features' candles: --csv replaces its data, --interval its interval."""
    return _load_config(config_path, data=None if csv_path is None else {"csv_path": csv_path}, interval=interval)


@cli.command()
@click.option("--config", "config_path", default=None, help="Run config whose data block names the candles.")
@click.option("--csv", "csv_path", default=None, help="Input candles CSV; replaces the config's data.")
@click.option("--interval", type=int, default=None, help="Candle interval in seconds (default: the config's, else 86400).")
@click.option("--out", "out_path", default=None, help="Write the validated, normalized CSV here.")
def ingest(config_path, csv_path, interval, out_path):
    """Parse a candle CSV, validate spacing, and store a normalized copy."""
    series = load_candles(_candle_config(config_path, csv_path, interval))
    report = validate_series(series)
    if not report.is_clean:
        for finding in report.findings[:10]:
            click.echo(
                f"gap of {finding.gap}s between {finding.prev_timestamp} and {finding.next_timestamp}",
                err=True,
            )
        raise DataError(f"series has {len(report.findings)} spacing violation(s)")
    if out_path:
        with _writing(out_path):
            Path(out_path).write_text(serialize_candles_csv(series), encoding="utf-8")
    click.echo(f"{len(series)} candles, {series.timestamps[0]}..{series.timestamps[-1]}, no gaps")


_INDICATORS = ("acc_dist", "mfi", "bb_bandwidth", "kc_width", "parabolic_sar")


@cli.command()
@click.option("--config", "config_path", default=None, help="Run config whose data block names the candles.")
@click.option("--csv", "csv_path", default=None, help="Input candles CSV; replaces the config's data.")
@click.option("--interval", type=int, default=None, help="Candle interval in seconds (default: the config's, else 86400).")
@click.option("--indicator", type=click.Choice(_INDICATORS), default=None, help="Dump one raw indicator instead of the feature frame.")
@click.option("--out", "out_path", default=None, help="Output CSV path (default: stdout).")
def features(config_path, csv_path, interval, indicator, out_path):
    """Dump the labeled feature frame (or one raw indicator) as CSV."""
    config = _candle_config(config_path, csv_path, interval)
    ind_config = config.indicators
    series = load_candles(config)
    if indicator is None:
        text = label(build_features(series, ind_config), log_diff(series)).to_csv()
    else:
        if indicator == "acc_dist":
            ind = acc_dist(series)
        elif indicator == "mfi":
            ind = mfi(series, ind_config.mfi_period)
        elif indicator == "bb_bandwidth":
            ind = bollinger(series, ind_config.bb_period, ind_config.bb_k).bandwidth
        elif indicator == "kc_width":
            ind = keltner_width(series, ind_config.kc_ema_period, ind_config.kc_atr_period, ind_config.kc_mult)
        else:
            ind, _ = parabolic_sar(series, ind_config.sar_af_start, ind_config.sar_af_step, ind_config.sar_af_max)
        rows = slice(ind.warmup_len, len(ind))
        text = csv_text(("timestamp", "value"), map(str, series.timestamps[rows].tolist()), map(repr, ind.values[rows].tolist()))
    if out_path:
        with _writing(out_path):
            Path(out_path).write_text(text, encoding="utf-8")
        click.echo(f"wrote {out_path}")
    else:
        click.echo(text, nl=False)


def _echo_tables(reports, tasks=tuple(REPORTS)) -> None:
    for task in tasks:
        rows = [r for r in reports if r.task == task]
        if rows:
            click.echo(emit_table(rows, task))


@cli.command()
@click.option("--config", "config_path", required=True, help="JSON run config.")
@click.option("--seed", type=int, default=None)
@click.option("--models", default=None, help="Comma-separated model kinds, or 'all'.")
@click.option("--windows", default=None, help="Comma-separated window sizes.")
@click.option("--fee-bps", type=float, default=None)
@click.option("--mode", type=click.Choice(["trailing", "global"]), default=None)
@click.option("--out", "out_dir", default=None, help="Output directory for runs.")
@click.option("--tuner-trials", type=int, default=None)
@click.option("--run-id", default=None, help="Run directory name under --out, one path component (default: timestamp + config hash).")
def run(config_path, models, windows, run_id, **overrides):
    """Run the full experiment and persist reports, curves and trial logs."""
    if models is not None:
        overrides["models"] = [m.strip() for m in models.split(",") if m.strip()]
    if windows is not None:
        try:
            overrides["windows"] = [int(w) for w in windows.split(",") if w.strip()]
        except ValueError:
            raise ConfigError(f"bad windows list {windows!r}") from None
    config = _load_config(config_path, **overrides)
    run_id = make_run_id(config) if run_id is None else check_run_id(run_id)  # checked before any data is read
    run_dir = Path(config.out_dir) / run_id
    _check_writable(run_dir, run_dir)
    artifact = run_experiment(config, persist=False)
    with _writing(run_dir):
        persist_artifact(artifact, config, run_id=run_id)
    click.echo(f"run {run_id}: {len(artifact.reports)} reports under {run_dir}")
    _echo_tables(artifact.reports)


@cli.command()
@click.option("--config", "config_path", required=True)
@click.option("--model", "model_name", required=True, help="Model kind to tune (e.g. knn_c).")
@click.option("--window", type=int, required=True)
@click.option("--trials", type=int, default=100, show_default=True)
@click.option("--seed", type=int, default=None, help="Study seed (default: the config's seed).")
@click.option("--out", "out_path", default=None, help="Write the trial log (trials.jsonl) here.")
def tune(config_path, model_name, window, trials, seed, out_path):
    """Random-search one model's hyperparameters for best backtest PNL."""
    config = _load_config(config_path, tuner_trials=trials, seed=seed, windows=[window])  # checked before any data is read
    kind = coerce_kind(model_name)
    if out_path:
        _check_writable(Path(out_path), Path(out_path).parent)
    series = load_candles(config)
    dataset = prepare_dataset(series, config.indicators)
    result = run_study(kind, dataset, config.segment_split(series), config.walk(window), trials, config.seed)
    if out_path:
        with _writing(out_path):
            Path(out_path).write_text(result.to_jsonl(), encoding="utf-8")
    click.echo(json.dumps({"best_index": result.best.index, "objective": result.best.objective, "params": result.best.params}, sort_keys=True))


@cli.command("report")
@click.option("--run-dir", required=True, help="A persisted runs/<run-id> directory.")
@click.option("--task", type=click.Choice([*REPORTS, "both"]), default="both", show_default=True)
def report_cmd(run_dir, task):
    """Re-render the metrics tables from a persisted run."""
    path = Path(run_dir) / "report.json"
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise DataError(f"{path} is not valid JSON: {exc}") from None
    try:
        reports = [report_from_row(row) for row in payload["reports"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path} holds no valid report rows: {exc!r}") from None
    if len({(r.model, r.window, r.segment) for r in reports}) < len(reports):
        raise DataError(f"{path} holds more than one row for a (model, window, segment)")
    _echo_tables(reports, tuple(REPORTS) if task == "both" else (task,))


@cli.command("export-equity")
@click.option("--run-dir", required=True)
@click.option("--model", "model_name", required=True)
@click.option("--window", type=int, required=True)
@click.option("--segment", type=click.Choice(SEGMENTS), required=True)
@click.option("--out", "out_path", default=None, help="Output CSV path (default: stdout).")
def export_equity_cmd(run_dir, model_name, window, segment, out_path):
    """Print one persisted equity curve as timestamp,equity_fraction CSV."""
    path = equity_path(Path(run_dir), coerce_kind(model_name).value, window, segment)
    if not path.exists():
        raise UnknownSelector(f"no equity curve at {path}")
    text = path.read_text(encoding="utf-8")
    if out_path:
        with _writing(out_path):
            Path(out_path).write_text(text, encoding="utf-8")
        click.echo(f"wrote {out_path}")
    else:
        click.echo(text, nl=False)


def main(argv=None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.ClickException as exc:
        exc.show()
        return 1
    except click.Abort:
        click.echo("aborted", err=True)
        return 1
    except ConfigError as exc:
        click.echo(f"configuration error: {exc}", err=True)
        return 1
    except DataError as exc:
        click.echo(f"data error: {exc}", err=True)
        return 2
    except QuantrollError as exc:
        click.echo(f"engine error: {exc}", err=True)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
