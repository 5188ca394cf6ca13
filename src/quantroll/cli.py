"""Batch CLI.

Exit codes: 0 success, 1 configuration error, 2 data error, 3 engine error.
A config file that cannot be read and an output path that cannot be written
are configuration errors; a candle, report or equity-curve file that cannot be
read (or is not UTF-8) is a data error.
"""
from __future__ import annotations

import json
import logging
import sys
from pathlib import Path

import click

from .candles import csv_text, serialize_candles_csv, validate_series
from .errors import ConfigError, DataError, QuantrollError, UnknownSelector
from .indicators import acc_dist, bollinger, keltner_width, mfi, parabolic_sar
from .metrics import REPORTS, SEGMENTS, report_from_row
from .models import coerce_kind
from .report import emit_table
from .run import (
    RunConfig,
    _check_writable,
    _writing,
    check_spacing,
    equity_path,
    load_candles,
    make_run_id,
    prepare_dataset,
    printable,
    read_text,
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
    config = RunConfig.from_json(read_text(path, ConfigError, f"config {printable(path)}"))
    return RunConfig.from_dict({**config.to_dict(), **given}) if given else config


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
    try:
        check_spacing(series)
    except DataError:  # the first 10 gaps, then the message features, run and tune give
        for finding in validate_series(series)[:10]:
            click.echo(f"gap of {finding.gap}s between {finding.prev_timestamp} and {finding.next_timestamp}", err=True)
        raise
    if out_path:
        with _writing(out_path):
            Path(out_path).write_text(serialize_candles_csv(series), encoding="utf-8")
    click.echo(f"{len(series)} candles, {series.timestamps[0]}..{series.timestamps[-1]}, no gaps")


def _write_or_echo(text: str, out_path) -> None:
    """text into out_path, reported as written, else to stdout."""
    if out_path:
        with _writing(out_path):
            Path(out_path).write_text(text, encoding="utf-8")
        click.echo(f"wrote {printable(out_path)}")
    else:
        click.echo(text, nl=False)


_INDICATORS = {  # --indicator's raw series, from the candles and the config's indicators block
    "acc_dist": lambda series, c: acc_dist(series),
    "mfi": lambda series, c: mfi(series, c.mfi_period),
    "bb_bandwidth": lambda series, c: bollinger(series, c.bb_period, c.bb_k).bandwidth,
    "kc_width": lambda series, c: keltner_width(series, c.kc_ema_period, c.kc_atr_period, c.kc_mult),
    "parabolic_sar": lambda series, c: parabolic_sar(series, c.sar_af_start, c.sar_af_step, c.sar_af_max)[0],
}


@cli.command()
@click.option("--config", "config_path", default=None, help="Run config whose data block names the candles.")
@click.option("--csv", "csv_path", default=None, help="Input candles CSV; replaces the config's data.")
@click.option("--interval", type=int, default=None, help="Candle interval in seconds (default: the config's, else 86400).")
@click.option("--indicator", type=click.Choice(list(_INDICATORS)), default=None, help="Dump one raw indicator instead of the feature frame.")
@click.option("--out", "out_path", default=None, help="Output CSV path (default: stdout).")
def features(config_path, csv_path, interval, indicator, out_path):
    """Dump the labeled feature frame (or one raw indicator) of a gap-free series as CSV."""
    config = _candle_config(config_path, csv_path, interval)
    series = load_candles(config)
    if indicator is None:
        text = prepare_dataset(series, config.indicators).to_csv()
    else:
        check_spacing(series)
        ind = _INDICATORS[indicator](series, config.indicators)
        rows = slice(ind.warmup_len, len(ind))
        text = csv_text(("timestamp", "value"), map(str, series.timestamps[rows].tolist()), map(repr, ind.values[rows].tolist()))
    _write_or_echo(text, out_path)


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
    run_id = make_run_id(config) if run_id is None else run_id
    artifact = run_experiment(config, run_id=run_id)  # checks run_id and its directory before any data is read
    run_dir = Path(config.out_dir) / run_id
    click.echo(f"run {printable(run_id)}: {len(artifact.reports)} reports under {printable(run_dir)}")
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
        payload = json.loads(read_text(path, DataError))
    except json.JSONDecodeError as exc:
        raise DataError(f"{printable(path)} is not valid JSON: {exc}") from None
    try:
        reports = [report_from_row(row) for row in payload["reports"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{printable(path)} holds no valid report rows: {exc!r}") from None
    if len({(r.model, r.window, r.segment) for r in reports}) < len(reports):
        raise DataError(f"{printable(path)} holds more than one row for a (model, window, segment)")
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
        raise UnknownSelector(f"no equity curve at {printable(path)}")
    _write_or_echo(read_text(path, DataError), out_path)


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
