"""Experiment orchestration: config -> ingest -> evaluate -> persisted artifact.

A run is fully determined by its config snapshot plus the master seed; the
persisted report.json and trials.jsonl are byte-identical across reruns,
including with concurrent job execution.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .candles import CandleSeries, FetchConfig, fetch_candles, parse_candles_csv, validate_series
from .dataset import LabeledDataset, SegmentSplit, build_features, label, log_diff, split
from .errors import ConfigError, DataError, UnknownSelector
from .evaluation import evaluate_segment
from .indicators import IndicatorConfig
from .metrics import ClassifierReport
from .models import ALL_KINDS, CLASSIFIER, ModelKind, ModelSpec, coerce_kind
from .trading import CostModel, EquityCurve
from .tuner import TunerConfig, TunerResult, run_study
from .walkforward import WalkForwardConfig, check_threshold

logger = logging.getLogger(__name__)

SECONDS_PER_YEAR = 365 * 86400
DEFAULT_WINDOWS = (1, 7, 14, 21, 28)
_U64 = (1 << 64) - 1


def parse_instant(value) -> int:
    """Epoch seconds from an int, ISO date, or ISO datetime (UTC assumed)."""
    if isinstance(value, bool):
        raise ConfigError(f"not a timestamp: {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, float) and value == int(value):
        return int(value)
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
        try:
            dt = datetime.fromisoformat(value)
        except ValueError:
            raise ConfigError(f"cannot parse instant {value!r}") from None
        if dt.tzinfo is None:
            dt = dt.replace(tzinfo=timezone.utc)
        return int(dt.timestamp())
    raise ConfigError(f"not a timestamp: {value!r}")


@dataclass(frozen=True)
class DataSource:
    """Either a CSV path or a fetch endpoint with symbol and range."""

    csv_path: str | None = None
    fetch: FetchConfig | None = None
    symbol: str = ""
    start: int = 0
    end: int = 0

    def __post_init__(self):
        if (self.csv_path is None) == (self.fetch is None):
            raise ConfigError("data source needs exactly one of csv_path or fetch settings")
        if self.fetch is not None and self.start >= self.end:
            raise ConfigError("fetch range requires start < end")


_SPLIT_KEYS = ("train_start", "backtest_start", "forward_start", "forward_end")
_OPEN_ENDS = ("train_start", "forward_end")  # null stretches the segment to the data's edge


def _reject_unknown(block: str, raw: dict, known) -> None:
    unknown = set(raw) - set(known)
    if unknown:
        raise ConfigError(f"unknown {block} keys: {sorted(unknown)}")


def _source_from_dict(raw: dict) -> DataSource:
    _reject_unknown("data", raw, [f.name for f in dataclasses.fields(DataSource)])
    if "fetch" not in raw:
        return DataSource(csv_path=raw.get("csv_path"))
    return DataSource(
        csv_path=raw.get("csv_path"),
        fetch=FetchConfig(**raw["fetch"]),
        symbol=raw.get("symbol", ""),
        start=parse_instant(raw["start"]),
        end=parse_instant(raw["end"]),
    )


@dataclass(frozen=True)
class RunConfig:
    """One run. The fields are the config schema: each one is a top-level key
    of the same name, except the four split bounds, which sit under "split".
    """

    data: DataSource
    interval: int = 86400
    indicators: IndicatorConfig = field(default_factory=IndicatorConfig)
    backtest_start: int = parse_instant("2023-02-01")
    forward_start: int = parse_instant("2023-08-01")
    forward_end: int | None = parse_instant("2023-11-01")
    train_start: int | None = None
    models: tuple[ModelKind, ...] = ALL_KINDS
    windows: tuple[int, ...] = DEFAULT_WINDOWS
    mode: str = "trailing"
    retrain_stride: int = 1
    fee_bps: float = 0.0
    dead_band: float = 0.0
    tuner_trials: int | None = None
    seed: int = 0
    out_dir: str = "runs"
    jobs: int = 1

    def __post_init__(self):
        if not self.models or not self.windows:
            raise ConfigError("at least one model and one window are required")
        for name in ("models", "windows"):
            if len(set(getattr(self, name))) < len(getattr(self, name)):
                raise ConfigError(f"{name} has duplicate entries")
        if self.interval < 1:
            raise ConfigError("interval must be >= 1 second")
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")
        try:  # the rules of the objects each job builds from these fields
            for window in self.windows:
                WalkForwardConfig(window, self.mode, self.retrain_stride)
            CostModel(self.fee_bps)
            check_threshold(self.dead_band)
            if self.tuner_trials is not None:
                TunerConfig(self.tuner_trials)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        self._segments(self.backtest_start - 1, self.forward_start + 1)  # the bounds' order, before any data is read

    @property
    def periods_per_year(self) -> float:
        return SECONDS_PER_YEAR / self.interval

    def segment_split(self, series: CandleSeries) -> SegmentSplit:
        return self._segments(int(series.timestamps[0]), int(series.timestamps[-1]) + 1)

    def _segments(self, first: int, end: int) -> SegmentSplit:
        """The split, with an open train start or forward end taken as first or end."""
        t0 = self.train_start if self.train_start is not None else first
        t_end = self.forward_end if self.forward_end is not None else end
        try:
            return SegmentSplit(
                train=(t0, self.backtest_start),
                backtest=(self.backtest_start, self.forward_start),
                forward=(self.forward_start, t_end),
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["split"] = {name: out.pop(name) for name in _SPLIT_KEYS}
        out["models"] = [k.value for k in self.models]
        out["windows"] = list(self.windows)
        if self.data.fetch is None:
            out["data"] = {"csv_path": self.data.csv_path}
        else:
            del out["data"]["csv_path"]
        return out

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        try:
            return cls._from_dict(raw)
        except (TypeError, ValueError, KeyError) as exc:
            raise ConfigError(f"bad run config: {exc}") from None

    @classmethod
    def _from_dict(cls, raw: dict) -> "RunConfig":
        flat = {f.name for f in dataclasses.fields(cls)} - set(_SPLIT_KEYS)
        _reject_unknown("config", raw, flat | {"split"})
        split_raw = raw.get("split") or {}
        _reject_unknown("split", split_raw, _SPLIT_KEYS)
        kwargs = {name: value for name, value in raw.items() if name != "split"}
        kwargs["data"] = _source_from_dict(raw.get("data") or {})
        kwargs["indicators"] = IndicatorConfig(**(raw.get("indicators") or {}))
        for name, value in split_raw.items():
            kwargs[name] = None if value is None and name in _OPEN_ENDS else parse_instant(value)
        if "models" in raw:
            models = raw["models"]
            kwargs["models"] = ALL_KINDS if models in ("all", ["all"]) else tuple(coerce_kind(m) for m in models)
        if "windows" in raw:
            kwargs["windows"] = tuple(raw["windows"])
        return cls(**kwargs)

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None
        return cls.from_dict(raw)


@dataclass
class RunArtifact:
    config: dict
    reports: list
    curves: dict[tuple[str, int, str], EquityCurve]
    trials: dict[tuple[str, int], TunerResult]
    engine_version: str = __version__

    def report_rows(self) -> list[dict]:
        rows = []
        for report in self.reports:
            row = dataclasses.asdict(report)
            row["task"] = CLASSIFIER if isinstance(report, ClassifierReport) else "regressor"
            rows.append(row)
        rows.sort(key=lambda r: (r["model"], r["window"], r["segment"]))
        return rows

    def report_json(self) -> str:
        payload = {
            "engine_version": self.engine_version,
            "config": self.config,
            "reports": self.report_rows(),
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def trials_jsonl(self) -> str:
        lines = []
        for (kind, window) in sorted(self.trials):
            for trial in self.trials[(kind, window)].trials:
                record = {"model": kind, "window": window, **trial.to_record()}
                lines.append(json.dumps(record, sort_keys=True))
        return "".join(line + "\n" for line in lines)


def load_candles(config: RunConfig) -> CandleSeries:
    if config.data.csv_path is not None:
        try:
            text = Path(config.data.csv_path).read_text(encoding="utf-8")
        except OSError as exc:
            raise DataError(f"cannot read {config.data.csv_path}: {exc}") from None
        return parse_candles_csv(text, config.interval)
    return fetch_candles(
        config.data.fetch, config.data.symbol, config.interval, config.data.start, config.data.end
    )


def prepare_dataset(series: CandleSeries, indicators: IndicatorConfig) -> LabeledDataset:
    report = validate_series(series)
    if not report.is_clean:
        first = report.findings[0]
        raise DataError(
            f"series has {len(report.findings)} spacing violation(s); first gap of {first.gap}s "
            f"between {first.prev_timestamp} and {first.next_timestamp}"
        )
    return label(build_features(series, indicators), log_diff(series))


def _derive_seed(*parts: int) -> int:
    ss = np.random.SeedSequence([int(p) & _U64 for p in parts])
    return int(ss.generate_state(1, np.uint64)[0])


def _job_seed(master: int, kind: ModelKind, window: int, salt: int) -> int:
    return _derive_seed(master, ALL_KINDS.index(kind), window, salt)


def tune_job(
    config: RunConfig,
    dataset: LabeledDataset,
    seg: SegmentSplit,
    kind: ModelKind,
    window: int,
    seed: int,
) -> TunerResult:
    """The study of one (model, window): config.tuner_trials trials from the
    study seed, under the run's fee, mode, retrain stride, dead band and interval."""
    return run_study(
        kind,
        window,
        dataset,
        seg,
        CostModel(config.fee_bps),
        TunerConfig(config.tuner_trials, seed=seed),
        mode=config.mode,
        retrain_stride=config.retrain_stride,
        dead_band=config.dead_band,
        periods_per_year=config.periods_per_year,
    )


def _evaluate_job(
    config: RunConfig,
    dataset: LabeledDataset,
    seg: SegmentSplit,
    kind: ModelKind,
    window: int,
):
    """Evaluate one (model, window) pair on backtest + forward segments."""
    cost = CostModel(config.fee_bps)
    train_view, backtest_view, forward_view = split(dataset, seg)
    result = {"reports": [], "curves": {}, "trials": None}

    params: dict = {}
    if config.tuner_trials is not None:
        study = tune_job(config, dataset, seg, kind, window, _job_seed(config.seed, kind, window, 0))
        params = study.best.params
        result["trials"] = study

    spec = ModelSpec(kind, params, seed=_job_seed(config.seed, kind, window, 1))
    wf_config = WalkForwardConfig(window=window, mode=config.mode, retrain_stride=config.retrain_stride)
    for view in (backtest_view, forward_view):
        outcome = evaluate_segment(
            view,
            spec,
            wf_config,
            cost,
            dead_band=config.dead_band,
            periods_per_year=config.periods_per_year,
            train_view=train_view,
        )
        result["reports"].append(outcome.report)
        result["curves"][(kind.value, window, view.segment)] = outcome.curve
    return result


def run_experiment(
    config: RunConfig,
    series: CandleSeries | None = None,
    run_id: str | None = None,
    persist: bool = True,
) -> RunArtifact:
    """Execute the full pipeline and (optionally) persist under out_dir/run_id."""
    if series is None:
        series = load_candles(config)
    dataset = prepare_dataset(series, config.indicators)
    seg = config.segment_split(series)

    jobs = [(kind, window) for kind in config.models for window in config.windows]
    logger.info("running %d jobs (%d models x %d windows)", len(jobs), len(config.models), len(config.windows))

    def run_one(job):
        kind, window = job
        return job, _evaluate_job(config, dataset, seg, kind, window)

    if config.jobs > 1:
        with ThreadPoolExecutor(max_workers=config.jobs) as pool:
            outcomes = dict(pool.map(run_one, jobs))
    else:
        outcomes = dict(run_one(job) for job in jobs)

    artifact = RunArtifact(config=config.to_dict(), reports=[], curves={}, trials={})
    for job in jobs:  # deterministic merge order, independent of scheduling
        outcome = outcomes[job]
        artifact.reports.extend(outcome["reports"])
        artifact.curves.update(outcome["curves"])
        if outcome["trials"] is not None:
            artifact.trials[(job[0].value, job[1])] = outcome["trials"]

    if persist:
        persist_artifact(artifact, config, run_id=run_id)
    return artifact


def make_run_id(config: RunConfig) -> str:
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%SZ")
    digest = hashlib.sha256(json.dumps(config.to_dict(), sort_keys=True).encode()).hexdigest()[:8]
    return f"{stamp}-{digest}"


def persist_artifact(artifact: RunArtifact, config: RunConfig, run_id: str | None = None) -> Path:
    run_id = run_id or make_run_id(config)
    root = Path(config.out_dir) / run_id
    (root / "equity").mkdir(parents=True, exist_ok=True)
    (root / "config.json").write_text(
        json.dumps(artifact.config, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    (root / "report.json").write_text(artifact.report_json(), encoding="utf-8")
    if artifact.trials:
        (root / "trials.jsonl").write_text(artifact.trials_jsonl(), encoding="utf-8")
    for (model, window, segment), curve in artifact.curves.items():
        (root / "equity" / f"{model}_{window}_{segment}.csv").write_text(curve.to_csv(), encoding="utf-8")
    logger.info("persisted run to %s", root)
    return root


def export_equity(artifact: RunArtifact, model: str, window: int, segment: str) -> str:
    """CSV text of one persisted equity curve (timestamp,equity_fraction)."""
    key = (getattr(model, "value", model), int(window), segment)
    if key not in artifact.curves:
        raise UnknownSelector(f"no equity curve for model={key[0]} window={key[1]} segment={key[2]}")
    return artifact.curves[key].to_csv()
