"""Experiment orchestration: config -> ingest -> evaluate -> persisted artifact.

A run is fully determined by its config snapshot plus the master seed; the
persisted report.json and trials.jsonl are byte-identical across reruns,
including runs made at the same time on separate threads.
"""
from __future__ import annotations

import dataclasses
import json
import logging
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .candles import CandleSeries, parse_candles_csv, validate_series
from .dataset import LabeledDataset, SegmentSplit, build_features, label, log_diff, split
from .errors import INTEGER, POSITIVE_INTEGER, STRING, ConfigError, DataError, UnknownSelector, check_fields
from .evaluation import evaluate_segment
from .indicators import IndicatorConfig
from .metrics import report_row
from .models import ALL_KINDS, ModelKind, ModelSpec, coerce_kind
from .trading import EquityCurve
from .tuner import TunerResult, _derive_seed, run_study
from .walkforward import WalkForwardConfig

logger = logging.getLogger(__name__)

SECONDS_PER_YEAR = 365 * 86400
DEFAULT_WINDOWS = (1, 7, 14, 21, 28)


def parse_instant(value) -> int:
    """Epoch seconds from an int, ISO date, or ISO datetime (UTC assumed)."""
    if isinstance(value, bool):
        raise ConfigError(f"not a timestamp: {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, float) and value.is_integer():  # never for inf or NaN
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
    """The candle CSV file a run reads."""

    csv_path: str

    def __post_init__(self):
        try:
            STRING.check("csv_path", self.csv_path)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


_SPLIT_KEYS = ("train_start", "backtest_start", "forward_start", "forward_end")
_OPEN_ENDS = ("train_start", "forward_end")  # null stretches the segment to the data's edge


def _names(cls) -> list[str]:
    return [f.name for f in dataclasses.fields(cls)]


def _block(name: str, value, known, required=()) -> dict:
    """A block-valued key's object, holding only known keys and every required
    one; null is an empty block."""
    if value is None:
        value = {}
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be a JSON object, got {value!r}")
    unknown = set(value) - set(known)
    if unknown:
        raise ConfigError(f"unknown {name} keys: {sorted(unknown)}")
    missing = [key for key in required if key not in value]
    if missing:
        raise ConfigError(f"missing {name} keys: {missing}")
    return value


def _listed(key: str, value) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{key} must be a list, got {value!r}")
    return value


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
    jobs: int = 1  # checked and recorded, but every run is serial; kept so configs that set it still load

    def __post_init__(self):
        try:
            check_fields(self, interval=POSITIVE_INTEGER, seed=INTEGER, out_dir=STRING, jobs=POSITIVE_INTEGER)
            self.walk(1)  # the rules of mode, retrain_stride, fee_bps and dead_band
            for window in self.windows:
                POSITIVE_INTEGER.check("windows", window)
            if self.tuner_trials is not None:
                POSITIVE_INTEGER.check("tuner_trials", self.tuner_trials)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if not self.models or not self.windows:
            raise ConfigError("at least one model and one window are required")
        for name in ("models", "windows"):  # after the windows rule, so every entry is hashable
            if len(set(getattr(self, name))) < len(getattr(self, name)):
                raise ConfigError(f"{name} has duplicate entries")
        self._segments(self.backtest_start - 1, self.forward_start + 1)  # the bounds' order, before any data is read

    def walk(self, window: int) -> WalkForwardConfig:
        """How this run walks, trades and scores a model at window."""
        return WalkForwardConfig(
            window=window, mode=self.mode, retrain_stride=self.retrain_stride, fee_bps=self.fee_bps,
            dead_band=self.dead_band, periods_per_year=SECONDS_PER_YEAR / self.interval,
        )

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
        return out

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        try:
            return cls._from_dict(raw)
        except ValueError as exc:  # a rule of a block's own type, such as IndicatorConfig
            raise ConfigError(str(exc)) from None

    @classmethod
    def _from_dict(cls, raw: dict) -> "RunConfig":
        flat = set(_names(cls)) - set(_SPLIT_KEYS)
        raw = _block("config", raw, flat | {"split"}, required=("data",))
        split_raw = _block("split", raw.get("split"), _SPLIT_KEYS)
        kwargs = {name: value for name, value in raw.items() if name != "split"}
        kwargs["data"] = DataSource(**_block("data", raw["data"], _names(DataSource), required=("csv_path",)))
        kwargs["indicators"] = IndicatorConfig(**_block("indicators", raw.get("indicators"), _names(IndicatorConfig)))
        for name, value in split_raw.items():
            kwargs[name] = None if value is None and name in _OPEN_ENDS else parse_instant(value)
        if "models" in raw:
            models = raw["models"]
            kwargs["models"] = ALL_KINDS if models in ("all", ["all"]) else tuple(map(coerce_kind, _listed("models", models)))
        if "windows" in raw:
            kwargs["windows"] = tuple(_listed("windows", raw["windows"]))
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
        return sorted(map(report_row, self.reports), key=lambda r: (r["model"], r["window"], r["segment"]))

    def report_json(self) -> str:
        payload = {
            "engine_version": self.engine_version,
            "config": self.config,
            "reports": self.report_rows(),
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def trials_jsonl(self) -> str:
        return "".join(self.trials[key].to_jsonl() for key in sorted(self.trials))


def load_candles(config: RunConfig) -> CandleSeries:
    """The candles of the config's CSV file; a file that cannot be read or
    decoded as UTF-8 is a data error."""
    path = config.data.csv_path
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    return parse_candles_csv(text, config.interval)


def prepare_dataset(series: CandleSeries, indicators: IndicatorConfig) -> LabeledDataset:
    report = validate_series(series)
    if not report.is_clean:
        first = report.findings[0]
        raise DataError(
            f"series has {len(report.findings)} spacing violation(s); first gap of {first.gap}s "
            f"between {first.prev_timestamp} and {first.next_timestamp}"
        )
    return label(build_features(series, indicators), log_diff(series))


def _job_seed(master: int, kind: ModelKind, window: int, salt: int) -> int:
    return _derive_seed(master, ALL_KINDS.index(kind), window, salt)


def _evaluate_job(
    config: RunConfig,
    dataset: LabeledDataset,
    seg: SegmentSplit,
    kind: ModelKind,
    window: int,
    artifact: RunArtifact,
) -> None:
    """Evaluate one (model, window) pair on backtest + forward segments, adding
    its reports, curves and study to artifact."""
    walk = config.walk(window)
    train_view, backtest_view, forward_view = split(dataset, seg)

    params: dict = {}
    if config.tuner_trials is not None:
        study = run_study(kind, dataset, seg, walk, config.tuner_trials, _job_seed(config.seed, kind, window, 0))
        params = study.best.params
        artifact.trials[(kind.value, window)] = study

    spec = ModelSpec(kind, params, seed=_job_seed(config.seed, kind, window, 1))
    for view in (backtest_view, forward_view):
        outcome = evaluate_segment(view, spec, walk, train_view=train_view)
        artifact.reports.append(outcome.report)
        artifact.curves[(kind.value, window, view.segment)] = outcome.curve


def run_experiment(
    config: RunConfig,
    series: CandleSeries | None = None,
    run_id: str | None = None,
    persist: bool = True,
) -> RunArtifact:
    """Execute the full pipeline and (optionally) persist under out_dir/run_id."""
    if series is None:
        series = load_candles(config)
    if series.interval != config.interval:  # Sharpe is annualized from config.interval
        raise DataError(f"series interval {series.interval}s differs from the config's interval {config.interval}s")
    dataset = prepare_dataset(series, config.indicators)
    seg = config.segment_split(series)

    n_models, n_windows = len(config.models), len(config.windows)
    logger.info("running %d jobs (%d models x %d windows)", n_models * n_windows, n_models, n_windows)
    if config.jobs > 1:
        logger.warning("jobs: %d has no effect; every job runs in config order on the calling thread", config.jobs)

    artifact = RunArtifact(config=config.to_dict(), reports=[], curves={}, trials={})
    for kind in config.models:
        for window in config.windows:
            _evaluate_job(config, dataset, seg, kind, window, artifact)

    if persist:
        persist_artifact(artifact, config, run_id=run_id)
    return artifact


def make_run_id(config: RunConfig) -> str:
    import hashlib  # only run ids use it; a run's start-up need not load it

    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%SZ")
    digest = hashlib.sha256(json.dumps(config.to_dict(), sort_keys=True).encode()).hexdigest()[:8]
    return f"{stamp}-{digest}"


def equity_path(run_dir: Path, model: str, window: int, segment: str) -> Path:
    """Where a persisted run keeps the equity curve of one (model, window, segment)."""
    return run_dir / "equity" / f"{model}_{window}_{segment}.csv"


def check_run_id(run_id: str) -> str:
    """run_id, if it names one directory directly under out_dir: a non-empty
    path component other than . and .., with no / or \\."""
    if not isinstance(run_id, str) or run_id in ("", ".", "..") or "/" in run_id or "\\" in run_id:
        raise ConfigError(f"run id must be one path component, got {run_id!r}")
    return run_id


def persist_artifact(artifact: RunArtifact, config: RunConfig, run_id: str | None = None) -> Path:
    run_id = make_run_id(config) if run_id is None else check_run_id(run_id)
    root = Path(config.out_dir) / run_id
    (root / "equity").mkdir(parents=True, exist_ok=True)
    (root / "config.json").write_text(
        json.dumps(artifact.config, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    (root / "report.json").write_text(artifact.report_json(), encoding="utf-8")
    if artifact.trials:
        (root / "trials.jsonl").write_text(artifact.trials_jsonl(), encoding="utf-8")
    else:  # an earlier run's trial log in this run directory goes, as do its curves below
        (root / "trials.jsonl").unlink(missing_ok=True)
    stale = set((root / "equity").glob("*.csv"))
    for key, curve in artifact.curves.items():
        path = equity_path(root, *key)
        path.write_text(curve.to_csv(), encoding="utf-8")
        stale.discard(path)
    for path in stale:
        path.unlink()
    logger.info("persisted run to %s", root)
    return root


def export_equity(artifact: RunArtifact, model: str, window: int, segment: str) -> str:
    """CSV text of one persisted equity curve (timestamp,equity_fraction)."""
    key = (getattr(model, "value", model), int(window), segment)
    if key not in artifact.curves:
        raise UnknownSelector(f"no equity curve for model={key[0]} window={key[1]} segment={key[2]}")
    return artifact.curves[key].to_csv()
