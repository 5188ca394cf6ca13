"""Candles + indicators -> labeled, segment-split feature datasets.

Feature encodings favor stationarity: unbounded indicator levels enter as
differences, ratios or sides, never raw levels.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .candles import CandleSeries, csv_text
from .direction import DOWN, UP, direction_name
from .errors import EmptySegment, LengthMismatch, SeriesTooShort
from .indicators import IndicatorConfig, acc_dist, bollinger, keltner_width, mfi, parabolic_sar, sma

FEATURE_NAMES = (
    "logret",
    "ad_diff",
    "mfi",
    "bb_percent_b",
    "bb_bandwidth",
    "kc_width",
    "sar_side",
)


@dataclass
class FeatureFrame:
    """Timestamp-aligned feature matrix; rows before valid_from may hold NaN."""

    feature_names: tuple[str, ...]
    rows: np.ndarray
    timestamps: np.ndarray
    valid_from: int

    def __len__(self) -> int:
        return int(self.rows.shape[0])


@dataclass
class LabeledDataset:
    """Feature frame plus class/regression targets.

    class_target[t] is +1 (up) iff the next-interval log return is > 0, else
    -1 (down); reg_target[t] is that next-interval log return. The final row
    has no future and is excluded from usable_range (inclusive bounds).
    """

    frame: FeatureFrame
    class_target: np.ndarray
    reg_target: np.ndarray
    usable_range: tuple[int, int]

    def __len__(self) -> int:
        return len(self.frame)

    @property
    def timestamps(self) -> np.ndarray:
        return self.frame.timestamps

    @property
    def valid_from(self) -> int:
        return self.frame.valid_from

    def usable_indices(self) -> np.ndarray:
        lo, hi = self.usable_range
        return np.arange(lo, hi + 1, dtype=np.int64)

    def to_csv(self) -> str:
        """Usable rows as `timestamp,<features...>,class_target,reg_target`."""
        rows = slice(self.usable_range[0], self.usable_range[1] + 1)
        return csv_text(
            ("timestamp", *self.frame.feature_names, "class_target", "reg_target"),
            map(str, self.timestamps[rows].tolist()),
            *(map(repr, column) for column in self.frame.rows[rows].T.tolist()),
            map(direction_name, self.class_target[rows].tolist()),
            map(repr, self.reg_target[rows].tolist()),
        )


@dataclass(frozen=True)
class SegmentSplit:
    """Three ordered, disjoint half-open [start, end) timestamp ranges."""

    train: tuple[int, int]
    backtest: tuple[int, int]
    forward: tuple[int, int]

    def __post_init__(self) -> None:
        for name in ("train", "backtest", "forward"):
            start, end = getattr(self, name)
            if start >= end:
                raise ValueError(f"{name} range [{start}, {end}) is empty")
        if self.train[1] > self.backtest[0] or self.backtest[1] > self.forward[0]:
            raise ValueError("segments must be ordered train < backtest < forward without overlap")


@dataclass
class DatasetView:
    """A segment's usable row indices, with the full parent kept for history."""

    parent: LabeledDataset
    segment: str
    indices: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return int(self.indices.size)


def log_diff(series: CandleSeries) -> np.ndarray:
    """Log-difference transform of closes, aligned to the series (index 0 is NaN); stabilizes variance across regimes."""
    if len(series) < 2:
        raise SeriesTooShort(f"log returns need at least 2 candles, got {len(series)}")
    values = np.full(len(series), np.nan)
    logc = np.log(series.close)
    values[1:] = logc[1:] - logc[:-1]
    return values


def build_features(series: CandleSeries, config: IndicatorConfig | None = None) -> FeatureFrame:
    """Assemble the 7-feature matrix from raw candles.

    Columns, in order: log return; A/D first difference scaled by the
    trailing bb_period volume mean (0 on a zero denominator); MFI/100;
    Bollinger %B ((close - lower)/(upper - lower), 0.5 on a degenerate
    band); Bollinger bandwidth; Keltner width; SAR side (+1 if close is
    above the SAR else -1).
    """
    config = config or IndicatorConfig()
    n = len(series)

    returns = log_diff(series)
    ad = acc_dist(series)
    mfi_s = mfi(series, config.mfi_period)
    bands = bollinger(series, config.bb_period, config.bb_k)
    kc = keltner_width(series, config.kc_ema_period, config.kc_atr_period, config.kc_mult)
    sar, _ = parabolic_sar(series, config.sar_af_start, config.sar_af_step, config.sar_af_max)

    ad_diff = np.full(n, np.nan)
    ad_warmup = max(1, config.bb_period - 1)
    if n > ad_warmup:
        diff = ad.values[ad_warmup:] - ad.values[ad_warmup - 1 : -1]
        denom = sma(series.volume, config.bb_period)[ad_warmup:]
        ad_diff[ad_warmup:] = np.where(denom > 0, diff / np.where(denom > 0, denom, 1.0), 0.0)

    band_span = bands.upper.values - bands.lower.values
    percent_b = np.where(
        band_span > 0,
        (series.close - bands.lower.values) / np.where(band_span > 0, band_span, 1.0),
        0.5,
    )
    percent_b[: bands.upper.warmup_len] = np.nan

    sar_side = np.where(series.close > sar.values, 1.0, -1.0)
    sar_side[: sar.warmup_len] = np.nan

    columns = (
        returns,
        ad_diff,
        mfi_s.values / 100.0,
        percent_b,
        bands.bandwidth.values,
        kc.values,
        sar_side,
    )
    warmups = (
        1,  # the log return needs the prior close
        ad_warmup,
        mfi_s.warmup_len,
        bands.upper.warmup_len,
        bands.bandwidth.warmup_len,
        kc.warmup_len,
        sar.warmup_len,
    )
    valid_from = max(warmups)
    if valid_from >= n:
        raise SeriesTooShort(f"series of length {n} has no row past the warm-up ({valid_from})")

    rows = np.column_stack(columns)
    return FeatureFrame(FEATURE_NAMES, rows, series.timestamps.copy(), valid_from)


def label(frame: FeatureFrame, returns: np.ndarray) -> LabeledDataset:
    """Attach next-interval targets from log_diff's returns; a zero next-return labels down."""
    n = len(frame)
    if len(returns) != n:
        raise LengthMismatch(f"frame has {n} rows but returns has {len(returns)}")
    if frame.valid_from > n - 2:
        raise SeriesTooShort("no usable rows: warm-up leaves nothing before the final row")

    reg_target = np.full(n, np.nan)
    reg_target[:-1] = returns[1:]
    class_target = np.zeros(n, dtype=np.int8)
    class_target[:-1] = np.where(reg_target[:-1] > 0, UP, DOWN)
    return LabeledDataset(frame, class_target, reg_target, (frame.valid_from, n - 2))


def split(dataset: LabeledDataset, seg: SegmentSplit) -> tuple[DatasetView, DatasetView, DatasetView]:
    """Partition usable rows into train/backtest/forward views by timestamp."""
    usable = dataset.usable_indices()
    ts = dataset.timestamps[usable]
    views = []
    for name in ("train", "backtest", "forward"):
        start, end = getattr(seg, name)
        members = usable[(ts >= start) & (ts < end)]
        if members.size == 0:
            raise EmptySegment(f"segment {name} [{start}, {end}) contains no usable rows")
        views.append(DatasetView(dataset, name, members))
    return views[0], views[1], views[2]
