"""Technical indicators over candle series.

Every indicator returns per-timestamp values aligned with the input series.
Indices before warmup_len are NaN, never zero: silent zeros would leak fake
signal into downstream model training.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .candles import CandleSeries
from .direction import DOWN, UP
from .errors import POSITIVE_INTEGER, POSITIVE_REAL, SeriesTooShort, check_fields


@dataclass(frozen=True)
class IndicatorConfig:
    """Periods and factors for the indicator set (industry-standard defaults)."""

    mfi_period: int = 14
    bb_period: int = 20
    bb_k: float = 2.0
    kc_ema_period: int = 20
    kc_atr_period: int = 10
    kc_mult: float = 2.0
    sar_af_start: float = 0.02
    sar_af_step: float = 0.02
    sar_af_max: float = 0.2

    def __post_init__(self) -> None:
        check_fields(
            self,
            **dict.fromkeys(("mfi_period", "bb_period", "kc_ema_period", "kc_atr_period"), POSITIVE_INTEGER),
            **dict.fromkeys(("bb_k", "kc_mult", "sar_af_start", "sar_af_step", "sar_af_max"), POSITIVE_REAL),
        )
        if self.sar_af_start > self.sar_af_max:
            raise ValueError("sar_af_start must not exceed sar_af_max")


@dataclass
class IndicatorSeries:
    """Per-timestamp values; NaN marks the warm-up prefix."""

    values: np.ndarray
    warmup_len: int

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)

    def __len__(self) -> int:
        return int(self.values.size)


@dataclass
class BollingerBands:
    middle: IndicatorSeries
    upper: IndicatorSeries
    lower: IndicatorSeries
    bandwidth: IndicatorSeries


def _nan_prefix(values: np.ndarray, warmup: int) -> np.ndarray:
    values = values.astype(np.float64, copy=True)
    values[:warmup] = np.nan
    return values


def typical_price(series: CandleSeries) -> np.ndarray:
    return (series.high + series.low + series.close) / 3.0


def true_range(series: CandleSeries) -> np.ndarray:
    """True range per bar; index 0 is NaN (needs the prior close)."""
    tr = np.full(len(series), np.nan)
    prev_close = series.close[:-1]
    tr[1:] = np.maximum(
        series.high[1:] - series.low[1:],
        np.maximum(np.abs(series.high[1:] - prev_close), np.abs(series.low[1:] - prev_close)),
    )
    return tr


def sma(values: np.ndarray, period: int) -> np.ndarray:
    """Trailing simple moving average; NaN before the first full window."""
    if values.size < period:
        raise SeriesTooShort(f"need at least {period} values, got {values.size}")
    out = np.full(values.size, np.nan)
    out[period - 1 :] = sliding_window_view(values, period).mean(axis=1)
    return out


def ema(values: np.ndarray, period: int) -> np.ndarray:
    """EMA with smoothing 2/(period+1), seeded with the SMA of the first period values."""
    if values.size < period:
        raise SeriesTooShort(f"need at least {period} values, got {values.size}")
    alpha = 2.0 / (period + 1.0)
    out = np.full(values.size, np.nan)
    steps = values[period:].tolist()  # scalar steps run faster on Python floats
    out[period - 1 :] = list(accumulate(steps, lambda prev, v: prev + alpha * (v - prev), initial=float(values[:period].mean())))
    return out


def wilder_atr(series: CandleSeries, period: int) -> np.ndarray:
    """Wilder-smoothed ATR seeded with the SMA of the first `period` true ranges.

    True ranges start at index 1, so the seed lands at index `period`.
    """
    if len(series) <= period:
        raise SeriesTooShort(f"need more than {period} candles, got {len(series)}")
    tr = true_range(series)
    out = np.full(len(series), np.nan)
    steps = tr[period + 1 :].tolist()  # scalar steps run faster on Python floats
    out[period:] = list(accumulate(steps, lambda prev, v: (prev * (period - 1) + v) / period, initial=float(tr[1 : period + 1].mean())))
    return out


def acc_dist(series: CandleSeries) -> IndicatorSeries:
    """Accumulation/Distribution line: cumulative CLV-weighted volume."""
    spread = series.high - series.low
    clv = np.zeros(len(series))
    nz = spread != 0
    clv[nz] = ((series.close[nz] - series.low[nz]) - (series.high[nz] - series.close[nz])) / spread[nz]
    ad = np.cumsum(clv * series.volume)
    return IndicatorSeries(ad, warmup_len=0)


def mfi(series: CandleSeries, period: int = 14) -> IndicatorSeries:
    """Money Flow Index over the trailing `period` money flows.

    A flow is positive when typical price rose, negative when it fell, and
    excluded when unchanged. An all-excluded window reads neutral (50).
    """
    if len(series) <= period:
        raise SeriesTooShort(f"MFI({period}) needs more than {period} candles, got {len(series)}")
    tp = typical_price(series)
    raw = tp * series.volume
    delta = np.diff(tp)
    pos = np.where(delta > 0, raw[1:], 0.0)
    neg = np.where(delta < 0, raw[1:], 0.0)
    pos_sum = sliding_window_view(pos, period).sum(axis=1)
    neg_sum = sliding_window_view(neg, period).sum(axis=1)
    total = pos_sum + neg_sum
    out = np.full(len(series), np.nan)
    out[period:] = np.where(total > 0, 100.0 * pos_sum / np.where(total > 0, total, 1.0), 50.0)
    return IndicatorSeries(out, warmup_len=period)


def bollinger(series: CandleSeries, period: int = 20, k: float = 2.0) -> BollingerBands:
    """Bollinger bands on close: SMA +/- k population standard deviations."""
    if len(series) < period:
        raise SeriesTooShort(f"Bollinger({period}) needs at least {period} candles, got {len(series)}")
    warmup = period - 1
    middle = sma(series.close, period)
    sigma = np.full(len(series), np.nan)
    sigma[warmup:] = sliding_window_view(series.close, period).std(axis=1)
    upper = middle + k * sigma
    lower = middle - k * sigma
    bandwidth = (upper - lower) / middle
    return BollingerBands(
        middle=IndicatorSeries(middle, warmup),
        upper=IndicatorSeries(upper, warmup),
        lower=IndicatorSeries(lower, warmup),
        bandwidth=IndicatorSeries(bandwidth, warmup),
    )


def keltner_width(
    series: CandleSeries,
    ema_period: int = 20,
    atr_period: int = 10,
    mult: float = 2.0,
) -> IndicatorSeries:
    """Relative Keltner channel width: (2 * mult * ATR) / EMA(typical price)."""
    warmup = max(ema_period, atr_period)
    if len(series) <= warmup:
        raise SeriesTooShort(f"Keltner({ema_period},{atr_period}) needs more than {warmup} candles, got {len(series)}")
    middle = ema(typical_price(series), ema_period)
    atr = wilder_atr(series, atr_period)
    width = (2.0 * mult * atr) / middle
    return IndicatorSeries(_nan_prefix(width, warmup), warmup_len=warmup)


def parabolic_sar(
    series: CandleSeries,
    af_start: float = 0.02,
    af_step: float = 0.02,
    af_max: float = 0.2,
) -> tuple[IndicatorSeries, np.ndarray]:
    """Wilder's parabolic stop-and-reverse.

    The first defined index is 1: the initial trend follows the sign of
    close_1 - close_0 (tie resolves up) and the initial SAR is the opposite
    extreme of bar 0. Each step accelerates toward the running extreme,
    is clamped out of the prior two bars' range, and flips (SAR := prior
    extreme, AF := af_start) when price penetrates it.

    Returns the SAR series plus a per-index trend array (+1 up, -1 down,
    0 for the undefined index 0).
    """
    n = len(series)
    if n < 2:
        raise SeriesTooShort(f"parabolic SAR needs at least 2 candles, got {n}")
    high, low = series.high.tolist(), series.low.tolist()  # scalar steps run faster on Python floats
    sar = [np.nan] * n
    trend = [0] * n

    up = bool(series.close[1] >= series.close[0])
    sar[1] = low[0] if up else high[0]
    trend[1] = UP if up else DOWN
    ep = max(high[0], high[1]) if up else min(low[0], low[1])
    af = af_start

    for t in range(2, n):
        cand = sar[t - 1] + af * (ep - sar[t - 1])
        if up:
            cand = min(cand, low[t - 1], low[t - 2])
            if low[t] < cand:
                up = False
                sar[t] = ep
                ep = low[t]
                af = af_start
            else:
                sar[t] = cand
                if high[t] > ep:
                    ep = high[t]
                    af = min(af + af_step, af_max)
        else:
            cand = max(cand, high[t - 1], high[t - 2])
            if high[t] > cand:
                up = True
                sar[t] = ep
                ep = high[t]
                af = af_start
            else:
                sar[t] = cand
                if low[t] < ep:
                    ep = low[t]
                    af = min(af + af_step, af_max)
        trend[t] = UP if up else DOWN

    return IndicatorSeries(sar, warmup_len=1), np.array(trend, dtype=np.int8)
