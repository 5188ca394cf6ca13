"""Shared fixtures: deterministic synthetic candle series."""
import math

import numpy as np
import pytest

from quantroll.candles import CandleSeries

DAY = 86400
T0 = 1356998400  # 2013-01-01T00:00:00Z


def bars_to_series(bars, interval=DAY, t0=T0):
    """bars: list of (o, h, l, c, v) tuples -> CandleSeries."""
    ts = np.arange(len(bars), dtype=np.int64) * interval + t0
    cols = np.array(bars, dtype=np.float64)
    return CandleSeries(ts, cols[:, 0], cols[:, 1], cols[:, 2], cols[:, 3], cols[:, 4], interval)


def series_to_bars(series):
    return [
        (float(series.open[i]), float(series.high[i]), float(series.low[i]), float(series.close[i]), float(series.volume[i]))
        for i in range(len(series))
    ]


def random_walk_bars(n, seed, start=100.0, vol=0.02, spread=0.01, base_volume=5.0):
    """Seeded random-walk OHLCV bars with occasional doji and zero-volume bars."""
    rng = np.random.default_rng(seed)
    bars = []
    close = start
    for i in range(n):
        o = close
        close = max(1.0, close * math.exp(rng.normal(0.0, vol)))
        if i % 17 == 5:  # flat doji bar: o = h = l = c
            o = close
            h = l = close
        else:
            h = max(o, close) * (1.0 + abs(rng.normal(0.0, spread)))
            l = min(o, close) / (1.0 + abs(rng.normal(0.0, spread)))
        v = 0.0 if i % 13 == 7 else base_volume * (1.0 + rng.random())
        bars.append((o, h, l, close, v))
    return bars


def trend_cycle_bars(n=400, drift=0.001, amp=0.06, period=20, start=120.0):
    """Deterministic drift + sinusoid market (log price = drift*t + amp*sin)."""
    bars = []
    prev_close = start * math.exp(amp * math.sin(0.0))
    for t in range(n):
        logp = drift * (t + 1) + amp * math.sin(2.0 * math.pi * (t + 1) / period)
        close = start * math.exp(logp)
        o = prev_close
        h = max(o, close) * 1.002
        l = min(o, close) * 0.998
        v = 5.0 + math.sin(2.0 * math.pi * t / 7.0) ** 2
        bars.append((o, h, l, close, v))
        prev_close = close
    return bars


MOMENTUM_CYCLE = (0.010, 0.014, 0.016, -0.011, -0.015, -0.013, 0.012, -0.017)


def momentum_bars(n=160, start=100.0):
    """Deterministic period-8 log-return cycle.

    Within each sign class, adjacent return magnitudes carry opposite
    next-move labels, so only the exact nearest neighbour (the same cycle
    phase one period back) predicts reliably: k=1 is optimal for KNN.
    """
    bars = []
    close = start
    for t in range(n):
        r = MOMENTUM_CYCLE[t % len(MOMENTUM_CYCLE)]
        o = close
        close = close * math.exp(r)
        h = max(o, close) * 1.001
        l = min(o, close) * 0.999
        bars.append((o, h, l, close, 5.0))
    return bars


@pytest.fixture(scope="session")
def fixture_40():
    return bars_to_series(random_walk_bars(40, seed=7))


@pytest.fixture(scope="session")
def trend_series():
    return bars_to_series(trend_cycle_bars(400))


@pytest.fixture(scope="session")
def momentum_series():
    return bars_to_series(momentum_bars(160))
