"""OHLCV candle acquisition: CSV parsing, gap validation, paged HTTP fetching."""
from __future__ import annotations

import csv
import io
import logging
import time
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np
import requests

from .errors import (
    DuplicateTimestamp,
    EmptyRange,
    MalformedPayload,
    MalformedRow,
    NetworkError,
    NonPositivePrice,
    OhlcViolation,
)

logger = logging.getLogger(__name__)

CSV_HEADER = ("timestamp", "open", "high", "low", "close", "volume")


@dataclass(frozen=True)
class Candle:
    """One OHLCV observation; timestamp is epoch seconds UTC."""

    timestamp: int
    open: float
    high: float
    low: float
    close: float
    volume: float

    def check(self, context: str = "") -> None:
        where = f" ({context})" if context else ""
        if not all(p > 0 for p in (self.open, self.high, self.low, self.close)):
            raise NonPositivePrice(f"prices must be > 0{where}: {self}")
        if self.volume < 0:
            raise MalformedRow(f"volume must be >= 0{where}: {self}")
        if self.low > self.high:
            raise OhlcViolation(f"low > high{where}: {self}")
        if self.low > min(self.open, self.close) or self.high < max(self.open, self.close):
            raise OhlcViolation(f"open/close outside [low, high]{where}: {self}")


@dataclass
class CandleSeries:
    """Column-oriented candle series with a fixed nominal interval (seconds).

    Timestamps are strictly increasing but may contain holes; run
    validate_series to locate them before feeding walk-forward code that
    assumes uniform spacing.
    """

    timestamps: np.ndarray
    open: np.ndarray
    high: np.ndarray
    low: np.ndarray
    close: np.ndarray
    volume: np.ndarray
    interval: int

    def __post_init__(self) -> None:
        self.timestamps = np.asarray(self.timestamps, dtype=np.int64)
        for name in ("open", "high", "low", "close", "volume"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        n = self.timestamps.size
        if n == 0:
            raise EmptyRange("candle series must contain at least one candle")
        if self.interval < 1:
            raise ValueError("interval must be >= 1 second")
        for name in ("open", "high", "low", "close", "volume"):
            if getattr(self, name).size != n:
                raise ValueError("all candle columns must share one length")
        gaps = np.diff(self.timestamps)
        if np.any(gaps == 0):
            ts = int(self.timestamps[np.nonzero(gaps == 0)[0][0]])
            raise DuplicateTimestamp(f"duplicate timestamp {ts}")
        if np.any(gaps < 0):
            raise ValueError("timestamps must be strictly increasing")
        if np.any(self.open <= 0) or np.any(self.high <= 0) or np.any(self.low <= 0) or np.any(self.close <= 0):
            raise NonPositivePrice("all prices must be > 0")
        if np.any(self.volume < 0):
            raise MalformedRow("volumes must be >= 0")
        if np.any(self.low > self.high):
            raise OhlcViolation("low > high")
        body_low = np.minimum(self.open, self.close)
        body_high = np.maximum(self.open, self.close)
        if np.any(self.low > body_low) or np.any(self.high < body_high):
            raise OhlcViolation("open/close outside [low, high]")

    def __len__(self) -> int:
        return int(self.timestamps.size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CandleSeries):
            return NotImplemented
        return self.interval == other.interval and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in ("timestamps", "open", "high", "low", "close", "volume")
        )

    def candle(self, i: int) -> Candle:
        return Candle(
            int(self.timestamps[i]),
            float(self.open[i]),
            float(self.high[i]),
            float(self.low[i]),
            float(self.close[i]),
            float(self.volume[i]),
        )

    def __iter__(self) -> Iterator[Candle]:
        return (self.candle(i) for i in range(len(self)))


@dataclass(frozen=True)
class FetchConfig:
    """HTTP candle endpoint description.

    path_template is appended to base_url and may use the placeholders
    {symbol}, {interval}, {start}, {end} and {limit}.
    """

    base_url: str
    path_template: str
    page_limit: int = 1000
    max_retries: int = 3
    retry_backoff: float = 1.0

    def __post_init__(self) -> None:
        if self.page_limit < 1:
            raise ValueError("page_limit must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")


@dataclass(frozen=True)
class GapFinding:
    """One spacing violation: the gap between prev_timestamp and next_timestamp."""

    index: int
    prev_timestamp: int
    next_timestamp: int
    gap: int


@dataclass
class ValidationReport:
    findings: list[GapFinding] = field(default_factory=list)

    @property
    def is_clean(self) -> bool:
        return not self.findings


def _parse_price(raw: str, line_no: int, column: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise MalformedRow(f"line {line_no}: {column} {raw!r} is not numeric") from None
    if not np.isfinite(value):
        raise MalformedRow(f"line {line_no}: {column} must be finite, got {raw!r}")
    return value


def _parse_timestamp(raw: str, line_no: int) -> int:
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        value = float(raw)
    except ValueError:
        raise MalformedRow(f"line {line_no}: timestamp {raw!r} is not numeric") from None
    if not np.isfinite(value) or value != int(value):
        raise MalformedRow(f"line {line_no}: timestamp {raw!r} is not a whole number of seconds")
    return int(value)


def parse_candles_csv(text: str, interval: int) -> CandleSeries:
    """Parse `timestamp,open,high,low,close,volume` CSV into a sorted series.

    Rows may arrive in any order; the result is ascending by timestamp.
    Every row is validated before sorting so error messages carry the
    original line number.
    """
    reader = csv.reader(io.StringIO(text.lstrip("﻿")))
    try:
        header = next(reader)
    except StopIteration:
        raise MalformedRow("empty document: missing header") from None
    if tuple(h.strip().lower() for h in header) != CSV_HEADER:
        raise MalformedRow(f"header must be {','.join(CSV_HEADER)}, got {','.join(header)!r}")

    rows: list[Candle] = []
    for line_no, fields in enumerate(reader, start=2):
        if not fields or (len(fields) == 1 and not fields[0].strip()):
            continue  # tolerate trailing blank line
        if len(fields) != 6:
            raise MalformedRow(f"line {line_no}: expected 6 fields, got {len(fields)}")
        ts = _parse_timestamp(fields[0].strip(), line_no)
        o, h, l, c, v = (_parse_price(fields[i].strip(), line_no, CSV_HEADER[i]) for i in range(1, 6))
        candle = Candle(ts, o, h, l, c, v)
        candle.check(context=f"line {line_no}")
        rows.append(candle)

    if not rows:
        raise MalformedRow("document contains a header but no data rows")
    rows.sort(key=lambda r: r.timestamp)
    for prev, cur in zip(rows, rows[1:]):
        if prev.timestamp == cur.timestamp:
            raise DuplicateTimestamp(f"duplicate timestamp {cur.timestamp}")
    return _series_from_candles(rows, interval)


def serialize_candles_csv(series: CandleSeries) -> str:
    """Inverse of parse_candles_csv; floats use shortest round-trip form."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for c in series:
        writer.writerow([c.timestamp, repr(c.open), repr(c.high), repr(c.low), repr(c.close), repr(c.volume)])
    return out.getvalue()


def validate_series(series: CandleSeries) -> ValidationReport:
    """Report every index whose gap to the previous candle is not `interval`."""
    ts = series.timestamps
    gaps = np.diff(ts)
    bad = np.nonzero(gaps != series.interval)[0]
    return ValidationReport([GapFinding(int(i) + 1, int(ts[i]), int(ts[i + 1]), int(gaps[i])) for i in bad])


def _series_from_candles(rows: list[Candle], interval: int) -> CandleSeries:
    return CandleSeries(
        timestamps=np.array([r.timestamp for r in rows], dtype=np.int64),
        open=np.array([r.open for r in rows]),
        high=np.array([r.high for r in rows]),
        low=np.array([r.low for r in rows]),
        close=np.array([r.close for r in rows]),
        volume=np.array([r.volume for r in rows]),
        interval=interval,
    )


def _get_page(session: requests.Session, url: str, config: FetchConfig) -> list:
    last_error: Exception | None = None
    for attempt in range(config.max_retries + 1):
        if attempt:
            time.sleep(config.retry_backoff)
        try:
            resp = session.get(url, timeout=30)
        except requests.RequestException as exc:
            last_error = exc
            logger.warning("fetch attempt %d failed: %s", attempt + 1, exc)
            continue
        if resp.status_code != 200:
            last_error = NetworkError(f"HTTP {resp.status_code} from {url}")
            logger.warning("fetch attempt %d: HTTP %d", attempt + 1, resp.status_code)
            continue
        try:
            payload = resp.json()
        except ValueError as exc:
            raise MalformedPayload(f"response from {url} is not JSON: {exc}") from None
        if not isinstance(payload, list):
            raise MalformedPayload(f"expected a JSON array of candles, got {type(payload).__name__}")
        return payload
    raise NetworkError(f"giving up on {url} after {config.max_retries + 1} attempts: {last_error}")


def fetch_candles(
    config: FetchConfig,
    symbol: str,
    interval: int,
    start: int,
    end: int,
) -> CandleSeries:
    """Fetch candles for [start, end) by walking pages of at most page_limit.

    Pages are JSON arrays of [timestamp, open, high, low, close, volume]
    rows. Overlapping pages are deduplicated on timestamp; the merged result
    is validated exactly like CSV input.
    """
    if start >= end:
        raise EmptyRange(f"start {start} must precede end {end}")

    session = requests.Session()
    seen: dict[int, Candle] = {}
    cursor = start
    while cursor < end:
        url = config.base_url + config.path_template.format(
            symbol=symbol, interval=interval, start=cursor, end=end, limit=config.page_limit
        )
        payload = _get_page(session, url, config)
        if not payload:
            break
        page_max = cursor
        for row in payload[: config.page_limit]:
            if not isinstance(row, (list, tuple)) or len(row) != 6:
                raise MalformedPayload(f"candle row must have 6 elements, got {row!r}")
            try:
                candle = Candle(int(row[0]), *(float(x) for x in row[1:]))
            except (TypeError, ValueError) as exc:
                raise MalformedPayload(f"non-numeric candle row {row!r}: {exc}") from None
            try:
                candle.check(context=f"timestamp {candle.timestamp}")
            except (NonPositivePrice, OhlcViolation, MalformedRow) as exc:
                raise MalformedPayload(str(exc)) from None
            page_max = max(page_max, candle.timestamp)
            if candle.timestamp < start or candle.timestamp >= end:
                continue
            seen.setdefault(candle.timestamp, candle)
        next_cursor = page_max + interval
        if next_cursor <= cursor:
            break  # server made no progress; stop rather than loop forever
        cursor = next_cursor

    if not seen:
        raise EmptyRange(f"no candles returned for [{start}, {end})")
    rows = [seen[ts] for ts in sorted(seen)]
    logger.info("fetched %d candles for %s", len(rows), symbol)
    return _series_from_candles(rows, interval)
