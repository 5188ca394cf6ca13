"""OHLCV candles: CSV parsing and serialization, candle rules, gap validation."""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import POSITIVE_INTEGER, DuplicateTimestamp, EmptyRange, MalformedRow, NonPositivePrice, OhlcViolation

CSV_HEADER = ("timestamp", "open", "high", "low", "close", "volume")
_INT64 = range(-(1 << 63), 1 << 63)  # timestamps are stored as int64
_CHUNK_ROWS = 2048  # CSV rows converted per batch; bounds the field strings alive at once
_SLICE_CHARS = 1 << 16  # text per io.StringIO fed to csv.reader; bounds the line buffer alive at once


def _check_rows(o, h, l, c, v, where: Callable[[int], str]) -> None:
    """Check candle columns against the candle rules; raise for the first bad row.

    Rules, in order: every value is finite; every price is > 0; volume is
    >= 0; low <= high; open and close lie inside [low, high]. The error is
    the first rule broken by the first bad row, and where(i) names that row
    (a file line or a series index). Every candle, parsed from CSV or
    built in memory, passes through here.
    """
    rules = (
        (~(np.isfinite(o) & np.isfinite(h) & np.isfinite(l) & np.isfinite(c) & np.isfinite(v)),
         MalformedRow, "values must be finite"),
        (~((o > 0) & (h > 0) & (l > 0) & (c > 0)), NonPositivePrice, "prices must be > 0"),
        (~(v >= 0), MalformedRow, "volume must be >= 0"),
        (l > h, OhlcViolation, "low > high"),
        ((o < l) | (o > h) | (c < l) | (c > h), OhlcViolation, "open/close outside [low, high]"),
    )
    bad = np.nonzero(np.logical_or.reduce([broken for broken, _, _ in rules]))[0]
    if bad.size:
        i = int(bad[0])
        error, text = next((error, text) for broken, error, text in rules if broken[i])
        values = ", ".join(f"{name}={float(col[i])!r}" for name, col in zip(CSV_HEADER[1:], (o, h, l, c, v)))
        raise error(f"{text} ({where(i)}): {values}")


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
        POSITIVE_INTEGER.check("interval", self.interval)
        for name in ("open", "high", "low", "close", "volume"):
            if getattr(self, name).size != n:
                raise ValueError("all candle columns must share one length")
        gaps = np.diff(self.timestamps)
        if np.any(gaps == 0):
            ts = int(self.timestamps[np.nonzero(gaps == 0)[0][0]])
            raise DuplicateTimestamp(f"duplicate timestamp {ts}")
        if np.any(gaps < 0):
            raise ValueError("timestamps must be strictly increasing")
        _check_rows(self.open, self.high, self.low, self.close, self.volume, lambda i: f"index {i}")

    def __len__(self) -> int:
        return int(self.timestamps.size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CandleSeries):
            return NotImplemented
        return self.interval == other.interval and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in ("timestamps", "open", "high", "low", "close", "volume")
        )


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


def _parse_price(raw: str, i: int, where: Callable[[int], str], column: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise MalformedRow(f"{where(i)}: {column} {raw!r} is not numeric") from None


def _parse_timestamp(raw: str, i: int, where: Callable[[int], str]) -> int:
    try:
        stamp = int(raw)
    except ValueError:
        try:
            value = float(raw)
        except ValueError:
            raise MalformedRow(f"{where(i)}: timestamp {raw!r} is not numeric") from None
        if not np.isfinite(value) or value != int(value):
            raise MalformedRow(f"{where(i)}: timestamp {raw!r} is not a whole number of seconds")
        stamp = int(value)
    if stamp not in _INT64:
        raise MalformedRow(f"{where(i)}: timestamp {raw!r} is outside the int64 range")
    return stamp


def _convert_rows(rows: list[list[str]], where: Callable[[int], str]) -> tuple[np.ndarray, np.ndarray]:
    """Timestamps and (5, n) open/high/low/close/volume columns of 6-field rows.

    Each column is converted whole by int or float. Those accept every
    integer timestamp and price string that _parse_timestamp and
    _parse_price accept, with the same value, since int(s) == int(s.strip())
    and float(s) == float(s.strip()). If a column fails, the rows are read
    again field by field in order through those parsers, so the first bad
    field raises their error, named by where(i) for its row i, and
    float-form timestamps still parse.
    """
    n = len(rows)
    columns = list(zip(*rows))
    try:
        stamps = np.fromiter(map(int, columns[0]), dtype=np.int64, count=n)
        values = np.array([np.fromiter(map(float, col), dtype=np.float64, count=n) for col in columns[1:]])
    except (ValueError, OverflowError):
        stamp_list: list[int] = []
        value_list: list[list[float]] = []
        for i, fields in enumerate(rows):
            stamp_list.append(_parse_timestamp(fields[0].strip(), i, where))
            value_list.append([_parse_price(fields[k].strip(), i, where, CSV_HEADER[k]) for k in range(1, 6)])
        stamps = np.array(stamp_list, dtype=np.int64)
        values = np.array(value_list, dtype=np.float64).T
    return stamps, values


def _lines(text: str):
    """The lines io.StringIO(text) yields, read through slices of about
    _SLICE_CHARS that each end just after a newline."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + _SLICE_CHARS - 1) + 1 or len(text)
        yield from io.StringIO(text[start:end])
        start = end


def parse_candles_csv(text: str, interval: int) -> CandleSeries:
    """Parse `timestamp,open,high,low,close,volume` CSV into a sorted series.

    Rows may arrive in any order; the result is ascending by timestamp.
    Every row is checked in file order before sorting, so error messages
    carry the original line number.
    """
    reader = csv.reader(_lines(text.lstrip("\ufeff")))
    try:
        header = next(reader)
    except StopIteration:
        raise MalformedRow("empty document: missing header") from None
    if tuple(h.strip().lower() for h in header) != CSV_HEADER:
        raise MalformedRow(f"header must be {','.join(CSV_HEADER)}, got {','.join(header)!r}")

    chunks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []  # (lines, stamps, values)
    rows: list[list[str]] = []
    lines: list[int] = []

    def convert() -> None:
        if rows:
            chunks.append((np.array(lines, dtype=np.int64), *_convert_rows(rows, lambda i: f"line {lines[i]}")))
            rows.clear()
            lines.clear()

    for line_no, fields in enumerate(reader, start=2):
        if not fields or (len(fields) == 1 and not fields[0].strip()):
            continue  # tolerate trailing blank line
        if len(fields) != 6:
            convert()  # a bad field on an earlier row is reported first
            raise MalformedRow(f"line {line_no}: expected 6 fields, got {len(fields)}")
        rows.append(fields)
        lines.append(line_no)
        if len(rows) == _CHUNK_ROWS:
            convert()
    convert()

    if not chunks:
        raise MalformedRow("document contains a header but no data rows")
    line_col, ts, columns = (np.concatenate(parts, axis=-1) for parts in zip(*chunks))
    _check_rows(*columns, lambda i: f"line {line_col[i]}")
    order = np.argsort(ts, kind="stable")
    return CandleSeries(ts[order], *columns.take(order, axis=1), interval=interval)


def csv_text(header, *columns) -> str:
    """The package's one CSV dialect: fields joined by ",", every line ended by "\n",
    nothing quoted. Columns hold formatted strings: ints by str, floats by repr."""
    return "\n".join([",".join(header), *map(",".join, zip(*columns)), ""])


def serialize_candles_csv(series: CandleSeries) -> str:
    """Inverse of parse_candles_csv; floats use shortest round-trip form."""
    prices = (map(repr, getattr(series, name).tolist()) for name in CSV_HEADER[1:])
    return csv_text(CSV_HEADER, map(str, series.timestamps.tolist()), *prices)


def validate_series(series: CandleSeries) -> ValidationReport:
    """Report every index whose gap to the previous candle is not `interval`."""
    ts = series.timestamps
    gaps = np.diff(ts)
    bad = np.nonzero(gaps != series.interval)[0]
    return ValidationReport([GapFinding(int(i) + 1, int(ts[i]), int(ts[i + 1]), int(gaps[i])) for i in bad])
