import functools
import io
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quantroll.candles
from quantroll.candles import (
    _CHUNK_ROWS,
    _SLICE_CHARS,
    _lines,
    CandleSeries,
    FetchConfig,
    fetch_candles,
    parse_candles_csv,
    serialize_candles_csv,
    validate_series,
)
from quantroll.errors import (
    DataError,
    DuplicateTimestamp,
    EmptyRange,
    MalformedPayload,
    MalformedRow,
    NetworkError,
    NonPositivePrice,
    OhlcViolation,
)

from .conftest import DAY, bars_to_series, random_walk_bars
from .reference import ref_parse_candles_csv

HEADER = "timestamp,open,high,low,close,volume\n"


class TestParseCsv:
    def test_single_row(self):
        series = parse_candles_csv(HEADER + "1700000000,100,110,90,105,5.0\n", DAY)
        assert len(series) == 1
        assert series.close[0] == 105.0
        assert series.timestamps[0] == 1700000000

    def test_out_of_order_rows_sorted(self):
        text = HEADER + "1700086400,101,111,91,106,5\n1700000000,100,110,90,105,5\n"
        series = parse_candles_csv(text, DAY)
        assert len(series) == 2
        assert list(series.timestamps) == [1700000000, 1700086400]

    def test_ohlc_violation_reports_line(self):
        text = HEADER + "1700000000,100,110,90,105,5\n1700086400,95,90,100,95,5\n"
        with pytest.raises(OhlcViolation, match="line 3"):
            parse_candles_csv(text, DAY)

    def test_duplicate_timestamp_rejected(self):
        text = HEADER + "1700000000,100,110,90,105,5\n1700000000,100,110,90,104,5\n"
        with pytest.raises(DuplicateTimestamp):
            parse_candles_csv(text, DAY)

    def test_non_positive_price_rejected(self):
        text = HEADER + "1700000000,0,110,0,105,5\n"
        with pytest.raises(NonPositivePrice):
            parse_candles_csv(text, DAY)

    def test_negative_volume_rejected(self):
        text = HEADER + "1700000000,100,110,90,105,-1\n"
        with pytest.raises(MalformedRow):
            parse_candles_csv(text, DAY)

    def test_malformed_field_reports_line(self):
        text = HEADER + "1700000000,100,110,90,abc,5\n"
        with pytest.raises(MalformedRow, match="line 2"):
            parse_candles_csv(text, DAY)

    def test_bad_header(self):
        with pytest.raises(MalformedRow):
            parse_candles_csv("time,o,h,l,c,v\n1,2,3,4,5,6\n", DAY)

    def test_crlf_accepted(self):
        text = HEADER.replace("\n", "\r\n") + "1700000000,100,110,90,105,5\r\n"
        assert len(parse_candles_csv(text, DAY)) == 1

    @pytest.mark.parametrize("stamp", ["99999999999999999999", "-9223372036854775809", "1e20"], ids=["int-above", "int-below", "float-above"])
    def test_timestamp_outside_int64(self, stamp):
        text = HEADER + "1700000000,100,110,90,105,5\n" + f"{stamp},100,110,90,105,5\n"
        with pytest.raises(MalformedRow, match=rf"^line 3: timestamp '{stamp}' is outside the int64 range"):
            parse_candles_csv(text, DAY)

    def test_error_names_file_line_not_sorted_position(self):
        # Line 4 holds the earliest timestamp, so it sorts first; line 5 breaks a rule too.
        text = HEADER + (
            "1700086400,100,110,90,105,5\n"
            "1700172800,100,110,90,105,5\n"
            "1700000000,95,90,100,95,5\n"
            "1700259200,100,110,90,105,-1\n"
        )
        with pytest.raises(OhlcViolation, match=r"^low > high \(line 4\)"):
            parse_candles_csv(text, DAY)

    @pytest.mark.parametrize(
        "row, error, rule",
        [
            ("0,110,90,105,nan", MalformedRow, "values must be finite"),
            ("0,90,100,95,5", NonPositivePrice, "prices must be > 0"),
            ("95,90,100,95,-1", MalformedRow, "volume must be >= 0"),
            ("95,90,100,120,5", OhlcViolation, "low > high"),
        ],
        ids=["finite-before-price", "price-before-ohlc", "volume-before-ohlc", "low-high-before-body"],
    )
    def test_row_with_two_violations_reports_first_rule(self, row, error, rule):
        text = HEADER + "1700000000,100,110,90,105,5\n" + f"1700086400,{row}\n"
        with pytest.raises(error) as raised:
            parse_candles_csv(text, DAY)
        assert str(raised.value).startswith(f"{rule} (line 3): ")

    def test_serialize_literal_bytes(self):
        series = CandleSeries(
            np.array([1700000000, 1700086400]),
            np.array([100.0, 0.1]),
            np.array([110.5, 0.30000000000000004]),
            np.array([90.0, 0.1]),
            np.array([105.25, 0.2]),
            np.array([0.0, 1e-07]),
            DAY,
        )
        assert serialize_candles_csv(series) == (
            "timestamp,open,high,low,close,volume\n"
            "1700000000,100.0,110.5,90.0,105.25,0.0\n"
            "1700086400,0.1,0.30000000000000004,0.1,0.2,1e-07\n"
        )

    def test_round_trip_identity(self, fixture_40):
        again = parse_candles_csv(serialize_candles_csv(fixture_40), fixture_40.interval)
        assert again == fixture_40
        assert serialize_candles_csv(again) == serialize_candles_csv(fixture_40)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=0.01, max_value=1e6, allow_nan=False), min_size=1, max_size=20), st.randoms())
def test_round_trip_property(closes, rnd):
    bars = []
    for c in closes:
        o = c * (1 + rnd.uniform(-0.01, 0.01))
        h = max(o, c) * (1 + rnd.uniform(0, 0.01))
        l = min(o, c) / (1 + rnd.uniform(0, 0.01))
        bars.append((o, h, l, c, rnd.uniform(0, 10)))
    series = bars_to_series(bars)
    assert parse_candles_csv(serialize_candles_csv(series), series.interval) == series


def messy_records(seed, n_rows):
    """CSV records (no header) of a seeded random walk, in shuffled order.

    Fields are spelled as bare, quoted, whitespace-padded or quoted and
    padded; about one timestamp in fifty is written in float form; blank
    and whitespace-only records are scattered in. Returns the records and
    the indices of the data records among them.
    """
    records, data = _messy_records(seed, n_rows)
    return list(records), data


@functools.lru_cache(maxsize=4)
def _messy_records(seed, n_rows):
    rng = np.random.default_rng(seed)
    series = bars_to_series(random_walk_bars(n_rows, seed=seed))
    columns = [series.timestamps.tolist()] + [getattr(series, c).tolist() for c in ("open", "high", "low", "close", "volume")]
    spellings = ("{}", '"{}"', " {}\t", '" {} "', "{} ")
    records, data = [], []
    for i in rng.permutation(n_rows).tolist():
        stamp = columns[0][i]
        fields = [str(stamp) if rng.random() >= 0.02 else (f"{stamp}.0", f"{stamp:.9e}", repr(float(stamp)))[rng.integers(3)]]
        fields += [repr(col[i]) for col in columns[1:]]
        data.append(len(records))
        records.append(",".join(spellings[rng.integers(len(spellings))].format(f) for f in fields))
        if rng.random() < 0.01:
            records.append(("", "   ", "\t")[rng.integers(3)])
    return tuple(records), tuple(data)


def csv_document(records, crlf=False, bom=False):
    newline = "\r\n" if crlf else "\n"
    return ("\ufeff" if bom else "") + newline.join(["timestamp,open,high,low,close,volume", *records]) + newline


def set_field(records, data, row, column, raw):
    fields = records[data[row]].split(",")
    fields[column] = raw
    records[data[row]] = ",".join(fields)


def assert_parse_parity(text):
    """The parser and the row-wise reference agree: byte-equal columns, or
    the same error type and message. Returns the reference's outcome."""
    outcomes = []
    for parse in (parse_candles_csv, ref_parse_candles_csv):
        try:
            outcomes.append(parse(text, DAY))
        except DataError as exc:
            outcomes.append(exc)
    got, want = outcomes
    if isinstance(want, DataError):
        assert (type(got), str(got)) == (type(want), str(want))
    else:
        assert isinstance(got, CandleSeries) and got.interval == want.interval
        for name in ("timestamps", "open", "high", "low", "close", "volume"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    return want


class TestParseMatchesRowWiseReference:
    @pytest.mark.parametrize("seed", range(4))
    def test_messy_documents_longer_than_a_chunk(self, seed):
        records, _ = messy_records(seed, 2 * _CHUNK_ROWS + 37 * seed + 1)
        text = csv_document(records, crlf=seed % 2 == 1, bom=seed >= 2)
        assert len(assert_parse_parity(text)) == 2 * _CHUNK_ROWS + 37 * seed + 1

    def test_float_form_timestamps(self):
        text = HEADER + (
            "1356998400.0,100,110,90,105,5\n"
            "1.3570848e9,100,110,90,105,5\n"
            "1_357_171_200,100,110,90,105,5\n"
            '" 1.3572576E+09 ",100,110,90,105,5\n'
        )
        series = assert_parse_parity(text)
        assert series.timestamps.tolist() == [1356998400 + i * DAY for i in range(4)]

    @pytest.mark.parametrize(
        "column, raw",
        [
            (0, "abc"), (0, ""), (0, "1356998400.5"), (0, "nan"), (0, "inf"), (0, "9223372036854775808"),
            (0, "-9223372036854775809"), (0, "1e19"), (0, "1_0"), (0, "0x10"),
            (1, "abc"), (2, ""), (3, "nan"), (4, "inf"), (5, "-inf"), (4, "1_0"), (5, "1e400"), (1, "0x10"),
            (3, "1,5"), (3, "1,2,3,4"), (0, '" 1356998400.5 "'), (2, " abc\t"), (5, '"nan "'),
        ],
    )
    @pytest.mark.parametrize("row", [_CHUNK_ROWS - 1, _CHUNK_ROWS, 2 * _CHUNK_ROWS + 5])
    def test_bad_field(self, column, raw, row):
        records, data = messy_records(5, 2 * _CHUNK_ROWS + 40)
        set_field(records, data, row, column, raw)
        outcome = assert_parse_parity(csv_document(records))
        if raw not in ("1_0", "1,5"):
            assert isinstance(outcome, DataError)

    @pytest.mark.parametrize(
        "first, second",
        [
            ((10, 5, "x"), (11, 0, "x")),
            ((10, 4, "x"), (12, 1, "x")),
            ((10, 3, "1.5.5"), (_CHUNK_ROWS + 3, 0, "1.5")),
            ((_CHUNK_ROWS - 1, 5, "x"), (_CHUNK_ROWS, 0, "99999999999999999999")),
            ((20, 2, "x"), (30, 2, "x,x")),
            ((20, 2, "x,x"), (30, 1, "x")),
            ((_CHUNK_ROWS + 7, 0, "1e99"), (2 * _CHUNK_ROWS, 5, "nan,")),
        ],
    )
    def test_first_bad_field_in_file_order_wins(self, first, second):
        records, data = messy_records(6, 2 * _CHUNK_ROWS + 40)
        for row, column, raw in (first, second):
            set_field(records, data, row, column, raw)
        outcome = assert_parse_parity(csv_document(records))
        assert isinstance(outcome, MalformedRow)
        assert str(outcome).startswith(f"line {data[first[0]] + 2}: ")


EDGE_ROWS = 2 * _SLICE_CHARS // 60  # records of about 60-110 characters: two slices or more


def document_with_newline_at(target, quoted, crlf, seed=7):
    """A CSV document of messy records whose first newline at or after index
    _SLICE_CHARS - 1, where the first slice's edge search starts, is at index
    `target`. That newline ends a record or lies inside a quoted timestamp
    field; spaces inside the field put it in place."""
    newline = "\r\n" if crlf else "\n"
    records, _ = messy_records(seed, EDGE_ROWS)
    text = "timestamp,open,high,low,close,volume" + newline
    i = 0
    while len(text) + 300 < target:
        text += records[i] + newline
        i += 1
    record = records[i].split(",", 1)
    stamp = record[0].strip().strip('"').strip()
    if quoted:  # '"' + pad + newline + stamp + '"' + "," + rest
        pad = target - len(text) - 1 - (len(newline) - 1)
        text += '"' + " " * pad + newline + stamp + '",' + record[1] + newline
    else:  # pad + stamp + "," + rest + newline
        row = stamp + "," + record[1]
        text += " " * (target - len(text) - len(row) - (len(newline) - 1)) + row + newline
    assert text[target] == "\n" and "\n" not in text[_SLICE_CHARS - 1 : target]
    return text + newline.join(records[i + 1 :]) + newline


class TestSliceEdges:
    """parse_candles_csv reads through slices that end just after a newline;
    the records must be those of one io.StringIO over the whole document."""

    @pytest.mark.parametrize("offset", [0, 1, 2, 57])
    @pytest.mark.parametrize("quoted", [False, True], ids=["record-end", "quoted-field"])
    @pytest.mark.parametrize("crlf", [False, True], ids=["lf", "crlf"])
    def test_edge_at_a_newline(self, offset, quoted, crlf):
        text = document_with_newline_at(_SLICE_CHARS - 1 + offset, quoted, crlf)
        assert len(text) > 2 * _SLICE_CHARS
        assert list(_lines(text)) == list(io.StringIO(text))
        assert len(assert_parse_parity(text)) == EDGE_ROWS

    @pytest.mark.parametrize("seed", range(40))
    def test_lines_match_one_stringio(self, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        text = "".join(rng.choice(["a", ",", '"', "\n", "\r", "\r\n", "\x0b", "\x85", "\u2028"], size=int(rng.integers(0, 200))))
        monkeypatch.setattr(quantroll.candles, "_SLICE_CHARS", int(rng.integers(1, 12)))
        assert list(_lines(text)) == list(io.StringIO(text))

    @pytest.mark.parametrize("slice_chars", [1, 2, 3, 7, 64, 1000])
    def test_small_slices_parse_like_the_reference(self, monkeypatch, slice_chars):
        records, _ = messy_records(3, 300)
        records[5] = '"' + records[5].replace(",", '\n",', 1)  # a newline inside a quoted timestamp
        monkeypatch.setattr(quantroll.candles, "_SLICE_CHARS", slice_chars)
        for crlf in (False, True):
            assert len(assert_parse_parity(csv_document(records, crlf=crlf))) == 300


class TestValidate:
    def test_clean_daily_series(self, fixture_40):
        assert validate_series(fixture_40).is_clean

    def test_single_candle_clean(self):
        series = bars_to_series([(100, 110, 90, 105, 5)])
        assert validate_series(series).is_clean

    def test_missing_day_reported(self):
        bars = random_walk_bars(5, seed=1)
        series = bars_to_series(bars)
        ts = series.timestamps.copy()
        ts[3:] += DAY  # open a one-day hole between index 2 and 3
        gapped = CandleSeries(ts, series.open, series.high, series.low, series.close, series.volume, DAY)
        report = validate_series(gapped)
        assert len(report.findings) == 1
        finding = report.findings[0]
        assert (finding.prev_timestamp, finding.next_timestamp) == (int(ts[2]), int(ts[3]))
        assert finding.gap == 2 * DAY

    def test_wide_and_narrow_gaps_reported_in_order(self):
        series = bars_to_series(random_walk_bars(6, seed=3))
        ts = series.timestamps.copy()
        ts[2:] += 2 * DAY  # wide: three intervals between index 1 and 2
        ts[4:] -= DAY // 2  # narrow: half an interval between index 3 and 4
        gapped = CandleSeries(ts, series.open, series.high, series.low, series.close, series.volume, DAY)
        findings = validate_series(gapped).findings
        assert [(f.index, f.prev_timestamp, f.next_timestamp, f.gap) for f in findings] == [
            (2, int(ts[1]), int(ts[2]), 3 * DAY),
            (4, int(ts[3]), int(ts[4]), DAY // 2),
        ]


class TestSeriesInvariants:
    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            bars = random_walk_bars(3, seed=2)
            series = bars_to_series(bars)
            CandleSeries(series.timestamps[::-1].copy(), series.open, series.high,
                         series.low, series.close, series.volume, DAY)

    @pytest.mark.parametrize("column, value", [(4, float("nan")), (1, float("inf"))], ids=["nan-volume", "inf-high"])
    def test_rejects_non_finite_value(self, column, value):
        cols = np.array(random_walk_bars(3, seed=2)).T
        cols[column, 1] = value
        with pytest.raises(MalformedRow, match=r"^values must be finite \(index 1\)"):
            CandleSeries(np.arange(3) * DAY, *cols, DAY)

    def test_rejects_empty(self):
        with pytest.raises(EmptyRange):
            CandleSeries(np.array([], dtype=np.int64), np.array([]), np.array([]),
                         np.array([]), np.array([]), np.array([]), DAY)


def _rows(n, t0=1700000000):
    out = []
    price = 100.0
    for i in range(n):
        o = price
        price = price * (1.0 + 0.001 * ((i % 5) - 2))
        h = max(o, price) * 1.01
        l = min(o, price) * 0.99
        out.append([t0 + i * DAY, o, h, l, price, 2.5])
    return out


def _config(stub, page_limit=2, max_retries=3):
    return FetchConfig(
        base_url=stub.base_url,
        path_template="/candles?symbol={symbol}&interval={interval}&start={start}&end={end}&limit={limit}",
        page_limit=page_limit,
        max_retries=max_retries,
        retry_backoff=0.0,
    )


class TestFetch:
    def test_pages_concatenated(self, candle_stub):
        rows = _rows(6)
        candle_stub.reset()
        candle_stub.set_rows(rows)
        series = fetch_candles(_config(candle_stub), "BTC", DAY, rows[0][0], rows[-1][0] + DAY)
        assert len(series) == 6
        assert list(series.timestamps) == [r[0] for r in rows]
        assert candle_stub.server.state["requests"] >= 3  # 6 candles at 2 per page

    def test_retries_then_succeeds(self, candle_stub):
        rows = _rows(2)
        candle_stub.reset(fail_first=2)
        candle_stub.set_rows(rows)
        series = fetch_candles(_config(candle_stub, page_limit=10), "BTC", DAY, rows[0][0], rows[-1][0] + DAY)
        assert len(series) == 2

    def test_retries_exhausted(self, candle_stub):
        rows = _rows(2)
        candle_stub.reset(fail_first=10)
        candle_stub.set_rows(rows)
        with pytest.raises(NetworkError):
            fetch_candles(_config(candle_stub, max_retries=1), "BTC", DAY, rows[0][0], rows[-1][0] + DAY)

    def test_overlapping_pages_deduplicated(self, candle_stub):
        rows = _rows(6)
        candle_stub.reset(overlap=True)
        candle_stub.set_rows(rows)
        series = fetch_candles(_config(candle_stub), "BTC", DAY, rows[0][0], rows[-1][0] + DAY)
        assert len(series) == len({r[0] for r in rows})

    def test_server_overshoot_capped(self, candle_stub):
        rows = _rows(6)
        candle_stub.reset(overshoot=2)
        candle_stub.set_rows(rows)
        series = fetch_candles(_config(candle_stub), "BTC", DAY, rows[0][0], rows[-1][0] + DAY)
        assert len(series) == 6

    def test_empty_range(self, candle_stub):
        candle_stub.reset()
        candle_stub.set_rows([])
        with pytest.raises(EmptyRange):
            fetch_candles(_config(candle_stub), "BTC", DAY, 1700000000, 1700000000 + DAY)

    def test_start_after_end(self, candle_stub):
        with pytest.raises(EmptyRange):
            fetch_candles(_config(candle_stub), "BTC", DAY, 10, 10)

    def test_malformed_payload(self, candle_stub):
        candle_stub.reset()
        candle_stub.set_rows([[1700000000, 100, 110, 90]])  # 4 elements
        with pytest.raises(MalformedPayload):
            fetch_candles(_config(candle_stub), "BTC", DAY, 1700000000, 1700000000 + DAY)

    def test_ohlc_violation_in_page(self, candle_stub):
        rows = _rows(3)
        rows[1][2] = rows[1][3] * 0.5  # high below low
        candle_stub.reset()
        candle_stub.set_rows(rows)
        with pytest.raises(MalformedPayload):
            fetch_candles(_config(candle_stub, page_limit=10), "BTC", DAY, rows[0][0], rows[-1][0] + DAY)

    @pytest.mark.parametrize("column, value", [(5, float("nan")), (2, float("inf"))], ids=["nan-volume", "inf-high"])
    def test_non_finite_value_in_page(self, candle_stub, column, value):
        rows = _rows(3)
        rows[1][column] = value
        candle_stub.reset()
        candle_stub.set_rows(rows)
        with pytest.raises(MalformedPayload, match=rf"^values must be finite \(timestamp {rows[1][0]}\)"):
            fetch_candles(_config(candle_stub, page_limit=10), "BTC", DAY, rows[0][0], rows[-1][0] + DAY)

    def test_violation_outside_range_rejected(self, candle_stub):
        rows = _rows(4)
        rows[0][5] = -1.0  # before start; the stub repeats it at the head of the first page
        candle_stub.reset(overlap=True)
        candle_stub.set_rows(rows)
        with pytest.raises(MalformedPayload, match=rf"^volume must be >= 0 \(timestamp {rows[0][0]}\)"):
            fetch_candles(_config(candle_stub), "BTC", DAY, rows[1][0], rows[-1][0] + DAY)

    def test_infinite_timestamp_in_page(self, candle_stub):
        rows = _rows(3)
        rows[0][0] = float("-inf")  # sorts before start; the stub repeats it at the head of the first page
        candle_stub.reset(overlap=True)
        candle_stub.set_rows(rows)
        with pytest.raises(MalformedPayload, match=r"^page row 0: timestamp '-inf' is not a whole number of seconds$"):
            fetch_candles(_config(candle_stub), "BTC", DAY, rows[1][0], rows[-1][0] + DAY)

    @pytest.mark.parametrize("stamp", [-(1 << 63) - 1, -1e20], ids=["int-below", "float-below"])
    def test_timestamp_outside_int64_in_page(self, candle_stub, stamp):
        rows = _rows(3)
        rows[0][0] = stamp  # sorts before start; the stub repeats it at the head of the first page
        candle_stub.reset(overlap=True)
        candle_stub.set_rows(rows)
        with pytest.raises(MalformedPayload, match=rf"^page row 0: timestamp '{re.escape(str(stamp))}' is outside the int64 range$"):
            fetch_candles(_config(candle_stub), "BTC", DAY, rows[1][0], rows[-1][0] + DAY)

    def test_deterministic(self, candle_stub):
        rows = _rows(5)
        candle_stub.reset()
        candle_stub.set_rows(rows)
        a = fetch_candles(_config(candle_stub), "BTC", DAY, rows[0][0], rows[-1][0] + DAY)
        b = fetch_candles(_config(candle_stub), "BTC", DAY, rows[0][0], rows[-1][0] + DAY)
        assert a == b


def _csv(rows):
    return HEADER + "".join(",".join(map(repr, row)) + "\n" for row in rows)


class TestSourceParity:
    """CSV text and HTTP pages carrying the same rows give the same series and the same errors."""

    def test_same_rows_same_series(self, candle_stub):
        rows = _rows(6)
        candle_stub.reset()
        candle_stub.set_rows(rows)
        fetched = fetch_candles(_config(candle_stub), "BTC", DAY, rows[0][0], rows[-1][0] + DAY)
        assert fetched == parse_candles_csv(_csv(rows), DAY)

    @pytest.mark.parametrize(
        "column, value_of, error",
        [
            (5, lambda row: float("nan"), MalformedRow),
            (1, lambda row: 0.0, NonPositivePrice),
            (5, lambda row: -1.0, MalformedRow),
            (2, lambda row: row[3] * 0.5, OhlcViolation),
            (4, lambda row: row[2] * 2.0, OhlcViolation),
        ],
        ids=["non-finite", "non-positive", "negative-volume", "low-above-high", "close-outside"],
    )
    def test_broken_rule_named_alike(self, candle_stub, column, value_of, error):
        rows = _rows(4)
        rows[2][column] = value_of(rows[2])
        with pytest.raises(error, match=r" \(line 4\): ") as from_csv:
            parse_candles_csv(_csv(rows), DAY)
        candle_stub.reset()
        candle_stub.set_rows(rows)
        with pytest.raises(MalformedPayload) as from_http:
            fetch_candles(_config(candle_stub, page_limit=10), "BTC", DAY, rows[0][0], rows[-1][0] + DAY)
        assert str(from_http.value) == str(from_csv.value).replace("(line 4)", f"(timestamp {rows[2][0]})")

    @pytest.mark.parametrize(
        "column, value",
        [(1, "100.5"), (5, " 2.5"), (0, 1700172800.0), (3, 99), (4, "1e2")],
        ids=["string-price", "padded-string-volume", "float-form-timestamp", "int-price", "exponent-string-close"],
    )
    def test_same_fields_same_values(self, candle_stub, column, value):
        rows = _rows(4)
        rows[2][column] = value
        candle_stub.reset()
        candle_stub.set_rows(rows)
        fetched = fetch_candles(_config(candle_stub, page_limit=10), "BTC", DAY, rows[0][0], rows[-1][0] + DAY)
        assert fetched == parse_candles_csv(HEADER + "".join(",".join(map(str, row)) + "\n" for row in rows), DAY)

    @pytest.mark.parametrize(
        "row, column, value",
        [
            (0, 0, 1700000000.7), (0, 0, True), (0, 0, float("-inf")), (0, 0, -1e20), (0, 0, -(1 << 63) - 1),
            (2, 1, True), (2, 2, "abc"), (2, 4, None), (2, 5, [1]), (2, 3, "1e400"),
        ],
        ids=["fractional-timestamp", "bool-timestamp", "infinite-timestamp", "float-timestamp-below-int64",
             "int-timestamp-below-int64", "bool-open", "string-high", "null-close", "list-volume", "overflowing-low"],
    )
    def test_same_fields_same_error(self, candle_stub, row, column, value):
        """A field either side refuses gives one error text, up to the label
        naming its row: the file line, or for a conversion error the row's
        position in the page (`page row i`) and for a broken rule its timestamp."""
        rows = _rows(4)
        rows[row][column] = value
        with pytest.raises(MalformedRow) as from_csv:
            parse_candles_csv(HEADER + "".join(",".join(map(str, r)) + "\n" for r in rows), DAY)
        candle_stub.reset(overlap=True)  # row 0 comes back as page row 0, ahead of the rows in range
        candle_stub.set_rows(rows)
        with pytest.raises(MalformedPayload) as from_http:
            fetch_candles(_config(candle_stub, page_limit=10), "BTC", DAY, rows[1][0], rows[-1][0] + DAY)
        expected = str(from_csv.value).replace(f"line {row + 2}: ", f"page row {row}: ")
        expected = expected.replace(f"(line {row + 2})", f"(timestamp {rows[row][0]})")
        assert str(from_http.value) == expected
