import functools
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quantroll.candles
from quantroll.candles import (
    _CHUNK_ROWS,
    _SLICE_CHARS,
    _lines,
    CSV_HEADER,
    CandleSeries,
    parse_candles_csv,
    serialize_candles_csv,
    validate_series,
)
from quantroll.errors import (
    DataError,
    DuplicateTimestamp,
    EmptyRange,
    MalformedRow,
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

    @pytest.mark.parametrize(
        "text, message",
        [("", "empty document: missing header"), (HEADER, "document contains a header but no data rows")],
        ids=["no-header", "header-only"],
    )
    def test_document_without_rows_rejected(self, text, message):
        with pytest.raises(MalformedRow, match=f"^{message}$"):
            parse_candles_csv(text, DAY)

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


def _three_rows(row, column, raw):
    """Three daily candles (file lines 2-4) with one field respelled."""
    rows = [[str(1700000000 + i * DAY), "100", "110", "90", "105", "5"] for i in range(3)]
    rows[row][column] = raw
    return HEADER + "".join(",".join(fields) + "\n" for fields in rows)


class TestCsvFields:
    """What one CSV field is read as, and the exact error for one that is refused."""

    @pytest.mark.parametrize(
        "column, raw, value",
        [(1, "100.5", 100.5), (5, " 2.5", 2.5), (0, "1700172800.0", 1700172800), (3, "99", 99.0), (4, "1e2", 100.0)],
        ids=["decimal-price", "padded-volume", "float-form-timestamp", "int-price", "exponent-close"],
    )
    def test_spelling_read_as_number(self, column, raw, value):
        series = parse_candles_csv(_three_rows(2, column, raw), DAY)
        assert getattr(series, ("timestamps", *CSV_HEADER[1:])[column])[2] == value

    @pytest.mark.parametrize(
        "row, column, raw, error, message",
        [
            (0, 0, "1700000000.7", MalformedRow, "line 2: timestamp '1700000000.7' is not a whole number of seconds"),
            (0, 0, "True", MalformedRow, "line 2: timestamp 'True' is not numeric"),
            (0, 0, "-inf", MalformedRow, "line 2: timestamp '-inf' is not a whole number of seconds"),
            (0, 0, "-1e+20", MalformedRow, "line 2: timestamp '-1e+20' is outside the int64 range"),
            (2, 1, "True", MalformedRow, "line 4: open 'True' is not numeric"),
            (2, 2, "abc", MalformedRow, "line 4: high 'abc' is not numeric"),
            (2, 4, "None", MalformedRow, "line 4: close 'None' is not numeric"),
            (2, 5, "[1]", MalformedRow, "line 4: volume '[1]' is not numeric"),
            (2, 3, "1e400", MalformedRow,
             "values must be finite (line 4): open=100.0, high=110.0, low=inf, close=105.0, volume=5.0"),
            (2, 5, "nan", MalformedRow,
             "values must be finite (line 4): open=100.0, high=110.0, low=90.0, close=105.0, volume=nan"),
            (2, 1, "0", NonPositivePrice,
             "prices must be > 0 (line 4): open=0.0, high=110.0, low=90.0, close=105.0, volume=5.0"),
            (2, 5, "-1", MalformedRow,
             "volume must be >= 0 (line 4): open=100.0, high=110.0, low=90.0, close=105.0, volume=-1.0"),
            (2, 2, "45", OhlcViolation, "low > high (line 4): open=100.0, high=45.0, low=90.0, close=105.0, volume=5.0"),
            (2, 4, "220", OhlcViolation,
             "open/close outside [low, high] (line 4): open=100.0, high=110.0, low=90.0, close=220.0, volume=5.0"),
            (1, 2, "inf", MalformedRow,
             "values must be finite (line 3): open=100.0, high=inf, low=90.0, close=105.0, volume=5.0"),
        ],
        ids=["fractional-timestamp", "bool-timestamp", "infinite-timestamp", "float-timestamp-below-int64",
             "bool-open", "string-high", "null-close", "list-volume", "overflowing-low", "non-finite",
             "non-positive", "negative-volume", "low-above-high", "close-outside", "inf-high"],
    )
    def test_refused_field_message(self, row, column, raw, error, message):
        with pytest.raises(error) as raised:
            parse_candles_csv(_three_rows(row, column, raw), DAY)
        assert str(raised.value) == message


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
