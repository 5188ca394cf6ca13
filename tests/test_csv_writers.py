"""Every CSV the package writes goes through candles.csv_text; each caller's
bytes match the writer it used to keep for itself (tests/reference.py)."""
import numpy as np
import pytest

from quantroll import cli
from quantroll.candles import CandleSeries, csv_text, serialize_candles_csv
from quantroll.dataset import FEATURE_NAMES, FeatureFrame, LabeledDataset, build_features, label, log_diff
from quantroll.indicators import IndicatorConfig, acc_dist, bollinger, keltner_width, mfi, parabolic_sar
from quantroll.trading import EquityCurve

from .conftest import DAY, bars_to_series, random_walk_bars
from .reference import ref_candles_csv, ref_dataset_csv, ref_equity_csv, ref_indicator_csv

# Floats whose text a non-round-trip or non-repr format would change.
EDGES = np.array([-0.0, 0.0, 0.1 + 0.2, 1e-05, 1e16, -1234.5, 2.0 / 3.0, 5e-324])
SEEDS = range(12)


def with_edges(rng, values, share=0.3):
    values = values.copy()
    picks = rng.random(values.shape) < share
    values[picks] = rng.choice(EDGES, size=int(picks.sum()))
    return values


def stamps(rng, n):
    """n increasing int64 timestamps from a seeded start, negative or positive."""
    return int(rng.integers(-(1 << 40), 1 << 40)) + np.cumsum(rng.integers(1, 10**6, n))


def edge_candles(seed):
    """A seeded series of 1-40 valid bars, some prices and volumes edge values."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 41))
    ts = stamps(rng, n)
    draws = rng.lognormal(0.0, 3.0, (n, 4))
    picks = rng.random((n, 4)) < 0.3
    draws[picks] = rng.choice(np.abs(EDGES[EDGES > 0]), size=int(picks.sum()))
    low, body_a, body_b, high = np.sort(draws, axis=1).T
    flip = rng.random(n) < 0.5
    volume = with_edges(rng, rng.uniform(0.0, 50.0, n))
    volume = np.where(volume < 0, -0.0, volume)  # -0.0 passes the volume rule; -1234.5 would not
    return CandleSeries(ts, np.where(flip, body_a, body_b), high, low, np.where(flip, body_b, body_a), volume, DAY)


def test_csv_text_literal():
    assert csv_text(("a", "b"), ["1", "2"], ["x", "-0.0"]) == "a,b\n1,x\n2,-0.0\n"
    assert csv_text(("timestamp", "value"), [], []) == "timestamp,value\n"


@pytest.mark.parametrize("seed", SEEDS)
def test_candles_match_csv_writer(seed):
    series = edge_candles(seed)
    assert serialize_candles_csv(series).encode() == ref_candles_csv(series).encode()


@pytest.mark.parametrize("seed", SEEDS)
def test_features_match_csv_writer(seed):
    rng = np.random.default_rng(seed)
    series = bars_to_series(random_walk_bars(int(rng.integers(30, 80)), seed=seed))
    ds = label(build_features(series, IndicatorConfig()), log_diff(series))
    assert ds.to_csv().encode() == ref_dataset_csv(ds).encode()

    n = int(rng.integers(2, 30))
    frame = FeatureFrame(FEATURE_NAMES, with_edges(rng, rng.normal(size=(n, 7))), stamps(rng, n), 0)
    lo = int(rng.integers(0, n - 1))
    edged = LabeledDataset(
        frame, rng.choice(np.array([-1, 1], dtype=np.int8), n), with_edges(rng, rng.normal(size=n)), (lo, n - 2)
    )
    assert edged.to_csv().encode() == ref_dataset_csv(edged).encode()


@pytest.mark.parametrize("seed", SEEDS)
def test_equity_matches_format_writer(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 60))
    curve = EquityCurve(stamps(rng, n), with_edges(rng, rng.normal(size=n).cumsum()), np.zeros(n))
    assert curve.to_csv().encode() == ref_equity_csv(curve).encode()


INDICATORS = {
    "acc_dist": lambda s, c: acc_dist(s),
    "mfi": lambda s, c: mfi(s, c.mfi_period),
    "bb_bandwidth": lambda s, c: bollinger(s, c.bb_period, c.bb_k).bandwidth,
    "kc_width": lambda s, c: keltner_width(s, c.kc_ema_period, c.kc_atr_period, c.kc_mult),
    "parabolic_sar": lambda s, c: parabolic_sar(s, c.sar_af_start, c.sar_af_step, c.sar_af_max)[0],
}


@pytest.fixture(scope="module")
def cli_series(tmp_path_factory):
    series = bars_to_series(random_walk_bars(90, seed=44))
    path = tmp_path_factory.mktemp("csv") / "candles.csv"
    path.write_text(serialize_candles_csv(series), encoding="utf-8")
    return series, path


def test_cli_feature_frame_matches_csv_writer(cli_series, capsys):
    series, path = cli_series
    assert cli.main(["features", "--csv", str(path), "--interval", str(DAY)]) == 0
    ds = label(build_features(series, IndicatorConfig()), log_diff(series))
    assert capsys.readouterr().out.encode() == ref_dataset_csv(ds).encode()


@pytest.mark.parametrize("name", sorted(INDICATORS))
def test_cli_indicator_dump_matches_fstring_writer(cli_series, capsys, name):
    series, path = cli_series
    assert cli.main(["features", "--csv", str(path), "--interval", str(DAY), "--indicator", name]) == 0
    ind = INDICATORS[name](series, IndicatorConfig())
    assert capsys.readouterr().out.encode() == ref_indicator_csv(series, ind).encode()
