import math

import numpy as np
import pytest

from quantroll.dataset import (
    FEATURE_NAMES,
    FeatureFrame,
    LabeledDataset,
    SegmentSplit,
    build_features,
    label,
    log_diff,
    split,
)
from quantroll.errors import EmptySegment, LengthMismatch, SeriesTooShort
from quantroll.indicators import IndicatorConfig

from .conftest import DAY, T0, bars_to_series, random_walk_bars
from .reference import (
    ref_acc_dist,
    ref_bollinger,
    ref_keltner_width,
    ref_log_returns,
    ref_mfi,
    ref_parabolic_sar,
)


def constant_bars(n, price=100.0, volume=5.0):
    return [(price, price, price, price, volume)] * n


class TestLogDiff:
    def test_constant_price(self):
        out = log_diff(bars_to_series(constant_bars(5)))
        assert np.isnan(out[0])
        np.testing.assert_allclose(out[1:], 0.0)

    def test_doubling(self):
        bars = [(p, p * 1.01, p * 0.99, p, 1.0) for p in (1.0, 2.0, 4.0, 8.0)]
        out = log_diff(bars_to_series(bars))
        np.testing.assert_allclose(out[1:], math.log(2.0), rtol=1e-12)

    def test_hand_value(self):
        bars = [(100, 101, 99, 100, 1.0), (100, 106, 99, 105, 1.0)]
        out = log_diff(bars_to_series(bars))
        assert out[1] == pytest.approx(math.log(1.05), abs=1e-12)

    def test_too_short(self):
        with pytest.raises(SeriesTooShort):
            log_diff(bars_to_series(constant_bars(1)))


def ref_feature_frame(bars, config):
    """Compose the indicator oracles into the expected feature matrix."""
    n = len(bars)
    logret = ref_log_returns([c for _o, _h, _l, c, _v in bars])
    ad = ref_acc_dist(bars)
    mfi_vals = ref_mfi(bars, config.mfi_period)
    _mid, up, lo, bw = ref_bollinger(bars, config.bb_period, config.bb_k)
    kc = ref_keltner_width(bars, config.kc_ema_period, config.kc_atr_period, config.kc_mult)
    sar, _trend, _flips = ref_parabolic_sar(bars, config.sar_af_start, config.sar_af_step, config.sar_af_max)
    volumes = [v for _o, _h, _l, _c, v in bars]
    closes = [c for _o, _h, _l, c, _v in bars]

    rows = []
    for t in range(n):
        if t >= max(1, config.bb_period - 1):
            vol_mean = sum(volumes[t - config.bb_period + 1 : t + 1]) / config.bb_period
            ad_diff = (ad[t] - ad[t - 1]) / vol_mean if vol_mean > 0 else 0.0
        else:
            ad_diff = float("nan")
        span = up[t] - lo[t]
        if math.isnan(span):
            pb = float("nan")
        elif span > 0:
            pb = (closes[t] - lo[t]) / span
        else:
            pb = 0.5
        side = float("nan") if math.isnan(sar[t]) else (1.0 if closes[t] > sar[t] else -1.0)
        rows.append([logret[t], ad_diff, mfi_vals[t] / 100.0, pb, bw[t], kc[t], side])
    return rows


class TestBuildFeatures:
    def test_schema(self, fixture_40):
        frame = build_features(fixture_40, IndicatorConfig())
        assert frame.feature_names == FEATURE_NAMES
        assert len(frame.feature_names) == 7
        assert frame.rows.shape == (40, 7)
        assert frame.valid_from == 20
        assert np.isfinite(frame.rows[frame.valid_from:]).all()

    def test_flat_market_neutral_values(self):
        frame = build_features(bars_to_series(constant_bars(30)), IndicatorConfig())
        row = frame.rows[frame.valid_from]
        named = dict(zip(frame.feature_names, row))
        assert named["logret"] == 0.0
        assert named["mfi"] == 0.5
        assert named["bb_percent_b"] == 0.5
        assert named["bb_bandwidth"] == 0.0
        assert named["kc_width"] == 0.0

    def test_matches_composed_reference(self, fixture_40):
        config = IndicatorConfig()
        frame = build_features(fixture_40, config)
        bars = [
            (float(fixture_40.open[i]), float(fixture_40.high[i]), float(fixture_40.low[i]),
             float(fixture_40.close[i]), float(fixture_40.volume[i]))
            for i in range(len(fixture_40))
        ]
        expected = np.array(ref_feature_frame(bars, config), dtype=np.float64)
        np.testing.assert_allclose(
            frame.rows[frame.valid_from:], expected[frame.valid_from:], rtol=0, atol=1e-9
        )

    def test_too_short(self):
        with pytest.raises(SeriesTooShort):
            build_features(bars_to_series(constant_bars(15)), IndicatorConfig())

    def test_no_lookahead_prefix_stability(self, fixture_40):
        config = IndicatorConfig()
        full = build_features(fixture_40, config)
        for t in (25, 30, 39):
            prefix_series = bars_to_series(
                [
                    (float(fixture_40.open[i]), float(fixture_40.high[i]), float(fixture_40.low[i]),
                     float(fixture_40.close[i]), float(fixture_40.volume[i]))
                    for i in range(t + 1)
                ]
            )
            prefix = build_features(prefix_series, config)
            np.testing.assert_array_equal(prefix.rows[t], full.rows[t])


class TestLabel:
    def make(self, returns_after):
        """Build a dataset whose reg targets are the given next returns."""
        n = len(returns_after) + 1
        rows = np.zeros((n, 2))
        frame = FeatureFrame(("a", "b"), rows, np.arange(n, dtype=np.int64) * DAY + T0, 0)
        values = np.concatenate([[np.nan], returns_after])
        return label(frame, values)

    def test_sign_rule(self):
        ds = self.make([0.01, -0.02])
        assert list(ds.class_target[:2]) == [1, -1]
        assert ds.reg_target[0] == pytest.approx(0.01)
        assert ds.reg_target[1] == pytest.approx(-0.02)

    def test_zero_labels_down(self):
        ds = self.make([0.0, 0.01])
        assert ds.class_target[0] == -1

    def test_usable_ends_at_n_minus_2(self):
        for extra in (2, 5, 9):
            ds = self.make([0.01] * extra)
            assert ds.usable_range == (0, extra - 1)
            assert len(ds) == extra + 1

    def test_length_mismatch(self):
        frame = FeatureFrame(("a",), np.zeros((4, 1)), np.arange(4, dtype=np.int64), 0)
        with pytest.raises(LengthMismatch):
            label(frame, np.zeros(5))

    def test_locality_of_targets(self, fixture_40):
        series = fixture_40
        frame = build_features(series, IndicatorConfig())
        returns = log_diff(series)
        ds = label(frame, returns)
        t = 25
        mutated = returns.copy()
        mutated[t + 2 :] = 99.0
        ds2 = label(frame, mutated)
        assert ds2.class_target[t] == ds.class_target[t]
        assert ds2.reg_target[t] == ds.reg_target[t]


def toy_dataset(n=11):
    rows = np.arange(n * 2, dtype=np.float64).reshape(n, 2)
    frame = FeatureFrame(("a", "b"), rows, np.arange(n, dtype=np.int64) * DAY + T0, 0)
    class_target = np.zeros(n, dtype=np.int8)
    class_target[:-1] = 1
    reg_target = np.full(n, np.nan)
    reg_target[:-1] = 0.01
    return LabeledDataset(frame, class_target, reg_target, (0, n - 2))


class TestSplit:
    def test_6_2_2(self):
        ds = toy_dataset(11)  # 10 usable rows
        seg = SegmentSplit(
            train=(T0, T0 + 6 * DAY),
            backtest=(T0 + 6 * DAY, T0 + 8 * DAY),
            forward=(T0 + 8 * DAY, T0 + 10 * DAY),
        )
        train, back, fwd = split(ds, seg)
        assert (len(train), len(back), len(fwd)) == (6, 2, 2)

    def test_history_reachable_through_parent(self):
        ds = toy_dataset(11)
        seg = SegmentSplit(
            train=(T0, T0 + 7 * DAY),
            backtest=(T0 + 7 * DAY, T0 + 9 * DAY),
            forward=(T0 + 9 * DAY, T0 + 10 * DAY),
        )
        _, back, _ = split(ds, seg)
        first = int(back.indices[0])
        history = back.parent.frame.rows[first - 7 : first]
        assert history.shape == (7, 2)

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            SegmentSplit(train=(0, 10), backtest=(5, 15), forward=(15, 20))

    def test_unordered_rejected(self):
        with pytest.raises(ValueError):
            SegmentSplit(train=(10, 20), backtest=(0, 10), forward=(20, 30))

    def test_empty_segment(self):
        ds = toy_dataset(11)
        seg = SegmentSplit(
            train=(T0, T0 + 6 * DAY),
            backtest=(T0 + 6 * DAY, T0 + 8 * DAY),
            forward=(T0 + 100 * DAY, T0 + 102 * DAY),
        )
        with pytest.raises(EmptySegment):
            split(ds, seg)

    def test_partition_disjoint_and_complete(self):
        ds = toy_dataset(11)
        seg = SegmentSplit(
            train=(T0, T0 + 5 * DAY),
            backtest=(T0 + 5 * DAY, T0 + 8 * DAY),
            forward=(T0 + 8 * DAY, T0 + 30 * DAY),
        )
        views = split(ds, seg)
        all_indices = np.concatenate([v.indices for v in views])
        assert len(set(all_indices.tolist())) == all_indices.size
        in_ranges = [
            t
            for t in ds.usable_indices()
            if any(lo <= ds.timestamps[t] < hi for lo, hi in (seg.train, seg.backtest, seg.forward))
        ]
        assert sorted(all_indices.tolist()) == in_ranges

    def test_csv_export_shape(self, fixture_40):
        ds = label(build_features(fixture_40, IndicatorConfig()), log_diff(fixture_40))
        text = ds.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "timestamp," + ",".join(FEATURE_NAMES) + ",class_target,reg_target"
        assert len(lines) == 1 + (ds.usable_range[1] - ds.usable_range[0] + 1)
        assert lines[1].split(",")[8] in ("up", "down")
