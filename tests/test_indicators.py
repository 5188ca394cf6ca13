import math

import numpy as np
import pytest

from quantroll.errors import SeriesTooShort
from quantroll.indicators import (
    IndicatorConfig,
    acc_dist,
    bollinger,
    ema,
    keltner_width,
    mfi,
    parabolic_sar,
    sma,
    true_range,
    wilder_atr,
)

from .conftest import bars_to_series, random_walk_bars
from .reference import ref_acc_dist, ref_bollinger, ref_ema, ref_keltner_width, ref_mfi, ref_parabolic_sar, ref_wilder_atr


def constant_bars(n, price=100.0, volume=5.0):
    return [(price, price, price, price, volume)] * n


def assert_defined_close(values, warmup, expected, tol=1e-9):
    assert np.isnan(values[:warmup]).all()
    np.testing.assert_allclose(values[warmup:], expected[warmup:], rtol=0, atol=tol)


class TestAccDist:
    def test_first_bar_clv(self):
        series = bars_to_series([(100, 110, 90, 105, 5.0)])
        out = acc_dist(series)
        assert out.warmup_len == 0
        assert out.values[0] == pytest.approx(2.5, abs=1e-12)  # CLV (15-5)/20 = 0.5 times V 5

    def test_doji_contributes_nothing(self):
        series = bars_to_series([(100, 110, 90, 105, 5.0), (100, 100, 100, 100, 7.0)])
        out = acc_dist(series)
        assert out.values[1] == out.values[0]

    def test_zero_volume_contributes_nothing(self):
        series = bars_to_series([(100, 110, 90, 105, 5.0), (100, 112, 95, 101, 0.0)])
        out = acc_dist(series)
        assert out.values[1] == out.values[0]

    def test_matches_reference(self, fixture_40):
        bars = [
            (float(fixture_40.open[i]), float(fixture_40.high[i]), float(fixture_40.low[i]),
             float(fixture_40.close[i]), float(fixture_40.volume[i]))
            for i in range(len(fixture_40))
        ]
        np.testing.assert_allclose(acc_dist(fixture_40).values, ref_acc_dist(bars), rtol=0, atol=1e-9)

    def test_zero_volume_insertion_only_shifts(self):
        bars = random_walk_bars(20, seed=3)
        base = acc_dist(bars_to_series(bars)).values
        augmented = bars[:10] + [(100.0, 101.0, 99.0, 100.0, 0.0)] + bars[10:]
        shifted = acc_dist(bars_to_series(augmented)).values
        np.testing.assert_array_equal(shifted[:10], base[:10])
        assert shifted[10] == base[9]
        np.testing.assert_array_equal(shifted[11:], base[10:])


class TestMfi:
    def test_strictly_rising_is_100(self):
        bars = [(p, p + 1, p - 1, p, 5.0) for p in np.linspace(100, 130, 20)]
        out = mfi(bars_to_series(bars), 14)
        assert out.warmup_len == 14
        np.testing.assert_allclose(out.values[14:], 100.0)

    def test_strictly_falling_is_0(self):
        bars = [(p, p + 1, p - 1, p, 5.0) for p in np.linspace(130, 100, 20)]
        out = mfi(bars_to_series(bars), 14)
        np.testing.assert_allclose(out.values[14:], 0.0)

    def test_flat_window_reads_neutral(self):
        out = mfi(bars_to_series(constant_bars(20)), 14)
        np.testing.assert_allclose(out.values[14:], 50.0)

    def test_mixed_fixture_matches_reference(self):
        bars = random_walk_bars(15, seed=11)
        out = mfi(bars_to_series(bars), 14)
        expected = ref_mfi(bars, 14)
        assert out.values[14] == pytest.approx(expected[14], abs=1e-9)

    def test_too_short(self):
        with pytest.raises(SeriesTooShort):
            mfi(bars_to_series(constant_bars(14)), 14)

    def test_bounds(self, fixture_40):
        out = mfi(fixture_40, 14)
        defined = out.values[out.warmup_len:]
        assert ((defined >= 0) & (defined <= 100)).all()


class TestBollinger:
    def test_constant_close(self):
        bands = bollinger(bars_to_series(constant_bars(25)), 20, 2.0)
        assert bands.middle.warmup_len == 19
        np.testing.assert_allclose(bands.middle.values[19:], 100.0)
        np.testing.assert_allclose(bands.upper.values[19:], 100.0)
        np.testing.assert_allclose(bands.lower.values[19:], 100.0)
        np.testing.assert_allclose(bands.bandwidth.values[19:], 0.0)

    def test_hand_computed_sigma(self):
        bars = [(c, c + 0.5, c - 0.5, c, 1.0) for c in (1.0, 2.0, 3.0, 4.0, 5.0)]
        bands = bollinger(bars_to_series(bars), 5, 2.0)
        assert bands.middle.values[4] == pytest.approx(3.0, abs=1e-12)
        assert bands.upper.values[4] == pytest.approx(3.0 + 2.0 * math.sqrt(2.0), abs=1e-12)
        assert bands.lower.values[4] == pytest.approx(3.0 - 2.0 * math.sqrt(2.0), abs=1e-12)

    def test_period_one(self, fixture_40):
        bands = bollinger(fixture_40, 1, 2.0)
        assert bands.middle.warmup_len == 0
        np.testing.assert_array_equal(bands.middle.values, fixture_40.close)
        np.testing.assert_allclose(bands.bandwidth.values, 0.0)

    def test_matches_reference(self, fixture_40):
        bars = [
            (float(fixture_40.open[i]), float(fixture_40.high[i]), float(fixture_40.low[i]),
             float(fixture_40.close[i]), float(fixture_40.volume[i]))
            for i in range(len(fixture_40))
        ]
        bands = bollinger(fixture_40, 20, 2.0)
        mid, up, lo, bw = ref_bollinger(bars, 20, 2.0)
        assert_defined_close(bands.middle.values, 19, np.array(mid))
        assert_defined_close(bands.upper.values, 19, np.array(up))
        assert_defined_close(bands.lower.values, 19, np.array(lo))
        assert_defined_close(bands.bandwidth.values, 19, np.array(bw))

    def test_ordering_invariant(self, fixture_40):
        bands = bollinger(fixture_40, 10, 1.5)
        w = bands.middle.warmup_len
        assert (bands.lower.values[w:] <= bands.middle.values[w:]).all()
        assert (bands.middle.values[w:] <= bands.upper.values[w:]).all()


class TestKeltner:
    def test_constant_candles_zero_width(self):
        out = keltner_width(bars_to_series(constant_bars(30)), 20, 10, 2.0)
        assert out.warmup_len == 20
        np.testing.assert_allclose(out.values[20:], 0.0)

    def test_matches_reference(self):
        bars = random_walk_bars(25, seed=19)
        out = keltner_width(bars_to_series(bars), 20, 10, 2.0)
        expected = ref_keltner_width(bars, 20, 10, 2.0)
        assert out.values[20] == pytest.approx(expected[20], abs=1e-9)
        assert_defined_close(out.values, 20, np.array(expected))

    def test_mult_linearity(self, fixture_40):
        one = keltner_width(fixture_40, 10, 5, 1.0)
        two = keltner_width(fixture_40, 10, 5, 2.0)
        np.testing.assert_allclose(two.values[two.warmup_len:], 2.0 * one.values[one.warmup_len:], rtol=1e-12)

    def test_non_negative(self, fixture_40):
        out = keltner_width(fixture_40, 20, 10, 2.0)
        assert (out.values[out.warmup_len:] >= 0).all()

    def test_too_short(self):
        with pytest.raises(SeriesTooShort):
            keltner_width(bars_to_series(constant_bars(20)), 20, 10, 2.0)


def rising_bars(n, step=2.0):
    return [(100.0 + step * i, 101.0 + step * i, 99.0 + step * i, 100.5 + step * i, 5.0) for i in range(n)]


class TestParabolicSar:
    def test_two_rising_bars_initialization(self):
        series = bars_to_series(rising_bars(2))
        sar, trend = parabolic_sar(series)
        assert sar.warmup_len == 1
        assert np.isnan(sar.values[0])
        assert sar.values[1] == series.low[0]
        assert trend[1] == 1

    def test_monotone_rising_never_flips(self):
        series = bars_to_series(rising_bars(30))
        sar, trend = parabolic_sar(series)
        assert (trend[1:] == 1).all()
        assert (sar.values[1:] < series.low[1:]).all()

    @staticmethod
    def assert_matches_reference_bytes(bars, min_flips):
        sar, trend = parabolic_sar(bars_to_series(bars), 0.02, 0.02, 0.2)
        ref_sar, ref_trend, flips = ref_parabolic_sar(bars, 0.02, 0.02, 0.2)
        assert len(flips) >= min_flips
        assert sar.values.dtype == np.float64 and sar.values.tobytes() == np.array(ref_sar).tobytes()
        assert trend.dtype == np.int8 and trend.tobytes() == np.array(ref_trend, dtype=np.int8).tobytes()

    def test_reversal_fixture_matches_reference(self):
        # six rising bars, then a crash through every prior low, then recovery
        closes = [100, 103, 106, 109, 112, 115, 96, 93, 95, 97, 99, 101]
        bars = []
        prev = closes[0]
        for c in closes:
            o = prev
            h = max(o, c) + 1.0
            l = min(o, c) - 1.0
            bars.append((float(o), float(h), float(l), float(c), 5.0))
            prev = c
        self.assert_matches_reference_bytes(bars, min_flips=1)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_walk_matches_reference(self, seed):
        bars = random_walk_bars(500, seed=seed)
        assert any(o == h == l == c for o, h, l, c, _v in bars)  # doji bars
        self.assert_matches_reference_bytes(bars, min_flips=10)

    def test_tie_on_first_move_is_up(self):
        series = bars_to_series([(100, 101, 99, 100, 5.0), (100, 101, 99, 100, 5.0), (100, 101, 99, 100, 5.0)])
        _, trend = parabolic_sar(series)
        assert trend[1] == 1

    def test_too_short(self):
        with pytest.raises(SeriesTooShort):
            parabolic_sar(bars_to_series(constant_bars(1)))


class TestPriceScaleProperties:
    """Scaling all prices by a power of two is exact in IEEE arithmetic, so
    these invariances can be asserted bit-for-bit at s=2 and loosely at s=3."""

    @staticmethod
    def scaled(series, s, volume_div=1.0):
        return bars_to_series(
            [
                (float(series.open[i]) * s, float(series.high[i]) * s, float(series.low[i]) * s,
                 float(series.close[i]) * s, float(series.volume[i]) / volume_div)
                for i in range(len(series))
            ]
        )

    def test_mfi_money_flow_invariance_exact(self, fixture_40):
        base = mfi(fixture_40, 14).values
        scaled = mfi(self.scaled(fixture_40, 2.0, volume_div=2.0), 14).values
        np.testing.assert_array_equal(scaled[14:], base[14:])

    def test_mfi_money_flow_invariance_loose(self, fixture_40):
        base = mfi(fixture_40, 14).values
        scaled = mfi(self.scaled(fixture_40, 3.0, volume_div=3.0), 14).values
        np.testing.assert_allclose(scaled[14:], base[14:], rtol=1e-9)

    def test_bandwidth_scale_invariant(self, fixture_40):
        base = bollinger(fixture_40, 20, 2.0).bandwidth.values
        scaled = bollinger(self.scaled(fixture_40, 2.0), 20, 2.0).bandwidth.values
        np.testing.assert_array_equal(scaled[19:], base[19:])

    def test_keltner_scale_invariant(self, fixture_40):
        base = keltner_width(fixture_40, 20, 10, 2.0).values
        scaled = keltner_width(self.scaled(fixture_40, 2.0), 20, 10, 2.0).values
        np.testing.assert_array_equal(scaled[20:], base[20:])

    def test_sar_scales_exactly(self, fixture_40):
        base = parabolic_sar(fixture_40)[0].values
        scaled = parabolic_sar(self.scaled(fixture_40, 2.0))[0].values
        np.testing.assert_array_equal(scaled[1:], 2.0 * base[1:])


class TestSharedContracts:
    @pytest.mark.parametrize("period", [1, 5, 20])
    def test_sma_matches_loop(self, fixture_40, period):
        out = sma(fixture_40.close, period)
        for t in range(period - 1, 40):
            assert out[t] == pytest.approx(float(np.mean(fixture_40.close[t - period + 1 : t + 1])), abs=1e-12)

    def test_ema_seeded_with_sma(self, fixture_40):
        out = ema(fixture_40.close, 10)
        assert out[9] == pytest.approx(float(fixture_40.close[:10].mean()), abs=1e-12)
        assert np.isnan(out[:9]).all()

    def test_ema_and_atr_bytes_match_numpy_scalar_loops(self):
        """Lengths 20-3000, magnitudes 1e-8-1e8, periods 1-18: the Python-float
        recurrences give the bytes of the float64-scalar loops."""
        for seed in range(50):
            rng = np.random.default_rng(seed)
            n, period = int(rng.integers(20, 3001)), int(rng.integers(1, 19))
            close = 10.0 ** rng.uniform(-8, 8) * np.exp(np.cumsum(rng.normal(0.0, 0.02, n)))
            high = close * (1.0 + np.abs(rng.normal(0.0, 0.01, n)))
            low = close / (1.0 + np.abs(rng.normal(0.0, 0.01, n)))
            series = bars_to_series(list(zip(close, high, low, close, np.ones(n))))
            assert ema(close, period).tobytes() == ref_ema(close, period).tobytes(), seed
            assert wilder_atr(series, period).tobytes() == ref_wilder_atr(true_range(series), period).tobytes(), seed

    def test_true_range_first_index_nan(self, fixture_40):
        assert np.isnan(true_range(fixture_40)[0])

    def test_lengths_and_finiteness(self, fixture_40):
        config = IndicatorConfig()
        outputs = [
            acc_dist(fixture_40),
            mfi(fixture_40, config.mfi_period),
            bollinger(fixture_40, config.bb_period, config.bb_k).bandwidth,
            keltner_width(fixture_40, config.kc_ema_period, config.kc_atr_period, config.kc_mult),
            parabolic_sar(fixture_40)[0],
        ]
        for out in outputs:
            assert len(out) == len(fixture_40)
            assert np.isfinite(out.values[out.warmup_len:]).all()

    def test_determinism(self, fixture_40):
        a = keltner_width(fixture_40, 20, 10, 2.0).values
        b = keltner_width(fixture_40, 20, 10, 2.0).values
        np.testing.assert_array_equal(a, b)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            IndicatorConfig(mfi_period=0)
        with pytest.raises(ValueError):
            IndicatorConfig(sar_af_start=0.5, sar_af_max=0.2)
