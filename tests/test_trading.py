import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantroll.errors import LengthMismatch
from quantroll.trading import EquityCurve, TradeLedger, pnl_percent, simulate

from .conftest import DAY, T0
from .reference import ref_simulate


def days(n):
    return np.arange(n, dtype=np.int64) * DAY + T0


def positions_of(values):
    """simulate's first two arguments: daily timestamps and int8 positions."""
    return days(len(values)), np.array(values, dtype=np.int8)


class TestSimulate:
    def test_long_two_steps_no_fee(self):
        curve, ledger = simulate(*positions_of([1, 1]), np.array([0.10, -0.05]))
        assert curve.equity[-1] == pytest.approx(0.05, abs=1e-15)
        assert ledger.count == 1

    def test_three_flips_at_ten_bps(self):
        curve, ledger = simulate(*positions_of([1, -1, 1]), np.zeros(3), fee_bps=10.0)
        assert curve.equity[-1] == pytest.approx(-0.003, abs=1e-15)
        assert ledger.count == 3

    def test_all_flat(self):
        curve, ledger = simulate(*positions_of([0, 0, 0]), np.array([0.1, -0.2, 0.3]))
        np.testing.assert_array_equal(curve.equity, 0.0)
        assert ledger.count == 0

    def test_entry_is_charged(self):
        curve, _ = simulate(*positions_of([1]), np.array([0.0]), fee_bps=25.0)
        assert curve.equity[0] == pytest.approx(-0.0025)

    def test_flip_is_one_fee(self):
        _, ledger = simulate(*positions_of([1, -1]), np.zeros(2), fee_bps=10.0)
        assert ledger.count == 2  # entry + one flip
        assert ledger.timestamps.tolist() == days(2).tolist()

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch, match="^2 positions vs 1 returns$"):
            simulate(*positions_of([1, 1]), np.array([0.1]))

    def test_positions_align_with_timestamps(self):
        with pytest.raises(LengthMismatch, match="^positions and timestamps must align$"):
            simulate(days(3), np.array([1, 1], dtype=np.int8), np.zeros(3))

    def test_ledger_holds_change_times(self):
        _, ledger = simulate(*positions_of([0, 1, 1, -1, 0, 0]), np.zeros(6))
        assert ledger.timestamps.tolist() == days(6)[[1, 3, 4]].tolist()

    def test_matches_reference(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            pos = rng.choice([-1, 0, 1], size=n)
            rets = rng.normal(0, 0.02, n)
            fee = float(rng.choice([0.0, 5.0, 25.0]))
            curve, ledger = simulate(*positions_of(pos), rets, fee)
            ref_equity, ref_trades = ref_simulate(list(pos), list(rets), fee)
            np.testing.assert_allclose(curve.equity, ref_equity, rtol=0, atol=1e-12)
            assert ledger.count == ref_trades


class TestPnl:
    def test_scaling(self):
        curve, _ = simulate(*positions_of([1, 1]), np.array([0.03, 0.02]))
        assert pnl_percent(curve) == pytest.approx(5.0, abs=1e-12)

    def test_flat_zero(self):
        curve, _ = simulate(*positions_of([0, 0]), np.array([0.03, 0.02]))
        assert pnl_percent(curve) == 0.0

    def test_six_step_hand_sum(self):
        pos = [1, 1, -1, 0, 1, -1]
        rets = [0.01, -0.02, 0.015, 0.03, -0.005, 0.01]
        expected = sum(p * r for p, r in zip(pos, rets))
        curve, _ = simulate(*positions_of(pos), np.array(rets))
        assert curve.equity[-1] == pytest.approx(expected, abs=1e-12)


class TestTrades:
    def test_enumerated_changes(self):
        _, ledger = simulate(*positions_of([1, 1, -1, -1, 1]), np.zeros(5))
        assert ledger.count == 3

    def test_never_trading(self):
        assert TradeLedger().count == 0

    def test_alternating(self):
        n = 9
        pos = [1 if i % 2 == 0 else -1 for i in range(n)]
        _, ledger = simulate(*positions_of(pos), np.zeros(n))
        assert ledger.count == n


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.sampled_from([-1, 0, 1]), min_size=1, max_size=30),
    st.integers(0, 2**31 - 1),
)
def test_zero_fee_additivity(pos, seed):
    rets = np.random.default_rng(seed).normal(0, 0.05, len(pos))
    curve, _ = simulate(*positions_of(pos), rets)
    expected = 0.0
    for p, r in zip(pos, rets):
        expected += p * r
    assert curve.equity[-1] == expected


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.sampled_from([-1, 0, 1]), min_size=1, max_size=30),
    st.integers(0, 2**31 - 1),
)
def test_fee_monotonicity_and_bound_and_symmetry(pos, seed):
    rets = np.random.default_rng(seed).normal(0, 0.05, len(pos))
    fees = [0.0, 1.0, 10.0, 100.0]
    finals = [simulate(*positions_of(pos), rets, f)[0].equity[-1] for f in fees]
    assert all(a >= b - 1e-15 for a, b in zip(finals, finals[1:]))

    assert finals[0] <= np.abs(rets).sum() + 1e-12

    mirrored, _ = simulate(*positions_of([-p for p in pos]), rets)
    base, _ = simulate(*positions_of(pos), rets)
    np.testing.assert_allclose(mirrored.equity, -base.equity, rtol=0, atol=1e-15)


def test_oracle_bound_equality_for_perfect_foresight():
    rets = np.array([0.01, -0.02, 0.0, 0.03])
    pos = np.sign(rets).astype(np.int8)
    curve, _ = simulate(*positions_of(pos), rets)
    assert curve.equity[-1] == pytest.approx(np.abs(rets).sum(), abs=1e-15)


class TestTypes:
    @pytest.mark.parametrize("bad", [0.5, 1.7, -1.2, math.nan, 2, -2])
    def test_position_domain_enforced(self, bad):
        """Positions are checked as given: no cast turns 0.5 into 0 or NaN into a position."""
        with pytest.raises(ValueError, match=r"^positions must lie in \{-1, 0, \+1\}$"):
            simulate(days(3), np.array([1, bad, 0]), np.zeros(3))

    def test_float_positions_in_domain_simulate_as_ints(self):
        curve, ledger = simulate(days(3), np.array([1.0, -1.0, 0.0]), np.array([0.01, 0.02, 0.03]), fee_bps=10.0)
        want, want_ledger = simulate(*positions_of([1, -1, 0]), np.array([0.01, 0.02, 0.03]), fee_bps=10.0)
        assert curve.equity.tobytes() == want.equity.tobytes() and ledger.count == want_ledger.count == 3

    def test_negative_fee_rejected(self):
        with pytest.raises(ValueError):
            simulate(*positions_of([1]), np.zeros(1), fee_bps=-1.0)

    def test_equity_csv(self):
        curve, _ = simulate(*positions_of([1, -1]), np.array([0.01, 0.02]))
        lines = curve.to_csv().strip().split("\n")
        assert lines[0] == "timestamp,equity_fraction"
        assert len(lines) == 3

    def test_equity_csv_literal_bytes(self):
        equity = np.array([-0.0, 0.1 + 0.2, 1e-05, -1234.5, 1e16, 2.0 / 3.0])
        ts = np.arange(equity.size, dtype=np.int64) * DAY + T0
        curve = EquityCurve(ts, equity, np.zeros(equity.size))
        expected = "timestamp,equity_fraction\n" + "".join(
            f"{t},{text}\n"
            for t, text in zip(
                ts.tolist(),
                ["-0.0", "0.30000000000000004", "1e-05", "-1234.5", "1e+16", "0.6666666666666666"],
            )
        )
        assert curve.to_csv().encode("utf-8") == expected.encode("utf-8")
        assert EquityCurve(ts[:0], equity[:0], equity[:0]).to_csv() == "timestamp,equity_fraction\n"
