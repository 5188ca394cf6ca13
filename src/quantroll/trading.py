"""Position series -> trades, costs, equity curve, PNL.

PNL is additive on unit notional: each step contributes position times the
realized simple return, minus a fee whenever the position changes. The
opening entry counts as a trade and is charged; a full flip is one change
and one fee.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .candles import csv_text
from .errors import NON_NEGATIVE_REAL, LengthMismatch


@dataclass
class PositionSeries:
    """Per-interval directional exposure in {-1, 0, +1}."""

    timestamps: np.ndarray
    positions: np.ndarray

    def __post_init__(self):
        self.timestamps = np.asarray(self.timestamps, dtype=np.int64)
        self.positions = np.asarray(self.positions, dtype=np.int8)
        if self.positions.size != self.timestamps.size:
            raise LengthMismatch("positions and timestamps must align")
        if not np.isin(self.positions, (-1, 0, 1)).all():
            raise ValueError("positions must lie in {-1, 0, +1}")

    def __len__(self) -> int:
        return int(self.positions.size)


@dataclass
class EquityCurve:
    """Cumulative PNL fraction per step (starts from the first step's return)."""

    timestamps: np.ndarray
    equity: np.ndarray
    step_returns: np.ndarray

    def __len__(self) -> int:
        return int(self.equity.size)

    def to_csv(self) -> str:
        return csv_text(("timestamp", "equity_fraction"), map(str, self.timestamps.tolist()), map(repr, self.equity.tolist()))


@dataclass
class TradeLedger:
    """One entry per position change: when, and from which position to which."""

    timestamps: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    old_positions: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int8))
    new_positions: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int8))

    @property
    def count(self) -> int:
        return int(self.timestamps.size)


def simulate(
    positions: PositionSeries,
    simple_returns: np.ndarray,
    fee_bps: float = 0.0,
) -> tuple[EquityCurve, TradeLedger]:
    """Run the position series against realized per-step simple returns.

    The position at step t earns pos_t * r_t over (t, t+1]; a fee of fee_bps
    basis points of notional applies on every change from the previous
    position, with flat (0) as the state before the first step.
    """
    NON_NEGATIVE_REAL.check("fee_bps", fee_bps)
    returns = np.asarray(simple_returns, dtype=np.float64)
    if returns.size != len(positions):
        raise LengthMismatch(f"{len(positions)} positions vs {returns.size} returns")
    if returns.size and not np.isfinite(returns).all():
        raise ValueError("returns must be finite")

    pos = positions.positions.astype(np.float64)
    fee = fee_bps / 1e4
    prev = np.concatenate([[0.0], pos[:-1]])
    changed = pos != prev
    step = pos * returns - fee * changed
    equity = np.cumsum(step)

    ledger = TradeLedger(
        positions.timestamps[changed], prev[changed].astype(np.int8), positions.positions[changed]
    )
    return EquityCurve(positions.timestamps.copy(), equity, step), ledger


def pnl_percent(curve: EquityCurve) -> float:
    """Final cumulative PNL as a percentage of initial notional."""
    if len(curve) == 0:
        raise ValueError("empty equity curve")
    return 100.0 * float(curve.equity[-1])


def count_trades(ledger: TradeLedger) -> int:
    return ledger.count
