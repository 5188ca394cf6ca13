"""Workload definitions and the seeded candle generator.

Only the generated CSV reaches quantroll; the seed never does. Every
workload uses a fixed run seed, so two benchmark seeds differ in their
market data alone.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DAY = 86400
HOUR = 3600
T0 = 1356998400  # 2013-01-01T00:00:00Z
RUN_SEED = 0
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

ALL_MODELS = (
    "logistic_c", "ridge_c", "perceptron_c", "sgd_c", "knn_c", "bernoulli_nb_c",
    "decision_tree_c", "extra_tree_c", "random_forest_c", "bagging_c",
    "ols_r", "ridge_r", "sgd_r", "knn_r", "decision_tree_r", "extra_tree_r",
    "random_forest_r", "bagging_r",
)


@dataclass(frozen=True)
class Workload:
    name: str
    bars: int
    interval: int
    vol: float  # per-bar log-return volatility of the random walk
    models: tuple[str, ...]
    windows: tuple[int, ...]
    mode: str
    backtest_rows: int
    forward_rows: int
    train_rows: int | None = None  # global mode only; trailing trains on history
    tuner_trials: int | None = None
    retrain_stride: int = 1
    jobs: int = 1
    setup_reps: int = 5

    @property
    def n_jobs(self) -> int:
        return len(self.models) * len(self.windows)

    def config(self, csv_path: str, out_dir: str) -> dict:
        """Run config for quantroll.run.RunConfig.from_dict.

        The evaluated rows end at the last labelled bar (the final bar has
        no next return), and every segment starts past the indicator warm-up
        plus the largest window, so each step of each segment is evaluable.
        """
        end = T0 + (self.bars - 1) * self.interval
        forward_start = end - self.forward_rows * self.interval
        backtest_start = forward_start - self.backtest_rows * self.interval
        train_start = None
        if self.train_rows is not None:
            train_start = backtest_start - self.train_rows * self.interval
        return {
            "data": {"csv_path": csv_path},
            "interval": self.interval,
            "split": {
                "train_start": train_start,
                "backtest_start": backtest_start,
                "forward_start": forward_start,
                "forward_end": end,
            },
            "models": list(self.models),
            "windows": list(self.windows),
            "mode": self.mode,
            "retrain_stride": self.retrain_stride,
            "tuner_trials": self.tuner_trials,
            "seed": RUN_SEED,
            "out_dir": out_dir,
            "jobs": self.jobs,
        }

    def expected(self) -> dict:
        """Closed-form counts for one run of this workload."""
        segment_steps = self.backtest_rows + self.forward_rows
        trials = self.n_jobs * (self.tuner_trials or 0)
        # Each trial walks the backtest segment once (the tuner's objective).
        steps = self.n_jobs * segment_steps + trials * self.backtest_rows
        if self.mode == "global":
            fits = self.n_jobs * 2 + trials
        else:  # one refit every retrain_stride steps of each segment
            backtest_fits = -(-self.backtest_rows // self.retrain_stride)
            forward_fits = -(-self.forward_rows // self.retrain_stride)
            fits = self.n_jobs * (backtest_fits + forward_fits) + trials * backtest_fits
        return {
            "jobs": self.n_jobs,
            "trials": trials,
            "steps": steps,
            "fits": fits,
            "reports": self.n_jobs * 2,
            "equity_rows": self.n_jobs * segment_steps,
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sweep",
            bars=3957,
            interval=DAY,
            vol=0.02,
            models=ALL_MODELS,
            windows=(1, 7, 14, 21, 28),
            mode="trailing",
            backtest_rows=2,
            forward_rows=1,
        ),
        Workload(
            name="tune",
            bars=3957,
            interval=DAY,
            vol=0.02,
            models=("random_forest_c", "sgd_r", "knn_c", "perceptron_c"),
            windows=(7, 28),
            mode="trailing",
            backtest_rows=120,
            forward_rows=60,
            tuner_trials=10,
            retrain_stride=20,
            jobs=2,
        ),
        Workload(
            name="global_long",
            bars=15_000,
            interval=HOUR,
            vol=0.004,
            models=("ols_r", "ridge_r", "sgd_r", "ridge_c", "logistic_c", "bernoulli_nb_c"),
            windows=(28,),
            mode="global",
            train_rows=3_000,
            backtest_rows=3_750,
            forward_rows=2_250,
            setup_reps=3,
        ),
    )
}


def random_walk_csv(workload: Workload, seed: int) -> str:
    """Seeded random-walk OHLCV candles as quantroll CSV text.

    Every 17th bar is a flat doji (o = h = l = c) and every 13th has zero
    volume, so the indicators' degenerate branches run as well.
    """
    n = workload.bars
    rng = np.random.default_rng(seed)
    close = 100.0 * np.exp(np.cumsum(rng.normal(0.0, workload.vol, n)))
    open_ = np.concatenate([[100.0], close[:-1]])
    i = np.arange(n)
    doji = i % 17 == 5
    open_[doji] = close[doji]
    high = np.maximum(open_, close) * (1.0 + np.abs(rng.normal(0.0, 0.01, n)))
    low = np.minimum(open_, close) / (1.0 + np.abs(rng.normal(0.0, 0.01, n)))
    high[doji] = low[doji] = close[doji]
    volume = np.where(i % 13 == 7, 0.0, 5.0 * (1.0 + rng.random(n)))
    ts = T0 + i * workload.interval
    lines = ["timestamp,open,high,low,close,volume"]
    for row in zip(ts.tolist(), open_.tolist(), high.tolist(), low.tolist(), close.tolist(), volume.tolist()):
        lines.append(",".join(map(repr, row)))
    return "\n".join(lines) + "\n"
