"""Rolling-window model evaluation.

For each evaluation index t the trailing mode fits on rows [t - window, t)
and predicts row t, so every model only ever sees data that predates its
prediction. Global mode fits once on a designated training view instead.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import DatasetView
from .errors import NON_NEGATIVE_REAL, POSITIVE_INTEGER, POSITIVE_REAL, InsufficientHistory, check_fields
from .models import CLASSIFIER, ModelSpec, fit, predict_class, predict_value, task_of
from .models.base import classify_from_scores
from .trading import PositionSeries

TRAILING = "trailing"
GLOBAL = "global"


@dataclass(frozen=True)
class WalkForwardConfig:
    """How one (model, window) is walked, traded and scored: window counts
    candle intervals (days at the default daily interval), fee_bps is charged
    per position change, dead_band is a regressor's signal threshold, and
    periods_per_year annualizes Sharpe."""

    window: int = 7
    mode: str = TRAILING
    retrain_stride: int = 1
    fee_bps: float = 0.0
    dead_band: float = 0.0
    periods_per_year: float = 365.0

    def __post_init__(self):
        check_fields(
            self, window=POSITIVE_INTEGER, retrain_stride=POSITIVE_INTEGER,  # both index rows
            fee_bps=NON_NEGATIVE_REAL, dead_band=NON_NEGATIVE_REAL, periods_per_year=POSITIVE_REAL,
        )
        if self.mode not in (TRAILING, GLOBAL):
            raise ValueError(f"mode must be {TRAILING!r} or {GLOBAL!r}")


@dataclass
class PredictionSeries:
    """Aligned per-evaluation-step records; value is NaN for classifiers."""

    task: str
    timestamps: np.ndarray
    direction: np.ndarray
    score: np.ndarray
    value: np.ndarray
    realized_class: np.ndarray
    realized_return: np.ndarray

    def __len__(self) -> int:
        return int(self.timestamps.size)


def run_walkforward(
    view: DatasetView,
    spec: ModelSpec,
    config: WalkForwardConfig,
    train_view: DatasetView | None = None,
) -> PredictionSeries:
    """Evaluate one model over a segment view.

    Trailing mode shifts the first evaluable index forward until a full
    window of history exists in the parent dataset; indices skipped by
    retrain_stride reuse the most recent model. Only the current model is
    held: each refit replaces it before the next prediction. Every trailing
    refit has the same spec and row count, so all of them share one memo of
    seeded draws (see models.fit), which lives only as long as this call.
    """
    parent = view.parent
    X = parent.frame.rows
    y_class = parent.class_target
    y_reg = parent.reg_target
    task = task_of(spec.kind)
    y_train = y_class if task == CLASSIFIER else y_reg

    if config.mode == GLOBAL:
        if train_view is None:
            raise ValueError("global mode requires a training view")
        eval_indices = view.indices
        rows = train_view.indices
        model = fit(spec, X[rows], y_train[rows])
    else:
        min_start = parent.valid_from + config.window
        eval_indices = view.indices[view.indices >= min_start]
        if eval_indices.size == 0:
            raise InsufficientHistory(
                f"window {config.window} leaves no evaluable index in segment "
                f"{view.segment!r} (first usable row is {parent.valid_from})"
            )

    trailing = config.mode == TRAILING
    memo: dict = {}
    scores = []
    for i, t in enumerate(eval_indices.tolist()):
        if trailing and i % config.retrain_stride == 0:
            lo = t - config.window
            model = fit(spec, X[lo:t], y_train[lo:t], memo)
        if task == CLASSIFIER:
            scores.append(predict_class(model, X[t])[1])
        else:
            scores.append(predict_value(model, X[t]))
    # A classifier's direction is its score's sign, ties down; a regressor's
    # value is its score.
    score = np.array(scores, dtype=np.float64)

    return PredictionSeries(
        task=task,
        timestamps=parent.timestamps[eval_indices].copy(),
        direction=classify_from_scores(score),
        score=score,
        value=np.full(score.size, np.nan) if task == CLASSIFIER else score.copy(),
        realized_class=y_class[eval_indices].copy(),
        realized_return=y_reg[eval_indices].copy(),
    )


def signal_from_predictions(preds: PredictionSeries, threshold: float = 0.0) -> PositionSeries:
    """Map predictions to positions.

    Classifiers are always in the market: up -> +1, down -> -1. Regressors
    go long above +threshold, short below -threshold, and otherwise hold the
    previous position (initially flat).
    """
    NON_NEGATIVE_REAL.check("threshold", threshold)

    if preds.task == CLASSIFIER:
        if threshold != 0.0:
            raise ValueError("dead-band threshold applies to regressors only")
        positions = preds.direction.astype(np.int8)
    else:
        # Forward-fill the sign of the last out-of-band value; row 0 stands in
        # for "none yet", and its sign is 0 whenever it is in band.
        value = preds.value
        sign = (value > threshold).astype(np.int8) - (value < -threshold).astype(np.int8)
        last = np.maximum.accumulate(np.where(sign != 0, np.arange(sign.size), 0))
        positions = sign[last]
    return PositionSeries(preds.timestamps.copy(), positions)
