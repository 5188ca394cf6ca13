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


def evaluated_indices(view: DatasetView, config: WalkForwardConfig) -> np.ndarray:
    """The parent-dataset indices a walk over view evaluates, in order.

    Global mode evaluates every index of the view. Trailing mode shifts the
    first evaluable index forward until a full window of history exists in
    the parent dataset, and raises InsufficientHistory when none is left.
    """
    if config.mode == GLOBAL:
        return view.indices
    min_start = view.parent.valid_from + config.window
    indices = view.indices[view.indices >= min_start]
    if indices.size == 0:
        raise InsufficientHistory(
            f"window {config.window} leaves no evaluable index in segment "
            f"{view.segment!r} (first usable row is {view.parent.valid_from})"
        )
    return indices


def run_walkforward(
    view: DatasetView,
    spec: ModelSpec,
    config: WalkForwardConfig,
    train_view: DatasetView | None = None,
) -> np.ndarray:
    """Evaluate one model over a segment view: one float64 score per
    evaluated index (see evaluated_indices). A classifier's score's sign is
    its direction (classify_from_scores); a regressor's score is its
    predicted return.

    Indices skipped by retrain_stride reuse the most recent model. Only the
    current model is held: each refit replaces it before the next
    prediction. Every trailing refit has the same spec and row count, so all
    of them share one memo of forest draws (see models.fit), which lives
    only as long as this call.
    """
    parent = view.parent
    X = parent.frame.rows
    task = task_of(spec.kind)
    y_train = parent.class_target if task == CLASSIFIER else parent.reg_target

    trailing = config.mode == TRAILING
    if not trailing:
        if train_view is None:
            raise ValueError("global mode requires a training view")
        rows = train_view.indices
        model = fit(spec, X[rows], y_train[rows])

    memo: dict = {}
    scores = []
    for i, t in enumerate(evaluated_indices(view, config).tolist()):
        if trailing and i % config.retrain_stride == 0:
            lo = t - config.window
            model = fit(spec, X[lo:t], y_train[lo:t], memo)
        if task == CLASSIFIER:
            scores.append(predict_class(model, X[t])[1])
        else:
            scores.append(predict_value(model, X[t]))
    return np.array(scores, dtype=np.float64)


def signal_from_predictions(task: str, scores: np.ndarray, threshold: float = 0.0) -> np.ndarray:
    """Map a walk's scores to int8 positions.

    Classifiers are always in the market: up -> +1, down -> -1. Regressors
    go long above +threshold, short below -threshold, and otherwise hold the
    previous position (initially flat).
    """
    NON_NEGATIVE_REAL.check("threshold", threshold)
    scores = np.asarray(scores, dtype=np.float64)
    if task == CLASSIFIER:
        if threshold != 0.0:
            raise ValueError("dead-band threshold applies to regressors only")
        return classify_from_scores(scores)
    # Forward-fill the sign of the last out-of-band value; row 0 stands in
    # for "none yet", and its sign is 0 whenever it is in band.
    sign = (scores > threshold).astype(np.int8) - (scores < -threshold).astype(np.int8)
    last = np.maximum.accumulate(np.where(sign != 0, np.arange(sign.size), 0))
    return sign[last]
