"""One (model, window, segment) evaluation: scores -> positions -> trades -> report."""
from __future__ import annotations

import numpy as np

from .dataset import DatasetView
from .metrics import ClassifierReport, RegressorReport, build_classifier_report, build_regressor_report
from .models import CLASSIFIER, ModelSpec, task_of
from .trading import EquityCurve, simulate
from .walkforward import WalkForwardConfig, evaluated_indices, run_walkforward, signal_from_predictions


def evaluate_segment(
    view: DatasetView,
    spec: ModelSpec,
    config: WalkForwardConfig,
    train_view: DatasetView | None = None,
) -> tuple[EquityCurve, ClassifierReport | RegressorReport]:
    """The segment's equity curve and its report."""
    scores = run_walkforward(view, spec, config, train_view=train_view)
    parent, indices = view.parent, evaluated_indices(view, config)
    realized_return = parent.reg_target[indices]
    task = task_of(spec.kind)
    positions = signal_from_predictions(task, scores, 0.0 if task == CLASSIFIER else config.dead_band)
    curve, ledger = simulate(parent.timestamps[indices], positions, np.expm1(realized_return), config.fee_bps)
    if task == CLASSIFIER:  # a classifier's positions are its directions
        builder, truth, predicted = build_classifier_report, parent.class_target[indices], positions
    else:
        builder, truth, predicted = build_regressor_report, realized_return, scores
    report = builder(
        spec.kind.value, config.window, view.segment, truth, predicted, curve, ledger,
        periods_per_year=config.periods_per_year,
    )
    return curve, report
