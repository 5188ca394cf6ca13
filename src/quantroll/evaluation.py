"""One (model, window, segment) evaluation: predictions -> trades -> report."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import DatasetView
from .metrics import ClassifierReport, RegressorReport, build_classifier_report, build_regressor_report
from .models import CLASSIFIER, ModelSpec
from .trading import EquityCurve, simulate
from .walkforward import WalkForwardConfig, run_walkforward, signal_from_predictions


@dataclass
class SegmentEvaluation:
    curve: EquityCurve
    report: ClassifierReport | RegressorReport


def evaluate_segment(
    view: DatasetView,
    spec: ModelSpec,
    config: WalkForwardConfig,
    train_view: DatasetView | None = None,
) -> SegmentEvaluation:
    preds = run_walkforward(view, spec, config, train_view=train_view)
    threshold = 0.0 if preds.task == CLASSIFIER else config.dead_band
    positions = signal_from_predictions(preds, threshold=threshold)
    curve, ledger = simulate(positions, np.expm1(preds.realized_return), config.fee_bps)
    builder = build_classifier_report if preds.task == CLASSIFIER else build_regressor_report
    report = builder(
        spec.kind.value, config.window, view.segment, preds, curve, ledger, periods_per_year=config.periods_per_year
    )
    return SegmentEvaluation(curve, report)
