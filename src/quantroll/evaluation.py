"""One (model, window, segment) evaluation: predictions -> trades -> report."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import DatasetView
from .metrics import (
    ClassifierReport,
    RegressorReport,
    build_classifier_report,
    build_regressor_report,
)
from .models import CLASSIFIER, ModelSpec
from .trading import CostModel, EquityCurve, simulate
from .walkforward import WalkForwardConfig, run_walkforward, signal_from_predictions


@dataclass
class SegmentEvaluation:
    curve: EquityCurve
    report: ClassifierReport | RegressorReport


def evaluate_segment(
    view: DatasetView,
    spec: ModelSpec,
    wf_config: WalkForwardConfig,
    cost: CostModel = CostModel(),
    dead_band: float = 0.0,
    periods_per_year: float = 365.0,
    train_view: DatasetView | None = None,
) -> SegmentEvaluation:
    preds = run_walkforward(view, spec, wf_config, train_view=train_view)
    threshold = 0.0 if preds.task == CLASSIFIER else dead_band
    positions = signal_from_predictions(preds, threshold=threshold)
    simple = np.expm1(preds.realized_return)
    curve, ledger = simulate(positions, simple, cost)
    builder = build_classifier_report if preds.task == CLASSIFIER else build_regressor_report
    report = builder(
        spec.kind.value,
        wf_config.window,
        view.segment,
        preds,
        curve,
        ledger,
        periods_per_year=periods_per_year,
    )
    return SegmentEvaluation(curve, report)
