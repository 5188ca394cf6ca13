"""Statistical evaluation: Sharpe, confusion-matrix metrics, error metrics, R2.

Zero-denominator conventions keep reports total: precision/recall/F1 fall to
0, while Sharpe and R2 are reported as undefined (None) rather than infinite.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .direction import UP
from .errors import (
    NON_NEGATIVE_INTEGER,
    POSITIVE_INTEGER,
    ConstantCurve,
    ConstantTruth,
    LengthMismatch,
    TooFewObservations,
    ZeroVolatility,
)
from .models import ALL_KINDS, CLASSIFIER, REGRESSOR, task_of
from .trading import EquityCurve, TradeLedger, pnl_percent

SEGMENTS = ("backtest", "forward")


@dataclass(frozen=True)
class ClassifierReport:
    task: ClassVar[str] = CLASSIFIER
    model: str
    window: int
    segment: str
    pnl_percent: float
    sharpe: float | None
    r2: float | None
    accuracy: float
    f1: float
    precision: float
    recall: float
    n_trades: int


@dataclass(frozen=True)
class RegressorReport:
    task: ClassVar[str] = REGRESSOR
    model: str
    window: int
    segment: str
    pnl_percent: float
    sharpe: float | None
    r2: float | None
    mae: float
    mse: float
    rmse: float
    n_trades: int


# The report class of each task: report.json's "task" field names the key.
REPORTS = {report.task: report for report in (ClassifierReport, RegressorReport)}

# The JSON types a report field's annotation admits; a bool is never a number.
_JSON_TYPES = {"str": str, "int": int, "float": (int, float), "float | None": (int, float, type(None))}


def report_row(report) -> dict:
    """The report.json row of one report: its fields plus its task."""
    return {**dataclasses.asdict(report), "task": report.task}


def report_from_row(row: dict):
    """The report a report.json row holds. A row no run writes raises
    KeyError, TypeError or ValueError."""
    report = REPORTS[row["task"]](**{k: v for k, v in row.items() if k != "task"})
    for f in dataclasses.fields(report):
        value = getattr(report, f.name)
        if isinstance(value, bool) or not isinstance(value, _JSON_TYPES[f.type]):
            raise TypeError(f"{f.name} must be {f.type}, got {value!r}")
    if report.model not in ALL_KINDS or task_of(report.model) != report.task:
        raise ValueError(f"model must be a {report.task} kind, got {report.model!r}")
    if report.segment not in SEGMENTS:
        raise ValueError(f"segment must be one of {SEGMENTS}, got {report.segment!r}")
    POSITIVE_INTEGER.check("window", report.window)
    NON_NEGATIVE_INTEGER.check("n_trades", report.n_trades)
    return report


def sharpe(step_returns, risk_free_rate: float = 0.0, periods_per_year: float = 365.0) -> float:
    """Annualized mean excess return over sample (n-1) volatility."""
    r = np.asarray(step_returns, dtype=np.float64)
    if r.size < 2:
        raise TooFewObservations(f"Sharpe needs at least 2 observations, got {r.size}")
    std = float(r.std(ddof=1))
    if std == 0.0:
        raise ZeroVolatility("returns have zero volatility; Sharpe is undefined")
    excess = float(r.mean()) - risk_free_rate / periods_per_year
    return excess / std * math.sqrt(periods_per_year)


def classification_metrics(y_true, y_pred) -> tuple[float, float, float, float]:
    """(accuracy, precision, recall, f1) with up as the positive class."""
    t = np.asarray(y_true)
    p = np.asarray(y_pred)
    if t.size != p.size:
        raise LengthMismatch(f"{t.size} truths vs {p.size} predictions")
    if t.size == 0:
        raise LengthMismatch("empty label sequences")
    tp = int(np.count_nonzero((t == UP) & (p == UP)))
    fp = int(np.count_nonzero((t != UP) & (p == UP)))
    fn = int(np.count_nonzero((t == UP) & (p != UP)))
    accuracy = float(np.count_nonzero(t == p)) / t.size
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
    return accuracy, precision, recall, f1


def regression_errors(y_true, y_pred) -> tuple[float, float, float]:
    """(mae, mse, rmse)."""
    t = np.asarray(y_true, dtype=np.float64)
    p = np.asarray(y_pred, dtype=np.float64)
    if t.size != p.size:
        raise LengthMismatch(f"{t.size} truths vs {p.size} predictions")
    if t.size == 0:
        raise LengthMismatch("empty sequences")
    err = p - t
    mae = float(np.abs(err).mean())
    mse = float((err**2).mean())
    return mae, mse, math.sqrt(mse)


def r_squared(y_true, y_pred) -> float:
    """1 - SS_res/SS_tot; requires a non-constant truth."""
    t = np.asarray(y_true, dtype=np.float64)
    p = np.asarray(y_pred, dtype=np.float64)
    if t.size != p.size:
        raise LengthMismatch(f"{t.size} truths vs {p.size} predictions")
    if t.size < 2:
        raise TooFewObservations("R2 needs at least 2 observations")
    ss_tot = float(((t - t.mean()) ** 2).sum())
    if ss_tot == 0.0:
        raise ConstantTruth("R2 is undefined for a constant truth")
    ss_res = float(((t - p) ** 2).sum())
    return 1.0 - ss_res / ss_tot


def equity_trend_r2(curve: EquityCurve) -> float:
    """R2 of the least-squares line of equity against step index.

    Stands in for a 'consistency of returns' reading of the classifier-table
    R2 column: 1.0 means perfectly steady accumulation.
    """
    y = np.asarray(curve.equity, dtype=np.float64)
    if y.size < 3:
        raise TooFewObservations("equity trend R2 needs at least 3 points")
    sy = float(((y - y.mean()) ** 2).sum())
    if sy == 0.0:
        raise ConstantCurve("equity curve is constant; trend R2 is undefined")
    x = np.arange(y.size, dtype=np.float64)
    sxy = float(((x - x.mean()) * (y - y.mean())).sum())
    sx = float(((x - x.mean()) ** 2).sum())
    return sxy * sxy / (sx * sy)


def _maybe(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (ZeroVolatility, ConstantTruth, ConstantCurve, TooFewObservations):
        return None


def _report(cls, model, window, segment, curve, ledger, periods_per_year, **metrics):
    """A report of class cls: the fields every report has, plus its task's metrics."""
    sharpe_ratio = _maybe(sharpe, curve.step_returns, periods_per_year=periods_per_year)
    return cls(model, window, segment, pnl_percent(curve), sharpe_ratio, n_trades=ledger.count, **metrics)


def build_classifier_report(
    model: str,
    window: int,
    segment: str,
    realized_class: np.ndarray,
    direction: np.ndarray,
    curve: EquityCurve,
    ledger: TradeLedger,
    periods_per_year: float = 365.0,
) -> ClassifierReport:
    accuracy, precision, recall, f1 = classification_metrics(realized_class, direction)
    return _report(
        ClassifierReport, model, window, segment, curve, ledger, periods_per_year,
        r2=_maybe(equity_trend_r2, curve), accuracy=accuracy, f1=f1, precision=precision, recall=recall,
    )


def build_regressor_report(
    model: str,
    window: int,
    segment: str,
    realized_return: np.ndarray,
    predicted_return: np.ndarray,
    curve: EquityCurve,
    ledger: TradeLedger,
    periods_per_year: float = 365.0,
) -> RegressorReport:
    mae, mse, rmse = regression_errors(realized_return, predicted_return)
    return _report(
        RegressorReport, model, window, segment, curve, ledger, periods_per_year,
        r2=_maybe(r_squared, realized_return, predicted_return), mae=mae, mse=mse, rmse=rmse,
    )
