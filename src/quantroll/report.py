"""Text report tables: one row per model at its best-backtest-PNL window,
with backtest and forwardtest metric blocks side by side."""
from __future__ import annotations

import dataclasses

from .errors import MixedTasks
from .metrics import ClassifierReport, RegressorReport
from .models import display_name

CLASSIFIER_COLUMNS = ("PNL (%)", "Sharpe", "R2", "Accuracy", "F1 score", "Precision", "Recall", "No. of Trades")
REGRESSOR_COLUMNS = ("PNL (%)", "Sharpe", "R2", "MAE", "MSE", "RMSE", "No. of Trades")

_SEGMENTS = ("backtest", "forwardtest")

# A report's metric fields in declaration order, one per column above.
_CLASSIFIER_FIELDS, _REGRESSOR_FIELDS = (
    tuple(f.name for f in dataclasses.fields(report) if f.name not in ("model", "window", "segment"))
    for report in (ClassifierReport, RegressorReport)
)
_FOUR_DP = {"mae", "mse", "rmse"}


def _fmt(field: str, value) -> str:
    if value is None:
        return "n/a"
    if field == "n_trades":
        return str(int(value))
    return f"{value:.4f}" if field in _FOUR_DP else f"{value:.2f}"


def _segment_key(segment: str) -> str:
    return "forwardtest" if segment == "forward" else segment


def emit_table(reports, task: str) -> str:
    """Render the comparative metrics table for one task's reports.

    The best backtest-PNL row is flagged with '*', the best forwardtest-PNL
    row with '+'.
    """
    if task == "classifier":
        expected, columns, fields = ClassifierReport, CLASSIFIER_COLUMNS, _CLASSIFIER_FIELDS
        label = "Classifier"
    elif task == "regressor":
        expected, columns, fields = RegressorReport, REGRESSOR_COLUMNS, _REGRESSOR_FIELDS
        label = "Regressor"
    else:
        raise ValueError(f"unknown task {task!r}")
    for report in reports:
        if not isinstance(report, expected):
            raise MixedTasks(f"report for {report.model!r} is not a {task} report")

    by_model: dict[str, dict] = {}
    for report in reports:
        windows = by_model.setdefault(report.model, {})
        windows.setdefault(report.window, {})[_segment_key(report.segment)] = report

    rows = []
    for model in sorted(by_model):
        windows = by_model[model]
        # best window by backtest PNL; windows lacking a backtest row lose ties
        def backtest_pnl(w):
            r = windows[w].get("backtest")
            return r.pnl_percent if r is not None else float("-inf")

        best_window = max(sorted(windows), key=backtest_pnl)
        rows.append((model, best_window, windows[best_window]))

    def pnl_or_neginf(row, segment):
        report = row[2].get(segment)
        return report.pnl_percent if report is not None else float("-inf")

    flags = ["" for _ in rows]
    if rows:
        best_bt = max(range(len(rows)), key=lambda i: pnl_or_neginf(rows[i], "backtest"))
        best_fw = max(range(len(rows)), key=lambda i: pnl_or_neginf(rows[i], "forwardtest"))
        if pnl_or_neginf(rows[best_bt], "backtest") > float("-inf"):
            flags[best_bt] += "*"
        if pnl_or_neginf(rows[best_fw], "forwardtest") > float("-inf"):
            flags[best_fw] += "+"

    header = [label, "Rolling window", *columns, *columns]
    body = []
    for (model, window, segments), flag in zip(rows, flags):
        cells = [display_name(model) + (f" {flag}" if flag else ""), str(window)]
        for segment in _SEGMENTS:
            report = segments.get(segment)
            for field in fields:
                cells.append(_fmt(field, getattr(report, field)) if report is not None else "n/a")
        body.append(cells)

    widths = [max(len(header[i]), *(len(r[i]) for r in body)) if body else len(header[i]) for i in range(len(header))]
    n_metrics = len(columns)

    def block_line() -> str:
        left = " " * (widths[0] + widths[1] + 6)
        bt_width = sum(widths[2 : 2 + n_metrics]) + 3 * (n_metrics - 1)
        fw_width = sum(widths[2 + n_metrics :]) + 3 * (n_metrics - 1)
        return left + "Backtest".center(bt_width) + " | " + "Forwardtest".center(fw_width)

    def fmt_row(cells) -> str:
        return " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)).rstrip()

    lines = [block_line(), fmt_row(header), "-" * len(fmt_row(header))]
    lines.extend(fmt_row(cells) for cells in body)
    if any(flags):
        lines.append("")
        lines.append("* best backtest PNL   + best forwardtest PNL")
    return "\n".join(lines) + "\n"
