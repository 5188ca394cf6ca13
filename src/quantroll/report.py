"""Text report tables: one row per model at its best-backtest-PNL window,
with backtest and forwardtest metric blocks side by side.

A table's label is its task, and its columns are its report class's metric
fields in declaration order (metrics.REPORTS); this module adds only each
field's header and number format."""
from __future__ import annotations

import dataclasses

from .errors import MixedTasks
from .metrics import REPORTS, SEGMENTS, ClassifierReport, RegressorReport
from .models import display_name

# The header of each report field a table shows. A table's columns are its
# report's fields in declaration order, once per segment.
_HEADERS = {
    "pnl_percent": "PNL (%)", "sharpe": "Sharpe", "r2": "R2", "accuracy": "Accuracy", "f1": "F1 score",
    "precision": "Precision", "recall": "Recall", "mae": "MAE", "mse": "MSE", "rmse": "RMSE",
    "n_trades": "No. of Trades",
}
_FOUR_DP = {"mae", "mse", "rmse"}


def _fields(report_cls) -> tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(report_cls) if f.name in _HEADERS)


CLASSIFIER_COLUMNS = tuple(_HEADERS[f] for f in _fields(ClassifierReport))
REGRESSOR_COLUMNS = tuple(_HEADERS[f] for f in _fields(RegressorReport))


def _fmt(field: str, value) -> str:
    if value is None:
        return "n/a"
    if field == "n_trades":
        return str(int(value))
    return f"{value:.4f}" if field in _FOUR_DP else f"{value:.2f}"


def _pnl(segments: dict, segment: str) -> float:
    """The segment's PNL; -inf, which loses every comparison, when it has no row."""
    report = segments.get(segment)
    return report.pnl_percent if report is not None else float("-inf")


def emit_table(reports, task: str) -> str:
    """Render the comparative metrics table for one task's reports.

    The best backtest-PNL row is flagged with '*', the best forwardtest-PNL
    row with '+'.
    """
    if task not in REPORTS:
        raise ValueError(f"unknown task {task!r}")
    fields = _fields(REPORTS[task])
    by_model: dict[str, dict] = {}
    for report in reports:
        if report.task != task:
            raise MixedTasks(f"report for {report.model!r} is not a {task} report")
        by_model.setdefault(report.model, {}).setdefault(report.window, {})[report.segment] = report

    rows = []
    for model in sorted(by_model):
        windows = by_model[model]
        # best window by backtest PNL; windows lacking a backtest row lose ties
        best_window = max(sorted(windows), key=lambda w: _pnl(windows[w], "backtest"))
        rows.append((model, best_window, windows[best_window]))

    flags = ["" for _ in rows]
    for segment, flag in zip(SEGMENTS, "*+"):
        pnls = [_pnl(segments, segment) for _, _, segments in rows]
        if pnls and max(pnls) > float("-inf"):
            flags[pnls.index(max(pnls))] += flag

    columns = [_HEADERS[field] for field in fields]
    header = [task.capitalize(), "Rolling window", *columns, *columns]
    body = []
    for (model, window, segments), flag in zip(rows, flags):
        cells = [display_name(model) + (f" {flag}" if flag else ""), str(window)]
        for segment in SEGMENTS:  # a segment with no row shows n/a throughout
            cells.extend(_fmt(field, getattr(segments.get(segment), field, None)) for field in fields)
        body.append(cells)

    widths = [max([len(header[i]), *(len(r[i]) for r in body)]) for i in range(len(header))]
    n = len(columns)
    bt_width, fw_width = (sum(widths[2 + k * n : 2 + (k + 1) * n]) + 3 * (n - 1) for k in (0, 1))
    blocks = " " * (widths[0] + widths[1] + 6) + "Backtest".center(bt_width) + " | " + "Forwardtest".center(fw_width)

    def fmt_row(cells) -> str:
        return " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)).rstrip()

    lines = [blocks, fmt_row(header), "-" * len(fmt_row(header)), *map(fmt_row, body)]
    if any(flags):
        lines += ["", "* best backtest PNL   + best forwardtest PNL"]
    return "\n".join(lines) + "\n"
