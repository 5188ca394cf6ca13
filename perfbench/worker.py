"""The timed process: runs one workload through quantroll's library API.

Usage: python3 perfbench/worker.py SPEC_JSON RESULT_JSON

SPEC_JSON names the workload, the candle CSV written beforehand, the work
directory, the measuring time and whether to trace. The worker imports
quantroll from the checkout's ``src`` (PYTHONPATH), repeats the set-up
steps, then runs ``quantroll.run.run_experiment`` until the measuring time
is used up, checking every run's persisted artifacts. Results go to
RESULT_JSON; any error exits non-zero.
"""
from __future__ import annotations

import gc
import hashlib
import json
import math
import resource
import shutil
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from hostspeed import timed
from tracing import LAYER_UNITS, Tracer, layer_metrics
from workloads import WORKLOADS


def output_digest(root: Path) -> str:
    """sha256 over the report rows, trials.jsonl and every equity CSV.

    The config snapshot and the rest of report.json are left out: they
    hold the output directory and the jobs setting, which change the bytes
    but not the results.
    """
    h = hashlib.sha256()
    rows = json.loads((root / "report.json").read_text(encoding="utf-8"))["reports"]
    h.update(json.dumps(rows, sort_keys=True).encode())
    trials = root / "trials.jsonl"
    h.update(b"\0trials\0" + (trials.read_bytes() if trials.exists() else b""))
    for path in sorted((root / "equity").glob("*.csv")):
        h.update(b"\0" + path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def check_outputs(root: Path, workload, expected: dict) -> tuple[list[str], int]:
    """Problems found in one run's artifacts, and its failed tuner trials."""
    problems = []
    rows = json.loads((root / "report.json").read_text(encoding="utf-8"))["reports"]
    if len(rows) != expected["reports"]:
        problems.append(f"{len(rows)} report rows, expected {expected['reports']}")
    keys = {(r["model"], r["window"], r["segment"]) for r in rows}
    want = {(m, w, s) for m in workload.models for w in workload.windows for s in ("backtest", "forward")}
    if keys != want:
        problems.append(f"report rows cover {len(keys & want)} of {len(want)} (model, window, segment)")
    equity_rows = 0
    for r in rows:
        path = root / "equity" / f"{r['model']}_{r['window']}_{r['segment']}.csv"
        if not path.exists():
            problems.append(f"missing {path.name}")
            continue
        lines = path.read_text(encoding="utf-8").splitlines()[1:]
        equity_rows += len(lines)
        if not math.isfinite(r["pnl_percent"]) or 100.0 * float(lines[-1].split(",")[1]) != r["pnl_percent"]:
            problems.append(f"{path.name}: final equity does not match pnl_percent {r['pnl_percent']}")
        if not 0 <= r["n_trades"] <= len(lines):
            problems.append(f"{path.name}: {r['n_trades']} trades over {len(lines)} steps")
    if equity_rows != expected["equity_rows"]:
        problems.append(f"{equity_rows} equity rows, expected {expected['equity_rows']}")
    failed = 0
    if expected["trials"]:
        records = [json.loads(line) for line in (root / "trials.jsonl").read_text(encoding="utf-8").splitlines()]
        failed = sum(1 for rec in records if rec.get("error") is not None or rec["objective"] is None)
        if len(records) != expected["trials"]:
            problems.append(f"{len(records)} trials, expected {expected['trials']}")
    return problems, failed


def main(spec_path: str, result_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    workload = WORKLOADS[spec["workload"]]
    work = Path(spec["work_dir"])
    src = Path(spec["src_dir"]).resolve()

    import quantroll.run

    if src not in Path(quantroll.__file__).resolve().parents:
        raise SystemExit(f"quantroll was imported from {quantroll.__file__}, not from {src}")

    raw = workload.config(spec["csv_path"], str(work / "runs"))
    config = quantroll.run.RunConfig.from_dict(raw)
    expected = workload.expected()

    # Set-up: everything run_experiment does before its first fit.
    def setup():
        series = quantroll.run.load_candles(config)
        quantroll.run.prepare_dataset(series, config.indicators)
        config.segment_split(series)

    setup_s = []
    for _ in range(workload.setup_reps):
        gc.collect()
        seconds, slowdown, _ = timed(setup)
        setup_s.append({"raw_s": seconds, "slowdown": slowdown})

    result = {"setup_s": setup_s, "runs": []}

    def measure(seconds: float, traced: bool) -> None:
        deadline = time.perf_counter() + seconds
        while True:
            run_id = f"run{len(result['runs'])}"
            gc.collect()
            with Tracer() if traced else nullcontext() as tracer:
                wall, slowdown, _ = timed(quantroll.run.run_experiment, config, run_id=run_id)
            root = work / "runs" / run_id
            problems, failed = check_outputs(root, workload, expected)
            record = {
                "traced": traced,
                "raw_s": wall,
                "slowdown": slowdown,
                "digest": output_digest(root),
                "problems": problems,
                "trials_failed": failed,
            }
            if tracer:
                layers = layer_metrics(tracer.spans)
                # Times in reference-host seconds, like the end-to-end figures.
                record["layers"] = {k: v if k in LAYER_UNITS else v / slowdown for k, v in layers.items()}
                record["layers"]["run.persist_bytes"] = sum(
                    p.stat().st_size for p in root.rglob("*") if p.is_file()
                )
                tracer.dump(Path(spec["spans_path"]))
                del tracer
            result["runs"].append(record)
            shutil.rmtree(root)
            if time.perf_counter() >= deadline:
                return

    if spec["trace"]:
        measure(spec["seconds"] / 2, traced=False)
        measure(spec["seconds"] / 2, traced=True)
    else:
        measure(spec["seconds"], traced=False)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(*sys.argv[1:])
