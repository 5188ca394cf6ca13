"""quantroll benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The candle CSV is generated from the
seed here, before the timed worker process starts, so its cost and memory
are not charged to quantroll. With ``--trace 0`` the last line holds the
end-to-end metrics; with ``--trace 1`` the per-layer metrics of a traced
run, checked against closed-form counts and against an untraced run.
``--pin SEEDS`` (e.g. ``0-63``) records the output digests that later runs
must reproduce into perfbench/digests.json instead of measuring.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import LAYER_UNITS  # noqa: E402
from workloads import THREAD_PINS, WORKLOADS, random_walk_csv  # noqa: E402

DIGESTS = HERE / "digests.json"
IMPORT_PROBES = 3
WORKER_TIMEOUT_S = 170
IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); import quantroll.run; t = time.perf_counter() - t; "
    f"sys.path.insert(0, {str(HERE)!r}); import hostspeed; print(t, hostspeed.slowdown())"
)


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def worker_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(THREAD_PINS)
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_worker(spec: dict, work: Path, env: dict) -> dict:
    spec_path = work / "spec.json"
    result_path = work / "result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(spec_path), str(result_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"worker failed with exit code {proc.returncode}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def import_seconds(env: dict) -> list[dict]:
    """Time `import quantroll.run` in fresh interpreters (interpreter start excluded)."""
    times = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True, text=True, timeout=60
        )
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            raise SystemExit("cannot import quantroll from the checkout's src/")
        raw_s, slowdown = map(float, out.stdout.split())
        times.append({"raw_s": raw_s, "slowdown": slowdown})
    return times


def pinned_digest(workload: str, seed: int) -> str | None:
    if not DIGESTS.exists():
        return None
    return json.loads(DIGESTS.read_text(encoding="utf-8")).get(workload, {}).get(str(seed))


def worker_spec(workload, seed: int, root: Path, work: Path, seconds: float, trace: bool) -> dict:
    """Write the seed's candle CSV and describe the worker's task."""
    text = random_walk_csv(workload, seed)
    if text == random_walk_csv(workload, seed + 1):
        raise SystemExit("the seed does not change the generated candles")
    csv_path = work / "candles.csv"
    csv_path.write_text(text, encoding="utf-8")
    return {
        "workload": workload.name,
        "csv_path": str(csv_path),
        "work_dir": str(work),
        "src_dir": str(root / "src"),
        "seconds": seconds,
        "trace": trace,
        "spans_path": str(root / ".perfbench_out" / f"spans-{workload.name}-{seed}.jsonl"),
    }


def normalised(samples: list[dict]) -> list[float]:
    """Reference-host seconds of timed samples (see hostspeed)."""
    return [x["raw_s"] / x["slowdown"] for x in samples]


def describe(name: str, values: list[float], unit: str) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{name:<28} {q2:12.6g} {unit:<6} (q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})"


def measure(args, root: Path, work: Path) -> dict:
    workload = WORKLOADS[args.workload]
    env = worker_env(root)
    spec = worker_spec(workload, args.seed, root, work, args.seconds, bool(args.trace))
    imports = import_seconds(env)
    (root / ".perfbench_out").mkdir(exist_ok=True)
    result = run_worker(spec, work, env)
    runs = result["runs"]
    expected = workload.expected()

    problems = sorted({p for r in runs for p in r["problems"]})
    digests = {r["digest"] for r in runs}
    if len(digests) != 1:  # in a traced run this also compares traced with untraced
        problems.append(f"{len(digests)} different output digests across {len(runs)} identical runs")
    digest = runs[0]["digest"]
    pinned = pinned_digest(workload.name, args.seed)
    if pinned is not None and digest != pinned:
        problems.append(f"output digest {digest[:12]} differs from the pinned {pinned[:12]}")
    report_ok = 0.0 if problems else 1.0

    untraced = [r for r in runs if not r["traced"]]
    attempted = len(runs) * (expected["jobs"] + expected["trials"])
    failed = sum(r["trials_failed"] for r in runs)
    import_s = normalised(imports)
    setup_steps_s = normalised(result["setup_s"])
    walls = normalised(untraced)
    setup = statistics.median(import_s) + statistics.median(setup_steps_s)
    wall = statistics.median(walls)

    lines = [
        f"workload {workload.name} seed {args.seed} trace {args.trace}: {expected}",
        f"python {platform.python_version()}, numpy {numpy.__version__}, nproc {os.cpu_count()}, "
        + ", ".join(f"{k}={v}" for k, v in THREAD_PINS.items()),
        f"digest {digest} ({'pinned' if pinned else 'not pinned; invariants and repeatability only'})",
        "times below are reference-host seconds: raw seconds / measured host slowdown",
        describe("host slowdown", [r["slowdown"] for r in runs], "x"),
        describe("raw wall_s", [r["raw_s"] for r in untraced], "s"),
        describe("import_s", import_s, "s"),
        describe("setup_steps_s", setup_steps_s, "s"),
        describe("wall_s", walls, "s"),
        f"{'failed_ratio':<28} {failed / attempted:12.6g} ratio  ({failed} of {attempted})",
    ]
    if not args.trace:
        metrics = {
            "wall_s": (wall, "s"),
            "setup_s": (setup, "s"),
            "steps_per_s": (expected["steps"] / wall, "1/s"),
            "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MB"),
            "report_ok": (report_ok, "bool"),
        }
    else:
        traced = [r for r in runs if r["traced"]]
        traced_walls = normalised(traced)
        lines.append(describe("traced wall_s", traced_walls, "s"))
        layers = traced[0]["layers"]
        for key in (k for k, unit in LAYER_UNITS.items() if unit == "count"):
            if len({r["layers"][key] for r in traced}) != 1:
                problems.append(f"{key} differs between identical traced runs")
        closed_form = {
            "models.fit_calls": expected["fits"],
            "walkforward.steps": expected["steps"],
            "models.predict_calls": expected["steps"],
            "tuner.trials": expected["trials"],
            "candles.rows": workload.bars,
        }
        for key, want in closed_form.items():
            if layers[key] != want:
                problems.append(f"traced {key} = {layers[key]}, closed form gives {want}")
        if any(r["layers"]["tuner.trials_failed"] != r["trials_failed"] for r in traced):
            problems.append("traced failed trials differ from trials.jsonl")
        metrics = {}
        for key, value in layers.items():  # counts are equal across traced runs (checked above)
            unit = LAYER_UNITS.get(key, "s")
            if unit != "count":
                value = statistics.median(r["layers"][key] for r in traced)
            metrics[key] = (value, unit)
        metrics["tuner.trials_per_s"] = (expected["trials"] / wall, "1/s")
        metrics["trace_overhead_s"] = (statistics.median(traced_walls) - wall, "s")
    for name, (value, unit) in metrics.items():
        lines.append(f"{name:<28} {value:12.6g} {unit}")
    for p in problems:
        lines.append(f"CHECK FAILED: {p}")
    print("\n".join(lines))
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def pin(args, root: Path, work: Path) -> None:
    """Record the output digest of one untimed run per seed."""
    lo, _, hi = args.pin.partition("-")
    workload = WORKLOADS[args.workload]
    env = worker_env(root)
    pinned = {}
    for seed in range(int(lo), int(hi or lo) + 1):
        spec = worker_spec(workload, seed, root, work, seconds=0, trace=False)
        run = run_worker(spec, work, env)["runs"][0]
        if run["problems"] or run["trials_failed"]:
            raise SystemExit(f"seed {seed}: {run['problems']} {run['trials_failed']} failed trials")
        pinned[str(seed)] = run["digest"]
        print(f"{workload.name} seed {seed}: {run['digest']}", flush=True)
    table = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
    merged = {**table.get(workload.name, {}), **pinned}
    table[workload.name] = dict(sorted(merged.items(), key=lambda kv: int(kv[0])))
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", metavar="SEEDS")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    root = Path.cwd()
    if not (root / "src" / "quantroll" / "__init__.py").is_file():
        raise SystemExit("run from the root of a quantroll checkout (src/quantroll is missing)")
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.pin:
            pin(args, root, work)
            return
        started = time.perf_counter()
        result = measure(args, root, work)
        print(f"elapsed {time.perf_counter() - started:.1f} s")
        print(json.dumps(result))
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
