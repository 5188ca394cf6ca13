"""Spans around the calls into quantroll's layers, recorded from outside.

quantroll's modules bind each other's functions with ``from .x import y``,
so a function is wrapped where the caller looks it up (for example
``quantroll.walkforward.fit``), not where it is defined. Spans stay in
memory until the run ends; ``layer_metrics`` folds them into the per-layer
figures the benchmark reports.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import json
import statistics
import threading
import time

FAMILIES = {
    "random_forest_c": "forest", "random_forest_r": "forest", "bagging_c": "forest", "bagging_r": "forest",
    "decision_tree_c": "tree", "decision_tree_r": "tree", "extra_tree_c": "tree", "extra_tree_r": "tree",
    "logistic_c": "gd", "sgd_c": "gd", "sgd_r": "gd",
    "perceptron_c": "perceptron",
    "ols_r": "linear", "ridge_r": "linear", "ridge_c": "linear",
    "knn_c": "knn", "knn_r": "knn",
    "bernoulli_nb_c": "nb",
}
FAMILY_NAMES = ("forest", "tree", "gd", "perceptron", "linear", "knn", "nb")
INDICATORS = ("acc_dist", "mfi", "bollinger", "keltner_width", "parabolic_sar")
# Units of the per-layer metrics that are not seconds.
LAYER_UNITS = {
    "candles.rows": "count",
    "models.fit_calls": "count",
    "models.fallback_fits": "count",
    "models.useful_fit_ratio": "ratio",
    "models.predict_calls": "count",
    "walkforward.steps": "count",
    "trading.trades": "count",
    "tuner.trials": "count",
    "tuner.trials_failed": "count",
    "tuner.trials_per_s": "1/s",
    "run.persist_bytes": "bytes",
    "run.cpu_per_wall": "ratio",
}


def _fit_info(args, result):
    kind = args[0].kind.value
    constant = type(result.estimator).__name__ in ("ConstantClassifier", "ConstantRegressor")
    return {"family": FAMILIES[kind], "fallback": constant}


# (module, attribute, span name, info(args, result) or None)
PATCHES = (
    ("quantroll.run", "run_experiment", "run.experiment", None),
    ("quantroll.run", "load_candles", "run.load", None),
    ("quantroll.run", "parse_candles_csv", "candles.parse", lambda a, r: {"rows": len(r)}),
    ("quantroll.run", "prepare_dataset", "run.prepare", None),
    ("quantroll.run", "validate_series", "candles.validate", None),
    ("quantroll.run", "build_features", "dataset.build_features", None),
    ("quantroll.run", "log_diff", "dataset.log_diff", None),
    ("quantroll.run", "label", "dataset.label", None),
    ("quantroll.run", "split", "dataset.split", None),
    ("quantroll.run", "_evaluate_job", "run.job", None),
    ("quantroll.run", "run_study", "tuner.study", lambda a, r: {
        "trials": len(r.trials), "failed": sum(t.error is not None for t in r.trials)}),
    ("quantroll.run", "evaluate_segment", "evaluation.segment", None),
    ("quantroll.run", "persist_artifact", "run.persist", None),
    ("quantroll.dataset", "log_diff", "dataset.log_diff", None),
    *(("quantroll.dataset", name, f"indicators.{name}", None) for name in INDICATORS),
    ("quantroll.tuner", "split", "dataset.split", None),
    ("quantroll.tuner", "sample_params", "tuner.sample", None),
    ("quantroll.tuner", "evaluate_segment", "evaluation.segment", None),
    ("quantroll.evaluation", "run_walkforward", "walkforward.run", lambda a, r: {"steps": len(r)}),
    ("quantroll.evaluation", "simulate", "trading.simulate", lambda a, r: {"trades": r[1].count}),
    ("quantroll.evaluation", "build_classifier_report", "metrics.report", None),
    ("quantroll.evaluation", "build_regressor_report", "metrics.report", None),
    ("quantroll.walkforward", "fit", "models.fit", _fit_info),
    ("quantroll.walkforward", "predict_class", "models.predict", None),
    ("quantroll.walkforward", "predict_value", "models.predict", None),
)
# Spans that also record process CPU time, for run.cpu_per_wall.
CPU_SPANS = frozenset({"run.job"})


class Span:
    __slots__ = ("id", "name", "parent", "thread", "start", "end", "cpu", "child_s", "info")

    def __init__(self, id, name, parent, thread):
        self.id = id
        self.name = name
        self.parent = parent
        self.thread = thread
        self.start = self.end = 0.0
        self.cpu = None
        self.child_s = 0.0
        self.info = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    def record(self) -> dict:
        return {
            "id": self.id, "name": self.name, "parent": self.parent, "thread": self.thread,
            "start": self.start, "end": self.end, "self_s": self.self_s, "cpu": self.cpu,
            "info": self.info,
        }


class Tracer:
    """Wraps every PATCHES entry for the lifetime of a ``with`` block.

    Each thread keeps its own stack of open spans. A span opened on a
    thread with an empty stack while another span is the outermost open
    one (a pool thread running a job) takes that outermost span as parent.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._ids = itertools.count(1)  # next() on a count is atomic under the GIL
        self._root: Span | None = None
        self._undo: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, info=None):
        tracer = self
        cpu = name in CPU_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._root
            span = Span(next(tracer._ids), name, parent.id if parent else None, threading.get_ident())
            is_root = parent is None
            if is_root:
                tracer._root = span
            stack.append(span)
            if cpu:
                cpu_start = time.process_time()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if info is not None:
                    span.info = info(args, result)
                return result
            except BaseException as exc:
                span.info = {"error": type(exc).__name__}
                raise
            finally:
                span.end = time.perf_counter()
                if cpu:
                    span.cpu = (cpu_start, time.process_time())
                stack.pop()
                if stack:  # same-thread parents only, so the update never races
                    stack[-1].child_s += span.duration
                if is_root:
                    tracer._root = None
                tracer.spans.append(span)

        return traced

    def __enter__(self) -> "Tracer":
        for module_name, attr, name, info in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._undo.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, info))
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def dump(self, path) -> None:
        """Write the spans out as JSON lines, once the traced run is over."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.record()) + "\n")


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and times of one traced run."""
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def named(name):
        return by_name.get(name, [])

    def total(name, attr="duration"):
        return sum(getattr(s, attr) for s in named(name))

    def info_sum(name, key):
        return sum(s.info.get(key, 0) for s in named(name))  # a span that raised has no count

    def p50_max(values):
        return (statistics.median(values), max(values)) if values else (0.0, 0.0)

    fits = named("models.fit")
    fallbacks = sum(1 for s in fits if s.info.get("fallback"))
    studies = {s.id for s in named("tuner.study")}
    trial_p50, trial_max = p50_max([s.duration for s in named("evaluation.segment") if s.parent in studies])
    jobs = named("run.job")
    job_p50, job_max = p50_max([s.duration for s in jobs])
    job_wall = max(s.end for s in jobs) - min(s.start for s in jobs)
    job_cpu = max(s.cpu[1] for s in jobs) - min(s.cpu[0] for s in jobs)
    m = {
        "candles.parse_s": total("candles.parse"),
        "candles.validate_s": total("candles.validate"),
        "candles.rows": info_sum("candles.parse", "rows"),
        "indicators.s": sum(total(f"indicators.{n}") for n in INDICATORS),
        "indicators.parabolic_sar_s": total("indicators.parabolic_sar"),
        "dataset.self_s": sum(
            total(n, "self_s")
            for n in ("dataset.build_features", "dataset.log_diff", "dataset.label", "dataset.split")
        ),
        "models.fit_calls": len(fits),
        "models.fit_s": total("models.fit"),
    }
    for family in FAMILY_NAMES:
        m[f"models.fit_s.{family}"] = sum(s.duration for s in fits if s.info.get("family") == family)
    m.update({
        "models.fallback_fits": fallbacks,
        "models.useful_fit_ratio": (len(fits) - fallbacks) / len(fits),
        "models.predict_calls": len(named("models.predict")),
        "models.predict_s": total("models.predict"),
        "walkforward.steps": info_sum("walkforward.run", "steps"),
        "walkforward.self_s": total("walkforward.run", "self_s"),
        "evaluation.self_s": total("evaluation.segment", "self_s"),
        "trading.simulate_s": total("trading.simulate"),
        "trading.trades": info_sum("trading.simulate", "trades"),
        "metrics.report_s": total("metrics.report"),
        "tuner.trials": info_sum("tuner.study", "trials"),
        "tuner.trials_failed": info_sum("tuner.study", "failed"),
        "tuner.sample_s": total("tuner.sample"),
        "tuner.self_s": total("tuner.study", "self_s"),
        "tuner.trial_s_p50": trial_p50,
        "tuner.trial_s_max": trial_max,
        "run.load_s": total("run.load"),
        "run.prepare_s": total("run.prepare"),
        "run.persist_s": total("run.persist"),
        "run.job_s_p50": job_p50,
        "run.job_s_max": job_max,
        "run.cpu_per_wall": job_cpu / job_wall,
    })
    return m
