"""The parts of quantroll that the benchmark under perfbench/ relies on.

The benchmark wraps functions by (module, attribute) and builds run configs
from its workload table; a rename or a schema change here would otherwise
only show when the benchmark runs. The perfbench modules are loaded by file
path, so nothing under perfbench/ needs to be importable as a package.
"""
import importlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from quantroll.models import ALL_KINDS, CLASSIFIER, ModelSpec, fit, task_of
from quantroll.run import RunConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # leave perfbench/ untouched
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write_bytecode
    return module


tracing = _load("tracing")
workloads = _load("workloads")


@pytest.mark.parametrize("module_name, attr", sorted({(m, a) for m, a, _, _ in tracing.PATCHES}))
def test_traced_name_resolves(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr))


@pytest.mark.parametrize("kind", [k.value for k in ALL_KINDS])
def test_fit_info_flags_fallback_fits(kind):
    """models.fallback_fits counts the fits whose info says "fallback", which
    _fit_info reads from the fitted estimator's class name: the constant model
    of a one-row window and of a classifier's single-class window."""
    spec = ModelSpec(kind)
    X = np.array([[0.5, -1.0], [1.5, 2.0], [2.5, 0.0], [3.5, 1.0]])
    classifier = task_of(kind) == CLASSIFIER
    y = np.array([1.0, -1.0, -1.0, 1.0]) if classifier else np.array([0.01, -0.02, 0.03, 0.0])

    def info(X, y):
        return tracing._fit_info((spec, X, y), fit(spec, X, y))

    assert info(X, y) == {"family": tracing.FAMILIES[kind], "fallback": False}
    fallbacks = [(X[:1], y[:1])]
    if classifier:
        fallbacks += [(X, np.ones(4)), (X, -np.ones(4))]
    for Xw, yw in fallbacks:
        assert info(Xw, yw) == {"family": tracing.FAMILIES[kind], "fallback": True}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_config_parses_and_round_trips(name, tmp_path):
    config = RunConfig.from_dict(workloads.WORKLOADS[name].config(str(tmp_path / "c.csv"), str(tmp_path / "runs")))
    assert RunConfig.from_dict(config.to_dict()) == config


SMALL_WORKLOADS = {
    "trailing": workloads.Workload(
        name="surface", bars=150, interval=workloads.DAY, vol=0.02, models=("knn_c", "sgd_r"), windows=(7,),
        mode="trailing", backtest_rows=20, forward_rows=10, tuner_trials=2, retrain_stride=3,
    ),
    # the tuned forest and gradient-descent kinds, whose trailing refits share seeded draws
    "trailing_seeded": workloads.Workload(
        name="surface", bars=150, interval=workloads.DAY, vol=0.02, models=("random_forest_c", "sgd_r"), windows=(7,),
        mode="trailing", backtest_rows=20, forward_rows=10, tuner_trials=2, retrain_stride=3,
    ),
    # one fit per segment, then one one-row prediction per step
    "global": workloads.Workload(
        name="surface", bars=150, interval=workloads.DAY, vol=0.02, models=("logistic_c", "bernoulli_nb_c", "ols_r"),
        windows=(7,), mode="global", train_rows=40, backtest_rows=20, forward_rows=10, tuner_trials=2,
    ),
}


@pytest.fixture(params=sorted(SMALL_WORKLOADS))
def small_workload(request, tmp_path):
    """A small workload with 2 tuner trials, its CSV written, and its run config."""
    workload = SMALL_WORKLOADS[request.param]
    csv_path = tmp_path / "c.csv"
    csv_path.write_text(workloads.random_walk_csv(workload, seed=1))
    return workload, RunConfig.from_dict(workload.config(str(csv_path), str(tmp_path / "runs")))


def test_worker_setup_and_timed_calls(small_workload):
    """The calls perfbench/worker.py makes: its set-up steps, then a
    persisted run under an explicit run id."""
    workload, config = small_workload
    run = importlib.import_module("quantroll.run")
    series = run.load_candles(config)
    assert len(series) == workload.bars
    dataset = run.prepare_dataset(series, config.indicators)
    assert len(dataset.class_target) == workload.bars
    split = config.segment_split(series)
    bounds = config.to_dict()["split"]
    assert split.forward == (bounds["forward_start"], bounds["forward_end"])
    artifact = run.run_experiment(config, run_id="run0")
    root = Path(config.out_dir) / "run0"
    assert len(artifact.reports) == workload.expected()["reports"]
    assert len(json.loads((root / "report.json").read_text(encoding="utf-8"))["reports"]) == len(artifact.reports)
    assert len(list((root / "equity").glob("*.csv"))) == len(artifact.reports)
    assert (root / "trials.jsonl").read_text(encoding="utf-8").count("\n") == workload.expected()["trials"]


def test_traced_counts_match_reports_and_closed_forms(small_workload):
    """The tracer's info callbacks read quantroll's return values (the trade
    ledger's count, the fitted model's kind and estimator); a change there
    must keep the layer counts the benchmark checks. In global mode that is
    one fit per segment and one predict call per step, which batching the
    predictions or sharing the two segments' fit would change."""
    workload, config = small_workload
    run = importlib.import_module("quantroll.run")
    with tracing.Tracer() as tracer:
        artifact = run.run_experiment(config, persist=False)
    layers = tracing.layer_metrics(tracer.spans)
    expected = workload.expected()
    assert len(artifact.reports) == expected["reports"]
    assert layers["tuner.trials_failed"] == 0
    assert layers["trading.trades"] > 0
    assert layers["trading.trades"] == sum(r.n_trades for r in artifact.reports) + sum(
        t.report.n_trades for result in artifact.trials.values() for t in result.trials
    )
    assert layers["models.fit_calls"] == expected["fits"]
    assert layers["models.predict_calls"] == layers["walkforward.steps"] == expected["steps"]
    assert layers["tuner.trials"] == expected["trials"]
    families = {tracing.FAMILIES[kind] for kind in workload.models}
    assert all(layers[f"models.fit_s.{family}"] > 0 for family in families)
