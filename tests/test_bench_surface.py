"""The parts of quantroll that the benchmark under perfbench/ relies on.

The benchmark wraps functions by (module, attribute) and builds run configs
from its workload table; a rename or a schema change here would otherwise
only show when the benchmark runs. The perfbench modules are loaded by file
path, so nothing under perfbench/ needs to be importable as a package.
"""
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_config_parses_and_round_trips(name, tmp_path):
    config = RunConfig.from_dict(workloads.WORKLOADS[name].config(str(tmp_path / "c.csv"), str(tmp_path / "runs")))
    assert RunConfig.from_dict(config.to_dict()) == config
