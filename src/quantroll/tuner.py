"""Seeded random-search hyperparameter optimization maximizing backtest PNL.

Each trial draws every dimension from a counter-based generator keyed by
(trial seed, dimension index), so trials are independent, reproducible, and
safe to evaluate in any order or in parallel.
"""
from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import LabeledDataset, SegmentSplit, split
from .errors import INTEGER, POSITIVE_INTEGER, AllTrialsFailed
from .metrics import ClassifierReport, RegressorReport
from .models import Categorical, HyperParamSpace, IntRange, LogUniform, ModelSpec, Uniform, default_space
from .evaluation import evaluate_segment
from .walkforward import WalkForwardConfig

logger = logging.getLogger(__name__)

_U64 = (1 << 64) - 1


@dataclass
class Trial:
    index: int
    params: dict
    objective: float  # PNL percent; -inf when the trial errored
    error: str | None = None
    report: ClassifierReport | RegressorReport | None = None

    def to_record(self) -> dict:
        # JSON has no -inf; failed trials serialize objective as null + error
        record = {
            "index": self.index,
            "params": self.params,
            "objective": None if math.isinf(self.objective) and self.objective < 0 else self.objective,
        }
        if self.error is not None:
            record["error"] = self.error
        return record


@dataclass
class TunerResult:
    model: str
    window: int
    best: Trial
    trials: list[Trial] = field(default_factory=list)

    def to_jsonl(self) -> str:
        study = {"model": self.model, "window": self.window}
        return "".join(json.dumps({**study, **t.to_record()}, sort_keys=True) + "\n" for t in self.trials)


def _derive_seed(*parts: int) -> int:
    """Stable 64-bit seed from integers, each masked to 64 bits; never Python's salted hash()."""
    ss = np.random.SeedSequence([int(p) & _U64 for p in parts])
    return int(ss.generate_state(1, np.uint64)[0])


def derive_trial_seed(master_seed: int, trial_index: int) -> int:
    return _derive_seed(master_seed, trial_index)


def _dimension_rng(trial_seed: int, dim_index: int) -> np.random.Generator:
    key = np.array([trial_seed & _U64, dim_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_params(space: HyperParamSpace, trial_seed: int) -> dict:
    """One independent draw per dimension; loguniform is uniform in log space."""
    params = {}
    for dim_index, (name, dist) in enumerate(space.dims):
        rng = _dimension_rng(trial_seed, dim_index)
        if isinstance(dist, Uniform):
            params[name] = float(rng.uniform(dist.lo, dist.hi))
        elif isinstance(dist, LogUniform):
            params[name] = float(math.exp(rng.uniform(math.log(dist.lo), math.log(dist.hi))))
        elif isinstance(dist, IntRange):
            params[name] = int(rng.integers(dist.lo, dist.hi + 1))
        elif isinstance(dist, Categorical):
            params[name] = dist.choices[int(rng.integers(0, len(dist.choices)))]
        else:
            raise TypeError(f"unknown distribution {dist!r}")
    return params


def run_study(
    kind,
    data: LabeledDataset,
    seg_split: SegmentSplit,
    config: WalkForwardConfig,
    n_trials: int = 100,
    seed: int = 0,
) -> TunerResult:
    """Random-search study of n_trials trials from the study seed over one
    model kind, walked, traded and scored by config, each trial scored by its
    PNL on the backtest segment.

    Failed trials score -inf (with the error recorded) instead of aborting
    the study; they can never become best unless every trial failed, which
    raises AllTrialsFailed.
    """
    POSITIVE_INTEGER.check("n_trials", n_trials)
    INTEGER.check("seed", seed)
    train_view, backtest_view, _ = split(data, seg_split)
    space = default_space(kind)

    trials: list[Trial] = []
    best: Trial | None = None
    for index in range(n_trials):
        trial_seed = derive_trial_seed(seed, index)
        params = sample_params(space, trial_seed)
        spec = ModelSpec(kind, params, seed=trial_seed)
        try:
            outcome = evaluate_segment(backtest_view, spec, config, train_view=train_view)
            trial = Trial(index, params, outcome.report.pnl_percent, report=outcome.report)
        except Exception as exc:  # noqa: BLE001 - a bad draw must not sink the study
            logger.warning("trial %d failed: %s", index, exc)
            trial = Trial(index, params, float("-inf"), error=f"{type(exc).__name__}: {exc}")
        trials.append(trial)
        if trial.error is None and (best is None or trial.objective > best.objective):
            best = trial

    if best is None:
        raise AllTrialsFailed(f"all {n_trials} trials failed")
    return TunerResult(space.kind, config.window, best, trials)
