"""Benchmark harness: config parsing, seeded runs, sweeps, CSV reporting.

A single JSON document configures a run:

    {
      "gmm":    {"dim": 2, "weights": [...], "means": [[...]], "variances": [[...]]},
      "reward": {"kind": "rare-mode", "params": {}, "beta": 0.1},
      "process": "vp-sde",
      "sampler": "rbf",
      "nfe": 500,
      "steps": 10,
      "seeds": [0, 1, 2],
      "sampler_opts": {"k": 25},
      "out": "results.csv"
    }

Omitted gmm/reward blocks fall back to the benchmark defaults.  Records are
written as CSV with the fixed column order

    seed,method,process,nfe_budget,steps,best_reward,diversity_mpd,nfe_used,wall_ms

floats serialised to 12 significant digits.  For a fixed (config, seed) all
columns except wall_ms are identical regardless of harness parallelism.
With ``jobs > 1`` each pool worker receives the per-process configs once,
through the pool initializer; a task is only ``(process, nfe, seed)``.

A record's ``diversity_mpd`` comes from the branched-proposal protocol,
which depends on the mixture, process, steps and seed but not on the sampler
or the budget.  ``run_experiment`` reads it from a bounded cache keyed by
``(gmm, process, steps, seed)``, the mixture by identity as in
``analytic_flow._at_time``, so each Python process runs it once per key.
"""

from __future__ import annotations

import csv
import inspect
import json
import math
import os
import time
from dataclasses import dataclass, field, fields, replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import rng as streams
from .analytic_flow import GaussianMixtureModel, default_benchmark_gmm, velocity_at
from .engine import PROCESS_NAMES, StepPlan, denoise_interval, make_plan
from .errors import ConfigError, InvariantError
from .rewards import (
    RewardSpec,
    evaluate_reward,
    rare_mode_reward,
    ring_reward,
    target_point_reward,
)
from .samplers import SAMPLER_NAMES, SAMPLERS, SearchBudget

DEFAULT_SWEEP_BUDGETS = (50, 100, 300, 500, 1000)
DIVERSITY_BRANCHES = 50
# Largest NFE budget a config or sweep may ask for.  Samplers draw their
# particles as one block (bon holds nfe/steps latents at once), so the cap
# bounds a run's memory as well as its time.
MAX_NFE = 1_000_000


def _integer(name: str, value) -> int:
    """``value``, which must be an integer: 10.7, true or "12" is an error."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return value


def _number(name: str, value) -> float:
    """``value``, which must be a JSON number: true or "0.5" is an error."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    return float(value)


def _numbers(name: str, value) -> np.ndarray:
    """``value`` as a float array; each entry, at any depth, must be a JSON number."""
    pending = [value]
    while pending:
        v = pending.pop()
        if isinstance(v, list):
            pending.extend(v)
        else:
            _number(f"each entry of {name}", v)
    return np.asarray(value, dtype=float)


def _check_nfe(nfe: int) -> None:
    if nfe > MAX_NFE:
        raise ConfigError(f"nfe {nfe} exceeds the cap of {MAX_NFE}")


@dataclass(frozen=True)
class ExperimentConfig:
    gmm: GaussianMixtureModel
    reward: RewardSpec
    process: str
    sampler: str
    nfe: int
    steps: int
    seeds: tuple[int, ...]
    sampler_opts: dict = field(default_factory=dict)
    out: str | None = None

    def __post_init__(self) -> None:
        named = [("nfe", self.nfe), ("steps", self.steps)] + [("seed", s) for s in self.seeds]
        for name, value in named:
            _integer(name, value)
        if self.process not in PROCESS_NAMES:
            raise ConfigError(f"unknown process {self.process!r}")
        if self.sampler not in SAMPLER_NAMES:
            raise ConfigError(f"unknown sampler {self.sampler!r}")
        if self.steps < 1:
            raise ConfigError("steps must be >= 1")
        if self.nfe < self.steps:
            raise ConfigError("nfe must be at least steps")
        _check_nfe(self.nfe)
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        if min(self.seeds) < 0:
            raise ConfigError(f"seeds must be nonnegative, got {min(self.seeds)}")
        if self.reward.kind == "target-point":
            shape = self.reward.params["target"].shape
            if shape != (self.gmm.dim,):
                raise ConfigError(
                    f"target-point target has shape {shape}, the gmm has dim {self.gmm.dim}"
                )
        _check_sampler_opts(self.sampler, self.sampler_opts)


def _check_sampler_opts(sampler: str, opts: dict) -> None:
    """Reject options the sampler's signature lacks or values whose JSON type
    differs from the option's default (an int option takes no float)."""
    params = inspect.signature(SAMPLERS[sampler]).parameters.values()
    defaults = {p.name: p.default for p in params if p.default is not p.empty}
    for name, value in opts.items():
        if name not in defaults:
            raise ConfigError(
                f"sampler {sampler!r} has no option {name!r}; "
                f"its options are {sorted(defaults)}"
            )
        kind = type(defaults[name])
        allowed = (int, float) if kind is float else kind
        if isinstance(value, bool) != (kind is bool) or not isinstance(value, allowed):
            raise ConfigError(f"sampler option {name!r} must be {kind.__name__}, got {value!r}")


def _gmm_from_dict(doc: dict) -> GaussianMixtureModel:
    try:
        gmm = GaussianMixtureModel(
            **{key: _numbers(f"gmm.{key}", doc[key]) for key in ("weights", "means", "variances")}
        )
    except KeyError as exc:
        raise ConfigError(f"gmm config missing key {exc}") from exc
    if "dim" in doc and _integer("gmm.dim", doc["dim"]) != gmm.dim:
        raise ConfigError(f"gmm dim {doc['dim']} does not match means of dim {gmm.dim}")
    return gmm


def _object(doc: dict, key: str, name: str) -> dict:
    """``doc[key]`` (default ``{}``), which must be a JSON object."""
    value = doc.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be a JSON object, got {value!r}")
    return value


def _reward_from_dict(doc: dict, gmm: GaussianMixtureModel) -> RewardSpec:
    kind = doc.get("kind", "rare-mode")
    params = _object(doc, "params", "reward.params")
    beta = _number("reward.beta", doc.get("beta", 0.1))
    if kind == "target-point":
        if "target" not in params:
            raise ConfigError("target-point reward needs params.target")
        return target_point_reward(_numbers("reward.params.target", params["target"]), beta)
    if kind == "ring":
        if "radius" not in params:
            raise ConfigError("ring reward needs params.radius")
        return ring_reward(_number("reward.params.radius", params["radius"]), beta)
    if kind == "rare-mode":
        component = params.get("component")
        if component is not None:
            _integer("reward.params.component", component)
        return rare_mode_reward(gmm, component, beta)
    raise ConfigError(f"unknown reward kind {kind!r}")


def load_config(doc: dict | str | Path) -> ExperimentConfig:
    """Build an ExperimentConfig from a dict or a JSON file's path (str or Path)."""
    if isinstance(doc, (str, Path)):
        path = Path(doc)
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    out = doc.get("out")
    if out is not None and not (isinstance(out, str) and out):
        raise ConfigError(f"out must be a non-empty path string or null, got {out!r}")
    try:
        gmm = _gmm_from_dict(doc["gmm"]) if "gmm" in doc else default_benchmark_gmm()
        reward = _reward_from_dict(_object(doc, "reward", "reward"), gmm)
        return ExperimentConfig(
            gmm=gmm,
            reward=reward,
            process=doc.get("process", "vp-sde"),
            sampler=doc.get("sampler", "rbf"),
            nfe=doc.get("nfe", 500),
            steps=doc.get("steps", 10),
            seeds=tuple(doc.get("seeds", [0])),
            sampler_opts=dict(_object(doc, "sampler_opts", "sampler_opts")),
            out=out,
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(str(exc)) from exc


@dataclass(frozen=True)
class RunRecord:
    """One CSV row; it validates itself on construction."""

    seed: int
    method: str
    process: str
    nfe_budget: int
    steps: int
    best_reward: float
    diversity_mpd: float
    nfe_used: int
    wall_ms: float

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if self.nfe_used > self.nfe_budget:
            raise InvariantError(
                f"record spent {self.nfe_used} NFEs over budget {self.nfe_budget}"
            )
        if not self.diversity_mpd >= 0.0:
            raise InvariantError("diversity_mpd must be nonnegative")
        if not math.isfinite(self.best_reward):
            raise InvariantError("best_reward must be finite")


CSV_COLUMNS = tuple(f.name for f in fields(RunRecord))


def diversity_mpd(points) -> float:
    """Mean pairwise Euclidean distance over >= 2 points."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 2:
        raise ConfigError("diversity needs at least two points")
    dists = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
    iu = np.triu_indices(pts.shape[0], 1)
    return float(dists[iu].mean())


def branched_proposals(plan: StepPlan, gmm: GaussianMixtureModel, seed: int) -> np.ndarray:
    """The same-initial-latent diversity protocol.

    DIVERSITY_BRANCHES branches share one initial latent and diverge from
    the first denoise step on, each evolving under the plan's own
    (stochastic) dynamics with a per-branch noise stream; for deterministic
    plans all branches coincide and the diversity is exactly zero.  Returns
    the endpoints, shape (DIVERSITY_BRANCHES, dim).
    """
    velocity = lambda x, t: velocity_at(gmm, plan.src_schedule, t, x)
    x1 = streams.normals(seed, (streams.DIVERSITY, 0), (gmm.dim,))
    xs = np.tile(x1, (DIVERSITY_BRANCHES, 1))
    for i in range(plan.steps):
        z = None
        if plan.g[i]:
            z = streams.branch_normals(seed, (streams.DIVERSITY, i + 1), DIVERSITY_BRANCHES, gmm.dim)
        xs = denoise_interval(plan, xs, i, z, velocity)
    return xs


# The cache keys each mixture by identity and holds a reference to it, so
# its id cannot be reused by another mixture while the entry lives.
@lru_cache(maxsize=256)
def _protocol_diversity(gmm: GaussianMixtureModel, process: str, steps: int, seed: int) -> float:
    """``diversity_mpd`` of the branched-proposal protocol at these arguments."""
    return diversity_mpd(branched_proposals(make_plan(process, steps), gmm, seed))


def run_experiment(config: ExperimentConfig, seed: int, nfe: int | None = None) -> RunRecord:
    """Execute one seeded run.  Its ``diversity_mpd`` is the branched-proposal
    protocol's, from ``_protocol_diversity``: computed once per
    ``(gmm, process, steps, seed)`` in each Python process."""
    nfe = config.nfe if nfe is None else nfe
    plan = make_plan(config.process, config.steps)
    start = time.perf_counter()
    budget = SearchBudget(nfe)
    sampler = SAMPLERS[config.sampler]
    result = sampler(plan, config.gmm, config.reward, budget, seed, **config.sampler_opts)
    wall_ms = (time.perf_counter() - start) * 1000.0
    div = _protocol_diversity(config.gmm, config.process, config.steps, seed)
    return RunRecord(
        seed=seed,
        method=config.sampler,
        process=config.process,
        nfe_budget=nfe,
        steps=config.steps,
        best_reward=result.best_reward,
        diversity_mpd=div,
        nfe_used=result.nfe_used,
        wall_ms=wall_ms,
    )


_WORKER_CONFIGS: dict[str, ExperimentConfig] = {}


def _init_worker(configs: dict[str, ExperimentConfig]) -> None:
    """Pool initializer: each worker receives the per-process configs once."""
    _WORKER_CONFIGS.update(configs)


def _record(configs: dict[str, ExperimentConfig], task) -> RunRecord:
    process, nfe, seed = task
    if nfe is None:
        return diversity_record(configs[process], seed)
    return run_experiment(configs[process], seed, nfe)


def _worker_record(task) -> RunRecord:
    return _record(_WORKER_CONFIGS, task)


def _records(config: ExperimentConfig, processes, budgets, jobs: int) -> list[RunRecord]:
    """One record per (process, budget, seed), sorted; a budget of None
    makes a diversity record instead of a sampler run.  Tasks run in
    (process, seed, budget) order, so a serial run reuses each protocol
    diversity at once.  The pool has no more workers than tasks or cores."""
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    configs = {p: replace(config, process=p) for p in processes}
    tasks = [(p, nfe, seed) for p in processes for seed in config.seeds for nfe in budgets]
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(jobs, len(tasks), cores or 1)
    if workers <= 1:
        records = [_record(configs, t) for t in tasks]
    else:
        # Imported here, so a run that starts no pool never imports
        # multiprocessing (about a third of the CLI's import time).
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=(configs,)
        ) as pool:
            records = list(pool.map(_worker_record, tasks))
    return sort_records(records)


def run_table(config: ExperimentConfig, jobs: int = 1) -> list[RunRecord]:
    """One record per configured seed."""
    return _records(config, [config.process], [config.nfe], jobs)


def sweep(
    config: ExperimentConfig,
    budgets=DEFAULT_SWEEP_BUDGETS,
    jobs: int = 1,
) -> list[RunRecord]:
    """One record per (budget, seed); budgets must be non-empty and ascending."""
    budgets = [_integer("budget", b) for b in budgets]
    if not budgets or budgets != sorted(budgets):
        raise ConfigError(f"budgets must be non-empty and sorted ascending, got {budgets}")
    for b in budgets:
        _check_nfe(b)
    return _records(config, [config.process], budgets, jobs)


def ablate_interpolant(config: ExperimentConfig, jobs: int = 1) -> list[RunRecord]:
    """Run all five processes under identical seeds and budget."""
    if config.sampler == "bon":
        raise ConfigError("ablation needs a sampler with stochastic proposals")
    return _records(config, PROCESS_NAMES, [config.nfe], jobs)


def diversity_record(config: ExperimentConfig, seed: int) -> RunRecord:
    """Diversity-only record: no sampler run; best_reward is the best branch.

    It runs ``branched_proposals`` itself, past ``_protocol_diversity``'s
    cache, because its ``wall_ms`` is the protocol's own time.  That time
    leaves out drawing the noise when ``rng``'s cache of 128 blocks still
    holds the seed's blocks: the protocol's keys name no process, so in
    seed-major in-process use every process after the first finds them
    there.  The CLI's tables run process-major, so a seed comes back only
    after every other seed: at 10 steps a seed draws 10 blocks, so only a
    table of 12 seeds or fewer still finds them."""
    plan = make_plan(config.process, config.steps)
    start = time.perf_counter()
    endpoints = branched_proposals(plan, config.gmm, seed)
    wall_ms = (time.perf_counter() - start) * 1000.0
    rewards = np.asarray(evaluate_reward(config.reward, endpoints))
    protocol_nfe = DIVERSITY_BRANCHES * config.steps  # measurement cost, not the search budget
    return RunRecord(
        seed=seed,
        method="diversity",
        process=config.process,
        nfe_budget=protocol_nfe,
        steps=config.steps,
        best_reward=float(rewards.max()),
        diversity_mpd=diversity_mpd(endpoints),
        nfe_used=protocol_nfe,
        wall_ms=wall_ms,
    )


def diversity_table(config: ExperimentConfig, jobs: int = 1) -> list[RunRecord]:
    """Branched-proposal diversity for all five processes across seeds."""
    return _records(config, PROCESS_NAMES, [None], jobs)


def sort_records(records: list[RunRecord]) -> list[RunRecord]:
    """Deterministic output order regardless of execution order."""
    return sorted(
        records, key=lambda r: (r.seed, r.nfe_budget, PROCESS_NAMES.index(r.process), r.method)
    )


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def write_csv(records: list[RunRecord], path: str | Path) -> None:
    """Write records with the fixed column order; a path that cannot be
    written is a ConfigError."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for rec in records:
                writer.writerow([_fmt(getattr(rec, col)) for col in CSV_COLUMNS])
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
