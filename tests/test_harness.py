import csv
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flowsearch import harness
from flowsearch.engine import PROCESS_NAMES
from flowsearch.errors import ConfigError, InvariantError
from flowsearch.harness import (
    CSV_COLUMNS,
    MAX_NFE,
    RunRecord,
    _protocol_diversity,
    branched_proposals,
    diversity_mpd,
    diversity_record,
    diversity_table,
    load_config,
    run_experiment,
    run_table,
    sweep,
    write_csv,
)
from flowsearch.engine import make_plan
from flowsearch.analytic_flow import _at_time, default_benchmark_gmm

from child import python


def small_config(**overrides):
    doc = {
        "reward": {"kind": "rare-mode"},
        "process": "vp-sde",
        "sampler": "svdd",
        "nfe": 60,
        "steps": 6,
        "seeds": [0, 1],
        "sampler_opts": {"k": 5},
    }
    doc.update(overrides)
    return load_config(doc)


def test_load_config_defaults_and_errors(tmp_path):
    cfg = small_config()
    assert cfg.gmm.n_components == 4
    assert cfg.reward.kind == "rare-mode"
    with pytest.raises(ConfigError):
        load_config({"process": "heun"})
    with pytest.raises(ConfigError):
        load_config({"sampler": "mcts"})
    with pytest.raises(ConfigError):
        load_config({"nfe": 5, "steps": 10})
    with pytest.raises(ConfigError):
        load_config({"reward": {"kind": "target-point"}})  # missing target
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json")


def test_a_non_object_is_echoed_in_at_most_200_characters():
    # the message quotes the value it refuses, cut to 200 characters, so a
    # large array in place of the config or a block cannot flood stderr
    for doc in ([1] * 100_000, {"gmm": [1] * 100_000}):
        with pytest.raises(ConfigError) as err:
            load_config(doc)
        assert " must be a JSON object, got [1, 1, 1" in str(err.value)
        assert len(str(err.value)) < 250


@pytest.mark.parametrize(
    "overrides",
    [{"seeds": "12"}, {"seeds": [1.9, 2]}, {"seeds": [0, True]}, {"seeds": ["1"]},
     {"seeds": 12}, {"nfe": 500.9}, {"nfe": 60.0}, {"nfe": "60"}, {"nfe": True},
     {"steps": 10.7}, {"steps": 6.0}, {"steps": False}],
)
def test_load_config_rejects_non_integer_counts(overrides):
    # nfe, steps and every seed must be JSON integers: a float, string or
    # bool is an error, never truncated or split into digits
    with pytest.raises(ConfigError):
        small_config(**overrides)


def test_config_gmm_roundtrip():
    doc = {
        "gmm": {
            "dim": 1,
            "weights": [0.6, 0.4],
            "means": [[-1.0], [2.0]],
            "variances": [[0.5], [0.5]],
        },
        "reward": {"kind": "ring", "params": {"radius": 1.0}},
        "nfe": 20,
        "steps": 4,
    }
    cfg = load_config(doc)
    assert cfg.gmm.dim == 1
    with pytest.raises(ConfigError):
        load_config({**doc, "gmm": {**doc["gmm"], "dim": 3}})


def test_diversity_mpd_examples():
    assert diversity_mpd([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0]]) == 0.0
    assert diversity_mpd([[0.0, 0.0], [3.0, 4.0]]) == pytest.approx(5.0)
    pts = [[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]]
    assert diversity_mpd(pts) == pytest.approx(4.0)
    with pytest.raises(ConfigError):
        diversity_mpd([[1.0, 1.0]])


def test_branched_proposals_deterministic_plan_collapses():
    gmm = default_benchmark_gmm()
    endpoints = branched_proposals(make_plan("linear-ode", 6), gmm, seed=0)
    assert diversity_mpd(endpoints) == 0.0


def test_run_experiment_deterministic():
    cfg = small_config()
    rec1 = run_experiment(cfg, seed=0)
    _protocol_diversity.cache_clear()  # the second call recomputes the diversity
    rec2 = run_experiment(cfg, seed=0)
    assert rec1.best_reward == rec2.best_reward
    assert rec1.diversity_mpd == rec2.diversity_mpd
    assert rec1.nfe_used == rec2.nfe_used <= cfg.nfe
    rec3 = run_experiment(cfg, seed=1)
    assert rec3.best_reward != rec1.best_reward


def test_run_experiment_diversity_is_the_protocol_diversity():
    # Every config shares one mixture, so a cache key that dropped the
    # process or the steps would hand one plan's diversity to another.  The
    # cached value is bitwise the protocol's own, as a diversity record
    # measures it, and a recomputation after clearing the cache agrees.
    base = small_config(seeds=[3])
    _protocol_diversity.cache_clear()
    for process in PROCESS_NAMES:
        for steps in (4, 6):
            cfg = replace(base, process=process, steps=steps)
            cached = run_experiment(cfg, seed=3).diversity_mpd
            assert cached == diversity_record(cfg, seed=3).diversity_mpd
            _protocol_diversity.cache_clear()
            assert run_experiment(cfg, seed=3).diversity_mpd == cached


def test_sweep_runs_the_protocol_once_per_seed(monkeypatch):
    cfg = small_config()
    budgets = [12, 18, 24, 30, 36]
    _protocol_diversity.cache_clear()
    cached = sweep(cfg, budgets)
    assert _protocol_diversity.cache_info().misses == len(cfg.seeds)

    record = harness._record
    tasks = []

    def uncached_record(configs, task):
        tasks.append(task)
        _protocol_diversity.cache_clear()
        return record(configs, task)

    monkeypatch.setattr(harness, "_record", uncached_record)
    uncached = sweep(cfg, budgets)
    # a seed's budgets run back to back, so any seed count reuses the entry
    assert tasks == [(cfg.process, b, s) for s in cfg.seeds for b in budgets]
    assert len(cached) == len(budgets) * len(cfg.seeds)
    assert [replace(r, wall_ms=0.0) for r in cached] == [replace(r, wall_ms=0.0) for r in uncached]


def test_record_validation():
    # a record validates itself on construction, replace() included
    base = dict(seed=0, method="bon", process="linear-ode", nfe_budget=10, steps=2,
                best_reward=0.0, diversity_mpd=0.0, nfe_used=5, wall_ms=1.0)
    good = RunRecord(**base)
    good.validate()
    for bad in ({"diversity_mpd": -1.0}, {"nfe_used": 11}, {"best_reward": float("nan")}):
        with pytest.raises(InvariantError):
            RunRecord(**{**base, **bad})
        with pytest.raises(InvariantError):
            replace(good, **bad)


def test_write_csv_schema(tmp_path):
    cfg = small_config()
    records = run_table(cfg)
    out = tmp_path / "rows.csv"
    write_csv(records, out)
    with out.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(CSV_COLUMNS)
    assert len(rows) == 1 + len(cfg.seeds)
    assert [r[0] for r in rows[1:]] == ["0", "1"]  # sorted by seed


def test_sweep_budgets_must_ascend():
    cfg = small_config()
    for budgets in ([100, 50], [50, 50], [12, 24, 24]):
        with pytest.raises(ConfigError, match="strictly ascending"):
            sweep(cfg, budgets=budgets)
    records = sweep(cfg, budgets=[12, 24])
    assert len(records) == 2 * len(cfg.seeds)
    assert [(r.seed, r.nfe_budget) for r in records] == [
        (0, 12), (0, 24), (1, 12), (1, 24)
    ]


@pytest.mark.parametrize("budgets", [[12.5, 24], [12, 24.0], [True, 24], ["12", 24]])
def test_sweep_budgets_must_be_integers(budgets):
    # a library caller's budget is never truncated: 12.5 does not run at 12
    with pytest.raises(ConfigError, match="budget"):
        sweep(small_config(), budgets=budgets)


def test_nfe_cap_is_validated_before_any_run():
    # only the validation: a config at the cap loads, one above it does not
    assert small_config(nfe=MAX_NFE, sampler="bon", sampler_opts={}).nfe == MAX_NFE
    with pytest.raises(ConfigError, match="cap"):
        small_config(nfe=MAX_NFE + 1)
    with pytest.raises(ConfigError, match="cap"):
        sweep(small_config(), budgets=[12, MAX_NFE + 1])


def test_diversity_table_covers_all_processes():
    cfg = small_config(seeds=[0])
    records = diversity_table(cfg)
    assert len(records) == 5
    by_proc = {r.process: r for r in records}
    assert by_proc["linear-ode"].diversity_mpd == 0.0
    assert all(r.method == "diversity" for r in records)


def test_diversity_table_shares_the_oracle_cache_across_seeds():
    # Every task of a table reuses one mixture, so more seeds cost no new
    # per-time cache entries.
    misses = []
    for seeds in ([0], [0, 1, 2]):
        _at_time.cache_clear()
        diversity_table(small_config(seeds=seeds))
        misses.append(_at_time.cache_info().misses)
    assert misses[1] <= misses[0]


TWO_MODES = {"weights": [0.5, 0.5], "means": [[4.0, 4.0], [-4.0, -4.0]],
             "variances": [[1.0, 1.0], [1.0, 1.0]]}

# (config overrides, the field its error names): a float field takes a JSON
# number, never a bool or a string that float() would coerce
NON_NUMBER_FLOATS = [
    ({"reward": {"kind": "rare-mode", "beta": True}}, "reward.beta"),
    ({"reward": {"kind": "rare-mode", "beta": "0.5"}}, "reward.beta"),
    ({"reward": {"kind": "ring", "params": {"radius": "3"}}}, "reward.params.radius"),
    ({"reward": {"kind": "ring", "params": {"radius": True}}}, "reward.params.radius"),
    ({"reward": {"kind": "target-point", "params": {"target": ["1", 1.0]}}},
     "reward.params.target"),
    ({"reward": {"kind": "target-point", "params": {"target": [1.0, True]}}},
     "reward.params.target"),
    ({"gmm": {**TWO_MODES, "weights": ["0.5", 0.5]}}, "gmm.weights"),
    ({"gmm": {**TWO_MODES, "means": [[4.0, True], [-4.0, -4.0]]}}, "gmm.means"),
    ({"gmm": {**TWO_MODES, "variances": [[1.0, 1.0], [1.0, "1"]]}}, "gmm.variances"),
]
NON_NUMBER_FLOAT_IDS = [
    "beta-bool", "beta-string", "radius-string", "radius-bool", "target-string",
    "target-bool", "weights-string", "means-bool", "variances-string",
]


@pytest.mark.parametrize("overrides, name", NON_NUMBER_FLOATS, ids=NON_NUMBER_FLOAT_IDS)
def test_load_config_rejects_non_number_floats(overrides, name):
    with pytest.raises(ConfigError, match=name):
        small_config(**overrides)


def _write_config(tmp_path, **overrides):
    doc = {
        "reward": {"kind": "rare-mode"},
        "process": "linear-sde",
        "sampler": "svdd",
        "nfe": 40,
        "steps": 4,
        "seeds": [0, 1, 2],
        "sampler_opts": {"k": 5},
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def _read_rows_without_wall(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    drop = list(CSV_COLUMNS).index("wall_ms")
    return [tuple(v for i, v in enumerate(row) if i != drop) for row in rows]


@pytest.mark.parametrize("command", ["run", "sweep", "ablate", "diversity"])
def test_cli_run_and_parallel_determinism(tmp_path, command):
    # identical rows (wall_ms excluded, per the determinism contract) for
    # repeated runs and for --jobs 1 vs --jobs 8; unsorted seeds and a
    # non-default reward check that workers get the whole config
    cfg_path = _write_config(
        tmp_path,
        seeds=[3, 0, 2, 1],
        reward={"kind": "target-point", "params": {"target": [1.0, -2.0]}, "beta": 0.2},
    )
    extra = ["--budgets", "12,40"] if command == "sweep" else []
    outs = []
    for i, jobs in enumerate((1, 1, 8)):
        out = tmp_path / f"out{i}.csv"
        proc = python("-m", "flowsearch.cli", command, str(cfg_path),
                      "--out", str(out), "--jobs", str(jobs), *extra)
        assert proc.returncode == 0, proc.stderr
        outs.append(_read_rows_without_wall(out))
    assert outs[0] == outs[1] == outs[2]
    seeds = [int(row[0]) for row in outs[0][1:]]
    assert seeds == sorted(seeds) and set(seeds) == {0, 1, 2, 3}  # sorted by seed


# Cases whose message is checked: it names the field and what is wrong.
CONFIG_ERROR_MESSAGES = {
    "seeds-string": "seeds must be a JSON array of integers, got '12'",
    "seeds-number": "seeds must be a JSON array of integers, got 12",
    "seeds-repeated": "seeds must be distinct",
    "sweep-budgets-repeated": "budgets must be non-empty and strictly ascending",
    "gmm-string": "gmm must be a JSON object, got 'abc'",
    "gmm-array": "gmm must be a JSON object, got [1, 2]",
    "top-level-array": "config must be a JSON object",
    "undecodable-bytes": "cannot read config",
    "nested-too-deep": "cannot read config",
    "reward-kind-unknown": "unknown reward kind 'gold'",
    "ring-no-radius": "ring reward needs params.radius",
    "ablate-bon": "ablation needs a sampler with stochastic proposals",
    "component-out-of-range": "component 7 out of range",
    "sop-keep-zero": "n_keep must be >= 1, got 0",
    "sop-branch-zero": "k_branch must be >= 1, got 0",
    "sop-keep-over-budget": "budget cannot finish the survivors deterministically",
    "code-interval-zero": "interval must be >= 1, got 0",
    "svdd-k-zero": "k must be >= 1, got 0",
    "misspelled-sampler": "config has no key 'sampelr'; its keys are [",
    "misspelled-sampler-opts": "config has no key 'sampler_opt'; its keys are [",
    "misspelled-beta": "reward has no key 'betta'; its keys are ['beta', 'kind', 'params']",
    "misspelled-radius": "reward.params has no key 'radios'; its keys are ['radius']",
    "misspelled-gmm-dim": "gmm has no key 'dims'; its keys are ['dim', 'means', 'variances', 'weights']",
    "rbf-batches-zero": "batches must be >= 1",
    "gmm-weights-empty": "weights must be a non-empty 1-D sequence",
    "gmm-weight-zero": "all mixture weights must be positive",
}


@pytest.mark.parametrize(
    "command, overrides, extra_args",
    [
        ("run", {"sampler": "alphazero"}, []),
        ("run", {"sampler_opts": {"kk": 3}}, []),
        ("run", {"sampler": "rbf", "sampler_opts": {"batches": "two"}}, []),
        ("run", {"seeds": [-1]}, []),
        ("run", {}, ["--seed-offset", "-5"]),
        ("run", {"reward": {"kind": "target-point", "params": {"target": [1.0, 2.0, 3.0]}}}, []),
        ("run", {"reward": {"kind": "ring", "params": {"radius": "big"}}}, []),
        ("run", {"reward": []}, []),
        ("run", {"reward": {"kind": "rare-mode", "params": []}}, []),
        ("run", {"sampler_opts": []}, []),
        ("run", {"out": 5}, None),
        ("run", {"out": ""}, None),
        ("run", {}, ["--out", "{tmp}"]),
        ("run", {}, ["--out", "{cfg}/x.csv"]),
        ("sweep", {}, ["--budgets", "10,abc"]),
        ("run", {"nfe": MAX_NFE + 1}, []),
        ("run", {"nfe": float("inf")}, []),
        ("run", {"nfe": 60.9}, []),
        ("run", {"seeds": "12"}, []),
        ("run", {"seeds": 12}, []),
        ("run", {"seeds": [0, 0]}, []),
        ("sweep", {"seeds": [0]}, ["--budgets", "50,50"]),
        ("sweep", {}, ["--budgets", f"10,{MAX_NFE + 1}"]),
        ("run", {"sampler": "smc", "sampler_opts": {},
                 "reward": {"kind": "rare-mode", "beta": float("nan")}}, []),
        ("run", {"sampler": "smc", "sampler_opts": {},
                 "reward": {"kind": "rare-mode", "beta": float("inf")}}, []),
        ("run", {"reward": {"kind": "ring", "params": {"radius": float("nan")}}}, []),
        ("run", {"reward": {"kind": "ring", "params": {"radius": float("inf")}}}, []),
        ("run", {"reward": {"kind": "target-point",
                            "params": {"target": [float("nan"), 1.0]}}}, []),
        ("run", {}, ["--jobs", "0"]),
        ("run", {}, ["--jobs", "-5"]),
        # smc and rbf always return their trace, so with_trace is no option
        ("run", {"sampler": "smc", "sampler_opts": {"with_trace": True}}, []),
        ("run", {"sampler": "rbf", "sampler_opts": {"with_trace": True}}, []),
        ("run", {"gmm": {**TWO_MODES, "variances": [[1.0, 1.0], [1.0, float("inf")]]}}, []),
        ("run", {"reward": {"kind": "rare-mode", "params": {"component": 1.7}}}, []),
        ("run", {"reward": {"kind": "rare-mode", "params": {"component": True}}}, []),
        ("run", {"reward": {"kind": "rare-mode", "params": {"component": "1"}}}, []),
        ("run", {"gmm": {**TWO_MODES, "dim": 2.7}}, []),
        ("run", {"gmm": {**TWO_MODES, "dim": "2"}}, []),
        *[("run", {"sampler": "smc", "sampler_opts": {"ess_threshold_frac": frac}}, [])
          for frac in (-1, float("nan"), 7.5, float("inf"))],
        ("run", {"gmm": {"weights": [1.0], "means": [[]], "variances": [[]]},
                 "nfe": 20, "steps": 2}, []),
        ("sweep", {}, ["--budgets", ""]),
        ("sweep", {}, ["--budgets", ","]),
        *[("run", overrides, []) for overrides, _ in NON_NUMBER_FLOATS],
        ("run", {"gmm": "abc"}, []),
        ("run", {"gmm": [1, 2]}, []),
        # bytes: the config file's whole content
        ("run", b'[{"nfe": 40, "steps": 4}]', []),
        ("run", b"\xff{}", []),
        ("run", b"[" * 100_000 + b"]" * 100_000, []),
        ("run", {"reward": {"kind": "gold"}}, []),
        ("run", {"reward": {"kind": "ring", "params": {}}}, []),
        ("ablate", {"sampler": "bon", "sampler_opts": {}}, []),
        ("run", {"reward": {"kind": "rare-mode", "params": {"component": 7}}}, []),
        ("run", {"sampler": "sop", "sampler_opts": {"n_keep": 0}}, []),
        ("run", {"sampler": "sop", "sampler_opts": {"k_branch": 0}}, []),
        ("run", {"sampler": "sop", "sampler_opts": {"n_keep": 100}}, []),
        ("run", {"sampler": "code", "sampler_opts": {"interval": 0}}, []),
        ("run", {"sampler": "rbf", "sampler_opts": {"batches": 0}}, []),
        ("run", {"gmm": {"weights": [], "means": [], "variances": []}}, []),
        ("run", {"gmm": {**TWO_MODES, "weights": [0.0, 1.0]}}, []),
        ("run", {"sampler": "svdd", "sampler_opts": {"k": 0}}, []),
        ("run", {"sampelr": "smc"}, []),
        ("run", {"sampler_opt": {"k": 5}}, []),
        ("run", {"reward": {"kind": "rare-mode", "betta": 0.5}}, []),
        ("run", {"reward": {"kind": "ring", "params": {"radios": 2.0}}}, []),
        ("run", {"gmm": {**TWO_MODES, "dims": 2}}, []),
    ],
    ids=[
        "unknown-sampler", "unknown-option", "option-type", "negative-seed",
        "negative-seed-offset", "target-dimension", "reward-number",
        "reward-not-object", "reward-params-not-object", "sampler-opts-not-object",
        "out-not-string", "out-empty", "out-directory", "out-under-file",
        "sweep-budget-not-integer", "nfe-over-cap", "nfe-infinite",
        "nfe-float", "seeds-string", "seeds-number", "seeds-repeated",
        "sweep-budgets-repeated",
        "sweep-budget-over-cap", "beta-nan", "beta-infinite", "radius-nan",
        "radius-infinite", "target-nan", "jobs-zero", "jobs-negative",
        "smc-with-trace", "rbf-with-trace", "variance-infinite", "component-float",
        "component-bool", "component-string", "dim-float", "dim-string",
        "smc-threshold-negative", "smc-threshold-nan", "smc-threshold-above-one",
        "smc-threshold-infinite", "gmm-zero-dim", "sweep-budgets-empty",
        "sweep-budgets-comma", *NON_NUMBER_FLOAT_IDS, "gmm-string", "gmm-array",
        "top-level-array", "undecodable-bytes", "nested-too-deep", "reward-kind-unknown",
        "ring-no-radius", "ablate-bon", "component-out-of-range", "sop-keep-zero",
        "sop-branch-zero", "sop-keep-over-budget", "code-interval-zero", "rbf-batches-zero",
        "gmm-weights-empty", "gmm-weight-zero", "svdd-k-zero", "misspelled-sampler",
        "misspelled-sampler-opts", "misspelled-beta", "misspelled-radius", "misspelled-gmm-dim",
    ],
)
def test_cli_config_error_exit_code(request, tmp_path, command, overrides, extra_args):
    # extra_args None: no --out, so the config's own "out" is the one used;
    # in extra_args, {tmp} is a directory and {cfg} a regular file
    if isinstance(overrides, bytes):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_bytes(overrides)
    else:
        cfg_path = _write_config(tmp_path, **overrides)
    out_args = [] if extra_args is None else ["--out", str(tmp_path / "x.csv"), *extra_args]
    out_args = [a.format(tmp=tmp_path, cfg=cfg_path) for a in out_args]
    proc = python("-m", "flowsearch.cli", command, str(cfg_path), *out_args)
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error: ")
    assert "Traceback" not in proc.stderr
    assert CONFIG_ERROR_MESSAGES.get(request.node.callspec.id, "") in proc.stderr


def test_cli_reads_a_utf16_config_as_its_utf8_twin(tmp_path):
    # json detects UTF-8, -16 and -32 from the bytes; wall_ms is excluded
    utf8 = _write_config(tmp_path)
    utf16 = tmp_path / "config16.json"
    utf16.write_bytes(utf8.read_text().encode("utf-16"))
    rows = []
    for cfg_path in (utf8, utf16):
        out = tmp_path / f"{cfg_path.stem}.csv"
        proc = python("-m", "flowsearch.cli", "run", str(cfg_path), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        rows.append(_read_rows_without_wall(out))
    assert rows[0] == rows[1] and len(rows[0]) == 4


def test_cli_invariant_violation_exit_code(tmp_path):
    # means at 1e154 overflow the squared distance to the target, so the
    # record's best_reward is -inf; in a child process, because the tests'
    # own interpreter turns the overflow RuntimeWarning into an error
    cfg_path = _write_config(
        tmp_path,
        gmm={"weights": [1.0], "means": [[1e154, 1e154]], "variances": [[1.0, 1.0]]},
        reward={"kind": "target-point", "params": {"target": [0.0, 0.0]}},
        process="linear-ode", sampler="bon", sampler_opts={}, nfe=10, steps=2,
    )
    proc = python("-m", "flowsearch.cli", "run", str(cfg_path), "--out", str(tmp_path / "x.csv"))
    assert proc.returncode == 3
    assert "invariant violation: best_reward must be finite" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_resolves_the_output_path_before_running(tmp_path, monkeypatch, capsys):
    # a missing output path is reported before any record runs
    from flowsearch import cli

    def no_run(*args, **kwargs):
        raise AssertionError("records ran without an output path")

    monkeypatch.setattr(cli, "run_table", no_run)
    assert cli.main(["run", str(_write_config(tmp_path))]) == cli.EXIT_CONFIG
    assert "no output path" in capsys.readouterr().err


def test_pool_is_sized_by_tasks_and_cores(monkeypatch):
    # a spy stands in for the pool: no worker process is started
    import concurrent.futures
    import os

    from flowsearch import harness

    sizes = []

    class SpyPool:
        def __init__(self, max_workers, initializer, initargs):
            sizes.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SpyPool)
    monkeypatch.setattr(harness, "_WORKER_CONFIGS", {})
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert len(run_table(small_config(seeds=[0]), jobs=64)) == 1
    assert sizes == []  # one task runs in this process
    assert len(run_table(small_config(seeds=[0, 1]), jobs=64)) == 2
    assert len(run_table(small_config(seeds=[0, 1, 2, 3, 4]), jobs=64)) == 5
    assert len(run_table(small_config(seeds=[0, 1, 2, 3, 4]), jobs=2)) == 5
    assert sizes == [2, 3, 2]  # min(jobs, tasks, cores)
    for jobs in (0, -5):
        with pytest.raises(ConfigError):
            run_table(small_config(seeds=[0]), jobs=jobs)


def test_cli_import_leaves_multiprocessing_unloaded():
    # the process pool is imported only by a run that starts one
    code = "import sys, flowsearch.cli; print('multiprocessing' in sys.modules)"
    proc = python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_import_leaves_numpy_random_unloaded():
    # numpy imports numpy.random lazily (~20 ms and ~6 MB); the shared noise
    # generator is built at the first draw, not at import
    code = "import sys, flowsearch.cli; print('numpy.random' in sys.modules)"
    proc = python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_seed_offset(tmp_path):
    cfg_path = _write_config(tmp_path, seeds=[0])
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    for out, offset in ((out_a, "0"), (out_b, "5")):
        proc = python("-m", "flowsearch.cli", "run", str(cfg_path),
                      "--out", str(out), "--seed-offset", offset)
        assert proc.returncode == 0, proc.stderr
    assert _read_rows_without_wall(out_a)[1][0] == "0"
    assert _read_rows_without_wall(out_b)[1][0] == "5"


def test_cli_sweep_and_ablate(tmp_path):
    cfg_path = _write_config(tmp_path, seeds=[0])
    out = tmp_path / "sweep.csv"
    proc = python("-m", "flowsearch.cli", "sweep", str(cfg_path),
                  "--budgets", "12,40", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert len(_read_rows_without_wall(out)) == 3  # header + 2 budgets
    out2 = tmp_path / "ablate.csv"
    proc = python("-m", "flowsearch.cli", "ablate", str(cfg_path), "--out", str(out2))
    assert proc.returncode == 0, proc.stderr
    rows = _read_rows_without_wall(out2)
    assert len(rows) == 6  # header + five processes


# --- property: any small config document exits 0, 2 or 3, never raises

_NUMBERS = st.one_of(
    st.integers(-3, 60),
    st.floats(-2.0, 60.0),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), 1e9, 10**30]),
)
_JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=3), st.just([]), st.just({}))
_OPTION_NAMES = ["k", "n_keep", "k_branch", "interval", "batches",
                 "ess_threshold_frac", "with_trace", "kk"]


@st.composite
def _config_docs(draw):
    doc = {}
    fields = {
        "process": st.sampled_from(["linear-ode", "linear-sde", "vp-sde",
                                    "linear-sde-adaptive-time", "warp"]),
        "sampler": st.sampled_from(["bon", "sop", "smc", "code", "svdd", "rbf", "mcts"]),
        "nfe": st.one_of(st.integers(-2, 60), _NUMBERS, _JUNK),
        "steps": st.one_of(st.integers(-1, 6), _NUMBERS, _JUNK),
        "seeds": st.one_of(st.lists(st.one_of(st.integers(-2, 2**40), _JUNK), max_size=2), _JUNK),
        "sampler_opts": st.one_of(
            st.dictionaries(st.sampled_from(_OPTION_NAMES),
                            st.one_of(st.integers(-2, 9), st.floats(-1.0, 2.0), _JUNK),
                            max_size=2),
            _JUNK),
        "reward": st.one_of(
            st.fixed_dictionaries({}, optional={
                "kind": st.sampled_from(["rare-mode", "ring", "target-point", "gold"]),
                "params": st.one_of(
                    st.fixed_dictionaries({}, optional={
                        "radius": _NUMBERS, "component": st.one_of(st.integers(-2, 5), _JUNK),
                        "target": st.one_of(st.lists(_NUMBERS, max_size=3), _JUNK)}),
                    _JUNK),
                "beta": st.one_of(_NUMBERS, _JUNK)}),
            _JUNK),
        "gmm": st.one_of(
            st.fixed_dictionaries({}, optional={
                "weights": st.one_of(st.lists(_NUMBERS, max_size=3), st.just([0.5, 0.5]), _JUNK),
                "means": st.one_of(st.just([[0.0, 1.0], [2.0, -1.0]]),
                                   st.lists(st.lists(_NUMBERS, max_size=2), max_size=2), _JUNK),
                "variances": st.one_of(st.just([[1.0, 1.0], [0.5, 2.0]]),
                                       st.lists(st.lists(_NUMBERS, max_size=2), max_size=2),
                                       _JUNK),
                "dim": st.one_of(st.integers(0, 3), _JUNK)}),
            _JUNK),
    }
    for key, strategy in fields.items():
        if draw(st.booleans()):
            doc[key] = draw(strategy)
    return doc


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(doc=_config_docs(), command=st.sampled_from(["run", "sweep", "ablate", "diversity"]),
       budgets=st.sampled_from(["12,30", "30,12", "10,abc", "", "-4", f"10,{MAX_NFE + 1}"]))
def test_cli_main_exit_code_property(doc, command, budgets):
    import tempfile

    from flowsearch import cli

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(doc))
        argv = [command, str(path), "--out", str(Path(tmp) / "out.csv")]
        if command == "sweep":
            argv += ["--budgets", budgets]
        assert cli.main(argv) in (0, 2, 3)
