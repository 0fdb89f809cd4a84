import csv
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from flowsearch.errors import ConfigError, InvariantError
from flowsearch.harness import (
    CSV_COLUMNS,
    RunRecord,
    branched_proposals,
    diversity_mpd,
    diversity_table,
    load_config,
    run_experiment,
    run_table,
    sweep,
    write_csv,
)
from flowsearch.engine import make_plan
from flowsearch.analytic_flow import default_benchmark_gmm


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
    endpoints = branched_proposals(make_plan("linear-ode", 6), gmm, seed=0, k=10)
    assert diversity_mpd(endpoints) == 0.0


def test_run_experiment_deterministic():
    cfg = small_config()
    rec1 = run_experiment(cfg, seed=0)
    rec2 = run_experiment(cfg, seed=0)
    assert rec1.best_reward == rec2.best_reward
    assert rec1.diversity_mpd == rec2.diversity_mpd
    assert rec1.nfe_used == rec2.nfe_used <= cfg.nfe
    rec3 = run_experiment(cfg, seed=1)
    assert rec3.best_reward != rec1.best_reward


def test_record_validation():
    bad = RunRecord(
        seed=0, method="bon", process="linear-ode", nfe_budget=10, steps=2,
        best_reward=0.0, diversity_mpd=-1.0, nfe_used=5, wall_ms=1.0,
    )
    with pytest.raises(InvariantError):
        bad.validate()
    over = RunRecord(
        seed=0, method="bon", process="linear-ode", nfe_budget=10, steps=2,
        best_reward=0.0, diversity_mpd=0.0, nfe_used=11, wall_ms=1.0,
    )
    with pytest.raises(InvariantError):
        over.validate()


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
    with pytest.raises(ConfigError):
        sweep(cfg, budgets=[100, 50])
    records = sweep(cfg, budgets=[12, 24])
    assert len(records) == 2 * len(cfg.seeds)
    assert [(r.seed, r.nfe_budget) for r in records] == [
        (0, 12), (0, 24), (1, 12), (1, 24)
    ]


def test_diversity_table_covers_all_processes():
    cfg = small_config(seeds=[0])
    records = diversity_table(cfg)
    assert len(records) == 5
    by_proc = {r.process: r for r in records}
    assert by_proc["linear-ode"].diversity_mpd == 0.0
    assert all(r.method == "diversity" for r in records)


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


def test_cli_run_and_parallel_determinism(tmp_path):
    # identical rows (wall_ms excluded, per the determinism contract) for
    # repeated runs and for --jobs 1 vs --jobs 8
    cfg_path = _write_config(tmp_path)
    outs = []
    for i, jobs in enumerate((1, 1, 8)):
        out = tmp_path / f"out{i}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "flowsearch.cli", "run", str(cfg_path),
             "--out", str(out), "--jobs", str(jobs)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(_read_rows_without_wall(out))
    assert outs[0] == outs[1] == outs[2]


@pytest.mark.parametrize(
    "overrides, extra_args",
    [
        ({"sampler": "alphazero"}, []),
        ({"sampler_opts": {"kk": 3}}, []),
        ({"sampler": "rbf", "sampler_opts": {"batches": "two"}}, []),
        ({"seeds": [-1]}, []),
        ({}, ["--seed-offset", "-5"]),
        ({"reward": {"kind": "target-point", "params": {"target": [1.0, 2.0, 3.0]}}}, []),
        ({"reward": {"kind": "ring", "params": {"radius": "big"}}}, []),
    ],
    ids=[
        "unknown-sampler", "unknown-option", "option-type", "negative-seed",
        "negative-seed-offset", "target-dimension", "reward-number",
    ],
)
def test_cli_config_error_exit_code(tmp_path, overrides, extra_args):
    cfg_path = _write_config(tmp_path, **overrides)
    proc = subprocess.run(
        [sys.executable, "-m", "flowsearch.cli", "run", str(cfg_path),
         "--out", str(tmp_path / "x.csv"), *extra_args],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr


def test_cli_seed_offset(tmp_path):
    cfg_path = _write_config(tmp_path, seeds=[0])
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    for out, offset in ((out_a, "0"), (out_b, "5")):
        proc = subprocess.run(
            [sys.executable, "-m", "flowsearch.cli", "run", str(cfg_path),
             "--out", str(out), "--seed-offset", offset],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
    assert _read_rows_without_wall(out_a)[1][0] == "0"
    assert _read_rows_without_wall(out_b)[1][0] == "5"


def test_cli_sweep_and_ablate(tmp_path):
    cfg_path = _write_config(tmp_path, seeds=[0])
    out = tmp_path / "sweep.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "flowsearch.cli", "sweep", str(cfg_path),
         "--budgets", "12,40", "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert len(_read_rows_without_wall(out)) == 3  # header + 2 budgets
    out2 = tmp_path / "ablate.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "flowsearch.cli", "ablate", str(cfg_path),
         "--out", str(out2)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    rows = _read_rows_without_wall(out2)
    assert len(rows) == 6  # header + five processes
