"""Smoke test of the benchmark itself, at tiny sizes.

Checks that every metric declared in BENCHMARK.json is emitted with its
unit, that the tracer wraps each layer where it is used and afterwards
leaves every name of ``flowsearch`` bound to its original, and that the
benchmark refuses to run without sources.

    python3 -m pytest bench/test_smoke.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
sys.path[:0] = [str(BENCH), str(REPO / "src")]

import run as bench  # noqa: E402
from hostclock import PROBE_REF_S, HostClock, at_reference  # noqa: E402
from spans import Patches, Tracer, namespace_snapshot, restored  # noqa: E402

TINY = {
    "paper-table": {"seeds": 1, "nfe": 40, "steps": 4},
    "marginal-transport": {"trajectories": 200, "steps": 10},
    "cli-ablate": {"seeds": 2, "nfe": 40, "steps": 4, "jobs": 2},
}
DECLARED = json.loads((REPO / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_emits_every_declared_metric(workload, trace):
    before = namespace_snapshot()
    info, result = bench.run(workload, seed=3, seconds=0.01, trace=bool(trace),
                             sizes=TINY, probes=1)
    assert restored(before)
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    # Mode weights are a statistical check sized for the full workload.
    assert all(c.startswith("mode_weights[") for c in info["failed_checks"])
    json.dumps(info)
    json.dumps(result)


def test_wrappers_reach_every_use_site():
    from flowsearch import engine, harness, rewards, rng, samplers

    with Patches(Tracer()):
        sites = [samplers.velocity_at, harness.velocity_at, samplers.denoise_interval,
                 harness.denoise_interval, samplers.estimate_value, rewards.posterior_mean,
                 engine.scale_time_transform, rng.stream, engine.StepPlan.scale_map,
                 *samplers.SAMPLERS.values()]
        assert all(hasattr(site, "__wrapped__") for site in sites)
    assert not any(hasattr(site, "__wrapped__") for site in (
        samplers.velocity_at, rng.stream, engine.StepPlan.scale_map, samplers.SAMPLERS["rbf"]))


@pytest.mark.parametrize("concurrent", [False, True])
def test_clock_keeps_only_concurrent_readings_in_a_lap(concurrent):
    clock = HostClock()
    clock.begin()
    clock.sample(concurrent=concurrent)
    elapsed, probe = clock.lap()
    assert len(clock.readings) == 3
    assert probe == pytest.approx(sum(clock.readings) / 3)
    # A reading is the median of three probe runs, so sampling takes longer
    # than the reading it adds.
    assert (elapsed > clock.readings[1]) == concurrent
    assert at_reference([(2.0, 2 * PROBE_REF_S)]) == [1.0]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *DECLARED["command"][1:], "--workload", "paper-table",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
