"""The names the benchmark uses must exist in ``flowsearch``.

``bench/spans.py`` wraps each function named in ``FUNCTION_SPANS`` (and
``StepPlan.scale_map``) by ``getattr``, the benchmark's checks call
``RunRecord.validate``, and the benchmark's modules read module attributes
through ``from flowsearch import ...``; a refactor that drops one of these
names breaks every benchmark run.  Skipped when ``bench/`` is not present.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
SPANS = BENCH / "spans.py"


@pytest.mark.skipif(not SPANS.is_file(), reason="bench/ is not present")
def test_benchmark_bound_names_resolve():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    bound = [(module, attr) for _, module, attr, _ in spans.FUNCTION_SPANS]
    bound += [("engine", "StepPlan.scale_map"), ("harness", "RunRecord.validate")]
    for module, attr in bound:
        target = importlib.import_module(f"flowsearch.{module}")
        for part in attr.split("."):
            target = getattr(target, part, None)
            assert target is not None, f"flowsearch.{module}.{attr} is gone"
        assert callable(target), f"flowsearch.{module}.{attr} is not callable"


def _bench_module_attributes() -> set:
    """Every ``(module, attribute)`` that ``bench/*.py`` reads as
    ``alias.attribute`` after ``from flowsearch import module as alias``."""
    found = set()
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        aliases = {alias.asname or alias.name: alias.name
                   for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.module == "flowsearch"
                   for alias in node.names}
        found |= {(aliases[node.value.id], node.attr) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in aliases}
    return found


@pytest.mark.skipif(not BENCH.is_dir(), reason="bench/ is not present")
def test_benchmark_module_attributes_resolve():
    used = _bench_module_attributes()
    assert ("interpolants", "vp_schedule") in used and ("rng", "PROCESS") in used
    missing = [f"flowsearch.{module}.{attr}" for module, attr in sorted(used)
               if not hasattr(importlib.import_module(f"flowsearch.{module}"), attr)]
    assert missing == []


def _module_bindings() -> dict:
    import sys

    return {(name, key): id(value) for name, module in list(sys.modules.items())
            if name == "flowsearch" or name.startswith("flowsearch.")
            for key, value in vars(module).items()}


def test_a_run_rebinds_no_module_name():
    # The traced benchmark checks that every name of every flowsearch module
    # is bound to the same object after a run as before it (so that its
    # wrappers were undone).  Module state must be mutated in place, never
    # rebound: a global counter would fail that check on every run.
    from flowsearch import harness

    before = _module_bindings()
    config = harness.load_config({"sampler": "smc", "nfe": 40, "steps": 4, "seeds": [0, 1]})
    harness.run_table(config)
    harness.diversity_table(config)
    now = _module_bindings()
    assert [key for key, value in before.items() if now.get(key) != value] == []
