"""Smoke test of ``tools/record_digest.py``, the records' bitwise gate: it
reaches into ``analytic_flow._posterior_mean_unchecked``, so a rename in
the package must fail here rather than only when the tool is next run."""

import re
from pathlib import Path

import pytest

from child import python

TOOL = Path(__file__).resolve().parents[1] / "tools" / "record_digest.py"
DIGEST = re.compile(r"\S.* [0-9a-f]{64}")
ORACLE = re.compile(r"oracle \S+ steps=\d+ nfe=\d+ seed=\d+ calls=(\d+,){4}\d+ rows=(\d+,){4}\d+")


@pytest.mark.skipif(not TOOL.exists(), reason="tools/ is not in this checkout")
def test_record_digest_prints_digest_and_oracle_lines():
    proc = python(str(TOOL))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines
    for line in lines:
        assert DIGEST.fullmatch(line) or ORACLE.fullmatch(line), line
    assert sum(line.startswith("oracle ") for line in lines) == 6  # one per sampler
