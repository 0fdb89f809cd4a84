"""The records' bitwise gate: ``tools/record_digest.py`` must print exactly
the lines pinned in ``record_digest.golden``.  A change that moves records
on purpose re-pins the golden file with the tool's new output and names
the moved lines in CHANGES.md.  The tool also reaches into
``analytic_flow._posterior_mean_unchecked``, so a rename in the package
fails here rather than only when the tool is next run."""

import difflib
import re
from pathlib import Path

import pytest

from child import python

TOOL = Path(__file__).resolve().parents[1] / "tools" / "record_digest.py"
GOLDEN = Path(__file__).resolve().parent / "record_digest.golden"
DIGEST = re.compile(r"\S.* [0-9a-f]{64}")
ORACLE = re.compile(r"oracle \S+ steps=\d+ nfe=\d+ seed=\d+ calls=(\d+,){4}\d+ rows=(\d+,){4}\d+")


@pytest.fixture(scope="module")
def printed():
    """The tool's output lines, from one run for the module's tests."""
    if not TOOL.exists():
        pytest.skip("tools/ is not in this checkout")
    proc = python(str(TOOL))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_record_digest_prints_digest_and_oracle_lines(printed):
    assert printed
    for line in printed:
        assert DIGEST.fullmatch(line) or ORACLE.fullmatch(line), line
    assert sum(line.startswith("oracle ") for line in printed) == 6  # one per sampler


def test_record_digest_prints_the_golden_lines(printed):
    golden = GOLDEN.read_text().splitlines()
    diff = "\n".join(difflib.unified_diff(golden, printed, "record_digest.golden",
                                          "tools/record_digest.py", lineterm="", n=0))
    assert printed == golden, f"records moved:\n{diff}"
