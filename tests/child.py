"""Child interpreters for the tests that start one."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def python(*args):
    """``python *args`` with this checkout's ``src`` first on the child's
    path, as pytest's ``pythonpath`` puts it first on the test process's."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
