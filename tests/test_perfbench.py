"""The benchmark's worker entry point starts on every workload.

perfbench/run.py imports the package from ./src and records
verify.thread_count() with every result, so a renamed or deleted name it
uses fails every benchmark run at start-up.  The set-up worker builds a
workload's inputs and prints one JSON line; it runs no op and writes no
file.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["verify", "disjoint", "model", "listing"])
def test_setup_worker_starts(workload):
    cmd = [sys.executable, "perfbench/run.py", "--worker", "setup",
           "--workload", workload, "--seed", "1", "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr[-500:]
    lines = proc.stdout.splitlines()
    assert lines[0] == "ready"
    assert json.loads(lines[-1])["verify_threads"] == 1
