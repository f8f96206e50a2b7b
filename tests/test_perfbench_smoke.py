"""The benchmark command runs end to end on this checkout's sources, with every pass correct.

``perfbench/`` and ``src/`` are copied into a temporary directory, and
``perfbench/run.py`` runs there for one second per workload with tracing on, so
nothing is written into the checkout. A traced run also makes one untraced,
checked pass. This catches what the name guards (``test_perfbench_targets.py``,
``test_perfbench_imports.py``) cannot: a changed signature that the benchmark
calls, or a traced hook that reads a changed return value.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["frozen", "semantic"])
def test_a_one_second_traced_run_is_correct(tmp_path, workload):
    for name in ("perfbench", "src"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=shutil.ignore_patterns("__pycache__"))
    argv = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "1",
    ]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0), proc.stderr
