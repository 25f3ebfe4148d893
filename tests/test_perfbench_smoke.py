"""Smoke run of the benchmark harness, so that it cannot rot unnoticed.

Runs one short, untraced ``net_fixpoint`` run of ``perfbench/run.py`` and
checks that every answer agreed with its oracle.  The runner writes its
record under ``.perfbench_out/`` in the checkout.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNNER = ROOT / "perfbench" / "run.py"


def test_net_fixpoint_smoke_run():
    argv = [sys.executable, str(RUNNER), "--workload", "net_fixpoint", "--seed", "2"]
    argv += ["--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
