"""The benchmark's own test: every workload at tiny size, traced and untraced.

Run with `python -m pytest benchmarks`; it is outside tests/, so tier-1 does
not collect it.
"""

import subprocess
import sys
from pathlib import Path


def test_smoke_every_metric_present_and_nothing_failed():
    run = Path(__file__).resolve().parent / "run.py"
    proc = subprocess.run([sys.executable, str(run), "--smoke"], capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
