"""The benchmark's self-test passes against the current package.

It runs every workload at toy size, traced and untraced, and checks the
outputs, so a renamed traced function, a config key a workload sends or a
broken output check fails here rather than in a benchmark run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent


def test_selftest_reports_no_failures():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "selftest: 0 failure(s)" in proc.stdout
