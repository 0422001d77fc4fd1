"""The benchmark in perfbench/ calls and traces radd functions by name (see
ROADMAP, "Coupling with the benchmark"). Its traced self-test runs one
cli-quickstart pass with and without tracing and checks that the outputs
agree, that the expected spans appear and that every wrapped function is
restored, so a radd change that renames or stops calling a traced function
fails here rather than in a later benchmark run. perfbench/ is only read."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_traced_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py"), "TracedRun"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
