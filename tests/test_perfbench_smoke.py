"""The benchmark harness still runs against the library.

perfbench/ wraps library functions by name from outside the program, so a
refactor that renames or removes one can break it without failing any
other test. Its self-test runs a tiny traced and untraced distill.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
