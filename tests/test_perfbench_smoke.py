"""The benchmark harness still runs against the library.

perfbench/ wraps library functions by name from outside the program, so a
refactor that renames or removes one can break it without failing any
other test. Its self-test runs a tiny traced and untraced distill, and the
tracer skips a target it cannot find, so each target is also looked up here.
"""

import importlib.util
import inspect
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


def test_every_span_target_resolves_to_a_function():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py"
    )
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for owner, attr, name, _ in spans._targets():
        assert inspect.isfunction(getattr(owner, attr, None)), name
