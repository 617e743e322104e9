"""The benchmark harness still runs against the library.

perfbench/ wraps library functions by name from outside the program, so a
refactor that renames or removes one can break it without failing any
other test. Its self-test runs a tiny traced and untraced distill, and the
tracer skips a target it cannot find, so each target is also looked up here.
"""

import importlib
import importlib.util
import inspect
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

from graphdistill import cluster

ROOT = Path(__file__).resolve().parent.parent

# (module, function, index, name) of each parameter that a span reads from
# the call's positional arguments; after a move the span would read another
# argument, and a metric such as evaluate.full_graph_forwards would read 0.
POSITIONAL_READS = [
    ("model", "backward", 2, "dlogits"),
    ("refine", "refine_loss_and_grads", 3, "x_prime"),
    ("evaluate", "gcn_forward", 1, "a_hat"),
]


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


def test_parameters_read_by_position_stay_in_place():
    source = (ROOT / "perfbench" / "spans.py").read_text()
    reads = set(re.findall(r'_arg\(\w+, \w+, (\d+), "(\w+)"\)', source))
    assert reads == {(str(index), name) for _, _, index, name in POSITIONAL_READS}
    for module, function, index, name in POSITIONAL_READS:
        fn = getattr(importlib.import_module(f"graphdistill.{module}"), function)
        params = list(inspect.signature(fn).parameters)
        assert params[index : index + 1] == [name], f"{module}.{function}{params}"


def test_every_assignment_pass_goes_through_the_module_attribute(monkeypatch):
    # the tracer counts cluster.iterations by wrapping cluster._assign; a
    # pass made through a local alias or a closure would not be counted
    calls = []
    assign = cluster._assign

    def counted(*args, **kwargs):
        calls.append(1)
        return assign(*args, **kwargs)

    monkeypatch.setattr(cluster, "_assign", counted)
    pts = np.random.default_rng(0).standard_normal((300, 4))
    result = cluster.kmeans(pts, 5, seed=1, n_init=1)
    assert len(calls) == len(result.wcss_trace)
    calls.clear()
    cluster.minibatch_kmeans(pts, 5, seed=1, max_iter=7, batch_size=50, tol=0.0)
    assert len(calls) == 7 + 1
