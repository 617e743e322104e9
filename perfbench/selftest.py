"""Quick self-test of the benchmark's own code on a tiny graph.

Runs one untraced and one traced run of a tiny workload through the code
the benchmark uses, with a few epochs. It checks that every metric listed
in BENCHMARK.json comes out with its unit, that the output checks pass on
real outputs and catch broken ones, and that run.py refuses to run in a
checkout without the program's sources. Takes well under a minute.

Usage, from the root of a checkout: python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import run

ROOT = run.HERE.parent


def main() -> int:
    if not run.prepare_environment():
        print(f"error: no graphdistill sources under {run.SRC}", file=sys.stderr)
        return 2
    import numpy as np

    import bench
    from graphdistill.condense import CondensedGraph
    from workloads import Workload

    failures: list[str] = []

    def expect(ok: bool, what: str) -> None:
        if not ok:
            failures.append(what)

    # Above minibatch_threshold, so the mini-batch k-means path is traced.
    tiny = Workload(
        name="tiny",
        why="self-test",
        sbm=dict(num_nodes=300, num_classes=3, intra_prob=0.05, inter_prob=0.005,
                 feature_dim=8, separation=3.0),
        config=dict(E1=10, E3=2, eval_epochs=20, eval_repeats=2, kmeans_n_init=2,
                    minibatch_threshold=200, kmeans_batch=100),
        per_class_train=10, val_count=60, test_count=120,
        reproduce=True,
    )
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, listed in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
        result = bench.run(tiny, seed=3, seconds=0, trace=trace, work_root=run.HERE / "work")
        label = "traced" if trace else "untraced"
        expect(result["correct"], f"{label}: output checks failed")
        expect(result["attempted"] == bench.DISTILLS_PER_ROUND + 1,
               f"{label}: attempted {result['attempted']}")
        expect(result["failed"] <= 1, f"{label}: a distill failed")
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        expect(got == {m["name"]: m["unit"] for m in listed},
               f"{label}: metric names or units differ from BENCHMARK.json")
        expect(all(math.isfinite(m["value"]) for m in result["metrics"].values()),
               f"{label}: a metric is not finite")
        if trace:
            layers = {name: m["value"] for name, m in result["metrics"].items()}
            for name in ("cluster.iterations", "evaluate.gcn_trainings",
                         "propagate.propagate_dense_calls", "model.adam_steps"):
                expect(layers[name] > 0, f"traced: {name} is zero")

    # The output checks accept a sound condensed graph and reject each fault.
    rng = np.random.default_rng(0)
    m = rng.random((4, 4))
    sound = {
        "x_prime": rng.standard_normal((4, 3)),
        "a_prime": m + m.T,
        "y_prime": np.eye(2)[[0, 1, 1, 0]],
    }
    good_metrics = {"theorem2_lhs": 0.1, "theorem2_rhs": 1.0, "fid": 0.2, "accuracy_mean": 0.9}

    def problems(arrays=None, metrics=None, loaded=None) -> list[str]:
        returned = {**sound, **(arrays or {})}
        record = {"condensed": returned, "metrics": {**good_metrics, **(metrics or {})}}
        loaded = loaded or CondensedGraph(
            returned["x_prime"], returned["a_prime"], returned["y_prime"])
        return bench.check_outputs(record, loaded, n_expected=4, majority=0.5)

    expect(problems() == [], f"sound outputs rejected: {problems()}")
    asymmetric = sound["a_prime"].copy()
    asymmetric[0, 1] += 1e-9
    y_two_hot = sound["y_prime"].copy()
    y_two_hot[0, 1] = 1.0
    x_off_by_ulp = np.nextafter(sound["x_prime"], np.inf)
    broken = {
        "asymmetric A'": problems({"a_prime": asymmetric}),
        "negative A'": problems({"a_prime": sound["a_prime"] - 10.0}),
        "wrong n": problems({"a_prime": np.zeros((3, 3))}),
        "two-hot Y'": problems({"y_prime": y_two_hot}),
        "lossy round trip": problems(loaded=CondensedGraph(
            x_off_by_ulp, sound["a_prime"], sound["y_prime"])),
        "theorem 2 violated": problems(metrics={"theorem2_lhs": 2.0}),
        "negative fid": problems(metrics={"fid": -1e-3}),
        "accuracy at majority": problems(metrics={"accuracy_mean": 0.5}),
    }
    for fault, found in broken.items():
        expect(len(found) > 0, f"check missed: {fault}")

    # Without the program's sources run.py exits nonzero and prints no result.
    bare = run.HERE / "work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("work", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cora-shape", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, env=env, capture_output=True, text=True, timeout=120,
    )
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.parent.rmdir()
    except OSError:  # a benchmark run still uses it
        pass
    expect(proc.returncode != 0 and proc.stdout == "",
           f"bare checkout: exit {proc.returncode}, stdout {proc.stdout!r}")

    for failure in failures:
        print(f"FAIL: {failure}")
    print("selftest: " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
