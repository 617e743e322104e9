"""Rounds, output checks and metrics of one benchmark run.

A run sets the workload's dataset up three times, then repeats whole
rounds until the measuring time is spent (at least one round). A round is
three distills, each in a child process, and on workloads that ask for it
one reproduce: the ``evaluate`` and ``fid`` subcommands on the last saved
directory, compared with its meta.toml. In a traced run the middle distill
of each round is traced and the others are not, so one run gives the
per-layer numbers and the tracing overhead.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

from graphdistill import cli, dataio
from graphdistill.pipeline import resolve_synthetic_size
from spans import layer_metrics
from workloads import Workload, make_dataset, pipeline_config

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"

SETUP_REPEATS = 3
# at least two distills with one seed, so byte identity can be checked, and
# three so that one slow distill does not move the median
DISTILLS_PER_ROUND = 3
CHILD_TIMEOUT_S = 150.0
# no round past the first starts unless it should end by then
RUN_BUDGET_S = 140.0

CONDENSE_STAGES = ("propagate", "pretrain", "cluster", "condense", "class_graphs", "refine")
STAGES = CONDENSE_STAGES + ("evaluate", "metrics")

END_TO_END = {
    "distill_s": "s",
    "condense_s": "s",
    "test_accuracy": "fraction",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    **{f"pipeline.{stage}_s": "s" for stage in STAGES},
    "model.forward_s": "s",
    "model.backward_s": "s",
    "model.forward_rows": "count",
    "model.loss_rows": "count",
    "model.loss_row_ratio": "ratio",
    "model.adam_step_s": "s",
    "model.adam_steps": "count",
    "refine.head_org_s": "s",
    "refine.views_s": "s",
    "refine.adam_s": "s",
    "refine.sample_class_graphs_s": "s",
    "refine.kept_edges": "count",
    "propagate.gls_propagate_s": "s",
    "propagate.propagate_dense_s": "s",
    "propagate.propagate_dense_calls": "count",
    "cluster.kmeans_s": "s",
    "cluster.iterations": "count",
    "cluster.wcss": "1",
    "evaluate.train_eval_gcn_s": "s",
    "evaluate.gcn_trainings": "count",
    "evaluate.full_graph_forwards": "count",
    "evaluate.evaluate_on_original_s": "s",
    "dataio.load_dataset_s": "s",
    "dataio.dataset_bytes": "bytes",
    "dataio.save_condensed_s": "s",
    "dataio.load_condensed_s": "s",
    "cli.reproduce_s": "s",
    "fid.fid": "1",
    "fid.trace_sqrt_product_s": "s",
    "trace.overhead_s": "s",
}


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def _digest(directory: Path) -> str:
    h = hashlib.sha256()
    for name, data in _files(directory).items():
        h.update(name.encode())
        h.update(data)
    return h.hexdigest()


def majority_share(dataset) -> float:
    """Share of the test set held by its most common class."""
    counts = np.bincount(dataset.labels[dataset.test_mask], minlength=dataset.num_classes)
    return float(counts.max() / counts.sum())


def check_outputs(record: dict, loaded, n_expected: int, majority: float) -> list[str]:
    """Problems with one distill's outputs, each checked apart from the program."""
    problems = []
    returned = record["condensed"]
    a, y = returned["a_prime"], returned["y_prime"]
    if a.shape != (n_expected, n_expected):
        problems.append(f"A' has shape {a.shape}, expected n = {n_expected}")
    elif not np.array_equal(a, a.T):
        problems.append("A' is not symmetric")
    if a.size and a.min() < 0.0:
        problems.append("A' has a negative entry")
    if not (np.all((y == 0.0) | (y == 1.0)) and np.all(y.sum(axis=1) == 1.0)):
        problems.append("Y' is not one-hot")
    for name in ("x_prime", "a_prime", "y_prime"):
        want, got = returned[name], getattr(loaded, name)
        if want.shape != got.shape or want.dtype != got.dtype or want.tobytes() != got.tobytes():
            problems.append(f"{name} does not load back bitwise equal")
    metrics = record["metrics"]
    if not metrics["theorem2_lhs"] <= metrics["theorem2_rhs"]:
        problems.append("theorem2_lhs > theorem2_rhs")
    if not metrics["fid"] >= 0.0:
        problems.append(f"fid = {metrics['fid']} is negative")
    if not metrics["accuracy_mean"] > majority:
        problems.append(
            f"accuracy {metrics['accuracy_mean']:.4f} not above the majority share {majority:.4f}"
        )
    return problems


def distill(
    dataset_dir: Path, out_dir: Path, config_path: Path, result_dir: Path, traced: bool
) -> dict | None:
    """Run one distill in a child process; None if it failed."""
    result_dir.mkdir()
    argv = [dataset_dir, out_dir, config_path, result_dir, "1" if traced else "0"]
    # the child's stdout joins this process's stderr, keeping stdout for the result
    proc = subprocess.Popen([sys.executable, str(CHILD), *map(str, argv)], stdout=2)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        return None
    record = json.loads((result_dir / "result.json").read_text())
    with np.load(result_dir / "condensed.npz") as arrays:
        record["condensed"] = {name: arrays[name] for name in arrays.files}
    record["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # Linux reports KiB
    spans_path = result_dir / "spans.json"
    if spans_path.exists():
        record["layers"] = layer_metrics(json.loads(spans_path.read_text()))
    return record


def reproduce(dataset_dir: Path, out_dir: Path, config_path: Path) -> tuple[bool, float, str]:
    """Run `evaluate` and `fid` on a saved directory; compare with its meta.toml."""
    args = ["--dataset-dir", str(dataset_dir), "--condensed-dir", str(out_dir),
            "--config", str(config_path)]
    printed: dict[str, str] = {}
    start = time.perf_counter()
    for command in ("evaluate", "fid"):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main([command, *args])
        if code != 0:
            return False, time.perf_counter() - start, f"{command} exited with {code}"
        for line in buf.getvalue().splitlines():
            key, _, value = line.partition(" = ")
            printed[key.strip()] = value.strip()
    seconds = time.perf_counter() - start
    stored = dataio.load_flat_toml(out_dir / "meta.toml")
    mismatches = [
        f"{key} stored {format(stored[key], '.6g')} vs recomputed {printed.get(key)}"
        for key in ("accuracy_mean", "fid")
        if format(stored[key], ".6g") != printed.get(key)
    ]
    return not mismatches, seconds, "; ".join(mismatches)


def run(workload: Workload, seed: int, seconds: float, trace: bool, work_root: Path) -> dict:
    """One benchmark run; returns the result object that run.py prints."""
    run_start = time.perf_counter()
    work = work_root / f"{workload.name}-s{seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _run(workload, seed, seconds, trace, work, run_start)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:  # another run still uses it
            pass


def _run(workload, seed, seconds, trace, work: Path, run_start: float) -> dict:
    problems: list[str] = []
    dataset_dir = work / "dataset"
    setup_times, digests = [], set()
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(dataset_dir, ignore_errors=True)
        start = time.perf_counter()
        dataset = make_dataset(workload, seed)
        dataio.save_dataset(dataset, dataset_dir)
        setup_times.append(time.perf_counter() - start)
        digests.add(_digest(dataset_dir))
    if len(digests) != 1:
        problems.append("one seed wrote different dataset directories")

    cfg = pipeline_config(workload, seed)
    config_path = work / "config.toml"
    dataio.dump_flat_toml(cfg.to_dict(), config_path)
    n_expected = resolve_synthetic_size(cfg, dataset)
    majority = majority_share(dataset)

    attempted = failed = rounds = 0
    untraced, traced, reproduce_s = [], [], []
    reference: dict[str, bytes] | None = None
    measure_start = time.perf_counter()
    last_round = 0.0
    while rounds == 0 or (
        time.perf_counter() - measure_start < seconds
        and time.perf_counter() - run_start + last_round < RUN_BUDGET_S
    ):
        round_start = time.perf_counter()
        for k in range(DISTILLS_PER_ROUND):
            label = f"round {rounds} distill {k}"
            is_traced = trace and k % 2 == 1
            out_dir = work / f"out{rounds}-{k}"
            attempted += 1
            record = distill(dataset_dir, out_dir, config_path, work / f"result{rounds}-{k}",
                             is_traced)
            if record is None:
                failed += 1
                print(f"{label}: failed", file=sys.stderr)
                continue
            start = time.perf_counter()
            loaded = dataio.load_condensed(out_dir)
            record["load_condensed_s"] = time.perf_counter() - start
            found = check_outputs(record, loaded, n_expected, majority)
            files = _files(out_dir)
            if reference is None:
                reference = files
            elif files != reference:
                found.append("two distills with one seed wrote different directories")
            problems.extend(f"{label}: {p}" for p in found)
            (traced if is_traced else untraced).append(record)
            stages = " ".join(f"{s}={t:.2f}" for s, t in record["stage_seconds"].items())
            print(f"{label}: {record['distill_s']:.3f} s, {record['peak_rss_mb']:.1f} MB, {stages}"
                  f"{' (traced)' if is_traced else ''}", file=sys.stderr)
        if workload.reproduce:
            attempted += 1
            ok, spent, detail = reproduce(dataset_dir, out_dir, config_path)
            reproduce_s.append(spent)
            if not ok:
                failed += 1
                print(f"round {rounds} reproduce: failed: {detail}", file=sys.stderr)
        last_round = time.perf_counter() - round_start
        rounds += 1

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if not trace:
        metrics = {
            "distill_s": statistics.median(r["distill_s"] for r in untraced),
            "condense_s": statistics.median(
                sum(r["stage_seconds"][s] for s in CONDENSE_STAGES) for r in untraced
            ),
            "test_accuracy": statistics.median(r["metrics"]["accuracy_mean"] for r in untraced),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
            "setup_s": statistics.median(setup_times),
        }
        units = END_TO_END
    else:
        if not workload.reproduce:
            # timing only: these workloads hold no reproduce operation
            reproduce_s.append(reproduce(dataset_dir, work / "out0-0", config_path)[1])
        layers = {
            **{f"pipeline.{s}_s": [r["stage_seconds"][s] for r in traced] for s in STAGES},
            **{k: [r["layers"][k] for r in traced] for k in traced[0]["layers"]},
            "dataio.dataset_bytes": [sum(p.stat().st_size for p in dataset_dir.iterdir())],
            "dataio.load_condensed_s": [r["load_condensed_s"] for r in traced],
            "cli.reproduce_s": reproduce_s,
            "fid.fid": [r["metrics"]["fid"] for r in traced],
        }
        metrics = {name: statistics.median(values) for name, values in layers.items()}
        metrics["trace.overhead_s"] = statistics.median(
            r["distill_s"] for r in traced
        ) - statistics.median(r["distill_s"] for r in untraced)
        units = PER_LAYER
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }
