"""Benchmark of `graphdistill distill` on block-model workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Progress and check failures go to standard error. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def prepare_environment() -> bool:
    """Pin BLAS to one thread, fix string hashing and put the checkout's sources first.

    These settings live in this process's environment, which the distill
    child processes inherit. Must run before numpy is imported. Returns
    False when the checkout holds no graphdistill sources.
    """
    if not (SRC / "graphdistill" / "__init__.py").is_file():
        return False
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    # With random string hashing, allocations land differently in
    # each process, and the peak memory of identical distills spread by 10%.
    os.environ["PYTHONHASHSEED"] = "0"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    sys.path.insert(0, str(SRC))
    return True


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not prepare_environment():
        print(f"error: no graphdistill sources under {SRC}", file=sys.stderr)
        return 2

    # Turn SIGTERM into an exit, so cleanup in `finally` blocks kills the
    # running distill child and removes the run directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    import bench
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    result = bench.run(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), HERE / "work"
    )
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
