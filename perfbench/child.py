"""One distill in a process of its own, so that its peak memory is its own.

Runs the sequence of ``graphdistill distill``: load the dataset directory,
run the pipeline, save the condensed directory. It writes to RESULT_DIR
``result.json`` (wall time, stage timers, metrics), ``condensed.npz`` (the
returned condensed graph) and, when traced, ``spans.json``.

Usage: child.py DATASET_DIR OUT_DIR CONFIG_TOML RESULT_DIR TRACE(0|1)
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

from graphdistill import dataio, pipeline
from spans import Tracer


def main(argv: list[str]) -> int:
    dataset_dir, out_dir, config_path, result_dir = (Path(a) for a in argv[:4])
    cfg = pipeline.PipelineConfig.from_dict(dataio.load_flat_toml(config_path))
    tracer = Tracer() if argv[4] == "1" else None
    if tracer is not None:
        tracer.install()

    start = time.perf_counter()
    dataset = dataio.load_dataset(dataset_dir)
    result = pipeline.run_pipeline(dataset, cfg)
    dataio.save_condensed(result.condensed, out_dir)
    distill_s = time.perf_counter() - start

    condensed = result.condensed
    np.savez(
        result_dir / "condensed.npz",
        x_prime=condensed.x_prime,
        a_prime=condensed.a_prime,
        y_prime=condensed.y_prime,
    )
    record = {
        "distill_s": distill_s,
        "stage_seconds": result.stage_seconds,
        "metrics": result.metrics,
    }
    (result_dir / "result.json").write_text(json.dumps(record))
    if tracer is not None:
        (result_dir / "spans.json").write_text(json.dumps(tracer.spans))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
