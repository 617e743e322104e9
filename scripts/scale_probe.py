"""One distill of a large block model at cut epochs, to measure scale.

The shape is OGB arXiv's (169000 nodes, 40 classes, 128 features,
homophily about 0.65). Prints one JSON object in the shape of a
BENCH_*.json run: each stage's seconds and the RSS high-water mark after
it, the k-means++ seconds, the class views' density and one refinement
epoch's seconds. Run from a checkout's root; its src/ is used. The run
peaks near 2 GB, so cap the address space (ulimit -v) on a shared host:

    OPENBLAS_NUM_THREADS=1 python3 scripts/scale_probe.py > probe.json
"""

import contextlib
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from graphdistill import cluster, pipeline, refine  # noqa: E402

NODES, CLASSES, DIM, P, Q, SEED = 169000, 40, 128, 2.18e-3, 3.0e-5, 1


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed(owner, name: str, calls: list) -> None:
    """Wrap owner.name so that each call appends (seconds, args) to calls."""
    fn = getattr(owner, name)

    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        calls.append((time.perf_counter() - start, args))
        return result

    setattr(owner, name, wrapper)


def main() -> None:
    stage_rss, seeding, epochs = {}, [], []
    stage = pipeline._stage

    @contextlib.contextmanager
    def recorded_stage(name, timings):
        with stage(name, timings):
            yield
        stage_rss[name] = rss_mb()

    pipeline._stage = recorded_stage
    timed(cluster, "_kmeans_pp", seeding)
    timed(refine, "refine_loss_and_grads", epochs)
    start = time.perf_counter()
    dataset = pipeline.generate_sbm(pipeline.SbmSpec(
        num_nodes=NODES, num_classes=CLASSES, intra_prob=P,
        inter_prob=Q, feature_dim=DIM, seed=SEED,
    ))
    m = {"setup_s": (time.perf_counter() - start, "s"), "setup_rss_mb": (rss_mb(), "MB")}
    cfg = pipeline.PipelineConfig(E1=2, E2=5, E3=1, eval_epochs=2, eval_repeats=1)
    start = time.perf_counter()
    result = pipeline.run_pipeline(dataset, cfg)
    m["distill_s"] = (time.perf_counter() - start, "s")
    for name, seconds in result.stage_seconds.items():
        m[f"pipeline.{name}_s"] = (seconds, "s")
        m[f"rss_after.{name}_mb"] = (stage_rss[name], "MB")
    m["cluster.kmeans_pp_s"] = (sum(s for s, _ in seeding), "s")
    views = epochs[0][1][4]
    n = views[0].shape[0]
    m["refine.views_density"] = (sum(v.nnz for v in views) / (len(views) * n * n), "1")
    m["refine.epoch_s"] = (epochs[0][0], "s")
    m["test_accuracy"] = (result.metrics["accuracy_mean"], "fraction")
    shape = {"nodes": NODES, "classes": CLASSES, "dim": DIM, "p": P, "q": Q,
             "seed": SEED, "n": n}
    print(json.dumps({"shape": shape,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in m.items()}}))


if __name__ == "__main__":
    main()
