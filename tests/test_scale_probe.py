"""scripts/scale_probe.py still runs against the library.

The probe wraps library functions by name and reads the class views from
refine_loss_and_grads' fifth positional argument, so a refactor can break
it without failing any other test. Here it runs at a tiny shape.
"""

import importlib.util
import json
import math
from pathlib import Path

from graphdistill import cluster, pipeline, refine

ROOT = Path(__file__).resolve().parent.parent


def test_scale_probe_prints_finite_metrics(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(
        "scale_probe", ROOT / "scripts" / "scale_probe.py"
    )
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    shape = dict(NODES=400, CLASSES=4, DIM=8, P=0.05, Q=0.005, SEED=1)
    for name, value in shape.items():
        monkeypatch.setattr(probe, name, value)
    # the probe replaces these with wrappers; monkeypatch puts them back
    monkeypatch.setattr(pipeline, "_stage", pipeline._stage)
    monkeypatch.setattr(cluster, "_kmeans_pp", cluster._kmeans_pp)
    monkeypatch.setattr(refine, "refine_loss_and_grads", refine.refine_loss_and_grads)
    probe.main()
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["shape"]["nodes"] == 400
    metrics = record["metrics"]
    assert {"refine.views_density", "refine.epoch_s", "rss_after.refine_mb"} <= set(metrics)
    assert all(math.isfinite(m["value"]) for m in metrics.values())
    assert 0.0 < metrics["refine.views_density"]["value"] <= 1.0
