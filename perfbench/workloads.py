"""The benchmark's three workloads: block-model datasets plus pipeline settings.

Every input is drawn by ``generate_sbm`` from the benchmark seed, so nothing
is downloaded. Epoch counts are cut from the defaults so that one run fits
in well under a minute on a 2-core machine; the README gives the reasons
for each choice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from graphdistill.graph import Dataset
from graphdistill.pipeline import PipelineConfig, SbmSpec, generate_sbm


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sbm: dict  # SbmSpec fields other than the seed
    config: dict  # PipelineConfig overrides
    # Planetoid-style split: this many training nodes per class, then fixed
    # validation and test counts. None keeps the generator's 60/20/20 split.
    per_class_train: int | None = None
    val_count: int = 0
    test_count: int = 0
    # run the `evaluate` and `fid` subcommands on each saved directory and
    # compare their output with its meta.toml
    reproduce: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="cora-shape",
            why="wide features and 5% labelled rows, so the head's full-graph rows dominate pretrain and refine",
            sbm=dict(
                num_nodes=2708, num_classes=7, intra_prob=0.0084,
                inter_prob=0.00032, feature_dim=1433, separation=2.0,
            ),
            config=dict(E1=10, E3=10, eval_epochs=40),
            per_class_train=20, val_count=500, test_count=2068,
            reproduce=True,
        ),
        Workload(
            name="sbm-bestval",
            why="60% labelled rows and best_val selection, so the per-epoch full-graph GCN of evaluation dominates",
            sbm=dict(
                num_nodes=3000, num_classes=4, intra_prob=0.006,
                inter_prob=0.003, feature_dim=32, separation=2.0,
            ),
            config=dict(E1=20, E3=10, eval_epochs=60, model_selection="best_val"),
        ),
        Workload(
            name="sbm-large",
            why="N above minibatch_threshold, so minibatch k-means, the loader and class-graph sampling over M edges run",
            sbm=dict(
                num_nodes=21000, num_classes=8, intra_prob=0.0015,
                inter_prob=0.0002, feature_dim=32, separation=2.0,
            ),
            config=dict(E1=3, E2=100, E3=4, eval_epochs=40),
        ),
    )
}


def make_dataset(workload: Workload, seed: int) -> Dataset:
    """Draw the workload's dataset; the same seed gives the same dataset."""
    dataset = generate_sbm(SbmSpec(seed=seed, **workload.sbm))
    if workload.per_class_train is None:
        return dataset
    # SbmSpec has no split field, so the split is redrawn here from a
    # stream of its own that the generator's draws do not touch.
    rng = np.random.default_rng([seed, 1])
    N = dataset.num_nodes
    train = np.zeros(N, dtype=bool)
    for c in range(dataset.num_classes):
        members = np.flatnonzero(dataset.labels == c)
        train[rng.choice(members, size=workload.per_class_train, replace=False)] = True
    rest = rng.permutation(np.flatnonzero(~train))
    val = np.zeros(N, dtype=bool)
    test = np.zeros(N, dtype=bool)
    val[rest[: workload.val_count]] = True
    test[rest[workload.val_count : workload.val_count + workload.test_count]] = True
    return Dataset(
        dataset.graph, dataset.features, dataset.labels, train, val, test,
        dataset.num_classes, name=dataset.name,
    )


def pipeline_config(workload: Workload, seed: int) -> PipelineConfig:
    return PipelineConfig(seed=seed, **workload.config)
