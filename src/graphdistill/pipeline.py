"""End-to-end condensation pipeline and a block-model dataset generator.

Stage order: smooth attributes, pretrain the head, cluster the resulting
representations, compress attributes/adjacency/labels, build class-wise
graphs, refine the condensed attributes, then train and test the
evaluation GCN. Every stage draws randomness from streams derived from the
single config seed, and per-stage wall times are recorded.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, fields

import numpy as np

from . import model
from .cluster import cluster_means, kmeans, minibatch_kmeans, sketching_matrix
from .condense import CondensedGraph, compress_adjacency, condense_labels
from .dataio import config_hash
from .evaluate import (
    MODEL_SELECTIONS,
    _validation_logits,
    evaluate_on_original,
    forward_features,
    gcn_forward,
    inductive_graph,
    renormalized_adjacency,
    train_eval_gcn,
)
from .fid import (
    cluster_size_variance_bound,
    covariance_gap_bound,
    fid,
    fid_terms,
    gaussian_stats,
)
from .graph import (
    Dataset,
    GraphError,
    SparseGraph,
    icad,
    normalize_rows,
    normalized_adjacency,
)
from .propagate import gls_propagate
from .refine import (
    WEIGHTINGS,
    cosine_degrees,
    effective_resistance_approx,
    refine,
    sample_class_graphs,
)


class PipelineError(RuntimeError):
    """A pipeline stage failed; the message names the stage."""


# The allowed values of each config field that names a choice.
CHOICES = {
    "ratio_base": ("all", "train"),
    "model_selection": MODEL_SELECTIONS,
    "class_graph_weighting": WEIGHTINGS,
}

# The allowed range of each numeric config field, as (description, test).
_COUNT = ("at least 0", lambda v: v >= 0)
_POSITIVE = ("at least 1", lambda v: v >= 1)
_FRACTION = ("in [0, 1)", lambda v: 0.0 <= v < 1.0)
RANGES = {
    "alpha": _FRACTION,
    "dropout": _FRACTION,
    "eval_dropout": _FRACTION,
    "alpha_prime": ("below 1 (a negative value reuses alpha)", lambda v: v < 1.0),
    "rho": ("in (0, 1]", lambda v: 0.0 < v <= 1.0),
    "ratio": ("above 0", lambda v: v > 0.0),
    "T": _COUNT,
    "E1": _COUNT,
    "E2": _COUNT,
    "E3": _COUNT,
    "eval_epochs": _COUNT,
    "T_prime": _COUNT,
    "num_synthetic": _COUNT,
    "depth": _POSITIVE,
    "hidden": _POSITIVE,
    "eval_hidden": _POSITIVE,
    "kmeans_batch": _POSITIVE,
    "kmeans_n_init": _POSITIVE,
    "eval_repeats": _POSITIVE,
}


@dataclass
class PipelineConfig:
    # propagation
    T: int = 5
    alpha: float = 0.8
    # pretraining head
    E1: int = 80
    lr: float = 0.01
    weight_decay: float = 5e-4
    dropout: float = 0.6
    hidden: int = 256
    depth: int = 3
    # clustering
    E2: int = 300
    kmeans_n_init: int = 10
    kmeans_batch: int = 1000
    minibatch_threshold: int = 20000
    # refinement
    beta: float = 0.01
    rho: float = 0.4
    T_prime: int = 2
    alpha_prime: float = -1.0  # negative means: reuse alpha
    E3: int = 2000
    gamma: float = 7.0
    lambda_: float = 0.1
    # synthetic size
    num_synthetic: int = 0  # 0 derives the size from ratio
    ratio: float = 0.026
    ratio_base: str = "all"  # or "train"
    # evaluation
    eval_epochs: int = 600
    eval_lr: float = 0.01
    eval_weight_decay: float = 1e-5
    eval_hidden: int = 256
    eval_dropout: float = 0.5
    eval_repeats: int = 3
    model_selection: str = "final"
    inductive: bool = False
    # variants
    clustgdd_x: bool = False
    class_graph_weighting: str = "adjacency"
    seed: int = 0

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            key = "lambda" if f.name == "lambda_" else f.name
            out[key] = getattr(self, f.name)
        return out

    @classmethod
    def from_dict(cls, entries: dict) -> "PipelineConfig":
        known = {f.name for f in cls.__dataclass_fields__.values()}
        kwargs = {}
        for key, value in entries.items():
            name = "lambda_" if key == "lambda" else key
            if name not in known:
                raise ValueError(f"unknown config key {key!r}")
            kwargs[name] = value
        return cls(**kwargs)

    def hash(self) -> str:
        return config_hash(self.to_dict())

    def validate(self) -> None:
        """Raise ValueError on the first value outside CHOICES or RANGES.

        This is the only check of the config's values; the stages read them
        as given.
        """
        for name, allowed in CHOICES.items():
            value = getattr(self, name)
            if value not in allowed:
                names = " or ".join(map(repr, allowed))
                raise ValueError(f"{name} must be {names}, not {value!r}")
        for name, (allowed, ok) in RANGES.items():
            value = getattr(self, name)
            if not ok(value):
                raise ValueError(f"{name} must be {allowed}, not {value!r}")


@dataclass
class PipelineResult:
    condensed: CondensedGraph
    accuracies: list[float]  # test accuracy of each evaluation GCN
    metrics: dict  # in the order report_block prints
    stage_seconds: dict


@contextmanager
def _stage(name: str, timings: dict):
    start = time.perf_counter()
    try:
        yield
    except Exception as exc:
        raise PipelineError(f"stage {name!r} failed: {exc}") from exc
    timings[name] = time.perf_counter() - start


def resolve_synthetic_size(cfg: PipelineConfig, dataset: Dataset) -> int:
    """The synthetic node count n: num_synthetic, or ratio times the base count.

    Raises GraphError unless 2 <= n < N.
    """
    base = (
        int(dataset.train_mask.sum()) if cfg.ratio_base == "train" else dataset.num_nodes
    )
    n = cfg.num_synthetic if cfg.num_synthetic > 0 else int(round(cfg.ratio * base))
    if n < 2:
        raise GraphError(f"synthetic node count {n} is below 2")
    if n >= dataset.num_nodes:
        raise GraphError("synthetic node count must be below N")
    return n


def require_test_nodes(dataset: Dataset) -> None:
    """Raise GraphError when the test split is empty: no accuracy can be scored."""
    if not np.any(dataset.test_mask):
        raise GraphError("the test split is empty")


def stage_seeds(seed: int) -> tuple[int, int, int, int, int, int]:
    """The six stream seeds drawn from one config seed.

    In order: head init, pretraining, clustering, refinement head init,
    refinement and evaluation. Evaluation repeat r seeds its GCN with the
    last one plus r.
    """
    return tuple(int(s) for s in np.random.SeedSequence(seed).generate_state(6))


def evaluate_condensed(
    dataset: Dataset, condensed: CondensedGraph, cfg: PipelineConfig
) -> tuple[list[float], float]:
    """Test accuracies of cfg.eval_repeats evaluation GCNs, and the FID of the first.

    Every command scores a condensed graph here. The renormalized
    adjacencies are formed once each: Â of the original graph, Â of its
    test-induced subgraph when cfg.inductive, and Â′. Repeat r seeds its
    GCN with the evaluation stream seed plus r; their test forwards share
    one product of the test adjacency and features, from which a
    transductive best_val selection also copies its validation rows. The
    FID compares GCN 0's logits on the original graph, which its
    transductive test forward has already computed, with its logits on the
    condensed graph.
    """
    cfg.validate()
    require_test_nodes(dataset)
    seed = stage_seeds(cfg.seed)[5]
    a_org = renormalized_adjacency(dataset.graph)
    a_test = renormalized_adjacency(inductive_graph(dataset)) if cfg.inductive else a_org
    a_syn = renormalized_adjacency(condensed.a_prime)
    ax_test = a_test @ forward_features(dataset, cfg.inductive)
    ax_org = None if cfg.inductive else ax_test
    accuracies = []
    for r in range(cfg.eval_repeats):
        # the validation logits are formed per training, so that their
        # buffers are freed before the test forward
        gcn = train_eval_gcn(
            condensed, cfg, seed + r, a_syn,
            _validation_logits(dataset, a_org, ax_org)
            if cfg.model_selection == "best_val" else None,
        )
        accuracy, logits = evaluate_on_original(gcn, dataset, a_test, cfg.inductive, ax=ax_test)
        accuracies.append(accuracy)
        if r == 0:
            h_org = gcn_forward(gcn, a_org, dataset.features) if cfg.inductive else logits
            h_syn = gcn_forward(gcn, a_syn, condensed.x_prime)
            fid_score = fid(gaussian_stats(h_org), gaussian_stats(h_syn))
    return accuracies, fid_score


def run_pipeline(dataset: Dataset, cfg: PipelineConfig) -> PipelineResult:
    timings: dict = {}
    s_pre_init, s_pre_train, s_cluster, s_refine_init, s_refine, _ = stage_seeds(
        cfg.seed
    )

    def init_head(seed: int) -> model.ClassifierParams:
        return model.init_classifier(
            np.random.default_rng(seed), dataset.num_features, dataset.num_classes,
            depth=cfg.depth, hidden_dim=cfg.hidden, dropout_rate=cfg.dropout,
        )

    with _stage("propagate", timings):
        cfg.validate()
        n = resolve_synthetic_size(cfg, dataset)
        require_test_nodes(dataset)
        a_norm = normalized_adjacency(dataset.graph)
        Z = gls_propagate(a_norm, dataset.features, cfg.alpha, cfg.T)

    with _stage("pretrain", timings):
        head, _ = model.train_classifier(
            Z, dataset.labels, dataset.train_mask, init_head(s_pre_init), cfg, s_pre_train
        )
        H = model.forward(head, Z)
        P = model.softmax_predict(H)

    with _stage("cluster", timings):
        if dataset.num_nodes > cfg.minibatch_threshold:
            clustering = minibatch_kmeans(
                H, n, seed=s_cluster, max_iter=cfg.E2,
                batch_size=cfg.kmeans_batch, n_init=cfg.kmeans_n_init,
            )
        else:
            clustering = kmeans(
                H, n, seed=s_cluster, max_iter=cfg.E2, n_init=cfg.kmeans_n_init
            )

    with _stage("condense", timings):
        x_prime = cluster_means(clustering, Z)
        # one C_norm compresses A_norm here and every class graph below
        c_norm = sketching_matrix(clustering)
        a_prime = compress_adjacency(c_norm, a_norm.to_scipy())
        y_prime = condense_labels(clustering, H, dataset.num_classes)
        condensed = CondensedGraph(
            x_prime,
            a_prime,
            y_prime,
            meta={
                "dataset": dataset.name,
                "n": int(n),
                "ratio": float(n) / dataset.num_nodes,
                "seed": cfg.seed,
                "config_hash": cfg.hash(),
            },
        )
        condensed.validate()

    with _stage("class_graphs", timings):
        cos_deg = cosine_degrees(dataset.graph, H)
        resistance = effective_resistance_approx(dataset.graph, cos_deg)
        # the K sampled N x N graphs live only until they are condensed
        views = [
            compress_adjacency(c_norm, a)
            for a in sample_class_graphs(
                a_norm, P, resistance, cfg.rho, weighting=cfg.class_graph_weighting
            ).sampled
        ]

    with _stage("refine", timings):
        result = refine(
            Z, dataset.labels, dataset.train_mask, condensed, views,
            init_head(s_refine_init), cfg, s_refine,
        )
        x_before = condensed.x_prime
        condensed.x_prime = result.x_refined
        if cfg.clustgdd_x:
            condensed.a_prime = np.eye(n)
        del Z  # no later stage reads it

    with _stage("evaluate", timings):
        accuracies, fid_score = evaluate_condensed(dataset, condensed, cfg)

    with _stage("metrics", timings):
        h_norm = normalize_rows(H)
        h_prime_norm = cluster_means(clustering, h_norm)
        stats_org = gaussian_stats(h_norm, normalize=False)
        stats_syn = gaussian_stats(h_prime_norm, normalize=False)
        mean_shift, t2_lhs = fid_terms(stats_org, stats_syn)
        t1 = cluster_size_variance_bound(clustering)
        t2_rhs = covariance_gap_bound(
            h_norm, h_prime_norm, clustering, stats_org, mean_shift
        )

        y_labels = condensed.labels
        def _icad_or_nan(attrs: np.ndarray) -> float:
            try:
                return icad(attrs, y_labels)
            except GraphError:
                return float("nan")

        icad_before = _icad_or_nan(x_before)
        icad_after = _icad_or_nan(condensed.x_prime)

    acc = np.array(accuracies)
    metrics = {
        "fid": fid_score,
        "theorem1_bound": t1,
        "theorem2_lhs": t2_lhs,
        "theorem2_rhs": t2_rhs,
        "icad_before": icad_before,
        "icad_after": icad_after,
        "accuracy_mean": float(acc.mean()),
        "accuracy_std": float(acc.std()),
    }
    for key, value in metrics.items():
        condensed.meta.setdefault(key, float(value))
    return PipelineResult(condensed, accuracies, metrics, timings)


def report_block(result: PipelineResult) -> str:
    """Flat key = value metric block, one line per key."""
    lines = [f"{key} = {format(value, '.6g')}" for key, value in result.metrics.items()]
    lines.append(f"runtime_total_s = {format(sum(result.stage_seconds.values()), '.6g')}")
    per_stage = ",".join(
        f"{name}:{format(seconds, '.4g')}"
        for name, seconds in result.stage_seconds.items()
    )
    lines.append(f"runtime_per_stage = {per_stage}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# stochastic block model generator


@dataclass
class SbmSpec:
    """Planted-partition graph with Gaussian class-mean features."""

    num_nodes: int = 1000
    num_classes: int = 4
    intra_prob: float = 0.05
    inter_prob: float = 0.005
    feature_dim: int = 32
    separation: float = 1.0
    noise_scale: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.inter_prob <= self.intra_prob <= 1.0:
            raise ValueError("need 0 <= inter_prob <= intra_prob <= 1")
        if self.num_classes < 1 or self.num_nodes < self.num_classes:
            raise ValueError("need at least one node per class")
        if self.feature_dim < 1:
            raise ValueError(f"feature_dim {self.feature_dim} is below 1")


def _sbm_edges(
    rng: np.random.Generator, sizes: np.ndarray, intra_prob: float, inter_prob: float
) -> np.ndarray:
    """Edge list of a block model whose classes hold sizes nodes, in order.

    Each class-pair block (ci <= cj) draws its hit count from
    Binomial(si * sj, p), then that many distinct positions uniformly from
    its si * sj pairs, decoded in row-major order: every pair is an edge
    independently with probability p, at a cost of O(hits) rather than
    O(pairs). Diagonal blocks keep their strict upper triangle. Above a
    block density of 1/50 (a count over pairs // 50, on more than 10000
    pairs) numpy's choice falls back to a partial shuffle of all the
    block's pairs, which is O(pairs) again.
    """
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    edges = []
    for ci in range(len(sizes)):
        for cj in range(ci, len(sizes)):
            sj = sizes[cj]
            total = sizes[ci] * sj
            count = rng.binomial(total, intra_prob if ci == cj else inter_prob)
            ii, jj = np.divmod(np.sort(rng.choice(total, size=count, replace=False)), sj)
            if ci == cj:
                upper = jj > ii
                ii, jj = ii[upper], jj[upper]
            edges.append(np.column_stack([offsets[ci] + ii, offsets[cj] + jj]))
    return np.concatenate(edges)


def generate_sbm(spec: SbmSpec) -> Dataset:
    """Sample a block-model dataset with a seeded 60/20/20 node split.

    Draw order is fixed (edges by class-pair block, then feature means,
    noise, and the split permutation) so one seed gives one dataset.
    """
    rng = np.random.default_rng(spec.seed)
    N, K = spec.num_nodes, spec.num_classes
    sizes = np.full(K, N // K)
    sizes[: N % K] += 1
    labels = np.repeat(np.arange(K), sizes)
    edge_array = _sbm_edges(rng, sizes, spec.intra_prob, spec.inter_prob)
    graph = SparseGraph.from_edges(N, edge_array)

    means = spec.separation * normalize_rows(
        rng.standard_normal((K, spec.feature_dim))
    )
    features = means[labels] + spec.noise_scale * rng.standard_normal(
        (N, spec.feature_dim)
    )

    perm = rng.permutation(N)
    n_train = int(round(0.6 * N))
    n_val = int(round(0.2 * N))
    train_mask = np.zeros(N, dtype=bool)
    val_mask = np.zeros(N, dtype=bool)
    test_mask = np.zeros(N, dtype=bool)
    train_mask[perm[:n_train]] = True
    val_mask[perm[n_train : n_train + n_val]] = True
    test_mask[perm[n_train + n_val :]] = True

    return Dataset(
        graph,
        features,
        labels,
        train_mask,
        val_mask,
        test_mask,
        K,
        name=f"sbm-n{N}-k{K}-s{spec.seed}",
    )
