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
from dataclasses import dataclass, field, fields

import numpy as np

from . import model
from .cluster import Clustering, cluster_means, kmeans, minibatch_kmeans
from .condense import (
    CondensedGraph,
    condense_adjacency,
    condense_attributes,
    condense_labels,
    sparsify_condensed,
)
from .dataio import config_hash
from .evaluate import (
    EvalConfig,
    EvalReport,
    GCNParams,
    evaluate_on_original,
    gcn_forward,
    renormalized_adjacency,
    train_eval_gcn,
)
from .fid import (
    cluster_size_variance_bound,
    covariance_gap_bound,
    fid,
    gaussian_stats,
    trace_sqrt_product,
)
from .graph import (
    Dataset,
    GraphError,
    SparseGraph,
    homophily_ratio,
    icad,
    normalize_rows,
    normalized_adjacency,
)
from .propagate import PropagationConfig, gls_propagate
from .refine import (
    RefineConfig,
    condense_class_graphs,
    cosine_degrees,
    effective_resistance_approx,
    refine,
    sample_class_graphs,
)


class PipelineError(RuntimeError):
    """A pipeline stage failed; the message names the stage."""


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
    pretrain_optimizer: str = "adam"
    # clustering
    E2: int = 300
    kmeans_tol: float = 1e-4
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
    refine_optimizer: str = "adam"
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
    eval_optimizer: str = "adam"
    eval_repeats: int = 3
    model_selection: str = "final"
    inductive: bool = False
    # metrics and variants
    fid_normalize: bool = True
    sparsify_epsilon: float = 0.0
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


@dataclass
class PipelineResult:
    condensed: CondensedGraph
    eval_report: EvalReport
    metrics: dict
    stage_seconds: dict

    def as_pair(self) -> tuple[CondensedGraph, EvalReport]:
        return self.condensed, self.eval_report


@contextmanager
def _stage(name: str, timings: dict):
    start = time.perf_counter()
    try:
        yield
    except Exception as exc:
        raise PipelineError(f"stage {name!r} failed: {exc}") from exc
    timings[name] = time.perf_counter() - start


def resolve_synthetic_size(cfg: PipelineConfig, dataset: Dataset) -> int:
    base = (
        int(dataset.train_mask.sum()) if cfg.ratio_base == "train" else dataset.num_nodes
    )
    n = cfg.num_synthetic if cfg.num_synthetic > 0 else int(round(cfg.ratio * base))
    n = max(1, n)
    if n >= dataset.num_nodes:
        raise GraphError("synthetic node count must be below N")
    return n


def stage_seeds(seed: int) -> tuple[int, int, int, int, int, int]:
    """The six stream seeds drawn from one config seed.

    In order: head init, pretraining, clustering, refinement head init,
    refinement and evaluation. Evaluation repeat r seeds its GCN with the
    last one plus r.
    """
    return tuple(int(s) for s in np.random.SeedSequence(seed).generate_state(6))


def evaluation_gcn(
    dataset: Dataset, condensed: CondensedGraph, cfg: PipelineConfig, repeat: int = 0
) -> GCNParams:
    """Train the evaluation GCN of one repeat, exactly as run_pipeline does."""
    ecfg = EvalConfig(
        epochs=cfg.eval_epochs,
        learning_rate=cfg.eval_lr,
        weight_decay=cfg.eval_weight_decay,
        hidden_dim=cfg.eval_hidden,
        dropout=cfg.eval_dropout,
        optimizer=cfg.eval_optimizer,
        model_selection=cfg.model_selection,
    )
    return train_eval_gcn(
        condensed,
        ecfg,
        seed=stage_seeds(cfg.seed)[5] + repeat,
        dataset=dataset if cfg.model_selection == "best_val" else None,
    )


def evaluate_condensed(
    dataset: Dataset, condensed: CondensedGraph, cfg: PipelineConfig
) -> tuple[GCNParams | None, list[float]]:
    """Test accuracies of cfg.eval_repeats evaluation GCNs, plus the first GCN."""
    first_params = None
    accuracies = []
    for r in range(cfg.eval_repeats):
        gcn = evaluation_gcn(dataset, condensed, cfg, r)
        if first_params is None:
            first_params = gcn
        accuracies.append(evaluate_on_original(gcn, dataset, inductive=cfg.inductive))
    return first_params, accuracies


def representation_fid(
    params: GCNParams, dataset: Dataset, condensed: CondensedGraph, normalize: bool
) -> float:
    """FID between the GCN outputs on the original and the condensed graph."""
    h_org = gcn_forward(params, renormalized_adjacency(dataset.graph), dataset.features)
    h_syn = gcn_forward(
        params, renormalized_adjacency(condensed.a_prime), condensed.x_prime
    )
    return fid(
        gaussian_stats(h_org, normalize=normalize),
        gaussian_stats(h_syn, normalize=normalize),
    )


def run_pipeline(dataset: Dataset, cfg: PipelineConfig) -> PipelineResult:
    timings: dict = {}
    s_pre_init, s_pre_train, s_cluster, s_refine_init, s_refine, _ = stage_seeds(
        cfg.seed
    )

    with _stage("propagate", timings):
        a_norm = normalized_adjacency(dataset.graph)
        Z = gls_propagate(
            a_norm, dataset.features, PropagationConfig(cfg.alpha, cfg.T)
        )

    with _stage("pretrain", timings):
        init_rng = np.random.default_rng(s_pre_init)
        head = model.init_classifier(
            init_rng,
            dataset.num_features,
            dataset.num_classes,
            depth=cfg.depth,
            hidden_dim=cfg.hidden,
            dropout_rate=cfg.dropout,
        )
        head, _ = model.train_classifier(
            Z,
            dataset.labels,
            dataset.train_mask,
            head,
            model.TrainConfig(
                epochs=cfg.E1,
                learning_rate=cfg.lr,
                weight_decay=cfg.weight_decay,
                seed=s_pre_train,
                optimizer=cfg.pretrain_optimizer,
            ),
        )
        H = model.forward(head, Z)
        P = model.softmax_predict(H)

    with _stage("cluster", timings):
        n = resolve_synthetic_size(cfg, dataset)
        if dataset.num_nodes > cfg.minibatch_threshold:
            clustering = minibatch_kmeans(
                H, n, seed=s_cluster, max_iter=cfg.E2,
                batch_size=cfg.kmeans_batch, tol=cfg.kmeans_tol,
            )
        else:
            clustering = kmeans(
                H, n, seed=s_cluster, max_iter=cfg.E2,
                tol=cfg.kmeans_tol, n_init=cfg.kmeans_n_init,
            )

    with _stage("condense", timings):
        x_prime = condense_attributes(clustering, Z)
        a_prime = sparsify_condensed(
            condense_adjacency(clustering, a_norm), cfg.sparsify_epsilon
        )
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
        class_set = sample_class_graphs(
            a_norm, P, resistance, cfg.rho, weighting=cfg.class_graph_weighting
        )
        class_set = condense_class_graphs(clustering, class_set)

    with _stage("refine", timings):
        refine_rng = np.random.default_rng(s_refine_init)
        w_prime_init = model.init_classifier(
            refine_rng,
            dataset.num_features,
            dataset.num_classes,
            depth=cfg.depth,
            hidden_dim=cfg.hidden,
            dropout_rate=cfg.dropout,
        )
        rcfg = RefineConfig(
            beta=cfg.beta,
            rho=cfg.rho,
            T_prime=cfg.T_prime,
            alpha_prime=None if cfg.alpha_prime < 0 else cfg.alpha_prime,
            gamma=cfg.gamma,
            lambda_=cfg.lambda_,
            epochs=cfg.E3,
            learning_rate=cfg.lr,
            seed=s_refine,
            optimizer=cfg.refine_optimizer,
        )
        result = refine(
            Z,
            dataset.labels,
            dataset.train_mask,
            condensed,
            class_set,
            w_prime_init,
            rcfg,
            cfg.alpha,
        )
        x_before = condensed.x_prime
        condensed.x_prime = result.x_refined
        if cfg.clustgdd_x:
            condensed.a_prime = np.eye(n)

    with _stage("evaluate", timings):
        first_params, accuracies = evaluate_condensed(dataset, condensed, cfg)

    with _stage("metrics", timings):
        h_norm = normalize_rows(H)
        h_prime_norm = cluster_means(clustering, h_norm)
        stats_org = gaussian_stats(h_norm, normalize=False)
        stats_syn = gaussian_stats(h_prime_norm, normalize=False)
        mean_shift = float(np.sum((stats_org.mu - stats_syn.mu) ** 2))
        t1 = cluster_size_variance_bound(clustering)
        t2_lhs = (
            float(np.trace(stats_org.sigma))
            + float(np.trace(stats_syn.sigma))
            - 2.0 * trace_sqrt_product(stats_org.sigma, stats_syn.sigma)
        )
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

        fid_value = representation_fid(
            first_params, dataset, condensed, cfg.fid_normalize
        )

    total = sum(timings.values())
    acc = np.array(accuracies)
    metrics = {
        "fid": fid_value,
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
    report = EvalReport(
        test_accuracy=float(acc.mean()),
        per_seed=[float(a) for a in accuracies],
        std=float(acc.std()),
        fid_value=fid_value,
        runtime_seconds=total,
    )
    return PipelineResult(condensed, report, metrics, timings)


def report_block(result: PipelineResult) -> str:
    """Flat key = value metric block, one line per key."""
    lines = []
    for key in (
        "fid",
        "theorem1_bound",
        "theorem2_lhs",
        "theorem2_rhs",
        "icad_before",
        "icad_after",
        "accuracy_mean",
        "accuracy_std",
    ):
        lines.append(f"{key} = {format(result.metrics[key], '.6g')}")
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
    offsets = np.concatenate([[0], np.cumsum(sizes)])

    edges = []
    for ci in range(K):
        for cj in range(ci, K):
            si, sj = sizes[ci], sizes[cj]
            if ci == cj:
                draw = rng.random((si, si))
                ii, jj = np.nonzero(np.triu(draw < spec.intra_prob, k=1))
            else:
                draw = rng.random((si, sj))
                ii, jj = np.nonzero(draw < spec.inter_prob)
            if ii.size:
                edges.append(
                    np.column_stack([offsets[ci] + ii, offsets[cj] + jj])
                )
    edge_array = (
        np.concatenate(edges) if edges else np.empty((0, 2), dtype=np.int64)
    )
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
