"""Class-aware refinement of condensed attributes.

The condensed attributes inherit over-smoothing from propagation over
heterophilic edges. This stage learns an additive correction Delta and a
fresh head W' by descending three terms jointly: full-graph training loss
under the shared head, per-class synthetic training loss over class-wise
condensed adjacencies, and a consistency penalty tying the per-class
predictions together. Class-wise adjacencies keep only the highest-weight
edges, scored by predicted co-membership times an effective-resistance
proxy. All gradients are written out by hand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import model
from .cluster import Clustering, sketching_matrices
from .condense import CondensedGraph
from .graph import GraphError, SparseGraph, normalize_rows
from .model import ClassifierParams, DivergedError
from .propagate import propagate_dense

COS_FLOOR = 1e-6


@dataclass
class RefineConfig:
    beta: float = 0.01  # correction scale on Delta
    rho: float = 0.4  # fraction of edges kept per class graph
    T_prime: int = 2
    alpha_prime: float | None = None  # None reuses the propagation alpha
    gamma: float = 7.0  # synthetic-loss weight
    lambda_: float = 0.1  # consistency weight
    epochs: int = 2000
    learning_rate: float = 0.01
    seed: int = 0
    optimizer: str = "adam"

    def __post_init__(self) -> None:
        if not 0.0 < self.rho <= 1.0:
            raise ValueError("rho must lie in (0, 1]")
        if self.T_prime < 0:
            raise ValueError("T_prime must be nonnegative")
        if self.epochs < 0:
            raise ValueError("epochs must be nonnegative")


@dataclass
class Augmentation:
    """Learned additive correction to the condensed attributes."""

    delta: np.ndarray

    @classmethod
    def zeros(cls, n: int, d: int) -> "Augmentation":
        return cls(np.zeros((n, d)))


@dataclass
class ClassGraphSet:
    """One sampled full-size adjacency per class, plus condensed versions."""

    sampled: list[sp.csr_matrix]
    condensed: list[np.ndarray] = field(default_factory=list)

    @property
    def num_classes(self) -> int:
        return len(self.sampled)


@dataclass
class RefineResult:
    x_refined: np.ndarray
    params: ClassifierParams
    augmentation: Augmentation
    loss_trace: list[float]


def cosine_degrees(graph: SparseGraph, H: np.ndarray) -> np.ndarray:
    """Per-node sum of neighbor cosine similarities, clamped to [1e-6, 1].

    Zero-norm representation rows contribute the floor value, so every
    edge endpoint ends up with a strictly positive degree.
    """
    hn = normalize_rows(H)
    e = graph.undirected_edges()
    cos = np.einsum("ij,ij->i", hn[e[:, 0]], hn[e[:, 1]])
    cos = np.clip(cos, COS_FLOOR, 1.0)
    out = np.zeros(graph.num_nodes)
    np.add.at(out, e[:, 0], cos)
    np.add.at(out, e[:, 1], cos)
    return out


def effective_resistance_approx(
    graph: SparseGraph, cos_deg: np.ndarray
) -> np.ndarray:
    """Per-edge resistance proxy 0.5 * (1/deg_i + 1/deg_j), aligned with undirected_edges()."""
    e = graph.undirected_edges()
    return 0.5 * (1.0 / cos_deg[e[:, 0]] + 1.0 / cos_deg[e[:, 1]])


def class_edge_weights(
    graph: SparseGraph, P: np.ndarray, resistance: np.ndarray, class_id: int
) -> np.ndarray:
    """w(i, j) = P[i, y] * P[j, y] * r(i, j) for one class y."""
    e = graph.undirected_edges()
    return P[e[:, 0], class_id] * P[e[:, 1], class_id] * resistance


def sample_class_graphs(
    a_norm: SparseGraph,
    P: np.ndarray,
    resistance: np.ndarray,
    rho: float,
    weighting: str = "adjacency",
) -> ClassGraphSet:
    """Keep the ceil(rho * M) highest-weight edges per class.

    Ties break on the lexicographic edge id. Retained edges carry their
    normalized-adjacency values by default; weighting="score" copies the
    class weights instead.
    """
    if not 0.0 < rho <= 1.0:
        raise GraphError("rho must lie in (0, 1]")
    if weighting not in ("adjacency", "score"):
        raise ValueError("weighting must be 'adjacency' or 'score'")
    e = a_norm.undirected_edges()
    vals = a_norm.edge_values()
    M = e.shape[0]
    m_keep = min(M, math.ceil(rho * M))
    N = a_norm.num_nodes
    sampled = []
    for y in range(P.shape[1]):
        w = class_edge_weights(a_norm, P, resistance, y)
        order = np.lexsort((e[:, 1], e[:, 0], -w))
        top = order[:m_keep]
        kept_vals = vals[top] if weighting == "adjacency" else w[top]
        rows = np.concatenate([e[top, 0], e[top, 1]])
        cols = np.concatenate([e[top, 1], e[top, 0]])
        data = np.concatenate([kept_vals, kept_vals])
        sampled.append(sp.csr_matrix((data, (rows, cols)), shape=(N, N)))
    return ClassGraphSet(sampled)


def condense_class_graphs(
    clustering: Clustering, class_set: ClassGraphSet
) -> ClassGraphSet:
    """Compress each class adjacency with the rescaled membership operator."""
    _, c_norm = sketching_matrices(clustering)
    condensed = []
    for a in class_set.sampled:
        m = (c_norm.T @ (a @ c_norm)).toarray()
        condensed.append(0.5 * (m + m.T))
    return ClassGraphSet(class_set.sampled, condensed)


def class_representations(
    cond_adjs: list[np.ndarray],
    x_prime: np.ndarray,
    augmentation: Augmentation,
    beta: float,
    params: ClassifierParams,
    alpha: float,
    T_prime: int,
) -> list[np.ndarray]:
    """Per-class logits: smooth X' + beta * Delta over A'(y), then apply the head."""
    base = x_prime + beta * augmentation.delta
    out = []
    for adj in cond_adjs:
        smoothed = propagate_dense(adj, base, alpha, T_prime)
        out.append(model.forward(params, smoothed))
    return out


def syn_loss(view_probs: list[np.ndarray], y_prime: np.ndarray) -> float:
    """Summed per-view cross-entropy of the synthetic labels, averaged over nodes."""
    n = y_prime.shape[0]
    labels = np.argmax(y_prime, axis=1)
    total = 0.0
    for P in view_probs:
        picked = np.clip(P[np.arange(n), labels], 1e-12, None)
        total += float(-np.sum(np.log(picked))) / n
    return total


def consistency_loss(view_probs: list[np.ndarray]) -> float:
    """Mean squared deviation of each view's probabilities from the view mean."""
    K = len(view_probs)
    n = view_probs[0].shape[0]
    pbar = sum(view_probs) / K
    total = sum(float(np.sum((P - pbar) ** 2)) for P in view_probs)
    return total / (n * K)


def refine_loss_and_grads(
    Z: np.ndarray,
    labels: np.ndarray,
    train_mask: np.ndarray,
    x_prime: np.ndarray,
    y_prime: np.ndarray,
    cond_adjs: list[np.ndarray],
    delta: np.ndarray,
    params: ClassifierParams,
    beta: float,
    alpha: float,
    T_prime: int,
    gamma: float,
    lambda_: float,
    train_mode: bool = False,
    rng: np.random.Generator | None = None,
) -> tuple[float, tuple[float, float, float], np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """Joint loss and analytic gradients with respect to Delta and the head.

    Gradients accumulate over class views in class-index order. The Delta
    gradient rides back through the fixed propagation operator, which is
    its own adjoint because each A'(y) is symmetric.
    """
    n, num_classes = y_prime.shape
    mask = np.asarray(train_mask, dtype=bool)
    mask_count = int(mask.sum())

    logits_org, cache_org = model.forward_cache(params, Z, train_mode, rng)
    P_org = model.softmax_predict(logits_org)
    l_org = model.cross_entropy(P_org, labels, mask)
    onehot = np.zeros_like(P_org)
    onehot[np.arange(Z.shape[0]), np.asarray(labels)] = 1.0
    dlogits_org = np.zeros_like(P_org)
    dlogits_org[mask] = (P_org[mask] - onehot[mask]) / mask_count
    _, d_w, d_b = model.backward(params, cache_org, dlogits_org)

    base = x_prime + beta * delta
    view_probs: list[np.ndarray] = []
    caches: list[dict] = []
    for adj in cond_adjs:
        smoothed = propagate_dense(adj, base, alpha, T_prime)
        logits, cache = model.forward_cache(params, smoothed, train_mode, rng)
        view_probs.append(model.softmax_predict(logits))
        caches.append(cache)
    l_syn = syn_loss(view_probs, y_prime)
    l_cst = consistency_loss(view_probs)
    pbar = sum(view_probs) / num_classes

    d_delta = np.zeros_like(delta)
    for adj, P, cache in zip(cond_adjs, view_probs, caches):
        dlogits = gamma * (P - y_prime) / n
        if lambda_ != 0.0:
            dP = (2.0 / (n * num_classes)) * (P - pbar)
            dlogits = dlogits + lambda_ * model.softmax_vjp(P, dP)
        d_in, dw_v, db_v = model.backward(params, cache, dlogits)
        for i in range(params.depth):
            d_w[i] = d_w[i] + dw_v[i]
            d_b[i] = d_b[i] + db_v[i]
        d_delta += beta * propagate_dense(adj, d_in, alpha, T_prime)

    loss = l_org + gamma * l_syn + lambda_ * l_cst
    return loss, (l_org, l_syn, l_cst), d_delta, d_w, d_b


def refine(
    Z: np.ndarray,
    labels: np.ndarray,
    train_mask: np.ndarray,
    condensed: CondensedGraph,
    class_set: ClassGraphSet,
    params_init: ClassifierParams,
    cfg: RefineConfig,
    pretrain_alpha: float,
) -> RefineResult:
    """Descend the joint objective over (Delta, W') for cfg.epochs steps.

    Of Z and labels only the train_mask rows are read: they are sliced out
    once, so the full-graph term forwards the head (and draws its dropout
    masks) over the training rows alone. Delta starts at zero, so zero
    epochs returns X' unchanged. The head is reinitialized by the caller,
    not reused from pretraining. Raises DivergedError on a non-finite loss.
    """
    if not class_set.condensed:
        raise ValueError("class_set must carry condensed adjacencies")
    train_idx = np.flatnonzero(np.asarray(train_mask, dtype=bool))
    Z_train = np.asarray(Z, dtype=np.float64)[train_idx]
    labels_train = np.asarray(labels)[train_idx]
    all_rows = np.ones(train_idx.shape[0], dtype=bool)
    alpha = cfg.alpha_prime if cfg.alpha_prime is not None else pretrain_alpha
    params = params_init.copy()
    aug = Augmentation.zeros(*condensed.x_prime.shape)
    rng = np.random.default_rng(cfg.seed)
    train_mode = params.dropout_rate > 0.0

    adam: model.AdamState | None = None
    if cfg.optimizer == "adam":
        shapes = (
            [aug.delta.shape]
            + [w.shape for w in params.weights]
            + [b.shape for b in params.biases]
        )
        adam = model.AdamState(shapes)
    elif cfg.optimizer != "gd":
        raise ValueError(f"unknown optimizer {cfg.optimizer!r}")

    losses: list[float] = []
    for epoch in range(cfg.epochs):
        loss, _, d_delta, d_w, d_b = refine_loss_and_grads(
            Z_train,
            labels_train,
            all_rows,
            condensed.x_prime,
            condensed.y_prime,
            class_set.condensed,
            aug.delta,
            params,
            cfg.beta,
            alpha,
            cfg.T_prime,
            cfg.gamma,
            cfg.lambda_,
            train_mode,
            rng,
        )
        if not np.isfinite(loss):
            raise DivergedError(epoch)
        losses.append(loss)
        if adam is not None:
            adam.step(
                [aug.delta] + params.weights + params.biases,
                [d_delta] + d_w + d_b,
                cfg.learning_rate,
            )
        else:
            aug.delta -= cfg.learning_rate * d_delta
            for i in range(params.depth):
                params.weights[i] -= cfg.learning_rate * d_w[i]
                params.biases[i] -= cfg.learning_rate * d_b[i]
    x_refined = condensed.x_prime + cfg.beta * aug.delta
    return RefineResult(x_refined, params, aug, losses)
