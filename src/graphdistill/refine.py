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
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp

from . import model
from .condense import CondensedGraph
from .graph import GraphError, SparseGraph, normalize_rows
from .model import ClassifierParams, DivergedError
from .propagate import propagate_dense

if TYPE_CHECKING:
    from .pipeline import PipelineConfig

COS_FLOOR = 1e-6


@dataclass
class ClassGraphSet:
    """One sampled full-size adjacency per class."""

    sampled: list[sp.csr_matrix]


@dataclass
class RefineResult:
    x_refined: np.ndarray
    params: ClassifierParams
    delta: np.ndarray  # learned additive correction to X'
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


WEIGHTINGS = ("adjacency", "score")


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
    if weighting not in WEIGHTINGS:
        raise ValueError(f"weighting must be {' or '.join(map(repr, WEIGHTINGS))}")
    e = a_norm.undirected_edges()
    vals = a_norm.edge_values()
    M = e.shape[0]
    m_keep = min(M, math.ceil(rho * M))
    N = a_norm.num_nodes
    sampled = []
    for y in range(P.shape[1]):
        w = class_edge_weights(a_norm, P, resistance, y)
        # undirected_edges() is in lexicographic order, so a stable sort
        # breaks ties on the edge id
        order = np.argsort(-w, kind="stable")
        top = order[:m_keep]
        kept_vals = vals[top] if weighting == "adjacency" else w[top]
        rows = np.concatenate([e[top, 0], e[top, 1]])
        cols = np.concatenate([e[top, 1], e[top, 0]])
        data = np.concatenate([kept_vals, kept_vals])
        sampled.append(sp.csr_matrix((data, (rows, cols)), shape=(N, N)))
    return ClassGraphSet(sampled)


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


def _dense(adj: sp.csr_matrix | np.ndarray) -> np.ndarray:
    return adj.toarray() if sp.issparse(adj) else adj


def refine_loss_and_grads(
    Z: np.ndarray,
    labels: np.ndarray,
    y_prime: np.ndarray,
    x_prime: np.ndarray,
    cond_adjs: list[sp.csr_matrix | np.ndarray],
    delta: np.ndarray,
    params: ClassifierParams,
    beta: float,
    alpha: float,
    T_prime: int,
    gamma: float,
    lambda_: float,
    rng: np.random.Generator | None = None,
) -> tuple[float, tuple[float, float, float], np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """Joint loss and analytic gradients with respect to Delta and the head.

    Every row of Z is a training row, labeled by labels, and L_org scores
    them all. x_prime stays the fourth argument, after y_prime, because
    perfbench's tracer reads the class views' row count there. A class view
    in CSR form is densified for each product that reads it, once in the
    forward loop and once in the backward loop, so at most one dense n x n
    view is held at a time; the products are dense either way. Every head
    forward drops hidden units at params.dropout_rate, drawn from rng.
    Gradients accumulate over class views in class-index order. The
    Delta gradient rides back through the fixed propagation operator
    P_y = sum_t c_t A'(y)^t, which is its own adjoint because each A'(y) is
    symmetric.

    Layer 0 of the class views runs here; the rest of the head runs through
    model.forward_cache and model.backward. P_y commutes with layer 0's
    linear map, so when X' is wider than that map's output (d > W0's
    columns) the views propagate the narrower U = (X' + beta Delta) W0,
    formed once, and pull their layer-0 gradients g_y back as
    R = sum_y P_y g_y, so that dW0 and dDelta each take one d-wide product.
    Otherwise each view propagates the d-wide X' + beta Delta itself. The two
    orders agree in real arithmetic and differ only in rounding.
    """
    n, num_classes = y_prime.shape

    logits_org, cache_org = model.forward_cache(params, Z, rng)
    _, l_org, dlogits_org = model.softmax_cross_entropy(logits_org, labels)
    # dS0 is rows x hidden and unused, so it is not kept through the class views
    d_w, d_b = model.backward(params, cache_org, dlogits_org)[1:]

    base = x_prime + beta * delta
    W0, b0 = params.weights[0], params.biases[0]
    p = params.dropout_rate
    # the head after layer 0; at depth 1 it is empty and passes layer 0 through
    rest = ClassifierParams(params.weights[1:], params.biases[1:], p)
    projected = base @ W0 if base.shape[1] > W0.shape[1] else None
    view_probs: list[np.ndarray] = []
    views: list[tuple] = []  # (d-wide layer-0 input or None, layer-0 output, cache)
    for adj in cond_adjs:
        if projected is None:
            smoothed = propagate_dense(_dense(adj), base, alpha, T_prime)
            s = smoothed @ W0
        else:
            smoothed = None
            s = propagate_dense(_dense(adj), projected, alpha, T_prime)
        s += b0
        if params.depth > 1:
            model.relu_dropout(s, p, rng)
        logits, cache = model.forward_cache(rest, s, rng)
        view_probs.append(model.softmax_predict(logits))
        views.append((smoothed, s, cache))
    l_syn = syn_loss(view_probs, y_prime)
    l_cst = consistency_loss(view_probs)
    pbar = sum(view_probs) / num_classes

    d_delta = np.zeros_like(delta)
    pulled = None if projected is None else np.zeros_like(projected)
    for adj, P, (smoothed, s, cache) in zip(cond_adjs, view_probs, views):
        dlogits = gamma * (P - y_prime) / n
        if lambda_ != 0.0:
            dP = (2.0 / (n * num_classes)) * (P - pbar)
            dlogits = dlogits + lambda_ * model.softmax_vjp(P, dP)
        g, dw_v, db_v = model.backward(rest, cache, dlogits)
        for i in range(rest.depth):
            d_w[i + 1] += dw_v[i]
            d_b[i + 1] += db_v[i]
        if params.depth > 1:
            alive = s > 0.0
            g = g @ params.weights[1].T
            model.relu_dropout_grad(g, alive, p)
        d_b[0] += g.sum(axis=0)
        if pulled is None:
            d_w[0] += smoothed.T @ g
            d_delta += beta * propagate_dense(_dense(adj), g @ W0.T, alpha, T_prime)
        else:
            pulled += propagate_dense(_dense(adj), g, alpha, T_prime)
    if pulled is not None:
        d_w[0] += base.T @ pulled
        d_delta += beta * (pulled @ W0.T)

    loss = l_org + gamma * l_syn + lambda_ * l_cst
    return loss, (l_org, l_syn, l_cst), d_delta, d_w, d_b


def refine(
    Z: np.ndarray,
    labels: np.ndarray,
    condensed: CondensedGraph,
    views: list[sp.csr_matrix | np.ndarray],
    params_init: ClassifierParams,
    cfg: PipelineConfig,
    seed: int,
) -> RefineResult:
    """Descend the joint objective over (Delta, W') for cfg.E3 steps.

    Z holds the training rows of the propagated features and labels their
    classes, so the full-graph term forwards the head (and draws its
    dropout masks) over the training rows alone. views holds one condensed
    class adjacency per class, in CSR form or dense; both give the same
    bytes. cfg supplies beta, gamma, lambda_, T_prime and Adam's learning
    rate lr; the class views propagate with alpha_prime, or with the
    propagation alpha when alpha_prime is negative. seed seeds the dropout
    stream.

    Delta starts at zero, so zero epochs returns X' unchanged. The head is
    reinitialized by the caller, not reused from pretraining. Raises
    DivergedError on a non-finite loss.
    """
    if not views:
        raise ValueError("refine needs the condensed adjacencies of the class views")
    alpha = cfg.alpha if cfg.alpha_prime < 0 else cfg.alpha_prime
    params = params_init.copy()
    delta = np.zeros(condensed.x_prime.shape)
    rng = np.random.default_rng(seed)
    step = model.AdamState([delta] + params.weights + params.biases).step

    losses: list[float] = []
    for epoch in range(cfg.E3):
        loss, _, d_delta, d_w, d_b = refine_loss_and_grads(
            Z,
            labels,
            condensed.y_prime,
            condensed.x_prime,
            views,
            delta,
            params,
            cfg.beta,
            alpha,
            cfg.T_prime,
            cfg.gamma,
            cfg.lambda_,
            rng,
        )
        if not np.isfinite(loss):
            raise DivergedError(epoch)
        losses.append(loss)
        step([d_delta] + d_w + d_b, cfg.lr)
    x_refined = condensed.x_prime + cfg.beta * delta
    return RefineResult(x_refined, params, delta, losses)
