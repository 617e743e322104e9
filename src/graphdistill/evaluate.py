"""Two-layer GCN evaluation protocol and coreset selection baselines.

A GCN is trained on the condensed triple and tested on the original graph
(transductive). Both the weighted condensed adjacency and the original
binary adjacency pass through the same renormalization
D^{-1/2} (A + I) D^{-1/2} before use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .condense import CondensedGraph
from .graph import Dataset, SparseGraph
from .model import AdamState, DivergedError, softmax_predict


@dataclass
class GCNParams:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    dropout_rate: float = 0.5


@dataclass
class EvalConfig:
    epochs: int = 600
    learning_rate: float = 0.01
    weight_decay: float = 1e-5
    hidden_dim: int = 256
    dropout: float = 0.5
    optimizer: str = "adam"
    model_selection: str = "final"  # or "best_val" when a dataset is supplied


@dataclass
class EvalReport:
    test_accuracy: float
    per_seed: list[float]
    std: float
    fid_value: float | None = None
    runtime_seconds: float = 0.0


def renormalized_adjacency(A: np.ndarray | SparseGraph) -> np.ndarray | sp.csr_matrix:
    """D^{-1/2} (A + I) D^{-1/2} with degrees taken after adding self loops."""
    if isinstance(A, SparseGraph):
        mat = A.to_scipy() + sp.eye(A.num_nodes, format="csr")
        deg = np.asarray(mat.sum(axis=1)).ravel()
        inv_sqrt = 1.0 / np.sqrt(deg)
        scale = sp.diags(inv_sqrt)
        return (scale @ mat @ scale).tocsr()
    A = np.asarray(A, dtype=np.float64)
    mat = A + np.eye(A.shape[0])
    deg = mat.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(deg)
    return mat * inv_sqrt[:, None] * inv_sqrt[None, :]


def init_gcn(
    rng: np.random.Generator, in_dim: int, hidden_dim: int, num_classes: int, dropout: float
) -> GCNParams:
    def glorot(fan_in: int, fan_out: int) -> np.ndarray:
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=(fan_in, fan_out))

    return GCNParams(
        glorot(in_dim, hidden_dim),
        np.zeros(hidden_dim),
        glorot(hidden_dim, num_classes),
        np.zeros(num_classes),
        dropout,
    )


def gcn_forward(
    params: GCNParams,
    a_hat: np.ndarray | sp.csr_matrix,
    X: np.ndarray,
    train_mode: bool = False,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    return _gcn_forward_cache(params, a_hat, X, train_mode, rng)[0]


def _gcn_forward_cache(params, a_hat, X, train_mode, rng):
    ax = a_hat @ X
    s1 = ax @ params.w1 + params.b1
    mask = s1 > 0.0
    h1 = s1 * mask
    scale = None
    if train_mode and params.dropout_rate > 0.0:
        keep = rng.random(h1.shape) >= params.dropout_rate
        scale = keep / (1.0 - params.dropout_rate)
        h1 = h1 * scale
    ah = a_hat @ h1
    logits = ah @ params.w2 + params.b2
    return logits, (ax, mask, scale, ah)


def _gcn_backward(params, a_hat, cache, dlogits):
    ax, mask, scale, ah = cache
    d_w2 = ah.T @ dlogits
    d_b2 = dlogits.sum(axis=0)
    dh1 = a_hat.T @ (dlogits @ params.w2.T)
    if scale is not None:
        dh1 = dh1 * scale
    ds1 = dh1 * mask
    d_w1 = ax.T @ ds1
    d_b1 = ds1.sum(axis=0)
    return d_w1, d_b1, d_w2, d_b2


def _validation_scorer(dataset: Dataset):
    """Validation accuracy of GCN params on the original graph, as a function.

    Only rows the validation logits depend on are computed: Â·X on the
    rows that the validation rows of Â touch, once, then per call the
    first layer on those rows and the second layer on the validation rows.
    """
    a_hat = renormalized_adjacency(dataset.graph)
    val_idx = np.flatnonzero(dataset.val_mask)
    a_val = a_hat[val_idx]
    touched = np.flatnonzero(a_val.getnnz(axis=0))
    a_val = a_val[:, touched]
    ax = a_hat[touched] @ dataset.features
    val_labels = dataset.labels[val_idx]

    def score(params: GCNParams) -> float:
        s1 = ax @ params.w1 + params.b1
        h1 = s1 * (s1 > 0.0)
        logits = (a_val @ h1) @ params.w2 + params.b2
        return float(np.mean(np.argmax(logits, axis=1) == val_labels))

    return score


def train_eval_gcn(
    condensed: CondensedGraph,
    cfg: EvalConfig,
    seed: int,
    dataset: Dataset | None = None,
) -> GCNParams:
    """Train a GCN on the condensed triple; every synthetic node is labeled.

    model_selection "best_val" tracks validation accuracy on the original
    graph and keeps the best epoch; "final" returns the last epoch. The
    validation score reads only the validation rows: Â·X of the original
    graph is computed once, and each epoch runs the first layer on the rows
    that the validation rows of Â touch and the second layer on the
    validation rows, which gives the same logits as a full-graph forward.
    """
    rng = np.random.default_rng(seed)
    n, d = condensed.x_prime.shape
    K = condensed.num_classes
    params = init_gcn(rng, d, cfg.hidden_dim, K, cfg.dropout)
    a_hat = renormalized_adjacency(condensed.a_prime)
    labels = condensed.labels
    onehot = condensed.y_prime

    tensors = lambda p: [p.w1, p.b1, p.w2, p.b2]
    adam: AdamState | None = None
    if cfg.optimizer == "adam":
        adam = AdamState([t.shape for t in tensors(params)])
    elif cfg.optimizer != "gd":
        raise ValueError(f"unknown optimizer {cfg.optimizer!r}")

    best_params, best_val = None, -1.0
    want_val = cfg.model_selection == "best_val" and dataset is not None
    if cfg.model_selection == "best_val" and dataset is None:
        raise ValueError("best_val selection needs the original dataset")
    if want_val:
        val_scorer = _validation_scorer(dataset)

    for epoch in range(cfg.epochs):
        logits, cache = _gcn_forward_cache(params, a_hat, condensed.x_prime, True, rng)
        P = softmax_predict(logits)
        picked = np.clip(P[np.arange(n), labels], 1e-12, None)
        loss = float(-np.mean(np.log(picked)))
        loss += 0.5 * cfg.weight_decay * (
            float(np.sum(params.w1**2)) + float(np.sum(params.w2**2))
        )
        if not np.isfinite(loss):
            raise DivergedError(epoch)
        dlogits = (P - onehot) / n
        d_w1, d_b1, d_w2, d_b2 = _gcn_backward(params, a_hat, cache, dlogits)
        d_w1 += cfg.weight_decay * params.w1
        d_w2 += cfg.weight_decay * params.w2
        grads = [d_w1, d_b1, d_w2, d_b2]
        if adam is not None:
            adam.step(tensors(params), grads, cfg.learning_rate)
        else:
            for t, g in zip(tensors(params), grads):
                t -= cfg.learning_rate * g
        if want_val:
            acc = val_scorer(params)
            if acc > best_val:
                best_val = acc
                best_params = GCNParams(
                    params.w1.copy(), params.b1.copy(),
                    params.w2.copy(), params.b2.copy(), params.dropout_rate,
                )
    if want_val and best_params is not None:
        return best_params
    return params


def evaluate_on_original(
    params: GCNParams, dataset: Dataset, inductive: bool = False
) -> float:
    """Test accuracy of a trained GCN on the original graph.

    The inductive path restricts the forward pass to the subgraph induced
    by the test nodes; the default transductive path uses the full graph.
    """
    if inductive:
        idx = np.flatnonzero(dataset.test_mask)
        sub = dataset.graph.to_scipy()[idx][:, idx].tocoo()
        keep = sub.row < sub.col
        edges = np.column_stack([sub.row[keep], sub.col[keep]])
        graph = SparseGraph.from_edges(idx.shape[0], edges)
        a_hat = renormalized_adjacency(graph)
        logits = gcn_forward(params, a_hat, dataset.features[idx])
        pred = np.argmax(logits, axis=1)
        return float(np.mean(pred == dataset.labels[idx]))
    a_hat = renormalized_adjacency(dataset.graph)
    logits = gcn_forward(params, a_hat, dataset.features)
    pred = np.argmax(logits, axis=1)
    mask = dataset.test_mask
    return float(np.mean(pred[mask] == dataset.labels[mask]))


# ---------------------------------------------------------------------------
# coreset baselines


def _class_quotas(pool_labels: np.ndarray, num_classes: int, n: int) -> np.ndarray:
    """Proportional per-class counts, >= 1 each, remainder to the largest classes."""
    counts = np.bincount(pool_labels, minlength=num_classes)
    if np.any(counts == 0):
        raise ValueError("every class needs at least one pool node")
    if n < num_classes:
        raise ValueError("n must be at least the class count")
    pool = counts.sum()
    quotas = np.maximum(1, np.floor(n * counts / pool).astype(np.int64))
    while quotas.sum() > n:
        over = np.flatnonzero(quotas > 1)
        shrink = over[np.argmax(quotas[over])]
        quotas[shrink] -= 1
    order = np.argsort(-counts, kind="stable")
    i = 0
    while quotas.sum() < n:
        quotas[order[i % num_classes]] += 1
        i += 1
    if np.any(quotas > counts):
        raise ValueError("class quota exceeds class size")
    return quotas


def _coreset_from_indices(
    dataset: Dataset, Z: np.ndarray, selected: np.ndarray, method: str
) -> CondensedGraph:
    selected = np.sort(selected)
    sub = dataset.graph.to_scipy()[selected][:, selected].toarray()
    onehot = np.zeros((selected.shape[0], dataset.num_classes))
    onehot[np.arange(selected.shape[0]), dataset.labels[selected]] = 1.0
    return CondensedGraph(
        Z[selected].copy(),
        0.5 * (sub + sub.T),
        onehot,
        meta={"method": method, "indices": selected.tolist()},
    )


def _pool(dataset: Dataset) -> np.ndarray:
    # selection draws on labels, so the pool is the training set
    return np.flatnonzero(dataset.train_mask)


def coreset_random(
    dataset: Dataset, Z: np.ndarray, n: int, seed: int = 0
) -> CondensedGraph:
    """Uniform per-class selection filling the proportional quotas."""
    rng = np.random.default_rng(seed)
    pool = _pool(dataset)
    quotas = _class_quotas(dataset.labels[pool], dataset.num_classes, n)
    picks = []
    for c in range(dataset.num_classes):
        members = pool[dataset.labels[pool] == c]
        picks.append(rng.choice(members, size=quotas[c], replace=False))
    return _coreset_from_indices(dataset, Z, np.concatenate(picks), "random")


def coreset_kcenter(
    dataset: Dataset, Z: np.ndarray, n: int, seed: int = 0
) -> CondensedGraph:
    """Greedy farthest-point selection per class in representation space.

    The first pick is the point farthest from the class mean; each later
    pick maximizes the distance to the selected set. Ties take the lowest
    index.
    """
    pool = _pool(dataset)
    quotas = _class_quotas(dataset.labels[pool], dataset.num_classes, n)
    picks = []
    for c in range(dataset.num_classes):
        members = pool[dataset.labels[pool] == c]
        pts = Z[members]
        mean = pts.mean(axis=0)
        chosen = [int(np.argmax(np.sum((pts - mean) ** 2, axis=1)))]
        min_d = np.sum((pts - pts[chosen[0]]) ** 2, axis=1)
        min_d[chosen[0]] = -np.inf  # never re-pick a selected point
        while len(chosen) < quotas[c]:
            nxt = int(np.argmax(min_d))
            chosen.append(nxt)
            min_d = np.minimum(min_d, np.sum((pts - pts[nxt]) ** 2, axis=1))
            min_d[nxt] = -np.inf
        picks.append(members[chosen])
    return _coreset_from_indices(dataset, Z, np.concatenate(picks), "kcenter")


def coreset_herding(
    dataset: Dataset, Z: np.ndarray, n: int, seed: int = 0
) -> CondensedGraph:
    """Greedy selection keeping the running mean close to the class mean."""
    pool = _pool(dataset)
    quotas = _class_quotas(dataset.labels[pool], dataset.num_classes, n)
    picks = []
    for c in range(dataset.num_classes):
        members = pool[dataset.labels[pool] == c]
        pts = Z[members]
        mean = pts.mean(axis=0)
        chosen: list[int] = []
        running = np.zeros_like(mean)
        available = np.ones(pts.shape[0], dtype=bool)
        while len(chosen) < quotas[c]:
            k = len(chosen)
            cand = (running + pts) / (k + 1)
            dist = np.sum((cand - mean) ** 2, axis=1)
            dist[~available] = np.inf
            nxt = int(np.argmin(dist))
            chosen.append(nxt)
            available[nxt] = False
            running = running + pts[nxt]
        picks.append(members[chosen])
    return _coreset_from_indices(dataset, Z, np.concatenate(picks), "herding")
