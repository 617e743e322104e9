"""Two-layer GCN evaluation protocol and coreset selection baselines.

A GCN is trained on the condensed triple and tested on the original graph
(transductive). Both the weighted condensed adjacency and the original
binary adjacency pass through the same renormalization
D^{-1/2} (A + I) D^{-1/2} before use.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp

from .condense import CondensedGraph
from .graph import Dataset, SparseGraph
from .model import (
    AdamState,
    ClassifierParams,
    DivergedError,
    _l2_penalty,
    init_classifier,
    relu_dropout,
    relu_dropout_grad,
    relu_layers,
    softmax_cross_entropy,
)

if TYPE_CHECKING:
    from .pipeline import PipelineConfig

MODEL_SELECTIONS = ("final", "best_val")


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


def gcn_forward(
    params: ClassifierParams,
    a_hat: np.ndarray | sp.csr_matrix,
    X: np.ndarray | None = None,
    ax: np.ndarray | None = None,
) -> np.ndarray:
    """Eval-mode GCN logits Â relu(Â X W1 + b1) W2 + b2 of a depth-2 head's (W, b).

    Pass X, or ax = Â X in its place; ax is not modified. W1 and the K-wide
    h1 W2 run in row blocks (relu_layers), so no N x hidden_dim h1 is held.
    """
    # Â multiplies the K-wide product, not the hidden_dim-wide h1
    hw = relu_layers(
        a_hat @ X if ax is None else ax, params.weights[:1], params.biases[:1],
        last=params.weights[1],
    )
    return a_hat @ hw + params.biases[1]


def _gcn_forward_cache(params, a_hat, ax, rng):
    """Training logits and the (Â X, h1, dropout rate) cache, from ax = Â X.

    h1 drops units at params.dropout_rate, drawn from rng; the eval-mode
    forward is gcn_forward.
    """
    (w1, w2), (b1, b2) = params.weights, params.biases
    p = params.dropout_rate
    h1 = ax @ w1
    h1 += b1
    relu_dropout(h1, p, rng)
    logits = a_hat @ (h1 @ w2) + b2
    return logits, (ax, h1, p)


def _gcn_backward(params, a_hat, cache, dlogits):
    """(dW1, db1, dW2, db2) of the GCN logits' gradient dlogits."""
    ax, h1, p = cache
    g = a_hat.T @ dlogits
    d_w2 = h1.T @ g
    d_b2 = dlogits.sum(axis=0)
    ds1 = g @ params.weights[1].T
    relu_dropout_grad(ds1, h1 > 0.0, p)
    d_w1 = ax.T @ ds1
    d_b1 = ds1.sum(axis=0)
    return d_w1, d_b1, d_w2, d_b2


def _validation_logits(
    dataset: Dataset, a_hat: sp.csr_matrix, full_ax: np.ndarray | None = None
):
    """GCN logits on the validation rows of the original graph, as a function.

    a_hat is the renormalized adjacency of dataset.graph. full_ax, when
    given, is a_hat @ dataset.features, and its rows are copied rather than
    formed again. Returns (logits, labels): logits(params) gives the
    validation rows of a full-graph forward, and labels are those rows'
    classes. Only rows the validation logits depend on are computed: Â·X on
    the rows that the validation rows of Â touch, once, then per call the
    first layer on those rows, in row blocks into one buffer that every call
    reuses, and the second layer on the validation rows. The K-wide h1 W2
    is one product over the touched rows here, where gcn_forward forms it
    in row blocks of all N rows; a narrow product's rows can depend on the
    call's row count, so these logits equal a full-graph forward's in real
    arithmetic and may differ from them in the last bits.
    """
    val_idx = np.flatnonzero(dataset.val_mask)
    if val_idx.size == 0:
        raise ValueError("best_val selection needs a nonempty validation set")
    a_val = a_hat[val_idx]
    touched = np.flatnonzero(a_val.getnnz(axis=0))
    a_val = a_val[:, touched]
    ax = a_hat[touched] @ dataset.features if full_ax is None else full_ax[touched]
    h1 = None

    def logits(params: ClassifierParams) -> np.ndarray:
        nonlocal h1
        h1 = relu_layers(ax, params.weights[:1], params.biases[:1], out=h1)
        return a_val @ (h1 @ params.weights[1]) + params.biases[1]

    return logits, dataset.labels[val_idx]


def train_eval_gcn(
    condensed: CondensedGraph,
    cfg: PipelineConfig,
    seed: int,
    a_hat: np.ndarray,
    validation: tuple | None = None,
) -> ClassifierParams:
    """Train a GCN on the condensed triple; every synthetic node is labeled.

    cfg supplies the eval_* settings, eval_lr being Adam's, and
    model_selection. The GCN's two layers are a depth-2 head's (W, b).
    a_hat is Â′, the renormalized adjacency of condensed.a_prime.
    model_selection "best_val" tracks validation accuracy on the original dataset and keeps
    the best epoch; "final" returns the last epoch. "best_val" needs
    validation, the (logits, labels) pair that _validation_logits returns,
    which scores only the validation rows and gives the logits of a
    full-graph forward up to the rounding of the K-wide product (see
    _validation_logits).
    """
    if cfg.model_selection == "best_val":
        if validation is None:
            raise ValueError("best_val selection needs the original dataset's validation logits")
        val_logits, val_labels = validation
    rng = np.random.default_rng(seed)
    params = init_classifier(
        rng, condensed.x_prime.shape[1], condensed.num_classes, depth=2,
        hidden_dim=cfg.eval_hidden, dropout_rate=cfg.eval_dropout,
    )
    labels = condensed.labels
    step = AdamState(params.weights + params.biases).step

    best_params, best_val = None, -1.0

    # Â' and X' stay fixed during training, so Â' X' is formed once
    ax = a_hat @ condensed.x_prime
    for epoch in range(cfg.eval_epochs):
        logits, cache = _gcn_forward_cache(params, a_hat, ax, rng)
        _, loss, dlogits = softmax_cross_entropy(logits, labels)
        if not np.isfinite(loss + _l2_penalty(params, cfg.eval_weight_decay)):
            raise DivergedError(epoch)
        d_w1, d_b1, d_w2, d_b2 = _gcn_backward(params, a_hat, cache, dlogits)
        d_w1 += cfg.eval_weight_decay * params.weights[0]
        d_w2 += cfg.eval_weight_decay * params.weights[1]
        step([d_w1, d_w2, d_b1, d_b2], cfg.eval_lr)
        if cfg.model_selection == "best_val":
            acc = float(np.mean(np.argmax(val_logits(params), axis=1) == val_labels))
            if acc > best_val:
                best_val, best_params = acc, params.copy()
    return params if best_params is None else best_params


def inductive_graph(dataset: Dataset) -> SparseGraph:
    """The subgraph induced by the test nodes, in test-id order."""
    idx = np.flatnonzero(dataset.test_mask)
    sub = dataset.graph.to_scipy()[idx][:, idx].tocoo()
    keep = sub.row < sub.col
    edges = np.column_stack([sub.row[keep], sub.col[keep]])
    return SparseGraph.from_edges(idx.shape[0], edges)


def forward_features(dataset: Dataset, inductive: bool) -> np.ndarray:
    """The feature rows a test forward reads: the test nodes' when inductive, else all."""
    return dataset.features[np.flatnonzero(dataset.test_mask)] if inductive else dataset.features


def evaluate_on_original(
    params: ClassifierParams,
    dataset: Dataset,
    a_hat: sp.csr_matrix,
    inductive: bool = False,
    ax: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Test accuracy of a trained GCN on the original graph, and its logits.

    The default transductive forward runs over the full graph, and a_hat is
    the renormalized adjacency of dataset.graph. The inductive forward runs
    over the test nodes alone, and a_hat is that of inductive_graph(dataset).
    ax, when given, is a_hat times forward_features(dataset, inductive).
    """
    idx = np.flatnonzero(dataset.test_mask)
    if ax is None:
        ax = a_hat @ forward_features(dataset, inductive)
    logits = gcn_forward(params, a_hat, ax=ax)
    pred = np.argmax(logits, axis=1)
    test_pred = pred if inductive else pred[idx]
    return float(np.mean(test_pred == dataset.labels[idx])), logits


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


def _per_class_coreset(dataset: Dataset, Z: np.ndarray, n: int, method: str, choose):
    """Fill the proportional class quotas from the training pool.

    choose(members, quota) returns the quota node ids it picks among the
    member ids of one class; classes are visited in index order. The
    condensed graph holds the picked rows of Z in id order, with the
    subgraph they induce and their one-hot labels.
    """
    # selection draws on labels, so the pool is the training set
    pool = np.flatnonzero(dataset.train_mask)
    pool_labels = dataset.labels[pool]
    quotas = _class_quotas(pool_labels, dataset.num_classes, n)
    selected = np.sort(np.concatenate([
        choose(pool[pool_labels == c], quotas[c]) for c in range(dataset.num_classes)
    ]))
    sub = dataset.graph.to_scipy()[selected][:, selected].toarray()
    onehot = np.zeros((selected.shape[0], dataset.num_classes))
    onehot[np.arange(selected.shape[0]), dataset.labels[selected]] = 1.0
    return CondensedGraph(
        Z[selected].copy(),
        0.5 * (sub + sub.T),
        onehot,
        meta={"method": method, "indices": selected.tolist()},
    )


def coreset_random(
    dataset: Dataset, Z: np.ndarray, n: int, seed: int = 0
) -> CondensedGraph:
    """Uniform per-class selection filling the proportional quotas."""
    rng = np.random.default_rng(seed)
    return _per_class_coreset(
        dataset, Z, n, "random",
        lambda members, quota: rng.choice(members, size=quota, replace=False),
    )


def coreset_kcenter(
    dataset: Dataset, Z: np.ndarray, n: int, seed: int = 0
) -> CondensedGraph:
    """Greedy farthest-point selection per class in representation space.

    The first pick is the point farthest from the class mean; each later
    pick maximizes the distance to the selected set. Ties take the lowest
    index.
    """

    def farthest_points(members: np.ndarray, quota: int) -> np.ndarray:
        pts = Z[members]
        mean = pts.mean(axis=0)
        chosen = [int(np.argmax(np.sum((pts - mean) ** 2, axis=1)))]
        min_d = np.sum((pts - pts[chosen[0]]) ** 2, axis=1)
        min_d[chosen[0]] = -np.inf  # never re-pick a selected point
        while len(chosen) < quota:
            nxt = int(np.argmax(min_d))
            chosen.append(nxt)
            min_d = np.minimum(min_d, np.sum((pts - pts[nxt]) ** 2, axis=1))
            min_d[nxt] = -np.inf
        return members[chosen]

    return _per_class_coreset(dataset, Z, n, "kcenter", farthest_points)


def coreset_herding(
    dataset: Dataset, Z: np.ndarray, n: int, seed: int = 0
) -> CondensedGraph:
    """Greedy selection keeping the running mean close to the class mean."""

    def herd(members: np.ndarray, quota: int) -> np.ndarray:
        pts = Z[members]
        mean = pts.mean(axis=0)
        chosen: list[int] = []
        running = np.zeros_like(mean)
        available = np.ones(pts.shape[0], dtype=bool)
        while len(chosen) < quota:
            k = len(chosen)
            cand = (running + pts) / (k + 1)
            dist = np.sum((cand - mean) ** 2, axis=1)
            dist[~available] = np.inf
            nxt = int(np.argmin(dist))
            chosen.append(nxt)
            available[nxt] = False
            running = running + pts[nxt]
        return members[chosen]

    return _per_class_coreset(dataset, Z, n, "herding", herd)
