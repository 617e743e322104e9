import numpy as np
import pytest

from conftest import random_graph
from graphdistill.condense import CondensedGraph
from graphdistill.evaluate import (
    EvalConfig,
    GCNParams,
    _class_quotas,
    _gcn_backward,
    _gcn_forward_cache,
    _validation_logits,
    coreset_herding,
    coreset_kcenter,
    coreset_random,
    evaluate_on_original,
    gcn_forward,
    init_gcn,
    renormalized_adjacency,
    train_eval_gcn,
)
from graphdistill.graph import Dataset, SparseGraph
from graphdistill.model import AdamState, softmax_predict


def _toy_dataset(rng, per_class=10, sep=6.0, name="toy"):
    """Two separable feature blobs; edges form a path within each class."""
    n = 2 * per_class
    feats = np.vstack(
        [
            rng.standard_normal((per_class, 3)) + sep,
            rng.standard_normal((per_class, 3)) - sep,
        ]
    )
    labels = np.repeat([0, 1], per_class)
    edges = []
    for c in range(2):
        base = c * per_class
        for i in range(per_class - 1):
            edges.append((base + i, base + i + 1))
    graph = SparseGraph.from_edges(n, np.array(edges))
    train = np.zeros(n, dtype=bool)
    val = np.zeros(n, dtype=bool)
    test = np.zeros(n, dtype=bool)
    for c in range(2):
        base = c * per_class
        train[base : base + 6] = True
        val[base + 6 : base + 8] = True
        test[base + 8 : base + 10] = True
    return Dataset(graph, feats, labels, train, val, test, 2, name)


def test_renormalization_of_empty_adjacency_is_identity():
    out = renormalized_adjacency(np.zeros((3, 3)))
    assert np.array_equal(out, np.eye(3))


def test_renormalization_matches_dense_formula():
    rng = np.random.default_rng(0)
    a = rng.random((6, 6))
    a = np.triu(a, 1)
    a = a + a.T
    mat = a + np.eye(6)
    deg = mat.sum(axis=1)
    ref = mat / np.sqrt(deg)[:, None] / np.sqrt(deg)[None, :]
    assert np.max(np.abs(renormalized_adjacency(a) - ref)) <= 1e-12


def test_renormalization_sparse_agrees_with_dense():
    rng = np.random.default_rng(1)
    from conftest import random_graph

    g = random_graph(rng, 15, 0.3)
    sparse_out = renormalized_adjacency(g).toarray()
    dense_out = renormalized_adjacency(g.to_scipy().toarray())
    assert np.max(np.abs(sparse_out - dense_out)) <= 1e-12


def test_gcn_forward_shapes_and_eval_determinism():
    rng = np.random.default_rng(2)
    params = init_gcn(rng, 4, 8, 3, dropout=0.5)
    a_hat = renormalized_adjacency(np.abs(rng.random((5, 5))))
    x = rng.standard_normal((5, 4))
    out1 = gcn_forward(params, a_hat, x)
    out2 = gcn_forward(params, a_hat, x)
    assert out1.shape == (5, 3)
    assert np.array_equal(out1, out2)  # eval mode has no dropout noise


def _gcn_reference(params, a_hat, x, keep_scale=None):
    """Both GCN layers with Â applied to the hidden_dim-wide side: (Â X) W1, then (Â h1) W2."""
    s1 = (a_hat @ x) @ params.w1 + params.b1
    h1 = s1 * (s1 > 0.0)
    if keep_scale is not None:
        h1 = h1 * keep_scale
    return (a_hat @ h1) @ params.w2 + params.b2


def test_gcn_forward_matches_layer_by_layer_products():
    rng = np.random.default_rng(21)
    graph = random_graph(rng, 40, 0.1)
    x = rng.standard_normal((40, 6))
    params = init_gcn(rng, 6, 32, 4, dropout=0.5)
    params.b1 = 0.1 * rng.standard_normal(params.b1.shape)
    params.b2 = 0.1 * rng.standard_normal(params.b2.shape)
    dense = renormalized_adjacency(graph.to_scipy().toarray())
    sparse = renormalized_adjacency(graph)
    for a_hat in (dense, sparse):
        want = _gcn_reference(params, a_hat, x)
        got = gcn_forward(params, a_hat, x)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        # training mode draws one dropout mask over h1 from the given stream
        got = gcn_forward(params, a_hat, x, train_mode=True, rng=np.random.default_rng(5))
        keep = np.random.default_rng(5).random((40, 32)) >= params.dropout_rate
        want = _gcn_reference(params, a_hat, x, keep / (1.0 - params.dropout_rate))
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_gcn_gradients_match_finite_differences():
    from graphdistill.evaluate import _gcn_backward, _gcn_forward_cache

    rng = np.random.default_rng(3)
    params = init_gcn(rng, 3, 5, 2, dropout=0.0)
    a_hat = renormalized_adjacency(np.abs(rng.random((6, 6))))
    x = rng.standard_normal((6, 3))
    labels = rng.integers(0, 2, size=6)
    onehot = np.eye(2)[labels]

    def loss():
        logits = gcn_forward(params, a_hat, x)
        P = softmax_predict(logits)
        return float(-np.mean(np.log(P[np.arange(6), labels])))

    logits, cache = _gcn_forward_cache(params, a_hat, x, False, None)
    P = softmax_predict(logits)
    grads = _gcn_backward(params, a_hat, cache, (P - onehot) / 6.0)
    tensors = [params.w1, params.b1, params.w2, params.b2]
    for tensor, g in zip(tensors, grads):
        fd = np.zeros_like(tensor)
        it = np.nditer(tensor, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = tensor[idx]
            tensor[idx] = orig + 1e-6
            hi = loss()
            tensor[idx] = orig - 1e-6
            lo = loss()
            tensor[idx] = orig
            fd[idx] = (hi - lo) / 2e-6
            it.iternext()
        rel = np.linalg.norm(fd - g) / max(np.linalg.norm(fd), np.linalg.norm(g), 1e-10)
        assert rel <= 1e-4


def _separable_condensed(rng, per=4, sep=6.0):
    x = np.vstack(
        [
            rng.standard_normal((per, 3)) + sep,
            rng.standard_normal((per, 3)) - sep,
        ]
    )
    y = np.zeros((2 * per, 2))
    y[:per, 0] = 1.0
    y[per:, 1] = 1.0
    return CondensedGraph(x, np.zeros((2 * per, 2 * per)), y)


def test_gcn_trained_on_condensed_classifies_original():
    rng = np.random.default_rng(4)
    condensed = _separable_condensed(rng)
    dataset = _toy_dataset(rng)
    cfg = EvalConfig(epochs=200, hidden_dim=16, dropout=0.0, optimizer="adam")
    params = train_eval_gcn(condensed, cfg, seed=0)
    acc = evaluate_on_original(params, dataset)
    assert acc >= 0.9


def test_eval_training_is_deterministic():
    rng = np.random.default_rng(5)
    condensed = _separable_condensed(rng)
    cfg = EvalConfig(epochs=30, hidden_dim=8, dropout=0.5)
    a = train_eval_gcn(condensed, cfg, seed=7)
    b = train_eval_gcn(condensed, cfg, seed=7)
    assert np.array_equal(a.w1, b.w1) and np.array_equal(a.w2, b.w2)


def test_best_val_selection_requires_dataset():
    rng = np.random.default_rng(6)
    condensed = _separable_condensed(rng)
    cfg = EvalConfig(epochs=5, hidden_dim=8, model_selection="best_val")
    with pytest.raises(ValueError, match="dataset"):
        train_eval_gcn(condensed, cfg, seed=0)
    dataset = _toy_dataset(rng)
    params = train_eval_gcn(condensed, cfg, seed=0, dataset=dataset)
    assert params.w1.shape == (3, 8)


def test_best_val_refuses_empty_validation_set():
    rng = np.random.default_rng(8)
    condensed = _separable_condensed(rng)
    dataset = _toy_dataset(rng)
    dataset.val_mask = np.zeros_like(dataset.val_mask)
    cfg = EvalConfig(epochs=5, hidden_dim=8, model_selection="best_val")
    with pytest.raises(ValueError, match="nonempty validation set"):
        train_eval_gcn(condensed, cfg, seed=0, dataset=dataset)


def _best_val_reference(condensed, cfg, seed, dataset):
    """best_val selection scored with a full-graph gcn_forward every epoch."""
    rng = np.random.default_rng(seed)
    n, d = condensed.x_prime.shape
    params = init_gcn(rng, d, cfg.hidden_dim, condensed.num_classes, cfg.dropout)
    a_hat = renormalized_adjacency(condensed.a_prime)
    a_hat_org = renormalized_adjacency(dataset.graph)
    tensors = [params.w1, params.b1, params.w2, params.b2]
    adam = AdamState([t.shape for t in tensors])
    best, best_val = None, -1.0
    for _ in range(cfg.epochs):
        logits, cache = _gcn_forward_cache(params, a_hat, condensed.x_prime, True, rng)
        dlogits = (softmax_predict(logits) - condensed.y_prime) / n
        grads = list(_gcn_backward(params, a_hat, cache, dlogits))
        grads[0] += cfg.weight_decay * params.w1
        grads[2] += cfg.weight_decay * params.w2
        adam.step(tensors, grads, cfg.learning_rate)
        pred = np.argmax(gcn_forward(params, a_hat_org, dataset.features), axis=1)
        acc = float(np.mean(pred[dataset.val_mask] == dataset.labels[dataset.val_mask]))
        if acc > best_val:
            best_val = acc
            best = GCNParams(*(t.copy() for t in tensors), params.dropout_rate)
    return best


def test_best_val_matches_full_graph_scoring():
    for seed in range(3):
        rng = np.random.default_rng(40 + seed)
        N, d, K, n = 90, 5, 3, 9
        labels = rng.integers(0, K, size=N)
        feats = rng.standard_normal((N, d)) + 1.5 * np.eye(K, d)[labels]
        tokens = rng.choice(["train", "val", "test"], size=N, p=[0.4, 0.3, 0.3])
        dataset = Dataset(
            random_graph(rng, N, 0.04), feats, labels,
            tokens == "train", tokens == "val", tokens == "test", K,
        )
        y = np.eye(K)[np.arange(n) % K]
        m = np.abs(rng.standard_normal((n, n)))
        condensed = CondensedGraph(
            y @ np.eye(K, d) + 0.5 * rng.standard_normal((n, d)), 0.5 * (m + m.T), y
        )
        cfg = EvalConfig(epochs=40, hidden_dim=8, dropout=0.5, model_selection="best_val")
        got = train_eval_gcn(condensed, cfg, seed=seed, dataset=dataset)
        want = _best_val_reference(condensed, cfg, seed, dataset)
        for name in ("w1", "b1", "w2", "b2"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_inductive_equals_transductive_without_test_edges():
    # with an edgeless graph both paths reduce to row-wise classification
    rng = np.random.default_rng(7)
    feats = rng.standard_normal((10, 3))
    labels = rng.integers(0, 2, size=10)
    graph = SparseGraph.from_edges(10, np.empty((0, 2)))
    masks = np.zeros((3, 10), dtype=bool)
    masks[0, :6], masks[1, 6:8], masks[2, 8:] = True, True, True
    ds = Dataset(graph, feats, labels, masks[0], masks[1], masks[2], 2, "edgeless")
    params = init_gcn(rng, 3, 6, 2, dropout=0.0)
    assert evaluate_on_original(params, ds, inductive=False) == pytest.approx(
        evaluate_on_original(params, ds, inductive=True)
    )


def test_quota_arithmetic():
    labels = np.array([0, 0, 0, 0, 1, 1, 2, 2])
    assert np.array_equal(_class_quotas(labels, 3, 4), [2, 1, 1])
    assert np.array_equal(_class_quotas(labels, 3, 3), [1, 1, 1])
    assert np.array_equal(_class_quotas(labels, 3, 5), [3, 1, 1])
    assert np.array_equal(_class_quotas(labels, 3, 8), [4, 2, 2])
    with pytest.raises(ValueError, match="at least the class count"):
        _class_quotas(labels, 3, 2)
    with pytest.raises(ValueError, match="quota exceeds"):
        _class_quotas(np.array([0, 0, 0, 0, 0, 1]), 2, 7)
    with pytest.raises(ValueError, match="pool node"):
        _class_quotas(np.array([0, 0, 2]), 3, 3)


def test_kcenter_picks_extremes_on_a_line():
    rng = np.random.default_rng(8)
    ds = _toy_dataset(rng)
    # overwrite representations: class-0 train nodes sit at 0,1,2,3,4,5 on a line
    Z = np.zeros((20, 1))
    Z[:6, 0] = np.arange(6.0)
    Z[10:16, 0] = np.arange(6.0) + 100.0
    out = coreset_kcenter(ds, Z, 4)
    idx = np.array(out.meta["indices"])
    class0 = idx[idx < 10]
    # farthest from the mean 2.5 is node 5; next farthest from it is node 0
    assert set(class0) == {0, 5}


def test_herding_picks_point_nearest_mean_first():
    rng = np.random.default_rng(9)
    ds = _toy_dataset(rng)
    Z = np.zeros((20, 1))
    Z[:6, 0] = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 10.0])
    Z[10:16, 0] = 100.0
    out = coreset_herding(ds, Z, 2)
    idx = np.array(out.meta["indices"])
    class0 = idx[idx < 10]
    # class mean ~3.33; nearest single point is node 3
    assert set(class0) == {3}


def test_coreset_carries_rows_labels_and_induced_edges():
    rng = np.random.default_rng(10)
    ds = _toy_dataset(rng)
    Z = rng.standard_normal((20, 4))
    out = coreset_random(ds, Z, 12, seed=0)  # the entire train pool
    idx = np.array(out.meta["indices"])
    assert np.array_equal(idx, np.sort(idx))
    assert np.array_equal(np.sort(idx), np.flatnonzero(ds.train_mask))
    assert np.array_equal(out.x_prime, Z[idx])
    assert np.array_equal(out.labels, ds.labels[idx])
    sub = ds.graph.to_scipy().toarray()[np.ix_(idx, idx)]
    assert np.array_equal(out.a_prime, sub)
    out.validate()


def test_coreset_respects_quotas_and_seed():
    rng = np.random.default_rng(11)
    ds = _toy_dataset(rng)
    Z = rng.standard_normal((20, 4))
    a = coreset_random(ds, Z, 6, seed=3)
    b = coreset_random(ds, Z, 6, seed=3)
    c = coreset_random(ds, Z, 6, seed=4)
    assert a.meta["indices"] == b.meta["indices"]
    assert a.meta["indices"] != c.meta["indices"]
    counts = np.bincount(a.labels, minlength=2)
    assert np.array_equal(counts, [3, 3])


def _gcn_cache_reference(params, a_hat, x, train_mode, rng):
    """The GCN forward with a (mask, scale) pair for its hidden layer."""
    ax = a_hat @ x
    s1 = ax @ params.w1 + params.b1
    mask = s1 > 0.0
    h1 = s1 * mask
    scale = None
    if train_mode and params.dropout_rate > 0.0:
        keep = rng.random(h1.shape) >= params.dropout_rate
        scale = keep / (1.0 - params.dropout_rate)
        h1 = h1 * scale
    logits = a_hat @ (h1 @ params.w2) + params.b2
    return logits, (ax, mask, scale, h1)


def _gcn_backward_reference(params, a_hat, cache, dlogits):
    ax, mask, scale, h1 = cache
    g = a_hat.T @ dlogits
    dh1 = g @ params.w2.T
    if scale is not None:
        dh1 = dh1 * scale
    ds1 = dh1 * mask
    return ax.T @ ds1, ds1.sum(axis=0), h1.T @ g, dlogits.sum(axis=0)


def _gcn_with_zeros(seed, N, d=32, hidden=256, K=4):
    """GCN params and a graph whose first-layer pre-activations include +0.0.

    Isolated nodes with zero features meet zero biases on every third
    hidden unit.
    """
    rng = np.random.default_rng(seed)
    graph = random_graph(rng, N, 8.0 / N)
    keep = graph.undirected_edges()
    keep = keep[(keep % 7 != 0).all(axis=1)]
    graph = SparseGraph.from_edges(N, keep)
    x = rng.standard_normal((N, d))
    x[::7] = 0.0
    params = init_gcn(rng, d, hidden, K, dropout=0.5)
    params.b1 = 0.1 * rng.standard_normal(hidden)
    params.b1[::3] = 0.0
    params.b2 = 0.1 * rng.standard_normal(K)
    return params, graph, x


@pytest.mark.parametrize("train_mode", [False, True])
def test_gcn_gate_matches_mask_and_scale_reference_bitwise(train_mode):
    params, graph, x = _gcn_with_zeros(60, 120, hidden=64)
    a_hat = renormalized_adjacency(graph.to_scipy().toarray())
    want, ref_cache = _gcn_cache_reference(
        params, a_hat, x, train_mode, np.random.default_rng(2)
    )
    dlogits = np.random.default_rng(3).standard_normal(want.shape) / 120.0
    want_grads = _gcn_backward_reference(params, a_hat, ref_cache, dlogits)
    # a precomputed Â X, as train_eval_gcn passes it, changes nothing
    for ax in (None, a_hat @ x):
        got, cache = _gcn_forward_cache(
            params, a_hat, x, train_mode, np.random.default_rng(2), ax=ax
        )
        assert got.tobytes() == want.tobytes()
        for g, w in zip(_gcn_backward(params, a_hat, cache, dlogits), want_grads):
            assert g.tobytes() == w.tobytes()


def test_row_blocked_gcn_forward_matches_whole_matrix_reference_bitwise():
    params, graph, x = _gcn_with_zeros(61, 1000)
    dense = graph.to_scipy().toarray()
    for a_hat in (renormalized_adjacency(graph), renormalized_adjacency(dense)):
        want = _gcn_cache_reference(params, a_hat, x, False, None)[0]
        assert gcn_forward(params, a_hat, x).tobytes() == want.tobytes()


def test_validation_logits_match_whole_matrix_reference_bitwise():
    N = 1200
    params, graph, x = _gcn_with_zeros(62, N)
    rng = np.random.default_rng(63)
    tokens = rng.choice(["train", "val", "test"], size=N, p=[0.3, 0.4, 0.3])
    dataset = Dataset(
        graph, x, rng.integers(0, 4, size=N),
        tokens == "train", tokens == "val", tokens == "test", 4,
    )
    logits, labels = _validation_logits(dataset)
    a_hat = renormalized_adjacency(graph)
    val_idx = np.flatnonzero(dataset.val_mask)
    a_val = a_hat[val_idx]
    touched = np.flatnonzero(a_val.getnnz(axis=0))
    assert touched.size > 256
    ax = a_hat[touched] @ x
    assert np.array_equal(labels, dataset.labels[val_idx])
    # later calls reuse the first call's hidden buffer
    for scale in (1.0, -0.5, 2.0):
        p = GCNParams(scale * params.w1, params.b1, params.w2, params.b2)
        s1 = ax @ p.w1 + p.b1
        h1 = s1 * (s1 > 0.0)
        want = a_val[:, touched] @ (h1 @ p.w2) + p.b2
        assert logits(p).tobytes() == want.tobytes()
