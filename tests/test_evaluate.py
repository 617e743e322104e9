import numpy as np
import pytest

from conftest import random_graph
from graphdistill import evaluate
from graphdistill.condense import CondensedGraph
from graphdistill.evaluate import (
    _class_quotas,
    _gcn_backward,
    _gcn_forward_cache,
    _validation_logits,
    coreset_herding,
    coreset_kcenter,
    coreset_random,
    evaluate_on_original,
    forward_features,
    gcn_forward,
    inductive_graph,
    renormalized_adjacency,
    train_eval_gcn,
)
from graphdistill.graph import Dataset, SparseGraph
from graphdistill.model import (
    AdamState,
    ClassifierParams,
    DivergedError,
    init_classifier,
    optimizer_step,
    softmax_predict,
)
from graphdistill.pipeline import PipelineConfig


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
    params = init_classifier(rng, 4, 3, depth=2, hidden_dim=8, dropout_rate=0.5)
    a_hat = renormalized_adjacency(np.abs(rng.random((5, 5))))
    x = rng.standard_normal((5, 4))
    out1 = gcn_forward(params, a_hat, x)
    out2 = gcn_forward(params, a_hat, x)
    assert out1.shape == (5, 3)
    assert np.array_equal(out1, out2)  # eval mode has no dropout noise


def _gcn_reference(params, a_hat, x, keep_scale=None):
    """Both GCN layers with Â applied to the hidden_dim-wide side: (Â X) W1, then (Â h1) W2."""
    s1 = (a_hat @ x) @ params.weights[0] + params.biases[0]
    h1 = s1 * (s1 > 0.0)
    if keep_scale is not None:
        h1 = h1 * keep_scale
    return (a_hat @ h1) @ params.weights[1] + params.biases[1]


def test_gcn_forward_matches_layer_by_layer_products():
    rng = np.random.default_rng(21)
    graph = random_graph(rng, 40, 0.1)
    x = rng.standard_normal((40, 6))
    params = init_classifier(rng, 6, 4, depth=2, hidden_dim=32, dropout_rate=0.5)
    params.biases[0] = 0.1 * rng.standard_normal(params.biases[0].shape)
    params.biases[1] = 0.1 * rng.standard_normal(params.biases[1].shape)
    dense = renormalized_adjacency(graph.to_scipy().toarray())
    sparse = renormalized_adjacency(graph)
    for a_hat in (dense, sparse):
        want = _gcn_reference(params, a_hat, x)
        got = gcn_forward(params, a_hat, x)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        # training mode draws one dropout mask over h1 from the given stream
        got = _gcn_forward_cache(params, a_hat, a_hat @ x, np.random.default_rng(5))[0]
        keep = np.random.default_rng(5).random((40, 32)) >= params.dropout_rate
        want = _gcn_reference(params, a_hat, x, keep / (1.0 - params.dropout_rate))
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_gcn_gradients_match_finite_differences():
    from graphdistill.evaluate import _gcn_backward, _gcn_forward_cache

    rng = np.random.default_rng(3)
    params = init_classifier(rng, 3, 2, depth=2, hidden_dim=5, dropout_rate=0.0)
    a_hat = renormalized_adjacency(np.abs(rng.random((6, 6))))
    x = rng.standard_normal((6, 3))
    labels = rng.integers(0, 2, size=6)
    onehot = np.eye(2)[labels]

    def loss():
        logits = gcn_forward(params, a_hat, x)
        P = softmax_predict(logits)
        return float(-np.mean(np.log(P[np.arange(6), labels])))

    logits, cache = _gcn_forward_cache(params, a_hat, a_hat @ x, None)
    P = softmax_predict(logits)
    grads = _gcn_backward(params, a_hat, cache, (P - onehot) / 6.0)
    tensors = [params.weights[0], params.biases[0], params.weights[1], params.biases[1]]
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


def _a_hat(condensed):
    """Â′, which train_eval_gcn takes from its caller."""
    return renormalized_adjacency(condensed.a_prime)


def _validation(dataset):
    """best_val's validation logits, on Â of the original graph."""
    return _validation_logits(dataset, renormalized_adjacency(dataset.graph))


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
    cfg = PipelineConfig(eval_epochs=200, eval_hidden=16, eval_dropout=0.0, optimizer="adam")
    params = train_eval_gcn(condensed, cfg, seed=0, a_hat=_a_hat(condensed))
    acc, _ = evaluate_on_original(params, dataset, renormalized_adjacency(dataset.graph))
    assert acc >= 0.9


def test_eval_training_is_deterministic():
    rng = np.random.default_rng(5)
    condensed = _separable_condensed(rng)
    cfg = PipelineConfig(eval_epochs=30, eval_hidden=8, eval_dropout=0.5)
    a = train_eval_gcn(condensed, cfg, seed=7, a_hat=_a_hat(condensed))
    b = train_eval_gcn(condensed, cfg, seed=7, a_hat=_a_hat(condensed))
    assert np.array_equal(a.weights[0], b.weights[0])
    assert np.array_equal(a.weights[1], b.weights[1])


# the epochs at which the divergence check, loss + _l2_penalty, raises; a cheaper
# check must raise at the same ones
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("lr, epoch", [(1e3, 40), (1e100, 2)])
def test_diverging_gd_raises_at_the_same_epoch(lr, epoch):
    condensed = _separable_condensed(np.random.default_rng(5))
    cfg = PipelineConfig(eval_epochs=60, eval_hidden=8, eval_dropout=0.0,
                         optimizer="gd", eval_lr=lr)
    with pytest.raises(DivergedError) as err:
        train_eval_gcn(condensed, cfg, seed=7, a_hat=_a_hat(condensed))
    assert err.value.epoch == epoch


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_weight_raises_in_the_first_epoch(monkeypatch):
    real = evaluate.init_classifier

    def with_nan(*args, **kwargs):
        params = real(*args, **kwargs)
        params.weights[1][0, 0] = np.nan
        return params

    monkeypatch.setattr(evaluate, "init_classifier", with_nan)
    condensed = _separable_condensed(np.random.default_rng(5))
    cfg = PipelineConfig(eval_epochs=5, eval_hidden=8)
    with pytest.raises(DivergedError) as err:
        train_eval_gcn(condensed, cfg, seed=7, a_hat=_a_hat(condensed))
    assert err.value.epoch == 0


def test_best_val_selection_requires_dataset():
    rng = np.random.default_rng(6)
    condensed = _separable_condensed(rng)
    cfg = PipelineConfig(eval_epochs=5, eval_hidden=8, model_selection="best_val")
    with pytest.raises(ValueError, match="dataset"):
        train_eval_gcn(condensed, cfg, seed=0, a_hat=_a_hat(condensed))
    dataset = _toy_dataset(rng)
    params = train_eval_gcn(condensed, cfg, 0, _a_hat(condensed), _validation(dataset))
    assert params.weights[0].shape == (3, 8)


def test_best_val_refuses_empty_validation_set():
    rng = np.random.default_rng(8)
    condensed = _separable_condensed(rng)
    dataset = _toy_dataset(rng)
    dataset.val_mask = np.zeros_like(dataset.val_mask)
    cfg = PipelineConfig(eval_epochs=5, eval_hidden=8, model_selection="best_val")
    with pytest.raises(ValueError, match="nonempty validation set"):
        train_eval_gcn(condensed, cfg, 0, _a_hat(condensed), _validation(dataset))


def _best_val_reference(condensed, cfg, seed, dataset):
    """best_val selection scored with a full-graph gcn_forward every epoch."""
    rng = np.random.default_rng(seed)
    n, d = condensed.x_prime.shape
    params = init_classifier(
        rng, d, condensed.num_classes, depth=2, hidden_dim=cfg.eval_hidden,
        dropout_rate=cfg.eval_dropout,
    )
    a_hat = renormalized_adjacency(condensed.a_prime)
    a_hat_org = renormalized_adjacency(dataset.graph)
    tensors = [params.weights[0], params.biases[0], params.weights[1], params.biases[1]]
    adam = AdamState([t.shape for t in tensors])
    best, best_val = None, -1.0
    for _ in range(cfg.eval_epochs):
        logits, cache = _gcn_forward_cache(params, a_hat, a_hat @ condensed.x_prime, rng)
        dlogits = (softmax_predict(logits) - condensed.y_prime) / n
        grads = list(_gcn_backward(params, a_hat, cache, dlogits))
        grads[0] += cfg.eval_weight_decay * params.weights[0]
        grads[2] += cfg.eval_weight_decay * params.weights[1]
        adam.step(tensors, grads, cfg.eval_lr)
        pred = np.argmax(gcn_forward(params, a_hat_org, dataset.features), axis=1)
        acc = float(np.mean(pred[dataset.val_mask] == dataset.labels[dataset.val_mask]))
        if acc > best_val:
            best_val = acc
            best = params.copy()
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
        cfg = PipelineConfig(
            eval_epochs=40, eval_hidden=8, eval_dropout=0.5, model_selection="best_val"
        )
        got = train_eval_gcn(condensed, cfg, seed, _a_hat(condensed), _validation(dataset))
        want = _best_val_reference(condensed, cfg, seed, dataset)
        for g, w in zip(got.weights + got.biases, want.weights + want.biases):
            assert np.array_equal(g, w)


def test_inductive_equals_transductive_without_test_edges():
    # with an edgeless graph both paths reduce to row-wise classification
    rng = np.random.default_rng(7)
    feats = rng.standard_normal((10, 3))
    labels = rng.integers(0, 2, size=10)
    graph = SparseGraph.from_edges(10, np.empty((0, 2)))
    masks = np.zeros((3, 10), dtype=bool)
    masks[0, :6], masks[1, 6:8], masks[2, 8:] = True, True, True
    ds = Dataset(graph, feats, labels, masks[0], masks[1], masks[2], 2, "edgeless")
    params = init_classifier(rng, 3, 2, depth=2, hidden_dim=6, dropout_rate=0.0)
    transductive, _ = evaluate_on_original(params, ds, renormalized_adjacency(ds.graph))
    inductive, _ = evaluate_on_original(
        params, ds, renormalized_adjacency(inductive_graph(ds)), inductive=True
    )
    assert transductive == pytest.approx(inductive)


@pytest.mark.parametrize("inductive", [False, True])
def test_test_forward_with_given_product_is_bitwise_equal(inductive):
    rng = np.random.default_rng(11)
    ds = _random_split_dataset(rng, 120, 3)
    params = init_classifier(rng, ds.num_features, 3, depth=2, hidden_dim=8, dropout_rate=0.0)
    graph = inductive_graph(ds) if inductive else ds.graph
    a_hat = renormalized_adjacency(graph)
    ax = a_hat @ forward_features(ds, inductive)
    before = ax.copy()
    want = evaluate_on_original(params, ds, a_hat, inductive)
    got = evaluate_on_original(params, ds, a_hat, inductive, ax=ax)
    assert got[0] == want[0]
    assert got[1].tobytes() == want[1].tobytes()
    assert ax.tobytes() == before.tobytes()


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


def _gcn_cache_reference(params, a_hat, x, rng=None):
    """The GCN forward with a (mask, scale) pair for its hidden layer.

    Dropout applies when an rng is given; without one this is the
    eval-mode forward.
    """
    ax = a_hat @ x
    s1 = ax @ params.weights[0] + params.biases[0]
    mask = s1 > 0.0
    h1 = s1 * mask
    scale = None
    if rng is not None and params.dropout_rate > 0.0:
        keep = rng.random(h1.shape) >= params.dropout_rate
        scale = keep / (1.0 - params.dropout_rate)
        h1 = h1 * scale
    logits = a_hat @ (h1 @ params.weights[1]) + params.biases[1]
    return logits, (ax, mask, scale, h1)


def _gcn_backward_reference(params, a_hat, cache, dlogits):
    ax, mask, scale, h1 = cache
    g = a_hat.T @ dlogits
    dh1 = g @ params.weights[1].T
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
    params = init_classifier(rng, d, K, depth=2, hidden_dim=hidden, dropout_rate=0.5)
    params.biases[0] = 0.1 * rng.standard_normal(hidden)
    params.biases[0][::3] = 0.0
    params.biases[1] = 0.1 * rng.standard_normal(K)
    return params, graph, x


@pytest.mark.parametrize("dropout", [0.0, 0.5])
def test_gcn_gate_matches_mask_and_scale_reference_bitwise(dropout):
    params, graph, x = _gcn_with_zeros(60, 120, hidden=64)
    params.dropout_rate = dropout
    a_hat = renormalized_adjacency(graph.to_scipy().toarray())
    want, ref_cache = _gcn_cache_reference(params, a_hat, x, np.random.default_rng(2))
    dlogits = np.random.default_rng(3).standard_normal(want.shape) / 120.0
    want_grads = _gcn_backward_reference(params, a_hat, ref_cache, dlogits)
    got, cache = _gcn_forward_cache(params, a_hat, a_hat @ x, np.random.default_rng(2))
    assert got.tobytes() == want.tobytes()
    for g, w in zip(_gcn_backward(params, a_hat, cache, dlogits), want_grads):
        assert g.tobytes() == w.tobytes()


def test_row_blocked_gcn_forward_matches_whole_matrix_reference_bitwise():
    params, graph, x = _gcn_with_zeros(61, 1000)
    dense = graph.to_scipy().toarray()
    for a_hat in (renormalized_adjacency(graph), renormalized_adjacency(dense)):
        want = _gcn_cache_reference(params, a_hat, x)[0]
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
    a_hat = renormalized_adjacency(graph)
    logits, labels = _validation_logits(dataset, a_hat)
    # the rows of a given whole-graph product are those a_hat[touched] @ x forms
    from_full, _ = _validation_logits(dataset, a_hat, a_hat @ x)
    val_idx = np.flatnonzero(dataset.val_mask)
    a_val = a_hat[val_idx]
    touched = np.flatnonzero(a_val.getnnz(axis=0))
    assert touched.size > 256
    ax = a_hat[touched] @ x
    assert np.array_equal(labels, dataset.labels[val_idx])
    # later calls reuse the first call's hidden buffer
    for scale in (1.0, -0.5, 2.0):
        p = ClassifierParams([scale * params.weights[0], params.weights[1]], params.biases)
        s1 = ax @ p.weights[0] + p.biases[0]
        h1 = s1 * (s1 > 0.0)
        want = a_val[:, touched] @ (h1 @ p.weights[1]) + p.biases[1]
        assert logits(p).tobytes() == want.tobytes()
        assert from_full(p).tobytes() == want.tobytes()


def _coreset_reference(dataset, Z, n, seed, method):
    """The removed selectors, each with its own per-class loop over the pool."""
    rng = np.random.default_rng(seed)
    pool = np.flatnonzero(dataset.train_mask)
    quotas = _class_quotas(dataset.labels[pool], dataset.num_classes, n)
    picks = []
    for c in range(dataset.num_classes):
        members = pool[dataset.labels[pool] == c]
        if method == "random":
            picks.append(rng.choice(members, size=quotas[c], replace=False))
            continue
        pts = Z[members]
        mean = pts.mean(axis=0)
        if method == "kcenter":
            chosen = [int(np.argmax(np.sum((pts - mean) ** 2, axis=1)))]
            min_d = np.sum((pts - pts[chosen[0]]) ** 2, axis=1)
            min_d[chosen[0]] = -np.inf
            while len(chosen) < quotas[c]:
                nxt = int(np.argmax(min_d))
                chosen.append(nxt)
                min_d = np.minimum(min_d, np.sum((pts - pts[nxt]) ** 2, axis=1))
                min_d[nxt] = -np.inf
        else:
            chosen = []
            running = np.zeros_like(mean)
            available = np.ones(pts.shape[0], dtype=bool)
            while len(chosen) < quotas[c]:
                cand = (running + pts) / (len(chosen) + 1)
                dist = np.sum((cand - mean) ** 2, axis=1)
                dist[~available] = np.inf
                nxt = int(np.argmin(dist))
                chosen.append(nxt)
                available[nxt] = False
                running = running + pts[nxt]
        picks.append(members[chosen])
    selected = np.sort(np.concatenate(picks))
    sub = dataset.graph.to_scipy()[selected][:, selected].toarray()
    onehot = np.zeros((selected.shape[0], dataset.num_classes))
    onehot[np.arange(selected.shape[0]), dataset.labels[selected]] = 1.0
    return selected, Z[selected], 0.5 * (sub + sub.T), onehot


def _random_split_dataset(rng, N, K):
    labels = rng.integers(0, K, size=N)
    labels[:K] = np.arange(K)
    tokens = rng.choice(["train", "val", "test"], size=N, p=[0.5, 0.25, 0.25])
    tokens[:K] = "train"
    feats = rng.standard_normal((N, 5)) + 1.5 * np.eye(K, 5)[labels]
    return Dataset(
        random_graph(rng, N, 0.05), feats, labels,
        tokens == "train", tokens == "val", tokens == "test", K,
    )


@pytest.mark.parametrize("method", ["random", "kcenter", "herding"])
def test_coreset_selectors_match_per_method_loops_bitwise(method):
    selector = {
        "random": coreset_random, "kcenter": coreset_kcenter, "herding": coreset_herding,
    }[method]
    for seed in range(3):
        rng = np.random.default_rng(70 + seed)
        dataset = _random_split_dataset(rng, 150, 4)
        Z = rng.standard_normal((150, 6))
        got = selector(dataset, Z, 23, seed=seed)
        indices, x, a, y = _coreset_reference(dataset, Z, 23, seed, method)
        assert got.meta == {"method": method, "indices": indices.tolist()}
        for g, w in ((got.x_prime, x), (got.a_prime, a), (got.y_prime, y)):
            assert g.tobytes() == w.tobytes()


def _train_eval_gcn_reference(condensed, cfg, seed, dataset):
    """The removed trainer: four loose tensors and a hand-built cross-entropy step."""
    rng = np.random.default_rng(seed)
    n, d = condensed.x_prime.shape
    head = init_classifier(
        rng, d, condensed.num_classes, depth=2, hidden_dim=cfg.eval_hidden,
        dropout_rate=cfg.eval_dropout,
    )
    (w1, w2), (b1, b2) = head.weights, head.biases
    a_hat = renormalized_adjacency(condensed.a_prime)
    labels = condensed.labels
    step = optimizer_step(cfg.optimizer, [w1, b1, w2, b2])
    want_val = cfg.model_selection == "best_val"
    if want_val:
        val_logits, val_labels = _validation(dataset)
    best, best_val = None, -1.0
    for _ in range(cfg.eval_epochs):
        logits, cache = _gcn_cache_reference(head, a_hat, condensed.x_prime, rng)
        P = softmax_predict(logits)
        picked = np.clip(P[np.arange(n), labels], 1e-12, None)
        loss = float(-np.mean(np.log(picked)))
        loss += 0.5 * cfg.eval_weight_decay * (float(np.sum(w1**2)) + float(np.sum(w2**2)))
        assert np.isfinite(loss)
        d_w1, d_b1, d_w2, d_b2 = _gcn_backward_reference(
            head, a_hat, cache, (P - condensed.y_prime) / n
        )
        d_w1 += cfg.eval_weight_decay * w1
        d_w2 += cfg.eval_weight_decay * w2
        step([d_w1, d_b1, d_w2, d_b2], cfg.eval_lr)
        if want_val:
            acc = float(np.mean(np.argmax(val_logits(head), axis=1) == val_labels))
            if acc > best_val:
                best_val = acc
                best = [w1.copy(), b1.copy(), w2.copy(), b2.copy()]
    return best if best is not None else [w1, b1, w2, b2]


@pytest.mark.parametrize(
    "model_selection, optimizer", [("final", "adam"), ("best_val", "adam"), ("final", "gd")]
)
def test_train_eval_gcn_matches_loose_tensor_trainer_bitwise(model_selection, optimizer):
    for seed in range(3):
        rng = np.random.default_rng(80 + seed)
        dataset = _random_split_dataset(rng, 120, 3)
        n, K = 12, 3
        y = np.eye(K)[np.arange(n) % K]
        m = np.abs(rng.standard_normal((n, n)))
        condensed = CondensedGraph(
            y @ np.eye(K, 5) + 0.5 * rng.standard_normal((n, 5)), 0.5 * (m + m.T), y
        )
        cfg = PipelineConfig(
            eval_epochs=30, eval_hidden=16, eval_dropout=0.5, eval_lr=0.05,
            optimizer=optimizer, model_selection=model_selection,
        )
        got = train_eval_gcn(condensed, cfg, seed, _a_hat(condensed), _validation(dataset))
        want = _train_eval_gcn_reference(condensed, cfg, seed, dataset)
        (w1, w2), (b1, b2) = got.weights, got.biases
        for g, w in zip((w1, b1, w2, b2), want):
            assert g.tobytes() == w.tobytes()
