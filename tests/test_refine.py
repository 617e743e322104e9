import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import random_graph
from graphdistill.cluster import kmeans, sketching_matrix
from graphdistill.condense import CondensedGraph, compress_adjacency
from graphdistill.graph import GraphError, SparseGraph, normalize_rows
from graphdistill.model import init_classifier
from graphdistill import pipeline
from graphdistill.pipeline import PipelineConfig, SbmSpec, generate_sbm
from graphdistill.propagate import propagate_dense
from graphdistill.refine import (
    COS_FLOOR,
    class_edge_weights,
    consistency_loss,
    cosine_degrees,
    effective_resistance_approx,
    refine,
    refine_loss_and_grads,
    sample_class_graphs,
    syn_loss,
)
from graphdistill import model


def _path3():
    return SparseGraph.from_edges(3, np.array([[0, 1], [1, 2]]))


def test_cosine_degrees_identical_rows_match_plain_degree():
    g = _path3()
    H = np.tile(np.array([[1.0, 2.0]]), (3, 1))
    deg = cosine_degrees(g, H)
    assert np.allclose(deg, [1.0, 2.0, 1.0], atol=1e-12)


def test_cosine_degrees_orthogonal_rows_hit_floor():
    g = _path3()
    H = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    deg = cosine_degrees(g, H)
    assert np.allclose(deg, [COS_FLOOR, 2 * COS_FLOOR, COS_FLOOR], atol=1e-18)


def test_cosine_degrees_zero_rows_hit_floor():
    g = _path3()
    H = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
    deg = cosine_degrees(g, H)
    assert deg[0] == pytest.approx(COS_FLOOR, abs=1e-18)
    assert deg[1] == pytest.approx(1.0 + COS_FLOOR, abs=1e-12)


def test_cosine_degrees_brute_force():
    rng = np.random.default_rng(0)
    g = random_graph(rng, 15, 0.3, min_degree=1)
    H = rng.standard_normal((15, 4))
    hn = normalize_rows(H)
    expected = np.zeros(15)
    for i, j in g.undirected_edges():
        c = float(np.clip(hn[i] @ hn[j], COS_FLOOR, 1.0))
        expected[i] += c
        expected[j] += c
    assert np.allclose(cosine_degrees(g, H), expected, atol=1e-12)


def test_resistance_formula():
    g = _path3()
    deg = np.array([0.5, 2.0, 4.0])
    r = effective_resistance_approx(g, deg)
    assert np.allclose(r, [0.5 * (2.0 + 0.5), 0.5 * (0.5 + 0.25)], atol=1e-15)


def test_class_edge_weights_example():
    g = _path3()
    P = np.array([[0.9, 0.1], [0.5, 0.5], [0.2, 0.8]])
    r = np.array([1.0, 2.0])
    w0 = class_edge_weights(g, P, r, 0)
    assert np.allclose(w0, [0.9 * 0.5 * 1.0, 0.5 * 0.2 * 2.0], atol=1e-15)
    w1 = class_edge_weights(g, P, r, 1)
    assert np.allclose(w1, [0.1 * 0.5 * 1.0, 0.5 * 0.8 * 2.0], atol=1e-15)


def _setup_sampling(seed=1, n=12, p=0.4, k=3):
    rng = np.random.default_rng(seed)
    from graphdistill.graph import normalized_adjacency

    g = random_graph(rng, n, p, min_degree=1)
    a_norm = normalized_adjacency(g)
    logits = rng.standard_normal((n, k))
    P = model.softmax_predict(logits)
    H = rng.standard_normal((n, 4))
    res = effective_resistance_approx(a_norm, cosine_degrees(a_norm, H))
    return a_norm, P, res


def test_sampling_rho_one_keeps_everything():
    a_norm, P, res = _setup_sampling()
    out = sample_class_graphs(a_norm, P, res, rho=1.0)
    full = a_norm.to_scipy().toarray()
    for mat in out.sampled:
        assert np.array_equal(mat.toarray(), full)


def test_sampling_matches_brute_force_top_k():
    a_norm, P, res = _setup_sampling(seed=2)
    e = a_norm.undirected_edges()
    M = e.shape[0]
    rho = 0.35
    out = sample_class_graphs(a_norm, P, res, rho=rho)
    m_keep = min(M, int(np.ceil(rho * M)))
    for y, mat in enumerate(out.sampled):
        w = class_edge_weights(a_norm, P, res, y)
        order = sorted(range(M), key=lambda k: (-w[k], e[k, 0], e[k, 1]))
        kept = {(e[k, 0], e[k, 1]) for k in order[:m_keep]}
        got = mat.tocoo()
        got_edges = {
            (min(i, j), max(i, j)) for i, j in zip(got.row, got.col)
        }
        assert got_edges == kept
        assert mat.nnz == 2 * m_keep
        assert (mat != mat.T).nnz == 0


def test_sampling_tie_break_is_lexicographic():
    # unweighted star: every edge has the same adjacency value; force equal
    # scores and check the kept edge is the lexicographically first
    g = SparseGraph.from_edges(4, np.array([[0, 1], [0, 2], [0, 3]]))
    P = np.full((4, 2), 0.5)
    res = np.ones(3)
    out = sample_class_graphs(g, P, res, rho=0.3)
    kept = out.sampled[0].tocoo()
    assert {(i, j) for i, j in zip(kept.row, kept.col)} == {(0, 1), (1, 0)}


def _sample_class_graphs_lexsort(a_norm, P, res, rho, weighting):
    """The top-weight edges per class, ties broken by an explicit edge-id key."""
    e = a_norm.undirected_edges()
    vals = a_norm.edge_values()
    m_keep = min(e.shape[0], int(np.ceil(rho * e.shape[0])))
    N = a_norm.num_nodes
    out = []
    for y in range(P.shape[1]):
        w = class_edge_weights(a_norm, P, res, y)
        top = np.lexsort((e[:, 1], e[:, 0], -w))[:m_keep]
        kept = vals[top] if weighting == "adjacency" else w[top]
        rows = np.concatenate([e[top, 0], e[top, 1]])
        cols = np.concatenate([e[top, 1], e[top, 0]])
        data = np.concatenate([kept, kept])
        out.append(sp.csr_matrix((data, (rows, cols)), shape=(N, N)))
    return out


@pytest.mark.parametrize("weighting", ["adjacency", "score"])
def test_sampling_matches_lexsort_reference_bitwise(weighting):
    # three distinct P rows and two resistances: most weights tie, so the
    # kept set depends on the tie break
    rng = np.random.default_rng(16)
    from graphdistill.graph import normalized_adjacency

    a_norm = normalized_adjacency(random_graph(rng, 60, 0.15, min_degree=1))
    P = model.softmax_predict(rng.standard_normal((3, 4)))[rng.integers(3, size=60)]
    res = rng.choice([1.0, 2.0], size=a_norm.num_edges)
    for rho in (0.1, 0.37, 0.8):
        got = sample_class_graphs(a_norm, P, res, rho=rho, weighting=weighting)
        want = _sample_class_graphs_lexsort(a_norm, P, res, rho, weighting)
        for g, w in zip(got.sampled, want):
            assert g.data.tobytes() == w.data.tobytes()
            assert g.indices.tobytes() == w.indices.tobytes()
            assert g.indptr.tobytes() == w.indptr.tobytes()


def test_sampling_score_weighting_and_errors():
    a_norm, P, res = _setup_sampling(seed=3)
    out = sample_class_graphs(a_norm, P, res, rho=0.5, weighting="score")
    e = a_norm.undirected_edges()
    w = class_edge_weights(a_norm, P, res, 0)
    mat = out.sampled[0].tocoo()
    lookup = {(min(i, j), max(i, j)): v for i, j, v in zip(mat.row, mat.col, mat.data)}
    index = {(int(a), int(b)): w[k] for k, (a, b) in enumerate(e)}
    for key, v in lookup.items():
        assert v == pytest.approx(index[key], abs=1e-15)
    with pytest.raises(GraphError):
        sample_class_graphs(a_norm, P, res, rho=0.0)
    with pytest.raises(GraphError):
        sample_class_graphs(a_norm, P, res, rho=1.5)
    with pytest.raises(ValueError):
        sample_class_graphs(a_norm, P, res, rho=0.5, weighting="bogus")


def test_condensed_class_views_dense_oracle():
    a_norm, P, res = _setup_sampling(seed=4)
    rng = np.random.default_rng(5)
    pts = rng.standard_normal((a_norm.num_nodes, 3))
    clustering = kmeans(pts, 4, seed=0)
    c_norm = sketching_matrix(clustering)
    c = np.zeros((a_norm.num_nodes, 4))
    c[np.arange(a_norm.num_nodes), clustering.assignment] = (
        1.0 / clustering.sizes[clustering.assignment]
    )
    for sampled in sample_class_graphs(a_norm, P, res, rho=0.6).sampled:
        condensed = compress_adjacency(c_norm, sampled).toarray()
        ref = c.T @ sampled.toarray() @ c
        assert np.max(np.abs(condensed - ref)) <= 1e-12
        assert np.array_equal(condensed, condensed.T)


def test_class_representations_zero_depth_propagation():
    # with T' = 0 every class view is the head on (1 - alpha) * (X' + beta * Delta)
    rng = np.random.default_rng(6)
    params = init_classifier(rng, 3, 2, depth=1)
    x = rng.standard_normal((4, 3))
    delta = rng.standard_normal((4, 3))
    y_prime = np.eye(2)[[0, 1, 1, 0]]
    adjs = [rng.random((4, 4)) for _ in range(2)]
    Z = rng.standard_normal((5, 3))
    labels = np.array([0, 1, 0, 1, 1])
    _, (_, l_syn, l_cst), _, _, _ = refine_loss_and_grads(
        Z, labels, y_prime, x, adjs, delta, params,
        beta=0.2, alpha=0.7, T_prime=0, gamma=1.0, lambda_=1.0,
    )
    view = model.softmax_predict(model.forward(params, 0.3 * (x + 0.2 * delta)))
    assert abs(l_syn - syn_loss([view, view], y_prime)) <= 1e-12
    assert l_cst <= 1e-24


def test_syn_loss_frozen_values():
    y = np.eye(2)
    perfect = [np.array([[1.0, 0.0], [0.0, 1.0]])]
    assert syn_loss(perfect, y) == pytest.approx(0.0, abs=1e-9)
    uniform = [np.full((2, 2), 0.5)]
    assert syn_loss(uniform, y) == pytest.approx(np.log(2.0), abs=1e-12)
    assert syn_loss(uniform * 3, y) == pytest.approx(3 * np.log(2.0), abs=1e-12)


def test_consistency_loss_frozen_values():
    a = np.array([[1.0, 0.0]])
    b = np.array([[0.0, 1.0]])
    assert consistency_loss([a, b]) == pytest.approx(0.5, abs=1e-15)
    assert consistency_loss([a, a.copy()]) == pytest.approx(0.0, abs=1e-15)


def _instance(seed):
    rng = np.random.default_rng(seed)
    N, dz, K, n = 6, 4, 3, 4
    Z = rng.standard_normal((N, dz))
    labels = rng.integers(0, K, size=N)
    mask = rng.random(N) < 0.7
    mask[0] = True
    x_prime = rng.standard_normal((n, dz))
    y_prime = np.zeros((n, K))
    y_prime[np.arange(n), rng.integers(0, K, size=n)] = 1.0
    adjs = []
    for _ in range(K):
        m = np.abs(rng.standard_normal((n, n)))
        adjs.append(0.5 * (m + m.T))
    params = init_classifier(rng, dz, K, depth=2, hidden_dim=5)
    delta = 0.1 * rng.standard_normal((n, dz))
    return Z, labels, mask, x_prime, y_prime, adjs, params, delta


def _fd(loss_fn, tensor, eps=1e-6):
    grad = np.zeros_like(tensor)
    it = np.nditer(tensor, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = tensor[idx]
        tensor[idx] = orig + eps
        hi = loss_fn()
        tensor[idx] = orig - eps
        lo = loss_fn()
        tensor[idx] = orig
        grad[idx] = (hi - lo) / (2.0 * eps)
        it.iternext()
    return grad


def _rel(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(a), np.linalg.norm(b), 1e-10)


def test_refine_gradients_match_finite_differences():
    beta, alpha, tp, gamma, lam = 0.05, 0.6, 2, 1.7, 0.3
    for seed in range(20):
        Z, labels, mask, x_prime, y_prime, adjs, params, delta = _instance(700 + seed)

        def loss_fn():
            out = refine_loss_and_grads(
                Z[mask], labels[mask], y_prime, x_prime, adjs, delta, params,
                beta, alpha, tp, gamma, lam,
            )
            return out[0]

        _, _, d_delta, d_w, d_b = refine_loss_and_grads(
            Z[mask], labels[mask], y_prime, x_prime, adjs, delta, params,
            beta, alpha, tp, gamma, lam,
        )
        assert _rel(_fd(loss_fn, delta), d_delta) <= 1e-4
        for i in range(params.depth):
            assert _rel(_fd(loss_fn, params.weights[i]), d_w[i]) <= 1e-4
            assert _rel(_fd(loss_fn, params.biases[i]), d_b[i]) <= 1e-4


def _view_instance(seed, depth, dropout=0.0, d=9):
    """An instance whose features (d = 9 by default) are wider than W0's output.

    The hidden width is 4, and at depth 1 W0's output is the K = 3 classes,
    so d = 3 is narrow at every depth. The biases are drawn nonzero, as a
    trained head has them: with zero biases at depth 3 whole rows sit on the
    rectifier's kink, where a central difference is not the derivative.
    """
    rng = np.random.default_rng(seed)
    N, K, n = 8, 3, 5
    Z = rng.standard_normal((N, d))
    labels = rng.integers(0, K, size=N)
    mask = rng.random(N) < 0.7
    mask[0] = True
    x_prime = rng.standard_normal((n, d))
    y_prime = np.zeros((n, K))
    y_prime[np.arange(n), rng.integers(0, K, size=n)] = 1.0
    adjs = []
    for _ in range(K):
        m = np.abs(rng.standard_normal((n, n)))
        adjs.append(0.5 * (m + m.T))
    params = init_classifier(rng, d, K, depth=depth, hidden_dim=4, dropout_rate=dropout)
    for b in params.biases:
        b += 0.5 * rng.standard_normal(b.shape)
    delta = 0.1 * rng.standard_normal((n, d))
    # in refine_loss_and_grads' argument order
    return Z[mask], labels[mask], y_prime, x_prime, adjs, delta, params


def _refine_loss_and_grads_reference(
    Z, labels, y_prime, x_prime, cond_adjs, delta, params,
    beta, alpha, T_prime, gamma, lambda_, rng=None,
):
    """Each class view propagates the d-wide X' + beta Delta and runs the
    whole head on it; the Delta gradient is pulled back view by view."""
    n, num_classes = y_prime.shape
    logits_org, cache_org = model.forward_cache(params, Z, rng)
    _, l_org, dlogits_org = model.softmax_cross_entropy(logits_org, labels)
    _, d_w, d_b = model.backward(params, cache_org, dlogits_org)

    base = x_prime + beta * delta
    view_probs, caches = [], []
    for adj in cond_adjs:
        smoothed = propagate_dense(adj, base, alpha, T_prime)
        logits, cache = model.forward_cache(params, smoothed, rng)
        view_probs.append(model.softmax_predict(logits))
        caches.append(cache)
    l_syn = syn_loss(view_probs, y_prime)
    l_cst = consistency_loss(view_probs)
    pbar = sum(view_probs) / num_classes

    d_delta = np.zeros_like(delta)
    for adj, P, cache in zip(cond_adjs, view_probs, caches):
        dlogits = gamma * (P - y_prime) / n
        dP = (2.0 / (n * num_classes)) * (P - pbar)
        dlogits = dlogits + lambda_ * model.softmax_vjp(P, dP)
        d_pre, dw_v, db_v = model.backward(params, cache, dlogits)
        for i in range(params.depth):
            d_w[i] = d_w[i] + dw_v[i]
            d_b[i] = d_b[i] + db_v[i]
        d_delta += beta * propagate_dense(adj, d_pre @ params.weights[0].T, alpha, T_prime)
    loss = l_org + gamma * l_syn + lambda_ * l_cst
    return loss, (l_org, l_syn, l_cst), d_delta, d_w, d_b


@pytest.mark.parametrize("dropout", [0.0, 0.5])
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_projected_views_match_wide_reference(depth, dropout):
    # d > W0's width, so the views propagate (X' + beta Delta) W0; the
    # reference propagates X' + beta Delta. Same dropout stream on both sides.
    args = (0.05, 0.6, 2, 1.7, 0.3)
    for seed in range(5):
        inst = _view_instance(900 + seed, depth, dropout)
        got = refine_loss_and_grads(*inst, *args, rng=np.random.default_rng(seed))
        want = _refine_loss_and_grads_reference(
            *inst, *args, rng=np.random.default_rng(seed)
        )
        # the loss, then l_org, l_syn and l_cst
        for g, w in zip((got[0], *got[1]), (want[0], *want[1])):
            assert abs(g - w) <= 1e-12 * abs(w)
        assert _rel(got[2], want[2]) <= 1e-12
        for g, w in zip(got[3] + got[4], want[3] + want[4]):
            assert _rel(g, w) <= 1e-12


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_projected_view_gradients_match_finite_differences(depth):
    beta, alpha, tp, gamma, lam = 0.05, 0.6, 2, 1.7, 0.3
    for seed in range(10):
        Z, labels, y_prime, x_prime, adjs, delta, params = _view_instance(
            800 + seed, depth
        )
        args = (Z, labels, y_prime, x_prime, adjs, delta, params,
                beta, alpha, tp, gamma, lam)
        _, _, d_delta, d_w, d_b = refine_loss_and_grads(*args)
        loss_fn = lambda: refine_loss_and_grads(*args)[0]
        assert _rel(_fd(loss_fn, delta), d_delta) <= 1e-4
        for i in range(depth):
            assert _rel(_fd(loss_fn, params.weights[i]), d_w[i]) <= 1e-4
            assert _rel(_fd(loss_fn, params.biases[i]), d_b[i]) <= 1e-4


@pytest.mark.parametrize("dropout", [0.0, 0.5])
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_narrow_views_keep_reference_bytes(depth, dropout):
    # d <= W0's width keeps the d-wide order, so the bytes are the reference's
    args = (0.05, 0.6, 2, 1.7, 0.3)
    inst = _view_instance(41, depth, dropout, d=3)
    got = refine_loss_and_grads(*inst, *args, rng=np.random.default_rng(0))
    want = _refine_loss_and_grads_reference(*inst, *args, rng=np.random.default_rng(0))
    assert got[:2] == want[:2]
    for g, w in zip([got[2]] + got[3] + got[4], [want[2]] + want[3] + want[4]):
        assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("d", [9, 3])
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_views_propagate_the_narrower_operand(monkeypatch, depth, d):
    # d > W0's width: every propagation is W0-wide, one forward and one
    # backward per view; d <= W0's width: every propagation is d-wide
    inst = _view_instance(31, depth, d=d)
    widths = []

    def recording(A, X, alpha, T):
        widths.append(X.shape[1])
        return propagate_dense(A, X, alpha, T)

    monkeypatch.setattr("graphdistill.refine.propagate_dense", recording)
    refine_loss_and_grads(*inst, 0.05, 0.6, 2, 1.7, 0.3)
    width = inst[6].weights[0].shape[1]
    assert widths == [min(d, width)] * (2 * len(inst[4]))


def test_csr_views_hold_one_dense_view_at_a_time():
    # each CSR view is densified only for the product that reads it, so
    # the loss and its gradients over K = 8 views of n = 600 nodes hold less
    # than two dense n x n views at any time
    rng = np.random.default_rng(3)
    n, d, K = 600, 8, 8
    views = []
    for _ in range(K):
        m = sp.random(n, n, density=0.005, random_state=rng, format="csr")
        views.append((0.5 * (m + m.T)).tocsr())
    y_prime = np.eye(K)[rng.integers(0, K, size=n)]
    x_prime = rng.standard_normal((n, d))
    delta = 0.1 * rng.standard_normal((n, d))
    Z = rng.standard_normal((40, d))
    labels = rng.integers(0, K, size=40)
    params = init_classifier(rng, d, K, depth=2, hidden_dim=16, dropout_rate=0.5)
    tracemalloc.start()
    try:
        refine_loss_and_grads(
            Z, labels, y_prime, x_prime, views, delta, params,
            0.05, 0.6, 2, 1.7, 0.3, np.random.default_rng(0),
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * n * n * 8


def _refine_inputs(seed=10):
    """The training rows of Z and their labels, then refine's other inputs."""
    Z, labels, mask, x_prime, y_prime, adjs, params, _ = _instance(seed)
    condensed = CondensedGraph(x_prime, np.zeros((4, 4)), y_prime)
    return Z[mask], labels[mask], condensed, adjs, params


def test_refine_zero_epochs_is_identity():
    Z, labels, condensed, views, params = _refine_inputs()
    cfg = PipelineConfig(E3=0)
    out = refine(Z, labels, condensed, views, params, cfg, 0)
    assert np.array_equal(out.x_refined, condensed.x_prime)
    assert out.loss_trace == []


def test_refine_without_objective_terms_keeps_attributes():
    Z, labels, condensed, views, params = _refine_inputs()
    cfg = PipelineConfig(gamma=0.0, lambda_=0.0, E3=5)
    out = refine(Z, labels, condensed, views, params, cfg, 0)
    assert np.array_equal(out.x_refined, condensed.x_prime)
    assert np.array_equal(out.delta, np.zeros_like(condensed.x_prime))


def test_refine_is_deterministic_and_loss_decreases():
    Z, labels, condensed, views, params = _refine_inputs(11)
    cfg = PipelineConfig(E3=40, lr=0.01)
    a = refine(Z, labels, condensed, views, params, cfg, 3)
    b = refine(Z, labels, condensed, views, params, cfg, 3)
    assert np.array_equal(a.x_refined, b.x_refined)
    assert a.loss_trace[-1] < a.loss_trace[0]


def test_refine_requires_condensed_adjacencies():
    Z, labels, condensed, _, params = _refine_inputs(12)
    with pytest.raises(ValueError, match="condensed adjacencies"):
        refine(Z, labels, condensed, [], params, PipelineConfig(E3=1), 0)


def test_alpha_prime_override_changes_result():
    Z, labels, condensed, views, params = _refine_inputs(13)
    base = PipelineConfig(E3=10, alpha=0.8)
    override = PipelineConfig(E3=10, alpha=0.8, alpha_prime=0.2)
    a = refine(Z, labels, condensed, views, params, base, 0)
    b = refine(Z, labels, condensed, views, params, override, 0)
    assert not np.array_equal(a.x_refined, b.x_refined)
    # a negative alpha_prime reuses alpha: alpha 0.2 gives the override's bytes
    reuse = PipelineConfig(E3=10, alpha=0.2, alpha_prime=-1.0)
    c = refine(Z, labels, condensed, views, params, reuse, 0)
    assert c.x_refined.tobytes() == b.x_refined.tobytes()
    assert c.delta.tobytes() == b.delta.tobytes()
    for g, w in zip(c.params.weights + c.params.biases, b.params.weights + b.params.biases):
        assert g.tobytes() == w.tobytes()
    assert c.loss_trace == b.loss_trace


def test_refine_reads_only_training_rows(monkeypatch):
    # run_pipeline hands refine the training rows of Z and their labels alone
    seen = {}
    propagate, refine_real = pipeline.gls_propagate, pipeline.refine

    def propagating(*args, **kwargs):
        seen["Z"] = propagate(*args, **kwargs)
        return seen["Z"]

    def refining(Z, labels, *args, **kwargs):
        seen["rows"], seen["labels"] = Z, labels
        return refine_real(Z, labels, *args, **kwargs)

    monkeypatch.setattr(pipeline, "gls_propagate", propagating)
    monkeypatch.setattr(pipeline, "refine", refining)
    ds = generate_sbm(SbmSpec(num_nodes=60, num_classes=3, intra_prob=0.3,
                              inter_prob=0.02, feature_dim=4, seed=0))
    cfg = PipelineConfig(E1=2, E2=5, E3=2, eval_epochs=2, eval_repeats=1,
                         hidden=8, eval_hidden=8, num_synthetic=6)
    pipeline.run_pipeline(ds, cfg)
    assert seen["rows"].tobytes() == seen["Z"][ds.train_mask].tobytes()
    assert np.array_equal(seen["labels"], ds.labels[ds.train_mask])
