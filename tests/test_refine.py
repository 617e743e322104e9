import numpy as np
import pytest

from conftest import random_graph
from graphdistill.condense import CondensedGraph
from graphdistill.graph import GraphError, SparseGraph, normalize_rows
from graphdistill.model import init_classifier
from graphdistill.propagate import propagate_dense
from graphdistill.refine import (
    COS_FLOOR,
    Augmentation,
    ClassGraphSet,
    RefineConfig,
    class_edge_weights,
    class_representations,
    condense_class_graphs,
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
    with pytest.raises(ValueError):
        sample_class_graphs(a_norm, P, res, rho=0.5, weighting="bogus")


def test_condense_class_graphs_dense_oracle():
    from graphdistill.cluster import kmeans

    a_norm, P, res = _setup_sampling(seed=4)
    rng = np.random.default_rng(5)
    pts = rng.standard_normal((a_norm.num_nodes, 3))
    clustering = kmeans(pts, 4, seed=0)
    class_set = sample_class_graphs(a_norm, P, res, rho=0.6)
    out = condense_class_graphs(clustering, class_set)
    c = np.zeros((a_norm.num_nodes, 4))
    c[np.arange(a_norm.num_nodes), clustering.assignment] = (
        1.0 / clustering.sizes[clustering.assignment]
    )
    for sampled, condensed in zip(out.sampled, out.condensed):
        ref = c.T @ sampled.toarray() @ c
        assert np.max(np.abs(condensed - ref)) <= 1e-12
        assert np.array_equal(condensed, condensed.T)


def test_class_representations_zero_depth_propagation():
    rng = np.random.default_rng(6)
    params = init_classifier(rng, 3, 2, depth=1)
    x = rng.standard_normal((4, 3))
    delta = rng.standard_normal((4, 3))
    adjs = [rng.random((4, 4)) for _ in range(2)]
    out = class_representations(
        adjs, x, Augmentation(delta), beta=0.2, params=params, alpha=0.7, T_prime=0
    )
    expected = model.forward(params, 0.3 * (x + 0.2 * delta))
    for view in out:
        assert np.max(np.abs(view - expected)) <= 1e-12


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
                Z, labels, mask, x_prime, y_prime, adjs, delta, params,
                beta, alpha, tp, gamma, lam,
            )
            return out[0]

        _, _, d_delta, d_w, d_b = refine_loss_and_grads(
            Z, labels, mask, x_prime, y_prime, adjs, delta, params,
            beta, alpha, tp, gamma, lam,
        )
        assert _rel(_fd(loss_fn, delta), d_delta) <= 1e-4
        for i in range(params.depth):
            assert _rel(_fd(loss_fn, params.weights[i]), d_w[i]) <= 1e-4
            assert _rel(_fd(loss_fn, params.biases[i]), d_b[i]) <= 1e-4


def _refine_inputs(seed=10):
    Z, labels, mask, x_prime, y_prime, adjs, params, _ = _instance(seed)
    condensed = CondensedGraph(x_prime, np.zeros((4, 4)), y_prime)
    class_set = ClassGraphSet(sampled=[], condensed=adjs)
    return Z, labels, mask, condensed, class_set, params


def test_refine_zero_epochs_is_identity():
    Z, labels, mask, condensed, class_set, params = _refine_inputs()
    cfg = RefineConfig(epochs=0)
    out = refine(Z, labels, mask, condensed, class_set, params, cfg, 0.8)
    assert np.array_equal(out.x_refined, condensed.x_prime)
    assert out.loss_trace == []


def test_refine_without_objective_terms_keeps_attributes():
    Z, labels, mask, condensed, class_set, params = _refine_inputs()
    cfg = RefineConfig(gamma=0.0, lambda_=0.0, epochs=5, optimizer="gd")
    out = refine(Z, labels, mask, condensed, class_set, params, cfg, 0.8)
    assert np.array_equal(out.x_refined, condensed.x_prime)
    assert np.array_equal(out.augmentation.delta, np.zeros_like(condensed.x_prime))


def test_refine_is_deterministic_and_loss_decreases():
    Z, labels, mask, condensed, class_set, params = _refine_inputs(11)
    cfg = RefineConfig(epochs=40, learning_rate=0.01, seed=3)
    a = refine(Z, labels, mask, condensed, class_set, params, cfg, 0.8)
    b = refine(Z, labels, mask, condensed, class_set, params, cfg, 0.8)
    assert np.array_equal(a.x_refined, b.x_refined)
    assert a.loss_trace[-1] < a.loss_trace[0]


def test_refine_requires_condensed_adjacencies():
    Z, labels, mask, condensed, _, params = _refine_inputs(12)
    with pytest.raises(ValueError, match="condensed adjacencies"):
        refine(Z, labels, mask, condensed, ClassGraphSet(sampled=[]), params,
               RefineConfig(epochs=1), 0.8)


def test_refine_config_validation():
    with pytest.raises(ValueError):
        RefineConfig(rho=0.0)
    with pytest.raises(ValueError):
        RefineConfig(rho=1.5)
    with pytest.raises(ValueError):
        RefineConfig(T_prime=-1)
    with pytest.raises(ValueError):
        RefineConfig(epochs=-1)


def test_alpha_prime_override_changes_result():
    Z, labels, mask, condensed, class_set, params = _refine_inputs(13)
    base = RefineConfig(epochs=10, seed=0)
    override = RefineConfig(epochs=10, seed=0, alpha_prime=0.2)
    a = refine(Z, labels, mask, condensed, class_set, params, base, 0.8)
    b = refine(Z, labels, mask, condensed, class_set, params, override, 0.8)
    assert not np.array_equal(a.x_refined, b.x_refined)


def test_refine_reads_only_training_rows():
    Z, labels, mask, condensed, class_set, params = _refine_inputs(14)
    params.dropout_rate = 0.3
    Z[~mask] = np.nan
    cfg = RefineConfig(epochs=10, seed=1)
    out = refine(Z, labels, mask, condensed, class_set, params, cfg, 0.8)
    assert np.all(np.isfinite(out.loss_trace))
    assert np.all(np.isfinite(out.x_refined))
    for w, b in zip(out.params.weights, out.params.biases):
        assert np.all(np.isfinite(w)) and np.all(np.isfinite(b))
