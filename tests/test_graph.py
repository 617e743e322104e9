import numpy as np
import pytest

from graphdistill.graph import (
    Dataset,
    EdgeListError,
    GraphError,
    SparseGraph,
    homophily_ratio,
    icad,
    normalize_rows,
    normalized_adjacency,
)

from conftest import random_graph
from oracles import gls_objective


def test_from_edges_builds_symmetric_csr():
    g = SparseGraph.from_edges(4, [(0, 1), (2, 1), (3, 0)])
    assert g.num_edges == 3
    assert g.col_indices.shape[0] == 6  # both directions stored
    dense = g.to_scipy().toarray()
    assert np.array_equal(dense, dense.T)
    assert np.all(np.diag(dense) == 0.0)
    # column indices sorted within each row
    for i in range(4):
        row = g.col_indices[g.row_offsets[i] : g.row_offsets[i + 1]]
        assert np.all(np.diff(row) > 0)


def test_from_edges_rejects_bad_input():
    with pytest.raises(GraphError):
        SparseGraph.from_edges(3, [(0, 0)])
    with pytest.raises(GraphError):
        SparseGraph.from_edges(3, [(0, 3)])
    with pytest.raises(GraphError):
        SparseGraph.from_edges(3, [(0, 1), (1, 0)])
    # each refusal names the list index of the first entry at fault
    cases = [
        ([(0, 1), (2, 2), (1, 1)], "self loops", 1),
        ([(0, 1), (0, 3), (-1, 2)], "out of range", 1),
        ([(1, 2), (-1, 2)], "out of range", 1),
        # the first entry that repeats an earlier one, in either orientation
        ([(0, 1), (1, 2), (0, 2), (2, 1), (1, 0), (0, 1)], "duplicate", 3),
        ([(0, 1), (1, 0), (0, 1), (1, 0)], "duplicate", 1),
    ]
    for edges, message, index in cases:
        with pytest.raises(EdgeListError, match=message) as info:
            SparseGraph.from_edges(3, edges)
        assert info.value.edge == index


def test_dataset_refuses_non_finite_features():
    graph = SparseGraph.from_edges(3, [(0, 1), (1, 2)])
    masks = np.eye(3, dtype=bool)
    for bad in (np.nan, np.inf, -np.inf):
        feats = np.ones((3, 2))
        feats[1, 0] = bad
        with pytest.raises(GraphError, match="features must be finite"):
            Dataset(graph, feats, np.array([0, 1, 0]), *masks, 2)
    Dataset(graph, np.ones((3, 2)), np.array([0, 1, 0]), *masks, 2)


def test_degrees_and_edge_listing():
    g = SparseGraph.from_edges(5, [(1, 0), (1, 2), (1, 3)])
    assert np.array_equal(g.degrees(), [1, 3, 1, 1, 0])
    e = g.undirected_edges()
    assert np.array_equal(e, [[0, 1], [1, 2], [1, 3]])
    assert np.array_equal(g.edge_values(), [1.0, 1.0, 1.0])


def test_normalized_adjacency_examples():
    # single edge: off-diagonal 1/sqrt(1*1)
    g = SparseGraph.from_edges(2, [(0, 1)])
    assert np.allclose(
        normalized_adjacency(g).to_scipy().toarray(), [[0, 1], [1, 0]]
    )
    # triangle: every entry 1/2
    tri = SparseGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    at = normalized_adjacency(tri).to_scipy().toarray()
    assert np.allclose(at, 0.5 * (np.ones((3, 3)) - np.eye(3)))
    # star: center-leaf entries 1/sqrt(3)
    star = SparseGraph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    a_star = normalized_adjacency(star).to_scipy().toarray()
    assert np.allclose(a_star[0, 1:], 1.0 / np.sqrt(3.0))


def test_normalized_adjacency_isolated_row_is_zero():
    g = SparseGraph.from_edges(3, [(0, 1)])
    a = normalized_adjacency(g).to_scipy().toarray()
    assert np.all(a[2] == 0.0) and np.all(a[:, 2] == 0.0)


def test_normalized_adjacency_spectral_radius_at_most_one():
    rng = np.random.default_rng(0)
    for _ in range(20):
        g = random_graph(rng, int(rng.integers(5, 40)), 0.2, min_degree=1)
        a = normalized_adjacency(g).to_scipy().toarray()
        radius = float(np.max(np.abs(np.linalg.eigvalsh(a))))
        assert radius <= 1.0 + 1e-6


def test_homophily_examples():
    tri = SparseGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    assert homophily_ratio(tri, [1, 1, 1]) == 1.0
    assert homophily_ratio(tri, [0, 0, 1]) == pytest.approx(1.0 / 3.0)
    lonely = SparseGraph.from_edges(2, np.empty((0, 2)))
    with pytest.raises(GraphError, match="empty edge set"):
        homophily_ratio(lonely, [0, 1])


def test_homophily_matches_onehot_difference_identity():
    # 1 - (1/(2M)) * sum over undirected edges of the squared one-hot
    # difference, written out with the degree scaling that cancels.
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = int(rng.integers(4, 60))
        g = random_graph(rng, n, float(rng.uniform(0.1, 0.5)), min_degree=1)
        k = int(rng.integers(2, 6))
        labels = rng.integers(0, k, size=n)
        onehot = np.eye(k)[labels]
        deg = g.degrees()
        scaled = np.sqrt(deg)[:, None] * onehot / np.sqrt(deg)[:, None]
        e = g.undirected_edges()
        diff = np.sum((scaled[e[:, 0]] - scaled[e[:, 1]]) ** 2)
        identity = 1.0 - diff / (2.0 * g.num_edges)
        assert abs(homophily_ratio(g, labels) - identity) <= 1e-10


def test_icad_examples():
    x = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert icad(x, [0, 1]) == pytest.approx(1.0, abs=1e-12)
    same = np.array([[2.0, 1.0], [2.0, 1.0], [2.0, 1.0]])
    assert icad(same, [0, 1, 1]) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(GraphError, match="ICAD"):
        icad(x, [0, 0])


def test_icad_row_scale_invariance_and_zero_rows():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((10, 4))
    labels = rng.integers(0, 3, size=10)
    scales = rng.uniform(0.5, 4.0, size=10)
    assert icad(x, labels) == pytest.approx(icad(x * scales[:, None], labels), abs=1e-12)
    x[3] = 0.0  # zero-norm row participates as the zero vector
    value = icad(x, labels)
    assert np.isfinite(value)


def test_icad_matches_bruteforce_pairs():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(4, 25))
        k = int(rng.integers(2, 5))
        x = rng.standard_normal((n, 6))
        labels = rng.integers(0, k, size=n)
        if np.unique(labels).shape[0] < 2:
            labels[0] = 0
            labels[1] = 1
        xn = normalize_rows(x)
        num = 0.0
        for i in range(n):
            for j in range(n):
                if labels[i] != labels[j]:
                    num += float(np.sum((xn[i] - xn[j]) ** 2))
        counts = np.bincount(labels, minlength=k).astype(float)
        denom = 2.0 * (n * n - float(np.sum(counts**2)))
        assert icad(x, labels) == pytest.approx(num / denom, rel=1e-10)


def test_gls_objective_edge_cases():
    g = SparseGraph.from_edges(3, np.empty((0, 2)))
    x = np.arange(6.0).reshape(3, 2)
    z = x + 1.0
    assert gls_objective(g, z, x, 0.3) == pytest.approx(0.7 * 6.0)
    tri = SparseGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    assert gls_objective(tri, z, x, 0.0) == pytest.approx(np.sum((z - x) ** 2))


def test_gls_objective_matches_dense_trace_form():
    rng = np.random.default_rng(4)
    for _ in range(20):
        g = random_graph(rng, 10, 0.4, min_degree=1)
        x = rng.standard_normal((10, 3))
        z = rng.standard_normal((10, 3))
        alpha = float(rng.uniform(0.0, 0.95))
        a = normalized_adjacency(g).to_scipy().toarray()
        dense = (1.0 - alpha) * np.sum((z - x) ** 2) + alpha * np.trace(
            z.T @ (np.eye(10) - a) @ z
        )
        assert gls_objective(g, z, x, alpha) == pytest.approx(dense, rel=1e-10)
