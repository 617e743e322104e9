import numpy as np
import pytest

from conftest import random_graph
from graphdistill.cluster import Clustering, cluster_means, kmeans, sketching_matrix
from graphdistill.condense import (
    SYMMETRY_ROWS,
    CondensedGraph,
    compress_adjacency,
    condense_labels,
)
from graphdistill.graph import normalized_adjacency


def _identity_clustering(n, dim=1):
    return Clustering(
        assignment=np.arange(n),
        num_clusters=n,
        sizes=np.ones(n, dtype=np.int64),
        centroids=np.zeros((n, dim)),
    )


def test_identity_clustering_is_passthrough():
    rng = np.random.default_rng(0)
    graph = random_graph(rng, 12, 0.4, min_degree=1)
    a_norm = normalized_adjacency(graph)
    Z = rng.standard_normal((12, 5))
    clustering = _identity_clustering(12)
    assert np.array_equal(cluster_means(clustering, Z), Z)
    a_prime = compress_adjacency(sketching_matrix(clustering), a_norm.to_scipy()).toarray()
    assert np.max(np.abs(a_prime - a_norm.to_scipy().toarray())) <= 1e-12


def test_adjacency_matches_dense_triple_product():
    rng = np.random.default_rng(1)
    graph = random_graph(rng, 20, 0.3, min_degree=1)
    a_norm = normalized_adjacency(graph)
    Z = rng.standard_normal((20, 4))
    clustering = kmeans(Z, 5, seed=0)
    c = np.zeros((20, 5))
    c[np.arange(20), clustering.assignment] = 1.0 / clustering.sizes[
        clustering.assignment
    ]
    ref = c.T @ a_norm.to_scipy().toarray() @ c
    got = compress_adjacency(sketching_matrix(clustering), a_norm.to_scipy()).toarray()
    assert np.max(np.abs(got - ref)) <= 1e-12
    assert np.array_equal(got, got.T)


def test_labels_argmax_with_low_index_ties():
    clustering = Clustering(
        assignment=np.array([0, 0]),
        num_clusters=1,
        sizes=np.array([2]),
        centroids=np.zeros((1, 1)),
    )
    H = np.array([[1.0, 0.0], [0.0, 1.0]])  # cluster mean [0.5, 0.5]
    y = condense_labels(clustering, H, 2)
    assert np.array_equal(y, [[1.0, 0.0]])
    with pytest.raises(ValueError, match="one column per class"):
        condense_labels(clustering, H, 3)


def test_label_rows_are_one_hot():
    rng = np.random.default_rng(2)
    Z = rng.standard_normal((30, 3))
    H = rng.standard_normal((30, 4))
    clustering = kmeans(Z, 6, seed=1)
    y = condense_labels(clustering, H, 4)
    assert y.shape == (6, 4)
    assert np.array_equal(y.sum(axis=1), np.ones(6))
    assert set(np.unique(y)) <= {0.0, 1.0}


def test_within_cluster_row_order_is_irrelevant():
    rng = np.random.default_rng(3)
    Z = rng.standard_normal((24, 4))
    clustering = kmeans(Z, 4, seed=2)
    base = cluster_means(clustering, Z)
    # swap two rows that share a cluster and swap their assignments back
    members = np.flatnonzero(clustering.assignment == clustering.assignment[0])
    assert members.shape[0] >= 2, "need a cluster with two members"
    i, j = members[0], members[1]
    Z2 = Z.copy()
    Z2[[i, j]] = Z2[[j, i]]
    assert np.max(np.abs(cluster_means(clustering, Z2) - base)) <= 1e-12


def test_validate_rejects_malformed_triples():
    x = np.zeros((2, 3))
    y = np.array([[1.0, 0.0], [0.0, 1.0]])
    good = CondensedGraph(x, np.array([[0.0, 1.0], [1.0, 0.0]]), y)
    good.validate()
    with pytest.raises(ValueError, match="symmetric"):
        CondensedGraph(x, np.array([[0.0, 1.0], [0.5, 0.0]]), y).validate()
    with pytest.raises(ValueError, match="nonnegative"):
        CondensedGraph(x, np.array([[0.0, -1.0], [-1.0, 0.0]]), y).validate()
    with pytest.raises(ValueError, match="one-hot"):
        CondensedGraph(x, np.zeros((2, 2)), np.array([[0.5, 0.5], [1.0, 0.0]])).validate()
    with pytest.raises(ValueError, match=r"\(n, n\)"):
        CondensedGraph(x, np.zeros((3, 3)), y).validate()
    # NaN fails every comparison, so it passes the symmetry and sign checks
    with pytest.raises(ValueError, match="A' must be finite"):
        CondensedGraph(x, np.array([[0.0, np.nan], [1.0, 0.0]]), y).validate()
    with pytest.raises(ValueError, match="X' must be finite"):
        CondensedGraph(
            np.array([[0.0, np.inf, 0.0], [0.0, 0.0, 0.0]]), np.zeros((2, 2)), y
        ).validate()
    # symmetry is checked SYMMETRY_ROWS rows at a time; this pair lies in the
    # last, partial block only
    n = SYMMETRY_ROWS + 3
    y = np.eye(2)[np.arange(n) % 2]
    a = np.zeros((n, n))
    a[n - 1, n - 2] = 1e-13
    CondensedGraph(np.zeros((n, 3)), a, y).validate()
    a[n - 1, n - 2] = 2e-12
    with pytest.raises(ValueError, match="symmetric within 1e-12"):
        CondensedGraph(np.zeros((n, 3)), a, y).validate()
    # finiteness is checked in the same blocks; the diagonal entry of the
    # last row lies in the last, partial block only
    n = 300
    y = np.eye(2)[np.arange(n) % 2]
    a = np.zeros((n, n))
    a[n - 1, n - 1] = np.nan
    with pytest.raises(ValueError, match="A' must be finite"):
        CondensedGraph(np.zeros((n, 3)), a, y).validate()


def test_condensed_graph_properties():
    x = np.zeros((3, 2))
    y = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    g = CondensedGraph(x, np.zeros((3, 3)), y)
    assert g.num_nodes == 3
    assert g.num_classes == 2
    assert np.array_equal(g.labels, [1, 0, 1])
