"""Property tests for the propagation kernel, the cluster means and A'.

Examples are derandomized and their number fixed, so every run checks the
same cases.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import random_graph
from graphdistill.cluster import Clustering, cluster_means, sketching_matrix
from graphdistill.condense import CondensedGraph, compress_adjacency
from graphdistill.graph import normalized_adjacency
from graphdistill.propagate import gls_propagate, propagate_dense
from oracles import gls_solve_exact

PROPERTY = settings(max_examples=40, derandomize=True, database=None, deadline=None)

values = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


@st.composite
def propagation_cases(draw):
    """A normalized adjacency, two feature matrices, alpha and T."""
    n = draw(st.integers(2, 12))
    d = draw(st.integers(1, 4))
    graph = random_graph(
        np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
        n,
        draw(st.floats(0.0, 1.0)),
        min_degree=draw(st.integers(0, 1)),
    )
    X = draw(arrays(np.float64, (n, d), elements=values))
    Y = draw(arrays(np.float64, (n, d), elements=values))
    alpha = draw(st.floats(0.0, 0.99))
    T = draw(st.integers(0, 8))
    return normalized_adjacency(graph), X, Y, alpha, T


@PROPERTY
@given(propagation_cases(), values, values)
def test_gls_propagate_is_linear(case, a, b):
    a_norm, X, Y, alpha, T = case
    combined = gls_propagate(a_norm, a * X + b * Y, alpha, T)
    separate = a * gls_propagate(a_norm, X, alpha, T) + b * gls_propagate(a_norm, Y, alpha, T)
    scale = 1.0 + (abs(a) + abs(b)) * 10.0
    assert np.max(np.abs(combined - separate), initial=0.0) <= 1e-12 * scale


@PROPERTY
@given(propagation_cases())
def test_gls_propagate_matches_dense_kernel(case):
    a_norm, X, _, alpha, T = case
    sparse_z = gls_propagate(a_norm, X, alpha, T)
    dense_z = propagate_dense(a_norm.to_scipy().toarray(), X, alpha, T)
    assert np.max(np.abs(sparse_z - dense_z), initial=0.0) <= 1e-12


@PROPERTY
@given(propagation_cases(), st.floats(0.0, 0.9))
def test_gls_propagate_is_within_the_series_tail_of_the_exact_solve(case, alpha):
    # the terms past T sum to at most alpha^(T+1) ||X||, since ||A_norm||_2 <= 1
    a_norm, X, _, _, T = case
    gap = np.linalg.norm(gls_propagate(a_norm, X, alpha, T) - gls_solve_exact(a_norm, X, alpha))
    norm = np.linalg.norm(X)
    assert gap <= alpha ** (T + 1) * norm + 1e-8 * max(1.0, norm)


@st.composite
def partitions(draw):
    """Points with a hard assignment in which every cluster is nonempty."""
    k = draw(st.integers(1, 5))
    extra = draw(st.lists(st.integers(0, k - 1), max_size=20))
    order = draw(st.permutations(list(range(k)) + extra))
    assignment = np.array(order, dtype=np.int64)
    H = draw(arrays(np.float64, (assignment.shape[0], draw(st.integers(1, 4))), elements=values))
    clustering = Clustering(
        assignment=assignment,
        num_clusters=k,
        sizes=np.bincount(assignment, minlength=k),
        centroids=np.zeros((k, H.shape[1])),
    )
    return clustering, H


@PROPERTY
@given(partitions())
def test_cluster_means_rows_are_member_means(case):
    clustering, H = case
    means = cluster_means(clustering, H)
    assert means.shape == (clustering.num_clusters, H.shape[1])
    for c in range(clustering.num_clusters):
        members = H[clustering.assignment == c]
        assert np.max(np.abs(means[c] - members.mean(axis=0))) <= 1e-12 * 10.0


@st.composite
def condensation_cases(draw):
    """A normalized adjacency and a partition of its nodes into nonempty clusters."""
    n = draw(st.integers(2, 16))
    k = draw(st.integers(1, n))
    graph = random_graph(
        np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
        n,
        draw(st.floats(0.0, 1.0)),
        min_degree=draw(st.integers(0, 1)),
    )
    extra = draw(st.lists(st.integers(0, k - 1), min_size=n - k, max_size=n - k))
    assignment = np.array(draw(st.permutations(list(range(k)) + extra)), dtype=np.int64)
    clustering = Clustering(
        assignment=assignment,
        num_clusters=k,
        sizes=np.bincount(assignment, minlength=k),
        centroids=np.zeros((k, 1)),
    )
    return normalized_adjacency(graph), clustering


@PROPERTY
@given(condensation_cases())
def test_condensed_adjacency_is_symmetric_nonnegative_and_finite(case):
    a_norm, clustering = case
    a = compress_adjacency(sketching_matrix(clustering), a_norm.to_scipy()).toarray()
    k = clustering.num_clusters
    assert a.shape == (k, k)
    assert np.all(np.isfinite(a))
    assert np.array_equal(a, a.T)
    assert a.min() >= 0.0
    CondensedGraph(np.zeros((k, 1)), a, np.ones((k, 1))).validate()
