import numpy as np
import pytest

from graphdistill.graph import SparseGraph, normalized_adjacency
from graphdistill.propagate import PROPAGATE_COLUMNS, gls_propagate, propagate_dense

from conftest import random_graph
from oracles import gls_objective, gls_solve_exact


def test_truncation_and_alpha_degenerate_cases(rng):
    g = random_graph(rng, 8, 0.4, min_degree=1)
    a = normalized_adjacency(g)
    x = rng.standard_normal((8, 3))
    assert np.array_equal(gls_propagate(a, x, 0.3, 0), 0.7 * x)
    assert np.allclose(gls_propagate(a, x, 0.0, 5), x)


def test_two_node_worked_example():
    g = SparseGraph.from_edges(2, [(0, 1)])
    a = normalized_adjacency(g)
    x = np.array([[1.0], [0.0]])
    z = gls_propagate(a, x, 0.5, 1)
    assert np.allclose(z, [[0.5], [0.25]])


def test_exact_solve_degenerate_cases(rng):
    x = rng.standard_normal((5, 2))
    edgeless = SparseGraph.from_edges(5, np.empty((0, 2)))
    assert np.allclose(gls_solve_exact(normalized_adjacency(edgeless), x, 0.4), 0.6 * x)
    g = random_graph(rng, 5, 0.6, min_degree=1)
    assert np.allclose(gls_solve_exact(normalized_adjacency(g), x, 0.0), x)


def test_truncated_series_approaches_exact_solution():
    rng = np.random.default_rng(11)
    for _ in range(5):
        g = random_graph(rng, 30, 0.2, min_degree=1)
        a = normalized_adjacency(g)
        x = rng.standard_normal((30, 4))
        exact = gls_solve_exact(a, x, 0.5)
        z = gls_propagate(a, x, 0.5, 200)
        rel = np.linalg.norm(z - exact) / np.linalg.norm(exact)
        assert rel <= 1e-6


def test_series_error_is_monotone_in_depth(rng):
    g = random_graph(rng, 20, 0.3, min_degree=1)
    a = normalized_adjacency(g)
    x = rng.standard_normal((20, 2))
    exact = gls_solve_exact(a, x, 0.6)
    errs = [
        np.linalg.norm(gls_propagate(a, x, 0.6, t) - exact)
        for t in range(0, 25)
    ]
    assert all(errs[t + 1] <= errs[t] + 1e-12 for t in range(len(errs) - 1))


def test_exact_solution_is_objective_stationary_point(rng):
    g = random_graph(rng, 12, 0.4, min_degree=1)
    a = normalized_adjacency(g)
    x = rng.standard_normal((12, 3))
    z_star = gls_solve_exact(a, x, 0.7)
    base = gls_objective(g, z_star, x, 0.7)
    for _ in range(20):
        bump = 1e-3 * rng.standard_normal(z_star.shape)
        assert gls_objective(g, z_star + bump, x, 0.7) >= base


def test_cycle_graph_preserves_constant_columns():
    n = 6
    edges = [(i, (i + 1) % n) for i in range(n)]
    g = SparseGraph.from_edges(n, np.array(sorted((min(e), max(e)) for e in edges)))
    a = normalized_adjacency(g)
    x = np.full((n, 2), 3.0)
    x[:, 1] = -1.5
    z = gls_propagate(a, x, 0.8, 7)
    # every row identical, bit for bit
    assert np.array_equal(z, np.tile(z[0], (n, 1)))


def test_propagate_dense_matches_sparse(rng):
    g = random_graph(rng, 9, 0.5, min_degree=1)
    a = normalized_adjacency(g)
    x = rng.standard_normal((9, 4))
    sparse_z = gls_propagate(a, x, 0.4, 6)
    dense_z = propagate_dense(a.to_scipy().toarray(), x, 0.4, 6)
    assert np.allclose(sparse_z, dense_z, atol=1e-12)


def test_propagate_determinism(rng):
    g = random_graph(rng, 15, 0.3, min_degree=1)
    a = normalized_adjacency(g)
    x = rng.standard_normal((15, 3))
    z1 = gls_propagate(a, x, 0.5, 10)
    z2 = gls_propagate(a, x, 0.5, 10)
    assert np.array_equal(z1, z2)


@pytest.mark.parametrize(
    "d", [1, PROPAGATE_COLUMNS - 1, PROPAGATE_COLUMNS, PROPAGATE_COLUMNS + 1,
          3 * PROPAGATE_COLUMNS + 5],
)
def test_column_blocked_propagation_matches_one_whole_matrix_call(d):
    # gls_propagate runs the series over column blocks of X; each column of
    # a sparse product sums in the same order whatever the block width, so
    # the result keeps the bytes of one propagate_dense over all of X
    rng = np.random.default_rng(d)
    g = random_graph(rng, 60, 0.1, min_degree=1)
    a = normalized_adjacency(g)
    x = rng.standard_normal((60, d))
    whole = propagate_dense(a.to_scipy(), x, 0.8, 5)
    assert np.array_equal(gls_propagate(a, x, 0.8, 5), whole)
