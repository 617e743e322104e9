import numpy as np
import pytest

from graphdistill.graph import SparseGraph


def random_edges(rng: np.random.Generator, n: int, p: float) -> np.ndarray:
    """All pairs i < j kept independently with probability p."""
    ii, jj = np.triu_indices(n, k=1)
    keep = rng.random(ii.shape[0]) < p
    return np.column_stack([ii[keep], jj[keep]])


def random_graph(
    rng: np.random.Generator, n: int, p: float, min_degree: int = 0
) -> SparseGraph:
    """Random undirected graph; optionally patch isolated nodes with one edge."""
    edges = random_edges(rng, n, p)
    if min_degree > 0:
        deg = np.zeros(n, dtype=int)
        for i, j in edges:
            deg[i] += 1
            deg[j] += 1
        extra = []
        present = {tuple(e) for e in edges.tolist()}
        for v in np.flatnonzero(deg == 0):
            other = int(rng.integers(n - 1))
            other = other + 1 if other >= v else other
            a, b = min(v, other), max(v, other)
            if (a, b) not in present:
                present.add((a, b))
                extra.append((a, b))
                deg[a] += 1
                deg[b] += 1
        if extra:
            edges = np.vstack([edges, np.array(extra, dtype=np.int64)])
    return SparseGraph.from_edges(n, edges)


def _per_value_rows(matrix):
    """The CSV writer's bytes built one format call per value."""
    return "".join(",".join(format(float(v), ".17g") for v in row) + "\n" for row in matrix)


@pytest.fixture
def rng():
    return np.random.default_rng(7)
