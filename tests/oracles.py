"""Reference solutions that the tests check the library against.

They live with the tests because no stage of graphdistill calls them, and
the sparse direct solver they need would otherwise be imported by every
process that runs a distill.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from graphdistill.graph import GraphError, SparseGraph


class SolverError(RuntimeError):
    """Direct solve failed to reach the required residual."""

    def __init__(self, residual: float):
        super().__init__(f"linear solve residual {residual:.3e} above 1e-10")
        self.residual = residual


def gls_solve_exact(
    a_norm: SparseGraph, X: np.ndarray, alpha: float
) -> np.ndarray:
    """Solve (I - alpha * A_norm) Z = (1 - alpha) X directly.

    Raises:
        SolverError: if the final residual exceeds 1e-10 relative to the
            right-hand side.
    """
    X = np.asarray(X, dtype=np.float64)
    if not 0.0 <= alpha < 1.0:
        raise GraphError("alpha must lie in [0, 1)")
    A = a_norm.to_scipy()
    rhs = (1.0 - alpha) * X
    n = a_norm.num_nodes
    if n <= 2000:
        dense = np.eye(n) - alpha * A.toarray()
        Z = np.linalg.solve(dense, rhs)
    else:
        system = sp.eye(n, format="csc") - alpha * A.tocsc()
        Z = spla.spsolve(system, rhs)
        if Z.ndim == 1:
            Z = Z[:, None]
    residual = float(np.linalg.norm(rhs - (Z - alpha * (A @ Z)))) / max(
        1.0, float(np.linalg.norm(rhs))
    )
    if residual > 1e-10:
        raise SolverError(residual)
    return Z


def gls_objective(
    graph: SparseGraph, Z: np.ndarray, X: np.ndarray, alpha: float
) -> float:
    """Smoothing objective (1-a)*||Z-X||_F^2 + a * sum_E ||Z_i/sqrt(d_i) - Z_j/sqrt(d_j)||^2.

    The edge sum runs over undirected edges once. Its minimizer solves
    (I - a*A_norm) Z = (1-a) X.
    """
    Z = np.asarray(Z, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    if Z.shape != X.shape or Z.shape[0] != graph.num_nodes:
        raise GraphError("Z and X must both be (N, d)")
    if not 0.0 <= alpha < 1.0:
        raise GraphError("alpha must lie in [0, 1)")
    fit = float(np.sum((Z - X) ** 2))
    e = graph.undirected_edges()
    if e.shape[0] == 0:
        return (1.0 - alpha) * fit
    deg = graph.degrees()
    scaled = Z / np.sqrt(deg[:, None])  # edge endpoints always have deg > 0
    diff = scaled[e[:, 0]] - scaled[e[:, 1]]
    smooth = float(np.sum(graph.edge_values() * np.sum(diff**2, axis=1)))
    return (1.0 - alpha) * fit + alpha * smooth
