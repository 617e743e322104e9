"""Truncated Neumann-series feature smoothing over a normalized adjacency."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .graph import GraphError, SparseGraph


class SolverError(RuntimeError):
    """Direct solve failed to reach the required residual."""

    def __init__(self, residual: float):
        super().__init__(f"linear solve residual {residual:.3e} above 1e-10")
        self.residual = residual


def gls_propagate(
    a_norm: SparseGraph, X: np.ndarray, alpha: float, T: int
) -> np.ndarray:
    """Z = sum_{t=0..T} (1-alpha) * alpha^t * A_norm^t X, summed by propagate_dense."""
    X = np.asarray(X, dtype=np.float64)
    if X.shape[0] != a_norm.num_nodes:
        raise GraphError("X row count must match the graph")
    return propagate_dense(a_norm.to_scipy(), X, alpha, T)


def propagate_dense(
    A: np.ndarray | sp.spmatrix, X: np.ndarray, alpha: float, T: int
) -> np.ndarray:
    """sum_{t=0..T} (1-alpha) * alpha^t * A^t X, accumulated in t order.

    A may be a dense array or a scipy sparse matrix. For symmetric A the
    operator is its own adjoint, which the refinement gradients rely on.
    """
    term = np.asarray(X, dtype=np.float64)
    acc = (1.0 - alpha) * term
    coef = 1.0 - alpha
    for _ in range(T):
        term = A @ term
        coef *= alpha
        acc += coef * term
    return acc


def gls_solve_exact(
    a_norm: SparseGraph, X: np.ndarray, alpha: float
) -> np.ndarray:
    """Solve (I - alpha * A_norm) Z = (1 - alpha) X directly. Test oracle.

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
