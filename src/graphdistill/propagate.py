"""Truncated Neumann-series feature smoothing over a normalized adjacency."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .graph import GraphError, SparseGraph


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

