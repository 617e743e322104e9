"""Truncated Neumann-series feature smoothing over a normalized adjacency."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .graph import GraphError, SparseGraph

# Columns of X that gls_propagate hands propagate_dense per call. Its series
# then holds three N x 256 blocks instead of three N x d matrices.
PROPAGATE_COLUMNS = 256


def gls_propagate(
    a_norm: SparseGraph, X: np.ndarray, alpha: float, T: int
) -> np.ndarray:
    """Z = sum_{t=0..T} (1-alpha) * alpha^t * A_norm^t X, summed by propagate_dense.

    The series runs over blocks of PROPAGATE_COLUMNS columns of X, one
    after the other. Each output column of a sparse product sums the same
    terms in the same order whatever the block width, and the rest of the
    series is elementwise, so Z has the bytes of one whole-matrix call.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.shape[0] != a_norm.num_nodes:
        raise GraphError("X row count must match the graph")
    A = a_norm.to_scipy()
    Z = np.empty(X.shape)
    for lo in range(0, X.shape[1], PROPAGATE_COLUMNS):
        cols = slice(lo, lo + PROPAGATE_COLUMNS)
        propagate_dense(A, X[:, cols], alpha, T, out=Z[:, cols])
    return Z


def propagate_dense(
    A: np.ndarray | sp.spmatrix,
    X: np.ndarray,
    alpha: float,
    T: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """sum_{t=0..T} (1-alpha) * alpha^t * A^t X, accumulated in t order.

    A may be a dense array or a scipy sparse matrix. For symmetric A the
    operator is its own adjoint, which the refinement gradients rely on.
    The sum accumulates in out when given (it may be a column slice of a
    larger array) and is returned.
    """
    term = np.asarray(X, dtype=np.float64)
    acc = np.multiply(1.0 - alpha, term, out=out)
    coef = 1.0 - alpha
    for _ in range(T):
        term = A @ term
        coef *= alpha
        acc += coef * term
    return acc

