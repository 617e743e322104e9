"""Build the synthetic triple (X', A', Y') from a clustering of representations."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .cluster import Clustering, cluster_means

# Rows of A' that CondensedGraph.validate compares with their transpose per step.
SYMMETRY_ROWS = 256


@dataclass
class CondensedGraph:
    """Synthetic attributed graph: dense weighted adjacency, one-hot labels."""

    x_prime: np.ndarray  # (n, d)
    a_prime: np.ndarray  # (n, n) symmetric, nonnegative
    y_prime: np.ndarray  # (n, K) one-hot
    meta: dict = field(default_factory=dict)

    @property
    def num_nodes(self) -> int:
        return self.x_prime.shape[0]

    @property
    def num_classes(self) -> int:
        return self.y_prime.shape[1]

    @property
    def labels(self) -> np.ndarray:
        return np.argmax(self.y_prime, axis=1)

    def validate(self) -> None:
        n = self.num_nodes
        if self.a_prime.shape != (n, n):
            raise ValueError("A' must be (n, n)")
        if self.y_prime.shape[0] != n:
            raise ValueError("Y' row count must be n")
        # every comparison with NaN is false, so the checks below would pass it
        if not np.all(np.isfinite(self.x_prime)):
            raise ValueError("X' must be finite")
        # row blocks against the matching column blocks, so neither the
        # finiteness test nor the differences form an n x n temporary
        a = self.a_prime
        for lo in range(0, n, SYMMETRY_ROWS):
            rows = a[lo : lo + SYMMETRY_ROWS]
            if not np.all(np.isfinite(rows)):
                raise ValueError("A' must be finite")
            gap = rows - a[:, lo : lo + SYMMETRY_ROWS].T
            if np.max(np.abs(gap, out=gap)) > 1e-12:
                raise ValueError("A' must be symmetric within 1e-12")
        if a.min() < -1e-12:
            raise ValueError("A' must be nonnegative")
        row_sums = self.y_prime.sum(axis=1)
        if not np.all(row_sums == 1.0) or not np.all(
            (self.y_prime == 0.0) | (self.y_prime == 1.0)
        ):
            raise ValueError("Y' must be one-hot")


def compress_adjacency(c_norm: sp.csr_matrix, a: sp.csr_matrix) -> sp.csr_matrix:
    """C_norm^T A C_norm, numerically symmetrized, in CSR form: A' or a class view.

    Each stored entry is 0.5 * (m_ij + m_ji), and an entry absent from m
    adds as 0.0, so .toarray() gives the bytes of symmetrizing the dense
    product.
    """
    m = c_norm.T @ (a @ c_norm)
    return (0.5 * (m + m.T)).tocsr()


def condense_labels(
    clustering: Clustering, H: np.ndarray, num_classes: int
) -> np.ndarray:
    """One-hot labels from the argmax of per-cluster mean representations.

    H columns must align with class scores (shape (N, K)); argmax ties go
    to the lowest class index.
    """
    means = cluster_means(clustering, H)
    if means.shape[1] != num_classes:
        raise ValueError("H must have one column per class")
    picks = np.argmax(means, axis=1)
    out = np.zeros((clustering.num_clusters, num_classes))
    out[np.arange(clustering.num_clusters), picks] = 1.0
    return out
