"""Graph containers plus attribute and label diagnostics.

Graphs are undirected, without self loops, and stored in compressed sparse
row form with both directions of every edge materialized. The undirected
edge count M is tracked separately because the homophily ratio and the
inter-class attribute distance normalize by single-count edge or pair
totals, not by stored nonzeros.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


class GraphError(ValueError):
    """Precondition violation in a graph container or graph operation."""


class EdgeListError(GraphError):
    """An entry of an edge list that SparseGraph.from_edges refuses.

    edge is the entry's 0-based index in the list, so a reader can name its
    line.
    """

    def __init__(self, message: str, edge: int):
        super().__init__(message)
        self.edge = edge


def normalize_rows(X: np.ndarray) -> np.ndarray:
    """L2-normalize each row; rows with zero norm are left as zero vectors."""
    X = np.asarray(X, dtype=np.float64)
    norms = np.linalg.norm(X, axis=1)
    safe = np.where(norms > 0.0, norms, 1.0)
    return X / safe[:, None]


@dataclass(frozen=True)
class SparseGraph:
    """Symmetric CSR adjacency. 2M stored nonzeros, column indices sorted per row."""

    num_nodes: int
    num_edges: int  # undirected count M; the CSR stores both directions
    row_offsets: np.ndarray
    col_indices: np.ndarray
    values: np.ndarray

    @classmethod
    def from_edges(cls, num_nodes: int, edges: np.ndarray) -> "SparseGraph":
        """Build a unit-weight graph from an edge list giving each undirected edge once.

        Args:
            num_nodes: node count N.
            edges: (M, 2) integer array, either orientation per edge.

        Raises:
            GraphError: when num_nodes is below 1.
            EdgeListError: on an out-of-range id, a self loop or a duplicate,
                naming the first such entry (for a duplicate, the first entry
                that repeats an earlier one).
        """
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        m = edges.shape[0]
        if num_nodes <= 0:
            raise GraphError("graph needs at least one node")
        if m > 0:
            if edges.min() < 0 or edges.max() >= num_nodes:
                outside = ((edges < 0) | (edges >= num_nodes)).any(axis=1)
                raise EdgeListError("edge endpoint out of range", int(np.argmax(outside)))
            loops = edges[:, 0] == edges[:, 1]
            if np.any(loops):
                raise EdgeListError("self loops are not allowed", int(np.argmax(loops)))

        rows = np.concatenate([edges[:, 0], edges[:, 1]])
        cols = np.concatenate([edges[:, 1], edges[:, 0]])
        order = np.lexsort((cols, rows))
        rows, cols = rows[order], cols[order]
        if m > 0:
            dup = (rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])
            if np.any(dup):
                # a stable sort of the (low, high) pairs keeps repeats in
                # list order, so each repeat follows the entry it repeats
                lo, hi = edges.min(axis=1), edges.max(axis=1)
                by_pair = np.lexsort((hi, lo))
                same = (lo[by_pair[1:]] == lo[by_pair[:-1]]) & (
                    hi[by_pair[1:]] == hi[by_pair[:-1]]
                )
                raise EdgeListError("duplicate edges in input", int(by_pair[1:][same].min()))
        offsets = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=num_nodes), out=offsets[1:])
        return cls(num_nodes, m, offsets, cols, np.ones(2 * m))

    def to_scipy(self) -> sp.csr_matrix:
        return sp.csr_matrix(
            (self.values, self.col_indices, self.row_offsets),
            shape=(self.num_nodes, self.num_nodes),
        )

    def degrees(self) -> np.ndarray:
        """Weighted degree per node (row sums); zeros for isolated nodes."""
        rows = np.repeat(np.arange(self.num_nodes), np.diff(self.row_offsets))
        return np.bincount(rows, weights=self.values, minlength=self.num_nodes)

    def undirected_edges(self) -> np.ndarray:
        """(M, 2) edge array with i < j, sorted lexicographically."""
        rows = np.repeat(np.arange(self.num_nodes), np.diff(self.row_offsets))
        keep = self.col_indices > rows
        return np.column_stack([rows[keep], self.col_indices[keep]])

    def edge_values(self) -> np.ndarray:
        """Weights aligned with undirected_edges()."""
        rows = np.repeat(np.arange(self.num_nodes), np.diff(self.row_offsets))
        return self.values[self.col_indices > rows]


@dataclass
class Dataset:
    """Attributed labeled graph with disjoint train/val/test node masks."""

    graph: SparseGraph
    features: np.ndarray
    labels: np.ndarray
    train_mask: np.ndarray
    val_mask: np.ndarray
    test_mask: np.ndarray
    num_classes: int
    name: str = "unnamed"

    def __post_init__(self) -> None:
        n = self.graph.num_nodes
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2 or self.features.shape[0] != n:
            raise GraphError("features must be (N, d)")
        if not np.all(np.isfinite(self.features)):
            raise GraphError("features must be finite")
        if self.labels.shape != (n,):
            raise GraphError("labels must be (N,)")
        if self.labels.min() < 0 or self.labels.max() >= self.num_classes:
            raise GraphError("label outside [0, K)")
        for mask in (self.train_mask, self.val_mask, self.test_mask):
            if np.asarray(mask).shape != (n,):
                raise GraphError("mask must be (N,)")
        overlap = (
            (self.train_mask & self.val_mask)
            | (self.train_mask & self.test_mask)
            | (self.val_mask & self.test_mask)
        )
        if np.any(overlap):
            raise GraphError("masks overlap")

    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    @property
    def num_features(self) -> int:
        return self.features.shape[1]


def normalized_adjacency(graph: SparseGraph) -> SparseGraph:
    """Symmetric degree normalization D^{-1/2} A D^{-1/2}.

    Isolated nodes keep empty rows (their would-be 0/0 entries are zero).
    """
    deg = graph.degrees()
    inv_sqrt = np.zeros_like(deg)
    nz = deg > 0.0
    inv_sqrt[nz] = 1.0 / np.sqrt(deg[nz])
    rows = np.repeat(np.arange(graph.num_nodes), np.diff(graph.row_offsets))
    vals = graph.values * inv_sqrt[rows] * inv_sqrt[graph.col_indices]
    return SparseGraph(
        graph.num_nodes,
        graph.num_edges,
        graph.row_offsets.copy(),
        graph.col_indices.copy(),
        vals,
    )


def homophily_ratio(graph: SparseGraph, labels: np.ndarray) -> float:
    """Fraction of undirected edges whose endpoints share a label."""
    if graph.num_edges == 0:
        raise GraphError("empty edge set")
    labels = np.asarray(labels)
    e = graph.undirected_edges()
    return float(np.mean(labels[e[:, 0]] == labels[e[:, 1]]))


def icad(features: np.ndarray, labels: np.ndarray) -> float:
    """Inter-class attribute distance.

    Mean squared distance between row-normalized attribute vectors of
    differently labeled node pairs, with both pair orders counted in the
    numerator and the denominator 2 * sum_{x != y} N_x N_y over ordered
    class pairs. Rows with zero norm enter as zero vectors.

    Raises:
        GraphError: if fewer than two classes are present.
    """
    labels = np.asarray(labels)
    classes, inv, counts = np.unique(labels, return_inverse=True, return_counts=True)
    if classes.shape[0] < 2:
        raise GraphError("ICAD undefined for fewer than two classes")
    xn = normalize_rows(features)
    n = xn.shape[0]
    sq = np.einsum("ij,ij->i", xn, xn)
    total_sq = sq.sum()
    total_vec = xn.sum(axis=0)
    cls_sq = np.bincount(inv, weights=sq, minlength=classes.shape[0])
    cls_vec = np.zeros((classes.shape[0], xn.shape[1]))
    np.add.at(cls_vec, inv, xn)

    other_cnt = n - counts[inv]
    other_sq = total_sq - cls_sq[inv]
    cross = np.einsum("ij,ij->i", xn, total_vec[None, :] - cls_vec[inv])
    numerator = float(np.sum(other_cnt * sq + other_sq - 2.0 * cross))
    denom = 2.0 * float(n * n - np.sum(counts.astype(np.float64) ** 2))
    return numerator / denom

