"""Lloyd k-means with k-means++ seeding, plus a mini-batch variant.

Written in-repo rather than wrapping a library so the pinned behaviors
hold exactly: seeding draws from the caller's generator, assignment ties
go to the lowest centroid index, empty clusters are repaired with the
farthest point, and runs are bit-deterministic for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .model import row_blocks


@dataclass
class Clustering:
    """Hard partition of N points into nonempty clusters."""

    assignment: np.ndarray  # (N,) cluster index per point
    num_clusters: int
    sizes: np.ndarray  # (n,) all >= 1
    centroids: np.ndarray  # (n, dim)
    wcss_trace: list[float] = field(default_factory=list)


def _row_sums(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Sum over the first axis of a, added as np.sum(a.T, axis=1) adds.

    numpy sums a contiguous row pairwise: fewer than 8 terms one after
    another from zero, up to 128 in eight interleaved partial sums, and
    more by halving at a multiple of 8. Each step here is elementwise over
    the N columns, so every sum equals the row-wise one bit for bit. a is
    overwritten.
    """
    n = a.shape[0]
    if n < 8:
        out.fill(0.0)
        for row in a:
            out += row
        return out
    if n > 128:
        half = n // 2 - (n // 2) % 8
        _row_sums(a[:half], out)
        out += _row_sums(a[half:], np.empty_like(out))
        return out
    full = n - n % 8
    acc = a[:8]
    for i in range(8, full, 8):
        acc += a[i : i + 8]
    np.add(acc[0::2], acc[1::2], out=acc[0::2])
    np.add(acc[0::4], acc[2::4], out=acc[0::4])
    np.add(acc[0], acc[4], out=out)
    for row in a[full:]:
        out += row
    return out


def _kmeans_pp(
    points: np.ndarray, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Classic k-means++ seeding; indices are distinct by construction.

    Distances are formed on a column-major copy of the points, so every
    elementwise pass runs along N, into buffers allocated once per call;
    _row_sums keeps them equal to the row-wise sum((points - c) ** 2,
    axis=1) bit for bit, so the draws match.
    """
    N = points.shape[0]
    cols = points.T.copy()
    sq = np.empty_like(cols)

    def sq_dist(index: int, out: np.ndarray) -> np.ndarray:
        np.subtract(cols, points[index][:, None], out=sq)
        np.square(sq, out=sq)
        return _row_sums(sq, out)

    chosen = np.empty(n, dtype=np.int64)
    chosen[0] = rng.integers(N)
    dist = sq_dist(chosen[0], np.empty(N))
    new = np.empty(N)
    for k in range(1, n):
        total = dist.sum()
        if total <= 0.0:
            remaining = np.setdiff1d(np.arange(N), chosen[:k])
            chosen[k] = rng.choice(remaining)
        else:
            chosen[k] = rng.choice(N, p=dist / total)
        np.minimum(dist, sq_dist(chosen[k], new), out=dist)
    return points[chosen].copy()


# Distances per block of an assignment pass. A block holds its distances
# to the n centers in two buffers of rows x n doubles, so a block sized by
# its distances stays in cache at every n.
ASSIGN_BLOCK = 1 << 16


def _assign_rows(n: int) -> int:
    """Rows per assignment block at n centers; two at the least, so no block is a GEMV."""
    return max(2, ASSIGN_BLOCK // n)


def _point_terms(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(2 p, |p|^2) per point: the point side of every assignment pass."""
    return 2.0 * points, np.einsum("ij,ij->i", points, points)


def _assign(
    points: np.ndarray,
    centers: np.ndarray,
    terms: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Index of the nearest center per point, _assign_rows(n) points at a time.

    Squared distances are |p|^2 + |c|^2 - 2 p.c; terms is _point_terms(points)
    when the caller forms it once for many passes. The nearest center is
    the one that argmin would pick after clipping the distances at zero:
    every nonpositive distance ties at zero there, so a row whose minimum is
    <= 0 takes its first such index. The blocks are model.row_blocks, so
    the result equals that of one N x n distance matrix as long as a row's
    GEMM result does not depend on how many rows the call holds.
    """
    twice, sq_p = _point_terms(points) if terms is None else terms
    N = twice.shape[0]
    sq_c = np.einsum("ij,ij->i", centers, centers)
    blocks = row_blocks(N, _assign_rows(centers.shape[0]))
    rows = max(hi - lo for lo, hi in blocks)
    prod = np.empty((rows, centers.shape[0]))
    dist = np.empty_like(prod)
    assignment = np.empty(N, dtype=np.int64)
    for lo, hi in blocks:
        p, d = prod[: hi - lo], dist[: hi - lo]
        np.matmul(twice[lo:hi], centers.T, out=p)
        np.add(sq_p[lo:hi, None], sq_c, out=d)
        d -= p
        best = np.argmin(d, axis=1)
        low = np.flatnonzero(d[np.arange(hi - lo), best] <= 0.0)
        best[low] = np.argmax(d[low] <= 0.0, axis=1)
        assignment[lo:hi] = best
    return assignment


def _repair_empty(
    points: np.ndarray, centers: np.ndarray, assignment: np.ndarray
) -> np.ndarray:
    """Give each empty cluster the point farthest from its current centroid.

    Only points from clusters of size >= 2 are eligible, so no donor
    cluster is emptied in turn.
    """
    n = centers.shape[0]
    sizes = np.bincount(assignment, minlength=n)
    while np.any(sizes == 0):
        empty = int(np.argmin(sizes))
        dist = np.sum((points - centers[assignment]) ** 2, axis=1)
        dist[sizes[assignment] < 2] = -np.inf
        donor = int(np.argmax(dist))
        sizes[assignment[donor]] -= 1
        assignment[donor] = empty
        sizes[empty] = 1
        centers[empty] = points[donor]
    return assignment


def _membership(
    assignment: np.ndarray, n: int, values: np.ndarray | None = None
) -> sp.csr_matrix:
    """N x n matrix holding values[j] (default 1) at (j, assignment[j]), one entry per row."""
    N = assignment.shape[0]
    data = np.ones(N) if values is None else values
    return sp.csr_matrix((data, assignment, np.arange(N + 1)), shape=(N, n))


def _means(points: np.ndarray, assignment: np.ndarray, n: int) -> np.ndarray:
    """Grouped sum-then-divide: row i is the arithmetic mean of cluster i.

    Cᵀ points, with C the membership matrix, adds each point's row into a
    zeroed sum in point order, as np.add.at does, so the sums are its bits.
    """
    sums = _membership(assignment, n).T @ points
    sizes = np.bincount(assignment, minlength=n)
    return sums / sizes[:, None]


def wcss(points: np.ndarray, clustering: Clustering) -> float:
    """Within-cluster sum of squares against per-cluster means."""
    return _wcss_raw(points, cluster_means(clustering, points), clustering.assignment)


def _wcss_raw(points: np.ndarray, centers: np.ndarray, assignment: np.ndarray) -> float:
    return float(np.sum((points - centers[assignment]) ** 2))


def _lloyd(
    points: np.ndarray,
    centers: np.ndarray,
    max_iter: int,
    tol: float,
    terms: tuple[np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray, list[float]]:
    n = centers.shape[0]
    assignment = _assign(points, centers, terms)
    assignment = _repair_empty(points, centers, assignment)
    means = _means(points, assignment, n)
    trace = [_wcss_raw(points, means, assignment)]
    # trace[0] is the post-seeding objective; one entry follows per iteration
    for _ in range(max_iter):
        shift = float(np.max(np.linalg.norm(means - centers, axis=1)))
        centers = means
        assignment = _assign(points, centers, terms)
        assignment = _repair_empty(points, centers, assignment)
        means = _means(points, assignment, n)
        trace.append(_wcss_raw(points, means, assignment))
        if shift < tol:
            break
    return assignment, means, trace


def kmeans(
    points: np.ndarray,
    n: int,
    seed: int = 0,
    max_iter: int = 300,
    tol: float = 1e-4,
    n_init: int = 10,
) -> Clustering:
    """Best of n_init seeded k-means++ Lloyd runs.

    Args:
        points: (N, dim) data.
        n: cluster count, 1 <= n <= N.
        seed: generator seed; all randomness flows from it.
        max_iter: Lloyd iteration cap per run.
        tol: stop when the largest centroid shift falls below this.
        n_init: independent seedings; the lowest-WCSS run wins, first on ties.
    """
    points = np.asarray(points, dtype=np.float64)
    N = points.shape[0]
    if not 1 <= n <= N:
        raise ValueError("cluster count must satisfy 1 <= n <= N")
    rng = np.random.default_rng(seed)
    terms = _point_terms(points)
    best: tuple[float, np.ndarray, np.ndarray, list[float]] | None = None
    for _ in range(max(1, n_init)):
        centers = _kmeans_pp(points, n, rng)
        assignment, centers, trace = _lloyd(points, centers, max_iter, tol, terms)
        score = trace[-1]
        if best is None or score < best[0]:
            best = (score, assignment, centers, trace)
    _, assignment, centers, trace = best
    sizes = np.bincount(assignment, minlength=n)
    return Clustering(assignment, n, sizes, centers, trace)


def minibatch_kmeans(
    points: np.ndarray,
    n: int,
    seed: int = 0,
    max_iter: int = 300,
    batch_size: int = 1000,
    tol: float = 1e-4,
    n_init: int = 10,
) -> Clustering:
    """Streaming centroid updates on seeded batches.

    A batch size of at least N degenerates to the full-batch routine, with
    its n_init seedings, and reproduces its trajectory for the same seed.
    """
    points = np.asarray(points, dtype=np.float64)
    N = points.shape[0]
    if batch_size >= N:
        return kmeans(
            points, n, seed=seed, max_iter=max_iter, tol=tol, n_init=n_init
        )
    if not 1 <= n <= N:
        raise ValueError("cluster count must satisfy 1 <= n <= N")
    rng = np.random.default_rng(seed)
    centers = _kmeans_pp(points, n, rng)
    terms = _point_terms(points)
    twice, sq_p = terms
    counts = np.zeros(n)
    calm = 0
    for _ in range(max_iter):
        batch = rng.choice(N, size=batch_size, replace=False)
        pts = points[batch]
        labels = _assign(pts, centers, (twice[batch], sq_p[batch]))
        # one grouped update of every cluster the batch hit
        hits = np.bincount(labels, minlength=n)
        sums = np.zeros_like(centers)
        np.add.at(sums, labels, pts)
        hit = np.flatnonzero(hits)
        counts[hit] += hits[hit]
        step = (sums[hit] - hits[hit, None] * centers[hit]) / counts[hit, None]
        centers[hit] = centers[hit] + step
        shift = float(np.max(np.linalg.norm(step, axis=1)))
        calm = calm + 1 if shift < tol else 0
        if calm >= 3:
            break
    # one final assignment over every point, with no further iteration
    assignment, centers, trace = _lloyd(points, centers, 0, tol, terms)
    sizes = np.bincount(assignment, minlength=n)
    return Clustering(assignment, n, sizes, centers, trace)


def sketching_matrix(clustering: Clustering) -> sp.csr_matrix:
    """C_norm: the N x n membership matrix with each column divided by its cluster size.

    C_norm[j, i] = 1 / |cluster i| iff point j sits in cluster i, so columns sum to one.
    """
    a = clustering.assignment
    return _membership(a, clustering.num_clusters, 1.0 / clustering.sizes[a])


def cluster_means(clustering: Clustering, H: np.ndarray) -> np.ndarray:
    """Apply the rescaled-membership transpose to H: row i is the mean of cluster i."""
    return _means(np.asarray(H, dtype=np.float64), clustering.assignment, clustering.num_clusters)
