import itertools
import tracemalloc

import numpy as np
import pytest

from graphdistill.cluster import (
    _assign,
    _assign_rows,
    _kmeans_pp,
    _means,
    _repair_empty,
    _row_sums,
    _wcss_raw,
    cluster_means,
    kmeans,
    minibatch_kmeans,
    sketching_matrix,
    wcss,
)


def _blobs(rng, centers, per, noise=0.1):
    centers = np.asarray(centers, dtype=np.float64)
    pts = np.vstack(
        [c + noise * rng.standard_normal((per, centers.shape[1])) for c in centers]
    )
    truth = np.repeat(np.arange(centers.shape[0]), per)
    return pts, truth


def test_separated_blobs_recovered_exactly():
    rng = np.random.default_rng(0)
    pts, truth = _blobs(rng, [[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]], per=15)
    res = kmeans(pts, 3, seed=1)
    # cluster ids are arbitrary; compare the induced partitions
    relabel = {}
    for i, t in zip(res.assignment, truth):
        relabel.setdefault(i, t)
        assert relabel[i] == t
    assert np.array_equal(np.sort(res.sizes), [15, 15, 15])


def test_n_equals_points_gives_zero_wcss():
    rng = np.random.default_rng(1)
    pts = rng.standard_normal((12, 3))
    res = kmeans(pts, 12, seed=0)
    assert wcss(pts, res) == pytest.approx(0.0, abs=1e-20)
    assert np.array_equal(np.sort(res.sizes), np.ones(12))


def test_single_cluster_is_global_mean():
    rng = np.random.default_rng(2)
    pts = rng.standard_normal((40, 5))
    res = kmeans(pts, 1, seed=3)
    assert np.allclose(res.centroids[0], pts.mean(axis=0), atol=1e-12)
    total = float(np.sum((pts - pts.mean(axis=0)) ** 2))
    assert wcss(pts, res) == pytest.approx(total, rel=1e-12)


def test_objective_trace_never_increases():
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        pts = rng.standard_normal((60, 4))
        res = kmeans(pts, 5, seed=seed, n_init=1)
        trace = res.wcss_trace
        for a, b in zip(trace, trace[1:]):
            assert b <= a * (1.0 + 1e-12) + 1e-12


def test_matches_exhaustive_bipartition_optimum():
    # every 2-part split of 8 points is enumerable; the solver must find the best
    for seed in range(10):
        rng = np.random.default_rng(2000 + seed)
        pts = rng.standard_normal((8, 2))
        best = np.inf
        for bits in range(1, 255):
            side = np.array([(bits >> j) & 1 for j in range(8)], dtype=bool)
            cost = 0.0
            for grp in (pts[side], pts[~side]):
                cost += float(np.sum((grp - grp.mean(axis=0)) ** 2))
            best = min(best, cost)
        res = kmeans(pts, 2, seed=seed, n_init=10)
        assert wcss(pts, res) <= best * (1.0 + 1e-9)


def test_duplicate_points_keep_clusters_nonempty():
    pts = np.zeros((10, 3))
    res = kmeans(pts, 4, seed=0)
    assert np.all(res.sizes >= 1)
    assert res.sizes.sum() == 10
    assert wcss(pts, res) == 0.0


def test_cluster_count_bounds():
    pts = np.zeros((5, 2))
    with pytest.raises(ValueError):
        kmeans(pts, 0)
    with pytest.raises(ValueError):
        kmeans(pts, 6)
    with pytest.raises(ValueError):
        minibatch_kmeans(np.zeros((500, 2)), 0, batch_size=10)


def test_same_seed_same_partition():
    rng = np.random.default_rng(4)
    pts = rng.standard_normal((80, 6))
    a = kmeans(pts, 7, seed=11)
    b = kmeans(pts, 7, seed=11)
    assert np.array_equal(a.assignment, b.assignment)
    assert np.array_equal(a.centroids, b.centroids)
    assert a.wcss_trace == b.wcss_trace


def test_minibatch_with_large_batch_matches_full():
    rng = np.random.default_rng(5)
    pts = rng.standard_normal((50, 3))
    full = kmeans(pts, 4, seed=9, tol=1e-4)
    mini = minibatch_kmeans(pts, 4, seed=9, batch_size=50, tol=1e-4)
    assert np.array_equal(full.assignment, mini.assignment)
    assert np.array_equal(full.centroids, mini.centroids)



def test_minibatch_with_large_batch_keeps_n_init():
    rng = np.random.default_rng(14)
    pts = rng.standard_normal((120, 3))
    for n_init in (1, 2):
        full = kmeans(pts, 6, seed=4, n_init=n_init)
        mini = minibatch_kmeans(pts, 6, seed=4, batch_size=120, n_init=n_init)
        # the default ten seedings find another partition of these points
        assert full.wcss_trace != kmeans(pts, 6, seed=4).wcss_trace
        assert np.array_equal(full.assignment, mini.assignment)
        assert np.array_equal(full.centroids, mini.centroids)
        assert full.wcss_trace == mini.wcss_trace


def test_minibatch_recovers_separated_blobs():
    rng = np.random.default_rng(6)
    pts, truth = _blobs(rng, [[0.0, 0.0], [12.0, 0.0], [0.0, 12.0]], per=70)
    res = minibatch_kmeans(pts, 3, seed=2, batch_size=40)
    relabel = {}
    for i, t in zip(res.assignment, truth):
        relabel.setdefault(i, t)
        assert relabel[i] == t


def test_minibatch_objective_near_full_batch():
    rng = np.random.default_rng(7)
    pts, _ = _blobs(rng, [[0, 0, 0], [8, 0, 0], [0, 8, 0], [0, 0, 8]], per=50)
    full = kmeans(pts, 4, seed=3)
    mini = minibatch_kmeans(pts, 4, seed=3, batch_size=60)
    assert wcss(pts, mini) <= 1.1 * wcss(pts, full)


def test_sketching_matrix_is_exact():
    rng = np.random.default_rng(8)
    pts = rng.standard_normal((30, 4))
    res = kmeans(pts, 5, seed=0)
    C_norm = sketching_matrix(res)
    # one entry per point, 1 / size in its cluster's column
    dense = C_norm.toarray()
    assert np.array_equal(np.count_nonzero(dense, axis=1), np.ones(30))
    assert np.array_equal(np.count_nonzero(dense, axis=0), res.sizes)
    assert np.array_equal(
        dense[np.arange(30), res.assignment], 1.0 / res.sizes[res.assignment]
    )
    # rescaled columns sum to one; bit-exactness is a property of the
    # grouped-mean operator, not the materialized matrix
    col_sums = np.asarray(C_norm.sum(axis=0)).ravel()
    assert np.max(np.abs(col_sums - 1.0)) <= 1e-12


def test_cluster_means_match_groupwise_mean():
    rng = np.random.default_rng(9)
    pts = rng.standard_normal((40, 3))
    H = rng.standard_normal((40, 6))
    res = kmeans(pts, 4, seed=1)
    got = cluster_means(res, H)
    for c in range(4):
        ref = H[res.assignment == c].mean(axis=0)
        assert np.max(np.abs(got[c] - ref)) <= 1e-12
    # constant input maps to the same constant with no rounding at all
    ones = cluster_means(res, np.ones((40, 2)))
    assert np.array_equal(ones, np.ones((4, 2)))


def test_cluster_means_agree_with_sparse_product():
    rng = np.random.default_rng(10)
    pts = rng.standard_normal((25, 2))
    H = rng.standard_normal((25, 4))
    res = kmeans(pts, 3, seed=2)
    C_norm = sketching_matrix(res)
    assert np.max(np.abs(cluster_means(res, H) - C_norm.T @ H)) <= 1e-12


@pytest.mark.parametrize("N, dim, n", [(7, 3, 7), (60, 5, 4), (500, 33, 41), (1200, 2, 1)])
def test_means_match_add_at_reference_bitwise(N, dim, n):
    rng = np.random.default_rng(N + n)
    points = rng.standard_normal((N, dim)) * 10.0 ** rng.integers(-300, 300, size=(N, 1))
    points[rng.random((N, dim)) < 0.2] = -0.0
    assignment = rng.integers(0, n, size=N)
    assignment[:n] = np.arange(n)
    # cluster n - 1 holds one point, a -0.0 row when n > 1
    assignment[n:][assignment[n:] == n - 1] = 0
    if n > 1:
        points[n - 1] = -0.0
    sums = np.zeros((n, dim))
    np.add.at(sums, assignment, points)
    want = sums / np.bincount(assignment, minlength=n)[:, None]
    got = _means(points, assignment, n)
    assert got.tobytes() == want.tobytes()


# Reference k-means loops: the mini-batch step updates one hit cluster at a
# time, and Lloyd computes each assignment's means twice. The library must
# reproduce them bit for bit.


def _minibatch_reference(points, n, seed, max_iter, batch_size, tol):
    N = points.shape[0]
    rng = np.random.default_rng(seed)
    centers = _kmeans_pp(points, n, rng)
    counts = np.zeros(n)
    calm = 0
    for _ in range(max_iter):
        batch = rng.choice(N, size=batch_size, replace=False)
        pts = points[batch]
        labels = _assign(pts, centers)
        shift = 0.0
        for c in np.unique(labels):
            members = pts[labels == c]
            counts[c] += members.shape[0]
            step = (members.sum(axis=0) - members.shape[0] * centers[c]) / counts[c]
            centers[c] = centers[c] + step
            shift = max(shift, float(np.linalg.norm(step)))
        calm = calm + 1 if shift < tol else 0
        if calm >= 3:
            break
    assignment = _repair_empty(points, centers, _assign(points, centers))
    centers = _means(points, assignment, n)
    return assignment, centers, [_wcss_raw(points, centers, assignment)]


def _kmeans_reference(points, n, seed, max_iter, tol, n_init):
    def lloyd(centers):
        assignment = _repair_empty(points, centers, _assign(points, centers))
        trace = [_wcss_raw(points, _means(points, assignment, n), assignment)]
        for _ in range(max_iter):
            new_centers = _means(points, assignment, n)
            shift = float(np.max(np.linalg.norm(new_centers - centers, axis=1)))
            centers = new_centers
            assignment = _repair_empty(points, centers, _assign(points, centers))
            trace.append(_wcss_raw(points, _means(points, assignment, n), assignment))
            if shift < tol:
                break
        return assignment, _means(points, assignment, n), trace

    rng = np.random.default_rng(seed)
    best = None
    for _ in range(n_init):
        assignment, centers, trace = lloyd(_kmeans_pp(points, n, rng))
        if best is None or trace[-1] < best[2][-1]:
            best = (assignment, centers, trace)
    return best


def _assert_bitwise(got, want):
    assignment, centroids, trace = want
    assert np.array_equal(got.assignment, assignment)
    assert np.array_equal(got.centroids, centroids)
    assert got.wcss_trace == trace


@pytest.mark.parametrize("N,dim,n,batch_size", [(400, 3, 6, 60), (600, 4, 250, 100)])
def test_minibatch_matches_per_cluster_reference_bitwise(N, dim, n, batch_size):
    # with n > batch_size most clusters receive no point in a given batch
    rng = np.random.default_rng(N + n)
    pts = rng.standard_normal((N, dim)) + rng.integers(0, 5, size=(N, 1))
    for seed in range(3):
        got = minibatch_kmeans(pts, n, seed=seed, max_iter=40, batch_size=batch_size)
        want = _minibatch_reference(pts, n, seed, 40, batch_size, 1e-4)
        _assert_bitwise(got, want)


def test_minibatch_matches_reference_through_early_stop():
    # a converging run exercises the calm counter on both sides
    rng = np.random.default_rng(12)
    pts, _ = _blobs(rng, [[0.0, 0.0], [9.0, 0.0], [0.0, 9.0]], per=80, noise=0.01)
    for seed in range(3):
        got = minibatch_kmeans(pts, 3, seed=seed, max_iter=300, batch_size=50, tol=1e-3)
        want = _minibatch_reference(pts, 3, seed, 300, 50, 1e-3)
        _assert_bitwise(got, want)


def test_kmeans_matches_two_means_reference_bitwise():
    rng = np.random.default_rng(13)
    pts = rng.standard_normal((300, 4)) + rng.integers(0, 4, size=(300, 1))
    # max_iter = 2 stops before convergence, where the last two means differ
    for seed, max_iter in itertools.product(range(3), (2, 50)):
        got = kmeans(pts, 9, seed=seed, max_iter=max_iter, tol=1e-4, n_init=3)
        want = _kmeans_reference(pts, 9, seed, max_iter, 1e-4, 3)
        _assert_bitwise(got, want)


def _assign_unblocked(points, centers):
    """Nearest center per point from one N x n distance matrix."""
    sq_p = np.einsum("ij,ij->i", points, points)[:, None]
    sq_c = np.einsum("ij,ij->i", centers, centers)[None, :]
    d = sq_p + sq_c - 2.0 * points @ centers.T
    np.maximum(d, 0.0, out=d)
    return np.argmin(d, axis=1)


# 64 centers give blocks of 1024 rows; 546 (sbm-large's n) give 120, and
# 40000 give the two-row floor
_ROWS = _assign_rows(64)


@pytest.mark.parametrize(
    "N, n",
    [
        pytest.param(N, 64, id=str(N))
        for N in (1, _ROWS - 1, _ROWS, _ROWS + 1, 2 * _ROWS + 1, 21000)
    ]
    + [
        pytest.param(33 * _assign_rows(546) + 7, 546, id="n546"),
        pytest.param(7, 40000, id="n40000"),
    ],
)
def test_row_blocked_assign_matches_unblocked_reference(N, n):
    # relies on a row's GEMM result not depending on the call's row count
    rng = np.random.default_rng(N)
    centers = rng.standard_normal((n, 8))
    points = centers[rng.integers(n, size=N)] + 0.5 * rng.standard_normal((N, 8))
    # exact duplicates of a center tie at distance zero after clipping
    points[::97] = centers[0]
    centers[1] = centers[0]
    got = _assign(points, centers)
    want = _assign_unblocked(points, centers)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def test_assign_near_zero_distances_pick_first_clipped_minimum():
    # |p| ~ 1e4 within 1e-9 of three nearly equal centers: |p|^2 + |c|^2 -
    # 2 p.c rounds below zero, often for two of them in one row, where the
    # raw argmin would pick the more negative distance
    rng = np.random.default_rng(15)
    base = rng.standard_normal(8)
    base *= 1e4 / np.linalg.norm(base)
    near = base + 1e-9 * rng.standard_normal((3, 8))
    centers = np.vstack([1e4 * rng.standard_normal((3, 8)), near])
    points = base + 1e-9 * rng.standard_normal((200, 8))
    d = (
        np.einsum("ij,ij->i", points, points)[:, None]
        + np.einsum("ij,ij->i", centers, centers)[None, :]
        - 2.0 * points @ centers.T
    )
    assert np.any(np.argmin(d, axis=1) != np.argmin(np.maximum(d, 0.0), axis=1))
    assert np.array_equal(_assign(points, centers), _assign_unblocked(points, centers))


# The k-means++ seeding as a row-wise loop; the library forms the same
# distances column by column and must pick the same centers.


def _kmeans_pp_rowwise(points, n, rng):
    N = points.shape[0]
    chosen = np.empty(n, dtype=np.int64)
    chosen[0] = rng.integers(N)
    dist = np.sum((points - points[chosen[0]]) ** 2, axis=1)
    for k in range(1, n):
        total = dist.sum()
        if total <= 0.0:
            remaining = np.setdiff1d(np.arange(N), chosen[:k])
            chosen[k] = rng.choice(remaining)
        else:
            chosen[k] = rng.choice(N, p=dist / total)
        dist = np.minimum(dist, np.sum((points - points[chosen[k]]) ** 2, axis=1))
    return points[chosen].copy()


@pytest.mark.parametrize("dim", [1, 2, 4, 7, 8, 13, 130])
def test_kmeans_pp_matches_rowwise_reference_bitwise(dim):
    # 8 and more columns are summed pairwise by np.sum, 130 by halving first
    rng = np.random.default_rng(dim)
    pts = rng.standard_normal((500, dim)) * rng.uniform(0.1, 100.0, size=dim)
    # the picks rarely move with a distance's last bit, so check the sums too
    sq = (pts - pts[0]) ** 2
    assert np.array_equal(_row_sums(sq.T.copy(), np.empty(500)), np.sum(sq, axis=1))
    for seed in range(4):
        got = _kmeans_pp(pts, 40, np.random.default_rng(seed))
        want = _kmeans_pp_rowwise(pts, 40, np.random.default_rng(seed))
        assert np.array_equal(got, want)


def test_kmeans_pp_duplicates_match_rowwise_reference_bitwise():
    # all distances are zero, so every pick after the first is uniform
    pts = np.tile([[1.5, -2.0, 0.25]], (30, 1))
    for seed in range(3):
        gen, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        assert np.array_equal(_kmeans_pp(pts, 5, gen), _kmeans_pp_rowwise(pts, 5, ref))
        assert gen.random() == ref.random()


def test_assign_holds_less_than_one_distance_matrix():
    N, n = 20000, 500
    rng = np.random.default_rng(5)
    points = rng.standard_normal((N, 16))
    centers = rng.standard_normal((n, 16))
    tracemalloc.start()
    try:
        _assign(points, centers)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < N * n * 8
