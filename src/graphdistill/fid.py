"""Frechet distance between Gaussian fits of two representation matrices.

The score compares first and second moments of original versus condensed
node representations: ||mu_a - mu_b||^2 + tr(S_a + S_b - 2 (S_a S_b)^{1/2}).
The matrix square root is evaluated through symmetric eigendecomposition of
S_a^{1/2} S_b S_a^{1/2}, which shares its spectrum with S_a S_b.

Two closed-form upper bounds tie the score to clustering structure: the
mean-shift term is controlled by cluster-size imbalance alone, and the
covariance trace term by the within-cluster scatter plus size-ratio
multiples of the original total variance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cluster import Clustering
from .graph import normalize_rows

PSD_TOL = 1e-8


@dataclass(frozen=True)
class GaussianStats:
    """First moment and biased covariance of a representation matrix."""

    mu: np.ndarray
    sigma: np.ndarray


def gaussian_stats(H: np.ndarray, normalize: bool = True) -> GaussianStats:
    """Fit (mu, sigma) with sigma = (1/N) Hc^T Hc on centered rows Hc.

    Args:
        H: (N, d) representations, N >= 2.
        normalize: L2-normalize rows first; zero rows stay zero.
    """
    H = np.asarray(H, dtype=np.float64)
    if H.ndim != 2 or H.shape[0] < 2:
        raise ValueError("need at least two representation rows")
    if normalize:
        H = normalize_rows(H)
    mu = H.mean(axis=0)
    centered = H - mu
    sigma = centered.T @ centered / H.shape[0]
    sigma = 0.5 * (sigma + sigma.T)
    return GaussianStats(mu, sigma)


def _clamped_eigh(sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    w, v = np.linalg.eigh(sigma)
    if w.min() < -PSD_TOL:
        raise ValueError("covariance not PSD within tolerance")
    return np.maximum(w, 0.0), v


def trace_sqrt_product(sigma_a: np.ndarray, sigma_b: np.ndarray) -> float:
    """tr((sigma_a sigma_b)^{1/2}) via the symmetric similarity transform.

    Raises:
        ValueError: if either input, or the transformed product, has an
            eigenvalue below -1e-8.
    """
    wa, va = _clamped_eigh(np.asarray(sigma_a, dtype=np.float64))
    _clamped_eigh(np.asarray(sigma_b, dtype=np.float64))
    sqrt_a = (va * np.sqrt(wa)) @ va.T
    inner = sqrt_a @ sigma_b @ sqrt_a
    inner = 0.5 * (inner + inner.T)
    w, _ = _clamped_eigh(inner)
    return float(np.sum(np.sqrt(w)))


def fid_terms(stats_a: GaussianStats, stats_b: GaussianStats) -> tuple[float, float]:
    """The Frechet distance's mean term ||mu_a - mu_b||^2 and trace term."""
    if stats_a.mu.shape != stats_b.mu.shape:
        raise ValueError("dimension mismatch")
    mean_term = float(np.sum((stats_a.mu - stats_b.mu) ** 2))
    trace_term = (
        float(np.trace(stats_a.sigma))
        + float(np.trace(stats_b.sigma))
        - 2.0 * trace_sqrt_product(stats_a.sigma, stats_b.sigma)
    )
    return mean_term, trace_term


def fid(stats_a: GaussianStats, stats_b: GaussianStats) -> float:
    """Frechet distance between two moment pairs; tiny negatives clamp to 0."""
    mean_term, trace_term = fid_terms(stats_a, stats_b)
    value = mean_term + trace_term
    if value < 0.0:
        if value < -PSD_TOL:
            raise ValueError("FID negative beyond tolerance")
        value = 0.0
    return value


def cluster_size_variance_bound(clustering: Clustering) -> float:
    """Upper bound on ||mu_org - mu_syn||^2 from cluster sizes alone.

    Equals (1/N^2) * sum_i (N/n - |C_i|)^2 for row-normalized
    representations condensed to per-cluster means. Zero for balanced
    partitions.
    """
    sizes = clustering.sizes.astype(np.float64)
    N = float(sizes.sum())
    target = N / clustering.num_clusters
    return float(np.sum((target - sizes) ** 2) / (N * N))


def covariance_gap_bound(
    H: np.ndarray,
    H_prime: np.ndarray,
    clustering: Clustering,
    stats_org: GaussianStats,
    mean_shift_sq: float,
) -> float:
    """Upper bound on tr(S_org + S_syn - 2 (S_org S_syn)^{1/2}).

    Requires H_prime rows to be the per-cluster means of H. The bound is
    the mean within-cluster scatter plus size-ratio multiples of the
    mean shift and of tr(S_org).
    """
    H = np.asarray(H, dtype=np.float64)
    H_prime = np.asarray(H_prime, dtype=np.float64)
    sizes = clustering.sizes.astype(np.float64)
    N = float(sizes.sum())
    n = float(clustering.num_clusters)
    c_max, c_min = float(sizes.max()), float(sizes.min())
    scatter = float(np.sum((H - H_prime[clustering.assignment]) ** 2)) / N
    shift_term = (n * c_max / N) * mean_shift_sq
    trace_org = float(np.trace(stats_org.sigma))
    ratio_term = (c_max / c_min + N / (n * c_min)) * trace_org
    return scatter + shift_term + ratio_term
