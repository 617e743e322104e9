"""Acceptance checks for the distillation library.

Each test exercises one acceptance criterion end to end and prints a
single `criterion NN ...: PASS|FAIL` line (visible with `pytest -s`).
The numbered lines double as the release checklist. Criterion 10 needs
a user-supplied citation-network dataset and reports SKIP without one.
"""

import os
import time

import numpy as np
import pytest
import scipy.linalg

from graphdistill.cli import main as cli_main
from graphdistill.cluster import Clustering, kmeans, wcss
from graphdistill.dataio import load_dataset
from graphdistill.evaluate import (
    coreset_random,
    evaluate_on_original,
    renormalized_adjacency,
    train_eval_gcn,
)
from graphdistill.fid import (
    GaussianStats,
    cluster_size_variance_bound,
    covariance_gap_bound,
    fid,
    gaussian_stats,
    trace_sqrt_product,
)
from graphdistill.graph import homophily_ratio, normalize_rows, normalized_adjacency
from graphdistill.model import (
    backward,
    forward,
    forward_cache,
    init_classifier,
    softmax_cross_entropy,
    softmax_predict,
)
from graphdistill.pipeline import (
    PipelineConfig,
    SbmSpec,
    generate_sbm,
    run_pipeline,
)
from graphdistill.propagate import gls_propagate
from graphdistill.refine import refine_loss_and_grads

from conftest import random_graph
from oracles import gls_solve_exact


def _line(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d}: {status} - {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def _fd_grad(loss_fn, tensor, eps=1e-6):
    grad = np.zeros_like(tensor)
    it = np.nditer(tensor, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = tensor[idx]
        tensor[idx] = orig + eps
        hi = loss_fn()
        tensor[idx] = orig - eps
        lo = loss_fn()
        tensor[idx] = orig
        grad[idx] = (hi - lo) / (2.0 * eps)
        it.iternext()
    return grad


def _rel(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(a), np.linalg.norm(b), 1e-10)


def test_criterion_01_truncated_smoothing_matches_direct_solve():
    worst = 0.0
    start = time.perf_counter()
    for seed in range(20):
        rng = np.random.default_rng(3000 + seed)
        g = random_graph(rng, 50, 0.15, min_degree=1)
        X = rng.standard_normal((50, 8))
        a_norm = normalized_adjacency(g)
        approx = gls_propagate(a_norm, X, 0.5, 200)
        exact = gls_solve_exact(a_norm, X, alpha=0.5)
        rel = float(np.linalg.norm(approx - exact) / np.linalg.norm(exact))
        worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 1.0
    _line(1, ok, f"max rel err {worst:.2e} (<=1e-6), {elapsed:.2f}s (<1s), 20 graphs")


def test_criterion_02_homophily_equals_smoothness_identity():
    rng = np.random.default_rng(3100)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(4, 61))
        g = random_graph(rng, n, float(rng.uniform(0.1, 0.5)), min_degree=1)
        k = int(rng.integers(2, 6))
        labels = rng.integers(0, k, size=n)
        onehot = np.eye(k)[labels]
        e = g.undirected_edges()
        diff = np.sum((onehot[e[:, 0]] - onehot[e[:, 1]]) ** 2)
        identity = 1.0 - diff / (2.0 * g.num_edges)
        worst = max(worst, abs(homophily_ratio(g, labels) - identity))
    ok = worst <= 1e-10
    _line(2, ok, f"max |ratio - identity| {worst:.2e} (<=1e-10), 100 graphs")


def test_criterion_03_mean_shift_within_size_variance_bound():
    rng = np.random.default_rng(6)
    worst = -np.inf
    for _ in range(100):
        N = int(rng.integers(30, 121))
        d = int(rng.integers(4, 17))
        n = int(rng.integers(2, 11))
        H = normalize_rows(rng.standard_normal((N, d)))
        assignment = rng.integers(0, n, size=N)
        assignment[:n] = np.arange(n)
        sizes = np.bincount(assignment, minlength=n)
        sums = np.zeros((n, d))
        np.add.at(sums, assignment, H)
        c = Clustering(assignment, n, sizes, sums / sizes[:, None])
        shift = float(np.sum((H.mean(axis=0) - c.centroids.mean(axis=0)) ** 2))
        worst = max(worst, shift - cluster_size_variance_bound(c))

    # balanced partitions collapse the bound and the shift together
    rng2 = np.random.default_rng(7)
    H = normalize_rows(rng2.standard_normal((24, 5)))
    assignment = np.repeat(np.arange(6), 4)
    sums = np.zeros((6, 5))
    np.add.at(sums, assignment, H)
    c = Clustering(assignment, 6, np.full(6, 4), sums / 4.0)
    balanced_shift = float(np.sum((H.mean(axis=0) - c.centroids.mean(axis=0)) ** 2))

    ok = worst <= 1e-10 and balanced_shift <= 1e-10
    _line(
        3,
        ok,
        f"worst shift-bound margin {worst:.2e} (<=1e-10) on 100 pairs, "
        f"balanced-case shift {balanced_shift:.2e} (<=1e-10)",
    )


def test_criterion_04_covariance_gap_within_bound():
    rng = np.random.default_rng(10)
    violations = 0
    worst = -np.inf
    for _ in range(200):
        N = int(rng.integers(6, 81))
        d = int(rng.integers(2, 11))
        n = int(rng.integers(2, min(N - 1, 10) + 1))
        H = normalize_rows(rng.standard_normal((N, d)))
        clustering = kmeans(H, n, seed=int(rng.integers(1 << 31)), n_init=2)
        h_prime = clustering.centroids
        s_org = gaussian_stats(H, normalize=False)
        s_syn = gaussian_stats(h_prime, normalize=False)
        lhs = (
            float(np.trace(s_org.sigma))
            + float(np.trace(s_syn.sigma))
            - 2.0 * trace_sqrt_product(s_org.sigma, s_syn.sigma)
        )
        shift = float(np.sum((s_org.mu - s_syn.mu) ** 2))
        rhs = covariance_gap_bound(H, h_prime, clustering, s_org, shift)
        worst = max(worst, lhs - rhs)
        if lhs > rhs + 1e-10:
            violations += 1
    ok = violations == 0
    _line(4, ok, f"{violations} violations on 200 instances, worst lhs-rhs {worst:.2e}")


def test_criterion_05_fid_metric_properties():
    rng = np.random.default_rng(3200)

    def random_stats(d):
        m = rng.standard_normal((d, d))
        return GaussianStats(rng.standard_normal(d), m @ m.T / d)

    self_worst, sym_worst = 0.0, 0.0
    for _ in range(10):
        a, b = random_stats(4), random_stats(4)
        self_worst = max(self_worst, abs(fid(a, a)))
        sym_worst = max(sym_worst, abs(fid(a, b) - fid(b, a)))

    one_d_worst = 0.0
    for _ in range(20):
        mu_a, mu_b = rng.standard_normal(2)
        sd_a, sd_b = rng.uniform(0.1, 2.0, size=2)
        a = GaussianStats(np.array([mu_a]), np.array([[sd_a**2]]))
        b = GaussianStats(np.array([mu_b]), np.array([[sd_b**2]]))
        expected = (mu_a - mu_b) ** 2 + (sd_a - sd_b) ** 2
        one_d_worst = max(one_d_worst, abs(fid(a, b) - expected))

    # independent oracle: eigenvalues of the raw covariance product
    oracle_worst = 0.0
    for _ in range(10):
        a, b = random_stats(4), random_stats(4)
        ev = scipy.linalg.eigvals(a.sigma @ b.sigma)
        tsp = float(np.sum(np.sqrt(np.maximum(ev.real, 0.0))))
        expected = (
            float(np.sum((a.mu - b.mu) ** 2))
            + float(np.trace(a.sigma) + np.trace(b.sigma))
            - 2.0 * tsp
        )
        oracle_worst = max(oracle_worst, abs(fid(a, b) - expected))

    ok = (
        self_worst <= 1e-8
        and sym_worst <= 1e-8
        and one_d_worst <= 1e-10
        and oracle_worst <= 1e-8
    )
    _line(
        5,
        ok,
        f"self {self_worst:.2e} (<=1e-8), symmetry {sym_worst:.2e} (<=1e-8), "
        f"1-D {one_d_worst:.2e} (<=1e-10), 4-D oracle {oracle_worst:.2e} (<=1e-8)",
    )


def _kink_margin(params, z):
    h = z
    margin = np.inf
    for layer in range(params.depth - 1):
        s = h @ params.weights[layer] + params.biases[layer]
        margin = min(margin, float(np.min(np.abs(s))))
        h = np.maximum(s, 0.0)
    return margin


def _head_gradcheck_worst() -> float:
    # instances with a pre-activation near zero are redrawn: the central
    # difference straddles the rectifier kink there
    worst = 0.0
    checked, seed = 0, 0
    while checked < 20:
        seed += 1
        rng = np.random.default_rng(100 + seed)
        n, d, k = 7, 5, 3
        depth = 1 + seed % 3
        wd = 0.0 if seed % 2 == 0 else 5e-3
        params = init_classifier(rng, d, k, depth=depth, hidden_dim=6)
        z = rng.standard_normal((n, d))
        labels = rng.integers(0, k, size=n)
        mask = rng.random(n) < 0.7
        mask[0] = True
        if _kink_margin(params, z) < 1e-4:
            continue
        checked += 1

        def loss_fn():
            logits = forward(params, z)
            penalty = 0.5 * wd * sum(float(np.sum(w**2)) for w in params.weights)
            return softmax_cross_entropy(logits[mask], labels[mask])[1] + penalty

        logits, cache = forward_cache(params, z)
        p = softmax_predict(logits)
        onehot = np.zeros_like(p)
        onehot[np.arange(n), labels] = 1.0
        count = int(np.sum(mask))
        dlogits = np.zeros_like(p)
        dlogits[mask] = (p[mask] - onehot[mask]) / count
        _, d_w, d_b = backward(params, cache, dlogits)
        for i in range(depth):
            d_w[i] = d_w[i] + wd * params.weights[i]
            worst = max(worst, _rel(_fd_grad(loss_fn, params.weights[i]), d_w[i]))
            worst = max(worst, _rel(_fd_grad(loss_fn, params.biases[i]), d_b[i]))
    return worst


def _refine_gradcheck_worst() -> tuple[float, float]:
    beta, alpha, tp, gamma, lam = 0.05, 0.6, 2, 1.7, 0.3
    worst_delta, worst_w = 0.0, 0.0
    for seed in range(20):
        rng = np.random.default_rng(700 + seed)
        N, dz, K, n = 6, 4, 3, 4
        Z = rng.standard_normal((N, dz))
        labels = rng.integers(0, K, size=N)
        mask = rng.random(N) < 0.7
        mask[0] = True
        x_prime = rng.standard_normal((n, dz))
        y_prime = np.zeros((n, K))
        y_prime[np.arange(n), rng.integers(0, K, size=n)] = 1.0
        adjs = []
        for _ in range(K):
            m = np.abs(rng.standard_normal((n, n)))
            adjs.append(0.5 * (m + m.T))
        params = init_classifier(rng, dz, K, depth=2, hidden_dim=5)
        delta = 0.1 * rng.standard_normal((n, dz))

        def loss_fn():
            out = refine_loss_and_grads(
                Z, labels, mask, x_prime, y_prime, adjs, delta, params,
                beta, alpha, tp, gamma, lam,
            )
            return out[0]

        _, _, d_delta, d_w, d_b = refine_loss_and_grads(
            Z, labels, mask, x_prime, y_prime, adjs, delta, params,
            beta, alpha, tp, gamma, lam,
        )
        worst_delta = max(worst_delta, _rel(_fd_grad(loss_fn, delta), d_delta))
        for i in range(params.depth):
            worst_w = max(worst_w, _rel(_fd_grad(loss_fn, params.weights[i]), d_w[i]))
            worst_w = max(worst_w, _rel(_fd_grad(loss_fn, params.biases[i]), d_b[i]))
    return worst_delta, worst_w


def test_criterion_06_analytic_gradients_match_finite_differences():
    head_worst = _head_gradcheck_worst()
    delta_worst, w_prime_worst = _refine_gradcheck_worst()
    ok = head_worst <= 1e-4 and delta_worst <= 1e-4 and w_prime_worst <= 1e-4
    _line(
        6,
        ok,
        f"worst rel err head {head_worst:.2e}, augmentation {delta_worst:.2e}, "
        f"refine head {w_prime_worst:.2e} (<=1e-4, 20 instances each)",
    )


def test_criterion_07_kmeans_descent_and_small_instance_optimum():
    descent_ok = True
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        pts = rng.standard_normal((60, 4))
        trace = kmeans(pts, 5, seed=seed, n_init=1).wcss_trace
        for a, b in zip(trace, trace[1:]):
            if b > a * (1.0 + 1e-12) + 1e-12:
                descent_ok = False

    opt_worst = 0.0
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
        found = wcss(pts, kmeans(pts, 2, seed=seed, n_init=10))
        opt_worst = max(opt_worst, found / best - 1.0)
    ok = descent_ok and opt_worst <= 1e-9
    _line(
        7,
        ok,
        f"objective non-increasing on 50 runs: {descent_ok}, "
        f"worst excess over exhaustive optimum {opt_worst:.2e} (<=1e-9)",
    )


@pytest.mark.slow
def test_criterion_08_refinement_raises_interclass_attribute_distance():
    ups = 0
    homs = []
    for seed in range(5):
        spec = SbmSpec(
            num_nodes=400,
            num_classes=4,
            intra_prob=0.09,
            inter_prob=0.01,
            feature_dim=16,
            separation=1.0,
            noise_scale=1.0,
            seed=100 + seed,
        )
        ds = generate_sbm(spec)
        homs.append(homophily_ratio(ds.graph, ds.labels))
        res = run_pipeline(ds, PipelineConfig(num_synthetic=16, seed=seed))
        if res.metrics["icad_after"] > res.metrics["icad_before"]:
            ups += 1
    ok = ups >= 4
    _line(
        8,
        ok,
        f"distance increased on {ups}/5 seeds (need >=4), "
        f"homophily {min(homs):.3f}..{max(homs):.3f} (target ~0.75)",
    )


@pytest.mark.slow
def test_criterion_09_distilled_training_matches_full_and_beats_random():
    cond_accs, full_accs, rand_accs, times = [], [], [], []
    for seed in range(5):
        spec = SbmSpec(noise_scale=2.0, seed=200 + seed)
        ds = generate_sbm(spec)
        cfg = PipelineConfig(num_synthetic=40, seed=seed)
        t0 = time.perf_counter()
        res = run_pipeline(ds, cfg)
        times.append(time.perf_counter() - t0)
        cond_accs.append(res.metrics["accuracy_mean"])

        Z = gls_propagate(normalized_adjacency(ds.graph), ds.features, cfg.alpha, cfg.T)
        a_hat = renormalized_adjacency(ds.graph)
        full_pool = int(ds.train_mask.sum())
        coreset = coreset_random(ds, Z, full_pool, seed=seed)
        full = train_eval_gcn(
            coreset, cfg, seed, renormalized_adjacency(coreset.a_prime)
        )
        full_accs.append(evaluate_on_original(full, ds, a_hat)[0])
        coreset = coreset_random(ds, Z, 40, seed=seed)
        rand = train_eval_gcn(
            coreset, cfg, seed, renormalized_adjacency(coreset.a_prime)
        )
        rand_accs.append(evaluate_on_original(rand, ds, a_hat)[0])

    cond, full, rand = (float(np.mean(a)) for a in (cond_accs, full_accs, rand_accs))
    ok = cond >= 0.9 * full and cond >= rand + 0.02 and max(times) < 60.0
    _line(
        9,
        ok,
        f"distilled {cond:.3f} vs 0.9*full {0.9 * full:.3f} and random+0.02 "
        f"{rand + 0.02:.3f}; slowest run {max(times):.1f}s (<60s), 5 seeds",
    )


def test_criterion_10_citation_dataset_reference_accuracy():
    cora_dir = os.environ.get("GRAPHDISTILL_CORA_DIR", "datasets/cora")
    if not os.path.isdir(cora_dir):
        print("criterion 10: SKIP - citation dataset directory not provided")
        pytest.skip("citation dataset not available")
    ds = load_dataset(cora_dir)
    res = run_pipeline(ds, PipelineConfig(ratio=0.026, seed=0))
    acc = res.metrics["accuracy_mean"]
    ok = acc >= 0.78
    _line(10, ok, f"test accuracy {acc:.3f} (>=0.78) at ratio 2.6%")


def test_criterion_11_distill_output_bytes_reproducible(tmp_path):
    data_dir = tmp_path / "data"
    rc = cli_main([
        "gen-sbm", "--out-dir", str(data_dir), "--nodes", "80", "--classes", "3",
        "--p", "0.2", "--q", "0.02", "--dim", "8", "--seed", "1",
    ])
    assert rc == 0
    flags = [
        "--T", "2", "--E1", "25", "--hidden", "16", "--depth", "2",
        "--E2", "40", "--kmeans_n_init", "2", "--T_prime", "1", "--E3", "15",
        "--num_synthetic", "6", "--eval_epochs", "40", "--eval_hidden", "16",
        "--eval_repeats", "2", "--seed", "3",
    ]
    for name in ("out1", "out2"):
        rc = cli_main(
            ["distill", "--dataset-dir", str(data_dir), "--out-dir",
             str(tmp_path / name)] + flags
        )
        assert rc == 0
    files = sorted(p.name for p in (tmp_path / "out1").iterdir())
    same = all(
        (tmp_path / "out1" / f).read_bytes() == (tmp_path / "out2" / f).read_bytes()
        for f in files
    )
    ok = same and files == ["a_prime.csv", "meta.toml", "x_prime.csv", "y_prime.txt"]
    _line(11, ok, f"matched files byte for byte: {', '.join(files)}")
