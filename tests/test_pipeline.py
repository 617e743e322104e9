import gc
import re
import signal
import tracemalloc
import weakref
from dataclasses import fields

import numpy as np
import pytest

from graphdistill import evaluate, pipeline
from graphdistill.dataio import save_condensed
from graphdistill.graph import GraphError, homophily_ratio, normalize_rows
from graphdistill.pipeline import (
    PipelineConfig,
    PipelineError,
    SbmSpec,
    generate_sbm,
    report_block,
    resolve_synthetic_size,
    run_pipeline,
)

REPORT_KEYS = (
    "fid",
    "theorem1_bound",
    "theorem2_lhs",
    "theorem2_rhs",
    "icad_before",
    "icad_after",
    "accuracy_mean",
    "accuracy_std",
)


def _fast_config(**overrides):
    base = dict(
        T=2,
        alpha=0.8,
        E1=30,
        lr=0.01,
        weight_decay=5e-4,
        dropout=0.5,
        hidden=16,
        depth=2,
        E2=50,
        kmeans_n_init=2,
        rho=0.5,
        T_prime=1,
        E3=25,
        num_synthetic=8,
        eval_epochs=60,
        eval_hidden=16,
        eval_repeats=2,
        seed=0,
    )
    base.update(overrides)
    return PipelineConfig(**base)


def _small_sbm(seed=0):
    return generate_sbm(
        SbmSpec(
            num_nodes=80,
            num_classes=3,
            intra_prob=0.25,
            inter_prob=0.02,
            feature_dim=8,
            separation=2.0,
            noise_scale=0.5,
            seed=seed,
        )
    )


def test_sbm_is_deterministic():
    a = _small_sbm(3)
    b = _small_sbm(3)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.graph.undirected_edges(), b.graph.undirected_edges())
    assert np.array_equal(a.train_mask, b.train_mask)
    assert a.name == b.name


def _sbm_stream_replay(spec):
    """Edges, features and split from the generator's stream contract.

    Each class-pair block draws a binomial hit count and then that many
    distinct positions with choice; the positions are decoded here through
    a dense hit mask of the block, not by divmod.
    """
    rng = np.random.default_rng(spec.seed)
    N, K = spec.num_nodes, spec.num_classes
    sizes = np.full(K, N // K)
    sizes[: N % K] += 1
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    edges = []
    for ci in range(K):
        for cj in range(ci, K):
            total = sizes[ci] * sizes[cj]
            prob = spec.intra_prob if ci == cj else spec.inter_prob
            count = rng.binomial(total, prob)
            hit = np.zeros(total, dtype=bool)
            hit[rng.choice(total, size=count, replace=False)] = True
            hit = hit.reshape(sizes[ci], sizes[cj])
            ii, jj = np.nonzero(np.triu(hit, k=1) if ci == cj else hit)
            edges.append(np.column_stack([offsets[ci] + ii, offsets[cj] + jj]))
    means = spec.separation * normalize_rows(rng.standard_normal((K, spec.feature_dim)))
    noise = spec.noise_scale * rng.standard_normal((N, spec.feature_dim))
    features = means[np.repeat(np.arange(K), sizes)] + noise
    return np.concatenate(edges), features, rng.permutation(N)


@pytest.mark.parametrize(
    "spec",
    [
        # N % K != 0: blocks of 401 and 400 rows
        pytest.param(
            SbmSpec(
                num_nodes=1202, num_classes=3, intra_prob=0.02, inter_prob=0.004,
                feature_dim=5, separation=2.0, seed=17,
            ),
            id="uneven-classes",
        ),
        # every pair is a hit, so choice takes its shuffle path and the
        # diagonal blocks pin the upper-triangle boundary
        pytest.param(
            SbmSpec(num_nodes=600, num_classes=2, intra_prob=1.0, inter_prob=0.01, seed=3),
            id="intra-1",
        ),
        pytest.param(
            SbmSpec(num_nodes=300, num_classes=3, intra_prob=0.0, inter_prob=0.0, seed=4),
            id="no-edges",
        ),
        pytest.param(
            SbmSpec(num_nodes=700, num_classes=1, intra_prob=0.01, inter_prob=0.0, seed=5),
            id="one-class",
        ),
        # classes of 34, 33 and 33 rows
        pytest.param(
            SbmSpec(num_nodes=100, num_classes=3, intra_prob=0.2, inter_prob=0.05, seed=6),
            id="small-classes",
        ),
    ],
)
def test_sbm_draw_matches_stream_contract(spec):
    edges, features, perm = _sbm_stream_replay(spec)
    ds = generate_sbm(spec)
    assert np.array_equal(ds.graph.undirected_edges(), edges[np.lexsort(edges.T[::-1])])
    assert features.tobytes() == ds.features.tobytes()
    n_train = int(round(0.6 * spec.num_nodes))
    assert np.array_equal(np.flatnonzero(ds.train_mask), np.sort(perm[:n_train]))


def test_sbm_pairs_are_independent_bernoulli_draws():
    # the replay above pins the stream; this checks its distribution: every
    # upper pair is an edge with its block's probability, and a block's
    # count has the binomial variance of independent pairs
    seeds, n, p, q = 400, 90, 0.3, 0.1
    inclusion = np.zeros((n, n))
    block_counts = np.zeros((seeds, 3))
    for seed in range(seeds):
        ds = generate_sbm(
            SbmSpec(num_nodes=n, num_classes=2, intra_prob=p, inter_prob=q,
                    feature_dim=1, seed=seed)
        )
        ii, jj = ds.graph.undirected_edges().T
        inclusion[ii, jj] += 1
        # blocks (0, 0), (0, 1) and (1, 1); class 0 holds nodes 0 to 44
        block_counts[seed] = np.bincount((ii >= 45).astype(int) + (jj >= 45), minlength=3)
    assert np.all(np.tril(inclusion) == 0)
    iu, ju = np.triu_indices(n, k=1)
    prob = np.where((iu >= 45) == (ju >= 45), p, q)
    sigma = np.sqrt(prob * (1 - prob) / seeds)
    assert np.all(np.abs(inclusion[iu, ju] / seeds - prob) <= 5 * sigma)
    pairs = np.array([45 * 44 / 2, 45 * 45, 45 * 44 / 2])
    block_prob = np.array([p, q, p])
    var = pairs * block_prob * (1 - block_prob)
    mean = block_counts.mean(axis=0) / pairs
    assert np.all(np.abs(mean - block_prob) <= 5 * np.sqrt(var / seeds) / pairs)
    # a sample variance over 400 draws has a relative spread of about 7%
    spread = np.sqrt(2 / (seeds - 1))
    assert np.all(np.abs(block_counts.var(axis=0, ddof=1) / var - 1) <= 5 * spread)


def test_sbm_edges_cost_scales_with_edges_not_pairs():
    # a million nodes: one uniform per pair would be 5e11 draws, which take
    # most of an hour, so the alarm turns that into a failure
    sizes = np.full(100, 10_000)
    p, q = 2e-5, 1e-7

    def too_slow(signum, frame):
        raise TimeoutError("_sbm_edges took over 60 s")

    handler = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(60)
    tracemalloc.start()
    try:
        edges = pipeline._sbm_edges(np.random.default_rng(0), sizes, p, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        signal.alarm(0)
        signal.signal(signal.SIGALRM, handler)
    diag, off = 100 * 10_000 * 9_999 / 2, 100 * 99 / 2 * 10_000**2
    mean = p * diag + q * off
    sigma = np.sqrt(p * (1 - p) * diag + q * (1 - q) * off)
    assert abs(edges.shape[0] - mean) <= 6 * sigma
    assert np.all(edges[:, 0] < edges[:, 1])
    assert np.unique(edges[:, 0] * 1_000_000 + edges[:, 1]).size == edges.shape[0]
    assert peak < 64 * 2**20


def test_sbm_pure_intra_edges_are_homophilic():
    ds = generate_sbm(
        SbmSpec(num_nodes=60, num_classes=3, intra_prob=0.3, inter_prob=0.0, seed=1)
    )
    assert homophily_ratio(ds.graph, ds.labels) == 1.0


def test_sbm_equal_probabilities_lose_class_signal():
    vals = []
    for seed in range(10):
        ds = generate_sbm(
            SbmSpec(
                num_nodes=200,
                num_classes=4,
                intra_prob=0.08,
                inter_prob=0.08,
                seed=seed,
            )
        )
        vals.append(homophily_ratio(ds.graph, ds.labels))
    assert abs(float(np.mean(vals)) - 0.25) <= 0.05


def test_sbm_split_fractions_and_disjointness():
    ds = _small_sbm(4)
    n = ds.num_nodes
    assert int(ds.train_mask.sum()) == round(0.6 * n)
    assert int(ds.val_mask.sum()) == round(0.2 * n)
    assert int(ds.test_mask.sum()) == n - round(0.6 * n) - round(0.2 * n)
    combined = (
        ds.train_mask.astype(int) + ds.val_mask.astype(int) + ds.test_mask.astype(int)
    )
    assert np.array_equal(combined, np.ones(n, dtype=int))


def test_sbm_spec_validation():
    with pytest.raises(ValueError):
        SbmSpec(intra_prob=0.01, inter_prob=0.05)
    with pytest.raises(ValueError):
        SbmSpec(num_nodes=3, num_classes=4)


def test_resolve_synthetic_size():
    ds = _small_sbm(5)
    assert resolve_synthetic_size(_fast_config(num_synthetic=7), ds) == 7
    assert (
        resolve_synthetic_size(_fast_config(num_synthetic=0, ratio=0.1), ds) == 8
    )
    n_train = int(ds.train_mask.sum())
    expected = int(round(0.1 * n_train))
    got = resolve_synthetic_size(
        _fast_config(num_synthetic=0, ratio=0.1, ratio_base="train"), ds
    )
    assert got == expected
    with pytest.raises(GraphError, match="below N"):
        resolve_synthetic_size(_fast_config(num_synthetic=80), ds)


def test_pipeline_end_to_end_metrics_and_stages():
    ds = _small_sbm(0)
    result = run_pipeline(ds, _fast_config())
    for key in REPORT_KEYS:
        assert key in result.metrics
    for stage in (
        "propagate",
        "pretrain",
        "cluster",
        "condense",
        "class_graphs",
        "refine",
        "evaluate",
        "metrics",
    ):
        assert stage in result.stage_seconds
        assert result.stage_seconds[stage] >= 0.0
    cond = result.condensed
    assert cond.num_nodes == 8
    assert cond.meta["dataset"] == ds.name
    assert cond.meta["n"] == 8
    assert cond.meta["config_hash"] == _fast_config().hash()
    assert 0.0 <= result.metrics["accuracy_mean"] <= 1.0
    assert result.metrics["fid"] >= 0.0
    assert result.metrics["theorem1_bound"] >= 0.0
    assert (
        result.metrics["theorem2_lhs"]
        <= result.metrics["theorem2_rhs"] + 1e-10
    )
    assert len(result.accuracies) == 2


def test_pipeline_is_deterministic():
    ds = _small_sbm(0)
    a = run_pipeline(ds, _fast_config())
    b = run_pipeline(ds, _fast_config())
    assert np.array_equal(a.condensed.x_prime, b.condensed.x_prime)
    assert np.array_equal(a.condensed.a_prime, b.condensed.a_prime)
    assert np.array_equal(a.condensed.y_prime, b.condensed.y_prime)
    assert a.metrics == b.metrics


def test_minibatch_kmeans_runs_through_the_pipeline(monkeypatch, tmp_path):
    batches = []
    real = pipeline.minibatch_kmeans

    def spy(points, n, **kw):
        batches.append(kw["batch_size"])
        return real(points, n, **kw)

    monkeypatch.setattr(pipeline, "minibatch_kmeans", spy)
    ds = _small_sbm(0)
    # below N = 80, so the streaming updates run rather than the full-batch fallback
    cfg = _fast_config(minibatch_threshold=40, kmeans_batch=32)
    for run in ("a", "b"):
        result = run_pipeline(ds, cfg)
        assert np.isfinite(result.metrics["accuracy_mean"])
        save_condensed(result.condensed, tmp_path / run)
    assert batches == [32, 32]
    for name in ("x_prime.csv", "a_prime.csv", "y_prime.txt", "meta.toml"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_pipeline_seed_changes_output():
    ds = _small_sbm(0)
    a = run_pipeline(ds, _fast_config(seed=0))
    b = run_pipeline(ds, _fast_config(seed=1))
    assert not np.array_equal(a.condensed.x_prime, b.condensed.x_prime)


def test_pipeline_without_refinement_keeps_cluster_means():
    ds = _small_sbm(0)
    frozen = run_pipeline(ds, _fast_config(E3=0))
    refined = run_pipeline(ds, _fast_config(E3=25))
    assert frozen.metrics["icad_before"] == frozen.metrics["icad_after"]
    assert not np.array_equal(frozen.condensed.x_prime, refined.condensed.x_prime)


def test_pipeline_identity_adjacency_variant():
    ds = _small_sbm(0)
    result = run_pipeline(ds, _fast_config(clustgdd_x=True))
    assert np.array_equal(result.condensed.a_prime, np.eye(8))


def test_pipeline_stage_failure_is_named(stage_times):
    ds = _small_sbm(0)
    with pytest.raises(PipelineError, match="stage 'propagate' failed: .*below N"):
        run_pipeline(ds, _fast_config(num_synthetic=200))
    assert stage_times == {}


@pytest.mark.parametrize(
    "overrides, n",
    [(dict(ratio=0.001, num_synthetic=0), 0), (dict(num_synthetic=1), 1)],
    ids=["ratio-rounds-to-0", "num_synthetic-1"],
)
def test_synthetic_size_below_two_is_refused(overrides, n, stage_times):
    ds = _small_sbm(0)
    with pytest.raises(GraphError, match=f"synthetic node count {n} is below 2$"):
        resolve_synthetic_size(_fast_config(**overrides), ds)
    with pytest.raises(
        PipelineError, match=f"stage 'propagate' failed: synthetic node count {n} is below 2$"
    ):
        run_pipeline(ds, _fast_config(**overrides))
    assert stage_times == {}


def test_empty_test_split_is_refused_before_any_work(stage_times):
    ds = _small_sbm(0)
    ds.test_mask = np.zeros_like(ds.test_mask)
    with pytest.raises(PipelineError, match="stage 'propagate' failed: the test split is empty$"):
        run_pipeline(ds, _fast_config())
    assert stage_times == {}
    condensed = run_pipeline(_small_sbm(0), _fast_config(E3=0)).condensed
    with pytest.raises(GraphError, match="the test split is empty$"):
        pipeline.evaluate_condensed(ds, condensed, _fast_config())


@pytest.mark.parametrize("model_selection", ["final", "best_val"])
@pytest.mark.parametrize("inductive", [False, True])
def test_shared_test_product_keeps_accuracies_and_fid_bitwise(
    monkeypatch, inductive, model_selection
):
    ds = _small_sbm(0)
    cfg = _fast_config(inductive=inductive, eval_repeats=3, model_selection=model_selection)
    condensed = run_pipeline(ds, _fast_config(E3=0)).condensed
    shared_accs, shared_fid = pipeline.evaluate_condensed(ds, condensed, cfg)
    passed, passed_val = [], []

    def unshared(params, dataset, a_hat, inductive=False, ax=None):
        passed.append(ax)
        return evaluate.evaluate_on_original(params, dataset, a_hat, inductive)

    def unshared_validation(dataset, a_hat, full_ax=None):
        passed_val.append(full_ax)
        return evaluate._validation_logits(dataset, a_hat)

    monkeypatch.setattr(pipeline, "evaluate_on_original", unshared)
    monkeypatch.setattr(pipeline, "_validation_logits", unshared_validation)
    accs, fid_score = pipeline.evaluate_condensed(ds, condensed, cfg)
    # one product serves every repeat's test forward, and the transductive
    # validation rows are read from it
    assert len(passed) == 3 and passed[0] is not None
    assert all(ax is passed[0] for ax in passed)
    if model_selection == "best_val":
        want = [None] * 3 if inductive else passed
        assert len(passed_val) == 3 and all(a is b for a, b in zip(passed_val, want))
    else:
        assert passed_val == []
    assert np.array(accs).tobytes() == np.array(shared_accs).tobytes()
    assert np.float64(fid_score).tobytes() == np.float64(shared_fid).tobytes()


def _degenerate_dataset(case):
    """A 300-node block model with one degenerate property."""
    spec = dict(
        num_nodes=300, num_classes=3, intra_prob=0.05, inter_prob=0.005,
        feature_dim=24, separation=2.0, seed=3,
    )
    if case == "one-class":
        spec["num_classes"] = 1
    if case == "edgeless":
        spec["intra_prob"] = spec["inter_prob"] = 0.0
    ds = generate_sbm(SbmSpec(**spec))
    if case == "class-without-training":
        moved = ds.train_mask & (ds.labels == 2)
        ds.train_mask, ds.val_mask = ds.train_mask & ~moved, ds.val_mask | moved
    if case == "zero-feature-row":
        ds.features[5] = 0.0
    return ds


@pytest.mark.parametrize(
    "case", ["one-class", "class-without-training", "zero-feature-row", "edgeless"]
)
def test_degenerate_inputs_run_to_a_finite_accuracy(case):
    # d = 24 is wider than the 16-wide hidden layer, so the class views take
    # the projected order
    ds = _degenerate_dataset(case)
    result = run_pipeline(ds, _fast_config(E1=5, E2=20, E3=3, eval_epochs=5, eval_repeats=1))
    assert all(np.isfinite(result.accuracies))
    a_prime = result.condensed.a_prime
    assert np.array_equal(a_prime, a_prime.T)
    assert a_prime.min() >= 0.0
    assert np.all(np.isfinite(result.condensed.x_prime))


def test_best_val_without_validation_rows_fails_in_evaluate():
    ds = _small_sbm(0)
    ds.val_mask = np.zeros_like(ds.val_mask)
    with pytest.raises(PipelineError, match="stage 'evaluate' failed: .*validation set"):
        run_pipeline(ds, _fast_config(model_selection="best_val"))


@pytest.fixture
def stage_times(monkeypatch):
    """The dict that every run_pipeline stage records its time into."""
    recorded = {}
    real_stage = pipeline._stage
    monkeypatch.setattr(pipeline, "_stage", lambda name, timings: real_stage(name, recorded))
    return recorded


@pytest.mark.parametrize(
    "field, value",
    [
        ("model_selection", "best-val"),
        ("ratio_base", "Train"),
        ("class_graph_weighting", "Score"),
    ],
)
def test_misspelled_choice_is_refused(field, value, stage_times):
    ds = _small_sbm(0)
    with pytest.raises(PipelineError, match=rf"stage 'propagate' failed: {field} must be"):
        run_pipeline(ds, _fast_config(**{field: value}))
    assert stage_times == {}


# The allowed range that each refusal names.
ALLOWED = {
    "alpha": "in [0, 1)",
    "dropout": "in [0, 1)",
    "eval_dropout": "in [0, 1)",
    "alpha_prime": "below 1 (a negative value reuses alpha)",
    "rho": "in (0, 1]",
    "ratio": "above 0",
    "depth": "at least 1",
    "hidden": "at least 1",
    "eval_hidden": "at least 1",
    "kmeans_batch": "at least 1",
    "kmeans_n_init": "at least 1",
}


@pytest.mark.parametrize(
    "field, value",
    [
        ("alpha", 1.0),
        ("alpha", -0.1),
        ("T", -1),
        ("dropout", 1.0),
        ("dropout", 1.5),
        ("dropout", -0.2),
        ("eval_dropout", 1.0),
        ("alpha_prime", 1.5),
        ("rho", 0.0),
        ("rho", 1.5),
        ("ratio", 0.0),
        ("E1", -3),
        ("E2", -1),
        ("E3", -1),
        ("eval_epochs", -1),
        ("T_prime", -1),
        ("num_synthetic", -5),
        ("depth", 0),
        ("hidden", 0),
        ("eval_hidden", 0),
        ("kmeans_batch", 0),
        ("kmeans_n_init", 0),
    ],
)
def test_out_of_range_value_is_refused(field, value, stage_times):
    ds = _small_sbm(0)
    allowed = re.escape(f"{ALLOWED.get(field, 'at least 0')}, not {value!r}")
    with pytest.raises(
        PipelineError, match=rf"stage 'propagate' failed: {field} must be {allowed}$"
    ):
        run_pipeline(ds, _fast_config(**{field: value}))
    assert stage_times == {}


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("E1", 2.5, "E1 must be an int"),
        ("E1", True, "E1 must be an int"),
        ("lambda_", "x", "lambda must be a number"),
        ("rho", "0.5", "rho must be a number"),
        ("alpha", False, "alpha must be a number"),
        ("ratio_base", 1, "ratio_base must be a string"),
        ("inductive", 1, "inductive must be a bool"),
    ],
)
def test_value_of_the_wrong_type_is_refused(field, value, message, stage_times):
    ds = _small_sbm(0)
    wanted = re.escape(f"{message}, not {value!r}")
    with pytest.raises(PipelineError, match=rf"stage 'propagate' failed: {wanted}$"):
        run_pipeline(ds, _fast_config(**{field: value}))
    assert stage_times == {}


def test_integers_are_accepted_in_float_fields():
    PipelineConfig(alpha=0, lr=1, E1=np.int64(3)).validate()


def test_eval_repeats_below_one_is_refused(stage_times):
    ds = _small_sbm(0)
    with pytest.raises(
        PipelineError, match="stage 'propagate' failed: eval_repeats must be at least 1, not 0"
    ):
        run_pipeline(ds, _fast_config(eval_repeats=0))
    assert stage_times == {}


# The fields whose values validate checks for type only, on purpose: learning
# rates, penalties and loss weights, the k-means size switch, the flags and
# the seed.
UNCHECKED = (
    "lr", "weight_decay", "beta", "gamma", "lambda_", "eval_lr",
    "eval_weight_decay", "minibatch_threshold", "inductive", "clustgdd_x", "seed",
)


def test_every_config_field_is_validated_or_listed_as_unchecked():
    checked = list(pipeline.CHOICES) + list(pipeline.RANGES)
    assert sorted(checked + list(UNCHECKED)) == sorted(f.name for f in fields(PipelineConfig))


def test_best_val_run_renormalizes_the_original_graph_once(monkeypatch):
    ds = _small_sbm(0)
    calls = []
    real = evaluate.renormalized_adjacency

    def counting(A):
        calls.append(A is ds.graph)
        return real(A)

    for module in (evaluate, pipeline):
        monkeypatch.setattr(module, "renormalized_adjacency", counting)
    cfg = _fast_config(model_selection="best_val", eval_repeats=3)
    assert PipelineConfig().eval_repeats == 3
    run_pipeline(ds, cfg)
    assert sum(calls) == 1


def test_run_pipeline_frees_sampled_graphs_and_z_after_their_last_reader(monkeypatch):
    # weak references to the K sampled class graphs and to Z, taken as they
    # are made; each must be dead at the entry of the first stage that no
    # longer reads it
    made, seen = {}, {}
    sample, propagate = pipeline.sample_class_graphs, pipeline.gls_propagate

    def sampling(*args, **kwargs):
        class_set = sample(*args, **kwargs)
        made["sampled"] = [weakref.ref(a) for a in class_set.sampled]
        return class_set

    def propagating(*args, **kwargs):
        Z = propagate(*args, **kwargs)
        made["Z"] = weakref.ref(Z)
        return Z

    def entry(name, fn):
        def wrapped(*args, **kwargs):
            gc.collect()
            seen[name] = {
                "sampled": sum(ref() is not None for ref in made["sampled"]),
                "Z": made["Z"]() is not None,
            }
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(pipeline, "sample_class_graphs", sampling)
    monkeypatch.setattr(pipeline, "gls_propagate", propagating)
    monkeypatch.setattr(pipeline, "refine", entry("refine", pipeline.refine))
    monkeypatch.setattr(
        pipeline, "evaluate_condensed", entry("evaluate", pipeline.evaluate_condensed)
    )
    run_pipeline(_small_sbm(0), _fast_config())
    assert len(made["sampled"]) == 3
    # refinement is handed Z's training rows, sliced out in the condense stage
    assert seen["refine"] == {"sampled": 0, "Z": False}
    assert seen["evaluate"] == {"sampled": 0, "Z": False}


def test_csr_class_views_match_the_dense_view_oracle(monkeypatch):
    # run_pipeline keeps the class views in CSR form and refinement
    # multiplies them as CSR. A distill that hands refine the same views
    # densified is the oracle: its products are dense GEMMs, which sum in
    # another order, so at n = 40 the bytes of X' differ, within rounding.
    views_seen = []
    refine = pipeline.refine

    def dense_views(Z, labels, condensed, views, *args, **kwargs):
        views_seen.extend(views)
        return refine(Z, labels, condensed, [v.toarray() for v in views], *args, **kwargs)

    ds = generate_sbm(
        SbmSpec(num_nodes=400, num_classes=3, intra_prob=0.05, inter_prob=0.005,
                feature_dim=8, separation=2.0, noise_scale=0.5, seed=0)
    )
    # W0 16 wide, then 4 wide: d = 8 is narrow, then wide
    for cfg in (_fast_config(num_synthetic=40), _fast_config(num_synthetic=40, hidden=4)):
        csr = run_pipeline(ds, cfg)
        with monkeypatch.context() as m:
            m.setattr(pipeline, "refine", dense_views)
            dense = run_pipeline(ds, cfg)
        assert views_seen and all(v.format == "csr" for v in views_seen)
        views_seen.clear()
        got, want = csr.condensed.x_prime, dense.condensed.x_prime
        assert got.tobytes() != want.tobytes()
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
        for name in ("a_prime", "y_prime"):  # refinement does not touch them
            got, want = getattr(csr.condensed, name), getattr(dense.condensed, name)
            assert got.tobytes() == want.tobytes(), name


def test_run_pipeline_builds_the_sketching_matrix_once(monkeypatch):
    # A' and every class view are compressed with the same C_norm
    calls = []
    real = pipeline.sketching_matrix

    def counting(clustering):
        calls.append(clustering)
        return real(clustering)

    monkeypatch.setattr(pipeline, "sketching_matrix", counting)
    run_pipeline(_small_sbm(0), _fast_config())
    assert len(calls) == 1


def test_report_block_format():
    ds = _small_sbm(0)
    result = run_pipeline(ds, _fast_config())
    block = report_block(result)
    lines = block.strip().splitlines()
    keys = [line.split(" = ")[0] for line in lines]
    assert keys == list(REPORT_KEYS) + ["runtime_total_s", "runtime_per_stage"]
    per_stage = lines[-1].split(" = ")[1]
    assert "propagate:" in per_stage and "evaluate:" in per_stage


def test_config_round_trip_and_hash():
    cfg = PipelineConfig(lambda_=0.25, alpha=0.7)
    d = cfg.to_dict()
    assert "lambda" in d and "lambda_" not in d
    back = PipelineConfig.from_dict(d)
    assert back == cfg
    assert back.hash() == cfg.hash()
    assert cfg.hash() != PipelineConfig(lambda_=0.30, alpha=0.7).hash()


# Keys that earlier versions of the config held; a file that still sets one
# is refused, not silently ignored.
REMOVED_KEYS = (
    "pretrain_optimizer", "refine_optimizer", "eval_optimizer",
    "fid_normalize", "sparsify_epsilon", "kmeans_tol", "optimizer",
)


@pytest.mark.parametrize("key", ("bogus",) + REMOVED_KEYS)
def test_unknown_config_key_is_refused(key):
    with pytest.raises(ValueError, match=rf"^unknown config key '{key}'$"):
        PipelineConfig.from_dict({key: 1})
