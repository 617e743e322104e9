import numpy as np
import pytest

from graphdistill.model import (
    AdamState,
    DivergedError,
    TrainConfig,
    backward,
    cross_entropy,
    forward,
    forward_cache,
    init_classifier,
    softmax_predict,
    train_classifier,
)


def _loss(params, z, labels, mask, wd=0.0):
    logits = forward(params, z)
    p = softmax_predict(logits)
    penalty = 0.5 * wd * sum(float(np.sum(w**2)) for w in params.weights)
    return cross_entropy(p, labels, mask) + penalty


def _analytic_grads(params, z, labels, mask, wd=0.0):
    logits, cache = forward_cache(params, z)
    p = softmax_predict(logits)
    onehot = np.zeros_like(p)
    onehot[np.arange(z.shape[0]), labels] = 1.0
    count = int(np.sum(mask))
    dlogits = np.zeros_like(p)
    dlogits[mask] = (p[mask] - onehot[mask]) / count
    _, d_w, d_b = backward(params, cache, dlogits)
    for i in range(params.depth):
        d_w[i] = d_w[i] + wd * params.weights[i]
    return d_w, d_b


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


def _rel_err(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(a), np.linalg.norm(b), 1e-10)


def test_depth_one_is_affine():
    rng = np.random.default_rng(0)
    params = init_classifier(rng, 4, 3, depth=1)
    z = rng.standard_normal((6, 4))
    assert np.array_equal(forward(params, z), z @ params.weights[0] + params.biases[0])


def test_softmax_rows_sum_to_one_and_shift_invariance():
    rng = np.random.default_rng(1)
    h = rng.standard_normal((30, 5)) * 50.0
    p = softmax_predict(h)
    assert np.max(np.abs(p.sum(axis=1) - 1.0)) <= 1e-12
    shifted = softmax_predict(h + rng.standard_normal((30, 1)))
    assert np.allclose(p, shifted, atol=1e-12)


def test_cross_entropy_uniform_and_empty_mask():
    p = np.full((4, 5), 0.2)
    labels = np.array([0, 1, 2, 3])
    assert cross_entropy(p, labels, np.ones(4, bool)) == pytest.approx(np.log(5.0))
    with pytest.raises(ValueError, match="empty mask"):
        cross_entropy(p, labels, np.zeros(4, bool))


def _kink_margin(params, z):
    """Smallest |pre-activation| across hidden layers; tiny values make
    finite differences invalid at the rectifier kink."""
    h = z
    margin = np.inf
    for layer in range(params.depth - 1):
        s = h @ params.weights[layer] + params.biases[layer]
        margin = min(margin, float(np.min(np.abs(s))))
        h = np.maximum(s, 0.0)
    return margin


def test_gradients_match_finite_differences():
    # 20 seeded instances across depths 1..3; loss includes weight decay.
    # Instances with a pre-activation near zero are redrawn: the central
    # difference straddles the rectifier kink there.
    checked = 0
    seed = 0
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
        d_w, d_b = _analytic_grads(params, z, labels, mask, wd)
        loss_fn = lambda: _loss(params, z, labels, mask, wd)
        for i in range(depth):
            assert _rel_err(_fd_grad(loss_fn, params.weights[i]), d_w[i]) <= 1e-4
            assert _rel_err(_fd_grad(loss_fn, params.biases[i]), d_b[i]) <= 1e-4


def test_input_gradient_matches_finite_differences():
    rng = np.random.default_rng(42)
    params = init_classifier(rng, 4, 3, depth=2, hidden_dim=5)
    z = rng.standard_normal((5, 4))
    labels = rng.integers(0, 3, size=5)
    mask = np.ones(5, bool)
    logits, cache = forward_cache(params, z)
    p = softmax_predict(logits)
    onehot = np.eye(3)[labels]
    dlogits = (p - onehot) / 5.0
    dz, _, _ = backward(params, cache, dlogits)
    fd = _fd_grad(lambda: _loss(params, z, labels, mask), z)
    assert _rel_err(fd, dz) <= 1e-4


def test_plain_descent_loss_non_increasing():
    for seed in range(20):
        rng = np.random.default_rng(300 + seed)
        z = rng.standard_normal((20, 4))
        labels = rng.integers(0, 3, size=20)
        params = init_classifier(rng, 4, 3, depth=2, hidden_dim=8)
        cfg = TrainConfig(epochs=10, learning_rate=0.05, weight_decay=0.0, seed=seed)
        _, losses = train_classifier(z, labels, np.ones(20, bool), params, cfg)
        assert all(losses[i + 1] <= losses[i] + 1e-12 for i in range(len(losses) - 1))


def test_training_fits_separable_blobs():
    rng = np.random.default_rng(5)
    z = np.vstack([rng.standard_normal((20, 2)) + 8.0, rng.standard_normal((20, 2)) - 8.0])
    labels = np.array([0] * 20 + [1] * 20)
    params = init_classifier(rng, 2, 2, depth=1)
    cfg = TrainConfig(epochs=200, learning_rate=0.5, weight_decay=0.0, seed=0)
    trained, _ = train_classifier(z, labels, np.ones(40, bool), params, cfg)
    pred = np.argmax(forward(trained, z), axis=1)
    assert np.mean(pred == labels) == 1.0


def test_zero_learning_rate_keeps_params():
    rng = np.random.default_rng(6)
    z = rng.standard_normal((10, 3))
    labels = rng.integers(0, 2, size=10)
    params = init_classifier(rng, 3, 2, depth=2, hidden_dim=4)
    cfg = TrainConfig(epochs=5, learning_rate=0.0, weight_decay=0.0, seed=0)
    trained, _ = train_classifier(z, labels, np.ones(10, bool), params, cfg)
    for w0, w1 in zip(params.weights, trained.weights):
        assert np.array_equal(w0, w1)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_raises_with_epoch():
    rng = np.random.default_rng(7)
    z = rng.standard_normal((10, 3))
    labels = rng.integers(0, 2, size=10)
    params = init_classifier(rng, 3, 2, depth=2, hidden_dim=4)
    cfg = TrainConfig(epochs=50, learning_rate=1e120, weight_decay=0.0, seed=0)
    with pytest.raises(DivergedError) as err:
        train_classifier(z, labels, np.ones(10, bool), params, cfg)
    assert err.value.epoch >= 0


def test_training_determinism_and_minibatch():
    rng = np.random.default_rng(8)
    z = rng.standard_normal((30, 4))
    labels = rng.integers(0, 3, size=30)
    params = init_classifier(rng, 4, 3, depth=2, hidden_dim=6, dropout_rate=0.3)
    cfg = TrainConfig(epochs=15, learning_rate=0.1, seed=9, batch_size=8)
    a, _ = train_classifier(z, labels, np.ones(30, bool), params, cfg)
    b, _ = train_classifier(z, labels, np.ones(30, bool), params, cfg)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)


def test_adam_path_runs_and_is_deterministic():
    rng = np.random.default_rng(9)
    z = rng.standard_normal((25, 4))
    labels = rng.integers(0, 3, size=25)
    params = init_classifier(rng, 4, 3, depth=3, hidden_dim=6)
    cfg = TrainConfig(epochs=30, learning_rate=0.01, seed=1, optimizer="adam")
    a, losses = train_classifier(z, labels, np.ones(25, bool), params, cfg)
    b, _ = train_classifier(z, labels, np.ones(25, bool), params, cfg)
    assert losses[-1] < losses[0]
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)


def test_adam_step_matches_reference_formula():
    rng = np.random.default_rng(10)
    shapes = [(7, 5), (5,), (5, 3), (3,)]
    tensors = [rng.standard_normal(s) for s in shapes]
    ref = [t.copy() for t in tensors]
    ref_m = [np.zeros(s) for s in shapes]
    ref_v = [np.zeros(s) for s in shapes]
    adam = AdamState(shapes)
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    for t in range(1, 8):
        grads = [rng.standard_normal(s) for s in shapes]
        adam.step(tensors, grads, lr)
        for i, g in enumerate(grads):
            ref_m[i] = b1 * ref_m[i] + (1.0 - b1) * g
            ref_v[i] = b2 * ref_v[i] + (1.0 - b2) * g**2
            mhat = ref_m[i] / (1.0 - b1**t)
            vhat = ref_v[i] / (1.0 - b2**t)
            ref[i] -= lr * mhat / (np.sqrt(vhat) + eps)
        for i in range(len(shapes)):
            assert np.array_equal(tensors[i], ref[i])
            assert np.array_equal(adam.m[i], ref_m[i])
            assert np.array_equal(adam.v[i], ref_v[i])


@pytest.mark.parametrize("batch_size", [0, 6])
def test_training_reads_only_masked_rows(batch_size):
    rng = np.random.default_rng(11)
    z = rng.standard_normal((30, 4))
    labels = rng.integers(0, 3, size=30)
    mask = rng.random(30) < 0.5
    z[~mask] = np.nan
    params = init_classifier(rng, 4, 3, depth=3, hidden_dim=6, dropout_rate=0.3)
    cfg = TrainConfig(
        epochs=10, learning_rate=0.05, seed=2, batch_size=batch_size, optimizer="adam"
    )
    trained, losses = train_classifier(z, labels, mask, params, cfg)
    assert np.all(np.isfinite(losses))
    for w, b in zip(trained.weights, trained.biases):
        assert np.all(np.isfinite(w)) and np.all(np.isfinite(b))
    # the rows outside the mask do not change the result
    z_clean = np.where(mask[:, None], z, 0.0)
    again, _ = train_classifier(z_clean, labels, mask, params, cfg)
    for wa, wb in zip(trained.weights, again.weights):
        assert np.array_equal(wa, wb)
