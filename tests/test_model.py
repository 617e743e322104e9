import tracemalloc

import numpy as np
import pytest

from graphdistill.model import (
    ADAM_CHUNK,
    ROW_BLOCK,
    AdamState,
    DivergedError,
    backward,
    forward,
    forward_cache,
    init_classifier,
    relu_layers,
    softmax_cross_entropy,
    softmax_predict,
    train_classifier,
)
from graphdistill.pipeline import PipelineConfig


def _loss(params, z, labels, mask, wd=0.0):
    logits = forward(params, z)
    penalty = 0.5 * wd * sum(float(np.sum(w**2)) for w in params.weights)
    return softmax_cross_entropy(logits[mask], labels[mask])[1] + penalty


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
    logits = np.zeros((4, 5))  # every class at probability 0.2
    labels = np.array([0, 1, 2, 3])
    assert softmax_cross_entropy(logits, labels)[1] == pytest.approx(np.log(5.0))
    with pytest.raises(ValueError, match="empty mask"):
        softmax_cross_entropy(logits[:0], labels[:0])


def _masked_cross_entropy_reference(P, labels, mask):
    """The removed cross_entropy: mean clipped negative log-probability of masked rows."""
    picked = P[mask, labels[mask]]
    return float(-np.mean(np.log(np.clip(picked, 1e-12, None))))


def _same_bytes(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


@pytest.mark.parametrize("rows, k", [(1, 2), (37, 4), (300, 7)])
def test_softmax_cross_entropy_matches_hand_built_blocks_bitwise(rows, k):
    rng = np.random.default_rng(rows + k)
    logits = 10.0 * rng.standard_normal((rows, k))
    # the other classes of these rows underflow to probability 0, so the
    # clip at 1e-12 applies when one of them is the label
    logits[::4, 0] = 800.0
    labels = rng.integers(0, k, size=rows)
    onehot = np.zeros((rows, k))
    onehot[np.arange(rows), labels] = 1.0
    want_P = softmax_predict(logits)
    P, loss, dlogits = softmax_cross_entropy(logits, labels)
    assert _same_bytes(P, want_P)

    # train_classifier's block: the loss over every training row and a
    # precomputed one-hot divided by float(rows)
    assert _same_bytes(loss, _masked_cross_entropy_reference(want_P, labels, np.ones(rows, bool)))
    assert _same_bytes(dlogits, (want_P - onehot) / float(rows))

    # train_eval_gcn's block: clip, log and mean over all rows, then
    # (P - Y') / n
    picked = np.clip(want_P[np.arange(rows), labels], 1e-12, None)
    assert _same_bytes(loss, float(-np.mean(np.log(picked))))
    assert _same_bytes(dlogits, (want_P - onehot) / rows)

    # refine's L_org block: softmax over every row, the loss and gradient
    # over the masked rows, scattered into zeros
    mask = rng.random(rows) < 0.6
    mask[0] = True
    want = np.zeros_like(want_P)
    want[mask] = (want_P[mask] - onehot[mask]) / int(mask.sum())
    _, got_loss, d = softmax_cross_entropy(logits[mask], labels[mask])
    got = np.zeros_like(logits)
    got[mask] = d
    assert _same_bytes(got_loss, _masked_cross_entropy_reference(want_P, labels, mask))
    assert _same_bytes(got, want)


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
    d_pre, _, _ = backward(params, cache, dlogits)
    dz = d_pre @ params.weights[0].T
    fd = _fd_grad(lambda: _loss(params, z, labels, mask), z)
    assert _rel_err(fd, dz) <= 1e-4


def test_training_fits_separable_blobs():
    rng = np.random.default_rng(5)
    z = np.vstack([rng.standard_normal((20, 2)) + 8.0, rng.standard_normal((20, 2)) - 8.0])
    labels = np.array([0] * 20 + [1] * 20)
    params = init_classifier(rng, 2, 2, depth=1)
    cfg = PipelineConfig(E1=200, lr=0.5, weight_decay=0.0)
    trained, _ = train_classifier(z, labels, np.ones(40, bool), params, cfg, 0)
    pred = np.argmax(forward(trained, z), axis=1)
    assert np.mean(pred == labels) == 1.0


def test_zero_learning_rate_keeps_params():
    rng = np.random.default_rng(6)
    z = rng.standard_normal((10, 3))
    labels = rng.integers(0, 2, size=10)
    params = init_classifier(rng, 3, 2, depth=2, hidden_dim=4)
    cfg = PipelineConfig(E1=5, lr=0.0, weight_decay=0.0)
    trained, _ = train_classifier(z, labels, np.ones(10, bool), params, cfg, 0)
    for w0, w1 in zip(params.weights, trained.weights):
        assert np.array_equal(w0, w1)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_raises_with_epoch():
    rng = np.random.default_rng(7)
    z = rng.standard_normal((10, 3))
    labels = rng.integers(0, 2, size=10)
    params = init_classifier(rng, 3, 2, depth=2, hidden_dim=4)
    # Adam moves each weight by about lr per step, so only an lr near the
    # top of the float range overflows
    cfg = PipelineConfig(E1=50, lr=1e160, weight_decay=0.0)
    with pytest.raises(DivergedError) as err:
        train_classifier(z, labels, np.ones(10, bool), params, cfg, 0)
    assert err.value.epoch >= 0


def test_training_with_dropout_is_deterministic():
    rng = np.random.default_rng(8)
    z = rng.standard_normal((30, 4))
    labels = rng.integers(0, 3, size=30)
    params = init_classifier(rng, 4, 3, depth=2, hidden_dim=6, dropout_rate=0.3)
    cfg = PipelineConfig(E1=15, lr=0.1)
    a, _ = train_classifier(z, labels, np.ones(30, bool), params, cfg, 9)
    b, _ = train_classifier(z, labels, np.ones(30, bool), params, cfg, 9)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)


def test_adam_path_runs_and_is_deterministic():
    rng = np.random.default_rng(9)
    z = rng.standard_normal((25, 4))
    labels = rng.integers(0, 3, size=25)
    params = init_classifier(rng, 4, 3, depth=3, hidden_dim=6)
    cfg = PipelineConfig(E1=30, lr=0.01)
    a, losses = train_classifier(z, labels, np.ones(25, bool), params, cfg, 1)
    b, _ = train_classifier(z, labels, np.ones(25, bool), params, cfg, 1)
    assert losses[-1] < losses[0]
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)


def test_adam_step_matches_reference_formula():
    # the step runs in chunks of ADAM_CHUNK elements; every operation is
    # elementwise, so each size keeps the bytes of the whole-array formula
    for shapes in (
        [(7, 5), (5,), (5, 3), (3,)],
        # one element, and one chunk less one, exactly one and one plus one
        [(1,), (ADAM_CHUNK - 1,), (ADAM_CHUNK,), (ADAM_CHUNK + 1,)],
        [(1433, 256), (256,)],
    ):
        _check_adam_against_reference_formula(shapes)


def _check_adam_against_reference_formula(shapes):
    rng = np.random.default_rng(10)
    tensors = [rng.standard_normal(s) for s in shapes]
    ref = [t.copy() for t in tensors]
    ref_m = [np.zeros(s) for s in shapes]
    ref_v = [np.zeros(s) for s in shapes]
    adam = AdamState(tensors)
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    for t in range(1, 8):
        grads = [rng.standard_normal(s) for s in shapes]
        adam.step(grads, lr)
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


def test_adam_refuses_a_tensor_it_cannot_move_in_place():
    # a strided view would be copied by the flattening, and the update lost
    with pytest.raises(ValueError, match="C-contiguous"):
        AdamState([np.zeros((4, 6))[:, ::2]])


def test_training_reads_only_masked_rows():
    rng = np.random.default_rng(11)
    z = rng.standard_normal((30, 4))
    labels = rng.integers(0, 3, size=30)
    mask = rng.random(30) < 0.5
    z[~mask] = np.nan
    params = init_classifier(rng, 4, 3, depth=3, hidden_dim=6, dropout_rate=0.3)
    cfg = PipelineConfig(E1=10, lr=0.05)
    trained, losses = train_classifier(z, labels, mask, params, cfg, 2)
    assert np.all(np.isfinite(losses))
    for w, b in zip(trained.weights, trained.biases):
        assert np.all(np.isfinite(w)) and np.all(np.isfinite(b))
    # the rows outside the mask do not change the result
    z_clean = np.where(mask[:, None], z, 0.0)
    again, _ = train_classifier(z_clean, labels, mask, params, cfg, 2)
    for wa, wb in zip(trained.weights, again.weights):
        assert np.array_equal(wa, wb)


def _forward_cache_reference(params, z, rng=None):
    """The head's forward with a (mask, scale) pair per hidden layer.

    Dropout applies when an rng is given; without one this is the
    eval-mode forward.
    """
    h = np.asarray(z, dtype=np.float64)
    inputs, act = [], []
    p = params.dropout_rate
    for layer, (W, b) in enumerate(zip(params.weights, params.biases)):
        inputs.append(h)
        s = h @ W + b
        if layer == params.depth - 1:
            h = s
            break
        mask = s > 0.0
        h = s * mask
        scale = None
        if rng is not None and p > 0.0:
            keep = rng.random(h.shape) >= p
            scale = keep / (1.0 - p)
            h = h * scale
        act.append((mask, scale))
    return h, {"inputs": inputs, "act": act}


def _backward_reference(params, cache, dlogits):
    inputs, act = cache["inputs"], cache["act"]
    d_weights = [None] * params.depth
    d_biases = [None] * params.depth
    g = dlogits
    for layer in range(params.depth - 1, -1, -1):
        d_weights[layer] = inputs[layer].T @ g
        d_biases[layer] = g.sum(axis=0)
        g = g @ params.weights[layer].T
        if layer > 0:
            mask, scale = act[layer - 1]
            if scale is not None:
                g = g * scale
            g = g * mask
    return g, d_weights, d_biases


def _head_with_zeros(seed, rows, depth, d=32, hidden=256, k=4, dropout=0.5):
    """A head and inputs whose pre-activations include +0.0 and negatives.

    Zero input rows meet zero biases on every third unit, so those units see
    exactly +0.0; the rest are nonzero and of both signs.
    """
    rng = np.random.default_rng(seed)
    params = init_classifier(rng, d, k, depth=depth, hidden_dim=hidden, dropout_rate=dropout)
    for b in params.biases:
        b[:] = 0.1 * rng.standard_normal(b.shape)
        b[::3] = 0.0
    z = rng.standard_normal((rows, d))
    z[::5] = 0.0
    return params, z


@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("dropout", [0.0, 0.5])
def test_gated_layers_match_mask_and_scale_reference_bitwise(depth, dropout):
    # the dropout keep-mask is drawn in row blocks; the rows span three
    # blocks, the last with the leftover rows
    params, z = _head_with_zeros(
        10 + depth, 3 * ROW_BLOCK + 37, depth, hidden=64, dropout=dropout
    )
    rng_got, rng_want = np.random.default_rng(3), np.random.default_rng(3)
    got, cache = forward_cache(params, z, rng_got)
    want, ref_cache = _forward_cache_reference(params, z, rng_want)
    assert got.tobytes() == want.tobytes()
    for a, b in zip(cache["inputs"], ref_cache["inputs"]):
        assert a.tobytes() == b.tobytes()
    # the dropout draws keep their shapes and order
    assert rng_got.random() == rng_want.random()
    dlogits = np.random.default_rng(4).standard_normal(got.shape) / z.shape[0]
    d_pre, d_w, d_b = backward(params, cache, dlogits)
    dz = d_pre @ params.weights[0].T
    want_dz, want_w, want_b = _backward_reference(params, ref_cache, dlogits)
    assert dz.tobytes() == want_dz.tobytes()
    for a, b in zip(d_w + d_b, want_w + want_b):
        assert a.tobytes() == b.tobytes()
    # backward releases the layer inputs it consumed
    assert cache["inputs"] == []


@pytest.mark.parametrize("rows", [1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 1, 1000])
@pytest.mark.parametrize("depth", [2, 3])
def test_row_blocked_eval_forward_matches_whole_matrix_reference_bitwise(rows, depth):
    # relies on a row's GEMM result not depending on the call's row count
    params, z = _head_with_zeros(20 + depth, rows, depth)
    got = forward(params, z)
    want = _forward_cache_reference(params, z)[0]
    assert got.tobytes() == want.tobytes()
    hidden = relu_layers(z, params.weights[:-1], params.biases[:-1])
    want_hidden = _forward_cache_reference(params, z)[1]["inputs"][-1]
    assert hidden.tobytes() == want_hidden.tobytes()
    # a negative pre-activation leaves -0.0, as the mask multiply does
    assert np.signbit(hidden).any()


def test_training_epochs_hold_fewer_than_four_hidden_activations():
    rows, hidden = 4000, 256
    rng = np.random.default_rng(8)
    z = rng.standard_normal((rows, 32))
    labels = rng.integers(0, 4, size=rows)
    mask = np.ones(rows, dtype=bool)
    params = init_classifier(rng, 32, 4, depth=3, hidden_dim=hidden, dropout_rate=0.5)
    cfg = PipelineConfig(E1=2, lr=0.01)
    tracemalloc.start()
    try:
        train_classifier(z, labels, mask, params, cfg, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * rows * hidden * 8


def test_training_drops_the_layer_zero_gradient_at_once():
    # At its peak an epoch holds two R x hidden arrays: the cached hidden
    # layers in the forward, the gradient and its successor in the backward.
    # Z's rows, the rectifier mask, the parameters, Adam's moments and the
    # dropout blocks fit in one more layer's size at this shape. A layer-0
    # gradient kept from the epoch before would be a third R x hidden array.
    rows, hidden = 8192, 256
    rng = np.random.default_rng(9)
    z = rng.standard_normal((rows, 16))
    labels = rng.integers(0, 4, size=rows)
    mask = np.ones(rows, dtype=bool)
    params = init_classifier(rng, 16, 4, depth=3, hidden_dim=hidden, dropout_rate=0.5)
    cfg = PipelineConfig(E1=3, lr=0.01)
    tracemalloc.start()
    try:
        train_classifier(z, labels, mask, params, cfg, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * rows * hidden * 8
