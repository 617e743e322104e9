"""Feed-forward classification head trained with hand-written gradients.

The head maps smoothed node representations to class logits. Depth 1 is a
single linear map; deeper heads put a rectifier and optional inverted
dropout between affine layers. Backward passes are explicit so each
gradient can be checked against finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .pipeline import PipelineConfig


class DivergedError(RuntimeError):
    """Training produced a non-finite loss."""

    def __init__(self, epoch: int):
        super().__init__(f"diverged at epoch {epoch}")
        self.epoch = epoch


@dataclass
class ClassifierParams:
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    dropout_rate: float = 0.0

    @property
    def depth(self) -> int:
        return len(self.weights)

    def copy(self) -> "ClassifierParams":
        return ClassifierParams(
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
            self.dropout_rate,
        )


def init_classifier(
    rng: np.random.Generator,
    in_dim: int,
    num_classes: int,
    depth: int = 3,
    hidden_dim: int = 256,
    dropout_rate: float = 0.0,
) -> ClassifierParams:
    """Uniform Glorot weights, zero biases."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    dims = [in_dim] + [hidden_dim] * (depth - 1) + [num_classes]
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return ClassifierParams(weights, biases, dropout_rate)


# Rows per block of the row-blocked eval-mode layers and of dropout draws.
# A 256 x 256 float64 block is 512 KiB, so one block's activations stay in
# L2 from one layer to the next.
ROW_BLOCK = 256


def row_blocks(rows: int, size: int) -> list[tuple[int, int]]:
    """(lo, hi) bounds of consecutive blocks of size rows covering rows.

    The leftover rows join the last full block, so no block is smaller than
    size unless rows is: a one-row product would go through GEMV, which
    sums in another order than GEMM.
    """
    starts = list(range(0, max(rows - size, 0) + 1, size))
    return list(zip(starts, starts[1:] + [rows]))


def relu_layers(
    h: np.ndarray,
    weights: list[np.ndarray],
    biases: list[np.ndarray],
    out: np.ndarray | None = None,
) -> np.ndarray:
    """relu(h W + b) through each (W, b) in turn, ROW_BLOCK rows at a time.

    Each block of rows (see row_blocks) runs through every layer before the
    next block starts, and its last layer is written into out (allocated
    when None). The bytes equal those of whole-matrix products as long as a
    row's GEMM result does not depend on how many rows the call holds. The
    rectifier multiplies by the mask, as the training path does, so a
    negative pre-activation gives -0.0.
    """
    rows = h.shape[0]
    if out is None:
        out = np.empty((rows, weights[-1].shape[1]))
    for lo, hi in row_blocks(rows, ROW_BLOCK):
        x = h[lo:hi]
        for layer, (W, b) in enumerate(zip(weights, biases)):
            o = out[lo:hi] if layer == len(weights) - 1 else None
            x = np.matmul(x, W, out=o)
            x += b
            np.multiply(x, x > 0.0, out=x)
    return out


def relu_dropout(
    s: np.ndarray, dropout_rate: float, rng: np.random.Generator | None
) -> None:
    """In place: relu(s), with inverted dropout when dropout_rate p > 0.

    Each unit is multiplied by its gate: the rectifier's mask s > 0, times
    1 / (1 - p) on the units a draw of rng keeps when p > 0. The keep-mask
    is drawn and applied in row blocks of ROW_BLOCK rows; row blocks of
    rng.random give the stream of one draw over all of s, so only a block
    of the mask is ever held. Every factor is >= 0, so one multiply by the
    gate gives the bytes of a mask multiply followed by a scale multiply,
    signed zeros included.
    """
    if dropout_rate <= 0.0:
        np.multiply(s, s > 0.0, out=s)
        return
    scale = 1.0 / (1.0 - dropout_rate)
    for lo, hi in row_blocks(s.shape[0], ROW_BLOCK):
        block = s[lo:hi]
        keep = rng.random(block.shape) >= dropout_rate
        block *= (keep & (block > 0.0)) * scale


def relu_dropout_grad(g: np.ndarray, alive: np.ndarray, dropout_rate: float) -> None:
    """In place: multiply g by the gate relu_dropout applied at dropout_rate p.

    alive is the layer's output h > 0, which holds exactly where the gate
    is nonzero, and a nonzero gate is 1 / (1 - p). Multiplying by the mask
    and then by that scale gives the bytes of one multiply by the gate.
    """
    g *= alive
    if dropout_rate > 0.0:
        g *= 1.0 / (1.0 - dropout_rate)


def forward_cache(
    params: ClassifierParams,
    Z: np.ndarray,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, dict]:
    """Training forward pass keeping each layer's input for backward.

    Hidden layers drop units at params.dropout_rate, drawn from rng. The
    cache holds the layer inputs and that rate; backward rebuilds each
    hidden gate from the next layer's input, which is that layer's output.
    The eval-mode forward, without dropout, is forward.
    """
    h = np.asarray(Z, dtype=np.float64)
    inputs: list[np.ndarray] = []
    p = params.dropout_rate
    if p > 0.0 and rng is None and params.depth > 1:
        raise ValueError("dropout needs an rng")
    for layer, (W, b) in enumerate(zip(params.weights, params.biases)):
        inputs.append(h)
        h = h @ W
        h += b
        if layer < params.depth - 1:
            relu_dropout(h, p, rng)
    return h, {"inputs": inputs, "dropout_rate": p}


def forward(params: ClassifierParams, Z: np.ndarray) -> np.ndarray:
    """Eval-mode logits of the head; the hidden layers run in row blocks."""
    h = np.asarray(Z, dtype=np.float64)
    if params.depth > 1:
        h = relu_layers(h, params.weights[:-1], params.biases[:-1])
    return h @ params.weights[-1] + params.biases[-1]


def backward(
    params: ClassifierParams, cache: dict, dlogits: np.ndarray
) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """Backpropagate dlogits; returns (dS0, weight grads, bias grads).

    dS0 is the gradient at layer 0's pre-activation Z W0 + b0, so
    dZ = dS0 @ W0.T; callers that need dZ form it themselves. The cache is
    consumed: each layer's input leaves it once that layer's weight
    gradient and rectifier mask are formed, before the next gradient is
    allocated, so a cache serves one backward.
    """
    inputs, p = cache["inputs"], cache["dropout_rate"]
    d_weights = [np.empty(0)] * params.depth
    d_biases = [np.empty(0)] * params.depth
    g = dlogits
    for layer in range(params.depth - 1, -1, -1):
        h = inputs.pop()
        d_weights[layer] = h.T @ g
        d_biases[layer] = g.sum(axis=0)
        if layer > 0:
            alive = h > 0.0
            del h
            g = g @ params.weights[layer].T
            relu_dropout_grad(g, alive, p)
    return g, d_weights, d_biases


def softmax_predict(H: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction; rows sum to one."""
    H = np.asarray(H, dtype=np.float64)
    shifted = H - H.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def softmax_vjp(P: np.ndarray, dP: np.ndarray) -> np.ndarray:
    """Pull a gradient on probabilities back to the logits."""
    inner = np.sum(P * dP, axis=1, keepdims=True)
    return P * (dP - inner)


def softmax_cross_entropy(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[np.ndarray, float, np.ndarray]:
    """(P, loss, dlogits): softmax, mean cross-entropy and its logit gradient.

    Every row is scored: P is softmax_predict(logits), the loss is
    -mean(log(max(P[row, label], 1e-12))) and dlogits is
    (P - onehot(labels)) / rows.
    """
    rows = logits.shape[0]
    if rows == 0:
        raise ValueError("empty mask")
    P = softmax_predict(logits)
    picked = P[np.arange(rows), labels]
    loss = float(-np.mean(np.log(np.clip(picked, 1e-12, None))))
    onehot = np.zeros_like(P)
    onehot[np.arange(rows), labels] = 1.0
    return P, loss, (P - onehot) / rows


def _l2_penalty(params: ClassifierParams, weight_decay: float) -> float:
    return 0.5 * weight_decay * sum(float(np.sum(w**2)) for w in params.weights)


# Elements per chunk of an Adam step: 32768 float64 values are 256 KiB, so a
# chunk of x, g, m, v and the two scratch buffers stays in L2 across the
# step's 14 passes.
ADAM_CHUNK = 32768


class AdamState:
    """Adam over a fixed list of C-contiguous tensors, which each step moves in place.

    Per-tensor first/second moment buffers carry the bias correction.
    Moments update in place. Each step runs over ADAM_CHUNK-element chunks
    of the flattened tensors and builds its update in one chunk-sized pair
    of scratch buffers, with the same elementwise operations in the same
    order as the textbook formula, so results match it bit for bit
    whatever the chunk size.
    """

    def __init__(self, tensors: list[np.ndarray]):
        if not all(x.flags.c_contiguous for x in tensors):
            raise ValueError("AdamState moves C-contiguous tensors only")
        self.tensors = tensors
        self.m = [np.zeros(x.shape) for x in tensors]
        self.v = [np.zeros(x.shape) for x in tensors]
        chunk = min(ADAM_CHUNK, max((x.size for x in tensors), default=0))
        self._num, self._den = np.empty(chunk), np.empty(chunk)
        self.t = 0

    def step(self, grads: list[np.ndarray], lr: float) -> None:
        """One update; grads holds one gradient per tensor, in the same order."""
        self.t += 1
        b1, b2, eps = 0.9, 0.999, 1e-8
        c1, c2 = 1.0 - b1**self.t, 1.0 - b2**self.t
        for x, g, m, v in zip(self.tensors, grads, self.m, self.v):
            x, g, m, v = x.reshape(-1), np.ravel(g), m.reshape(-1), v.reshape(-1)
            for lo in range(0, x.size, ADAM_CHUNK):
                hi = min(lo + ADAM_CHUNK, x.size)
                xc, gc, mc, vc = x[lo:hi], g[lo:hi], m[lo:hi], v[lo:hi]
                num, den = self._num[: hi - lo], self._den[: hi - lo]
                # m = b1 * m + (1 - b1) * g
                np.multiply(gc, 1.0 - b1, out=num)
                mc *= b1
                mc += num
                # v = b2 * v + (1 - b2) * g**2
                np.square(gc, out=den)
                den *= 1.0 - b2
                vc *= b2
                vc += den
                # x -= lr * (m / c1) / (sqrt(v / c2) + eps)
                np.divide(mc, c1, out=num)
                num *= lr
                np.divide(vc, c2, out=den)
                np.sqrt(den, out=den)
                den += eps
                num /= den
                xc -= num


def train_classifier(
    Z: np.ndarray,
    labels: np.ndarray,
    mask: np.ndarray,
    params: ClassifierParams,
    cfg: PipelineConfig,
    seed: int,
) -> tuple[ClassifierParams, list[float]]:
    """Train on masked rows of Z; returns final params and the loss trajectory.

    cfg supplies the epoch count E1, the Adam learning rate lr and
    weight_decay; seed seeds the dropout stream. Only the masked rows
    are read: they are sliced out once, and each epoch forwards and
    backpropagates all of them, so dropout masks are drawn over those rows
    alone. The loss is mean cross-entropy over the masked rows plus
    0.5 * weight_decay * ||W||^2 over weight matrices. Deterministic for a
    fixed seed.

    Raises:
        DivergedError: on the first epoch with a non-finite loss.
    """
    Z = np.asarray(Z, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        raise ValueError("empty mask")
    params = params.copy()
    rng = np.random.default_rng(seed)
    if int(labels.max()) >= params.weights[-1].shape[1]:
        raise ValueError("label outside the classifier's output range")
    train_idx = np.flatnonzero(mask)
    Z_train, labels_train = Z[train_idx], labels[train_idx]

    step = AdamState(params.weights + params.biases).step

    losses: list[float] = []
    for epoch in range(cfg.E1):
        logits, cache = forward_cache(params, Z_train, rng)
        _, loss, dlogits = softmax_cross_entropy(logits, labels_train)
        loss += _l2_penalty(params, cfg.weight_decay)
        if not np.isfinite(loss):
            raise DivergedError(epoch)
        losses.append(loss)

        # dS0 is R x hidden and unused: drop it now, not at the next epoch's end
        d_w, d_b = backward(params, cache, dlogits)[1:]
        for i in range(params.depth):
            d_w[i] = d_w[i] + cfg.weight_decay * params.weights[i]
        step(d_w + d_b, cfg.lr)
    return params, losses
