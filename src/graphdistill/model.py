"""Feed-forward classification head trained with hand-written gradients.

The head maps smoothed node representations to class logits. Depth 1 is a
single linear map; deeper heads put a rectifier and optional inverted
dropout between affine layers. Backward passes are explicit so each
gradient can be checked against finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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


@dataclass
class TrainConfig:
    epochs: int = 80
    learning_rate: float = 0.01
    weight_decay: float = 5e-4
    seed: int = 0
    batch_size: int = 0  # 0 = full batch
    optimizer: str = "gd"  # "gd" is the reference path; "adam" is supported


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


def forward_cache(
    params: ClassifierParams,
    Z: np.ndarray,
    train_mode: bool = False,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, dict]:
    """Forward pass keeping per-layer inputs and activation masks for backward."""
    h = np.asarray(Z, dtype=np.float64)
    inputs: list[np.ndarray] = []
    act: list[tuple[np.ndarray, np.ndarray | None]] = []
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
        if train_mode and p > 0.0:
            if rng is None:
                raise ValueError("train_mode dropout needs an rng")
            keep = rng.random(h.shape) >= p
            scale = keep / (1.0 - p)
            h = h * scale
        act.append((mask, scale))
    return h, {"inputs": inputs, "act": act}


def forward(
    params: ClassifierParams,
    Z: np.ndarray,
    train_mode: bool = False,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    return forward_cache(params, Z, train_mode, rng)[0]


def backward(
    params: ClassifierParams, cache: dict, dlogits: np.ndarray
) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """Backpropagate dlogits; returns (dZ, weight grads, bias grads)."""
    inputs, act = cache["inputs"], cache["act"]
    d_weights = [np.empty(0)] * params.depth
    d_biases = [np.empty(0)] * params.depth
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


def cross_entropy(P: np.ndarray, labels: np.ndarray, mask: np.ndarray) -> float:
    """Mean negative log-probability of the true class over masked rows."""
    mask = np.asarray(mask, dtype=bool)
    count = int(mask.sum())
    if count == 0:
        raise ValueError("empty mask")
    picked = P[mask, np.asarray(labels)[mask]]
    return float(-np.mean(np.log(np.clip(picked, 1e-12, None))))


def _l2_penalty(params: ClassifierParams, weight_decay: float) -> float:
    return 0.5 * weight_decay * sum(float(np.sum(w**2)) for w in params.weights)


class AdamState:
    """Per-tensor first/second moment buffers with bias correction.

    Moments update in place and each step is built in two preallocated
    scratch buffers per tensor, with the same operations in the same order
    as the textbook formula, so results match it bit for bit.
    """

    def __init__(self, shapes: list[tuple[int, ...]]):
        self.m = [np.zeros(s) for s in shapes]
        self.v = [np.zeros(s) for s in shapes]
        self._num = [np.empty(s) for s in shapes]
        self._den = [np.empty(s) for s in shapes]
        self.t = 0

    def step(
        self, tensors: list[np.ndarray], grads: list[np.ndarray], lr: float
    ) -> None:
        self.t += 1
        b1, b2, eps = 0.9, 0.999, 1e-8
        c1, c2 = 1.0 - b1**self.t, 1.0 - b2**self.t
        for x, g, m, v, num, den in zip(
            tensors, grads, self.m, self.v, self._num, self._den
        ):
            # m = b1 * m + (1 - b1) * g
            np.multiply(g, 1.0 - b1, out=num)
            m *= b1
            m += num
            # v = b2 * v + (1 - b2) * g**2
            np.square(g, out=den)
            den *= 1.0 - b2
            v *= b2
            v += den
            # x -= lr * (m / c1) / (sqrt(v / c2) + eps)
            np.divide(m, c1, out=num)
            num *= lr
            np.divide(v, c2, out=den)
            np.sqrt(den, out=den)
            den += eps
            num /= den
            x -= num


def train_classifier(
    Z: np.ndarray,
    labels: np.ndarray,
    mask: np.ndarray,
    params: ClassifierParams,
    cfg: TrainConfig,
) -> tuple[ClassifierParams, list[float]]:
    """Train on masked rows of Z; returns final params and the loss trajectory.

    Only the masked rows are read: they are sliced out once, and each epoch
    forwards and backpropagates just its batch (all masked rows when
    batch_size is 0), so dropout masks are drawn over those rows alone.
    The loss is mean cross-entropy over the batch plus
    0.5 * weight_decay * ||W||^2 over weight matrices. Deterministic for a
    fixed config seed.

    Raises:
        DivergedError: on the first epoch with a non-finite loss.
    """
    Z = np.asarray(Z, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        raise ValueError("empty mask")
    params = params.copy()
    rng = np.random.default_rng(cfg.seed)
    num_classes = params.weights[-1].shape[1]
    if int(labels.max()) >= num_classes:
        raise ValueError("label outside the classifier's output range")
    train_idx = np.flatnonzero(mask)
    n_train = train_idx.shape[0]
    Z_train, labels_train = Z[train_idx], labels[train_idx]
    onehot_train = np.zeros((n_train, num_classes))
    onehot_train[np.arange(n_train), labels_train] = 1.0

    adam: AdamState | None = None
    if cfg.optimizer == "adam":
        shapes = [w.shape for w in params.weights] + [b.shape for b in params.biases]
        adam = AdamState(shapes)
    elif cfg.optimizer != "gd":
        raise ValueError(f"unknown optimizer {cfg.optimizer!r}")

    losses: list[float] = []
    for epoch in range(cfg.epochs):
        if 0 < cfg.batch_size < n_train:
            batch = np.sort(rng.choice(n_train, size=cfg.batch_size, replace=False))
            Zb, yb, onehot = Z_train[batch], labels_train[batch], onehot_train[batch]
        else:
            Zb, yb, onehot = Z_train, labels_train, onehot_train
        rows = Zb.shape[0]

        logits, cache = forward_cache(params, Zb, train_mode=True, rng=rng)
        P = softmax_predict(logits)
        loss = cross_entropy(P, yb, np.ones(rows, dtype=bool)) + _l2_penalty(
            params, cfg.weight_decay
        )
        if not np.isfinite(loss):
            raise DivergedError(epoch)
        losses.append(loss)

        dlogits = (P - onehot) / float(rows)
        _, d_w, d_b = backward(params, cache, dlogits)
        for i in range(params.depth):
            d_w[i] = d_w[i] + cfg.weight_decay * params.weights[i]

        if adam is not None:
            adam.step(params.weights + params.biases, d_w + d_b, cfg.learning_rate)
        else:
            for i in range(params.depth):
                params.weights[i] -= cfg.learning_rate * d_w[i]
                params.biases[i] -= cfg.learning_rate * d_b[i]
    return params, losses
