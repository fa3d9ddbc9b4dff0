"""Dense numeric kernel: activations, binary cross-entropy, dropout and Adam.

Everything runs in float64. Functions are pure unless the name says
otherwise (`adam_step` updates parameters in place, which is the point).

A dropout mask costs one byte per element: its uniforms are drawn
DROPOUT_CHUNK at a time into one small reused buffer, never as a float64
array of the mask's shape.
"""

import numpy as np

from .errors import InvalidArgument, TrainingDivergence

PROB_EPS = 1e-12

# uniforms per draw of `dropout_mask`; the generator's stream does not depend on it
DROPOUT_CHUNK = 1 << 15


def relu(x):
    return np.maximum(x, 0.0)


def relu_grad(upstream, preact):
    """Backward of relu; the subgradient at exactly 0 is taken as 0."""
    return np.where(preact > 0.0, upstream, 0.0)


def sigmoid(x):
    """Logistic function, computed from exp(-|x|) so it never overflows."""
    x = np.asarray(x, dtype=np.float64)
    z = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + z), z / (1.0 + z))


def bce_loss(y_hat, y):
    """Mean binary cross-entropy over the batch.

    Predictions are clamped to [1e-12, 1 - 1e-12]; the loss is undefined at
    exactly 0 or 1.
    """
    y_hat = np.asarray(y_hat, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if y_hat.shape != y.shape:
        raise InvalidArgument(f"length mismatch: {y_hat.shape} vs {y.shape}")
    p = np.clip(y_hat, PROB_EPS, 1.0 - PROB_EPS)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


def bce_logit_grad(probs, y):
    """Gradient of mean BCE composed with sigmoid, taken at the logits.

    (p - y) / n is exact for the composite and needs no clamping.
    """
    probs = np.asarray(probs, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    return (probs - y) / probs.shape[0]


def dropout_mask(shape, rate, rng=None, training=False):
    """Survivor mask of inverted dropout, or None in eval mode or at rate 0.

    The mask equals `rng.random(shape) >= rate` and leaves `rng` where that
    draw would, but draws DROPOUT_CHUNK uniforms at a time into one buffer.
    """
    if not 0.0 <= rate < 1.0:
        raise InvalidArgument(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return None
    mask = np.empty(shape, dtype=bool)
    flat = mask.reshape(-1)
    buf = np.empty(min(DROPOUT_CHUNK, flat.size))
    for start in range(0, flat.size, DROPOUT_CHUNK):
        uniforms = rng.random(out=buf[: flat.size - start])
        np.greater_equal(uniforms, rate, out=flat[start:start + uniforms.size])
    return mask


def dropout(x, rate, rng=None, training=False):
    """Inverted dropout. Returns (output, mask); mask is None in eval mode.

    Survivors are scaled by 1/(1-rate) so the expectation is unchanged.
    """
    mask = dropout_mask(x.shape, rate, rng, training)
    if mask is None:
        return x, None
    return x * mask / (1.0 - rate), mask


def dropout_grad(upstream, mask, rate):
    if mask is None:
        return upstream
    return upstream * mask / (1.0 - rate)


class AdamState:
    """Per-parameter moment buffers plus the shared step counter."""

    def __init__(self, params, beta1=0.9, beta2=0.999, eps=1e-8):
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]


def adam_step(params, grads, state, lr, weight_decay=0.0):
    """One in-place Adam update with bias correction.

    L2 decay is folded into the gradient (g + wd * p) before the moment
    updates. lr = 0 is allowed and leaves parameters untouched.
    """
    if lr < 0.0:
        raise InvalidArgument(f"learning rate must be >= 0, got {lr}")
    if len(params) != len(grads) or len(params) != len(state.m):
        raise InvalidArgument("params, grads, and state must align")
    for p, g in zip(params, grads):
        if p.shape != g.shape:
            raise InvalidArgument(f"shape mismatch: param {p.shape}, grad {g.shape}")
        if not np.all(np.isfinite(g)):
            raise TrainingDivergence("non-finite gradient in adam_step")
    state.step_count += 1
    t = state.step_count
    c1 = 1.0 - state.beta1 ** t
    c2 = 1.0 - state.beta2 ** t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        g = g + weight_decay * p
        m[:] = state.beta1 * m + (1.0 - state.beta1) * g
        v[:] = state.beta2 * v + (1.0 - state.beta2) * (g * g)
        p -= lr * (m / c1) / (np.sqrt(v / c2) + state.eps)
