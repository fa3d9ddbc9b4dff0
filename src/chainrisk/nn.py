"""Dense numeric kernel: activations, binary cross-entropy, dropout and Adam.

Everything runs in float64. Functions are pure unless the name says
otherwise (`adam_step` updates parameters in place, which is the point).

A dropout mask costs one byte per element. Each 64-bit Philox word of the
dropout stream gives four masks: the word is read as four little-endian
16-bit lanes, low lane first, and an element survives when its lane is at
least T = round(rate * 65536). The realized drop probability is T / 65536,
within 2^-17 of `rate`. The words are drawn DROPOUT_CHUNK mask elements at
a time, never as a float64 array of the mask's shape.

A function with an `out=` parameter treats it as numpy's ufuncs do:
given, the result is written into it (the same values, bit for bit);
None allocates.
"""

import numpy as np

from .errors import InvalidArgument, TrainingDivergence

PROB_EPS = 1e-12

# mask elements per draw of `dropout_mask`: ceil(n / 4) Philox words for n
# elements, 64 KiB a chunk. A multiple of 4, so the stream does not depend on it
DROPOUT_CHUNK = 1 << 15
# 16-bit lanes per Philox word, and the values a lane takes
_LANES = 4
_LANE_VALUES = 1 << 16
# Adam's moment decay rates and the term that keeps its step finite
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def relu(x, out=None):
    return np.maximum(x, 0.0, out=out)


def relu_grad(upstream, preact, out=None):
    """Backward of relu: `upstream` where preact > 0, +0.0 elsewhere.

    The subgradient at exactly 0 is taken as 0. Live units keep upstream's
    bits, NaN, inf and -0.0 included, and dead units give +0.0 whatever
    upstream holds: the float64 bits are ANDed with an all-ones or all-zeros
    int64 word, widened from a one-byte mask in numpy's small cast buffers.
    `out` may be `upstream`.
    """
    upstream = np.asarray(upstream, dtype=np.float64)
    live = np.greater(preact, 0.0).view(np.int8)
    np.negative(live, out=live)  # 1 -> -1, all bits set
    out = np.empty(upstream.shape) if out is None else out
    np.bitwise_and(upstream.view(np.int64), live, out=out.view(np.int64))
    return out


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


def dropout_mask(shape, rate, rng=None, training=False, out=None):
    """Survivor mask of inverted dropout, or None in eval mode or at rate 0.

    Element i survives when 16-bit lane i of the words
    `rng.bit_generator.random_raw(ceil(size / 4))` (little-endian, low lane
    first) is at least round(rate * 65536), and `rng` advances by exactly
    those words; at a threshold of 65536 no element survives. The words are
    drawn DROPOUT_CHUNK elements at a time. `out`, a bool array of `shape`,
    takes the mask.
    """
    if not 0.0 <= rate < 1.0:
        raise InvalidArgument(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return None
    mask = np.empty(shape, dtype=bool) if out is None else out
    flat = mask.reshape(-1)
    threshold = round(rate * _LANE_VALUES)
    for start in range(0, flat.size, DROPOUT_CHUNK):
        dest = flat[start:start + DROPOUT_CHUNK]
        words = rng.bit_generator.random_raw(-(-dest.size // _LANES))
        lanes = words.astype("<u8", copy=False).view("<u2")
        np.greater_equal(lanes[: dest.size], threshold, out=dest)
    return mask


def dropout(x, rate, rng=None, training=False, out=(None, None)):
    """Inverted dropout. Returns (output, mask); mask is None in eval mode.

    Survivors are scaled by 1/(1-rate) so the expectation is unchanged.
    `out` is the pair (output, mask) to write into, as numpy's two-output
    ufuncs take it; in eval mode `x` itself comes back.
    """
    mask = dropout_mask(x.shape, rate, rng, training, out=out[1])
    if mask is None:
        return x, None
    return _scale_survivors(x, mask, rate, out[0]), mask


def dropout_grad(upstream, mask, rate, out=None):
    """Backward of `dropout`: the same scaling of the survivors. `out` may be `upstream`."""
    if mask is None:
        return upstream
    return _scale_survivors(upstream, mask, rate, out)


def _scale_survivors(x, mask, rate, out):
    out = np.multiply(x, mask, out=out)
    out /= 1.0 - rate
    return out


class AdamState:
    """Per-parameter moment buffers plus the shared step counter."""

    def __init__(self, params):
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
    c1 = 1.0 - ADAM_BETA1 ** t
    c2 = 1.0 - ADAM_BETA2 ** t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        g = g + weight_decay * p
        m[:] = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
        v[:] = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * (g * g)
        p -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
