import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainrisk import nn
from chainrisk.errors import InvalidArgument, TrainingDivergence
from chainrisk.nn import (
    AdamState,
    adam_step,
    bce_logit_grad,
    bce_loss,
    dropout,
    dropout_mask,
    relu,
    relu_grad,
    sigmoid,
)
from chainrisk.rng import make_rng

from conftest import grad_check


class TestActivations:
    def test_relu_values(self):
        x = np.array([[-2.0, 3.0, 0.0]])
        assert np.array_equal(relu(x), [[0.0, 3.0, 0.0]])

    def test_relu_grad_bits(self):
        """Live units keep upstream's bits, signed zero, infinities and NaN included;
        dead units, at a pre-activation of 0, -0.0, below 0 or NaN, give +0.0."""
        special = [-0.0, 0.0, np.inf, -np.inf, np.nan, -np.nan, 2.5, -1e-300]
        up = np.array([special * 2, special[::-1] * 2])
        pre = np.array([[1.0] * 8 + [0.0, -0.0, -1.0, np.nan, -np.inf, 0.0, -2.0, np.nan],
                        [0.0, -0.0, -1.0, np.nan, -np.inf, 0.0, -2.0, np.nan] + [5e-324] * 7 + [np.inf]])
        want = np.where(pre > 0.0, up, 0.0)  # np.where copies the chosen bits
        assert relu_grad(up, pre).view(np.uint64).tolist() == want.view(np.uint64).tolist()
        inplace = up.copy()
        assert relu_grad(inplace, pre, out=inplace) is inplace
        assert inplace.view(np.uint64).tolist() == want.view(np.uint64).tolist()

    def test_sigmoid_midpoint(self):
        assert sigmoid(np.array([0.0]))[0] == 0.5

    def test_sigmoid_symmetry(self):
        x = np.linspace(-30, 30, 101)
        assert np.allclose(sigmoid(x) + sigmoid(-x), 1.0, atol=1e-15)

    def test_sigmoid_extreme_negative_stays_positive_and_finite(self):
        out = sigmoid(np.array([-710.0]))
        assert np.isfinite(out[0])
        assert out[0] > 0.0

    def test_sigmoid_extreme_positive(self):
        out = sigmoid(np.array([710.0]))
        assert np.isfinite(out[0])
        assert out[0] == 1.0 or out[0] < 1.0 + 1e-15


class TestBce:
    def test_confident_correct_is_near_zero(self):
        assert bce_loss(np.array([1.0]), np.array([1])) < 1e-11

    def test_coin_flip_is_ln2(self):
        loss = bce_loss(np.array([0.5, 0.5]), np.array([1, 0]))
        assert abs(loss - math.log(2.0)) < 1e-15

    def test_matches_scalar_loop_oracle(self, rng):
        y_hat = rng.uniform(0.01, 0.99, size=32)
        y = rng.integers(0, 2, size=32)
        total = 0.0
        for p, label in zip(y_hat.tolist(), y.tolist()):
            total += -(label * math.log(p) + (1 - label) * math.log(1.0 - p))
        assert abs(bce_loss(y_hat, y) - total / 32) < 1e-12

    def test_nonnegative_over_random_batches(self, rng):
        for _ in range(50):
            y_hat = rng.uniform(0.0, 1.0, size=16)
            y = rng.integers(0, 2, size=16)
            assert bce_loss(y_hat, y) >= 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidArgument):
            bce_loss(np.array([0.5, 0.5]), np.array([1]))

    def test_logit_grad_matches_finite_difference(self, rng):
        logits = rng.normal(size=8)
        y = rng.integers(0, 2, size=8).astype(float)

        def f(params):
            (z,) = params
            probs = sigmoid(z)
            return bce_loss(probs, y), [bce_logit_grad(probs, y)]

        assert grad_check(f, [logits]) < 1e-9


class TestAdam:
    def test_zero_grad_zero_decay_is_noop(self):
        p = np.array([[1.0, -2.0]])
        state = AdamState([p])
        adam_step([p], [np.zeros_like(p)], state, lr=0.01)
        assert np.array_equal(p, [[1.0, -2.0]])

    def test_first_step_is_bias_corrected(self):
        # m_hat = g, v_hat = g^2 after one step, so the move is -lr * g/|g|
        p = np.array([0.0])
        state = AdamState([p])
        adam_step([p], [np.array([1.0])], state, lr=0.001)
        assert abs(p[0] + 0.001) < 1e-9

    def test_decay_only_shrinks_parameter(self):
        p = np.array([1.0])
        state = AdamState([p])
        adam_step([p], [np.zeros(1)], state, lr=0.001, weight_decay=1e-4)
        assert p[0] < 1.0

    def test_zero_learning_rate_freezes_parameters(self):
        p = np.array([3.0, -1.0])
        state = AdamState([p])
        for _ in range(5):
            adam_step([p], [np.array([1.0, 2.0])], state, lr=0.0)
        assert np.array_equal(p, [3.0, -1.0])

    def test_nonfinite_gradient_raises(self):
        p = np.array([1.0])
        state = AdamState([p])
        with pytest.raises(TrainingDivergence):
            adam_step([p], [np.array([np.nan])], state, lr=0.001)

    def test_step_counter_increases(self):
        p = np.array([1.0])
        state = AdamState([p])
        adam_step([p], [np.ones(1)], state, lr=0.001)
        adam_step([p], [np.ones(1)], state, lr=0.001)
        assert state.step_count == 2


class TestDropout:
    def test_rate_zero_is_identity(self):
        x = np.arange(6.0).reshape(2, 3)
        out, mask = dropout(x, 0.0, make_rng(0, 9), training=True)
        assert mask is None
        assert np.array_equal(out, x)

    def test_eval_mode_is_identity(self):
        x = np.ones((4, 4))
        out, mask = dropout(x, 0.9, make_rng(0, 9), training=False)
        assert mask is None
        assert np.array_equal(out, x)

    def test_inverted_scaling_preserves_mean(self):
        x = np.ones((1000, 100))
        out, _ = dropout(x, 0.5, make_rng(7, 9), training=True)
        assert 0.99 <= out.mean() <= 1.01

    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.integers(0, 3),
        width=st.sampled_from([1, 7, 64]),
        offset=st.integers(-300, 300),
        rate=st.floats(0.0, 1.0, exclude_max=True),
        seed=st.integers(0, 2**16),
        chunk=st.sampled_from([8, 1 << 10, nn.DROPOUT_CHUNK]),
    )
    def test_chunked_mask_is_the_one_shot_draw(self, rows, width, offset, rate, seed, chunk):
        """Sizes below, at and across DROPOUT_CHUNK, at any chunk size, give the
        one-shot lane draw `lanes(random_raw(ceil(size / 4))) >= round(rate * 65536)`
        and leave the generator ceil(size / 4) words on."""
        size = max(0, rows * nn.DROPOUT_CHUNK + offset)
        shape = (size // width, width) if size % width == 0 else (size,)
        chunked, whole = make_rng(seed, 9), make_rng(seed, 9)
        with mock.patch.object(nn, "DROPOUT_CHUNK", chunk):
            mask = dropout_mask(shape, rate, chunked, training=True)
        if rate == 0.0:
            assert mask is None
            return
        assert mask.shape == shape and mask.dtype == bool
        words = whole.bit_generator.random_raw(-(-size // 4))
        lanes = (words[:, None] >> np.arange(0, 64, 16, dtype=np.uint64)) & np.uint64(0xFFFF)
        assert np.array_equal(mask.reshape(-1), lanes.reshape(-1)[:size] >= round(rate * 65536))
        assert chunked.bit_generator.random_raw(4).tolist() == whole.bit_generator.random_raw(4).tolist()

    @pytest.mark.parametrize("rate", [0.05, 0.1, 0.3, 0.5, 0.9])
    def test_keep_share_is_binomial(self, rate):
        """The keep count of 10^6 elements lies within 5 standard deviations of
        Binomial(10^6, 1 - T / 65536), and T / 65536 within 2^-17 of the rate."""
        n, drop = 10**6, round(rate * 65536) / 65536
        assert abs(drop - rate) <= 2.0**-17
        kept = int(dropout_mask((n,), rate, make_rng(11, 9), training=True).sum())
        assert abs(kept - n * (1.0 - drop)) <= 5.0 * math.sqrt(n * drop * (1.0 - drop))

    def test_rate_zero_and_eval_mode_draw_nothing(self):
        for rate, training in ((0.0, True), (0.5, False)):
            rng = make_rng(3, 9)
            assert dropout_mask((100, 7), rate, rng, training=training) is None
            assert rng.bit_generator.random_raw() == make_rng(3, 9).bit_generator.random_raw()

    @pytest.mark.parametrize("rate", [1.0 - 2.0**-17, np.nextafter(1.0, 0.0)])
    def test_threshold_65536_keeps_nothing(self, rate):
        """Rates at or above 1 - 2^-17 round to T = 65536, which no 16-bit lane
        reaches; the draw still takes its ceil(size / 4) words."""
        rng, ref = make_rng(5, 9), make_rng(5, 9)
        out, mask = dropout(np.ones((33, 3)), rate, rng, training=True)
        assert not mask.any() and not out.any()
        ref.bit_generator.random_raw(25)
        assert rng.bit_generator.random_raw() == ref.bit_generator.random_raw()

    def test_bad_rate_rejected(self):
        with pytest.raises(InvalidArgument):
            dropout(np.ones(3), 1.0, make_rng(0, 9), training=True)


class TestGradCheck:
    def test_sum_of_squares_is_exact(self):
        p = np.array([[1.0, -2.0], [0.5, 3.0]])

        def f(params):
            (w,) = params
            return float(np.sum(w * w)), [2.0 * w]

        assert grad_check(f, [p]) < 1e-9

    def test_constant_function_has_zero_gradients(self):
        p = np.array([1.0, 2.0])

        def f(params):
            return 42.0, [np.zeros_like(params[0])]

        assert grad_check(f, [p]) < 1e-12
