import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sentmatch import tensor as T
from sentmatch.errors import DataError, ShapeError
from sentmatch.heads import cross_entropy, head_forward, hinge_loss, pool_meanmax, pool_splice

import oracles


class TestPoolSplice:
    def test_single_row_duplicates_itself(self, rng):
        z_data = rng.normal(size=(1, 4))
        out = pool_splice(T.constant(z_data), np.ones(1))
        np.testing.assert_array_equal(out.data, np.concatenate([z_data, z_data], axis=1))

    def test_unpadded_takes_first_and_last(self, rng):
        z_data = rng.normal(size=(3, 4))
        out = pool_splice(T.constant(z_data), np.ones(3))
        np.testing.assert_array_equal(out.data.ravel(), np.concatenate([z_data[0], z_data[2]]))

    def test_mask_moves_the_last_index(self, rng):
        z_data = rng.normal(size=(5, 4))
        mask = np.array([1.0, 1.0, 1.0, 0.0, 0.0])
        out = pool_splice(T.constant(z_data), mask)
        np.testing.assert_array_equal(out.data.ravel(), np.concatenate([z_data[0], z_data[2]]))

    def test_fully_masked_sequence_raises(self, rng):
        with pytest.raises(DataError, match="masked"):
            pool_splice(T.constant(rng.normal(size=(3, 4))), np.zeros(3))

    def test_meanmax_variant_shape_and_values(self, rng):
        z_data = rng.normal(size=(4, 3))
        mask = np.array([1.0, 1.0, 1.0, 0.0])
        out = pool_meanmax(T.constant(z_data), mask)
        assert out.shape == (1, 6)
        np.testing.assert_allclose(out.data[0, :3], z_data[:3].mean(axis=0), atol=1e-12)
        np.testing.assert_allclose(out.data[0, 3:], z_data[:3].max(axis=0), atol=1e-12)


class TestHeadForward:
    def test_zero_weights_give_uniform_classes(self):
        pooled = T.constant(np.random.default_rng(0).normal(size=(1, 8)))
        out = head_forward(pooled, T.constant(np.zeros((8, 3))), T.constant(np.zeros((1, 3))), "classify")
        np.testing.assert_allclose(out.data, np.full((1, 3), 1 / 3), atol=1e-15)

    def test_zero_weights_give_zero_score(self):
        pooled = T.constant(np.random.default_rng(0).normal(size=(1, 8)))
        out = head_forward(pooled, T.constant(np.zeros((8, 1))), T.constant(np.zeros((1, 1))), "rank")
        assert out.data[0, 0] == 0.0

    def test_matches_direct_formula_oracle(self, rng):
        pooled_data = rng.normal(size=(1, 8))
        w = rng.normal(size=(8, 3))
        b = rng.normal(size=(1, 3))
        out = head_forward(T.constant(pooled_data), T.constant(w), T.constant(b), "classify")
        np.testing.assert_allclose(out.data[0], oracles.head_direct(pooled_data[0], w, b[0], "classify"), atol=1e-12)
        score = head_forward(T.constant(pooled_data), T.constant(w[:, :1]), T.constant(b[:, :1]), "rank")
        np.testing.assert_allclose(score.data[0], oracles.head_direct(pooled_data[0], w[:, :1], b[0, :1], "rank"), atol=1e-12)

    def test_rank_score_bounded(self, rng):
        pooled = T.constant(rng.normal(size=(1, 8)) * 50)
        out = head_forward(pooled, T.constant(rng.normal(size=(8, 1))), T.constant(np.zeros((1, 1))), "rank")
        assert -1.0 <= out.data[0, 0] <= 1.0

    def test_width_mismatch_raises(self, rng):
        with pytest.raises(ShapeError, match=r"\(1, 8\) x \(6, 3\)"):
            head_forward(T.constant(rng.normal(size=(1, 8))), T.constant(rng.normal(size=(6, 3))), T.constant(np.zeros((1, 3))), "classify")


class TestCrossEntropy:
    def test_perfect_one_hot_prediction_is_zero(self):
        probs = T.constant([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        assert cross_entropy(probs, [0, 2]).item() == 0.0

    def test_uniform_prediction_is_log_k(self):
        probs = T.constant([[1 / 3, 1 / 3, 1 / 3]])
        assert abs(cross_entropy(probs, [1]).item() - math.log(3)) <= 1e-9

    def test_matches_direct_summation_oracle(self, rng):
        raw = rng.uniform(0.05, 1.0, size=(6, 4))
        probs_data = raw / raw.sum(axis=1, keepdims=True)
        labels = rng.integers(0, 4, size=6)
        got = cross_entropy(T.constant(probs_data), labels).item()
        assert abs(got - oracles.cross_entropy_direct(probs_data, labels)) <= 1e-10

    def test_label_out_of_range_raises(self):
        with pytest.raises(DataError, match="label"):
            cross_entropy(T.constant([[0.5, 0.5]]), [2])

    def test_nonnegative(self, rng):
        raw = rng.uniform(0.05, 1.0, size=(4, 3))
        probs = raw / raw.sum(axis=1, keepdims=True)
        assert cross_entropy(T.constant(probs), rng.integers(0, 3, size=4)).item() >= 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        raw = rng.uniform(0.2, 1.0, size=(3, 3))
        probs = T.parameter(raw / raw.sum(axis=1, keepdims=True))
        labels = rng.integers(0, 3, size=3)
        report = T.grad_check(lambda ins: cross_entropy(ins[0], labels), [probs], tolerance=1e-4)
        assert report.passed, report


class TestHingeLoss:
    def test_satisfied_margin_is_zero(self):
        assert hinge_loss(T.constant([[1.5]]), T.constant([[0.2]])).item() == 0.0

    def test_equal_scores_cost_one(self):
        assert hinge_loss(T.constant([[0.4]]), T.constant([[0.4]])).item() == 1.0

    def test_partial_margin(self):
        assert abs(hinge_loss(T.constant([[0.9]]), T.constant([[0.3]])).item() - 0.4) <= 1e-15

    def test_batch_average_matches_oracle(self, rng):
        pos = rng.uniform(-1, 1, size=(5, 1))
        neg = rng.uniform(-1, 1, size=(5, 1))
        got = hinge_loss(T.constant(pos), T.constant(neg)).item()
        assert abs(got - oracles.hinge_direct(pos, neg)) <= 1e-12

    def test_a_margin_far_below_an_ulp_of_one_still_costs(self):
        # (neg - pos) + 1 would round this margin away to a loss of 0
        assert hinge_loss(T.constant([[1.0]]), T.constant([[1.156e-124]])).item() == 1.156e-124

    @given(st.floats(-1, 1), st.floats(-1, 1))
    def test_nonnegative_and_zero_iff_margin_met(self, p, q):
        loss = hinge_loss(T.constant([[p]]), T.constant([[q]])).item()
        assert loss >= 0.0
        if loss == 0.0:
            assert 1.0 - p + q <= 0.0
        else:
            assert 1.0 - p + q > 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        pos = rng.uniform(-0.9, 0.9, size=(4, 1))
        neg = rng.uniform(-0.9, 0.9, size=(4, 1))
        # keep the margin away from the hinge kink so the FD probe is valid
        gap = 1.0 - pos + neg
        pos = pos + np.where(np.abs(gap) < 1e-2, 0.02, 0.0)
        inputs = [T.parameter(pos), T.parameter(neg)]
        report = T.grad_check(lambda ins: hinge_loss(ins[0], ins[1]), inputs, tolerance=1e-4)
        assert report.passed, report
