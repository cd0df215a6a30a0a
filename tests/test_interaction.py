import numpy as np
import pytest

from sentmatch import interaction
from sentmatch import tensor as T
from sentmatch.interaction import h2p_attention, interact, merge, p2h_attention, self_attend, similarity

import oracles

STAGES = ("similarity", "h2p_attention", "p2h_attention", "merge", "self_attend")


def _watch_stages(spy):
    for stage in STAGES:
        spy(interaction, stage)
    return spy.calls


def _inter_params(rng, d, shared=False):
    w_h = T.parameter(rng.normal(size=(d, d)) * 0.5)
    w_p = w_h if shared else T.parameter(rng.normal(size=(d, d)) * 0.5)
    return {"inter.w_h": w_h, "inter.w_p": w_p}


class TestSimilarity:
    def test_symmetric_for_coinciding_inputs_and_shared_projection(self, rng):
        d = 5
        h_data = np.abs(rng.normal(size=(3, d)))
        w = T.constant(rng.normal(size=(d, d)))
        s = similarity(T.constant(h_data), T.constant(h_data.copy()), w, w)
        np.testing.assert_allclose(s.data, s.data.T, atol=1e-12)

    def test_single_token_sentences_give_1x1_grid(self, rng):
        d = 4
        s = similarity(
            T.constant(rng.normal(size=(1, d))),
            T.constant(rng.normal(size=(1, d))),
            T.constant(rng.normal(size=(d, d))),
            T.constant(rng.normal(size=(d, d))),
        )
        assert s.shape == (1, 1)

    def test_matches_direct_formula_oracle(self, rng):
        d = 6
        h_data = rng.normal(size=(3, d))
        p_data = rng.normal(size=(4, d))
        wh = rng.normal(size=(d, d))
        wp = rng.normal(size=(d, d))
        s = similarity(T.constant(h_data), T.constant(p_data), T.constant(wh), T.constant(wp))
        np.testing.assert_allclose(s.data, oracles.similarity_direct(h_data, p_data, wh, wp), atol=1e-12)


class TestH2PAttention:
    def test_single_candidate_copies_its_row(self, rng):
        p_data = rng.normal(size=(1, 4))
        s = T.constant(rng.normal(size=(3, 1)))
        out = h2p_attention(s, T.constant(p_data), np.ones(1))
        for t in range(3):
            np.testing.assert_allclose(out.data[t], p_data[0], atol=1e-15)

    def test_flat_rows_average_unmasked_candidates(self, rng):
        p_data = rng.normal(size=(4, 3))
        mask_b = np.array([1.0, 1.0, 1.0, 0.0])
        s = T.constant(np.zeros((2, 4)))
        out = h2p_attention(s, T.constant(p_data), mask_b)
        expected = p_data[:3].mean(axis=0)
        np.testing.assert_allclose(out.data, np.tile(expected, (2, 1)), atol=1e-12)

    def test_matches_direct_formula_oracle(self, rng):
        s_data = rng.normal(size=(3, 5))
        p_data = rng.normal(size=(5, 4))
        mask_b = np.array([1.0, 1.0, 1.0, 1.0, 0.0])
        out = h2p_attention(T.constant(s_data), T.constant(p_data), mask_b)
        np.testing.assert_allclose(out.data, oracles.h2p_direct(s_data, p_data, mask_b), atol=1e-12)

    def test_rows_stay_in_convex_hull_of_unmasked_candidates(self, rng):
        s_data = rng.normal(size=(4, 6)) * 3
        p_data = rng.normal(size=(6, 5))
        mask_b = np.array([1.0, 1.0, 1.0, 1.0, 0.0, 0.0])
        out = h2p_attention(T.constant(s_data), T.constant(p_data), mask_b).data
        lo = p_data[:4].min(axis=0) - 1e-12
        hi = p_data[:4].max(axis=0) + 1e-12
        assert np.all(out >= lo) and np.all(out <= hi)


class TestP2HAttention:
    def test_single_position_takes_whole_weight(self, rng):
        h_data = rng.normal(size=(1, 4))
        s = T.constant(rng.normal(size=(1, 3)))
        c, c_att = p2h_attention(s, T.constant(h_data), np.ones(1), np.ones(3))
        np.testing.assert_allclose(c.data[0], h_data[0], atol=1e-15)
        np.testing.assert_allclose(c_att.data, h_data, atol=1e-15)

    def test_constant_grid_averages_unmasked_rows(self, rng):
        h_data = rng.normal(size=(4, 3))
        mask_a = np.array([1.0, 1.0, 1.0, 0.0])
        s = T.constant(np.full((4, 2), 0.7))
        c, c_att = p2h_attention(s, T.constant(h_data), mask_a, np.ones(2))
        np.testing.assert_allclose(c.data[0], h_data[:3].mean(axis=0), atol=1e-12)
        assert c_att.shape == (4, 3)

    def test_matches_direct_formula_oracle(self, rng):
        s_data = rng.normal(size=(5, 4))
        h_data = rng.normal(size=(5, 6))
        mask_a = np.array([1.0, 1.0, 1.0, 1.0, 0.0])
        mask_b = np.array([1.0, 1.0, 1.0, 0.0])
        c, c_att = p2h_attention(T.constant(s_data), T.constant(h_data), mask_a, mask_b)
        oc, oc_att = oracles.p2h_direct(s_data, h_data, mask_a, mask_b)
        np.testing.assert_allclose(c.data[0], oc, atol=1e-12)
        np.testing.assert_allclose(c_att.data, oc_att, atol=1e-12)

    def test_vector_lies_in_convex_hull_of_unmasked_rows(self, rng):
        s_data = rng.normal(size=(5, 4)) * 2
        h_data = rng.normal(size=(5, 3))
        mask_a = np.array([1.0, 1.0, 1.0, 0.0, 0.0])
        c, _ = p2h_attention(T.constant(s_data), T.constant(h_data), mask_a, np.ones(4))
        lo = h_data[:3].min(axis=0) - 1e-12
        hi = h_data[:3].max(axis=0) + 1e-12
        assert np.all(c.data[0] >= lo) and np.all(c.data[0] <= hi)


class TestMerge:
    def test_all_ones_blocks(self):
        h = T.constant(np.ones((2, 3)))
        out = merge(h, T.constant(np.ones((2, 3))), T.constant(np.ones((2, 3))))
        np.testing.assert_array_equal(out.data, np.ones((2, 12)))

    def test_zero_attention_leaves_only_first_block(self, rng):
        h_data = rng.normal(size=(2, 3))
        zeros = T.constant(np.zeros((2, 3)))
        out = merge(T.constant(h_data), zeros, zeros)
        np.testing.assert_array_equal(out.data[:, :3], h_data)
        np.testing.assert_array_equal(out.data[:, 3:], np.zeros((2, 9)))

    def test_matches_oracle_bitwise(self, rng):
        h_data = rng.normal(size=(3, 4))
        q_data = rng.normal(size=(3, 4))
        c_data = rng.normal(size=(3, 4))
        out = merge(T.constant(h_data), T.constant(q_data), T.constant(c_data))
        expected = oracles.merge_direct(h_data, q_data, c_data)
        assert out.data.tobytes() == expected.tobytes()


class TestSelfAttend:
    def test_single_position_is_identity(self, rng):
        g_data = rng.normal(size=(1, 8))
        out = self_attend(T.constant(g_data), np.ones(1))
        np.testing.assert_array_equal(out.data, g_data)

    def test_orthogonal_equal_norm_rows_match_oracle(self):
        g_data = np.array([[2.0, 0.0, 0.0, 0.0], [0.0, 2.0, 0.0, 0.0], [0.0, 0.0, 2.0, 0.0]])
        out = self_attend(T.constant(g_data), np.ones(3))
        np.testing.assert_allclose(out.data, oracles.self_attend_direct(g_data, np.ones(3)), atol=1e-12)

    def test_matches_direct_formula_oracle(self, rng):
        g_data = rng.normal(size=(4, 6))
        mask_a = np.array([1.0, 1.0, 1.0, 0.0])
        out = self_attend(T.constant(g_data), mask_a)
        np.testing.assert_allclose(out.data, oracles.self_attend_direct(g_data, mask_a), atol=1e-12)


class TestInteract:
    def test_full_trace_contains_every_block(self, rng, spy):
        d = 4
        trace = _watch_stages(spy)
        z = interact(
            T.constant(rng.normal(size=(3, d))),
            T.constant(rng.normal(size=(5, d))),
            np.ones(3),
            np.ones(5),
            _inter_params(rng, d),
        )
        assert z.shape == (3, 4 * d)
        assert trace == list(STAGES)

    def test_only_h2p_zeroes_broadcast_block(self, rng, spy):
        d = 4
        h = T.constant(rng.normal(size=(3, d)))
        p = T.constant(rng.normal(size=(4, d)))
        trace = _watch_stages(spy)
        z = interact(h, p, np.ones(3), np.ones(4), _inter_params(rng, d), only_h2p=True, no_self_attention=True)
        np.testing.assert_array_equal(z.data[:, 3 * d :], np.zeros((3, d)))
        assert "p2h_attention" not in trace

    def test_only_p2h_zeroes_mixture_blocks(self, rng, spy):
        d = 4
        h = T.constant(rng.normal(size=(3, d)))
        p = T.constant(rng.normal(size=(4, d)))
        trace = _watch_stages(spy)
        z = interact(h, p, np.ones(3), np.ones(4), _inter_params(rng, d), only_p2h=True, no_self_attention=True)
        np.testing.assert_array_equal(z.data[:, d : 3 * d], np.zeros((3, 2 * d)))
        assert "h2p_attention" not in trace

    def test_self_attention_disabled_returns_merge_output(self, rng, spy):
        d = 3
        h = T.constant(rng.normal(size=(2, d)))
        p = T.constant(rng.normal(size=(3, d)))
        trace = _watch_stages(spy)
        z = interact(h, p, np.ones(2), np.ones(3), _inter_params(rng, d), no_self_attention=True)
        assert "self_attend" not in trace
        assert z.shape == (2, 4 * d)

    @pytest.mark.parametrize("seed", range(5))
    def test_end_to_end_gradients_match_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        d = 3
        params = _inter_params(rng, d)
        mask_a, mask_b = np.ones(3), np.ones(4)

        def op(ins):
            h, p, wh, wp = ins
            local = {"inter.w_h": wh, "inter.w_p": wp}
            return interact(h, p, mask_a, mask_b, local)

        inputs = [
            T.parameter(rng.normal(size=(3, d))),
            T.parameter(rng.normal(size=(4, d))),
            T.parameter(rng.normal(size=(d, d))),
            T.parameter(rng.normal(size=(d, d))),
        ]
        report = T.grad_check(op, inputs, tolerance=1e-4)
        assert report.passed, report

    def test_attention_weights_sum_to_one_over_unmasked(self, rng):
        d = 4
        h_data = rng.normal(size=(4, d))
        p_data = rng.normal(size=(5, d))
        mask_b = np.array([1.0, 1.0, 1.0, 0.0, 0.0])
        wh, wp = rng.normal(size=(d, d)), rng.normal(size=(d, d))
        s = oracles.similarity_direct(h_data, p_data, wh, wp)
        weights = T.softmax(T.constant(s + (1 - mask_b) * T.MASK_OFF), axis=1)
        np.testing.assert_allclose(weights.data.sum(axis=1), np.ones(4), atol=1e-12)
        assert np.all(weights.data[:, 3:] == 0.0)
