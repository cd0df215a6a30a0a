import math

import numpy as np
import pytest

from sentmatch import encoder
from sentmatch import tensor as T
from sentmatch.encoder import align, encode_context, encode_pair, fuse

import oracles


def _params(rng, d, d_emb=None, kernel=3):
    d_emb = d if d_emb is None else d_emb
    scale = 0.4
    return {
        "enc.w_in": T.parameter(rng.normal(size=(d_emb, d)) * scale),
        "enc.conv1": T.parameter(rng.normal(size=(kernel, d, d)) * scale),
        "enc.conv2": T.parameter(rng.normal(size=(kernel, d, d)) * scale),
        "enc.w_att": T.parameter(rng.normal(size=(d, d)) * scale),
        "enc.w_c": T.parameter(rng.normal(size=(d, d)) * scale),
        "enc.w_q": T.parameter(rng.normal(size=(d, d)) * scale),
        "enc.w1": T.parameter(rng.normal(size=(4 * d, d)) * scale),
        "enc.w2": T.parameter(rng.normal(size=(4 * d, d)) * scale),
        "enc.w_merge": T.parameter(rng.normal(size=(2 * d, d)) * scale),
    }


class TestAlign:
    def test_single_positions_swap_rows(self, rng):
        d = 4
        c = T.constant(rng.normal(size=(1, d)))
        q = T.constant(rng.normal(size=(1, d)))
        w = T.constant(np.eye(d))
        c_al, q_al, _ = align(c, q, np.ones(1), np.ones(1), w, w)
        np.testing.assert_allclose(c_al.data, q.data, atol=1e-15)
        np.testing.assert_allclose(q_al.data, c.data, atol=1e-15)

    def test_symmetric_when_sides_coincide(self, rng):
        d = 5
        c_data = np.abs(rng.normal(size=(3, d)))
        c = T.constant(c_data)
        w = T.constant(np.eye(d))
        _, _, s = align(c, T.constant(c_data.copy()), np.ones(3), np.ones(3), w, w)
        np.testing.assert_allclose(s.data, s.data.T, atol=1e-12)

    def test_matches_direct_formula_oracle(self, rng):
        d = 6
        c_data = rng.normal(size=(3, d))
        q_data = rng.normal(size=(4, d))
        wc = rng.normal(size=(d, d))
        wq = rng.normal(size=(d, d))
        mask_a, mask_b = np.ones(3), np.ones(4)
        c_al, q_al, s = align(T.constant(c_data), T.constant(q_data), mask_a, mask_b, T.constant(wc), T.constant(wq))
        oc, oq, os_ = oracles.align_direct(c_data, q_data, wc, wq, mask_a, mask_b)
        np.testing.assert_allclose(s.data, os_, atol=1e-12)
        np.testing.assert_allclose(c_al.data, oc, atol=1e-12)
        np.testing.assert_allclose(q_al.data, oq, atol=1e-12)

    def test_masked_rows_are_zero_and_oracle_agrees_under_padding(self, rng):
        d = 5
        c_data = rng.normal(size=(4, d))
        q_data = rng.normal(size=(3, d))
        mask_a = np.array([1.0, 1.0, 0.0, 0.0])
        mask_b = np.array([1.0, 1.0, 1.0])
        wc, wq = rng.normal(size=(d, d)), rng.normal(size=(d, d))
        c_al, q_al, _ = align(T.constant(c_data), T.constant(q_data), mask_a, mask_b, T.constant(wc), T.constant(wq))
        oc, oq, _ = oracles.align_direct(c_data, q_data, wc, wq, mask_a, mask_b)
        np.testing.assert_allclose(c_al.data, oc, atol=1e-12)
        np.testing.assert_allclose(q_al.data, oq, atol=1e-12)
        assert np.all(c_al.data[2:] == 0.0)

    def test_attention_rows_over_unmasked_sum_to_one(self, rng):
        d = 4
        c = T.constant(rng.normal(size=(3, d)))
        q = T.constant(rng.normal(size=(5, d)))
        mask_b = np.array([1.0, 1.0, 1.0, 0.0, 0.0])
        _, _, s = align(c, q, np.ones(3), mask_b, T.constant(rng.normal(size=(d, d))), T.constant(rng.normal(size=(d, d))))
        weights = T.softmax(T.add(s, T.constant(np.tile((1 - mask_b) * T.MASK_OFF, (3, 1)))), axis=1)
        np.testing.assert_allclose(weights.data.sum(axis=1), np.ones(3), atol=1e-12)
        assert np.all(weights.data[:, 3:] == 0.0)


class TestFuse:
    def test_zero_gate_weights_mean_half_mix(self, rng):
        d = 4
        x_data = rng.normal(size=(3, d))
        y_data = rng.normal(size=(3, d))
        w1 = rng.normal(size=(4 * d, d))
        out = fuse(T.constant(x_data), T.constant(y_data), T.constant(w1), T.constant(np.zeros((4 * d, d))))
        cat = np.concatenate([x_data, y_data, x_data * y_data, x_data - y_data], axis=1)
        expected = 0.5 * np.tanh(cat @ w1) + 0.5 * x_data
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_zero_candidate_weights_leave_gated_passthrough(self, rng):
        d = 4
        x_data = rng.normal(size=(3, d))
        y_data = rng.normal(size=(3, d))
        w2 = rng.normal(size=(4 * d, d))
        out = fuse(T.constant(x_data), T.constant(y_data), T.constant(np.zeros((4 * d, d))), T.constant(w2))
        cat = np.concatenate([x_data, y_data, x_data * y_data, x_data - y_data], axis=1)
        gate = 1.0 / (1.0 + np.exp(-(cat @ w2)))
        np.testing.assert_allclose(out.data, (1.0 - gate) * x_data, atol=1e-12)

    def test_matches_direct_formula_oracle(self, rng):
        d = 5
        x_data = rng.normal(size=(4, d))
        y_data = rng.normal(size=(4, d))
        w1 = rng.normal(size=(4 * d, d))
        w2 = rng.normal(size=(4 * d, d))
        out = fuse(T.constant(x_data), T.constant(y_data), T.constant(w1), T.constant(w2))
        np.testing.assert_allclose(out.data, oracles.fuse_direct(x_data, y_data, w1, w2), atol=1e-12)

    def test_gate_strictly_inside_unit_interval(self, rng):
        # magnitudes kept inside the float64-representable sigmoid range
        d = 4
        x_data = rng.normal(size=(3, d))
        y_data = rng.normal(size=(3, d))
        w2 = rng.normal(size=(4 * d, d)) * 0.5
        cat = np.concatenate([x_data, y_data, x_data * y_data, x_data - y_data], axis=1)
        gate = T.sigmoid(T.constant(cat @ w2)).data
        assert np.all(gate > 0.0) and np.all(gate < 1.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_gradients_match_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        d = 3
        inputs = [
            T.parameter(rng.normal(size=(2, d))),
            T.parameter(rng.normal(size=(2, d))),
            T.parameter(rng.normal(size=(4 * d, d))),
            T.parameter(rng.normal(size=(4 * d, d))),
        ]
        report = T.grad_check(lambda ins: fuse(*ins), inputs, tolerance=1e-4)
        assert report.passed, report


def _encode_context_oracle(x, mask, params, d):
    """Straight-line recomputation of the encoder stack in plain numpy."""
    keep = mask[:, None]
    h = (x @ params["enc.w_in"].data) * keep
    for key in ("enc.conv1", "enc.conv2"):
        h = (h + oracles.relu_np(oracles.conv1d_direct(h, params[key].data))) * keep
    scores = (h @ params["enc.w_att"].data) @ h.T / math.sqrt(d)
    weights = oracles.softmax_rows(scores, mask.astype(bool))
    h = (h + weights @ h) * keep
    return h


class TestEncodeContext:
    def test_single_position_self_attention_doubles_residual(self, rng):
        d = 4
        params = _params(rng, d)
        params["enc.conv1"] = T.parameter(np.zeros((3, d, d)))
        params["enc.conv2"] = T.parameter(np.zeros((3, d, d)))
        x = T.constant(rng.normal(size=(1, d)))
        out = encode_context(x, np.ones(1), params)
        np.testing.assert_allclose(out.data, 2.0 * (x.data @ params["enc.w_in"].data), atol=1e-12)

    def test_zero_convolutions_reduce_to_residual_identity(self, rng):
        d = 4
        params = _params(rng, d)
        params["enc.conv1"] = T.parameter(np.zeros((3, d, d)))
        params["enc.conv2"] = T.parameter(np.zeros((3, d, d)))
        x_data = rng.normal(size=(5, d))
        out = encode_context(T.constant(x_data), np.ones(5), params)
        h = x_data @ params["enc.w_in"].data
        scores = (h @ params["enc.w_att"].data) @ h.T / math.sqrt(d)
        weights = oracles.softmax_rows(scores, np.ones(5, dtype=bool))
        np.testing.assert_allclose(out.data, h + weights @ h, atol=1e-12)

    @pytest.mark.parametrize("n,mask_tail", [(6, 0), (6, 2), (1, 0)])
    def test_matches_straight_line_oracle(self, rng, n, mask_tail):
        d = 5
        params = _params(rng, d, d_emb=7)
        mask = np.ones(n)
        if mask_tail:
            mask[-mask_tail:] = 0.0
        x_data = rng.normal(size=(n, 7))
        out = encode_context(T.constant(x_data), mask, params)
        np.testing.assert_allclose(out.data, _encode_context_oracle(x_data, mask, params, d), atol=1e-12)


class TestEncodePair:
    def test_identical_sentences_give_identical_encodings(self, rng):
        # exact symmetry needs the two alignment projections to coincide
        d = 4
        params = _params(rng, d, d_emb=6)
        params["enc.w_q"] = params["enc.w_c"]
        x_data = rng.normal(size=(3, 6))
        mask = np.ones(3)
        h, p = encode_pair(T.constant(x_data), T.constant(x_data.copy()), mask, mask, params)
        np.testing.assert_allclose(h.data, p.data, atol=1e-12)

    def test_swapping_inputs_swaps_outputs_exactly(self, rng):
        d = 4
        params = _params(rng, d, d_emb=6)
        params["enc.w_q"] = params["enc.w_c"]
        x_data = rng.normal(size=(3, 6))
        y_data = rng.normal(size=(5, 6))
        ma, mb = np.ones(3), np.ones(5)
        h1, p1 = encode_pair(T.constant(x_data), T.constant(y_data), ma, mb, params)
        p2, h2 = encode_pair(T.constant(y_data), T.constant(x_data), mb, ma, params)
        np.testing.assert_allclose(h1.data, h2.data, atol=1e-12)
        np.testing.assert_allclose(p1.data, p2.data, atol=1e-12)

    def test_alignment_disabled_still_runs(self, rng, spy):
        d = 4
        params = _params(rng, d, d_emb=6)
        spy(encoder, "align")
        h, p = encode_pair(
            T.constant(rng.normal(size=(3, 6))),
            T.constant(rng.normal(size=(4, 6))),
            np.ones(3),
            np.ones(4),
            params,
            no_alignment=True,
        )
        assert h.shape == (3, d) and p.shape == (4, d)
        assert "align" not in spy.calls

    def test_fusion_disabled_uses_concat_projection(self, rng, spy):
        d = 4
        params = _params(rng, d, d_emb=6)
        x, y = T.constant(rng.normal(size=(3, 6))), T.constant(rng.normal(size=(4, 6)))
        mask_a, mask_b = np.ones(3), np.ones(4)
        spy(encoder, "fuse")
        h, _ = encode_pair(x, y, mask_a, mask_b, params, no_fusion=True)
        assert h.shape == (3, d)
        assert "fuse" not in spy.calls
        c = encode_context(x, mask_a, params)
        c_aligned, _, _ = align(c, encode_context(y, mask_b, params), mask_a, mask_b, params["enc.w_c"], params["enc.w_q"])
        concat_project = np.concatenate([c.data, c_aligned.data], axis=1) @ params["enc.w_merge"].data
        assert h.data.tobytes() == concat_project.tobytes()

    def test_pad_perturbation_cannot_touch_unmasked_rows(self, rng):
        d = 4
        params = _params(rng, d, d_emb=6)
        mask_a = np.array([1.0, 1.0, 1.0, 0.0, 0.0])
        mask_b = np.array([1.0, 1.0, 0.0])
        x_data = rng.normal(size=(5, 6))
        y_data = rng.normal(size=(3, 6))
        h1, p1 = encode_pair(T.constant(x_data), T.constant(y_data), mask_a, mask_b, params)
        x_mut = x_data.copy()
        y_mut = y_data.copy()
        x_mut[3:] = rng.normal(size=(2, 6)) * 100
        y_mut[2] = rng.normal(size=6) * 100
        h2, p2 = encode_pair(T.constant(x_mut), T.constant(y_mut), mask_a, mask_b, params)
        assert h1.data[:3].tobytes() == h2.data[:3].tobytes()
        assert p1.data[:2].tobytes() == p2.data[:2].tobytes()
