"""Deep contextual encoding of a sentence pair.

Each sentence goes through a width projection, two same-padded
convolution sublayers with relu, and one scaled dot-product
self-attention sublayer, every sublayer wrapped in a plain residual
addition. The two encodings are then soft-aligned against each other
(relu-projected similarity, row/column normalization) and each sentence
is fused with its aligned counterpart through a tanh candidate and a
sigmoid gate. Both sentences share all encoder weights.

Masking discipline: padded rows are zeroed after every sublayer
(`tensor.mask_rows`) and every attention softmax takes the mask of the
positions it normalizes over, which get weight exactly 0, so padded
positions can never influence an unpadded output.

Every function takes one pair, as (len, d) activations with (len,)
masks, or a padded batch, as (batch, len, d) activations with
(batch, len) masks; both work on the last two axes.
"""

from __future__ import annotations

import math

from . import tensor as T

# Canonical parameter names used by this stage (all in a flat dict):
#   enc.w_in    width projection, d_emb x d
#   enc.conv1   first conv stack, w x d x d
#   enc.conv2   second conv stack, w x d x d
#   enc.w_att   encoder self-attention projection, d x d
#   enc.w_c     alignment projection for the first sentence, d x d
#   enc.w_q     alignment projection for the second sentence, d x d
#   enc.w1      fusion candidate weights, 4d x d
#   enc.w2      fusion gate weights, 4d x d
#   enc.w_merge concat re-projection used when fusion is disabled, 2d x d


def encode_context(x, mask, params, use_self_attention=True, train=False, dropout_rate=0.0, rng=None):
    """Single-sentence encoding: projection, conv stack, self-attention.

    `x` is (..., len, d_emb), `mask` the 0/1 positions. Returns
    (..., len, d) with padded rows exactly zero.
    """
    d = params["enc.w_in"].shape[1]

    def sublayer_tail(h):
        h = T.mask_rows(h, mask)
        if train and dropout_rate > 0.0:
            # padded rows are +-0 here, and dropout only scales them, so they stay +-0
            h = T.dropout(h, dropout_rate, rng)
        return h

    h = T.matmul(x, params["enc.w_in"])
    h = sublayer_tail(h)
    for key in ("enc.conv1", "enc.conv2"):
        out = T.relu(T.conv1d(h, params[key]))
        h = sublayer_tail(T.add(h, out))
    if use_self_attention:
        queries = T.matmul(h, params["enc.w_att"])
        scores = T.mul_const(T.matmul(queries, T.transpose(h)), 1.0 / math.sqrt(d))
        weights = T.softmax(scores, axis=-1, mask=mask)
        h = sublayer_tail(T.add(h, T.matmul(weights, h)))
    return h


def align(c, q, mask_a, mask_b, w_c, w_q):
    """Soft alignment between the two encoded sentences.

    The similarity grid is the product of relu projections of both
    sides. Rows are normalized over the second sentence's unpadded
    positions to build the first sentence's aligned view; columns are
    normalized over the first sentence's unpadded positions for the
    second's. Padded output rows are zero.

    Returns (aligned_first, aligned_second, similarity).
    """
    s = T.matmul(T.relu(T.matmul(c, w_c)), T.transpose(T.relu(T.matmul(q, w_q))))
    over_b = T.softmax(s, axis=-1, mask=mask_b)
    c_aligned = T.mask_rows(T.matmul(over_b, q), mask_a)
    over_a = T.softmax(s, axis=-2, mask=mask_a)
    q_aligned = T.mask_rows(T.matmul(T.transpose(over_a), c), mask_b)
    return c_aligned, q_aligned, s


def fuse(x, y, w1, w2):
    """Gated fusion of a representation with its aligned counterpart.

    A tanh candidate and a sigmoid gate are both computed from
    [x; y; x*y; x-y]; the output interpolates between the candidate and
    the original x under the gate.
    """
    cat = T.concat([x, y, T.mul(x, y), T.sub(x, y)], axis=-1)
    candidate = T.tanh(T.matmul(cat, w1))
    gate = T.sigmoid(T.matmul(cat, w2))
    return T.add(T.mul(gate, candidate), T.mul(T.rsub_const(1.0, gate), x))


def encode_pair(
    x,
    y,
    mask_a,
    mask_b,
    params,
    no_alignment=False,
    no_fusion=False,
    use_self_attention=True,
    train=False,
    dropout_rate=0.0,
    rng=None,
):
    """Full encoder stage for a pair; returns the two fused encodings."""
    c = encode_context(x, mask_a, params, use_self_attention, train, dropout_rate, rng)
    q = encode_context(y, mask_b, params, use_self_attention, train, dropout_rate, rng)
    if no_alignment:
        c_aligned, q_aligned = c, q
    else:
        c_aligned, q_aligned, _ = align(c, q, mask_a, mask_b, params["enc.w_c"], params["enc.w_q"])
    if no_fusion:
        h = T.matmul(T.concat([c, c_aligned], axis=-1), params["enc.w_merge"])
        p = T.matmul(T.concat([q, q_aligned], axis=-1), params["enc.w_merge"])
    else:
        h = fuse(c, c_aligned, params["enc.w1"], params["enc.w2"])
        p = fuse(q, q_aligned, params["enc.w1"], params["enc.w2"])
    return h, p
