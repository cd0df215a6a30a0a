"""Bidirectional attention between the encoded sentences, then
position-level self-attention over the merged representation.

The first direction mixes second-sentence rows into each first-sentence
position (row-normalized similarity). The second direction compresses
the first sentence into a single vector weighted by each position's best
match, then broadcasts it. The merged per-position vector
[h; q; h*q; h*c] finally attends over itself to pick up
position-to-position structure.

Like the encoder, every function takes one pair's 2-d activations and
(len,) masks or a padded batch's 3-d activations and (batch, len)
masks, working on the last two axes.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T


def similarity(h, p, w_h, w_p):
    """Similarity grid between the two encodings (relu projections)."""
    return T.matmul(T.relu(T.matmul(h, w_h)), T.transpose(T.relu(T.matmul(p, w_p))))


def h2p_attention(s, p, mask_b):
    """Each first-sentence position as a mixture of second-sentence rows."""
    return T.matmul(T.softmax(s, axis=-1, mask=mask_b), p)


def p2h_attention(s, h, mask_a, mask_b):
    """The first sentence compressed by its best per-position match.

    Every row's maximum over unpadded columns scores that position;
    the score vector normalizes over unpadded rows and weights the
    first-sentence rows into one vector, which is then broadcast.

    Returns (vector as 1 x d, broadcast n x d), per item of a batch.
    """
    n = s.shape[-2]
    best = T.reshape(T.max_along(s, axis=-1, mask=mask_b), s.shape[:-2] + (1, n))
    c = T.matmul(T.softmax(best, axis=-1, mask=mask_a), h)
    return c, T.tile_rows(c, n)


def merge(h, q_att, c_att):
    """Per-position concat of [h; q; h*q; h*c]; width 4x the input."""
    return T.concat([h, q_att, T.mul(h, q_att), T.mul(h, c_att)], axis=-1)


def self_attend(g, mask_a):
    """Position self-attention over the merged representation.

    The position-by-position grid is the plain inner product of rows;
    rows normalize over unpadded positions and remix the rows. A single
    unpadded position passes through unchanged.
    """
    e = T.matmul(g, T.transpose(g))
    return T.mask_rows(T.matmul(T.softmax(e, axis=-1, mask=mask_a), g), mask_a)


def interact(
    h,
    p,
    mask_a,
    mask_b,
    params,
    only_h2p=False,
    only_p2h=False,
    no_self_attention=False,
):
    """Full interaction stage; returns the matching representation.

    `only_h2p` zeroes the broadcast vector block, `only_p2h` zeroes the
    per-position mixture block; both keep the graph shape intact so
    heads are unaffected.
    """
    s = similarity(h, p, params["inter.w_h"], params["inter.w_p"])
    if only_p2h:
        q_att = T.constant(np.zeros(h.shape))
    else:
        q_att = h2p_attention(s, p, mask_b)
    if only_h2p:
        c_att = T.constant(np.zeros(h.shape))
    else:
        _, c_att = p2h_attention(s, h, mask_a, mask_b)
    g = merge(h, q_att, c_att)
    if no_self_attention:
        return g
    return self_attend(g, mask_a)
