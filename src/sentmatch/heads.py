"""Output heads and training losses.

The matching representation is pooled by splicing its first and last
unpadded rows (a mean+max variant exists behind a flag for comparison),
then a single linear layer with tanh produces either class
probabilities (softmax) or a ranking score in (-1, 1).
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import DataError

LOG_FLOOR = 1e-12


def _unpadded(mask):
    """Boolean positions of (n,) or (batch, n) masks; every item must keep one."""
    keep = np.asarray(mask) > 0
    if not keep.any(axis=-1).all():
        raise DataError("cannot pool a fully masked sequence")
    return keep


def pool_splice(z, mask):
    """Concat of the first and last unpadded rows, as a 1 x 2*width row.

    For a batch, `z` is (batch, n, width) and the result (batch, 1, 2*width).
    """
    keep = _unpadded(mask)
    n, width = z.shape[-2:]
    first = np.argmax(keep, axis=-1)
    last = n - 1 - np.argmax(keep[..., ::-1], axis=-1)
    start = np.arange(first.size).reshape(first.shape) * n  # each item's offset among the flattened rows
    picked = T.take_rows(T.reshape(z, (-1, width)), np.stack([start + first, start + last], axis=-1))
    return T.reshape(picked, z.shape[:-2] + (1, 2 * width))


def pool_meanmax(z, mask):
    """Mean and max over unpadded rows, concatenated (comparison only)."""
    keep = _unpadded(mask).astype(np.float64)
    counts = keep.sum(axis=-1)[..., None, None]
    total = T.matmul(T.constant(keep[..., None, :]), z)
    mean = T.mul(total, T.constant(np.broadcast_to(1.0 / counts, total.shape)))
    peak = T.max_along(z, axis=-2, mask=keep)
    return T.concat([mean, T.reshape(peak, mean.shape)], axis=-1)


def head_forward(pooled, w, b, task_kind):
    """Linear layer under tanh; softmax for classification, raw for ranking.

    `pooled` is one 1 x width row, or a batch's (batch, 1, width) rows;
    the result has one row per item, (1, K) or (batch, K). Each item's
    row is multiplied as a single row is, so a batch gives each item
    the 1 x width product bit for bit.
    """
    if pooled.shape[-1] != w.shape[0]:
        raise DataError(f"pooled width {pooled.shape} does not match head weights {w.shape}")
    rows = pooled.size // pooled.shape[-1]
    out = T.reshape(T.matmul(pooled, w), (rows, w.shape[1]))
    pre = T.tanh(T.add(out, T.tile_rows(b, rows)))
    if task_kind == "rank":
        return pre
    return T.softmax(pre, axis=-1)


def cross_entropy(probs, labels):
    """Negative log likelihood of the true classes, averaged over the batch.

    `probs` is an N x K tensor of distributions, `labels` integer class
    ids. Logs are floored at 1e-12.
    """
    n, k = probs.shape
    labels = np.asarray(labels)
    if labels.min() < 0 or labels.max() >= k:
        raise DataError(f"label out of range [0, {k}): {labels.min()}..{labels.max()}")
    onehot = np.zeros((n, k))
    onehot[np.arange(n), labels] = 1.0
    picked = T.mul(T.constant(onehot), T.log(T.clamp_min(probs, LOG_FLOOR)))
    return T.mul_const(T.sum_all(picked), -1.0 / n)


def hinge_loss(score_pos, score_neg):
    """Margin loss max(0, 1 - pos + neg), averaged over the batch.

    Scores come from the ranking head for the related and unrelated
    candidates of the same question.
    """
    if score_pos.shape != score_neg.shape:
        raise DataError(f"score shapes differ: {score_pos.shape} vs {score_neg.shape}")
    # (1 - pos) + neg, as documented: (neg - pos) + 1 can round a margin of
    # 1e-124 away to a loss of 0
    per_triple = T.relu(T.add(score_neg, T.rsub_const(1.0, score_pos)))
    n = max(score_pos.size, 1)
    return T.mul_const(T.sum_all(per_triple), 1.0 / n)
