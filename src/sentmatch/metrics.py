"""Evaluation metrics: accuracy for classification, MAP/MRR for ranking."""

from __future__ import annotations

import numpy as np

from .errors import DataError


def accuracy(preds, labels):
    """Fraction of exact matches."""
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    if preds.shape != labels.shape:
        raise DataError(f"prediction/label lengths differ: {preds.shape} vs {labels.shape}")
    if preds.size == 0:
        raise DataError("accuracy of an empty prediction list")
    return float(np.mean(preds == labels))


def map_mrr(groups):
    """Mean average precision and mean reciprocal rank over groups.

    `groups` is a list of candidate lists, each candidate a
    (score, relevant) pair in stable input order; ties in score keep
    that order. Groups without any relevant candidate are left out.
    """
    ap_values, rr_values = [], []
    for cands in groups:
        scores = [c[0] for c in cands]
        order = sorted(range(len(cands)), key=lambda i: (-scores[i], i))
        hits = 0
        precisions = []
        first_rank = None
        for rank, i in enumerate(order, start=1):
            if cands[i][1]:
                hits += 1
                precisions.append(hits / rank)
                if first_rank is None:
                    first_rank = rank
        if first_rank is None:
            continue
        ap_values.append(sum(precisions) / len(precisions))
        rr_values.append(1.0 / first_rank)
    if not ap_values:
        raise DataError("no evaluable groups (none has a relevant candidate)")
    return float(np.mean(ap_values)), float(np.mean(rr_values))
