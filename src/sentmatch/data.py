"""Dataset reading, tokenization, batching, and ranking-triple assembly.

All four tasks share one normalized input schema: UTF-8 TSV with
`label \t sentence_a \t sentence_b` and, for the ranking task, a fourth
`group_id` column tying candidates to their question. Converters from
the public release formats live in scripts/convert_datasets.py.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .embedding import PAD, Vocab, sentence_id
from .errors import DataError

_TOKEN_RE = re.compile(r"\w+|[^\w\s]", re.UNICODE)


@dataclass(frozen=True)
class TaskSpec:
    name: str
    kind: str  # "classify" or "rank"
    labels: tuple
    max_len: int

    @property
    def num_classes(self):
        return len(self.labels)


TASKS = {
    "snli": TaskSpec("snli", "classify", ("entailment", "contradiction", "neutral"), 64),
    "scitail": TaskSpec("scitail", "classify", ("entails", "neutral"), 48),
    "quora": TaskSpec("quora", "classify", ("0", "1"), 48),
    "wikiqa": TaskSpec("wikiqa", "rank", ("0", "1"), 32),
}


def task_spec(name):
    if name not in TASKS:
        raise DataError(f"unknown task {name!r}, expected one of {sorted(TASKS)}")
    return TASKS[name]


def tokenize(text):
    """Lowercase and split on whitespace and punctuation boundaries."""
    return _TOKEN_RE.findall(text.lower())


@dataclass
class RawPair:
    label: int
    sent_a: str
    sent_b: str
    group_id: str | None = None
    line_no: int = 0


def read_dataset(path, task):
    """Parse the normalized TSV into validated raw pairs.

    Labels outside the task's label set raise with the line number.
    Records labelled "-" (annotators reached no consensus) are dropped.
    The ranking task requires the group id column.
    """
    spec = task_spec(task) if isinstance(task, str) else task
    label_ids = {lab: i for i, lab in enumerate(spec.labels)}
    pairs = []
    with open(path, "rb") as fh:
        raw_lines = fh.read().splitlines()
    for line_no, raw in enumerate(raw_lines, start=1):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}:{line_no}: not valid UTF-8 (byte {exc.start + 1} of the line)") from None
        if not line:
            continue
        cols = line.split("\t")
        if len(cols) < 3:
            raise DataError(f"{path}:{line_no}: expected at least 3 tab-separated columns, got {len(cols)}")
        label, sent_a, sent_b = cols[0], cols[1], cols[2]
        if label == "-":
            continue
        if label not in label_ids:
            raise DataError(f"{path}:{line_no}: unknown label {label!r} for task {spec.name}")
        group_id = cols[3] if len(cols) > 3 else None
        if spec.kind == "rank" and group_id is None:
            raise DataError(f"{path}:{line_no}: ranking task requires a group id column")
        pairs.append(RawPair(label_ids[label], sent_a, sent_b, group_id, line_no))
    return pairs


def build_vocab(pairs, min_count=1):
    """Token inventory from the training split only, frequency-ordered."""
    counts = {}
    for p in pairs:
        for tok in tokenize(p.sent_a) + tokenize(p.sent_b):
            counts[tok] = counts.get(tok, 0) + 1
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return Vocab(tok for tok, c in ordered if c >= min_count)


@dataclass
class TokenizedPair:
    ids_a: np.ndarray
    ids_b: np.ndarray
    tokens_a: list
    tokens_b: list
    len_a: int
    len_b: int
    mask_a: np.ndarray
    mask_b: np.ndarray
    label: int
    pair_id: int
    group_id: str | None
    sid_a: str
    sid_b: str


@dataclass
class Batch:
    """Stacked, padded id matrices with masks and labels."""

    ids_a: np.ndarray
    mask_a: np.ndarray
    ids_b: np.ndarray
    mask_b: np.ndarray
    labels: np.ndarray
    pairs: list = field(repr=False)

    def __len__(self):
        return len(self.pairs)


def tokenize_pairs(pairs, vocab, cap):
    """Tokenize, truncate to the task cap, and map to ids.

    Records whose sentences tokenize to nothing are skipped; the skip
    count comes back alongside the kept pairs.
    """
    out = []
    skipped = 0
    for i, p in enumerate(pairs):
        toks_a = tokenize(p.sent_a)[:cap]
        toks_b = tokenize(p.sent_b)[:cap]
        if not toks_a or not toks_b:
            skipped += 1
            continue
        ids_a = np.array([vocab.id_of(t) for t in toks_a], dtype=np.intp)
        ids_b = np.array([vocab.id_of(t) for t in toks_b], dtype=np.intp)
        out.append(
            TokenizedPair(
                ids_a=ids_a,
                ids_b=ids_b,
                tokens_a=toks_a,
                tokens_b=toks_b,
                len_a=len(toks_a),
                len_b=len(toks_b),
                mask_a=np.ones(len(toks_a)),
                mask_b=np.ones(len(toks_b)),
                label=p.label,
                pair_id=i,
                group_id=p.group_id,
                sid_a=sentence_id(toks_a),
                sid_b=sentence_id(toks_b),
            )
        )
    return out, skipped


def _pad_ids(rows, width):
    out = np.full((len(rows), width), PAD, dtype=np.intp)
    mask = np.zeros((len(rows), width))
    for i, ids in enumerate(rows):
        out[i, : len(ids)] = ids
        mask[i, : len(ids)] = 1.0
    return out, mask


def _make_batch(chunk):
    wa = max(p.len_a for p in chunk)
    wb = max(p.len_b for p in chunk)
    ids_a, mask_a = _pad_ids([p.ids_a for p in chunk], wa)
    ids_b, mask_b = _pad_ids([p.ids_b for p in chunk], wb)
    labels = np.array([p.label for p in chunk], dtype=np.intp)
    padded = []
    for i, p in enumerate(chunk):
        padded.append(
            TokenizedPair(
                ids_a=ids_a[i],
                ids_b=ids_b[i],
                tokens_a=p.tokens_a,
                tokens_b=p.tokens_b,
                len_a=p.len_a,
                len_b=p.len_b,
                mask_a=mask_a[i],
                mask_b=mask_b[i],
                label=p.label,
                pair_id=p.pair_id,
                group_id=p.group_id,
                sid_a=p.sid_a,
                sid_b=p.sid_b,
            )
        )
    return Batch(ids_a, mask_a, ids_b, mask_b, labels, padded)


def build_batches(pairs, vocab, task, batch_size, shuffle_seed=None, max_len=None):
    """Tokenized, padded batches; order is deterministic under the seed.

    Rows are padded to the longest sentence in their batch, which never
    exceeds the task cap (or `max_len` when given). With no seed the
    input order is preserved, which evaluation relies on for stable
    group ordering.
    """
    spec = task_spec(task) if isinstance(task, str) else task
    cap = spec.max_len if max_len is None else max_len
    tokenized, skipped = tokenize_pairs(pairs, vocab, cap)
    if shuffle_seed is not None:
        order = np.random.default_rng(shuffle_seed).permutation(len(tokenized))
        tokenized = [tokenized[i] for i in order]
    batches = [
        _make_batch(tokenized[i : i + batch_size]) for i in range(0, len(tokenized), batch_size)
    ]
    return batches, skipped


def group_by_question(pairs):
    """Group ranking candidates by their question, preserving input order."""
    groups = {}
    for p in pairs:
        groups.setdefault(p.group_id, []).append(p)
    return groups


def make_ranking_triples(groups, seed):
    """One (question, positive, negative) triple per positive per epoch.

    The negative is drawn uniformly from the group's negatives; groups
    lacking a positive or a negative contribute no training triples.
    """
    rng = np.random.default_rng(seed)
    triples = []
    for gid in groups:
        members = groups[gid]
        positives = [p for p in members if p.label == 1]
        negatives = [p for p in members if p.label == 0]
        if not positives or not negatives:
            continue
        for pos in positives:
            neg = negatives[rng.integers(len(negatives))]
            triples.append((pos, neg))
    return triples
