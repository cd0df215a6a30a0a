"""Dataset reading, tokenization, batching, and ranking-triple assembly.

Batching stacks tokenized pairs into a padded `Batch`, the model's only
input: `build_batches` for a raw split in input order, `batch_pairs` for
pairs tokenized once (training shuffles them by seed).

All four tasks share one normalized input schema: UTF-8 TSV with
`label \t sentence_a \t sentence_b` and, for the ranking task, a fourth
`group_id` column tying candidates to their question. Converters from
the public release formats live in scripts/convert_datasets.py.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .embedding import PAD, Vocab, _text_lines, sentence_id
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
    for line_no, line in _text_lines(path, DataError):
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
    label: int
    line_no: int  # the record's input line (RawPair.line_no): ids join back to the input
    group_id: str | None
    sid_a: str
    sid_b: str


@dataclass
class Batch:
    """The model's input: pairs stacked into padded id matrices.

    Each side is padded to its longest sentence in the batch, and its
    mask marks the real tokens. `items` are the unpadded tokenized pairs
    the rows were built from, in row order; they are shared, not copied.
    """

    ids_a: np.ndarray
    mask_a: np.ndarray
    ids_b: np.ndarray
    mask_b: np.ndarray
    labels: np.ndarray
    items: list = field(repr=False)

    def __len__(self):
        return len(self.items)

    @property
    def pairs(self):
        """One one-row batch per row, padded to this batch's width."""
        fields = (self.ids_a, self.mask_a, self.ids_b, self.mask_b, self.labels, self.items)
        return [Batch(*(f[i : i + 1] for f in fields)) for i in range(len(self))]


def tokenize_pairs(pairs, vocab, cap):
    """Tokenize, truncate to the task cap, and map to ids.

    Records whose sentences tokenize to nothing are skipped; the skip
    count comes back alongside the kept pairs.
    """
    out = []
    skipped = 0
    for p in pairs:
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
                label=p.label,
                line_no=p.line_no,
                group_id=p.group_id,
                sid_a=sentence_id(toks_a),
                sid_b=sentence_id(toks_b),
            )
        )
    return out, skipped


def _pad_ids(rows):
    out = np.full((len(rows), max(map(len, rows))), PAD, dtype=np.intp)
    mask = np.zeros(out.shape)
    for i, ids in enumerate(rows):
        out[i, : len(ids)] = ids
        mask[i, : len(ids)] = 1.0
    return out, mask


def _make_batch(chunk):
    ids_a, mask_a = _pad_ids([p.ids_a for p in chunk])
    ids_b, mask_b = _pad_ids([p.ids_b for p in chunk])
    labels = np.array([p.label for p in chunk], dtype=np.intp)
    return Batch(ids_a, mask_a, ids_b, mask_b, labels, chunk)


def build_batches(pairs, vocab, cap, batch_size):
    """A raw split's padded batches in input order (evaluation relies on it), and its skip count.

    Sentences are cut to `cap` tokens (see `tokenize_pairs`); rows are
    padded to the longest sentence in their batch.
    """
    tokenized, skipped = tokenize_pairs(pairs, vocab, cap)
    return batch_pairs(tokenized, batch_size), skipped


def batch_pairs(tokenized, batch_size, shuffle_seed=None):
    """Padded batches of tokenized pairs, in input order or permuted by the seed."""
    if shuffle_seed is not None:
        order = np.random.default_rng(shuffle_seed).permutation(len(tokenized))
        tokenized = [tokenized[i] for i in order]
    return [_make_batch(tokenized[i : i + batch_size]) for i in range(0, len(tokenized), batch_size)]


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
