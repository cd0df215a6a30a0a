"""The benchmark's workloads: configurations and seeded input generators.

Each workload writes its inputs into a directory from a seed alone (the
same seed writes the same bytes), and the program under test sees only
those files. Sizes live in one mapping per workload; `tiny=True` swaps in
sizes small enough for a smoke test, which train too little to learn.

Why these three (the full reasons are in BENCHMARK.json):

- desk_snli: tiny vocabulary and 3-7 token sentences, so per-node Python
  overhead dominates and the embedding table fits in L1.
- paper_snli: paper widths, a 40k-type Zipf vocabulary and long
  sentences, so backward and Adam over the dense embedding table
  dominate and the checkpoint is about 300 MB.
- wikiqa_rank: the ranking path (triples, hinge loss, MAP) with
  contextual vectors read from a binary cache; every candidate repeats
  its question.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from sentmatch import data, embedding, synthetic

CLASS_LABELS = ("entailment", "contradiction", "neutral")


@dataclass(frozen=True)
class Inputs:
    """Paths of one generated workload, as the CLI would receive them."""

    train: Path
    dev: Path
    vocab: Path | None = None  # None: build the vocabulary from the training split
    vectors: Path | None = None  # None: seeded random static vectors
    contextual: str | None = None  # None, "stub" or a contextual cache file


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict  # TrainConfig fields
    sizes: dict  # generator sizes
    quality_floor: float | None  # lowest acceptable dev_quality; None: not learnable at this size
    generator: object  # (workload, seed, out_dir) -> Inputs

    def generate(self, seed, out_dir):
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        return self.generator(self, seed, out)


def _split_seeds(seed):
    # disjoint seeds for the two splits: train even, dev odd
    return 2 * seed, 2 * seed + 1


def _desk_snli(wl, seed, out):
    train_seed, dev_seed = _split_seeds(seed)
    paths = Inputs(out / "train.tsv", out / "dev.tsv")
    synthetic.write_tsv(paths.train, synthetic.make_classification_pairs(wl.sizes["train"], seed=train_seed))
    synthetic.write_tsv(paths.dev, synthetic.make_classification_pairs(wl.sizes["dev"], seed=dev_seed))
    return paths


def _wikiqa_rank(wl, seed, out):
    train_seed, dev_seed = _split_seeds(seed)
    train, dev, cache = out / "train.tsv", out / "dev.tsv", out / "contextual.bin"
    k = wl.sizes["candidates"]
    synthetic.write_tsv(train, synthetic.make_ranking_groups(wl.sizes["train_questions"], k, seed=train_seed))
    synthetic.write_tsv(dev, synthetic.make_ranking_groups(wl.sizes["dev_questions"], k, seed=dev_seed))
    write_contextual_cache(cache, [train, dev], wl.config["task"], wl.config["contextual_dim"], seed)
    return Inputs(train, dev, contextual=str(cache))


def write_contextual_cache(path, tsv_paths, task, dim, seed):
    """Stub-provider cache covering every sentence of the splits.

    Follows scripts/make_contextual_cache.py: sentences are tokenized and
    truncated at the task cap, so record ids and lengths match what the
    model looks up.
    """
    spec = data.task_spec(task)
    provider = embedding.StubContextualProvider(dim, seed=seed)
    records = {}
    for tsv in tsv_paths:
        tokenized, _ = data.tokenize_pairs(data.read_dataset(tsv, spec), embedding.Vocab(), spec.max_len)
        for p in tokenized:
            for sid, tokens in ((p.sid_a, p.tokens_a), (p.sid_b, p.tokens_b)):
                if sid not in records:
                    records[sid] = provider.vectors(sid, tokens)
    embedding.write_contextual_cache(path, dim, records.items())


def _word_types(rng, n):
    """n distinct lowercase words of 4-7 letters, in random order."""
    words = {}
    while len(words) < n:
        for code in rng.integers(26**3, 26**7, size=n - len(words)):
            letters = []
            code = int(code)
            while code:
                code, r = divmod(code, 26)
                letters.append(chr(97 + r))
            words.setdefault("".join(letters), None)
    return list(words)


def _paper_snli(wl, seed, out):
    s = wl.sizes
    rng = np.random.default_rng(seed)
    n_vocab, n_extra = s["types"], s["oov_types"]
    # Zipf over vocab types then out-of-vocabulary types: the rarest are OOV
    words = _word_types(rng, n_vocab + n_extra)
    cdf = np.cumsum(1.0 / np.arange(1, len(words) + 1))
    cdf /= cdf[-1]

    def sentence(mean, sd, lo, hi):
        n = int(np.clip(round(rng.normal(mean, sd)), lo, hi))
        picks = np.minimum(np.searchsorted(cdf, rng.random(n)), len(words) - 1)
        return " ".join(words[i] for i in picks)

    def split(n):
        rows = []
        for i in range(n):
            premise = sentence(*s["premise_len"])
            # a few blank hypotheses, as in the SNLI release; the reader skips them
            hypothesis = "" if rng.random() < s["blank_frac"] else sentence(*s["hypothesis_len"])
            rows.append((CLASS_LABELS[i % 3], premise, hypothesis))
        return [rows[i] for i in rng.permutation(n)]

    paths = Inputs(out / "train.tsv", out / "dev.tsv", out / "vocab.txt", out / "vectors.txt", "stub")
    synthetic.write_tsv(paths.train, split(s["train"]))
    synthetic.write_tsv(paths.dev, split(s["dev"]))
    embedding.Vocab(words[:n_vocab]).save(paths.vocab)
    _write_vectors(paths.vectors, words, n_vocab, wl.config["static_dim"], s["vector_gap"], rng)
    return paths


def _write_vectors(path, words, n_vocab, dim, gap, rng):
    """Text vectors for every `gap`-th-less vocab word plus all OOV words.

    Leaving some vocabulary words out exercises the seeded init for
    missing rows; the OOV lines exercise the skip of unknown tokens.
    Values are multiples of 0.001 in [-0.5, 0.5], formatted by table
    lookup so writing 12M numbers stays fast.
    """
    table = np.array([f"{k / 1000:.3f}" for k in range(-500, 501)])
    listed = [i for i in range(len(words)) if i >= n_vocab or i % gap != gap - 1]
    codes = rng.integers(0, len(table), size=(len(listed), dim))
    with open(path, "w", encoding="utf-8") as fh:
        for row, i in enumerate(listed):
            fh.write(words[i] + " " + " ".join(table[codes[row]]) + "\n")


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="desk_snli",
            # lr above the default so 4 epochs converge and dev_quality varies little by seed
            config=dict(task="snli", static_dim=64, contextual_dim=0, hidden=64, batch_size=128, dropout=0.2, epochs=4, lr=0.003),
            sizes=dict(train=384, dev=600),
            quality_floor=0.55,
            generator=_desk_snli,
        ),
        Workload(
            name="paper_snli",
            # batch 16: at the paper's 128 one step takes about 30 s
            config=dict(task="snli", static_dim=300, contextual_dim=1024, hidden=150, batch_size=16, dropout=0.2, epochs=1),
            sizes=dict(
                types=40_000,
                oov_types=2_000,
                train=32,
                dev=600,
                premise_len=(26, 6, 5, 60),
                hypothesis_len=(12, 4, 3, 30),
                blank_frac=0.02,
                vector_gap=25,
            ),
            quality_floor=None,
            generator=_paper_snli,
        ),
        Workload(
            name="wikiqa_rank",
            # without dropout and at this lr, 4 epochs learn the ranking on every seed tried
            config=dict(task="wikiqa", static_dim=64, contextual_dim=64, hidden=64, batch_size=64, dropout=0.0, epochs=4, lr=0.002),
            sizes=dict(train_questions=400, dev_questions=150, candidates=4),
            quality_floor=0.6,
            generator=_wikiqa_rank,
        ),
    )
}

TINY = {
    "desk_snli": (dict(static_dim=8, hidden=8, batch_size=8, epochs=1), dict(train=24, dev=12)),
    "paper_snli": (
        dict(static_dim=8, contextual_dim=8, hidden=8, batch_size=4),
        dict(types=300, oov_types=30, train=8, dev=9, blank_frac=0.2),
    ),
    "wikiqa_rank": (dict(static_dim=8, contextual_dim=8, hidden=8, batch_size=4, epochs=2), dict(train_questions=6, dev_questions=4)),
}


def get(name, tiny=False):
    wl = WORKLOADS[name]
    if not tiny:
        return wl
    config, sizes = TINY[name]
    return dataclasses.replace(wl, config={**wl.config, **config}, sizes={**wl.sizes, **sizes}, quality_floor=None)
