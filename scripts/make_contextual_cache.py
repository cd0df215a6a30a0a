#!/usr/bin/env python3
"""Precompute a contextual-vector cache for every sentence of a TSV split.

Real contextual embedders run offline and are out of scope here; this
script fills the cache with the deterministic stub provider so the
contextual code path can be exercised end to end. The container format
is documented in sentmatch/embedding.py. Sentences are tokenized and
truncated exactly like the training pipeline (same task cap), so the
record lengths always match what the model will look up.

    python3 scripts/make_contextual_cache.py --data data/train.tsv --task snli \
        --dim 64 --seed 0 --out data/train_ctx.bin
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sentmatch.cli import run
from sentmatch.data import read_dataset, task_spec, tokenize_pairs
from sentmatch.embedding import StubContextualProvider, Vocab, write_contextual_cache


def sentence_records(paths, spec, cap, provider):
    """(sentence id, vectors) for each distinct sentence of the splits, in first-seen order."""
    seen = set()
    for path in paths:
        # only tokens and sentence ids are read, so no vocabulary is built
        tokenized, _ = tokenize_pairs(read_dataset(path, spec), Vocab(), cap)
        for p in tokenized:
            for sid, tokens in ((p.sid_a, p.tokens_a), (p.sid_b, p.tokens_b)):
                if sid not in seen:
                    seen.add(sid)
                    yield sid, provider.vectors(sid, tokens)


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--data", required=True, nargs="+", help="one or more TSV splits to cover")
    parser.add_argument("--task", required=True)
    parser.add_argument("--dim", type=int, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-len", type=int, default=0, help="0 uses the task cap")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    spec = task_spec(args.task)
    cap = args.max_len if args.max_len > 0 else spec.max_len
    provider = StubContextualProvider(args.dim, seed=args.seed)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    count = write_contextual_cache(out, args.dim, sentence_records(args.data, spec, cap, provider))
    print(f"wrote {count} sentence records to {out}")


if __name__ == "__main__":
    sys.exit(run(main))
