#!/usr/bin/env python3
"""Generate seeded synthetic corpora in the normalized TSV schema.

Classification rows are `label \t sentence_a \t sentence_b`, ranking rows
append a group id column. Examples:

    python3 scripts/make_synthetic_data.py classify --n 1000 --seed 1 --out data/train.tsv
    python3 scripts/make_synthetic_data.py rank --questions 50 --seed 2 --out data/rank.tsv
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sentmatch.cli import run
from sentmatch.synthetic import make_classification_pairs, make_ranking_groups, write_tsv


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="kind", required=True)
    p = sub.add_parser("classify")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p = sub.add_parser("rank")
    p.add_argument("--questions", type=int, default=50)
    p.add_argument("--candidates", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    args = parser.parse_args()

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    if args.kind == "classify":
        rows = make_classification_pairs(args.n, seed=args.seed)
    else:
        rows = make_ranking_groups(args.questions, candidates_per_question=args.candidates, seed=args.seed)
    write_tsv(out, rows)
    print(f"wrote {len(rows)} rows to {out}")


if __name__ == "__main__":
    sys.exit(run(main))
