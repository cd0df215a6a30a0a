#!/usr/bin/env python3
"""Desk-scale end-to-end experiment on synthetic data.

Generates a three-way classification corpus, trains the full model,
evaluates it, and prints the ablation matrix. Useful as a smoke test of
the whole pipeline and as a template for running on real converted
datasets.

    python3 scripts/run_desk_experiment.py --out /tmp/desk --train-size 2000 --epochs 3
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sentmatch.cli import main as cli_main, run
from sentmatch.synthetic import make_classification_pairs, write_tsv


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", default="desk_run")
    parser.add_argument("--train-size", type=int, default=2000)
    parser.add_argument("--dev-size", type=int, default=500)
    parser.add_argument("--hidden", type=int, default=64)
    parser.add_argument("--epochs", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--ablate", action="store_true", help="also run the seven-variant sweep")
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    train_tsv = out / "train.tsv"
    dev_tsv = out / "dev.tsv"
    write_tsv(train_tsv, make_classification_pairs(args.train_size, seed=args.seed * 10))
    write_tsv(dev_tsv, make_classification_pairs(args.dev_size, seed=args.seed * 10 + 1))

    common = [
        "--task", "snli",
        "--static_dim", str(args.hidden),
        "--contextual_dim", "0",
        "--hidden", str(args.hidden),
        "--epochs", str(args.epochs),
        "--seed", str(args.seed),
    ]
    t0 = time.perf_counter()
    code = cli_main(["train", "--train", str(train_tsv), "--dev", str(dev_tsv), "--out", str(out / "run")] + common)
    if code == 0:
        print(f"training took {time.perf_counter() - t0:.0f}s")
        code = cli_main(["eval", "--checkpoint", str(out / "run" / "checkpoint.bin"), "--data", str(dev_tsv)])
    if code == 0 and args.ablate:
        code = cli_main(["ablate", "--train", str(train_tsv), "--dev", str(dev_tsv), "--out", str(out / "ablate")] + common)
    return code


if __name__ == "__main__":
    sys.exit(run(main))
