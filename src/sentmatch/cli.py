"""Command line front door: prep-vocab, train, eval, predict, ablate.

Every TrainConfig key is addressable in a `key = value` config file and
overridable with a `--key value` flag; flags win over the file, the file
wins over defaults. The resolved configuration is echoed into the output
directory so a run is reproducible from its artifacts alone.

Output locations are taken relative to $SENTMATCH_OUT when it is set.
Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical abort.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .config import TrainConfig, read_config_file
from .data import build_batches, build_vocab, read_dataset, task_spec
from .embedding import CacheContextualProvider, StubContextualProvider, Vocab, _write_atomic, load_static_vectors, random_static_vectors
from .errors import ConfigError, DataError, NumericalError, SentMatchError
from .model import MatchModel
from .trainer import evaluate_checkpoint, forward_batches, run_ablations, train


class UsageError(Exception):
    pass


def _out_path(raw):
    root = os.environ.get("SENTMATCH_OUT")
    path = Path(raw)
    if root and not path.is_absolute():
        path = Path(root) / path
    return path


def _add_config_flags(parser):
    for f in dataclasses.fields(TrainConfig):
        parser.add_argument(f"--{f.name}", dest=f"cfg_{f.name}", default=None, metavar="V", help=argparse.SUPPRESS)


def _resolve_config(args):
    cfg = TrainConfig()
    if args.config:
        cfg.apply(read_config_file(args.config))
    overrides = {
        f.name: getattr(args, f"cfg_{f.name}")
        for f in dataclasses.fields(TrainConfig)
        if getattr(args, f"cfg_{f.name}") is not None
    }
    cfg.apply(overrides)
    cfg.validate()
    return cfg


def _echo_config(cfg, out_dir):
    out_dir.mkdir(parents=True, exist_ok=True)
    with _write_atomic(out_dir / "config.txt") as fh:
        fh.write("".join(f"{key} = {value}\n" for key, value in cfg.to_dict().items()).encode("utf-8"))


def _provider_for(cfg, contextual_arg):
    if cfg.effective_contextual_dim == 0:
        return None
    if contextual_arg is None:
        raise UsageError("config asks for contextual vectors; pass --contextual stub or --contextual <cache file>")
    if contextual_arg == "stub":
        return StubContextualProvider(cfg.contextual_dim, seed=cfg.seed)
    return CacheContextualProvider(contextual_arg)


def _static_for(cfg, vocab, vectors_arg):
    if vectors_arg:
        return load_static_vectors(vectors_arg, vocab, cfg.static_dim, seed=cfg.seed)
    return random_static_vectors(vocab, cfg.static_dim, seed=cfg.seed)


def cmd_prep_vocab(args):
    spec = task_spec(args.task)
    pairs = read_dataset(args.train, spec)
    vocab = build_vocab(pairs, min_count=args.min_count)
    out = _out_path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    vocab.save(out)
    print(f"vocab_size={len(vocab)} out={out}")
    return 0


def cmd_train(args):
    cfg = _resolve_config(args)
    train_pairs = read_dataset(args.train, cfg.task)
    dev_pairs = read_dataset(args.dev, cfg.task) if args.dev else None
    vocab = Vocab.load(args.vocab) if args.vocab else build_vocab(train_pairs)
    static = _static_for(cfg, vocab, args.vectors)
    provider = _provider_for(cfg, args.contextual)
    out_dir = _out_path(args.out)
    _echo_config(cfg, out_dir)
    result = train(
        cfg,
        train_pairs,
        dev_pairs=dev_pairs,
        static_matrix=static,
        provider=provider,
        vocab=vocab,
        log=(None if args.quiet else print),
    )
    save_checkpoint(out_dir / "checkpoint.bin", result.checkpoint)
    with _write_atomic(out_dir / "history.json") as fh:
        fh.write(json.dumps(result.history, indent=1, sort_keys=True).encode("utf-8"))
    print(f"fingerprint={cfg.fingerprint()} best_epoch={result.best_epoch}")
    if dev_pairs is not None:
        name = "acc" if task_spec(cfg.task).kind == "classify" else "map"
        print(f"dev_{name}={result.best_metric:.4f}")
    else:
        print(f"final_train_loss={result.history[-1]['train_loss']:.4f}")
    return 0


def cmd_eval(args):
    ck = load_checkpoint(args.checkpoint)
    provider = _provider_for(ck.config, args.contextual)
    pairs = read_dataset(args.data, ck.config.task)
    report = evaluate_checkpoint(ck, pairs, provider=provider)
    print(report.format_line())
    print(f"fingerprint={report.fingerprint}")
    return 0


def cmd_predict(args):
    ck = load_checkpoint(args.checkpoint)
    provider = _provider_for(ck.config, args.contextual)
    pairs = read_dataset(args.data, ck.config.task)
    model = MatchModel(ck.config, ck.params, provider=provider)
    spec = task_spec(ck.config.task)
    batches, skipped = build_batches(pairs, ck.vocab, spec, ck.config.batch_size, shuffle_seed=None, max_len=ck.config.effective_max_len)
    if skipped:
        print(f"skipped={skipped}", file=sys.stderr)
    for batch, out in zip(batches, forward_batches(model, batches)):
        for pair, row in zip(batch.items, out):
            if spec.kind == "classify":
                probs_txt = ",".join(f"{p:.6f}" for p in row)
                print(f"{pair.line_no}\t{spec.labels[int(np.argmax(row))]}\t{probs_txt}")
            else:
                print(f"{pair.line_no}\t{pair.group_id}\t{float(row[0]):.6f}")
    return 0


def cmd_ablate(args):
    cfg = _resolve_config(args)
    train_pairs = read_dataset(args.train, cfg.task)
    dev_pairs = read_dataset(args.dev, cfg.task)
    vocab = build_vocab(train_pairs)
    static = _static_for(cfg, vocab, args.vectors)
    provider = _provider_for(cfg, args.contextual)
    out_dir = _out_path(args.out) if args.out else None
    if out_dir:
        _echo_config(cfg, out_dir)
    rows = run_ablations(cfg, train_pairs, dev_pairs, static_matrix=static, provider=provider)
    lines = [
        f"variant={variant} fingerprint={fp} metric={metric:.4f} delta={delta:+.4f}"
        for variant, fp, metric, delta in rows
    ]
    for line in lines:
        print(line)
    if out_dir:
        with _write_atomic(out_dir / "ablate.txt") as fh:
            fh.write(("\n".join(lines) + "\n").encode("utf-8"))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="sentmatch", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prep-vocab", help="build a vocabulary file from a training split")
    p.add_argument("--train", required=True)
    p.add_argument("--task", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--min-count", type=int, default=1)
    p.set_defaults(func=cmd_prep_vocab)

    p = sub.add_parser("train", help="train a model and write a checkpoint")
    p.add_argument("--train", required=True)
    p.add_argument("--dev")
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--out", default="run")
    p.add_argument("--vocab", help="prebuilt vocab file (default: build from the training split)")
    p.add_argument("--vectors", help="static vector text file (default: seeded random init)")
    p.add_argument("--contextual", help="'stub' or a contextual cache file")
    p.add_argument("--quiet", action="store_true")
    _add_config_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--contextual")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="print per-pair predictions from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--contextual")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("ablate", help="train and evaluate the seven standard variants")
    p.add_argument("--train", required=True)
    p.add_argument("--dev", required=True)
    p.add_argument("--config")
    p.add_argument("--out")
    p.add_argument("--vectors")
    p.add_argument("--contextual")
    _add_config_flags(p)
    p.set_defaults(func=cmd_ablate)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        # a run checks finiteness itself (NumericalError), so numpy's own warnings only add noise
        with np.errstate(all="ignore"):
            return args.func(args)
    except (UsageError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SentMatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
