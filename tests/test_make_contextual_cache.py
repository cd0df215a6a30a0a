"""scripts/make_contextual_cache.py: the stub's rows for every distinct sentence of the splits."""

import subprocess
import sys
from pathlib import Path

from sentmatch.cli import main
from sentmatch.data import read_dataset, tokenize_pairs
from sentmatch.embedding import StubContextualProvider, Vocab, read_contextual_cache

ROOT = Path(__file__).resolve().parents[1]
SPLITS = [ROOT / "data" / "tiny_train.tsv", ROOT / "data" / "tiny_dev.tsv"]


def _make_cache(out, dim, seed):
    proc = subprocess.run(
        [sys.executable, ROOT / "scripts" / "make_contextual_cache.py", "--data", *SPLITS, "--task", "snli", "--dim", str(dim), "--seed", str(seed), "--out", out],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_one_record_per_distinct_sentence_holding_the_stubs_rows(tmp_path):
    out = tmp_path / "ctx.bin"
    printed = _make_cache(out, 6, 9)
    sentences = {}  # sid -> tokens, in first-seen order
    for split in SPLITS:
        for p in tokenize_pairs(read_dataset(split, "snli"), Vocab(), 64)[0]:
            sentences.setdefault(p.sid_a, p.tokens_a)
            sentences.setdefault(p.sid_b, p.tokens_b)
    dim, records = read_contextual_cache(out)
    assert dim == 6 and list(records) == list(sentences)
    stub = StubContextualProvider(6, seed=9)
    for sid, tokens in sentences.items():
        assert records[sid].tobytes() == stub.vectors(sid, tokens).tobytes()
    assert printed == f"wrote {len(sentences)} sentence records to {out}\n"


def test_a_stub_trained_checkpoint_evaluates_the_same_on_the_scripts_cache(tmp_path, capsys):
    out = tmp_path / "run"
    args = ["--static_dim", "8", "--contextual_dim", "4", "--hidden", "8", "--epochs", "1", "--batch_size", "16", "--seed", "3"]
    assert main(["train", "--train", str(SPLITS[0]), "--out", str(out), "--quiet", "--contextual", "stub", *args]) == 0
    cache = tmp_path / "ctx.bin"
    _make_cache(cache, 4, 3)  # the CLI's stub is seeded with the run's seed
    reports = []
    for contextual in ("stub", str(cache)):
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(out / "checkpoint.bin"), "--data", str(SPLITS[1]), "--contextual", contextual]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0].startswith("acc=") and reports[0] == reports[1]
