"""Malformed inputs end in a typed error that names the file, never a raw traceback."""

import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import sentmatch
from sentmatch.checkpoint import load_checkpoint, save_checkpoint
from sentmatch.cli import main
from sentmatch.config import TrainConfig
from sentmatch.data import RawPair, read_dataset
from sentmatch.embedding import read_contextual_cache, write_contextual_cache
from sentmatch.errors import DataError, ParseError
from sentmatch.synthetic import make_classification_pairs, make_ranking_groups, write_tsv
from sentmatch.trainer import train

TINY = ["--static_dim", "12", "--contextual_dim", "0", "--hidden", "8", "--epochs", "1", "--batch_size", "16", "--seed", "3"]
LABELS = {"entailment": 0, "contradiction": 1, "neutral": 2}


@pytest.fixture(scope="module")
def ck_blob(tmp_path_factory):
    pairs = [RawPair(LABELS[l], a, b) for l, a, b in make_classification_pairs(8, seed=1)]
    cfg = TrainConfig(task="snli", static_dim=4, contextual_dim=0, hidden=3, epochs=1, batch_size=8, seed=3)
    path = tmp_path_factory.mktemp("valid") / "ck.bin"
    save_checkpoint(path, train(cfg, pairs).checkpoint)
    return path.read_bytes()


@pytest.fixture(scope="module")
def cache_blob(tmp_path_factory):
    rng = np.random.default_rng(0)
    records = [("first", rng.normal(size=(2, 3))), ("ids are utf-8: é", rng.normal(size=(1, 3))), ("empty", np.zeros((0, 3)))]
    path = tmp_path_factory.mktemp("valid") / "ctx.bin"
    write_contextual_cache(path, 3, records)
    return path.read_bytes()


@pytest.fixture(scope="module")
def cut_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("cut")


def _manifest_end(blob):
    (manifest_len,) = struct.unpack("<Q", blob[8:16])
    return 16 + manifest_len


def _write(tmp_path, name, blob):
    path = tmp_path / name
    path.write_bytes(blob)
    return path


class TestCheckpointFile:
    def test_fixtures_are_valid(self, tmp_path, ck_blob, cache_blob):
        assert load_checkpoint(_write(tmp_path, "ck.bin", ck_blob)).params
        assert read_contextual_cache(_write(tmp_path, "ctx.bin", cache_blob))[1]

    @given(st.data())
    def test_every_strict_prefix_is_a_parse_error(self, cut_dir, ck_blob, data):
        cut = data.draw(st.integers(min_value=0, max_value=len(ck_blob) - 1))
        path = _write(cut_dir, "ck.bin", ck_blob[:cut])
        with pytest.raises(ParseError, match=str(path)):
            load_checkpoint(path)

    def test_every_prefix_ending_in_the_header_or_manifest_is_a_parse_error(self, tmp_path, ck_blob):
        path = tmp_path / "ck.bin"
        for cut in range(_manifest_end(ck_blob) + 1):
            path.write_bytes(ck_blob[:cut])
            with pytest.raises(ParseError, match=str(path)):
                load_checkpoint(path)

    @pytest.mark.parametrize(
        "old, new",
        [
            (b'{"adam_t"', b'\xff"adam_t"'),
            (b'{"adam_t"', b'["adam_t"'),
            (b'"epoch":', b'"epokh":'),
            (b'"shape":', b'"shapf":'),
            (b'"tensors":[', b'"tensors":7,"was":['),
            (b'"hidden":', b'"hiddem":'),
        ],
        ids=["not-utf8", "not-json", "missing-top-level-key", "missing-tensor-key", "wrong-type", "bad-config"],
    )
    def test_broken_manifest_is_a_parse_error(self, tmp_path, ck_blob, old, new):
        end = _manifest_end(ck_blob)
        assert old in ck_blob[16:end]
        manifest = ck_blob[16:end].replace(old, new, 1)
        path = _write(tmp_path, "ck.bin", ck_blob[:8] + struct.pack("<Q", len(manifest)) + manifest + ck_blob[end:])
        with pytest.raises(ParseError, match=str(path)):
            load_checkpoint(path)

    def test_eval_on_a_truncated_checkpoint_exits_2_without_a_traceback(self, tmp_path, ck_blob):
        dev = tmp_path / "dev.tsv"
        write_tsv(dev, make_classification_pairs(6, seed=2))
        ck = _write(tmp_path, "ck.bin", ck_blob[: _manifest_end(ck_blob) - 40])
        env = dict(os.environ, PYTHONPATH=str(Path(sentmatch.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "sentmatch.cli", "eval", "--checkpoint", str(ck), "--data", str(dev)],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:") and str(ck) in proc.stderr
        assert "Traceback" not in proc.stderr


class TestContextualCacheFile:
    @given(st.data())
    def test_every_strict_prefix_is_a_parse_error(self, cut_dir, cache_blob, data):
        cut = data.draw(st.integers(min_value=0, max_value=len(cache_blob) - 1))
        path = _write(cut_dir, "ctx.bin", cache_blob[:cut])
        with pytest.raises(ParseError, match=str(path)):
            read_contextual_cache(path)

    def test_every_prefix_exhaustively(self, tmp_path, cache_blob):
        path = tmp_path / "ctx.bin"
        for cut in range(len(cache_blob)):
            path.write_bytes(cache_blob[:cut])
            with pytest.raises(ParseError, match=str(path)):
                read_contextual_cache(path)

    def test_id_that_is_not_utf8_is_a_parse_error(self, tmp_path, cache_blob):
        path = _write(tmp_path, "ctx.bin", cache_blob.replace(b"first", b"\xffirst", 1))
        with pytest.raises(ParseError, match="not UTF-8"):
            read_contextual_cache(path)

    def test_huge_record_length_is_a_parse_error(self, tmp_path, cache_blob):
        at = 20  # the first record's id length
        path = _write(tmp_path, "ctx.bin", cache_blob[:at] + struct.pack("<I", 2**32 - 1) + cache_blob[at + 4 :])
        with pytest.raises(ParseError, match="truncated"):
            read_contextual_cache(path)


class TestDatasetInput:
    def test_non_utf8_tsv_names_the_path_and_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_bytes("entailment\ta man eats\ta person eats\n".encode() + b"neutral\ta caf\xe9\tsomething\n")
        with pytest.raises(DataError, match=rf"{path}:2: not valid UTF-8"):
            read_dataset(path, "snli")

    def test_non_utf8_tsv_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.tsv"
        path.write_bytes(b"entailment\t\xff\xfe\tb\n")
        out = tmp_path / "run"
        assert main(["train", "--train", str(path), "--out", str(out), "--quiet", *TINY]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}:1:")

    def test_line_endings_and_blank_lines_parse_as_before(self, tmp_path):
        path = tmp_path / "crlf.tsv"
        path.write_bytes(b"entailment\ta b\tc d\r\n\r\nneutral\te\tf\rcontradiction\tg\th")
        pairs = read_dataset(path, "snli")
        assert [(p.label, p.sent_a, p.sent_b, p.line_no) for p in pairs] == [(0, "a b", "c d", 1), (2, "e", "f", 3), (1, "g", "h", 4)]


class TestNothingToTrainOn:
    @pytest.mark.parametrize("content", ["", "entailment\t \t \n"], ids=["empty", "no-tokens"])
    def test_train_exits_2_and_writes_no_artifacts(self, tmp_path, capsys, content):
        path = tmp_path / "train.tsv"
        path.write_text(content)
        out = tmp_path / "run"
        assert main(["train", "--train", str(path), "--out", str(out), "--quiet", *TINY]) == 2
        assert "no training step" in capsys.readouterr().err
        assert not (out / "checkpoint.bin").exists() and not (out / "history.json").exists()

    def test_ranking_split_without_a_negative_is_a_data_error(self):
        pairs = [RawPair(1, a, b, g) for l, a, b, g in make_ranking_groups(3, seed=4) if int(l) == 1]
        assert pairs
        cfg = TrainConfig(task="wikiqa", static_dim=4, contextual_dim=0, hidden=3, epochs=1, batch_size=4, seed=3)
        with pytest.raises(DataError, match="no training step"):
            train(cfg, pairs)
