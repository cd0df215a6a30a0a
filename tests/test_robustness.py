"""Malformed inputs end in a typed error that names the file, never a raw traceback."""

import dataclasses
import json
import math
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
from sentmatch import checkpoint, cli
from sentmatch import tensor as T
from sentmatch.checkpoint import load_checkpoint, save_checkpoint
from sentmatch.cli import main
from sentmatch.config import TrainConfig
from sentmatch.data import RawPair, build_vocab, read_dataset, tokenize_pairs
from sentmatch.embedding import StubContextualProvider, Vocab, read_contextual_cache, write_contextual_cache
from sentmatch.errors import DataError, ParseError
from sentmatch.synthetic import make_classification_pairs, make_ranking_groups, write_tsv
from sentmatch.trainer import train

import oracles

DATA = Path(__file__).resolve().parents[1] / "data"
TINY = ["--static_dim", "12", "--contextual_dim", "0", "--hidden", "8", "--epochs", "1", "--batch_size", "16", "--seed", "3"]
LABELS = {"entailment": 0, "contradiction": 1, "neutral": 2}


@pytest.fixture(scope="module")
def valid_ck():
    pairs = [RawPair(LABELS[l], a, b) for l, a, b in make_classification_pairs(8, seed=1)]
    cfg = TrainConfig(task="snli", static_dim=4, contextual_dim=0, hidden=3, epochs=1, batch_size=8, seed=3)
    return train(cfg, pairs).checkpoint


@pytest.fixture(scope="module")
def ck_blob(tmp_path_factory, valid_ck):
    path = tmp_path_factory.mktemp("valid") / "ck.bin"
    save_checkpoint(path, valid_ck)
    return path.read_bytes()


@pytest.fixture(scope="module")
def legacy_ck_blob(tmp_path_factory, valid_ck):
    """The same checkpoint in the earlier layout that also held Adam state."""
    moments = {n: np.full(t.shape, 0.5) for n, t in valid_ck.params.items()}
    path = tmp_path_factory.mktemp("valid") / "legacy.bin"
    oracles.save_checkpoint_with_moments(path, valid_ck, moments, moments, adam_t=1, history=[{"epoch": 0, "train_loss": 1.0}])
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


# (tensor, its new shape given the saved one; None drops it): each makes a
# checkpoint whose tensors are not the ones its own config calls for
MISMATCHES = [
    ("inter.w_p", None),
    ("embed.static", lambda shape: (3, shape[1])),
    ("enc.conv1", lambda shape: (*shape[:-1], shape[-1] + 1)),
    ("head.w", lambda shape: (shape[0] + 2, shape[1])),
    ("enc.w_extra", lambda shape: (2, 2)),
]


def _mismatched(ck, name, reshape):
    params = dict(ck.params)
    if reshape is None:
        del params[name]
    else:
        params[name] = T.Tensor(np.full(reshape(params[name].shape if name in params else None), 0.25))
    return dataclasses.replace(ck, params=params)


def _write(tmp_path, name, blob):
    path = tmp_path / name
    path.write_bytes(blob)
    return path


def _run_cli(*argv):
    """Run the CLI in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(sentmatch.__file__).resolve().parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "sentmatch.cli", *map(str, argv)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def _assert_cli_fails(code, culprit, *argv):
    """Run the CLI in a fresh interpreter: exit `code`, one `error:` line naming `culprit`, no traceback."""
    proc = _run_cli(*argv)
    assert proc.returncode == code, proc.stderr
    assert proc.stderr.startswith("error:") and str(culprit) in proc.stderr
    assert "Traceback" not in proc.stderr


class TestCheckpointFile:
    def test_fixtures_are_valid(self, tmp_path, ck_blob, legacy_ck_blob, cache_blob):
        assert load_checkpoint(_write(tmp_path, "ck.bin", ck_blob)).params
        assert load_checkpoint(_write(tmp_path, "legacy.bin", legacy_ck_blob)).params
        assert read_contextual_cache(_write(tmp_path, "ctx.bin", cache_blob))[1]

    @given(st.data())
    def test_every_strict_prefix_is_a_parse_error(self, cut_dir, ck_blob, legacy_ck_blob, data):
        for blob in (ck_blob, legacy_ck_blob):
            cut = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
            path = _write(cut_dir, "ck.bin", blob[:cut])
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
            (b'{"config"', b'\xff"config"'),
            (b'{"config"', b'["config"'),
            (b'"epoch":', b'"epokh":'),
            (b'"shape":', b'"shapf":'),
            (b'"tensors":[', b'"tensors":7,"was":['),
            (b'"hidden":', b'"hiddem":'),
            (b'"kind":"param"', b'"kind":"adam_w"'),
        ],
        ids=["not-utf8", "not-json", "missing-top-level-key", "missing-tensor-key", "wrong-type", "bad-config", "unknown-kind"],
    )
    def test_broken_manifest_is_a_parse_error(self, tmp_path, ck_blob, old, new):
        end = _manifest_end(ck_blob)
        assert old in ck_blob[16:end]
        manifest = ck_blob[16:end].replace(old, new, 1)
        path = _write(tmp_path, "ck.bin", ck_blob[:8] + struct.pack("<Q", len(manifest)) + manifest + ck_blob[end:])
        with pytest.raises(ParseError, match=str(path)):
            load_checkpoint(path)

    @pytest.mark.parametrize("kind", ["param", "adam_m"])
    def test_negative_shape_is_a_parse_error(self, tmp_path, legacy_ck_blob, kind):
        # a skipped legacy tensor is refused like a read one, never seeked backwards past
        end = _manifest_end(legacy_ck_blob)
        manifest = legacy_ck_blob[16:end]
        at = manifest.index(b'"shape":[', manifest.index(b'"kind":"' + kind.encode() + b'"')) + len(b'"shape":[')
        manifest = manifest[:at] + b"-8," + manifest[at:]
        path = _write(tmp_path, "ck.bin", legacy_ck_blob[:8] + struct.pack("<Q", len(manifest)) + manifest + legacy_ck_blob[end:])
        with pytest.raises(ParseError, match=str(path)) as err:
            load_checkpoint(path)
        assert "negative" in str(err.value)

    @pytest.mark.parametrize("extra", [1, 8, 72])
    @pytest.mark.parametrize("layout", ["current", "legacy"])
    def test_bytes_after_the_last_tensor_are_a_parse_error(self, tmp_path, ck_blob, legacy_ck_blob, layout, extra):
        blob = ck_blob if layout == "current" else legacy_ck_blob
        path = _write(tmp_path, "ck.bin", blob + bytes(range(7, 7 + extra)))
        with pytest.raises(ParseError, match=str(path)) as err:
            load_checkpoint(path)
        assert f"{extra} bytes after the last tensor, from byte {len(blob)} of {len(blob) + extra}" in str(err.value)

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_cli_on_a_checkpoint_with_trailing_bytes_exits_2(self, tmp_path, capsys, ck_blob, command):
        dev = tmp_path / "dev.tsv"
        write_tsv(dev, make_classification_pairs(6, seed=2))
        path = _write(tmp_path, "ck.bin", ck_blob + b"\0" * 72)
        assert main([command, "--checkpoint", str(path), "--data", str(dev)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert err.startswith("error:") and str(path) in err and f"from byte {len(ck_blob)}" in err

    def test_a_legacy_file_with_adam_moments_loads_as_the_current_one(self, tmp_path, ck_blob, legacy_ck_blob):
        manifest = json.loads(legacy_ck_blob[16 : _manifest_end(legacy_ck_blob)])
        assert {entry["kind"] for entry in manifest["tensors"]} == {"param", "adam_m", "adam_v"}
        legacy, current = (load_checkpoint(_write(tmp_path, name, blob)) for name, blob in (("legacy.bin", legacy_ck_blob), ("ck.bin", ck_blob)))
        assert legacy.epoch == current.epoch and legacy.vocab.id_to_token == current.vocab.id_to_token
        assert {n: t.data.tobytes() for n, t in legacy.params.items()} == {n: t.data.tobytes() for n, t in current.params.items()}
        resaved = tmp_path / "resaved.bin"
        save_checkpoint(resaved, legacy)
        assert resaved.read_bytes() == ck_blob

    def test_eval_on_a_truncated_checkpoint_exits_2_without_a_traceback(self, tmp_path, ck_blob):
        dev = tmp_path / "dev.tsv"
        write_tsv(dev, make_classification_pairs(6, seed=2))
        ck = _write(tmp_path, "ck.bin", ck_blob[: _manifest_end(ck_blob) - 40])
        _assert_cli_fails(2, ck, "eval", "--checkpoint", ck, "--data", dev)

    @pytest.mark.parametrize("name, reshape", MISMATCHES, ids=["missing", "too-few-table-rows", "wrong-conv-width", "wrong-head-rows", "extra"])
    def test_tensors_that_do_not_match_the_config_are_refused_before_any_read(self, tmp_path, monkeypatch, valid_ck, name, reshape):
        path = tmp_path / "ck.bin"
        save_checkpoint(path, _mismatched(valid_ck, name, reshape))

        def read_nothing(*args):
            raise AssertionError("an array was read before the manifest was checked")

        monkeypatch.setattr(checkpoint, "_read_array", read_nothing)
        with pytest.raises(ParseError, match=str(path)) as err:
            load_checkpoint(path)
        assert repr(name) in str(err.value)

    def test_a_tensor_listed_twice_is_a_parse_error(self, tmp_path, ck_blob):
        end = _manifest_end(ck_blob)
        manifest = json.loads(ck_blob[16:end])
        twice = manifest["tensors"][-1]
        manifest["tensors"].append(twice)
        header = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
        extra = ck_blob[len(ck_blob) - 8 * math.prod(twice["shape"]) :]
        path = _write(tmp_path, "ck.bin", ck_blob[:8] + struct.pack("<Q", len(header)) + header + ck_blob[end:] + extra)
        with pytest.raises(ParseError, match=str(path)) as err:
            load_checkpoint(path)
        assert f"{twice['name']!r} appears twice" in str(err.value)

    @pytest.mark.parametrize("command", ["eval", "predict"])
    @pytest.mark.parametrize("name, reshape", MISMATCHES, ids=["missing", "too-few-table-rows", "wrong-conv-width", "wrong-head-rows", "extra"])
    def test_cli_on_a_checkpoint_that_does_not_match_its_config_exits_2(self, tmp_path, capsys, valid_ck, command, name, reshape):
        dev = tmp_path / "dev.tsv"
        write_tsv(dev, make_classification_pairs(6, seed=2))
        path = tmp_path / "ck.bin"
        save_checkpoint(path, _mismatched(valid_ck, name, reshape))
        assert main([command, "--checkpoint", str(path), "--data", str(dev)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert str(path) in err and repr(name) in err


    @pytest.mark.parametrize(
        "edit, culprit",
        [
            (lambda m: m.update(config=None), "config is not an object"),
            (lambda m: m.update(config=[]), "config is not an object"),
            (lambda m: m["config"].update(task="nope"), "unknown task 'nope'"),
            (lambda m: m["config"].update(dropout=1.5), "dropout"),
            (lambda m: m["config"].update(batch_size=0), "batch_size"),
            (lambda m: m.update(epoch="x"), "epoch 'x'"),
        ],
        ids=["null-config", "list-config", "unknown-task", "dropout-out-of-range", "zero-batch-size", "epoch-not-an-integer"],
    )
    def test_a_manifest_config_or_epoch_that_fails_its_checks_exits_2_naming_the_file(self, tmp_path, capsys, ck_blob, edit, culprit):
        path = _write(tmp_path, "ck.bin", oracles.edit_manifest(ck_blob, edit))
        with pytest.raises(ParseError, match=str(path)) as err:
            load_checkpoint(path)
        assert culprit in str(err.value)
        dev = tmp_path / "dev.tsv"
        write_tsv(dev, make_classification_pairs(6, seed=2))
        assert main(["eval", "--checkpoint", str(path), "--data", str(dev)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and str(path) in err


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

    def test_failed_write_leaves_previous_file_intact(self, tmp_path, cache_blob):
        path = _write(tmp_path, "ctx.bin", cache_blob)
        # the last record has the wrong width: the write fails partway
        records = [("first", np.ones((2, 3))), ("second", np.ones((1, 4)))]
        with pytest.raises(DataError, match="second"):
            write_contextual_cache(path, 3, records)
        assert path.read_bytes() == cache_blob
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ctx.bin"]

    @pytest.mark.parametrize("extra", [1, 4, 72])
    def test_bytes_after_the_last_record_are_a_parse_error(self, tmp_path, cache_blob, extra):
        path = _write(tmp_path, "ctx.bin", cache_blob + b"\xab" * extra)
        with pytest.raises(ParseError, match=str(path)) as err:
            read_contextual_cache(path)
        assert f"{extra} bytes after the last record, from byte {len(cache_blob)} of {len(cache_blob) + extra}" in str(err.value)

    def test_huge_record_length_is_a_parse_error(self, tmp_path, cache_blob):
        at = 20  # the first record's id length
        path = _write(tmp_path, "ctx.bin", cache_blob[:at] + struct.pack("<I", 2**32 - 1) + cache_blob[at + 4 :])
        with pytest.raises(ParseError, match="truncated"):
            read_contextual_cache(path)


def _tiny_cache(path, dim, fill=None):
    """A cache of the stub's rows (or of `fill`) for every sentence of the tiny SNLI splits."""
    stub = StubContextualProvider(dim, seed=3)
    records = {}
    for tsv in (DATA / "tiny_train.tsv", DATA / "tiny_dev.tsv"):
        for p in tokenize_pairs(read_dataset(tsv, "snli"), Vocab(), 64)[0]:
            for sid, tokens in ((p.sid_a, p.tokens_a), (p.sid_b, p.tokens_b)):
                rows = stub.vectors(sid, tokens)
                records[sid] = rows if fill is None else np.full_like(rows, fill)
    write_contextual_cache(path, dim, records.items())
    return path


def _assert_one_error_line(proc, code, *culprits):
    assert proc.returncode == code, proc.stderr
    (line,) = proc.stderr.splitlines()
    assert line.startswith("error:") and all(str(c) in line for c in culprits), line


class TestContextualCacheInput:
    """A cache that does not fit the run, or holds NaN or infinity, exits 2 with one error line."""

    ARGS = ["--task", "snli", "--hidden", "8", "--static_dim", "8", "--epochs", "1", "--batch_size", "16", "--seed", "3"]

    @pytest.fixture(scope="class")
    def stub_ck(self, tmp_path_factory):
        """A checkpoint trained on the tiny split with 4-d stub vectors."""
        out = tmp_path_factory.mktemp("stub_run")
        proc = _run_cli("train", "--train", DATA / "tiny_train.tsv", *self.ARGS, "--contextual_dim", "4", "--contextual", "stub", "--out", out, "--quiet")
        assert proc.returncode == 0, proc.stderr
        return out / "checkpoint.bin"

    def test_train_with_a_cache_of_another_width(self, tmp_path):
        cache = _tiny_cache(tmp_path / "ctx4.bin", 4)
        out = tmp_path / "run"
        proc = _run_cli("train", "--train", DATA / "tiny_train.tsv", *self.ARGS, "--contextual_dim", "8", "--contextual", cache, "--out", out)
        _assert_one_error_line(proc, 2, cache, "4-d", "contextual_dim 8")
        assert not (out / "checkpoint.bin").exists()

    def test_eval_with_a_cache_of_another_width(self, tmp_path, stub_ck):
        cache = _tiny_cache(tmp_path / "ctx8.bin", 8)
        proc = _run_cli("eval", "--checkpoint", stub_ck, "--data", DATA / "tiny_dev.tsv", "--contextual", cache)
        _assert_one_error_line(proc, 2, cache, "8-d", "contextual_dim 4")

    @pytest.mark.parametrize("fill", [np.nan, np.inf], ids=["nan", "inf"])
    def test_train_on_a_non_finite_cache(self, tmp_path, fill):
        cache = _tiny_cache(tmp_path / "bad.bin", 4, fill)
        out = tmp_path / "run"
        proc = _run_cli("train", "--train", DATA / "tiny_train.tsv", *self.ARGS, "--contextual_dim", "4", "--contextual", cache, "--out", out)
        _assert_one_error_line(proc, 2, cache, "non-finite value at byte")
        assert not (out / "checkpoint.bin").exists()

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_a_cache_with_trailing_bytes_at_inference(self, tmp_path, stub_ck, command):
        cache = _tiny_cache(tmp_path / "ctx4.bin", 4)
        size = cache.stat().st_size
        with open(cache, "ab") as fh:
            fh.write(b"\0" * 72)
        proc = _run_cli(command, "--checkpoint", stub_ck, "--data", DATA / "tiny_dev.tsv", "--contextual", cache)
        _assert_one_error_line(proc, 2, cache, f"72 bytes after the last record, from byte {size}")
        assert proc.stdout == ""

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_a_non_finite_cache_at_inference(self, tmp_path, stub_ck, command):
        cache = _tiny_cache(tmp_path / "bad.bin", 4, np.nan)
        proc = _run_cli(command, "--checkpoint", stub_ck, "--data", DATA / "tiny_dev.tsv", "--contextual", cache)
        _assert_one_error_line(proc, 2, cache, "non-finite value at byte")
        assert proc.stdout == ""


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


class TestTextInputs:
    @pytest.mark.parametrize(
        "flag, content, line, code",
        [
            ("--vocab", b"<pad>\n<unk>\na\ncaf\xe9\n", 4, 2),
            ("--vectors", b"a 0.1 0.2\ncaf\xe9 0.3 0.4\n", 2, 2),
            ("--config", b"hidden = 8\n# r\xe9sum\xe9\n", 2, 1),
        ],
        ids=["vocab", "vectors", "config"],
    )
    def test_non_utf8_file_names_the_path_and_line(self, tmp_path, flag, content, line, code):
        train_tsv = tmp_path / "train.tsv"
        write_tsv(train_tsv, make_classification_pairs(8, seed=5))
        path = _write(tmp_path, "input.txt", content)
        argv = ["train", "--train", train_tsv, "--out", tmp_path / "run", "--quiet", *TINY, "--static_dim", "2", flag, path]
        _assert_cli_fails(code, f"{path}:{line}: not valid UTF-8", *argv)


class TestNonFiniteWeights:
    ARGS = ["--task", "snli", "--hidden", "8", "--static_dim", "8", "--contextual_dim", "0", "--epochs", "1", "--batch_size", "16"]

    def test_training_into_overflow_exits_3_and_writes_no_artifacts(self, tmp_path):
        out = tmp_path / "run"
        proc = _run_cli("train", "--train", DATA / "tiny_train.tsv", *self.ARGS, "--lr", "1e308", "--grad_clip", "0", "--out", out)
        assert proc.returncode == 3, proc.stderr
        # the abort is all of stderr: numpy's overflow warnings are silenced
        (line,) = proc.stderr.splitlines()
        assert line.startswith("error: epoch 0 batch ") and "is non-finite after Adam step" in line
        assert not (out / "checkpoint.bin").exists() and not (out / "history.json").exists()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_eval_on_a_non_finite_checkpoint_exits_2_naming_the_tensor(self, tmp_path, bad):
        out = tmp_path / "run"
        proc = _run_cli("train", "--train", DATA / "tiny_train.tsv", *self.ARGS, "--out", out, "--quiet")
        assert proc.returncode == 0, proc.stderr
        ck = load_checkpoint(out / "checkpoint.bin")
        ck.params["enc.w_in"].data[1, 2] = bad
        save_checkpoint(out / "checkpoint.bin", ck)
        with pytest.raises(ParseError, match="'enc.w_in' holds a non-finite value"):
            load_checkpoint(out / "checkpoint.bin")
        _assert_cli_fails(2, "'enc.w_in' holds a non-finite value", "eval", "--checkpoint", out / "checkpoint.bin", "--data", DATA / "tiny_dev.tsv")


class TestNothingToTrainOn:
    @pytest.mark.parametrize("content", ["", "entailment\t \t \n"], ids=["empty", "no-tokens"])
    def test_train_exits_2_and_writes_no_artifacts(self, tmp_path, capsys, content):
        path = tmp_path / "train.tsv"
        path.write_text(content)
        out = tmp_path / "run"
        assert main(["train", "--train", str(path), "--out", str(out), "--quiet", *TINY]) == 2
        assert "no training step" in capsys.readouterr().err
        assert not (out / "checkpoint.bin").exists() and not (out / "history.json").exists()

    @pytest.mark.parametrize("extra_rows, extra_dim", [(5, 0), (-1, 0), (0, 1)])
    def test_static_vectors_of_another_shape_are_a_data_error(self, extra_rows, extra_dim):
        pairs = [RawPair(LABELS[l], a, b) for l, a, b in make_classification_pairs(8, seed=1)]
        cfg = TrainConfig(task="snli", static_dim=4, contextual_dim=0, hidden=3, epochs=1, batch_size=8, seed=3)
        shape = (len(build_vocab(pairs)) + extra_rows, 4 + extra_dim)
        with pytest.raises(DataError, match=r"static vectors have shape \[%d, %d\]" % shape):
            train(cfg, pairs, static_matrix=np.zeros(shape))

    def test_ranking_split_without_a_negative_is_a_data_error(self):
        pairs = [RawPair(1, a, b, g) for l, a, b, g in make_ranking_groups(3, seed=4) if int(l) == 1]
        assert pairs
        cfg = TrainConfig(task="wikiqa", static_dim=4, contextual_dim=0, hidden=3, epochs=1, batch_size=4, seed=3)
        with pytest.raises(DataError, match="no training step"):
            train(cfg, pairs)


class TestTextArtifacts:
    """Every text artifact is written to `<path>.tmp` and renamed into place."""

    BAD = "\udcff"  # a lone surrogate: encoding it as UTF-8 fails

    def _write_failing(self, artifact, out, monkeypatch):
        """Write `artifact` into `out` so that encoding fails after some of its lines."""
        if artifact == "vocab.txt":
            Vocab(["good", "bad" + self.BAD, "after"]).save(out / "vocab.txt")
        elif artifact == "config.txt":
            cfg = TrainConfig()
            cfg.pool = "splice" + self.BAD  # a field in the middle of the file
            cli._echo_config(cfg, out)
        else:
            train_tsv = out / "train.tsv"
            write_tsv(train_tsv, make_classification_pairs(8, seed=5))
            rows = [("full", "full", 0.5, 0.0), ("no_elmo" + self.BAD, "no_elmo", 0.4, -0.1)]
            monkeypatch.setattr(cli, "run_ablations", lambda *args, **kwargs: rows)
            monkeypatch.setattr(cli, "_echo_config", lambda cfg, out_dir: None)
            main(["ablate", "--train", str(train_tsv), "--dev", str(train_tsv), "--out", str(out), *TINY])

    @pytest.mark.parametrize("artifact", ["vocab.txt", "config.txt", "ablate.txt"])
    def test_failed_write_leaves_previous_file_intact(self, tmp_path, monkeypatch, artifact):
        path = _write(tmp_path, artifact, b"previous\n")
        before = sorted(p.name for p in tmp_path.iterdir())
        with pytest.raises(UnicodeEncodeError):
            self._write_failing(artifact, tmp_path, monkeypatch)
        assert path.read_bytes() == b"previous\n"
        assert not list(tmp_path.glob("*.tmp"))
        assert sorted(p.name for p in tmp_path.iterdir() if p.suffix != ".tsv") == before
