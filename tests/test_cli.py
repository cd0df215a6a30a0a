import json

import numpy as np
import pytest

from sentmatch.checkpoint import load_checkpoint, save_checkpoint
from sentmatch.cli import main
from sentmatch.data import RawPair, read_dataset
from sentmatch.synthetic import make_classification_pairs, make_ranking_groups, write_tsv
from sentmatch.trainer import train
from sentmatch.config import TrainConfig

import oracles

TINY = ["--static_dim", "12", "--contextual_dim", "0", "--hidden", "8", "--epochs", "1", "--batch_size", "16", "--seed", "3"]


@pytest.fixture
def corpus(tmp_path):
    train_path = tmp_path / "train.tsv"
    dev_path = tmp_path / "dev.tsv"
    write_tsv(train_path, make_classification_pairs(48, seed=1))
    write_tsv(dev_path, make_classification_pairs(24, seed=2))
    return train_path, dev_path


@pytest.fixture
def rank_corpus(tmp_path):
    path = tmp_path / "rank.tsv"
    write_tsv(path, make_ranking_groups(4, seed=3))
    return path


class TestTrainCommand:
    def test_train_writes_checkpoint_and_history(self, corpus, tmp_path, capsys):
        train_path, dev_path = corpus
        out = tmp_path / "run"
        code = main(["train", "--train", str(train_path), "--dev", str(dev_path), "--out", str(out), "--quiet", *TINY])
        assert code == 0
        assert (out / "checkpoint.bin").exists()
        assert (out / "config.txt").exists()
        history = json.loads((out / "history.json").read_text())
        assert len(history) == 1
        printed = capsys.readouterr().out
        assert "dev_acc=" in printed and "fingerprint=full" in printed

    def test_conflicting_attention_flags_are_a_usage_error(self, corpus, tmp_path):
        train_path, _ = corpus
        code = main(["train", "--train", str(train_path), "--out", str(tmp_path / "x"), "--only_h2p", "1", "--only_p2h", "1", *TINY])
        assert code == 1

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--batch_size", "0"),
            ("--lr", "nan"),
            ("--kernel", "-1"),
            ("--seed", "-1"),
            ("--early_stop_patience", "-1"),
            ("--beta1", "1"),
            ("--beta1", "-0.5"),
            ("--beta2", "1.5"),
            ("--adam_eps", "0"),
            ("--adam_eps", "nan"),
        ],
    )
    def test_out_of_range_value_is_a_usage_error(self, corpus, tmp_path, capsys, flag, value):
        train_path, _ = corpus
        out = tmp_path / "x"
        code = main(["train", "--train", str(train_path), "--out", str(out), "--quiet", *TINY, flag, value])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and flag[2:] in err
        assert not (out / "checkpoint.bin").exists()

    def test_unknown_config_key_is_a_usage_error(self, corpus, tmp_path):
        train_path, _ = corpus
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("hiden = 8\n")
        code = main(["train", "--train", str(train_path), "--config", str(cfg_file), "--out", str(tmp_path / "x")])
        assert code == 1

    def test_config_file_plus_override_precedence(self, corpus, tmp_path):
        train_path, dev_path = corpus
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("hidden = 6\nepochs = 1\nstatic_dim = 12\ncontextual_dim = 0\nbatch_size = 16\nseed = 3\n")
        out = tmp_path / "run"
        code = main(["train", "--train", str(train_path), "--dev", str(dev_path), "--config", str(cfg_file), "--out", str(out), "--hidden", "10", "--quiet"])
        assert code == 0
        echoed = (out / "config.txt").read_text()
        assert "hidden = 10" in echoed  # flag beats file
        assert "static_dim = 12" in echoed  # file beats default

    def test_output_root_env_var(self, corpus, tmp_path, monkeypatch):
        train_path, _ = corpus
        monkeypatch.setenv("SENTMATCH_OUT", str(tmp_path / "root"))
        code = main(["train", "--train", str(train_path), "--out", "nested/run", "--quiet", *TINY])
        assert code == 0
        assert (tmp_path / "root" / "nested" / "run" / "checkpoint.bin").exists()


class TestEvalCommand:
    def test_eval_prints_key_value_metrics(self, corpus, tmp_path, capsys):
        train_path, dev_path = corpus
        out = tmp_path / "run"
        assert main(["train", "--train", str(train_path), "--out", str(out), "--quiet", *TINY]) == 0
        capsys.readouterr()
        code = main(["eval", "--checkpoint", str(out / "checkpoint.bin"), "--data", str(dev_path)])
        assert code == 0
        printed = capsys.readouterr().out
        assert printed.startswith("acc=0.")
        assert "fingerprint=full" in printed

    def test_missing_checkpoint_fails_to_stderr(self, corpus, tmp_path, capsys):
        _, dev_path = corpus
        code = main(["eval", "--checkpoint", str(tmp_path / "nope.bin"), "--data", str(dev_path)])
        assert code != 0
        assert "error:" in capsys.readouterr().err

    def test_perfect_model_reports_unit_accuracy(self, tmp_path, capsys):
        # train to convergence on four trivially separable pairs
        rows = [("entailment", "same words here", "same words here"), ("contradiction", "same words here", "never never never")] * 2
        path = tmp_path / "sep.tsv"
        write_tsv(path, rows)
        pairs = [RawPair({"entailment": 0, "contradiction": 1}[l], a, b) for l, a, b in rows]
        cfg = TrainConfig(task="snli", static_dim=12, contextual_dim=0, hidden=8, epochs=60, batch_size=4, seed=1, dropout=0.0, early_stop_patience=0)
        result = train(cfg, pairs, dev_pairs=pairs)
        ck_path = tmp_path / "ck.bin"
        save_checkpoint(ck_path, result.checkpoint)
        assert main(["eval", "--checkpoint", str(ck_path), "--data", str(path)]) == 0
        assert "acc=1.0000" in capsys.readouterr().out

    def test_ranking_eval_prints_map_and_mrr(self, rank_corpus, tmp_path, capsys):
        out = tmp_path / "rk"
        code = main(["train", "--train", str(rank_corpus), "--task", "wikiqa", "--out", str(out), "--quiet", *TINY[:-2], "--seed", "3", "--batch_size", "8"])
        assert code == 0
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(out / "checkpoint.bin"), "--data", str(rank_corpus)]) == 0
        printed = capsys.readouterr().out
        assert printed.startswith("map=0.") or printed.startswith("map=1.")
        assert " mrr=" in printed


class TestPredictCommand:
    def test_classification_predictions_are_tsv(self, corpus, tmp_path, capsys):
        train_path, dev_path = corpus
        out = tmp_path / "run"
        assert main(["train", "--train", str(train_path), "--out", str(out), "--quiet", *TINY]) == 0
        capsys.readouterr()
        assert main(["predict", "--checkpoint", str(out / "checkpoint.bin"), "--data", str(dev_path)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 24
        first = lines[0].split("\t")
        assert first[1] in ("entailment", "contradiction", "neutral")
        assert len(first[2].split(",")) == 3

    def test_skipped_rows_are_counted_on_stderr_and_stdout_stays_tsv(self, corpus, tmp_path, capsys):
        train_path, dev_path = corpus
        out = tmp_path / "run"
        assert main(["train", "--train", str(train_path), "--out", str(out), "--quiet", *TINY]) == 0
        with_empty = tmp_path / "with_empty.tsv"
        with_empty.write_text(dev_path.read_text(encoding="utf-8") + "entailment\t   \ta dog runs\n", encoding="utf-8")
        for data, skipped_line in ((dev_path, ""), (with_empty, "skipped=1\n")):
            capsys.readouterr()
            assert main(["predict", "--checkpoint", str(out / "checkpoint.bin"), "--data", str(data)]) == 0
            captured = capsys.readouterr()
            lines = captured.out.splitlines()
            assert len(lines) == 24 and all(len(line.split("\t")) == 3 for line in lines)
            assert captured.err == skipped_line

    def test_first_column_is_the_records_input_line(self, corpus, tmp_path, capsys):
        train_path, _ = corpus
        out = tmp_path / "run"
        assert main(["train", "--train", str(train_path), "--out", str(out), "--quiet", *TINY]) == 0
        data = tmp_path / "dev.tsv"
        rows = [
            "entailment\ta dog runs\ta dog moves",
            "neutral\ta cat sleeps\ta cat rests",
            "contradiction\ta man eats\ta man sleeps",
            "-\tno consensus here\ta dog runs",  # dropped by the reader
            "neutral\t   \ta dog runs",  # tokenizes to nothing: skipped
            "entailment\ta woman sings\ta woman makes music",
            "neutral\ta bird flies\ta bird is high",
        ]
        data.write_text("\n".join(rows) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["predict", "--checkpoint", str(out / "checkpoint.bin"), "--data", str(data)]) == 0
        captured = capsys.readouterr()
        assert [line.split("\t")[0] for line in captured.out.splitlines()] == ["1", "2", "3", "6", "7"]
        assert captured.err == "skipped=1\n"


class TestPrepVocab:
    def test_writes_loadable_vocab(self, corpus, tmp_path, capsys):
        train_path, _ = corpus
        out = tmp_path / "vocab.txt"
        assert main(["prep-vocab", "--train", str(train_path), "--task", "snli", "--out", str(out)]) == 0
        assert "vocab_size=" in capsys.readouterr().out
        from sentmatch.embedding import Vocab

        vocab = Vocab.load(out)
        assert len(vocab) > 2

    def test_prebuilt_vocab_feeds_training(self, corpus, tmp_path):
        train_path, _ = corpus
        vocab_path = tmp_path / "vocab.txt"
        assert main(["prep-vocab", "--train", str(train_path), "--task", "snli", "--out", str(vocab_path)]) == 0
        out = tmp_path / "run"
        code = main(["train", "--train", str(train_path), "--vocab", str(vocab_path), "--out", str(out), "--quiet", *TINY])
        assert code == 0


class TestAblateCommand:
    def test_seven_rows_full_first_with_fingerprints_and_deltas(self, corpus, tmp_path, capsys):
        train_path, dev_path = corpus
        out = tmp_path / "abl"
        code = main(
            ["ablate", "--train", str(train_path), "--dev", str(dev_path), "--out", str(out), *TINY, "--contextual_dim", "4", "--contextual", "stub"]
        )
        assert code == 0
        lines = [l for l in capsys.readouterr().out.strip().splitlines() if l.startswith("variant=")]
        assert len(lines) == 7
        assert lines[0].startswith("variant=full fingerprint=full")
        assert "delta=+0.0000" in lines[0]
        for line in lines:
            assert "fingerprint=" in line and "metric=" in line and "delta=" in line
        expected = ["full", "no_elmo", "no_alignment", "no_fusion", "no_self_attention", "only_h2p", "only_p2h"]
        got = [l.split()[0].split("=")[1] for l in lines]
        assert got == expected
        assert (out / "ablate.txt").exists()


class TestContextualFlow:
    def test_cache_roundtrip_through_cli(self, tmp_path, capsys):
        # build a tiny cache covering every sentence, then train and eval with it
        from sentmatch.data import read_dataset, build_vocab, tokenize_pairs
        from sentmatch.embedding import StubContextualProvider, write_contextual_cache

        train_path = tmp_path / "train.tsv"
        write_tsv(train_path, make_classification_pairs(24, seed=5))
        pairs = read_dataset(train_path, "snli")
        vocab = build_vocab(pairs)
        tokenized, _ = tokenize_pairs(pairs, vocab, cap=64)
        stub = StubContextualProvider(4, seed=0)
        records = {}
        for p in tokenized:
            records[p.sid_a] = stub.vectors(p.sid_a, p.tokens_a)
            records[p.sid_b] = stub.vectors(p.sid_b, p.tokens_b)
        cache = tmp_path / "ctx.bin"
        write_contextual_cache(cache, 4, records.items())
        out = tmp_path / "run"
        code = main(
            ["train", "--train", str(train_path), "--out", str(out), "--quiet", "--contextual", str(cache)]
            + ["--static_dim", "12", "--contextual_dim", "4", "--hidden", "8", "--epochs", "1", "--batch_size", "16", "--seed", "3"]
        )
        assert code == 0
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(out / "checkpoint.bin"), "--data", str(train_path), "--contextual", str(cache)]) == 0
        assert "acc=" in capsys.readouterr().out

    def test_contextual_required_but_missing_is_usage_error(self, corpus, tmp_path):
        train_path, _ = corpus
        code = main(["train", "--train", str(train_path), "--out", str(tmp_path / "x"), "--static_dim", "12", "--contextual_dim", "4", "--hidden", "8", "--epochs", "1"])
        assert code == 1


class TestEarlierArtifacts:
    """Files written before the retired config keys, the manifest's history and its trainable flags were dropped."""

    @pytest.fixture(params=["snli", "wikiqa"])
    def old_and_new(self, request, corpus, rank_corpus, tmp_path):
        task = request.param
        data = corpus[1] if task == "snli" else rank_corpus
        pairs = read_dataset(data, task)
        result = train(TrainConfig(task=task, static_dim=12, contextual_dim=0, hidden=8, epochs=2, batch_size=8, seed=3), pairs, dev_pairs=pairs)
        new, with_history, with_moments = tmp_path / "new.bin", tmp_path / "history.bin", tmp_path / "moments.bin"
        save_checkpoint(new, result.checkpoint)
        oracles.save_checkpoint_with_history(with_history, result.checkpoint, result.history)
        moments = {n: np.full(t.shape, 0.25) for n, t in result.checkpoint.params.items()}
        oracles.save_checkpoint_with_moments(with_moments, result.checkpoint, moments, moments, adam_t=3, history=result.history)
        return data, new, (with_history, with_moments)

    def test_eval_and_predict_print_what_they_print_for_the_new_file(self, old_and_new, capsys):
        data, new, olds = old_and_new
        outputs = []
        for path in (new, *olds):
            capsys.readouterr()
            assert main(["eval", "--checkpoint", str(path), "--data", str(data)]) == 0
            assert main(["predict", "--checkpoint", str(path), "--data", str(data)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    def test_load_then_save_writes_the_new_files_bytes(self, old_and_new, tmp_path):
        _, new, olds = old_and_new
        for old in olds:
            resaved = tmp_path / "resaved.bin"
            save_checkpoint(resaved, load_checkpoint(old))
            assert resaved.read_bytes() == new.read_bytes()

    def test_manifest_with_a_retired_key_set_exits_2_naming_the_file(self, old_and_new, tmp_path, capsys):
        data, new, (with_history, _) = old_and_new
        bad = tmp_path / "bad.bin"
        bad.write_bytes(oracles.edit_manifest(with_history.read_bytes(), lambda m: m["config"].update(sum_loss=True)))
        assert main(["eval", "--checkpoint", str(bad), "--data", str(data)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(bad) in err and "sum_loss" in err

    def test_old_config_echo_still_trains(self, corpus, tmp_path):
        train_path, _ = corpus
        old = tmp_path / "old.cfg"
        old.write_text("hidden = 8\nstatic_dim = 12\ncontextual_dim = 0\nepochs = 1\nsum_loss = False\ninclude_unanswerable = False\n")
        assert main(["train", "--train", str(train_path), "--config", str(old), "--out", str(tmp_path / "run"), "--quiet"]) == 0
        assert "sum_loss" not in (tmp_path / "run" / "config.txt").read_text()

    def test_config_file_setting_a_retired_key_exits_1_naming_it(self, corpus, tmp_path, capsys):
        train_path, _ = corpus
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("sum_loss = true\n")
        out = tmp_path / "x"
        assert main(["train", "--train", str(train_path), "--config", str(cfg_file), "--out", str(out), *TINY]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "sum_loss" in err and "retired" in err
        assert not out.exists()

    def test_retired_key_as_a_flag_exits_1(self, corpus, tmp_path, capsys):
        train_path, _ = corpus
        out = tmp_path / "x"
        assert main(["train", "--train", str(train_path), "--out", str(out), *TINY, "--include_unanswerable", "true"]) == 1
        assert "--include_unanswerable" in capsys.readouterr().err
        assert not out.exists()
