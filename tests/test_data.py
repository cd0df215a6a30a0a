import numpy as np
import pytest

from sentmatch.data import (
    RawPair,
    batch_pairs,
    build_batches,
    build_vocab,
    group_by_question,
    make_ranking_triples,
    read_dataset,
    task_spec,
    tokenize,
    tokenize_pairs,
)
from sentmatch.errors import DataError


def _write(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestReadDataset:
    def test_three_way_entailment_line(self, tmp_path):
        path = _write(tmp_path / "d.tsv", ["entailment\tA man eats.\tA person eats."])
        pairs = read_dataset(path, "snli")
        assert pairs[0].label == 0
        assert pairs[0].sent_a == "A man eats."

    def test_duplicate_question_line(self, tmp_path):
        path = _write(tmp_path / "d.tsv", ["1\tq1 text\tq2 text"])
        pairs = read_dataset(path, "quora")
        assert pairs[0].label == 1

    def test_ingest_count_matches_file(self, tmp_path):
        lines = [f"neutral\tsentence number {i}\tanother {i}" for i in range(200)]
        path = _write(tmp_path / "d.tsv", lines)
        assert len(read_dataset(path, "snli")) == 200

    def test_unknown_label_reports_line_number(self, tmp_path):
        path = _write(tmp_path / "d.tsv", ["entailment\ta\tb", "maybe\tc\td"])
        with pytest.raises(DataError, match=":2:"):
            read_dataset(path, "snli")

    def test_no_consensus_label_is_dropped(self, tmp_path):
        path = _write(tmp_path / "d.tsv", ["-\ta\tb", "neutral\tc\td"])
        assert len(read_dataset(path, "snli")) == 1

    def test_ranking_requires_group_id(self, tmp_path):
        path = _write(tmp_path / "d.tsv", ["1\twhere is x\tx is here"])
        with pytest.raises(DataError, match="group id"):
            read_dataset(path, "wikiqa")

    def test_scitail_binary_labels(self, tmp_path):
        path = _write(tmp_path / "d.tsv", ["entails\ta\tb", "neutral\tc\td"])
        pairs = read_dataset(path, "scitail")
        assert [p.label for p in pairs] == [0, 1]


class TestTokenize:
    def test_lowercase_and_punctuation_split(self):
        assert tokenize("A man, eats!") == ["a", "man", ",", "eats", "!"]

    def test_roundtrip_through_vocab(self):
        pairs = [RawPair(0, "the cat sat", "on the mat")]
        vocab = build_vocab(pairs)
        tokenized, _ = tokenize_pairs(pairs, vocab, cap=16)
        back = [vocab.id_to_token[i] for i in tokenized[0].ids_a]
        assert back == tokenize("the cat sat")


class TestTaskCaps:
    def test_caps_per_task(self):
        assert task_spec("snli").max_len == 64
        assert task_spec("scitail").max_len == 48
        assert task_spec("quora").max_len == 48
        assert task_spec("wikiqa").max_len == 32

    def test_long_sentence_truncated_to_cap(self):
        long_sent = " ".join(f"w{i}" for i in range(70))
        pairs = [RawPair(0, long_sent, "short one")]
        vocab = build_vocab(pairs)
        tokenized, _ = tokenize_pairs(pairs, vocab, cap=task_spec("snli").max_len)
        assert len(tokenized[0].tokens_a) == len(tokenized[0].ids_a) == 64


class TestBuildBatches:
    def test_mask_pattern(self):
        pairs = [RawPair(0, "a b c", "x y z p q"), RawPair(1, "a b c d e", "x")]
        vocab = build_vocab(pairs)
        batches, skipped = build_batches(pairs, vocab, 64, batch_size=8)
        assert skipped == 0
        batch = batches[0]
        np.testing.assert_array_equal(batch.mask_a[0], [1, 1, 1, 0, 0])
        np.testing.assert_array_equal(batch.mask_a[1], [1, 1, 1, 1, 1])

    def test_batch_never_exceeds_cap(self):
        pairs = [RawPair(0, " ".join(["w"] * 90), "short sentence here")]
        vocab = build_vocab(pairs)
        batches, _ = build_batches(pairs, vocab, 64, batch_size=4)
        assert batches[0].ids_a.shape[1] <= 64

    def test_identical_seed_gives_identical_order(self):
        pairs = [RawPair(i % 3, f"sentence {i} alpha", f"other {i}") for i in range(40)]
        vocab = build_vocab(pairs)
        tokenized, _ = tokenize_pairs(pairs, vocab, cap=64)
        b1 = batch_pairs(tokenized, batch_size=8, shuffle_seed=11)
        b2 = batch_pairs(tokenized, batch_size=8, shuffle_seed=11)
        for x, y in zip(b1, b2):
            np.testing.assert_array_equal(x.ids_a, y.ids_a)
            np.testing.assert_array_equal(x.labels, y.labels)

    def test_different_seed_changes_order(self):
        pairs = [RawPair(i % 3, f"sentence {i} alpha", f"other {i}") for i in range(40)]
        vocab = build_vocab(pairs)
        tokenized, _ = tokenize_pairs(pairs, vocab, cap=64)
        b1 = batch_pairs(tokenized, batch_size=40, shuffle_seed=11)
        b2 = batch_pairs(tokenized, batch_size=40, shuffle_seed=12)
        assert not np.array_equal(b1[0].labels, b2[0].labels)

    def test_empty_sentence_skipped_and_counted(self):
        pairs = [RawPair(0, "   ", "fine here"), RawPair(1, "good text", "also fine")]
        vocab = build_vocab(pairs)
        batches, skipped = build_batches(pairs, vocab, 64, batch_size=4)
        assert skipped == 1
        assert sum(len(b) for b in batches) == 1

    def test_no_shuffle_preserves_input_order(self):
        pairs = [RawPair(i % 2, f"text {i}", f"pair {i}", line_no=i + 1) for i in range(10)]
        vocab = build_vocab(pairs)
        batches, _ = build_batches(pairs, vocab, 48, batch_size=4)
        flat = [p.line_no for b in batches for p in b.items]
        assert flat == list(range(1, 11))


class TestRankingTriples:
    def _groups(self, spec):
        pairs = []
        for gid, (n_pos, n_neg) in spec.items():
            for i in range(n_pos):
                pairs.append(RawPair(1, f"question {gid}", f"good answer {gid} {i}", gid))
            for i in range(n_neg):
                pairs.append(RawPair(0, f"question {gid}", f"bad answer {gid} {i}", gid))
        vocab = build_vocab(pairs)
        tokenized, _ = tokenize_pairs(pairs, vocab, cap=16)
        return group_by_question(tokenized)

    def test_one_pos_one_neg_gives_one_triple(self):
        triples = make_ranking_triples(self._groups({"q0": (1, 1)}), seed=0)
        assert len(triples) == 1

    def test_negative_varies_with_seed(self):
        groups = self._groups({"q0": (1, 3)})
        seen = {make_ranking_triples(groups, seed=s)[0][1].sid_b for s in range(12)}
        assert len(seen) > 1

    def test_group_without_positive_contributes_nothing(self):
        triples = make_ranking_triples(self._groups({"q0": (0, 3), "q1": (1, 1)}), seed=0)
        assert len(triples) == 1

    def test_each_positive_paired_once_per_epoch(self):
        triples = make_ranking_triples(self._groups({"q0": (3, 2)}), seed=5)
        assert len(triples) == 3
