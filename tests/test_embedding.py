import numpy as np
import pytest

from sentmatch.config import TrainConfig
from sentmatch.data import RawPair, build_batches, tokenize_pairs
from sentmatch.embedding import (
    PAD,
    UNK,
    CacheContextualProvider,
    StubContextualProvider,
    Vocab,
    load_static_vectors,
    random_static_vectors,
    read_contextual_cache,
    sentence_id,
    write_contextual_cache,
)
from sentmatch.errors import CacheMissError, DataError, ParseError
from sentmatch.model import MatchModel, init_params


class TestVocab:
    def test_reserved_slots(self):
        v = Vocab(["cat", "dog"])
        assert v.id_of("<pad>") == PAD == 0
        assert v.id_of("<unk>") == UNK == 1
        assert v.id_of("cat") == 2

    def test_bijective(self):
        v = Vocab(["a", "b", "c"])
        for tok in v.id_to_token:
            assert v.id_to_token[v.token_to_id[tok]] == tok

    def test_unknown_maps_to_unk(self):
        v = Vocab(["a"])
        assert v.id_of("zzz") == UNK

    def test_save_load_roundtrip(self, tmp_path):
        v = Vocab(["cat", "dog", "!"])
        path = tmp_path / "vocab.txt"
        v.save(path)
        loaded = Vocab.load(path)
        assert loaded.id_to_token == v.id_to_token


class TestStaticVectors:
    def test_file_rows_match_exactly(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("cat 1.0 2.0 3.0\ndog -1.0 0.5 0.25\n")
        vocab = Vocab(["cat", "dog"])
        mat = load_static_vectors(path, vocab, dim=3, seed=0)
        np.testing.assert_array_equal(mat[vocab.id_of("cat")], [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(mat[vocab.id_of("dog")], [-1.0, 0.5, 0.25])

    def test_missing_token_gets_small_uniform_init(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("cat 1.0 2.0 3.0\n")
        vocab = Vocab(["cat", "bird"])
        mat = load_static_vectors(path, vocab, dim=3, seed=7)
        row = mat[vocab.id_of("bird")]
        assert np.all(np.abs(row) <= 0.05)
        assert np.any(row != 0.0)

    def test_dim_mismatch_reports_line_number(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("cat 1.0 2.0 3.0\ndog 1.0 2.0\n")
        with pytest.raises(ParseError, match=":2:"):
            load_static_vectors(path, Vocab(["cat", "dog"]), dim=3)

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    def test_non_finite_value_reports_path_and_line(self, tmp_path, value):
        path = tmp_path / "vecs.txt"
        path.write_text(f"cat 1.0 2.0 3.0\nowl {value} 0 0\ndog 1.0 {value} 3.0\nbird 0 0 nan\n")
        with pytest.raises(ParseError, match=f"{path}:3: values must be finite"):
            load_static_vectors(path, Vocab(["cat", "dog", "bird"]), dim=3)

    def test_pad_row_stays_zero(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("cat 1.0 2.0 3.0\n")
        mat = load_static_vectors(path, Vocab(["cat"]), dim=3, seed=1)
        np.testing.assert_array_equal(mat[PAD], np.zeros(3))

    def test_random_init_pad_zero(self):
        mat = random_static_vectors(Vocab(["x", "y"]), dim=4, seed=2)
        np.testing.assert_array_equal(mat[PAD], np.zeros(4))
        assert np.all(np.abs(mat) <= 0.05)


class TestContextualCache:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        records = [("sid1", rng.normal(size=(3, 4)).astype(np.float32)), ("sid2", rng.normal(size=(5, 4)).astype(np.float32))]
        path = tmp_path / "ctx.bin"
        write_contextual_cache(path, 4, records)
        dim, loaded = read_contextual_cache(path)
        assert dim == 4
        for sid, rows in records:
            np.testing.assert_array_equal(loaded[sid], rows)

    def test_cache_miss_names_sentence_id(self, tmp_path):
        path = tmp_path / "ctx.bin"
        write_contextual_cache(path, 2, [("known", np.zeros((1, 2), dtype=np.float32))])
        provider = CacheContextualProvider(path)
        with pytest.raises(CacheMissError, match="mystery-sentence"):
            provider.vectors("mystery-sentence", ["a"])

    def test_length_mismatch_is_a_data_error(self, tmp_path):
        path = tmp_path / "ctx.bin"
        write_contextual_cache(path, 2, [("sid", np.zeros((2, 2), dtype=np.float32))])
        provider = CacheContextualProvider(path)
        with pytest.raises(DataError, match="2 rows"):
            provider.vectors("sid", ["a", "b", "c"])

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ParseError):
            read_contextual_cache(path)


class TestStubProvider:
    def test_deterministic_across_instances(self):
        a = StubContextualProvider(8, seed=3).vectors("sid", ["cat", "sat"])
        b = StubContextualProvider(8, seed=3).vectors("sid", ["cat", "sat"])
        np.testing.assert_array_equal(a, b)

    def test_position_sensitivity(self):
        rows = StubContextualProvider(8, seed=3).vectors("sid", ["cat", "cat"])
        assert not np.array_equal(rows[0], rows[1])


def _pair(sent_a, sent_b, vocab, cap=16):
    pairs, _ = tokenize_pairs([RawPair(0, sent_a, sent_b)], vocab, cap)
    return pairs[0]


def _model(static, contextual_dim=0, provider=None):
    cfg = TrainConfig(static_dim=static.shape[1], contextual_dim=contextual_dim, hidden=4)
    return MatchModel(cfg, init_params(cfg, static, seed=0), provider=provider)


def _embed(model, pair):
    """Both sentences' embedding matrices, as the model's forward builds them."""
    x = model.embed_sentence(pair.ids_a, pair.tokens_a, pair.sid_a, pair.mask_a)
    y = model.embed_sentence(pair.ids_b, pair.tokens_b, pair.sid_b, pair.mask_b)
    return x.data, y.data


class TestEmbedPair:
    def test_static_only_width(self):
        vocab = Vocab(["the", "cat", "sat"])
        x, y = _embed(_model(random_static_vectors(vocab, 6, seed=0)), _pair("the cat", "sat", vocab))
        assert x.shape == (2, 6) and y.shape == (1, 6)

    def test_single_known_token_concatenates_both_vectors(self):
        vocab = Vocab(["cat"])
        static = random_static_vectors(vocab, 4, seed=0)
        provider = StubContextualProvider(3, seed=1)
        pair = _pair("cat", "cat", vocab)
        x, _ = _embed(_model(static, 3, provider), pair)
        assert x.shape == (1, 7)
        np.testing.assert_array_equal(x[0, :4], static[vocab.id_of("cat")])
        np.testing.assert_array_equal(x[0, 4:], provider.vectors(pair.sid_a, ["cat"])[0].astype(np.float64))

    def test_padded_rows_are_zero_and_real_rows_exact(self):
        vocab = Vocab(["big", "dog", "runs"])
        static = random_static_vectors(vocab, 4, seed=0)
        static[PAD] = 1e6  # a pad row that training moved: masking must still zero it
        provider = StubContextualProvider(3, seed=1)
        # batched with a longer sentence, "dog" is padded to three rows
        (batch,), _ = build_batches([RawPair(0, "dog", "big dog runs"), RawPair(0, "big dog runs", "x")], vocab, "snli", batch_size=2)
        pair = batch.pairs[0]
        x, _ = _embed(_model(static, 3, provider), pair)
        assert pair.mask_a.tolist() == [1.0, 0.0, 0.0]
        np.testing.assert_array_equal(x[0, :4], static[vocab.id_of("dog")])
        np.testing.assert_array_equal(x[0, 4:], provider.vectors(pair.sid_a, ["dog"])[0].astype(np.float64))
        np.testing.assert_array_equal(x[1:], np.zeros((2, 7)))

    def test_contextual_disabled_matches_static_dim_everywhere(self):
        vocab = Vocab(["big", "dog", "runs"])
        x, y = _embed(_model(random_static_vectors(vocab, 5, seed=0)), _pair("big dog runs", "dog runs", vocab))
        assert x.shape[1] == y.shape[1] == 5

    def test_lookup_is_pure(self):
        vocab = Vocab(["a", "b"])
        model = _model(random_static_vectors(vocab, 4, seed=0), 3, StubContextualProvider(3, 0))
        pair = _pair("a b", "b a", vocab)
        x1, y1 = _embed(model, pair)
        x2, y2 = _embed(model, pair)
        assert x1.tobytes() == x2.tobytes() and y1.tobytes() == y2.tobytes()

    def test_missing_contextual_entry_raises(self, tmp_path):
        vocab = Vocab(["a"])
        path = tmp_path / "ctx.bin"
        write_contextual_cache(path, 3, [])
        model = _model(random_static_vectors(vocab, 4, seed=0), 3, CacheContextualProvider(path))
        with pytest.raises(CacheMissError):
            _embed(model, _pair("a", "a", vocab))


def test_sentence_id_depends_on_token_sequence():
    assert sentence_id(["a", "b"]) != sentence_id(["b", "a"])
    assert sentence_id(["a", "b"]) == sentence_id(["a", "b"])
