import hashlib
import os
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from sentmatch import embedding
from sentmatch.config import TrainConfig
from sentmatch.data import RawPair, build_batches
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


    def test_a_repeated_token_is_a_parse_error_naming_the_file_and_line(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("<pad>\n<unk>\na\nb\na\n<pad>\nc\n")
        with pytest.raises(ParseError, match=re.escape(f"{path}:5: token 'a' repeats line 3")):
            Vocab.load(path)


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


def _assert_loads_like_the_oracle(path, vocab, dim):
    """The loader gives the per-value oracle's matrix bit for bit, or raises its message."""
    try:
        expected = oracles.load_static_vectors_per_value(path, vocab, dim, seed=3)
    except ValueError as exc:
        with pytest.raises(ParseError) as got:
            load_static_vectors(path, vocab, dim, seed=3)
        assert str(got.value) == str(exc)
        return
    got = load_static_vectors(path, vocab, dim, seed=3)
    assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


SEPARATORS = ["\x1c", "\x1d", "\x1e", "\x1f"]  # loadtxt strips them, float() refuses them

# case id -> file content, read with the vocabulary cat, dog, owl at dim 3
EDGE_FILES = {
    **{f"separator-{ord(c):x}": f"cat 1.0{c} 2.0 3.0\n" for c in SEPARATORS},
    **{f"separator-{ord(c):x}-leading": f"dog 4 5 6\ncat {c}1.0 2.0 3.0\n" for c in SEPARATORS},
    **{f"separator-{ord(c):x}-out-of-vocab": f"emu 1.0{c} 2 3\ncat 1 2 3\n" for c in SEPARATORS},
    "underscore-digits": "cat 1_0 2_5.0_1 -3\ndog 4 5 6\n",
    "full-width-digits": "cat \uff11\uff12.\uff15 0 1\ndog 4 5 6\n",
    "arabic-indic-digits": "cat \u0663.\u0661\u0664 \u0660 \u0661\n",
    "unicode-minus": "cat \u22121 2 3\n",
    "no-break-space": "cat 1\xa0 2 3\n",
    "negative-zero": "cat -0.0 0.0 -0\ndog -0e5 +0 -.0\n",
    "subnormals": "cat 5e-324 4.9406564584124654e-324 2.225073858507201e-308\ndog -1e-320 1e-400 2.2250738585072014e-308\n",
    "overflow": "cat 1e308 1.7976931348623157e308 1e309\n",
    "nan-variants": "cat 1 2 3\ndog nan NaN -nan\nowl +nan 1 2\n",
    "inf-variants": "cat 1 2 3\nowl +inf -Infinity INF\ndog infinity 0 0\n",
    "nan-out-of-vocab": "emu nan inf -inf\ncat 1 2 3\n",
    "duplicates": "cat 1 2 3\ndog 4 5 6\ncat 7 8 9\n",
    "duplicate-non-finite-then-finite": "cat nan 0 0\ncat 1 2 3\n",
    "duplicate-finite-then-non-finite": "cat 1 2 3\ncat inf 0 0\n",
    "pad-and-unk-lines": "<pad> 1 2 3\n<unk> 4 5 6\ncat 7 8 9\n",
    "malformed-out-of-vocab-count": "cat 1 2 3\nemu 1 2\n",
    "malformed-out-of-vocab-value": "emu x y z\ncat 1 2 3\n",
    "bad-value-before-bad-count": "cat 1 2 3\ndog 1 x 3\nemu 1 2\n",
    "no-in-vocab-line": "emu 1 2 3\nyak 4 5 6\n",
    "empty-file": "",
    "empty-field": "cat 1.0  2.0\n",
    "empty-body": "cat   \n",
    "trailing-space": "cat 1 2 3 \n",
    "blank-and-bare-lines": "\ncat 1 2 3\nheader\n\ndog 4 5 6",
    "whitespace-around-values": "cat 1.0\t \x0b2.0\x0c \t3.0\t\n",
    "hex-value": "cat 0x10 1 2\n",
    "exponent-forms": "cat 1e5 1E-5 .5\ndog 1. +.5e+0 00012\nowl 1_000.000_1e1_0 -1E+0_1 9\n",
    "crlf-and-cr": "cat 1 2 3\r\ndog 4 5 6\rowl 7 8 9\r\n",
}


class TestStaticVectorsMatchTheOracle:
    """The chunked parse against the original per-value `float()` loader."""

    @pytest.mark.parametrize("chunk_lines", [1, 2, 4096])
    @pytest.mark.parametrize("content", EDGE_FILES.values(), ids=EDGE_FILES.keys())
    def test_edge_case_file(self, tmp_path, content, chunk_lines):
        path = tmp_path / "vecs.txt"
        path.write_bytes(content.encode("utf-8"))
        with mock.patch.object(embedding, "_CHUNK_LINES", chunk_lines):
            _assert_loads_like_the_oracle(path, Vocab(["cat", "dog", "owl"]), 3)

    def test_mixed_file_across_chunks(self, tmp_path):
        lines = [f"w{i} {i}.5 -{i}e-3 {i}_0" for i in range(40)]
        lines[7] = "w7 \uff17 1 2"  # non-ASCII: its chunk goes value by value
        lines[22] = "w22 1\x1d 1 2"  # float() refuses it
        lines[31] = "emu 1 2"  # a bad count after the bad value: the value is reported
        path = tmp_path / "vecs.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        vocab = Vocab([f"w{i}" for i in range(0, 40, 3)] + ["w7", "w22"])
        for chunk_lines in (1, 3, 5, 4096):
            with mock.patch.object(embedding, "_CHUNK_LINES", chunk_lines):
                _assert_loads_like_the_oracle(path, vocab, 3)
                with pytest.raises(ParseError, match=f"{path}:23: could not convert"):
                    load_static_vectors(path, vocab, 3)

    def test_empty_single_value_is_a_parse_error(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("cat \ndog 2\n")  # loadtxt would skip the blank value
        vocab = Vocab(["cat", "dog"])
        _assert_loads_like_the_oracle(path, vocab, 1)
        with pytest.raises(ParseError, match=f"{path}:1: could not convert string to float: ''"):
            load_static_vectors(path, vocab, 1)

    def test_bad_value_is_reported_before_a_later_non_utf8_line(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_bytes(b"cat 1 x 3\ndog caf\xe9 1 2\n")
        with pytest.raises(ParseError, match=f"{path}:1: could not convert string to float: 'x'"):
            load_static_vectors(path, Vocab(["cat", "dog"]), 3)

    @given(
        lines=st.lists(
            st.tuples(
                st.sampled_from(["cat", "dog", "owl", "emu", "<pad>"]),
                st.lists(
                    st.one_of(
                        st.floats().map(repr),
                        st.floats(allow_nan=False).map(lambda x: f"{x:.17e}"),
                        st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6).map(lambda x: f"{x:f}"),
                        st.from_regex(r"[+-]?[0-9_]{0,4}\.?[0-9]{0,3}([eE][+-]?[0-9]{1,3})?", fullmatch=True),
                        st.sampled_from(["1_0", "\uff11", "\u0661", "\x1c1", "1\x1f", "", "nan", "-inf", "0x1p3", "1e"]),
                    ),
                    min_size=3,
                    max_size=3,
                ),
            ),
            max_size=10,
        ),
        chunk_lines=st.sampled_from([1, 3, 4096]),
    )
    def test_random_float_reprs(self, vector_dir, lines, chunk_lines):
        path = vector_dir / "vecs.txt"
        path.write_text("".join(f"{tok} {' '.join(vals)}\n" for tok, vals in lines), encoding="utf-8")
        with mock.patch.object(embedding, "_CHUNK_LINES", chunk_lines):
            _assert_loads_like_the_oracle(path, Vocab(["cat", "dog", "owl"]), 3)


@pytest.fixture(scope="module")
def vector_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("vectors")


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

    def test_generator_source_writes_the_bytes_of_a_list_drawing_one_record_at_a_time(self, tmp_path):
        rng = np.random.default_rng(1)
        records = [(f"s{i}", rng.normal(size=(i % 4, 3)).astype(np.float32)) for i in range(6)]
        events = []

        class Rows:
            def __init__(self, i, rows):
                self.i, self.rows = i, rows

            def __array__(self, dtype=None, copy=None):
                events.append(("written", self.i))
                return self.rows.astype(dtype)

        def drawn():
            for i, (sid, rows) in enumerate(records):
                events.append(("drawn", i))
                yield sid, Rows(i, rows)

        assert write_contextual_cache(tmp_path / "list.bin", 3, records) == 6
        assert write_contextual_cache(tmp_path / "gen.bin", 3, drawn()) == 6
        assert (tmp_path / "gen.bin").read_bytes() == (tmp_path / "list.bin").read_bytes()
        assert events == [(kind, i) for i in range(6) for kind in ("drawn", "written")]

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

    def test_empty_file_is_a_parse_error(self, tmp_path):
        path = tmp_path / "ctx.bin"
        path.write_bytes(b"")
        with pytest.raises(ParseError, match=f"{path}: not a contextual cache"):
            read_contextual_cache(path)

    def test_rows_are_read_only_views_with_the_written_bits(self, tmp_path):
        rng = np.random.default_rng(5)
        bits = rng.integers(0, 2**32, size=(7, 5), dtype=np.uint32)
        bits[(bits & 0x7F800000) == 0x7F800000] ^= 0x00800000  # NaN and infinity are refused: make them finite
        bits[0, :3] = [0x80000000, 0x00000001, 0x7F7FFFFF]  # -0.0, the least subnormal, the largest finite
        records = [("a", bits.view(np.float32)), ("é", np.zeros((0, 5), np.float32)), ("b", bits[:2].view(np.float32))]
        path = tmp_path / "ctx.bin"
        write_contextual_cache(path, 5, records)
        dim, loaded = read_contextual_cache(path)
        assert dim == 5 and len(loaded) == 3 and list(loaded) == ["a", "é", "b"] and "c" not in loaded
        for sid, rows in records:
            got = loaded[sid]
            assert got.dtype == np.float32 and got.shape == rows.shape and got.tobytes() == rows.tobytes()
            assert not got.flags.writeable
        with pytest.raises(ValueError):
            loaded["a"][0, 0] = 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_record_names_the_file_the_sentence_and_the_byte(self, tmp_path, bad):
        rows = np.zeros((3, 4), np.float32)
        rows[1, 2] = rows[2, 0] = bad
        path = tmp_path / "ctx.bin"
        write_contextual_cache(path, 4, [("clean", np.ones((2, 4), np.float32)), ("dirty", rows)])
        _, loaded = read_contextual_cache(path)
        assert loaded["clean"].sum() == 8.0
        with pytest.raises(ParseError, match=rf"{path}: contextual record dirty holds a non-finite value at byte (\d+)") as err:
            loaded["dirty"]
        at = int(err.value.args[0].rsplit(" ", 1)[1])
        blob = path.read_bytes()
        assert blob[at : at + 4] == rows[1, 2].tobytes()  # the first bad value in file order
        assert at == blob.index(b"dirty") + len("dirty") + 4 + 4 * (1 * 4 + 2)
        with pytest.raises(ParseError):
            loaded["dirty"]  # a refused record is not kept

    def test_a_clean_record_is_checked_once(self, tmp_path):
        path = tmp_path / "ctx.bin"
        write_contextual_cache(path, 4, ((f"s{i}", np.full((2, 4), i, np.float32)) for i in range(3)))
        _, loaded = read_contextual_cache(path)
        with mock.patch.object(np, "isfinite", wraps=np.isfinite) as isfinite:
            for _ in range(4):
                for sid in ("s0", "s1", "s2"):
                    assert loaded[sid].shape == (2, 4)
        assert isfinite.call_count == 3

    def test_an_atomic_rewrite_leaves_open_records_intact(self, tmp_path):
        path = tmp_path / "ctx.bin"
        write_contextual_cache(path, 2, [("s", np.ones((3, 2), np.float32))])
        _, loaded = read_contextual_cache(path)
        write_contextual_cache(path, 2, [("s", np.zeros((1, 2), np.float32))])
        np.testing.assert_array_equal(loaded["s"], np.ones((3, 2)))
        assert read_contextual_cache(path)[1]["s"].shape == (1, 2)

    def test_reading_a_large_cache_allocates_far_less_than_the_file(self, tmp_path):
        path = tmp_path / "ctx.bin"
        rows = np.arange(32 * 256, dtype=np.float32).reshape(32, 256)
        write_contextual_cache(path, 256, ((f"s{i}", rows) for i in range(1000)))
        size = path.stat().st_size
        assert size > 30e6
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            dim, loaded = read_contextual_cache(path)
            total = sum(float(loaded[sid][-1, -1]) for sid in loaded)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert dim == 256 and total == 1000 * float(rows[-1, -1])
        assert peak < size / 20

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads RssFile from /proc")
    def test_reading_maps_no_rows_into_memory(self, tmp_path):
        path = tmp_path / "ctx.bin"
        rows = np.ones((16, 256), dtype=np.float32)  # 16 KB a record: a fault on any page maps its neighbours
        write_contextual_cache(path, 256, ((f"s{i}", rows) for i in range(4000)))

        def mapped_file_kb():
            with open("/proc/self/status") as fh:
                return next(int(line.split()[1]) for line in fh if line.startswith("RssFile:"))

        before = mapped_file_kb()
        _, loaded = read_contextual_cache(path)
        assert mapped_file_kb() - before < path.stat().st_size / 1024 / 20
        assert float(loaded["s3999"][-1, -1]) == 1.0


class TestStubProvider:
    def test_deterministic_across_instances(self):
        a = StubContextualProvider(8, seed=3).vectors("sid", ["cat", "sat"])
        b = StubContextualProvider(8, seed=3).vectors("sid", ["cat", "sat"])
        np.testing.assert_array_equal(a, b)

    def test_position_sensitivity(self):
        rows = StubContextualProvider(8, seed=3).vectors("sid", ["cat", "cat"])
        assert not np.array_equal(rows[0], rows[1])

    @pytest.mark.parametrize("dim", [1, 2, 3, 8, 1024])
    def test_rows_follow_the_splitmix64_definition(self, dim):
        tokens = ["the", "cat", "sat", "the", "naïve", ""]
        got = StubContextualProvider(dim, seed=11).vectors("sid", tokens)
        assert got.tobytes() == oracles.stub_rows_splitmix(11, dim, tokens).tobytes()

    def test_row_depends_only_on_seed_position_and_token(self):
        stub = StubContextualProvider(16, seed=3)
        a = stub.vectors("first", ["a", "cat", "sat"])
        b = stub.vectors("second", ["the", "cat", "ran", "off"])
        c = stub.vectors(sentence_id(["x", "cat"]), ["x", "cat"])
        np.testing.assert_array_equal(a[1], b[1])
        np.testing.assert_array_equal(a[1], c[1])
        assert not np.array_equal(a[0], b[0]) and not np.array_equal(a[2], b[2])

    def test_another_seed_gives_other_rows(self):
        tokens = ["a", "cat", "sat"]
        a = StubContextualProvider(16, seed=3).vectors("sid", tokens)
        b = StubContextualProvider(16, seed=4).vectors("sid", tokens)
        assert not np.any(np.all(a == b, axis=1))

    @pytest.mark.parametrize("dim", [1, 3, 1024])
    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_shape_and_dtype(self, dim, n):
        rows = StubContextualProvider(dim, seed=0).vectors("sid", [f"w{i}" for i in range(n)])
        assert rows.shape == (n, dim) and rows.dtype == np.float32

    def test_values_are_uniform_in_the_half_open_unit_interval(self):
        rows = StubContextualProvider(1024, seed=5).vectors("sid", [f"w{i % 7}" for i in range(200)])
        assert rows.min() >= -0.5 and rows.max() < 0.5
        # 204,800 draws: the standard error of the mean is about 6e-4
        assert abs(float(rows.mean(dtype=np.float64))) < 5e-3
        assert abs(float(rows.std(dtype=np.float64)) - 1 / np.sqrt(12)) < 5e-3

    def test_no_two_rows_repeat_over_ten_thousand_occurrences(self):
        stub = StubContextualProvider(8, seed=0)
        # 100 tokens, each at positions 0..99
        rows = np.concatenate([stub.vectors(f"s{t}", [f"t{t}"] * 100) for t in range(100)])
        assert rows.shape == (10_000, 8)
        assert len({row.tobytes() for row in rows}) == 10_000

    def test_values_are_pinned(self):
        # a change of these bytes changes every stub run and every stub-built cache
        rows = StubContextualProvider(64, seed=7).vectors("sid", ["a", "man", "plays", "a", "guitar"])
        assert hashlib.sha1(rows.tobytes()).hexdigest() == "dc9e523d5cb3c4fa7b15c940e333d8197ee1a0ce"


def _pair(sent_a, sent_b, vocab, cap=16):
    """A one-row batch of the pair."""
    (batch,), _ = build_batches([RawPair(0, sent_a, sent_b)], vocab, cap, batch_size=1)
    return batch


def _model(static, contextual_dim=0, provider=None):
    cfg = TrainConfig(static_dim=static.shape[1], contextual_dim=contextual_dim, hidden=4)
    return MatchModel(cfg, init_params(cfg, static, seed=0), provider=provider)


def _embed(model, batch):
    """Both sentences' embedding matrices of a one-row batch, as the model's forward builds them."""
    (pair,) = batch.items
    x = model.embed_sentence(batch.ids_a, [pair.tokens_a], [pair.sid_a], batch.mask_a)
    y = model.embed_sentence(batch.ids_b, [pair.tokens_b], [pair.sid_b], batch.mask_b)
    return x.data[0], y.data[0]


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
        np.testing.assert_array_equal(x[0, 4:], provider.vectors(pair.items[0].sid_a, ["cat"])[0].astype(np.float64))

    def test_padded_rows_are_zero_and_real_rows_exact(self):
        vocab = Vocab(["big", "dog", "runs"])
        static = random_static_vectors(vocab, 4, seed=0)
        static[PAD] = 1e6  # a pad row that training moved: masking must still zero it
        provider = StubContextualProvider(3, seed=1)
        # batched with a longer sentence, "dog" is padded to three rows
        (batch,), _ = build_batches([RawPair(0, "dog", "big dog runs"), RawPair(0, "big dog runs", "x")], vocab, 64, batch_size=2)
        pair = batch.pairs[0]
        x, _ = _embed(_model(static, 3, provider), pair)
        assert pair.mask_a.tolist() == [[1.0, 0.0, 0.0]]
        np.testing.assert_array_equal(x[0, :4], static[vocab.id_of("dog")])
        np.testing.assert_array_equal(x[0, 4:], provider.vectors(pair.items[0].sid_a, ["dog"])[0].astype(np.float64))
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
