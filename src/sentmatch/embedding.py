"""Vocabulary, pretrained static vectors, and per-sentence contextual vectors.

A word's representation is the concatenation of its static vector (one
row per vocabulary type, loaded from a text file in the usual
token-then-floats format) and an optional contextual vector (one row per
token occurrence, precomputed offline and read from a binary cache).
Output width is always static_dim + contextual_dim; the contextual part
is simply absent when contextual_dim is 0.

Contextual cache container (little-endian throughout):

    magic  b"CTXV"
    u32    format version (1)
    u32    contextual_dim
    u64    record count
    record := u32 id_len, id (utf8), u32 token_count,
              token_count * contextual_dim float32 values

Sentence ids are the sha1 hex digest of the unit-separator-joined token
sequence (after lowercasing/truncation), so any tool that tokenizes the
same way addresses the same record.
"""

from __future__ import annotations

import contextlib
import hashlib
import mmap
import os
import struct
import warnings
from collections.abc import Mapping

import numpy as np

from .errors import CacheMissError, DataError, ParseError

PAD, UNK = 0, 1
PAD_TOKEN, UNK_TOKEN = "<pad>", "<unk>"

CACHE_MAGIC = b"CTXV"
CACHE_VERSION = 1


class Vocab:
    """Bijective token/id mapping with fixed pad and unk slots."""

    def __init__(self, tokens=()):
        self.id_to_token = [PAD_TOKEN, UNK_TOKEN]
        self.token_to_id = {PAD_TOKEN: PAD, UNK_TOKEN: UNK}
        for tok in tokens:
            self.add(tok)

    def add(self, token):
        if token not in self.token_to_id:
            self.token_to_id[token] = len(self.id_to_token)
            self.id_to_token.append(token)
        return self.token_to_id[token]

    def id_of(self, token):
        return self.token_to_id.get(token, UNK)

    def __len__(self):
        return len(self.id_to_token)

    def __contains__(self, token):
        return token in self.token_to_id

    def save(self, path):
        with _write_atomic(path) as fh:
            fh.write("".join(tok + "\n" for tok in self.id_to_token).encode("utf-8"))

    @classmethod
    def load(cls, path):
        """One token per line, ids in line order; a repeated token would shift every later id, so it is refused."""
        first_line = {}
        for line_no, token in _text_lines(path, ParseError):
            if token in first_line:
                raise ParseError(f"{path}:{line_no}: token {token!r} repeats line {first_line[token]}")
            first_line[token] = line_no
        tokens = list(first_line)
        if tokens[:2] != [PAD_TOKEN, UNK_TOKEN]:
            raise ParseError(f"vocab file {path} does not start with the reserved tokens")
        return cls(tokens[2:])


def sentence_id(tokens):
    """Stable id for a token sequence, used to key the contextual cache."""
    return hashlib.sha1("\x1f".join(tokens).encode("utf-8")).hexdigest()


def load_static_vectors(path, vocab, dim, seed=0):
    """Read a token-per-line float table into a |V| x dim matrix.

    Tokens present in the file get the file's vector (the last line
    wins for a repeated token); in-vocabulary tokens missing from the
    file get a small uniform init in [-0.05, 0.05] from the seeded
    generator; the pad row stays zero unless the file lists `<pad>`.
    Every line's field count is checked, but only in-vocabulary lines
    are parsed. A value that is not a finite float raises ParseError
    naming the line.
    """
    matrix = np.zeros((len(vocab), dim))
    line_of = np.zeros(len(vocab), dtype=np.int64)  # 0: not in the file
    line_of[PAD] = -1
    chunk = []
    try:
        for line_no, line in _text_lines(path, ParseError):
            fields = line.count(" ")
            if fields == 0:
                continue
            if fields != dim:
                raise ParseError(f"{path}:{line_no}: expected {dim} floats after token, got {fields}")
            cut = line.index(" ")
            idx = vocab.token_to_id.get(line[:cut])
            if idx is not None:
                chunk.append((line_no, idx, line[cut + 1 :]))
                if len(chunk) == _CHUNK_LINES:
                    _parse_vector_lines(chunk, matrix, line_of, path)
                    chunk = []
    except ParseError:
        _parse_vector_lines(chunk, matrix, line_of, path)  # an earlier bad value is reported first
        raise
    _parse_vector_lines(chunk, matrix, line_of, path)
    bad = line_of[~np.isfinite(matrix).all(axis=1)]
    if bad.size:
        raise ParseError(f"{path}:{bad.min()}: values must be finite")
    rng = np.random.default_rng(seed)
    for idx in np.flatnonzero(line_of == 0):
        matrix[idx] = rng.uniform(-0.05, 0.05, size=dim)
    return matrix


_CHUNK_LINES = 4096  # vector lines parsed per loadtxt call: a few MB of text
# loadtxt strips these as whitespace around a value, where float() refuses them
_LOADTXT_ONLY_SPACE = "\x1c\x1d\x1e\x1f"


def _parse_vector_lines(chunk, matrix, line_of, path):
    """Write each (line number, row, values text) of `chunk` into its matrix row.

    The values are those `float()` gives each space-separated field, bit
    for bit. numpy's C tokenizer parses a chunk at once. A chunk it could
    read differently from `float()` (the separators above, or non-ASCII
    text, where `float()` also reads Unicode digits) or cannot read goes
    through `float()` line by line, which names the bad line.
    """
    if not chunk:
        return
    bodies = [body for _, _, body in chunk]
    values = None
    text = "\n".join(bodies)
    if text.isascii() and not any(c in text for c in _LOADTXT_ONLY_SPACE):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # an empty body: "input contained no data"
                values = np.loadtxt(bodies, delimiter=" ", comments=None, ndmin=2)
        except ValueError:
            pass
        # loadtxt skips a blank line, which float() refuses
        if values is not None and values.shape != (len(chunk), matrix.shape[1]):
            values = None
    if values is None:
        values = np.empty((len(chunk), matrix.shape[1]))
        for row, (line_no, _, body) in enumerate(chunk):
            try:
                values[row] = [float(v) for v in body.split(" ")]
            except ValueError as exc:
                raise ParseError(f"{path}:{line_no}: {exc}") from None
    last = {idx: row for row, (_, idx, _) in enumerate(chunk)}  # a repeated token: the last line wins
    rows = np.fromiter(last.keys(), dtype=np.intp, count=len(last))
    picked = np.fromiter(last.values(), dtype=np.intp, count=len(last))
    matrix[rows] = values[picked]
    line_of[rows] = [chunk[r][0] for r in picked]


def random_static_vectors(vocab, dim, seed=0):
    """Uniform [-0.05, 0.05] init for every non-pad token (no vector file)."""
    rng = np.random.default_rng(seed)
    matrix = rng.uniform(-0.05, 0.05, size=(len(vocab), dim))
    matrix[PAD] = 0.0
    return matrix


_GOLDEN_GAMMA = np.uint64(0x9E3779B97F4A7C15)  # SplitMix64's increment
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_ONE_BITS = np.uint32(0x3F800000)  # float32 1.0


class StubContextualProvider:
    """Deterministic stand-in for a real contextual embedder.

    A token at position `pos` gets a 64-bit key: the blake2b-64 digest of
    `f"{seed}|{pos}|{tok}"`, read little-endian. Its row is built from
    SplitMix64 outputs seeded with that key (Steele, Lea & Flood, OOPSLA
    2014): output j (j = 1, 2, ...) is the SplitMix64 mix of
    `key + j * 0x9E3779B97F4A7C15` (mod 2^64), and gives columns 2j-2 and
    2j-1 from its low and high 32-bit halves. Each half's top 23 bits
    become the mantissa of a float32 in [1, 2), and 1.5 is subtracted
    (exactly), so values are uniform on a 2^-23 grid in [-0.5, 0.5).

    A row depends only on (seed, position, token), not on the sentence
    id, and the arithmetic is on integers, so the values do not depend
    on the host's byte order. A sentence's rows come from one vectorized
    pass over a (len, ceil(dim / 2)) grid.
    """

    def __init__(self, dim, seed=0):
        self.dim = dim
        self.seed = seed

    def vectors(self, sid, tokens):
        digests = b"".join(
            hashlib.blake2b(f"{self.seed}|{pos}|{tok}".encode("utf-8"), digest_size=8).digest()
            for pos, tok in enumerate(tokens)
        )
        keys = np.frombuffer(digests, dtype="<u8")
        steps = np.arange(1, (self.dim + 1) // 2 + 1, dtype=np.uint64) * _GOLDEN_GAMMA
        z = keys[:, None] + steps  # integer arrays wrap mod 2^64
        shifted = np.empty_like(z)  # one scratch array for the three shifts
        z ^= np.right_shift(z, np.uint64(30), out=shifted)
        z *= _MIX1
        z ^= np.right_shift(z, np.uint64(27), out=shifted)
        z *= _MIX2
        z ^= np.right_shift(z, np.uint64(31), out=shifted)
        # little-endian 32-bit words: each output's low half, then its high half
        halves = z.astype("<u8", copy=False).view("<u4")[:, : self.dim]
        bits = np.right_shift(halves, np.uint32(9), dtype=np.uint32)
        bits |= _ONE_BITS
        rows = bits.view(np.float32)
        rows -= np.float32(1.5)
        return rows


class CacheContextualProvider:
    """Contextual vectors read from the binary cache container."""

    def __init__(self, path):
        self.path = path
        self.dim, self.records = read_contextual_cache(path)

    def vectors(self, sid, tokens):
        try:
            rows = self.records[sid]
        except KeyError:
            raise CacheMissError(f"no contextual vectors for sentence id {sid} in {self.path}") from None
        if rows.shape[0] != len(tokens):
            raise DataError(
                f"contextual entry for {sid} has {rows.shape[0]} rows, sentence has {len(tokens)} tokens"
            )
        return rows


def write_contextual_cache(path, dim, records):
    """records: iterable of (sentence_id, len x dim float array). Written atomically.

    Records are written as they are drawn, so a generator source is never
    held whole; the header's record count is patched in at the end.
    Returns the number of records written.
    """
    count = 0
    with _write_atomic(path) as fh:
        fh.write(CACHE_MAGIC)
        fh.write(struct.pack("<IIQ", CACHE_VERSION, dim, 0))
        for sid, rows in records:
            arr = np.asarray(rows, dtype="<f4")
            if arr.ndim != 2 or arr.shape[1] != dim:
                raise DataError(f"contextual record {sid} has shape {arr.shape}, expected (len, {dim})")
            encoded = sid.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", arr.shape[0]))
            fh.write(arr.tobytes())
            count += 1
        fh.seek(len(CACHE_MAGIC) + 8)
        fh.write(struct.pack("<Q", count))
    return count


@contextlib.contextmanager
def _write_atomic(path):
    """A binary file at `<path>.tmp`, renamed over `path` if the block completes.

    On any failure the temporary is removed and a previous file at `path`
    stays intact. No fsync: this guards against a failing writer, not power loss.
    """
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _text_lines(path, error):
    """Stream (line number, line without terminator), split as text mode splits.

    A line that is not UTF-8 raises `error` naming the path, line and byte.
    Bad bytes decode to lone surrogates (surrogateescape), which valid
    UTF-8 never yields, so only non-ASCII lines need the re-check.
    """
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError as exc:
                    at = len(line[: exc.start].encode("utf-8", "surrogateescape")) + 1
                    raise error(f"{path}:{line_no}: not valid UTF-8 (byte {at} of the line)") from None
            yield line_no, line.rstrip("\n")


def read_contextual_cache(path):
    """(dim, records) of a contextual cache; records maps sentence id -> rows.

    One pass reads the record headers, seeking past the rows, and indexes
    them; the rows are then served from a read-only memory map of the
    file. A record's rows are a read-only float32 view into the file,
    read from disk when first touched, so a cache far larger than memory
    opens and the process's memory does not grow with the file. The file
    must therefore not be rewritten in place while the records are in use
    (`write_contextual_cache` replaces it by rename, which is safe). Any
    extent past the end of the file, or any byte past the last record,
    raises ParseError naming the byte, and so does a record's first
    lookup if it holds a non-finite value.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        magic = fh.read(4)
        if magic != CACHE_MAGIC:
            raise ParseError(f"{path}: not a contextual cache (bad magic {magic!r})")
        version, dim, count = struct.unpack("<IIQ", _read_exact(fh, 16, path, size))
        if version != CACHE_VERSION:
            raise ParseError(f"{path}: unsupported cache version {version}")
        # headers are read through the file, not the map: touching a mapped
        # header page would also map the rows around it
        index = {}
        pos = fh.tell()
        for record in range(count):
            _need(path, pos, 4, size)
            (id_len,) = struct.unpack("<I", fh.read(4))
            _need(path, pos + 4, id_len, size)
            try:
                sid = fh.read(id_len).decode("utf-8")
            except UnicodeDecodeError:
                raise ParseError(f"{path}: id of record {record} is not UTF-8") from None
            _need(path, pos + 4 + id_len, 4, size)
            (n_rows,) = struct.unpack("<I", fh.read(4))
            pos += 8 + id_len
            _need(path, pos, n_rows * dim * 4, size)
            index[sid] = (pos, n_rows)
            pos += n_rows * dim * 4
            fh.seek(pos)
        _refuse_trailing(path, pos, size, "the last record")
        buf = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    return dim, _CacheRecords(path, buf, dim, index)


def _need(path, pos, count, size):
    """Refuse `count` bytes at byte `pos` of a file of `size` bytes that end past it."""
    if pos + count > size:
        raise ParseError(f"{path}: truncated: {count} bytes needed at byte {pos} of {size}")


def _refuse_trailing(path, pos, size, what):
    """Refuse a file of `size` bytes whose contents end at byte `pos`, before its end."""
    if pos != size:
        raise ParseError(f"{path}: {size - pos} bytes after {what}, from byte {pos} of {size}")


def _read_exact(fh, count, path, size):
    """The next `count` bytes of `fh`, a file of `size` bytes; too few raise ParseError.

    A count beyond the file is refused before reading, so a corrupt
    length field cannot ask for an arbitrarily large buffer.
    """
    pos = fh.tell()
    _need(path, pos, count, size)
    raw = fh.read(count)
    _need(path, pos, count, pos + len(raw))  # the file shrank after its size was taken
    return raw


class _CacheRecords(Mapping):
    """Read-only {sentence id: (rows, dim) float32 view} over a mapped cache.

    A view is made on a sentence's first lookup and kept: epochs look the
    same sentences up again, and a view holds no copy of the rows. Its
    values are checked once, when the view is made: a NaN or infinity
    raises ParseError naming the file, the sentence id and the byte.
    """

    def __init__(self, path, buf, dim, index):
        self._path = path
        self._buf = buf
        self._dim = dim
        self._index = index
        self._views = {}

    def __getitem__(self, sid):
        rows = self._views.get(sid)
        if rows is None:
            offset, n_rows = self._index[sid]
            count = n_rows * self._dim
            rows = np.frombuffer(self._buf, dtype="<f4", count=count, offset=offset).reshape(n_rows, self._dim)
            finite = np.isfinite(rows)
            if not finite.all():
                at = offset + 4 * int(np.argmin(finite))  # the first False of the flattened rows
                raise ParseError(f"{self._path}: contextual record {sid} holds a non-finite value at byte {at}")
            self._views[sid] = rows
        return rows

    def __contains__(self, sid):
        return sid in self._index

    def __iter__(self):
        return iter(self._index)

    def __len__(self):
        return len(self._index)
