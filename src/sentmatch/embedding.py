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

import hashlib
import os
import struct

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
        with open(path, "w", encoding="utf-8") as fh:
            for tok in self.id_to_token:
                fh.write(tok + "\n")

    @classmethod
    def load(cls, path):
        with open(path, encoding="utf-8") as fh:
            tokens = [line.rstrip("\n") for line in fh]
        if tokens[:2] != [PAD_TOKEN, UNK_TOKEN]:
            raise ParseError(f"vocab file {path} does not start with the reserved tokens")
        return cls(tokens[2:])


def sentence_id(tokens):
    """Stable id for a token sequence, used to key the contextual cache."""
    return hashlib.sha1("\x1f".join(tokens).encode("utf-8")).hexdigest()


def load_static_vectors(path, vocab, dim, seed=0):
    """Read a token-per-line float table into a |V| x dim matrix.

    Tokens present in the file get the file's vector; in-vocabulary
    tokens missing from the file get a small uniform init in
    [-0.05, 0.05] from the seeded generator; the pad row stays zero.
    """
    matrix = np.zeros((len(vocab), dim))
    found = np.zeros(len(vocab), dtype=bool)
    found[PAD] = True
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            parts = line.rstrip("\n").split(" ")
            if len(parts) < 2:
                continue
            token, values = parts[0], parts[1:]
            if len(values) != dim:
                raise ParseError(f"{path}:{line_no}: expected {dim} floats after token, got {len(values)}")
            if token in vocab:
                idx = vocab.id_of(token)
                try:
                    matrix[idx] = [float(v) for v in values]
                except ValueError as exc:
                    raise ParseError(f"{path}:{line_no}: {exc}") from None
                found[idx] = True
    rng = np.random.default_rng(seed)
    for idx in np.flatnonzero(~found):
        matrix[idx] = rng.uniform(-0.05, 0.05, size=dim)
    return matrix


def random_static_vectors(vocab, dim, seed=0):
    """Uniform [-0.05, 0.05] init for every non-pad token (no vector file)."""
    rng = np.random.default_rng(seed)
    matrix = rng.uniform(-0.05, 0.05, size=(len(vocab), dim))
    matrix[PAD] = 0.0
    return matrix


class StubContextualProvider:
    """Deterministic stand-in for a real contextual embedder.

    Each (token, position) pair hashes to a seed, and the seed drives a
    small uniform vector, so tests get stable per-occurrence vectors
    without shipping a language model.
    """

    def __init__(self, dim, seed=0):
        self.dim = dim
        self.seed = seed

    def vectors(self, sid, tokens):
        rows = np.empty((len(tokens), self.dim), dtype=np.float32)
        for pos, tok in enumerate(tokens):
            digest = hashlib.blake2b(
                f"{self.seed}|{pos}|{tok}".encode("utf-8"), digest_size=8
            ).digest()
            gen = np.random.default_rng(int.from_bytes(digest, "little"))
            rows[pos] = gen.uniform(-0.5, 0.5, size=self.dim).astype(np.float32)
        return rows


class CacheContextualProvider:
    """Contextual vectors read from the binary cache container."""

    def __init__(self, path):
        self.path = path
        self.dim, self.records = read_contextual_cache(path)

    def vectors(self, sid, tokens):
        if sid not in self.records:
            raise CacheMissError(f"no contextual vectors for sentence id {sid} in {self.path}")
        rows = self.records[sid]
        if rows.shape[0] != len(tokens):
            raise DataError(
                f"contextual entry for {sid} has {rows.shape[0]} rows, sentence has {len(tokens)} tokens"
            )
        return rows


def write_contextual_cache(path, dim, records):
    """records: iterable of (sentence_id, len x dim float array)."""
    items = list(records)
    with open(path, "wb") as fh:
        fh.write(CACHE_MAGIC)
        fh.write(struct.pack("<IIQ", CACHE_VERSION, dim, len(items)))
        for sid, rows in items:
            arr = np.asarray(rows, dtype="<f4")
            if arr.ndim != 2 or arr.shape[1] != dim:
                raise DataError(f"contextual record {sid} has shape {arr.shape}, expected (len, {dim})")
            encoded = sid.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", arr.shape[0]))
            fh.write(arr.tobytes())


def _read_exact(fh, count, path, size):
    """The next `count` bytes of `fh`, a file of `size` bytes; too few raise ParseError.

    A count beyond the whole file is refused before reading, so a corrupt
    length field cannot ask for an arbitrarily large buffer.
    """
    raw = fh.read(count) if count <= size else b""
    if len(raw) != count:
        raise ParseError(f"{path}: truncated: {count} bytes needed at byte {fh.tell() - len(raw)} of {size}")
    return raw


def read_contextual_cache(path):
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        magic = fh.read(4)
        if magic != CACHE_MAGIC:
            raise ParseError(f"{path}: not a contextual cache (bad magic {magic!r})")
        version, dim, count = struct.unpack("<IIQ", _read_exact(fh, 16, path, size))
        if version != CACHE_VERSION:
            raise ParseError(f"{path}: unsupported cache version {version}")
        records = {}
        for index in range(count):
            (id_len,) = struct.unpack("<I", _read_exact(fh, 4, path, size))
            try:
                sid = _read_exact(fh, id_len, path, size).decode("utf-8")
            except UnicodeDecodeError:
                raise ParseError(f"{path}: id of record {index} is not UTF-8") from None
            (n_rows,) = struct.unpack("<I", _read_exact(fh, 4, path, size))
            raw = _read_exact(fh, n_rows * dim * 4, path, size)
            records[sid] = np.frombuffer(raw, dtype="<f4").reshape(n_rows, dim).copy()
    return dim, records
