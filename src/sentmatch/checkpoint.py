"""Checkpoint container: named float64 tensors plus a JSON manifest.

Layout (little-endian):

    magic  b"SMCK"
    u32    format version (1)
    u64    manifest byte length
    manifest  canonical JSON (sorted keys, no whitespace), utf-8
    data      for each manifest tensor entry, in order: raw float64 values

The manifest records the epoch, the resolved config, the vocabulary, the
metric history, and one entry per model parameter: name, shape, kind
"param" and whether it is trainable. Optimizer state is not saved; older
files whose manifest also has an "adam_t" step count and "adam_m" /
"adam_v" moment entries load, with those read past. Saving the result of
a load reproduces the file byte for byte. Saving is atomic: a file at
the target path is replaced only by a complete new one. A file that is
cut short, or whose manifest is not UTF-8 JSON with every expected key,
known tensor kinds and a valid config, or that holds a non-finite
parameter value, raises ParseError naming the file.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .config import TrainConfig
from .embedding import Vocab, _read_exact, _write_atomic
from .errors import ConfigError, ParseError

MAGIC = b"SMCK"
VERSION = 1
_LEGACY_KINDS = ("adam_m", "adam_v")  # optimizer moments in older files, read past


@dataclass
class Checkpoint:
    params: dict
    epoch: int
    config: TrainConfig
    vocab: Vocab
    history: list = field(default_factory=list)


def _manifest(ck):
    tensors = [
        {"name": name, "shape": list(t.shape), "kind": "param", "trainable": bool(t.requires_grad)}
        for name, t in sorted(ck.params.items())
    ]
    return {
        "config": ck.config.to_dict(),
        "epoch": ck.epoch,
        "history": ck.history,
        "tensors": tensors,
        "vocab": ck.vocab.id_to_token,
    }


def save_checkpoint(path, ck):
    """Write `ck` to `path` atomically: a failed write leaves any previous file intact."""
    header = json.dumps(_manifest(ck), sort_keys=True, separators=(",", ":")).encode("utf-8")
    with _write_atomic(path) as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<IQ", VERSION, len(header)))
        fh.write(header)
        for name in sorted(ck.params):
            fh.write(memoryview(np.ascontiguousarray(ck.params[name].data, dtype="<f8")))


def load_checkpoint(path):
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if fh.read(4) != MAGIC:
            raise ParseError(f"{path}: not a checkpoint file")
        version, manifest_len = struct.unpack("<IQ", _read_exact(fh, 12, path, size))
        if version != VERSION:
            raise ParseError(f"{path}: unsupported checkpoint version {version}")
        try:
            manifest = json.loads(_read_exact(fh, manifest_len, path, size).decode("utf-8"))
        except ValueError as exc:
            raise ParseError(f"{path}: manifest is not UTF-8 JSON ({exc})") from None
        try:
            return _from_manifest(fh, path, size, manifest)
        except KeyError as exc:
            raise ParseError(f"{path}: manifest has no key {exc}") from None
        except (TypeError, ValueError, ConfigError) as exc:
            raise ParseError(f"{path}: malformed manifest ({exc})") from None


def _from_manifest(fh, path, size, manifest):
    params = {}
    for entry in manifest["tensors"]:
        kind = entry["kind"]
        if kind != "param" and kind not in _LEGACY_KINDS:
            raise ParseError(f"{path}: unknown tensor kind {kind!r}")
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        raw = _read_exact(fh, count * 8, path, size)
        if kind == "param":
            data = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
            if not np.isfinite(data).all():
                raise ParseError(f"{path}: tensor {entry['name']!r} holds a non-finite value")
            params[entry["name"]] = T.Tensor(data, requires_grad=entry["trainable"])
    tokens = manifest["vocab"]
    vocab = Vocab(tokens[2:])
    if vocab.id_to_token != tokens:
        raise ParseError(f"{path}: vocabulary in manifest is not in canonical order")
    return Checkpoint(
        params=params,
        epoch=manifest["epoch"],
        config=TrainConfig.from_dict(manifest["config"]),
        vocab=vocab,
        history=manifest["history"],
    )
