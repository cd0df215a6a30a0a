"""Checkpoint container: named float64 tensors plus a JSON manifest.

Layout (little-endian):

    magic  b"SMCK"
    u32    format version (1)
    u64    manifest byte length
    manifest  canonical JSON (sorted keys, no whitespace), utf-8
    data      for each manifest tensor entry, in order: raw float64 values

The manifest records the epoch, the resolved config, the vocabulary and
one entry per model parameter: name, shape and kind "param". Loaded
parameters are constants: nothing trains from a checkpoint. The metric
history lives in `history.json` beside it, and optimizer state is not
saved. Older files still load: a manifest "history" and per-tensor
"trainable" flags are ignored, "adam_t" and the "adam_m" / "adam_v"
moment entries are skipped unread, and config keys retired since
(`config.RETIRED`) read at their old default. Saving the result of a
load reproduces the file byte for byte, in the current layout. Saving
is atomic: a file at the target path is replaced only by a complete
new one. A file that is cut short, or whose manifest is not UTF-8 JSON
with every expected key, known tensor kinds, a config object that
passes `TrainConfig.validate` and a non-negative integer epoch, or
whose parameters are not, by name and shape, those its config and
vocabulary call for (`model.param_shapes`, checked before any array is
read), or that holds a non-finite parameter value or any byte past its
last tensor, raises ParseError naming the file.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .config import TrainConfig
from .embedding import Vocab, _need, _read_exact, _refuse_trailing, _write_atomic
from .errors import ConfigError, DataError, ParseError
from .model import param_shapes

MAGIC = b"SMCK"
VERSION = 1
_LEGACY_KINDS = ("adam_m", "adam_v")  # optimizer moments in older files, read past


@dataclass
class Checkpoint:
    params: dict
    epoch: int
    config: TrainConfig
    vocab: Vocab


def _manifest(ck):
    tensors = [{"name": name, "shape": list(t.shape), "kind": "param"} for name, t in sorted(ck.params.items())]
    return {
        "config": ck.config.to_dict(),
        "epoch": ck.epoch,
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


def _value_count(shape):
    """The number of float64 values of a manifest `shape`: a list of non-negative integers."""
    if not all(isinstance(n, int) and n >= 0 for n in shape):
        raise ValueError(f"shape {list(shape)} is not a list of non-negative integers")
    return math.prod(shape)


def _read_array(fh, shape, path, size):
    """The next float64 array of `shape` in `fh`, read straight into its own buffer.

    Too few bytes raise ParseError; a shape that needs more than the file
    holds is refused before anything is allocated.
    """
    count = _value_count(shape)
    pos = fh.tell()
    _need(path, pos, count * 8, size)
    data = np.empty(shape, dtype="<f8")
    got = fh.readinto(data.reshape(-1).view(np.uint8))
    _need(path, pos, count * 8, pos + got)  # the file shrank after its size was taken
    return data


def _skip_array(fh, shape, path, size):
    """Seek past the next float64 array of `shape` without reading it; too few bytes raise ParseError."""
    nbytes = _value_count(shape) * 8
    pos = fh.tell()
    _need(path, pos, nbytes, size)
    fh.seek(pos + nbytes)


def _check_tensors(path, entries, expected):
    """Refuse a manifest whose parameters are not the ones `expected` (name -> shape) lists."""
    found = set()
    for entry in entries:
        kind = entry["kind"]
        if kind in _LEGACY_KINDS:
            continue
        if kind != "param":
            raise ParseError(f"{path}: unknown tensor kind {kind!r}")
        name, shape = entry["name"], tuple(entry["shape"])
        if name not in expected:
            raise ParseError(f"{path}: tensor {name!r} is not one the config calls for")
        if name in found:
            raise ParseError(f"{path}: tensor {name!r} appears twice")
        if shape != expected[name]:
            raise ParseError(f"{path}: tensor {name!r} has shape {list(shape)}, the config calls for {list(expected[name])}")
        found.add(name)
    for name, shape in expected.items():
        if name not in found:
            raise ParseError(f"{path}: tensor {name!r} of shape {list(shape)}, which the config calls for, is missing")


def _from_manifest(fh, path, size, manifest):
    if not isinstance(manifest["config"], dict):
        raise ParseError(f"{path}: manifest config is not an object")
    try:
        config = TrainConfig.from_dict(manifest["config"]).validate()
    except DataError as exc:  # an unknown task
        raise ParseError(f"{path}: malformed manifest ({exc})") from None
    epoch = manifest["epoch"]
    if type(epoch) is not int or epoch < 0:
        raise ParseError(f"{path}: epoch {epoch!r} is not a non-negative integer")
    tokens = manifest["vocab"]
    vocab = Vocab(tokens[2:])
    if vocab.id_to_token != tokens:
        raise ParseError(f"{path}: vocabulary in manifest is not in canonical order")
    _check_tensors(path, manifest["tensors"], param_shapes(config, len(vocab)))
    params = {}
    for entry in manifest["tensors"]:
        shape = tuple(entry["shape"])
        if entry["kind"] != "param":
            _skip_array(fh, shape, path, size)
            continue
        data = _read_array(fh, shape, path, size)
        if not np.isfinite(data).all():
            raise ParseError(f"{path}: tensor {entry['name']!r} holds a non-finite value")
        params[entry["name"]] = T.constant(data)
    _refuse_trailing(path, fh.tell(), size, "the last tensor")
    return Checkpoint(params=params, epoch=epoch, config=config, vocab=vocab)
