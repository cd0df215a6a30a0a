"""Checkpoint container: named float64 tensors plus a JSON manifest.

Layout (little-endian):

    magic  b"SMCK"
    u32    format version (1)
    u64    manifest byte length
    manifest  canonical JSON (sorted keys, no whitespace), utf-8
    data      for each manifest tensor entry, in order: raw float64 values

The manifest records the epoch, the resolved config, the vocabulary, the
optimizer step count, the RNG state, the metric history, and one entry
per tensor: name, shape, kind (param / adam_m / adam_v) and whether the
parameter is trainable. Saving the result of a load reproduces the file
byte for byte. Saving is atomic: a file at the target path is replaced
only by a complete new one.
"""

from __future__ import annotations

import contextlib
import json
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .config import TrainConfig
from .embedding import Vocab
from .errors import ParseError

MAGIC = b"SMCK"
VERSION = 1


@dataclass
class Checkpoint:
    params: dict
    adam_m: dict
    adam_v: dict
    adam_t: int
    epoch: int
    config: TrainConfig
    vocab: Vocab
    rng_state: dict | None = None
    history: list = field(default_factory=list)


def _manifest(ck):
    tensors = []
    for name in sorted(ck.params):
        tensors.append(
            {
                "name": name,
                "shape": list(ck.params[name].shape),
                "kind": "param",
                "trainable": bool(ck.params[name].requires_grad),
            }
        )
    for kind, table in (("adam_m", ck.adam_m), ("adam_v", ck.adam_v)):
        for name in sorted(table):
            tensors.append({"name": name, "shape": list(table[name].shape), "kind": kind, "trainable": False})
    return {
        "adam_t": ck.adam_t,
        "config": ck.config.to_dict(),
        "epoch": ck.epoch,
        "history": ck.history,
        "rng_state": ck.rng_state,
        "tensors": tensors,
        "vocab": ck.vocab.id_to_token,
    }


def save_checkpoint(path, ck):
    """Write `ck` to `path` atomically.

    The bytes go to a sibling temporary file that replaces `path` only
    once complete, so a failed write leaves any previous file intact.
    """
    manifest = _manifest(ck)
    header = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<IQ", VERSION, len(header)))
            fh.write(header)
            for entry in manifest["tensors"]:
                source = {"param": None, "adam_m": ck.adam_m, "adam_v": ck.adam_v}[entry["kind"]]
                arr = ck.params[entry["name"]].data if source is None else source[entry["name"]]
                fh.write(memoryview(np.ascontiguousarray(arr, dtype="<f8")))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def load_checkpoint(path):
    with open(path, "rb") as fh:
        if fh.read(4) != MAGIC:
            raise ParseError(f"{path}: not a checkpoint file")
        version, manifest_len = struct.unpack("<IQ", fh.read(12))
        if version != VERSION:
            raise ParseError(f"{path}: unsupported checkpoint version {version}")
        manifest = json.loads(fh.read(manifest_len).decode("utf-8"))
        params, adam_m, adam_v = {}, {}, {}
        for entry in manifest["tensors"]:
            shape = tuple(entry["shape"])
            count = int(np.prod(shape)) if shape else 1
            raw = fh.read(count * 8)
            if len(raw) != count * 8:
                raise ParseError(f"{path}: truncated tensor {entry['name']}")
            arr = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
            if entry["kind"] == "param":
                params[entry["name"]] = T.Tensor(arr, requires_grad=entry["trainable"])
            elif entry["kind"] == "adam_m":
                adam_m[entry["name"]] = arr
            else:
                adam_v[entry["name"]] = arr
    tokens = manifest["vocab"]
    vocab = Vocab(tokens[2:])
    if vocab.id_to_token != tokens:
        raise ParseError(f"{path}: vocabulary in manifest is not in canonical order")
    return Checkpoint(
        params=params,
        adam_m=adam_m,
        adam_v=adam_v,
        adam_t=manifest["adam_t"],
        epoch=manifest["epoch"],
        config=TrainConfig.from_dict(manifest["config"]),
        vocab=vocab,
        rng_state=manifest["rng_state"],
        history=manifest["history"],
    )
