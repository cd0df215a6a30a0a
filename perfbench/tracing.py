"""Span tracing of sentmatch from outside the package, for the traced run.

`Tracer.install()` swaps each traced function or method for a wrapper
that records a span around the call: (id, parent id, name, phase, start,
end). A function imported by name into other modules is swapped in every
module that holds it, so calls through any binding are seen. Wrappers
take `*args, **kwargs`, so a changed signature does not break them. A
target that no longer exists is recorded in `missing`, and the metrics
built on it are left out rather than reported as 0.

Spans stay in memory and are written out when the run ends. A layer's
time is its spans' self time: duration minus the part covered by child
spans. Work the tracer does for itself (reading results, counting graph
nodes) runs inside a "trace.bookkeeping" span, so it is charged to no
layer; it shows only in the traced run's overhead.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

clock = time.perf_counter

PACKAGE = "sentmatch"
BOOKKEEPING = "trace.bookkeeping"


@dataclass(frozen=True)
class Target:
    span: str  # span name; several targets may share one
    module: str  # module under the package
    attr: str  # "func" or "Class.method"
    observe: object = None  # (tracer, args, result) -> None, run as bookkeeping
    count_only: bool = False  # count calls without a span (hot, tiny functions)


def _keep_result(name):
    def observe(tracer, args, result):
        tracer.observed[name].append(result)

    return observe


def _checkpoint_size(tracer, args, result):
    tracer.observed["checkpoint.bytes"].append(os.path.getsize(args[0]))


def _count_graph(tracer, args, result):
    """Nodes reachable from the loss that backward ran on."""
    loss = args[0]
    seen = {id(loss)}
    stack = [loss]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    tracer.calls["tensor.nodes"] += len(seen)


TARGETS = (
    Target("data.tokenize", "data", "tokenize", count_only=True),
    Target("data.tokenize_pairs", "data", "tokenize_pairs", _keep_result("data.tokenize_pairs")),
    Target("data.build_batches", "data", "build_batches", _keep_result("data.build_batches")),
    Target("embedding.embed", "model", "MatchModel.embed_sentence"),
    Target("embedding.ctx", "embedding", "StubContextualProvider.vectors"),
    Target("embedding.ctx", "embedding", "CacheContextualProvider.vectors"),
    Target("embedding.cache_read", "embedding", "read_contextual_cache"),
    Target("embedding.static_load", "embedding", "load_static_vectors"),
    Target("encoder.encode_pair", "encoder", "encode_pair"),
    Target("encoder.encode_context", "encoder", "encode_context"),
    Target("encoder.align", "encoder", "align"),
    Target("encoder.fuse", "encoder", "fuse"),
    Target("interaction.interact", "interaction", "interact"),
    Target("interaction.similarity", "interaction", "similarity"),
    Target("interaction.h2p", "interaction", "h2p_attention"),
    Target("interaction.p2h", "interaction", "p2h_attention"),
    Target("interaction.merge", "interaction", "merge"),
    Target("interaction.self_attend", "interaction", "self_attend"),
    Target("heads.pool", "heads", "pool_splice"),
    Target("heads.pool", "heads", "pool_meanmax"),
    Target("heads.head", "heads", "head_forward"),
    Target("heads.loss", "heads", "cross_entropy"),
    Target("heads.loss", "heads", "hinge_loss"),
    Target("model.forward", "model", "MatchModel.forward_pair"),
    Target("tensor.backward", "tensor", "Tensor.backward", _count_graph),
    Target("trainer.train", "trainer", "train"),
    Target("trainer.clip", "trainer", "clip_gradients"),
    Target("trainer.adam", "trainer", "adam_step"),
    Target("checkpoint.save", "checkpoint", "save_checkpoint", _checkpoint_size),
    Target("checkpoint.load", "checkpoint", "load_checkpoint"),
)

# metric -> (span, phase or None for every phase): self time in ms
SELF_MS = {
    "data.tokenize_ms": ("data.tokenize_pairs", None),
    "data.batch_ms": ("data.build_batches", None),
    "embedding.embed_ms": ("embedding.embed", None),
    "embedding.ctx_ms": ("embedding.ctx", None),
    "embedding.cache_read_ms": ("embedding.cache_read", None),
    "embedding.static_load_ms": ("embedding.static_load", None),
    "encoder.encode_context_ms": ("encoder.encode_context", None),
    "encoder.align_ms": ("encoder.align", None),
    "encoder.fuse_ms": ("encoder.fuse", None),
    "interaction.similarity_ms": ("interaction.similarity", None),
    "interaction.h2p_ms": ("interaction.h2p", None),
    "interaction.p2h_ms": ("interaction.p2h", None),
    "interaction.merge_ms": ("interaction.merge", None),
    "interaction.self_attend_ms": ("interaction.self_attend", None),
    "heads.pool_ms": ("heads.pool", None),
    "heads.head_ms": ("heads.head", None),
    "heads.loss_ms": ("heads.loss", None),
    "model.forward_train_ms": ("model.forward", "train"),
    "model.forward_eval_ms": ("model.forward", "eval"),
    "tensor.backward_ms": ("tensor.backward", None),
    "trainer.clip_ms": ("trainer.clip", None),
    "trainer.adam_ms": ("trainer.adam", None),
    "trainer.self_ms": ("trainer.train", None),
    "checkpoint.save_ms": ("checkpoint.save", None),
    "checkpoint.load_ms": ("checkpoint.load", None),
}


def _pad_frac(tracer, ctx):
    batches = [b for batch_list, _ in tracer.observed["data.build_batches"] for b in batch_list]
    cells = sum(b.mask_a.size + b.mask_b.size for b in batches)
    real = sum(float(b.mask_a.sum() + b.mask_b.sum()) for b in batches)
    return 1.0 - real / cells if cells else 0.0


def _oov_rate(tracer, ctx):
    pairs = [p for kept, _ in tracer.observed["data.tokenize_pairs"] for p in kept]
    total = sum(len(p.ids_a) + len(p.ids_b) for p in pairs)
    unk = sum(int((p.ids_a == ctx["unk_id"]).sum() + (p.ids_b == ctx["unk_id"]).sum()) for p in pairs)
    return unk / total if total else 0.0


def _last_size(tracer, ctx):
    sizes = tracer.observed["checkpoint.bytes"]
    return sizes[-1] if sizes else 0


# metric -> (unit, spans it needs, function of (tracer, context))
DERIVED = {
    "data.tokenize_calls": ("count", ("data.tokenize",), lambda t, ctx: t.calls["data.tokenize"]),
    "data.pad_frac": ("ratio", ("data.build_batches",), _pad_frac),
    "data.skipped": ("count", ("data.tokenize_pairs",), lambda t, ctx: sum(s for _, s in t.observed["data.tokenize_pairs"])),
    "embedding.ctx_lookups": ("count", ("embedding.ctx",), lambda t, ctx: t.span_count("embedding.ctx")),
    "embedding.oov_rate": ("ratio", ("data.tokenize_pairs",), _oov_rate),
    "tensor.nodes_per_pair": ("nodes/pair", ("tensor.backward",), lambda t, ctx: t.calls["tensor.nodes"] / ctx["pair_forwards_trained"]),
    "trainer.steps": ("count", ("trainer.adam",), lambda t, ctx: t.span_count("trainer.adam")),
    "checkpoint.bytes": ("bytes", ("checkpoint.save",), _last_size),
}


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent, name, phase, start, end), appended when a span closes
        self.calls = Counter()
        self.observed = defaultdict(list)
        self.missing = []  # wrap targets or results that could not be found or read
        self.installed = set()  # span names with at least one installed wrapper
        self.phase = None
        self._stack = []
        self._next_id = 0
        self._patches = []

    # -- spans ---------------------------------------------------------

    def _open(self):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        return span_id, parent

    def _close(self, span_id, parent, name, start):
        end = clock()
        self._stack.pop()
        self.spans.append((span_id, parent, name, self.phase, start, end))

    @contextmanager
    def span(self, name):
        span_id, parent = self._open()
        start = clock()
        try:
            yield
        finally:
            self._close(span_id, parent, name, start)

    @contextmanager
    def in_phase(self, phase):
        """Root span for one phase of the run (setup, train, eval)."""
        self.phase = phase
        try:
            with self.span(f"phase.{phase}"):
                yield
        finally:
            self.phase = None

    # -- wrappers ------------------------------------------------------

    def _span_wrapper(self, target, func):
        tracer, name, observe = self, target.span, target.observe

        def wrapper(*args, **kwargs):
            span_id, parent = tracer._open()
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._close(span_id, parent, name, start)
            if observe is not None:
                with tracer.span(BOOKKEEPING):
                    try:
                        observe(tracer, args, result)
                    except (AttributeError, TypeError, ValueError, IndexError, OSError) as exc:
                        tracer.note_missing(f"{name}: cannot read the call's arguments or result ({exc!r})")
            return result

        wrapper.__wrapped__ = func
        return wrapper

    def _count_wrapper(self, target, func):
        calls, name = self.calls, target.span

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)

        wrapper.__wrapped__ = func
        return wrapper

    def note_missing(self, what):
        if what not in self.missing:
            self.missing.append(what)

    def install(self, targets=TARGETS):
        modules = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for target in targets:
            path = f"{PACKAGE}.{target.module}.{target.attr}"
            owner = sys.modules.get(f"{PACKAGE}.{target.module}")
            *outer, leaf = target.attr.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            func = getattr(owner, leaf, None) if owner is not None else None
            if not callable(func):
                self.note_missing(path)
                continue
            make = self._count_wrapper if target.count_only else self._span_wrapper
            wrapper = make(target, func)
            if outer:  # a method: its one binding is on the class
                self._patch(owner, leaf, wrapper)
            else:  # a function: every module that imported it by name
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is func:
                            self._patch(module, key, wrapper)
            self.installed.add(target.span)

    def _patch(self, owner, key, wrapper):
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def uninstall(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    # -- results -------------------------------------------------------

    def self_times(self):
        """Seconds of self time per (span name, phase)."""
        covered = defaultdict(float)
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                covered[parent] += end - start
        totals = defaultdict(float)
        for span_id, _, name, phase, start, end in self.spans:
            totals[(name, phase)] += end - start - covered[span_id]
        return totals

    def span_count(self, name):
        return sum(1 for s in self.spans if s[2] == name)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, phase, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name, "phase": phase, "start": start, "end": end}) + "\n")


def layer_metrics(tracer, context):
    """Per-layer metrics from a finished trace, as {name: (value, unit)}.

    `context` holds what the trace cannot know: "pair_forwards_trained"
    and the vocabulary's "unk_id". Metrics whose spans were never
    installed, or whose results could not be read, are left out.
    """
    totals = tracer.self_times()
    metrics = {}
    for metric, (name, phase) in SELF_MS.items():
        if name in tracer.installed:
            ms = sum(v for (n, p), v in totals.items() if n == name and (phase is None or p == phase))
            metrics[metric] = (1000.0 * ms, "ms")
    for metric, (unit, needs, derive) in DERIVED.items():
        if not all(n in tracer.installed for n in needs):
            continue
        try:
            metrics[metric] = (derive(tracer, context), unit)
        except (AttributeError, TypeError, ValueError) as exc:
            tracer.note_missing(f"{metric}: cannot read the traced results ({exc!r})")
    return metrics
