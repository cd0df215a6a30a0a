"""Eval forwards: graph-free, and two at a time on two CPUs.

`trainer.forward_batches` is the only eval path (`evaluate`, `train()`'s
dev eval, `predict`). These tests force its helper thread on (size gate
0, two usable CPUs) or off (one usable CPU) and hold every output to the
serial, graph-keeping forward bit for bit.
"""

import dataclasses
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import sentmatch
from sentmatch import tensor as T
from sentmatch import trainer
from sentmatch.checkpoint import load_checkpoint, save_checkpoint
from sentmatch.cli import main
from sentmatch.config import TrainConfig
from sentmatch.data import build_vocab, read_dataset, tokenize_pairs
from sentmatch.embedding import CacheContextualProvider, StubContextualProvider, write_contextual_cache
from sentmatch.errors import CacheMissError
from sentmatch.model import MatchModel
from sentmatch.synthetic import make_classification_pairs, write_tsv
from test_batched import _batches

TINY = ["--static_dim", "12", "--contextual_dim", "0", "--hidden", "8", "--epochs", "2", "--batch_size", "4", "--seed", "3"]


@pytest.fixture
def helper(monkeypatch):
    """`helper(True)` sends every other batch to the helper thread; `helper(False)` allows one CPU."""

    def force(on):
        monkeypatch.setattr(trainer, "HELPER_MIN_MACS", 0)
        monkeypatch.setattr(trainer, "_usable_cpus", lambda: 2 if on else 1)

    return force


@pytest.fixture
def threads_used(monkeypatch):
    """The thread ident of every forward, in call order."""
    idents = []
    forward = MatchModel.forward_pair

    def wrapper(self, *args, **kwargs):
        idents.append(threading.get_ident())
        return forward(self, *args, **kwargs)

    monkeypatch.setattr(MatchModel, "forward_pair", wrapper)
    return idents


class _Missing:
    """A provider that has no vectors for the sentences in `missing`."""

    def __init__(self, inner, missing):
        self.inner, self.missing, self.dim = inner, missing, inner.dim

    def vectors(self, sid, tokens):
        if sid in self.missing:
            raise CacheMissError(f"no contextual vectors for sentence id {sid}")
        return self.inner.vectors(sid, tokens)


def _renamed(batch, k):
    """`batch` with sentence ids of its own, so copies of one batch fetch their own vectors."""
    items = [dataclasses.replace(p, sid_a=f"{p.sid_a}/{k}", sid_b=f"{p.sid_b}/{k}") for p in batch.items]
    return dataclasses.replace(batch, items=items)


def _stub_records(stub, pairs):
    """{sentence id: stub rows} for both sides of `pairs`, as a cache holds them."""
    records = {}
    for p in pairs:
        records[p.sid_a], records[p.sid_b] = stub.vectors(p.sid_a, p.tokens_a), stub.vectors(p.sid_b, p.tokens_b)
    return records


class TestGraphFreeNodes:
    def test_a_node_of_constants_keeps_no_parents_and_no_vjp(self):
        a, b = T.constant(np.ones((2, 3))), T.constant(np.ones((3, 4)))
        for node in (T.matmul(a, b), T.relu(a), T.add(a, a), T.concat([a, a], axis=0)):
            assert not node.requires_grad
            assert node._parents == () and node._record is None

    def test_a_node_with_a_gradient_input_keeps_its_graph(self):
        a, w = T.constant(np.ones((2, 3))), T.parameter(np.ones((3, 4)))
        node = T.matmul(a, w)
        assert node.requires_grad and node._record._vjp is not None
        assert node._record._parents == (w._record,), "the constant operand is no parent"

    def test_backward_through_a_graph_free_input(self):
        x = np.linspace(-2.0, 2.0, 6).reshape(2, 3)
        c = T.tanh(T.relu(T.constant(x)))  # graph-free
        w = T.parameter(np.full((2, 3), 0.5))
        T.sum_all(T.mul(c, w)).backward()
        assert w.grad.tobytes() == np.tanh(np.maximum(x, 0.0)).tobytes()
        assert c.grad is None

    def test_eval_forward_builds_no_graph(self):
        model, batches = _batches("paper")
        frozen = MatchModel(model.cfg, {n: T.constant(t.data) for n, t in model.params.items()}, provider=model.provider)
        out = frozen.forward_pair(batches[0])
        assert out._parents == () and out._record is None
        assert frozen.params["embed.static"].data is model.params["embed.static"].data  # views, no copies


class TestForwardBatches:
    @pytest.mark.parametrize("fixture", ["desk", "wikiqa", "paper"])
    @pytest.mark.parametrize("on", [True, False])
    def test_outputs_are_the_serial_forwards_bitwise(self, fixture, on, helper, threads_used):
        model, batches = _batches(fixture)
        batches = batches * 3  # several batches, so both threads take some
        want = [model.forward_pair(b).data.tobytes() for b in batches]
        threads_used.clear()
        before = threading.enumerate()
        helper(on)
        got = trainer.forward_batches(model, batches)
        assert [g.tobytes() for g in got] == want
        assert threading.enumerate() == before
        main_thread = threading.get_ident()
        if on:
            assert threads_used.count(main_thread) == len(batches) // 2
        else:
            assert set(threads_used) == {main_thread}

    def test_one_usable_cpu_starts_no_thread(self, helper, monkeypatch):
        import concurrent.futures

        def refuse(*args, **kwargs):
            raise AssertionError("a thread pool was created")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse)
        model, batches = _batches("desk")
        helper(False)
        assert len(trainer.forward_batches(model, batches * 4)) == 4

    def test_batches_below_the_size_gate_stay_on_the_calling_thread(self, monkeypatch, threads_used):
        monkeypatch.setattr(trainer, "_usable_cpus", lambda: 2)
        model, batches = _batches("desk")  # a few thousand multiply-adds per batch
        trainer.forward_batches(model, batches * 4)
        assert set(threads_used) == {threading.get_ident()}

    def test_usable_cpus_reads_the_affinity_mask(self):
        assert trainer._usable_cpus() == len(os.sched_getaffinity(0))


def test_concurrent_calls_over_one_cache_stay_bitwise(helper, tmp_path):
    """Three callers, each with its helper, race on one cache reader's first lookups."""
    model, batches = _batches("paper")
    batches = [_renamed(b, k) for k, b in enumerate(batches * 4)]
    records = _stub_records(model.provider, [p for b in batches for p in b.items])
    write_contextual_cache(tmp_path / "ctx.bin", model.provider.dim, records.items())
    want = [model.forward_pair(b).data.tobytes() for b in batches]
    model.provider = CacheContextualProvider(tmp_path / "ctx.bin")  # its views are made on first lookup
    helper(True)
    results = [None] * 3

    def call(k):
        results[k] = [out.tobytes() for out in trainer.forward_batches(model, batches)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=call, args=(k,)) for k in range(3)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert results == [want] * 3


class TestErrors:
    def _setup(self, fail_at):
        """Four paper batches; a contextual lookup fails in each batch index of `fail_at`."""
        model, batches = _batches("paper")
        batches = [_renamed(b, k) for k, b in enumerate(batches * 4)]
        missing = {batches[k].items[0].sid_a for k in fail_at}
        model.provider = _Missing(model.provider, missing)
        return model, batches

    @pytest.mark.parametrize("fail_at, first", [((0,), 0), ((1,), 1), ((0, 1), 0), ((1, 2), 1), ((3,), 3)])
    def test_the_first_failing_batch_raises_its_own_error(self, helper, fail_at, first):
        model, batches = self._setup(fail_at)
        before = threading.enumerate()
        helper(True)  # batches 0 and 2 go to the helper, 1 and 3 stay on the calling thread
        with pytest.raises(CacheMissError) as caught:
            trainer.forward_batches(model, batches)
        assert str(caught.value) == f"no contextual vectors for sentence id {batches[first].items[0].sid_a}"
        assert threading.enumerate() == before


@pytest.fixture
def corpus(tmp_path):
    train_path, dev_path = tmp_path / "train.tsv", tmp_path / "dev.tsv"
    write_tsv(train_path, make_classification_pairs(32, seed=1))
    write_tsv(dev_path, make_classification_pairs(18, seed=2))
    return train_path, dev_path


class TestEvalPaths:
    def test_train_dev_history_is_the_serial_one(self, helper, corpus):
        train_path, dev_path = corpus
        cfg = TrainConfig(task="snli", static_dim=12, contextual_dim=0, hidden=8, epochs=3, batch_size=4, seed=3)
        train_pairs, dev_pairs = read_dataset(train_path, "snli"), read_dataset(dev_path, "snli")
        runs = []
        for on in (False, True):
            helper(on)
            result = trainer.train(cfg, train_pairs, dev_pairs)
            runs.append((json.dumps(result.history), {n: t.data.tobytes() for n, t in result.checkpoint.params.items()}))
        assert runs[0] == runs[1]

    def test_predict_and_eval_stdout_are_the_serial_ones(self, helper, corpus, tmp_path, capsys):
        train_path, dev_path = corpus
        out = tmp_path / "run"
        assert main(["train", "--train", str(train_path), "--out", str(out), "--quiet", *TINY]) == 0
        capsys.readouterr()
        printed = []
        for on in (False, True):
            helper(on)
            for command in ("predict", "eval"):
                assert main([command, "--checkpoint", str(out / "checkpoint.bin"), "--data", str(dev_path)]) == 0
                printed.append(capsys.readouterr())
        assert printed[:2] == printed[2:]
        assert len(printed[0].out.splitlines()) == 18

    @pytest.mark.parametrize("miss_batch", [0, 1])  # 0 runs on the helper, 1 on the calling thread
    def test_cache_miss_exits_2_with_the_serial_message(self, helper, tmp_path, capsys, miss_batch):
        data_path = tmp_path / "data.tsv"
        write_tsv(data_path, make_classification_pairs(16, seed=5))
        pairs = read_dataset(data_path, "snli")
        tokenized, _ = tokenize_pairs(pairs, build_vocab(pairs), cap=64)
        records = _stub_records(StubContextualProvider(4, seed=0), tokenized)
        cache = tmp_path / "ctx.bin"
        write_contextual_cache(cache, 4, records.items())
        out = tmp_path / "run"
        flags = ["--static_dim", "12", "--contextual_dim", "4", "--hidden", "8", "--epochs", "1", "--batch_size", "4", "--seed", "3"]
        assert main(["train", "--train", str(data_path), "--out", str(out), "--quiet", "--contextual", str(cache), *flags]) == 0
        missing = tokenized[4 * miss_batch + 1].sid_b
        assert all(missing not in (p.sid_a, p.sid_b) for p in tokenized[: 4 * miss_batch])
        del records[missing]
        write_contextual_cache(cache, 4, records.items())
        capsys.readouterr()
        errors = []
        for on in (False, True):
            helper(on)
            for command in ("eval", "predict"):
                code = main([command, "--checkpoint", str(out / "checkpoint.bin"), "--data", str(data_path), "--contextual", str(cache)])
                errors.append((code, capsys.readouterr().err))
        assert errors[:2] == errors[2:]
        assert errors[0] == (2, f"error: no contextual vectors for sentence id {missing} in {cache}\n")


def _run_forced(*argv):
    """The CLI in a fresh interpreter with the helper thread forced on."""
    code = (
        "import sys\n"
        "from sentmatch import trainer\n"
        "trainer.HELPER_MIN_MACS = 0\n"
        "trainer._usable_cpus = lambda: 2\n"
        "from sentmatch.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(sentmatch.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, "-c", code, *map(str, argv)], capture_output=True, text=True, env=env, timeout=120)


def test_helper_thread_runs_under_the_clis_errstate(corpus, tmp_path):
    """Weights large enough to overflow in the forward print no RuntimeWarning from the helper."""
    train_path, dev_path = corpus
    out = tmp_path / "run"
    assert main(["train", "--train", str(train_path), "--out", str(out), "--quiet", *TINY]) == 0
    ck = load_checkpoint(out / "checkpoint.bin")
    for t in ck.params.values():
        t.data *= 1e300
    huge = tmp_path / "huge.bin"
    save_checkpoint(huge, ck)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        trainer.evaluate_checkpoint(load_checkpoint(huge), read_dataset(dev_path, "snli"))
    for command in ("eval", "predict"):
        proc = _run_forced(command, "--checkpoint", huge, "--data", dev_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
