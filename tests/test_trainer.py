import dataclasses
import json
import struct

import numpy as np
import pytest

from sentmatch import tensor as T
from sentmatch.checkpoint import load_checkpoint, save_checkpoint
from sentmatch.config import TrainConfig
from sentmatch.data import RawPair
from sentmatch.errors import NumericalError
from sentmatch.metrics import map_mrr
from sentmatch.synthetic import make_classification_pairs, make_ranking_groups
from sentmatch.trainer import _snapshot, adam_step, clip_gradients, evaluate, evaluate_checkpoint, run_ablations, train

import oracles
from test_tensor import dense_take_rows

LABELS = {"entailment": 0, "contradiction": 1, "neutral": 2}


def _classify_pairs(n, seed):
    return [RawPair(LABELS[l], a, b) for l, a, b in make_classification_pairs(n, seed=seed)]


def _ranking_pairs(n_questions, seed):
    return [RawPair(int(l), a, b, g) for l, a, b, g in make_ranking_groups(n_questions, seed=seed)]


def _tiny_cfg(**kw):
    base = dict(task="snli", static_dim=12, contextual_dim=0, hidden=8, epochs=2, batch_size=16, seed=3, dropout=0.1)
    base.update(kw)
    return TrainConfig(**base)


class TestAdam:
    def test_first_step_magnitude_is_learning_rate(self):
        cfg = _tiny_cfg(lr=0.01)
        p = T.parameter(np.zeros((2, 2)))
        p.grad = np.full((2, 2), 3.7)
        params = {"w": p}
        m = {"w": np.zeros((2, 2))}
        v = {"w": np.zeros((2, 2))}
        adam_step(params, m, v, t=1, cfg=cfg)
        # bias correction makes the first update lr * g / (|g| + eps)
        np.testing.assert_allclose(p.data, -cfg.lr * np.sign(3.7), rtol=1e-6)

    def test_zero_gradient_from_fresh_state_changes_nothing(self):
        cfg = _tiny_cfg()
        p = T.parameter(np.ones((2, 2)) * 5.0)
        p.grad = np.zeros((2, 2))
        params = {"w": p}
        m = {"w": np.zeros((2, 2))}
        v = {"w": np.zeros((2, 2))}
        for t in range(1, 4):
            adam_step(params, m, v, t=t, cfg=cfg)
        np.testing.assert_array_equal(p.data, np.ones((2, 2)) * 5.0)
        np.testing.assert_array_equal(m["w"], np.zeros((2, 2)))

    def test_matches_scalar_recurrence_oracle(self, rng):
        cfg = _tiny_cfg(lr=0.003)
        grads = rng.normal(size=12)
        p = T.parameter(np.array([[0.0]]))
        params = {"w": p}
        m = {"w": np.zeros((1, 1))}
        v = {"w": np.zeros((1, 1))}
        for t, g in enumerate(grads, start=1):
            p.grad = np.array([[g]])
            adam_step(params, m, v, t=t, cfg=cfg)
        x, om, ov = oracles.adam_scalar(grads, cfg.lr, cfg.beta1, cfg.beta2, cfg.adam_eps)
        assert abs(p.data[0, 0] - x) <= 1e-12
        assert abs(m["w"][0, 0] - om) <= 1e-12
        assert abs(v["w"][0, 0] - ov) <= 1e-12

    def test_in_place_update_is_bitwise_the_dense_expression(self, rng):
        cfg = _tiny_cfg(lr=0.01)
        shapes = {"a": (3, 4), "b": (5,), "c": (2, 2, 3)}
        params = {n: T.parameter(rng.normal(size=s)) for n, s in shapes.items()}
        m = {n: np.zeros(s) for n, s in shapes.items()}
        v = {n: np.zeros(s) for n, s in shapes.items()}
        ref = {n: (p.data.copy(), np.zeros(shapes[n]), np.zeros(shapes[n])) for n, p in params.items()}
        for t in range(1, 8):
            for n, p in params.items():
                p.grad = None if (t + len(n)) % 3 == 0 else rng.normal(size=shapes[n])
                if p.grad is not None:
                    p.grad.reshape(-1)[:2] = [0.0, -0.0]
                ref[n] = oracles.adam_dense(*ref[n], p.grad, t, cfg.lr, cfg.beta1, cfg.beta2, cfg.adam_eps)
            adam_step(params, m, v, t=t, cfg=cfg)
            for n, p in params.items():
                assert p.grad is None, "the step consumes the gradient"
                want_x, want_m, want_v = ref[n]
                assert p.data.tobytes() == want_x.tobytes(), f"{n} step {t}"
                assert m[n].tobytes() == want_m.tobytes() and v[n].tobytes() == want_v.tobytes(), f"{n} step {t}"

    def test_snapshot_survives_later_in_place_steps(self, rng):
        pairs = _classify_pairs(12, seed=15)
        result = train(_tiny_cfg(epochs=1), pairs)
        model, cfg = result.model, result.model.cfg
        m = {n: np.zeros_like(t.data) for n, t in model.params.items() if t.requires_grad}
        v = {n: np.zeros_like(t.data) for n, t in model.params.items() if t.requires_grad}

        def step(t):
            for p in model.params.values():
                p.grad = rng.normal(size=p.shape)
            adam_step(model.params, m, v, t=t, cfg=cfg)

        step(1)
        ck = _snapshot(model, m, v, 1, 0, result.checkpoint.vocab, [])

        def saved_bytes():
            arrays = [t.data for t in ck.params.values()] + list(ck.adam_m.values()) + list(ck.adam_v.values())
            return [a.tobytes() for a in arrays]

        before = saved_bytes()
        live = model.params["embed.static"].data.tobytes()
        for t in (2, 3):
            step(t)
        assert model.params["embed.static"].data.tobytes() != live
        assert saved_bytes() == before

    def test_clip_rescales_to_maximum_norm(self):
        p1 = T.parameter(np.zeros(3))
        p2 = T.parameter(np.zeros(4))
        p1.grad = np.full(3, 10.0)
        p2.grad = np.full(4, 10.0)
        params = {"a": p1, "b": p2}
        norm = clip_gradients(params, max_norm=5.0)
        assert norm > 5.0
        total = np.sqrt(sum(float(np.sum(p.grad**2)) for p in params.values()))
        assert abs(total - 5.0) <= 1e-9


class TestTraining:
    def test_loss_decreases_on_learnable_data(self):
        pairs = _classify_pairs(48, seed=1)
        result = train(_tiny_cfg(epochs=6, dropout=0.0), pairs, dev_pairs=pairs)
        losses = [h["train_loss"] for h in result.history]
        assert losses[-1] < losses[0]

    def test_identical_seed_reproduces_history_and_checkpoint_bitwise(self, tmp_path):
        pairs = _classify_pairs(24, seed=2)
        dev = _classify_pairs(12, seed=4)
        runs = []
        for i in range(2):
            result = train(_tiny_cfg(epochs=2), pairs, dev_pairs=dev)
            path = tmp_path / f"ck{i}.bin"
            save_checkpoint(path, result.checkpoint)
            runs.append((result.history, path.read_bytes()))
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] == runs[1][1]

    @pytest.mark.parametrize("task", ["snli", "wikiqa"])
    def test_row_sparse_gather_writes_the_dense_scatter_checkpoint(self, task, monkeypatch, tmp_path):
        from sentmatch.embedding import StubContextualProvider

        if task == "snli":
            pairs, dev = _classify_pairs(40, seed=16), _classify_pairs(12, seed=17)
            cfg = _tiny_cfg(contextual_dim=4)
        else:
            pairs, dev = _ranking_pairs(4, seed=18), _ranking_pairs(2, seed=19)
            cfg = _tiny_cfg(task="wikiqa", contextual_dim=4, batch_size=4)
        blobs = []
        for gather in (T.take_rows, dense_take_rows):
            monkeypatch.setattr(T, "take_rows", gather)
            result = train(cfg, pairs, dev_pairs=dev, provider=StubContextualProvider(4, seed=0))
            path = tmp_path / f"{gather.__name__}.bin"
            save_checkpoint(path, result.checkpoint)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

    def test_nan_loss_aborts_with_diagnostics(self, monkeypatch):
        pairs = _classify_pairs(12, seed=5)
        import sentmatch.trainer as trainer_mod

        def poisoned(model, batch, train, rng):
            return T.mul_const(trainer_mod.cross_entropy(
                T.concat([model.forward_pair(p, train=train, rng=rng) for p in batch.pairs], axis=0),
                batch.labels,
            ), np.nan)

        monkeypatch.setattr(trainer_mod, "_classification_loss", poisoned)
        with pytest.raises(NumericalError, match=r"epoch 0 batch 0.*max\|grad\|"):
            train(_tiny_cfg(epochs=1), pairs)

    def test_early_stopping_cuts_the_run_short(self):
        pairs = _classify_pairs(24, seed=6)
        dev = _classify_pairs(12, seed=7)
        result = train(_tiny_cfg(epochs=12, early_stop_patience=2, lr=1e-6), pairs, dev_pairs=dev)
        assert len(result.history) < 12


class TestEvaluate:
    def test_zero_head_on_balanced_data_is_chance(self):
        pairs = _classify_pairs(30, seed=8)
        result = train(_tiny_cfg(epochs=1), pairs, dev_pairs=pairs)
        model = result.model
        model.params["head.w"].data[:] = 0.0
        model.params["head.b"].data[:] = 0.0
        report = evaluate(model, pairs, result.checkpoint.vocab)
        # uniform probabilities predict class 0 everywhere; fixture is balanced
        assert abs(report.metrics["acc"] - 1 / 3) <= 0.05

    def test_evaluation_is_deterministic(self):
        pairs = _classify_pairs(18, seed=9)
        result = train(_tiny_cfg(epochs=1), pairs, dev_pairs=pairs)
        r1 = evaluate(result.model, pairs, result.checkpoint.vocab)
        r2 = evaluate(result.model, pairs, result.checkpoint.vocab)
        assert r1.metrics == r2.metrics

    def test_ranking_eval_matches_metric_closed_forms(self):
        pairs = _ranking_pairs(2, seed=10)
        cfg = _tiny_cfg(task="wikiqa", epochs=1, batch_size=4)
        result = train(cfg, pairs, dev_pairs=pairs)
        report = evaluate(result.model, pairs, result.checkpoint.vocab)
        scored = {}
        for p in pairs:
            scored.setdefault(p.group_id, [])
        # recompute through the public metric on the model's own scores
        from sentmatch.data import build_batches

        batches, _ = build_batches(pairs, result.checkpoint.vocab, "wikiqa", 8)
        for batch in batches:
            for pair in batch.pairs:
                scored[pair.group_id].append((result.model.score(pair), pair.label == 1))
        expected = map_mrr(list(scored.values()))
        assert (report.metrics["map"], report.metrics["mrr"]) == expected


class TestCheckpoint:
    def test_save_load_save_is_bitwise_identical(self, tmp_path):
        pairs = _classify_pairs(12, seed=11)
        result = train(_tiny_cfg(epochs=1), pairs, dev_pairs=pairs)
        p1 = tmp_path / "a.bin"
        p2 = tmp_path / "b.bin"
        save_checkpoint(p1, result.checkpoint)
        save_checkpoint(p2, load_checkpoint(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_failed_save_leaves_previous_file_intact(self, tmp_path):
        pairs = _classify_pairs(12, seed=20)
        ck = train(_tiny_cfg(epochs=1), pairs).checkpoint
        path = tmp_path / "ck.bin"
        save_checkpoint(path, ck)
        good = path.read_bytes()
        # the last tensor written cannot be read as float64: the write fails partway
        name = sorted(ck.adam_v)[-1]
        broken = dataclasses.replace(ck, adam_v={**ck.adam_v, name: np.full(ck.adam_v[name].shape, "x", dtype=object)})
        with pytest.raises(ValueError):
            save_checkpoint(path, broken)
        assert path.read_bytes() == good
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ck.bin"]

    def test_manifest_with_an_rng_state_still_loads(self, tmp_path):
        # earlier files carried an "rng_state" manifest key that nothing read
        pairs = _classify_pairs(15, seed=21)
        result = train(_tiny_cfg(epochs=1), pairs, dev_pairs=pairs)
        path, old_path = tmp_path / "ck.bin", tmp_path / "old.bin"
        save_checkpoint(path, result.checkpoint)
        blob = path.read_bytes()
        (manifest_len,) = struct.unpack("<Q", blob[8:16])
        manifest = json.loads(blob[16 : 16 + manifest_len])
        manifest["rng_state"] = {"bit_generator": "PCG64", "state": {"state": 2**100 + 7, "inc": 2**90 + 1}, "has_uint32": 0, "uinteger": 0}
        header = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
        old_path.write_bytes(blob[:8] + struct.pack("<Q", len(header)) + header + blob[16 + manifest_len :])
        old = load_checkpoint(old_path)
        assert evaluate_checkpoint(old, pairs).metrics == evaluate_checkpoint(result.checkpoint, pairs).metrics
        resaved = tmp_path / "resaved.bin"
        save_checkpoint(resaved, old)
        assert resaved.read_bytes() == blob

    def test_roundtrip_preserves_evaluation_bitwise(self, tmp_path):
        pairs = _classify_pairs(15, seed=12)
        result = train(_tiny_cfg(epochs=1), pairs, dev_pairs=pairs)
        direct = evaluate_checkpoint(result.checkpoint, pairs)
        path = tmp_path / "ck.bin"
        save_checkpoint(path, result.checkpoint)
        loaded = evaluate_checkpoint(load_checkpoint(path), pairs)
        assert direct.metrics == loaded.metrics
        assert direct.fingerprint == loaded.fingerprint


class TestAblationSweep:
    def test_seven_rows_full_first_with_deltas(self):
        pairs = _classify_pairs(18, seed=13)
        dev = _classify_pairs(9, seed=14)
        cfg = _tiny_cfg(epochs=1, contextual_dim=4)
        from sentmatch.embedding import StubContextualProvider

        rows = run_ablations(cfg, pairs, dev, provider=StubContextualProvider(4, seed=0))
        assert len(rows) == 7
        assert rows[0][0] == "full" and rows[0][3] == 0.0
        names = [r[0] for r in rows]
        assert names == list(dict.fromkeys(names)), "variants must be unique"
        full_metric = rows[0][2]
        for variant, fp, metric, delta in rows[1:]:
            assert fp == variant
            assert abs((metric - full_metric) - delta) <= 1e-12
