"""Acceptance gate: one test per shipped criterion, run in order.

Each test prints a `[acceptance] criterion N (...): PASS` line when its
assertions hold; tolerances are pinned here and nowhere else. The
heavier criteria train real (desk-scale, synthetic) models and take a
few minutes; the whole module stays within its stated budgets.
"""

import math
import time

import numpy as np
import pytest

from sentmatch import tensor as T
from sentmatch.checkpoint import save_checkpoint
from sentmatch.config import TrainConfig
from sentmatch.data import RawPair, build_batches, build_vocab
from sentmatch.embedding import random_static_vectors
from sentmatch.encoder import align, fuse
from sentmatch.heads import cross_entropy, head_forward, hinge_loss
from sentmatch.interaction import h2p_attention, interact, merge, p2h_attention, self_attend, similarity
from sentmatch.metrics import map_mrr
from sentmatch.model import MatchModel, init_params
from sentmatch.synthetic import make_classification_pairs
from sentmatch.trainer import _step_loss, run_ablations, train

import oracles
from test_tensor import _op_cases

LABELS = {"entailment": 0, "contradiction": 1, "neutral": 2}


def _pairs(n, seed):
    return [RawPair(LABELS[l], a, b) for l, a, b in make_classification_pairs(n, seed=seed)]


def _tiny_model(seed, n_pairs=2, hidden=6, static=8, task="snli"):
    cfg = TrainConfig(task=task, static_dim=static, contextual_dim=0, hidden=hidden, batch_size=8, seed=seed, dropout=0.0)
    pairs = _pairs(n_pairs, seed=seed + 50)
    vocab = build_vocab(pairs)
    params = init_params(cfg, random_static_vectors(vocab, static, seed=seed), seed=seed)
    model = MatchModel(cfg, params)
    batches, _ = build_batches(pairs, vocab, 64, batch_size=n_pairs)
    return model, batches[0]


def _sampled_loss_fd(model, batch, loss_fn, n_coords, seed, tol):
    """Central finite differences of a scalar loss at sampled coordinates."""
    loss = loss_fn()
    loss.backward()
    params = model.params
    analytic = {name: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data)) for name, t in params.items()}
    rng = np.random.default_rng(seed)
    names = sorted(params)
    step = 1e-5
    worst = 0.0
    for _ in range(n_coords):
        name = names[rng.integers(len(names))]
        flat = params[name].data.reshape(-1)
        j = int(rng.integers(flat.size))
        orig = flat[j]
        flat[j] = orig + step
        f_plus = float(loss_fn().data)
        flat[j] = orig - step
        f_minus = float(loss_fn().data)
        flat[j] = orig
        numeric = (f_plus - f_minus) / (2 * step)
        a = analytic[name].reshape(-1)[j]
        rel = abs(a - numeric) / max(abs(a), abs(numeric), 1.0)
        worst = max(worst, rel)
    assert worst <= tol, f"loss FD mismatch: {worst:.3e} > {tol}"
    return worst


def test_criterion_1_gradient_suite():
    t0 = time.perf_counter()
    # every registered operation, 21 seeds, against central differences
    for seed in range(21):
        for name, fn, inputs in _op_cases(np.random.default_rng(seed)):
            report = T.grad_check(fn, inputs, tolerance=1e-4)
            assert report.passed, f"{name} seed {seed}: {report}"
    # composed stages
    for seed in range(3):
        rng = np.random.default_rng(seed)
        d = 3
        fuse_inputs = [
            T.parameter(rng.normal(size=(2, d))),
            T.parameter(rng.normal(size=(2, d))),
            T.parameter(rng.normal(size=(4 * d, d))),
            T.parameter(rng.normal(size=(4 * d, d))),
        ]
        assert T.grad_check(lambda ins: fuse(*ins), fuse_inputs, tolerance=1e-4).passed
        mask_a, mask_b = np.ones(3), np.ones(4)
        inter_inputs = [
            T.parameter(rng.normal(size=(3, d))),
            T.parameter(rng.normal(size=(4, d))),
            T.parameter(rng.normal(size=(d, d))),
            T.parameter(rng.normal(size=(d, d))),
        ]

        def inter_op(ins):
            local = {"inter.w_h": ins[2], "inter.w_p": ins[3]}
            return interact(ins[0], ins[1], mask_a, mask_b, local)

        assert T.grad_check(inter_op, inter_inputs, tolerance=1e-4).passed
    # end-to-end classification loss at sampled parameter coordinates
    model, batch = _tiny_model(seed=0)
    _sampled_loss_fd(model, batch, lambda: _step_loss(model, (batch,), train=False, rng=None), n_coords=40, seed=1, tol=1e-3)
    # end-to-end ranking loss
    rk_model, rk_batch = _tiny_model(seed=2, task="wikiqa")

    def rank_loss():
        pos = rk_model.forward_pair(rk_batch.pairs[0])
        neg = rk_model.forward_pair(rk_batch.pairs[1])
        return hinge_loss(pos, neg)

    base = rank_loss()
    assert abs(float(base.data)) > 1e-3, "fixture must sit away from the hinge kink"
    _sampled_loss_fd(rk_model, rk_batch, rank_loss, n_coords=30, seed=4, tol=1e-3)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120, f"gradient suite took {elapsed:.0f}s"
    print(f"\n[acceptance] criterion 1 (gradient suite, 21 seeds, {elapsed:.0f}s): PASS")


def test_criterion_2_formula_oracles():
    t0 = time.perf_counter()
    tol = 1e-10
    for seed in range(5):
        rng = np.random.default_rng(seed)
        d, n, m = 5, 3, 4
        c_data, q_data = rng.normal(size=(n, d)), rng.normal(size=(m, d))
        wc, wq = rng.normal(size=(d, d)), rng.normal(size=(d, d))
        mask_a, mask_b = np.ones(n), np.ones(m)
        c_al, q_al, s = align(T.constant(c_data), T.constant(q_data), mask_a, mask_b, T.constant(wc), T.constant(wq))
        oc, oq, os_ = oracles.align_direct(c_data, q_data, wc, wq, mask_a, mask_b)
        np.testing.assert_allclose(s.data, os_, atol=tol)
        np.testing.assert_allclose(c_al.data, oc, atol=tol)
        np.testing.assert_allclose(q_al.data, oq, atol=tol)

        x_d, y_d = rng.normal(size=(n, d)), rng.normal(size=(n, d))
        w1, w2 = rng.normal(size=(4 * d, d)), rng.normal(size=(4 * d, d))
        np.testing.assert_allclose(
            fuse(T.constant(x_d), T.constant(y_d), T.constant(w1), T.constant(w2)).data,
            oracles.fuse_direct(x_d, y_d, w1, w2),
            atol=tol,
        )

        h_d, p_d = rng.normal(size=(n, d)), rng.normal(size=(m, d))
        wh, wp = rng.normal(size=(d, d)), rng.normal(size=(d, d))
        s2 = similarity(T.constant(h_d), T.constant(p_d), T.constant(wh), T.constant(wp))
        np.testing.assert_allclose(s2.data, oracles.similarity_direct(h_d, p_d, wh, wp), atol=tol)
        np.testing.assert_allclose(
            h2p_attention(s2, T.constant(p_d), mask_b).data, oracles.h2p_direct(s2.data, p_d, mask_b), atol=tol
        )
        c_vec, c_att = p2h_attention(s2, T.constant(h_d), mask_a, mask_b)
        o_vec, o_att = oracles.p2h_direct(s2.data, h_d, mask_a, mask_b)
        np.testing.assert_allclose(c_vec.data[0], o_vec, atol=tol)
        np.testing.assert_allclose(c_att.data, o_att, atol=tol)

        q_att = h2p_attention(s2, T.constant(p_d), mask_b)
        g = merge(T.constant(h_d), q_att, c_att)
        np.testing.assert_allclose(g.data, oracles.merge_direct(h_d, q_att.data, c_att.data), atol=tol)
        np.testing.assert_allclose(self_attend(g, mask_a).data, oracles.self_attend_direct(g.data, mask_a), atol=tol)

        pooled = rng.normal(size=(1, 8))
        w_head, b_head = rng.normal(size=(8, 3)), rng.normal(size=(1, 3))
        np.testing.assert_allclose(
            head_forward(T.constant(pooled), T.constant(w_head), T.constant(b_head), "classify").data[0],
            oracles.head_direct(pooled[0], w_head, b_head[0], "classify"),
            atol=tol,
        )
        np.testing.assert_allclose(
            head_forward(T.constant(pooled), T.constant(w_head[:, :1]), T.constant(b_head[:, :1]), "rank").data[0],
            oracles.head_direct(pooled[0], w_head[:, :1], b_head[0, :1], "rank"),
            atol=tol,
        )

        raw = rng.uniform(0.05, 1.0, size=(4, 3))
        probs = raw / raw.sum(axis=1, keepdims=True)
        labels = rng.integers(0, 3, size=4)
        assert abs(cross_entropy(T.constant(probs), labels).item() - oracles.cross_entropy_direct(probs, labels)) <= tol
        pos, neg = rng.uniform(-1, 1, size=(5, 1)), rng.uniform(-1, 1, size=(5, 1))
        assert abs(hinge_loss(T.constant(pos), T.constant(neg)).item() - oracles.hinge_direct(pos, neg)) <= tol
    elapsed = time.perf_counter() - t0
    assert elapsed < 60, f"oracle suite took {elapsed:.0f}s"
    print(f"\n[acceptance] criterion 2 (formula oracles at 1e-10, {elapsed:.0f}s): PASS")


def test_criterion_3_closed_forms():
    for k in (2, 3, 7):
        probs = T.constant(np.full((1, k), 1.0 / k))
        assert abs(cross_entropy(probs, [0]).item() - math.log(k)) <= 1e-9
    assert hinge_loss(T.constant([[1.5]]), T.constant([[0.2]])).item() == 0.0
    assert hinge_loss(T.constant([[0.4]]), T.constant([[0.4]])).item() == 1.0
    assert abs(hinge_loss(T.constant([[0.9]]), T.constant([[0.3]])).item() - 0.4) <= 1e-15
    m, r = map_mrr([[(0.9, True), (0.5, False), (0.1, False)]])
    assert m == 1.0 and r == 1.0
    m, r = map_mrr([[(0.9, False), (0.8, False), (0.7, True), (0.6, False), (0.5, False)]])
    assert abs(m - 1 / 3) <= 1e-15 and abs(r - 1 / 3) <= 1e-15
    m, _ = map_mrr([[(0.9, True), (0.8, False), (0.7, True), (0.6, False)]])
    assert abs(m - 5 / 6) <= 1e-15
    print("\n[acceptance] criterion 3 (closed forms): PASS")


def test_criterion_4_overfit_synthetic():
    t0 = time.perf_counter()
    pairs = _pairs(64, seed=3)
    cfg = TrainConfig(
        task="snli",
        static_dim=32,
        contextual_dim=0,
        hidden=32,
        kernel=3,
        lr=0.0005,
        epochs=300,
        batch_size=128,
        seed=1,
        dropout=0.0,
        early_stop_patience=60,
    )
    result = train(cfg, pairs, dev_pairs=pairs)
    accs = [h["acc"] for h in result.history]
    elapsed = time.perf_counter() - t0
    assert max(accs) == 1.0, f"best train accuracy {max(accs):.3f} after {len(accs)} epochs"
    assert elapsed < 300, f"overfit run took {elapsed:.0f}s"
    first = accs.index(1.0)
    print(f"\n[acceptance] criterion 4 (64-pair overfit, 100% at epoch {first}, {elapsed:.0f}s): PASS")


@pytest.mark.slow
def test_criterion_5_desk_scale_training():
    t0 = time.perf_counter()
    train_pairs = _pairs(10_000, seed=20)
    dev_pairs = _pairs(1_000, seed=21)
    cfg = TrainConfig(task="snli", static_dim=64, contextual_dim=0, hidden=64, epochs=5, batch_size=128, seed=0, dropout=0.2)
    result = train(cfg, train_pairs, dev_pairs=dev_pairs)
    best = result.best_metric
    elapsed = time.perf_counter() - t0
    assert best >= 0.55, f"dev accuracy {best:.3f} below the sanity floor"
    assert elapsed < 3600, f"desk-scale run took {elapsed:.0f}s"
    print(f"\n[acceptance] criterion 5 (10k-pair desk scale, dev acc {best:.3f}, {elapsed:.0f}s): PASS")


@pytest.mark.slow
def test_criterion_6_ablation_structure_and_direction():
    t0 = time.perf_counter()
    train_pairs = _pairs(1_500, seed=100)
    dev_pairs = _pairs(400, seed=101)
    expected_order = ["full", "no_elmo", "no_alignment", "no_fusion", "no_self_attention", "only_h2p", "only_p2h"]
    per_variant = {}
    for seed in (0, 1, 2):
        cfg = TrainConfig(task="snli", static_dim=32, contextual_dim=0, hidden=32, epochs=2, batch_size=128, seed=seed, dropout=0.2)
        rows = run_ablations(cfg, train_pairs, dev_pairs)
        assert [r[0] for r in rows] == expected_order, "sweep must emit exactly the seven variants"
        assert rows[0][3] == 0.0
        for variant, fingerprint, metric, _ in rows:
            assert fingerprint == ("full" if variant == "full" else variant)
            per_variant.setdefault(variant, []).append(metric)
    full_mean = float(np.mean(per_variant["full"]))
    within_band = 0
    for variant in expected_order[1:]:
        mean_metric = float(np.mean(per_variant[variant]))
        if mean_metric <= full_mean + 0.02:
            within_band += 1
    elapsed = time.perf_counter() - t0
    assert within_band >= 5, f"only {within_band}/6 ablations within the full-model band"
    print(f"\n[acceptance] criterion 6 (7-variant sweep, {within_band}/6 within band, {elapsed:.0f}s): PASS")


def test_criterion_7_bitwise_determinism(tmp_path):
    pairs = _pairs(150, seed=30)
    dev = _pairs(60, seed=31)
    artifacts = []
    for run in range(2):
        cfg = TrainConfig(task="snli", static_dim=16, contextual_dim=0, hidden=12, epochs=2, batch_size=32, seed=9, dropout=0.2)
        result = train(cfg, pairs, dev_pairs=dev)
        path = tmp_path / f"run{run}.bin"
        save_checkpoint(path, result.checkpoint)
        artifacts.append((result.history, path.read_bytes()))
    assert artifacts[0][0] == artifacts[1][0], "loss histories differ between identical runs"
    assert artifacts[0][1] == artifacts[1][1], "checkpoint bytes differ between identical runs"
    print("\n[acceptance] criterion 7 (bitwise determinism): PASS")


def test_criterion_8_masking_soundness():
    cfg = TrainConfig(task="snli", static_dim=12, contextual_dim=0, hidden=10, batch_size=8, seed=4, dropout=0.2)
    pairs = _pairs(12, seed=40)
    vocab = build_vocab(pairs)
    params = init_params(cfg, random_static_vectors(vocab, cfg.static_dim, seed=4), seed=4)
    model = MatchModel(cfg, params)
    batches, _ = build_batches(pairs, vocab, cfg.effective_max_len, batch_size=12)
    padded = [p for p in batches[0].pairs if p.mask_a.min() == 0.0 or p.mask_b.min() == 0.0]
    assert padded, "fixture must contain padded rows"
    eval_before = [model.forward_pair(p).data.tobytes() for p in padded]
    train_before = [model.forward_pair(p, train=True, rng=np.random.default_rng(7)).data.tobytes() for p in padded]
    params["embed.static"].data[0] = -3.5e8  # poison the pad row
    eval_after = [model.forward_pair(p).data.tobytes() for p in padded]
    train_after = [model.forward_pair(p, train=True, rng=np.random.default_rng(7)).data.tobytes() for p in padded]
    assert eval_before == eval_after, "pad perturbation leaked into eval outputs"
    assert train_before == train_after, "pad perturbation leaked into training outputs"
    print("\n[acceptance] criterion 8 (masking soundness, exact): PASS")
