"""The batched forward is each row's forward, row by row.

`MatchModel.forward_pair` runs one graph over a padded `Batch`; these
tests hold it to the forward of each of the batch's one-row slices
(`Batch.pairs`) alone: outputs bit for bit, pad masking bit for bit, and
parameter gradients of one batch loss against the loss joined from
one-row graphs.
"""

import numpy as np
import pytest

from sentmatch import tensor as T
from sentmatch.config import TrainConfig
from sentmatch.data import PAD, RawPair, build_batches, build_vocab, group_by_question, tokenize_pairs
from sentmatch.embedding import StubContextualProvider, random_static_vectors
from sentmatch.heads import cross_entropy, hinge_loss
from sentmatch.model import MatchModel, init_params
from sentmatch.synthetic import make_classification_pairs, make_ranking_groups
from sentmatch.trainer import _classification_loss, _ranking_loss, _ranking_steps

LABELS = {"entailment": 0, "contradiction": 1, "neutral": 2}
VARIANTS = ["full", "meanmax", "no_alignment", "no_fusion", "no_self_attention", "only_h2p", "only_p2h"]


def _model(cfg, pairs):
    vocab = build_vocab(pairs)
    params = init_params(cfg, random_static_vectors(vocab, cfg.static_dim, seed=cfg.seed), seed=cfg.seed + 1)
    provider = StubContextualProvider(cfg.contextual_dim, seed=2) if cfg.effective_contextual_dim else None
    return MatchModel(cfg, params, provider=provider), vocab


def _desk(variant="full", dropout=0.0):
    """Synthetic SNLI at desk shape: short sentences, no contextual vectors."""
    flags = {} if variant == "full" else {"pool": "meanmax"} if variant == "meanmax" else {variant: True}
    cfg = TrainConfig(task="snli", static_dim=10, contextual_dim=0, hidden=8, batch_size=12, seed=5, dropout=dropout, **flags)
    pairs = [RawPair(LABELS[l], a, b) for l, a, b in make_classification_pairs(12, seed=6)]
    model, vocab = _model(cfg, pairs)
    (batch,), _ = build_batches(pairs, vocab, cfg.task, cfg.batch_size)
    return model, batch


def _paper(dropout=0.0):
    """Paper-shaped SNLI: long premises, short hypotheses, contextual vectors."""
    cfg = TrainConfig(task="snli", static_dim=12, contextual_dim=8, hidden=10, batch_size=6, seed=7, dropout=dropout)
    rng = np.random.default_rng(8)
    words = [f"w{i}" for i in range(40)]

    def sentence(lo, hi):
        return " ".join(rng.choice(words, size=int(rng.integers(lo, hi))))

    pairs = [RawPair(i % 3, sentence(5, 40), sentence(3, 12)) for i in range(6)]
    model, vocab = _model(cfg, pairs)
    (batch,), _ = build_batches(pairs, vocab, cfg.task, cfg.batch_size)
    return model, batch


def _wikiqa(dropout=0.0):
    """The first ranking step of an epoch: positive and negative batches."""
    cfg = TrainConfig(task="wikiqa", static_dim=10, contextual_dim=6, hidden=8, batch_size=8, seed=9, dropout=dropout)
    pairs = [RawPair(int(l), a, b, g) for l, a, b, g in make_ranking_groups(8, seed=10)]
    model, vocab = _model(cfg, pairs)
    groups = group_by_question(tokenize_pairs(pairs, vocab, cfg.effective_max_len)[0])
    pos, neg = _ranking_steps(cfg, groups, epoch=0)[0]
    return model, pos, neg


def _batches(fixture, dropout=0.0):
    if fixture == "wikiqa":
        model, pos, neg = _wikiqa(dropout)
        return model, [pos, neg]
    model, batch = (_paper if fixture == "paper" else _desk)(dropout=dropout)
    return model, [batch]


def _assert_padded(batch):
    padded = [p for p in batch.pairs if p.mask_a.min() == 0.0 or p.mask_b.min() == 0.0]
    assert padded, "fixture must contain padded items"


@pytest.mark.parametrize("mode", ["eval", "train"])
@pytest.mark.parametrize("fixture", ["desk", "wikiqa", "paper"])
def test_batched_forward_is_each_pairs_forward_bitwise(fixture, mode):
    model, batches = _batches(fixture)
    train = mode == "train"  # with dropout 0: the training graph, no random draws
    for batch in batches:
        _assert_padded(batch)
        out = model.forward_pair(batch, train=train, rng=np.random.default_rng(0))
        assert out.shape == (len(batch), model.task.num_classes if model.task.kind == "classify" else 1)
        for i, pair in enumerate(batch.pairs):
            one = model.forward_pair(pair, train=train, rng=np.random.default_rng(0))
            assert one.data.tobytes() == out.data[i : i + 1].tobytes(), f"item {i}"


@pytest.mark.parametrize("variant", VARIANTS)
def test_every_variant_batched_is_each_pairs_forward_bitwise(variant):
    model, batch = _desk(variant)
    out = model.forward_pair(batch).data
    for i, pair in enumerate(batch.pairs):
        assert model.forward_pair(pair).data.tobytes() == out[i : i + 1].tobytes(), f"item {i}"


@pytest.mark.parametrize("fixture", ["desk", "wikiqa", "paper"])
def test_poisoned_pad_row_leaves_batched_outputs_bitwise_unchanged(fixture):
    model, batches = _batches(fixture, dropout=0.2)

    def outputs():
        return [
            (model.forward_pair(b).data.tobytes(), model.forward_pair(b, train=True, rng=np.random.default_rng(3)).data.tobytes())
            for b in batches
        ]

    before = outputs()
    model.params["embed.static"].data[PAD] = -3.5e8
    assert outputs() == before


def _grads(model, loss):
    for t in model.params.values():
        t.grad = None
    loss.backward()
    return {name: t.grad.copy() for name, t in model.params.items() if t.grad is not None}


def _per_pair_rows(model, batch):
    return T.concat([model.forward_pair(p) for p in batch.pairs], axis=0)


@pytest.mark.parametrize("fixture", ["desk", "wikiqa", "paper"])
def test_batched_loss_gradients_match_the_per_pair_loss(fixture):
    model, batches = _batches(fixture)
    if fixture == "wikiqa":
        pos, neg = batches
        batched = _ranking_loss(model, pos, neg, train=False, rng=None)
        joined = hinge_loss(_per_pair_rows(model, pos), _per_pair_rows(model, neg))
    else:
        (batch,) = batches
        batched = _classification_loss(model, batch, train=False, rng=None)
        joined = cross_entropy(_per_pair_rows(model, batch), batch.labels)
    assert batched.data.tobytes() == joined.data.tobytes()
    got, want = _grads(model, batched), _grads(model, joined)
    assert sorted(got) == sorted(want) == sorted(n for n, t in model.params.items() if t.requires_grad)
    for name in want:
        # summed over the batch in another order: equal up to rounding
        scale = float(np.max(np.abs(want[name])))
        assert float(np.max(np.abs(got[name] - want[name]))) <= 1e-10 * scale, name
