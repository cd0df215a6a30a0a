import numpy as np
import pytest

from sentmatch import encoder, interaction
from sentmatch import model as model_mod
from sentmatch.config import TrainConfig
from sentmatch.data import RawPair, build_batches, build_vocab
from sentmatch.embedding import CacheContextualProvider, StubContextualProvider, random_static_vectors, write_contextual_cache
from sentmatch.errors import DataError
from sentmatch.model import MatchModel, init_params, param_count, param_shapes

# block name -> the bindings the forward pass calls it through
BLOCK_BINDINGS = {
    "embed": [(MatchModel, "embed_sentence")],
    "encode_context": [(encoder, "encode_context")],
    "align": [(encoder, "align")],
    "fuse": [(encoder, "fuse")],
    "similarity": [(interaction, "similarity")],
    "h2p_attention": [(interaction, "h2p_attention")],
    "p2h_attention": [(interaction, "p2h_attention")],
    "merge": [(interaction, "merge")],
    "self_attend": [(interaction, "self_attend")],
    "pool": [(model_mod, "pool_splice"), (model_mod, "pool_meanmax")],
    "head": [(model_mod, "head_forward")],
}
FULL_BLOCKS = list(BLOCK_BINDINGS)


def _watch_blocks(spy):
    for block, bindings in BLOCK_BINDINGS.items():
        for owner, attr in bindings:
            spy(owner, attr, block)
    return spy.calls


def _cfg(**kw):
    base = dict(task="snli", static_dim=8, contextual_dim=4, hidden=6, epochs=1, batch_size=4, seed=3, dropout=0.2)
    base.update(kw)
    return TrainConfig(**base)


def _fixture_pairs(n=6):
    rows = [
        ("entailment", "a man eats food", "a person eats"),
        ("contradiction", "a man eats food", "a man never eats"),
        ("neutral", "a man eats food", "a man sings loudly"),
    ]
    labels = {"entailment": 0, "contradiction": 1, "neutral": 2}
    return [RawPair(labels[l], a, b) for l, a, b in (rows * ((n + 2) // 3))[:n]]


def _build(cfg, pairs):
    vocab = build_vocab(pairs)
    static = random_static_vectors(vocab, cfg.static_dim, seed=cfg.seed)
    params = init_params(cfg, static, seed=7)
    provider = StubContextualProvider(cfg.contextual_dim, seed=1) if cfg.effective_contextual_dim else None
    model = MatchModel(cfg, params, provider=provider)
    batches, _ = build_batches(pairs, vocab, cfg.effective_max_len, batch_size=len(pairs))
    return model, batches[0]


class TestStructure:
    def test_full_model_trace_contains_every_block(self, spy):
        model, batch = _build(_cfg(), _fixture_pairs())
        trace = _watch_blocks(spy)
        out = model.forward_pair(batch.pairs[0])
        assert out.shape == (1, 3)
        for block in FULL_BLOCKS:
            assert block in trace, f"missing {block}"

    @pytest.mark.parametrize(
        "flag,gone",
        [
            ("no_alignment", "align"),
            ("no_fusion", "fuse"),
            ("no_self_attention", "self_attend"),
            ("only_h2p", "p2h_attention"),
            ("only_p2h", "h2p_attention"),
        ],
    )
    def test_ablation_removes_its_block(self, flag, gone, spy):
        model, batch = _build(_cfg(**{flag: True}), _fixture_pairs())
        trace = _watch_blocks(spy)
        model.forward_pair(batch.pairs[0])
        assert gone not in trace
        assert set(trace) == set(FULL_BLOCKS) - {gone}

    @pytest.mark.parametrize("flag", ["no_elmo", "no_alignment", "no_fusion", "no_self_attention"])
    def test_component_ablations_shrink_parameter_count(self, flag):
        pairs = _fixture_pairs()
        vocab = build_vocab(pairs)
        full_cfg = _cfg()
        abl_cfg = _cfg(**{flag: True})
        static = random_static_vectors(vocab, full_cfg.static_dim, seed=0)
        full = param_count(init_params(full_cfg, static, seed=0))
        ablated = param_count(init_params(abl_cfg, static, seed=0))
        assert ablated < full

    @pytest.mark.parametrize("flag", ["only_h2p", "only_p2h"])
    def test_routing_ablations_keep_parameter_count(self, flag):
        pairs = _fixture_pairs()
        vocab = build_vocab(pairs)
        static = random_static_vectors(vocab, 8, seed=0)
        full = param_count(init_params(_cfg(), static, seed=0))
        routed = param_count(init_params(_cfg(**{flag: True}), static, seed=0))
        assert routed == full

    @pytest.mark.parametrize("flag", [None, *TrainConfig.ABLATION_FLAGS])
    @pytest.mark.parametrize("task", ["snli", "wikiqa"])
    def test_init_builds_exactly_the_param_shapes_in_order(self, flag, task):
        cfg = _cfg(task=task, kernel=5, **({flag: True} if flag else {}))
        params = init_params(cfg, np.zeros((9, cfg.static_dim)), seed=0)
        assert [(name, t.shape) for name, t in params.items()] == list(param_shapes(cfg, 9).items())

    def test_ranking_head_is_scalar(self):
        cfg = _cfg(task="wikiqa", contextual_dim=0)
        pairs = [RawPair(1, "where does a man eat", "a man eats at home", "q0")]
        model, batch = _build(cfg, pairs)
        out = model.forward_pair(batch.pairs[0])
        assert out.shape == (1, 1)

    def test_contextual_rows_are_fetched_once_per_distinct_sentence(self):
        model, batch = _build(_cfg(), _fixture_pairs())  # every row shares its premise
        calls, fetch = [], model.provider.vectors
        model.provider.vectors = lambda sid, tokens: calls.append(sid) or fetch(sid, tokens)
        model.forward_pair(batch)
        sides = [[p.sid_a for p in batch.items], [p.sid_b for p in batch.items]]
        assert calls == [sid for side in sides for sid in dict.fromkeys(side)]
        assert len(calls) == 4 < 2 * len(batch)

    def test_provider_of_another_width_is_a_data_error(self, tmp_path):
        cfg = _cfg(contextual_dim=4)
        params = init_params(cfg, np.zeros((5, cfg.static_dim)))
        with pytest.raises(DataError, match="contextual provider has 3-d vectors, config asks for contextual_dim 4"):
            MatchModel(cfg, params, provider=StubContextualProvider(3))
        path = tmp_path / "ctx5.bin"
        write_contextual_cache(path, 5, [])
        with pytest.raises(DataError, match=f"contextual cache {path} has 5-d vectors"):
            MatchModel(cfg, params, provider=CacheContextualProvider(path))
        no_elmo = _cfg(contextual_dim=4, no_elmo=True)  # no contextual input: the provider is not read
        MatchModel(no_elmo, init_params(no_elmo, np.zeros((5, cfg.static_dim))), provider=StubContextualProvider(3))


class TestMaskingSoundness:
    def test_pad_perturbation_leaves_outputs_bitwise_unchanged(self):
        cfg = _cfg(contextual_dim=0)
        pairs = _fixture_pairs()
        vocab = build_vocab(pairs)
        static = random_static_vectors(vocab, cfg.static_dim, seed=cfg.seed)
        params = init_params(cfg, static, seed=7)
        model = MatchModel(cfg, params)
        batches, _ = build_batches(pairs, vocab, cfg.effective_max_len, batch_size=len(pairs))
        padded = [p for p in batches[0].pairs if p.mask_a.min() == 0.0 or p.mask_b.min() == 0.0]
        assert padded, "fixture must contain padded rows"
        before = [model.forward_pair(p).data.tobytes() for p in padded]
        # poison the pad embedding row; masking must keep every output identical
        params["embed.static"].data[0] = 1e6
        after = [model.forward_pair(p).data.tobytes() for p in padded]
        assert before == after

    def test_forward_is_deterministic_in_eval_mode(self):
        model, batch = _build(_cfg(), _fixture_pairs())
        a = model.forward_pair(batch.pairs[0]).data.tobytes()
        b = model.forward_pair(batch.pairs[0]).data.tobytes()
        assert a == b

    def test_train_mode_dropout_uses_the_supplied_stream(self):
        model, batch = _build(_cfg(), _fixture_pairs())
        r1 = model.forward_pair(batch.pairs[0], train=True, rng=np.random.default_rng(5)).data
        r2 = model.forward_pair(batch.pairs[0], train=True, rng=np.random.default_rng(5)).data
        r3 = model.forward_pair(batch.pairs[0], train=True, rng=np.random.default_rng(6)).data
        np.testing.assert_array_equal(r1, r2)
        assert not np.array_equal(r1, r3)

    def test_concurrent_inference_matches_serial(self):
        # separate graphs share read-only params; no global tape to collide on
        from concurrent.futures import ThreadPoolExecutor

        model, batch = _build(_cfg(), _fixture_pairs())
        serial = [model.forward_pair(p).data for p in batch.pairs]
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(lambda p: model.forward_pair(p).data, batch.pairs))
        for a, b in zip(serial, threaded):
            np.testing.assert_array_equal(a, b)
