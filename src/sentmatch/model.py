"""Parameter construction and the forward pass over a padded batch.

Weights live in one flat name->Tensor dict so the optimizer and the
checkpoint format can treat them uniformly.
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .data import task_spec
from .encoder import encode_pair
from .errors import CacheMissError, DataError
from .heads import head_forward, pool_meanmax, pool_splice
from .interaction import interact


def _glorot(rng, fan_in, fan_out, shape):
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def init_params(cfg, static_matrix, seed=None):
    """Build every trainable tensor the configuration calls for.

    `static_matrix` seeds the word-vector table; it becomes a trainable
    tensor unless the config freezes it. Ablations that remove a block
    also remove its weights, so disabling a component always shrinks the
    parameter count (the only_* switches reroute data instead and keep
    the count).
    """
    rng = np.random.default_rng(cfg.seed if seed is None else seed)
    d = cfg.hidden
    d_emb = cfg.static_dim + cfg.effective_contextual_dim
    w = cfg.kernel
    params = {}
    params["embed.static"] = T.Tensor(static_matrix.copy(), requires_grad=not cfg.freeze_static)
    params["enc.w_in"] = T.parameter(_glorot(rng, d_emb, d, (d_emb, d)))
    params["enc.conv1"] = T.parameter(_glorot(rng, w * d, d, (w, d, d)))
    params["enc.conv2"] = T.parameter(_glorot(rng, w * d, d, (w, d, d)))
    if not cfg.no_self_attention:
        params["enc.w_att"] = T.parameter(_glorot(rng, d, d, (d, d)))
    if not cfg.no_alignment:
        params["enc.w_c"] = T.parameter(_glorot(rng, d, d, (d, d)))
        params["enc.w_q"] = T.parameter(_glorot(rng, d, d, (d, d)))
    if cfg.no_fusion:
        params["enc.w_merge"] = T.parameter(_glorot(rng, 2 * d, d, (2 * d, d)))
    else:
        params["enc.w1"] = T.parameter(_glorot(rng, 4 * d, d, (4 * d, d)))
        params["enc.w2"] = T.parameter(_glorot(rng, 4 * d, d, (4 * d, d)))
    params["inter.w_h"] = T.parameter(_glorot(rng, d, d, (d, d)))
    params["inter.w_p"] = T.parameter(_glorot(rng, d, d, (d, d)))
    spec = task_spec(cfg.task)
    out_dim = spec.num_classes if spec.kind == "classify" else 1
    params["head.w"] = T.parameter(_glorot(rng, 8 * d, out_dim, (8 * d, out_dim)))
    params["head.b"] = T.parameter(np.zeros((1, out_dim)))
    return params


def param_count(params):
    return sum(t.size for t in params.values())


class MatchModel:
    """The assembled network for one task.

    `provider` supplies per-sentence contextual vectors and is required
    whenever the effective contextual width is positive.
    """

    def __init__(self, cfg, params, provider=None):
        cfg.validate()
        self.cfg = cfg
        self.params = params
        self.provider = provider
        self.task = task_spec(cfg.task)
        width = cfg.effective_contextual_dim
        if width > 0 and provider is None:
            raise CacheMissError("config asks for contextual vectors but no provider was given")
        if width > 0 and provider.dim != width:
            source = getattr(provider, "path", None)
            where = f"contextual cache {source}" if source is not None else "contextual provider"
            raise DataError(f"{where} has {provider.dim}-d vectors, config asks for contextual_dim {width}")

    def embed_sentence(self, ids, tokens, sids, mask, train=False, rng=None):
        """Graph node for one side of a batch: its (batch, n, d) embeddings.

        `ids` and `mask` are the side's padded (batch, n) matrices, with
        one token list and one sentence id per row. Static rows come from
        the trainable table (so gradients reach it); contextual rows are
        constants, fetched once per distinct sentence in the batch.
        Padded rows are forced to zero and training applies dropout right
        after lookup (`tensor.embed_rows`).
        """
        ctx_dim = self.cfg.effective_contextual_dim
        contexts = None
        if ctx_dim > 0:
            fetched = {}
            for toks, sid in zip(tokens, sids):
                if sid not in fetched:
                    fetched[sid] = self.provider.vectors(sid, toks)
            contexts = [fetched[sid] for sid in sids]
        rate = self.cfg.dropout if train else 0.0
        return T.embed_rows(self.params["embed.static"], ids, mask, contexts, ctx_dim, rate, rng)

    def forward_pair(self, batch, train=False, rng=None):
        """Class probabilities (classification) or scores (ranking), (batch, K).

        One graph runs over the padded `Batch`; row i equals, bit for bit,
        the forward of `batch.pairs[i]`, its one-row slice, alone.
        """
        cfg = self.cfg
        items = batch.items
        x = self.embed_sentence(batch.ids_a, [pair.tokens_a for pair in items], [pair.sid_a for pair in items], batch.mask_a, train, rng)
        y = self.embed_sentence(batch.ids_b, [pair.tokens_b for pair in items], [pair.sid_b for pair in items], batch.mask_b, train, rng)
        h, p = encode_pair(
            x,
            y,
            batch.mask_a,
            batch.mask_b,
            self.params,
            no_alignment=cfg.no_alignment,
            no_fusion=cfg.no_fusion,
            use_self_attention=not cfg.no_self_attention,
            train=train,
            dropout_rate=cfg.dropout,
            rng=rng,
        )
        z = interact(
            h,
            p,
            batch.mask_a,
            batch.mask_b,
            self.params,
            only_h2p=cfg.only_h2p,
            only_p2h=cfg.only_p2h,
            no_self_attention=cfg.no_self_attention,
        )
        pool = pool_splice if cfg.pool == "splice" else pool_meanmax
        pooled = pool(z, batch.mask_a)
        return head_forward(pooled, self.params["head.w"], self.params["head.b"], self.task.kind)
