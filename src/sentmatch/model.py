"""Parameter construction and the forward pass over one pair or a padded batch.

Weights live in one flat name->Tensor dict so the optimizer and the
checkpoint format can treat them uniformly.
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .data import Batch, task_spec
from .encoder import encode_pair, row_mask
from .errors import CacheMissError
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


def _sentences(item):
    """(ids, tokens, sid, mask) of both sides of a pair, or of a batch's rows."""
    if isinstance(item, Batch):
        pairs = item.pairs
        return (
            (item.ids_a, [p.tokens_a for p in pairs], [p.sid_a for p in pairs], item.mask_a),
            (item.ids_b, [p.tokens_b for p in pairs], [p.sid_b for p in pairs], item.mask_b),
        )
    return (item.ids_a, item.tokens_a, item.sid_a, item.mask_a), (item.ids_b, item.tokens_b, item.sid_b, item.mask_b)


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
        if cfg.effective_contextual_dim > 0 and provider is None:
            raise CacheMissError("config asks for contextual vectors but no provider was given")

    def embed_sentence(self, ids, tokens, sid, mask, train=False, rng=None):
        """Graph node for one sentence's embedding matrix, or a batch's.

        `ids` and `mask` are one sentence's (n,) arrays with its token
        list and sentence id, or a batch's (batch, n) matrices with one
        token list and one sentence id per row. Static rows come from the
        trainable table (so gradients reach it); contextual rows are
        constants, fetched per sentence. Padded rows are forced to zero
        and training applies dropout right after lookup.
        """
        ids = np.asarray(ids, dtype=np.intp)
        x = T.take_rows(self.params["embed.static"], ids)
        ctx_dim = self.cfg.effective_contextual_dim
        if ctx_dim > 0:
            if ids.ndim == 1:
                tokens, sid = [tokens], [sid]
            ctx = np.zeros((len(sid), ids.shape[-1], ctx_dim))
            for row, toks, s in zip(ctx, tokens, sid):
                row[: len(toks)] = np.asarray(self.provider.vectors(s, toks), dtype=np.float64)
            x = T.concat([x, T.constant(ctx.reshape(ids.shape + (ctx_dim,)))], axis=-1)
        x = T.mul(x, row_mask(mask, x.shape[-1]))
        if train and self.cfg.dropout > 0.0:
            x = T.dropout(x, self.cfg.dropout, rng)
        return x

    def forward_pair(self, item, train=False, rng=None):
        """Class probabilities (classification) or scores (ranking).

        `item` is one `TokenizedPair`, giving a (1, K) result, or a padded
        `Batch`, giving (batch, K) in one graph: row i equals, bit for
        bit, the forward of `item.pairs[i]` alone.
        """
        cfg = self.cfg
        x, y = (self.embed_sentence(*sentence, train, rng) for sentence in _sentences(item))
        h, p = encode_pair(
            x,
            y,
            item.mask_a,
            item.mask_b,
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
            item.mask_a,
            item.mask_b,
            self.params,
            only_h2p=cfg.only_h2p,
            only_p2h=cfg.only_p2h,
            no_self_attention=cfg.no_self_attention,
        )
        pool = pool_splice if cfg.pool == "splice" else pool_meanmax
        pooled = pool(z, item.mask_a)
        return head_forward(pooled, self.params["head.w"], self.params["head.b"], self.task.kind)
