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


def param_shapes(cfg, vocab_size):
    """Name -> shape of every tensor the configuration calls for, in init order.

    Ablations that remove a block also remove its weights, so disabling
    a component always shrinks the parameter count (the only_* switches
    reroute data instead and keep the count).
    """
    d = cfg.hidden
    w = cfg.kernel
    shapes = {
        "embed.static": (vocab_size, cfg.static_dim),
        "enc.w_in": (cfg.static_dim + cfg.effective_contextual_dim, d),
        "enc.conv1": (w, d, d),
        "enc.conv2": (w, d, d),
    }
    if not cfg.no_self_attention:
        shapes["enc.w_att"] = (d, d)
    if not cfg.no_alignment:
        shapes["enc.w_c"] = (d, d)
        shapes["enc.w_q"] = (d, d)
    if cfg.no_fusion:
        shapes["enc.w_merge"] = (2 * d, d)
    else:
        shapes["enc.w1"] = (4 * d, d)
        shapes["enc.w2"] = (4 * d, d)
    shapes["inter.w_h"] = (d, d)
    shapes["inter.w_p"] = (d, d)
    spec = task_spec(cfg.task)
    out_dim = spec.num_classes if spec.kind == "classify" else 1
    shapes["head.w"] = (8 * d, out_dim)
    shapes["head.b"] = (1, out_dim)
    return shapes


def init_params(cfg, static_matrix, seed=None):
    """Build every trainable tensor of `param_shapes`, in its order.

    `static_matrix` seeds the word-vector table; it becomes a trainable
    tensor unless the config freezes it. The head bias starts at zero;
    every other weight is Glorot-uniform with fan_in the product of all
    axes but the last and fan_out the last axis.
    """
    rng = np.random.default_rng(cfg.seed if seed is None else seed)
    params = {}
    for name, shape in param_shapes(cfg, len(static_matrix)).items():
        if name == "embed.static":
            params[name] = T.Tensor(static_matrix.copy(), requires_grad=not cfg.freeze_static)
        elif name == "head.b":
            params[name] = T.parameter(np.zeros(shape))
        else:
            params[name] = T.parameter(_glorot(rng, math.prod(shape[:-1]), shape[-1], shape))
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

    def embed_sentence(self, ids, tokens, sids, mask, rate=0.0, rng=None):
        """Graph node for one side of a batch: its (batch, n, d) embeddings.

        `ids` and `mask` are the side's padded (batch, n) matrices, with
        one token list and one sentence id per row. Static rows come from
        the trainable table (so gradients reach it); contextual rows are
        constants, fetched once per distinct sentence in the batch.
        Padded rows are forced to zero and dropout at `rate` applies right
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
        return T.embed_rows(self.params["embed.static"], ids, mask, contexts, ctx_dim, rate, rng)

    def forward_pair(self, batch, train=False, rng=None):
        """Class probabilities (classification) or scores (ranking), (batch, K).

        One graph runs over the padded `Batch`; row i equals, bit for bit,
        the forward of `batch.pairs[i]`, its one-row slice, alone.
        """
        cfg = self.cfg
        items = batch.items
        rate = cfg.dropout if train else 0.0
        x = self.embed_sentence(batch.ids_a, [pair.tokens_a for pair in items], [pair.sid_a for pair in items], batch.mask_a, rate, rng)
        y = self.embed_sentence(batch.ids_b, [pair.tokens_b for pair in items], [pair.sid_b for pair in items], batch.mask_b, rate, rng)
        h, p = encode_pair(
            x,
            y,
            batch.mask_a,
            batch.mask_b,
            self.params,
            no_alignment=cfg.no_alignment,
            no_fusion=cfg.no_fusion,
            no_self_attention=cfg.no_self_attention,
            rate=rate,
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
