"""Adam training loop, evaluation, and ablation sweep.

The loop is deliberately plain: per-pair forward graphs are joined into
one batch loss (mean by default), a single backward fills the parameter
gradients, the global norm is clipped, and Adam applies the update.
Everything stochastic (shuffling, dropout, negative sampling, weight
init) is keyed off the config seed, so a (config, data) pair determines
the loss history and the resulting checkpoint bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .checkpoint import Checkpoint
from .config import TrainConfig
from .data import build_batches, build_vocab, group_by_question, make_ranking_triples, task_spec, tokenize_pairs
from .embedding import random_static_vectors
from .errors import DataError, NumericalError
from .heads import cross_entropy, hinge_loss
from .metrics import accuracy, map_mrr
from .model import MatchModel, init_params, trainable


@dataclass
class EvalReport:
    task: str
    metrics: dict
    fingerprint: str
    include_unanswerable: bool = False

    def primary(self):
        return self.metrics["acc"] if "acc" in self.metrics else self.metrics["map"]

    def format_line(self):
        parts = [f"{k}={v:.4f}" for k, v in self.metrics.items()]
        return " ".join(parts)


@dataclass
class TrainResult:
    history: list
    best_epoch: int
    best_metric: float
    checkpoint: Checkpoint
    model: MatchModel = field(repr=False, default=None)


def _seed_rng(*entropy):
    return np.random.default_rng(np.random.SeedSequence(list(entropy)))


def adam_step(params, state_m, state_v, t, cfg):
    """One bias-corrected Adam update over every trainable tensor.

    Tensors without a gradient this step keep their value; their moments
    still decay toward zero, matching the recurrences run with g = 0.

    The step consumes the gradients: each `p.grad` is None afterwards,
    released before the update allocates. The moment arrays in
    `state_m` / `state_v` are updated in place, and `p.data` is replaced
    by a fresh array (never written through), so copies of the moments
    and references to earlier `p.data` arrays stay valid. Each tensor
    costs two scratch arrays; the IEEE operations and their order are
    those of `m = beta1*m + (1-beta1)*g`, `v = beta2*v + ((1-beta2)*g)*g`
    and `p - (lr*(m/c1)) / (sqrt(v/c2) + eps)`, so results match that
    expression bit for bit.
    """
    c1 = 1.0 - cfg.beta1**t
    c2 = 1.0 - cfg.beta2**t
    for name in sorted(params):
        p = params[name]
        if not p.requires_grad:
            continue
        g, m, v = p.grad, state_m[name], state_v[name]
        scratch = np.empty_like(m)
        m *= cfg.beta1
        v *= cfg.beta2
        if g is None:
            # (1-beta)*0 is +0.0; adding it still maps -0.0 to +0.0
            m += 0.0
            v += 0.0
        else:
            np.multiply(g, 1.0 - cfg.beta1, out=scratch)
            m += scratch
            np.multiply(g, 1.0 - cfg.beta2, out=scratch)
            scratch *= g
            v += scratch
            g = p.grad = None
        denom = np.divide(v, c2, out=scratch)
        np.sqrt(denom, out=denom)
        denom += cfg.adam_eps
        step = np.divide(m, c1, out=np.empty_like(m))
        step *= cfg.lr
        step /= denom
        p.data = np.subtract(p.data, step, out=step)


def clip_gradients(params, max_norm):
    """Scale all gradients so their joint norm is at most `max_norm`."""
    total = 0.0
    for name in sorted(params):
        g = params[name].grad
        if g is not None:
            total += float(np.sum(g * g))
    norm = float(np.sqrt(total))
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / norm
        for name in sorted(params):
            if params[name].grad is not None:
                params[name].grad = params[name].grad * scale
    return norm


def _max_abs_grad(params):
    worst = 0.0
    for p in params.values():
        if p.grad is not None:
            worst = max(worst, float(np.max(np.abs(p.grad))))
    return worst


def _classification_loss(model, batch, train, rng):
    rows = [model.forward_pair(pair, train=train, rng=rng) for pair in batch.pairs]
    probs = T.concat(rows, axis=0)
    return cross_entropy(probs, batch.labels, mean=not model.cfg.sum_loss)


def _ranking_loss(model, pos_pairs, neg_pairs, train, rng):
    pos = T.concat([model.forward_pair(p, train=train, rng=rng) for p in pos_pairs], axis=0)
    neg = T.concat([model.forward_pair(p, train=train, rng=rng) for p in neg_pairs], axis=0)
    return hinge_loss(pos, neg)


def train(cfg, train_pairs, dev_pairs=None, static_matrix=None, provider=None, vocab=None, log=None):
    """Run the optimization loop; returns history plus the best checkpoint.

    `train_pairs` / `dev_pairs` are raw records from read_dataset.
    `static_matrix` defaults to a small seeded uniform init over the
    vocabulary built from the training split.
    """
    cfg.validate()
    spec = task_spec(cfg.task)
    if vocab is None:
        vocab = build_vocab(train_pairs)
    if static_matrix is None:
        static_matrix = random_static_vectors(vocab, cfg.static_dim, seed=cfg.seed)
    params = init_params(cfg, static_matrix, seed=int(_seed_rng(cfg.seed, 0).integers(2**31)))
    model = MatchModel(cfg, params, provider=provider)
    m_state = {n: np.zeros_like(t.data) for n, t in params.items() if t.requires_grad}
    v_state = {n: np.zeros_like(t.data) for n, t in params.items() if t.requires_grad}
    adam_t = 0

    history = []
    best_metric, best_epoch, best_ck = -np.inf, -1, None
    since_best = 0
    for epoch in range(cfg.epochs):
        drop_rng = _seed_rng(cfg.seed, 2, epoch)
        if spec.kind == "classify":
            batches, _ = build_batches(
                train_pairs, vocab, spec, cfg.batch_size, shuffle_seed=int(_seed_rng(cfg.seed, 3, epoch).integers(2**31)), max_len=cfg.effective_max_len
            )
            step_iter = [(b, None) for b in batches]
        else:
            step_iter = _ranking_steps(cfg, train_pairs, vocab, spec, epoch)
        if not step_iter:
            unit = "pair with two non-empty sentences" if spec.kind == "classify" else "question with a positive and a negative"
            raise DataError(f"no training step: the {len(train_pairs)} training records hold no {unit}")
        losses = []
        for batch_idx, (batch, neg) in enumerate(step_iter):
            if spec.kind == "classify":
                loss = _classification_loss(model, batch, train=True, rng=drop_rng)
            else:
                loss = _ranking_loss(model, batch, neg, train=True, rng=drop_rng)
            loss.backward()
            if not np.isfinite(loss.data):
                raise NumericalError(
                    f"non-finite loss at epoch {epoch} batch {batch_idx}: "
                    f"loss={float(loss.data)!r}, max|grad|={_max_abs_grad(params)!r}"
                )
            clip_gradients(params, cfg.grad_clip)
            adam_t += 1
            adam_step(params, m_state, v_state, adam_t, cfg)
            losses.append(float(loss.data))
        # wall time stays out of the record: history must be reproducible bitwise
        record = {
            "epoch": epoch,
            "train_loss": float(np.mean(losses)),
        }
        if dev_pairs is not None:
            report = evaluate(model, dev_pairs, vocab)
            record.update(report.metrics)
            metric = report.primary()
        else:
            metric = -record["train_loss"]
        history.append(record)
        if log is not None:
            log("epoch {epoch}: loss={train_loss:.4f}".format(**record) + (f" dev={metric:.4f}" if dev_pairs is not None else ""))
        if metric > best_metric:
            best_metric, best_epoch, since_best = metric, epoch, 0
            best_ck = _snapshot(model, m_state, v_state, adam_t, epoch, vocab, history)
        else:
            since_best += 1
            if cfg.early_stop_patience > 0 and since_best >= cfg.early_stop_patience:
                break
    if best_ck is None:
        best_ck = _snapshot(model, m_state, v_state, adam_t, cfg.epochs - 1, vocab, history)
    best_ck.history = history
    return TrainResult(history, best_epoch, best_metric, best_ck, model)


def _ranking_steps(cfg, train_pairs, vocab, spec, epoch):
    """Batched (positive, negative) pair lists for one ranking epoch."""
    groups = group_by_question(_tokenized(train_pairs, vocab, spec, cfg))
    triples = make_ranking_triples(groups, seed=int(_seed_rng(cfg.seed, 4, epoch).integers(2**31)))
    order = _seed_rng(cfg.seed, 5, epoch).permutation(len(triples))
    triples = [triples[i] for i in order]
    steps = []
    for i in range(0, len(triples), cfg.batch_size):
        chunk = triples[i : i + cfg.batch_size]
        steps.append(([pos for pos, _ in chunk], [neg for _, neg in chunk]))
    return steps


def _tokenized(pairs, vocab, spec, cfg):
    tokenized, _ = tokenize_pairs(pairs, vocab, cfg.effective_max_len)
    return tokenized


def evaluate(model, pairs, vocab):
    """Deterministic metric report for a raw-record split."""
    cfg = model.cfg
    spec = task_spec(cfg.task)
    batches, _ = build_batches(pairs, vocab, spec, cfg.batch_size, shuffle_seed=None, max_len=cfg.effective_max_len)
    if spec.kind == "classify":
        preds, labels = [], []
        for batch in batches:
            for pair in batch.pairs:
                pred, _ = model.predict_class(pair)
                preds.append(pred)
                labels.append(pair.label)
        return EvalReport(cfg.task, {"acc": accuracy(preds, labels)}, cfg.fingerprint())
    scored = {}
    for batch in batches:
        for pair in batch.pairs:
            scored.setdefault(pair.group_id, []).append((model.score(pair), pair.label == 1))
    groups = list(scored.values())
    m, r = map_mrr(groups, include_no_positive=cfg.include_unanswerable)
    fingerprint = cfg.fingerprint()
    if cfg.include_unanswerable:
        fingerprint += "+include_unanswerable"
    return EvalReport(cfg.task, {"map": m, "mrr": r}, fingerprint, cfg.include_unanswerable)


def evaluate_checkpoint(ck, pairs, provider=None):
    model = MatchModel(ck.config, ck.params, provider=provider)
    return evaluate(model, pairs, ck.vocab)


def _snapshot(model, m_state, v_state, adam_t, epoch, vocab, history):
    # adam_step replaces parameter arrays instead of writing through them, so
    # the snapshot can share them; the moments change in place and are copied
    params = {name: T.Tensor(t.data, requires_grad=t.requires_grad) for name, t in model.params.items()}
    return Checkpoint(
        params=params,
        adam_m={n: a.copy() for n, a in m_state.items()},
        adam_v={n: a.copy() for n, a in v_state.items()},
        adam_t=adam_t,
        epoch=epoch,
        config=model.cfg,
        vocab=vocab,
        history=list(history),
    )


ABLATION_ORDER = (
    "full",
    "no_elmo",
    "no_alignment",
    "no_fusion",
    "no_self_attention",
    "only_h2p",
    "only_p2h",
)


def run_ablations(base_cfg, train_pairs, dev_pairs, static_matrix=None, provider=None, log=None):
    """Train and evaluate the seven standard variants.

    Returns rows of (variant, fingerprint, report, delta-vs-full) in the
    fixed order, full model first.
    """
    rows = []
    full_metric = None
    for variant in ABLATION_ORDER:
        cfg = TrainConfig.from_dict(base_cfg.to_dict())
        if variant != "full":
            for flag in TrainConfig.ABLATION_FLAGS:
                setattr(cfg, flag, flag == variant)
        else:
            for flag in TrainConfig.ABLATION_FLAGS:
                setattr(cfg, flag, False)
        result = train(cfg, train_pairs, dev_pairs, static_matrix=static_matrix, provider=provider)
        metric = result.best_metric
        if variant == "full":
            full_metric = metric
        rows.append((variant, cfg.fingerprint(), metric, metric - full_metric))
        if log is not None:
            log(f"{variant}: metric={metric:.4f} delta={metric - full_metric:+.4f}")
    return rows
