"""Adam training loop, evaluation, and ablation sweep.

The loop is deliberately plain: each step runs one forward graph over
the padded batch into one batch loss (mean by default), a single
backward fills the parameter gradients, the global norm is clipped, and
Adam applies the update.
Everything stochastic (shuffling, dropout, negative sampling, weight
init) is keyed off the config seed, so a (config, data) pair determines
the loss history and the resulting checkpoint bitwise.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .checkpoint import Checkpoint
from .config import TrainConfig
from .data import _make_batch, build_batches, build_vocab, group_by_question, make_ranking_triples, task_spec, tokenize_pairs
from .embedding import random_static_vectors
from .errors import DataError, NumericalError
from .heads import cross_entropy, hinge_loss
from .metrics import accuracy, map_mrr
from .model import MatchModel, init_params


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


def adam_step(params, state_m, state_v, t, cfg, live):
    """One bias-corrected Adam update over every trainable tensor.

    Tensors without a gradient this step keep their value; their moments
    still decay toward zero, matching the recurrences run with g = 0.

    The step consumes the gradients: each `p.grad` is None afterwards,
    released before the update allocates. `p.data` and the moment arrays
    in `state_m` / `state_v` are updated in place (a reference to an
    earlier `p.data` sees the update). The IEEE operations and their order
    are those of `m = beta1*m + (1-beta1)*g`, `v = beta2*v + ((1-beta2)*g)*g`
    and `p - (lr*(m/c1)) / (sqrt(v/c2) + eps)`, so results match that
    expression bit for bit.

    `live` is optimizer state like the moments: start it as an empty
    dict with moments of zero and pass the same dict at every step. It
    holds, by name, the live rows of each tensor with a row-sparse
    gradient (rows given a gradient at some step), and only those rows
    are updated; None marks a tensor updated whole from then on. The
    skip is exact: a row with zero moments and no gradient never moves.
    Raises NumericalError naming the first tensor whose updated values
    are not all finite.
    """
    c1 = 1.0 - cfg.beta1**t
    c2 = 1.0 - cfg.beta2**t
    for name in sorted(params):
        p = params[name]
        if not p.requires_grad:
            continue
        rows = _rows_to_update(p, name, live)
        if rows is None:
            x, m, v, g = p.data, state_m[name], state_v[name], p.grad
        elif rows.size == 0:
            continue
        else:
            x, m, v, g = p.data[rows], state_m[name][rows], state_v[name][rows], _grad_of_rows(p, rows)
        p.grad = None
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
            g = None
        denom = np.divide(v, c2, out=scratch)
        np.sqrt(denom, out=denom)
        denom += cfg.adam_eps
        step = np.divide(m, c1, out=np.empty_like(m))
        step *= cfg.lr
        step /= denom
        np.subtract(x, step, out=x)
        if rows is not None:
            p.data[rows], state_m[name][rows], state_v[name][rows] = x, m, v
        if not np.isfinite(x).all():
            raise NumericalError(f"parameter {name} is non-finite after Adam step {t}")


_NO_ROWS = np.empty(0, dtype=np.intp)


def _sparse_grad(p, name, live):
    """`p`'s coalesced (rows, values) gradient, or None when Adam updates `p` whole or it has none."""
    if name in live and live[name] is None:
        return None
    return T._grad_rows(p)


def _rows_to_update(p, name, live):
    """The rows of `p` this Adam step updates, also recorded in `live`; None for the whole tensor."""
    if name in live and live[name] is None:
        return None
    record = T._grad_rows(p)
    if record is None and p.grad is not None:
        live[name] = None  # a dense gradient may move every row from now on
        return None
    rows = live.get(name, _NO_ROWS)
    if record is not None:
        rows = np.union1d(rows, record[0])
    # from about half the table on, gathering and scattering the rows costs as much as a whole update
    live[name] = rows if 2 * rows.size <= p.shape[0] else None
    return live[name]


def _grad_of_rows(p, rows):
    """`p`'s gradient on `rows` (a superset of its touched rows), or None without one."""
    record = T._grad_rows(p)
    if record is None:
        return None
    g = np.zeros((rows.size,) + p.shape[1:])
    g[np.searchsorted(rows, record[0])] = record[1]
    return g


def clip_gradients(params, max_norm, live):
    """Scale all gradients so their joint norm is at most `max_norm`.

    The norm is the one the dense gradients give bit for bit. `live` is
    `adam_step`'s state: a row-sparse gradient of a tensor that Adam
    still updates by rows is squared and scaled on its touched rows
    only; every other gradient is taken dense.
    """
    total = 0.0
    for name in sorted(params):
        p = params[name]
        record = _sparse_grad(p, name, live)
        if record is not None:
            total += T.rows_sum_squares(p.shape, *record)
        elif p.grad is not None:
            total += float(np.sum(p.grad * p.grad))
    norm = float(np.sqrt(total))
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / norm
        for name in sorted(params):
            p = params[name]
            record = _sparse_grad(p, name, live)
            if record is not None:
                np.multiply(record[1], scale, out=record[1])
            elif p.grad is not None:
                p.grad = p.grad * scale
    return norm


def _max_abs_grad(params):
    worst = 0.0
    for p in params.values():
        if p.grad is not None:
            worst = max(worst, float(np.max(np.abs(p.grad))))
    return worst


def _classification_loss(model, batch, train, rng):
    probs = model.forward_pair(batch, train=train, rng=rng)
    return cross_entropy(probs, batch.labels, mean=not model.cfg.sum_loss)


def _ranking_loss(model, pos_batch, neg_batch, train, rng):
    pos = model.forward_pair(pos_batch, train=train, rng=rng)
    neg = model.forward_pair(neg_batch, train=train, rng=rng)
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
    m_state = {n: _untouched_zeros(t.shape) for n, t in params.items() if t.requires_grad}
    v_state = {n: _untouched_zeros(t.shape) for n, t in params.items() if t.requires_grad}
    live = {}
    adam_t = 0

    history = []
    best_metric, best_epoch, best_ck = -np.inf, -1, None
    since_best = 0
    if spec.kind == "rank":
        groups = group_by_question(tokenize_pairs(train_pairs, vocab, cfg.effective_max_len)[0])
    for epoch in range(cfg.epochs):
        drop_rng = _seed_rng(cfg.seed, 2, epoch)
        if spec.kind == "classify":
            batches, _ = build_batches(
                train_pairs, vocab, spec, cfg.batch_size, shuffle_seed=int(_seed_rng(cfg.seed, 3, epoch).integers(2**31)), max_len=cfg.effective_max_len
            )
            step_iter = [(b, None) for b in batches]
        else:
            step_iter = _ranking_steps(cfg, groups, epoch)
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
            clip_gradients(params, cfg.grad_clip, live)
            adam_t += 1
            try:
                adam_step(params, m_state, v_state, adam_t, cfg, live)
            except NumericalError as exc:
                raise NumericalError(f"epoch {epoch} batch {batch_idx}: {exc}") from None
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
            best_ck = _snapshot(model, epoch, vocab, history)
        else:
            since_best += 1
            if cfg.early_stop_patience > 0 and since_best >= cfg.early_stop_patience:
                break
    if best_ck is None:
        best_ck = _snapshot(model, cfg.epochs - 1, vocab, history)
    best_ck.history = history
    return TrainResult(history, best_epoch, best_metric, best_ck, model)


def _untouched_zeros(shape):
    """A float64 zero array whose memory is committed only where it is written.

    Adam writes the moments of live table rows only. numpy's own large
    arrays are advised onto 2 MB huge pages, so scattered row writes
    into `np.zeros` would fault in and clear nearly the whole array; an
    anonymous mapping faults in 4 KB pages as rows are written.
    """
    count = int(np.prod(shape))
    return np.frombuffer(mmap.mmap(-1, 8 * max(count, 1)), dtype=np.float64, count=count).reshape(shape)


def _ranking_steps(cfg, groups, epoch):
    """(positive batch, negative batch) steps for one ranking epoch.

    `groups` are the training split's tokenized candidates by question,
    built once per run.
    """
    triples = make_ranking_triples(groups, seed=int(_seed_rng(cfg.seed, 4, epoch).integers(2**31)))
    order = _seed_rng(cfg.seed, 5, epoch).permutation(len(triples))
    triples = [triples[i] for i in order]
    steps = []
    for i in range(0, len(triples), cfg.batch_size):
        chunk = triples[i : i + cfg.batch_size]
        steps.append((_make_batch([pos for pos, _ in chunk]), _make_batch([neg for _, neg in chunk])))
    return steps


def evaluate(model, pairs, vocab):
    """Deterministic metric report for a raw-record split."""
    cfg = model.cfg
    spec = task_spec(cfg.task)
    batches, _ = build_batches(pairs, vocab, spec, cfg.batch_size, shuffle_seed=None, max_len=cfg.effective_max_len)
    if spec.kind == "classify":
        preds, labels = [], []
        for batch in batches:
            preds.extend(np.argmax(model.forward_pair(batch).data, axis=1).tolist())
            labels.extend(batch.labels.tolist())
        return EvalReport(cfg.task, {"acc": accuracy(preds, labels)}, cfg.fingerprint())
    scored = {}
    for batch in batches:
        scores = model.forward_pair(batch).data[:, 0]
        for pair, score in zip(batch.pairs, scores.tolist()):
            scored.setdefault(pair.group_id, []).append((score, pair.label == 1))
    groups = list(scored.values())
    m, r = map_mrr(groups, include_no_positive=cfg.include_unanswerable)
    fingerprint = cfg.fingerprint()
    if cfg.include_unanswerable:
        fingerprint += "+include_unanswerable"
    return EvalReport(cfg.task, {"map": m, "mrr": r}, fingerprint, cfg.include_unanswerable)


def evaluate_checkpoint(ck, pairs, provider=None):
    model = MatchModel(ck.config, ck.params, provider=provider)
    return evaluate(model, pairs, ck.vocab)


def _snapshot(model, epoch, vocab, history):
    # adam_step writes through the model's parameter arrays, so the snapshot copies them
    params = {name: T.Tensor(t.data.copy(), requires_grad=t.requires_grad) for name, t in model.params.items()}
    return Checkpoint(params=params, epoch=epoch, config=model.cfg, vocab=vocab, history=list(history))


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
