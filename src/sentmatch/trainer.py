"""Adam training loop, evaluation, and ablation sweep.

The loop is deliberately plain and the same for every task: each step
runs one forward graph per padded batch of the step (one for
classification, a positive and a negative for ranking) into one
batch-mean loss, a single backward fills the parameter gradients, the
global norm is clipped, and Adam applies the update.
Everything stochastic (shuffling, dropout, negative sampling, weight
init) is keyed off the config seed, so a (config, data) pair determines
the loss history and the resulting checkpoint bitwise.
"""

from __future__ import annotations

import contextvars
import dataclasses
import math
import mmap
import os
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .checkpoint import Checkpoint
from .config import TrainConfig
from .data import batch_pairs, build_batches, build_vocab, group_by_question, make_ranking_triples, task_spec, tokenize_pairs
from .embedding import random_static_vectors
from .errors import DataError, NumericalError
from .heads import cross_entropy, hinge_loss
from .metrics import accuracy, map_mrr
from .model import MatchModel, init_params


@dataclass
class EvalReport:
    metrics: dict
    fingerprint: str

    def primary(self):
        return self.metrics["acc"] if "acc" in self.metrics else self.metrics["map"]

    def format_line(self):
        parts = [f"{k}={v:.4f}" for k, v in self.metrics.items()]
        return " ".join(parts)


@dataclass
class TrainResult:
    """What `train` returns: the history, the best epoch and its checkpoint, and the model.

    When the best epoch is the last one trained, `checkpoint.params` wrap the model's own parameter arrays rather than
    copies: a later in-place update of `model` shows in the checkpoint.
    Otherwise the checkpoint holds a copy taken before the next Adam step.
    """

    history: list
    best_epoch: int
    best_metric: float
    checkpoint: Checkpoint
    model: MatchModel = field(repr=False, default=None)


def _seed_rng(*entropy):
    return np.random.default_rng(np.random.SeedSequence(list(entropy)))


def adam_step(params, state_m, state_v, t, cfg, live):
    """One bias-corrected Adam update over every trainable tensor.

    A tensor without a gradient this step runs the recurrences with
    g = 0, bit for bit as an explicit zero gradient would: its moments
    decay, and while they are non-zero its value still moves.

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


def _stored_grad(p):
    """`p`'s gradient as it is held: a pending row pair's values, the dense gradient, or None."""
    record = T._grad_rows(p)
    return record[1] if record is not None else p.grad


def clip_gradients(params, max_norm):
    """Scale all gradients so their joint norm is at most `max_norm`; returns the norm before clipping.

    The squared norm is the exactly rounded sum (`math.fsum`) of every
    gradient row's sum of squares, `np.square(g).sum(axis=-1)`. A zero
    row adds exactly nothing to it, so a pending row-sparse gradient
    (`T._grad_rows`), read on its touched rows only, gives the bits of
    its dense flush. The pair is scaled in place, so it stays a row pair
    whichever way Adam then updates the tensor. Finite row sums whose
    total passes the largest float give a norm of inf, which scales
    every gradient to zero.
    """
    row_sums = []
    for name in sorted(params):
        g = _stored_grad(params[name])
        if g is not None:
            row_sums.extend(np.square(g).sum(axis=-1).ravel().tolist())
    try:
        norm = math.sqrt(math.fsum(row_sums))
    except OverflowError:  # fsum raises where a float sum would reach inf
        norm = math.inf
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / norm
        for name in sorted(params):
            p = params[name]
            record = T._grad_rows(p)
            if record is not None:
                np.multiply(record[1], scale, out=record[1])
            elif p.grad is not None:
                p.grad = p.grad * scale
    return norm


def _max_abs_grad(params):
    """The largest |gradient| entry, nan if any is; a pending row pair is read as it is, not flushed."""
    peaks = [np.max(np.abs(g), initial=0.0) for g in map(_stored_grad, params.values()) if g is not None]
    return float(np.max(peaks, initial=0.0))  # np.max, unlike max(), lets a nan win


def _epoch_steps(cfg, tokenized, groups, epoch):
    """One epoch's steps: `(batch,)` over `tokenized` in a seeded order, or for ranking `(positives, negatives)`.

    Row i of a ranking step's two batches is one triple sampled from
    `groups`, the training split's candidates by question.
    """
    if task_spec(cfg.task).kind == "classify":
        return [(b,) for b in batch_pairs(tokenized, cfg.batch_size, shuffle_seed=int(_seed_rng(cfg.seed, 3, epoch).integers(2**31)))]
    triples = make_ranking_triples(groups, seed=int(_seed_rng(cfg.seed, 4, epoch).integers(2**31)))
    order = _seed_rng(cfg.seed, 5, epoch).permutation(len(triples))
    triples = [triples[i] for i in order]
    positives = batch_pairs([pos for pos, _ in triples], cfg.batch_size)
    negatives = batch_pairs([neg for _, neg in triples], cfg.batch_size)
    return list(zip(positives, negatives))


def _step_loss(model, step, train, rng):
    """One step's loss: cross-entropy of a `(batch,)` step, the pairwise hinge of a `(positives, negatives)` step.

    Each batch runs one forward, in order, drawing dropout from `rng`.
    """
    outs = [model.forward_pair(batch, train=train, rng=rng) for batch in step]
    return cross_entropy(outs[0], step[0].labels) if len(step) == 1 else hinge_loss(*outs)


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
    elif static_matrix.shape != (len(vocab), cfg.static_dim):
        # the checkpoint would hold a table its own vocabulary and config do not call for
        raise DataError(f"static vectors have shape {list(static_matrix.shape)}; the vocabulary and config call for {[len(vocab), cfg.static_dim]}")
    params = init_params(cfg, static_matrix, seed=int(_seed_rng(cfg.seed, 0).integers(2**31)))
    model = MatchModel(cfg, params, provider=provider)
    m_state = {n: _untouched_zeros(t.shape) for n, t in params.items() if t.requires_grad}
    v_state = {n: _untouched_zeros(t.shape) for n, t in params.items() if t.requires_grad}
    live = {}
    adam_t = 0

    history = []
    # once an epoch is best, best_ck is None while the live weights are still that epoch's;
    # they are copied only before an Adam step overwrites them
    best_metric, best_epoch, best_ck = -np.inf, -1, None
    # each split is tokenized once; epochs only reorder the training pairs
    tokenized = tokenize_pairs(train_pairs, vocab, cfg.effective_max_len)[0]
    groups = group_by_question(tokenized) if spec.kind == "rank" else None
    if dev_pairs is not None:
        dev_batches = build_batches(dev_pairs, vocab, cfg.effective_max_len, cfg.batch_size)[0]
        # refused before the first step, not after an epoch: accuracy needs a pair, MAP a positive
        if not any(spec.kind == "classify" or (b.labels == 1).any() for b in dev_batches):
            unit = "pair" if spec.kind == "classify" else "positive pair"
            raise DataError(f"no dev score: the {len(dev_pairs)} dev records hold no {unit} with two non-empty sentences")
    for epoch in range(cfg.epochs):
        drop_rng = _seed_rng(cfg.seed, 2, epoch)
        steps = _epoch_steps(cfg, tokenized, groups, epoch)
        if not steps:
            unit = "pair with two non-empty sentences" if spec.kind == "classify" else "question with a positive and a negative"
            raise DataError(f"no training step: the {len(train_pairs)} training records hold no {unit}")
        losses = []
        for batch_idx, step in enumerate(steps):
            loss = _step_loss(model, step, train=True, rng=drop_rng)
            loss.backward()
            # the graph goes now, not when the next step's forward is built
            value, loss = float(loss.data), None
            if not np.isfinite(value):
                raise NumericalError(
                    f"non-finite loss at epoch {epoch} batch {batch_idx}: "
                    f"loss={value!r}, max|grad|={_max_abs_grad(params)!r}"
                )
            clip_gradients(params, cfg.grad_clip)
            if best_ck is None and best_epoch >= 0:
                best_ck = _snapshot(model, best_epoch, vocab)
            adam_t += 1
            try:
                adam_step(params, m_state, v_state, adam_t, cfg, live)
            except NumericalError as exc:
                raise NumericalError(f"epoch {epoch} batch {batch_idx}: {exc}") from None
            losses.append(value)
        # wall time stays out of the record: history must be reproducible bitwise
        record = {
            "epoch": epoch,
            "train_loss": float(np.mean(losses)),
        }
        if dev_pairs is not None:
            report = _evaluate_batches(model, dev_batches)
            record.update(report.metrics)
            metric = report.primary()
        else:
            metric = -record["train_loss"]
        history.append(record)
        if log is not None:
            log("epoch {epoch}: loss={train_loss:.4f}".format(**record) + (f" dev={metric:.4f}" if dev_pairs is not None else ""))
        if metric > best_metric:
            best_metric, best_epoch, best_ck = metric, epoch, None
        elif cfg.early_stop_patience > 0 and epoch - best_epoch >= cfg.early_stop_patience:
            break
    if best_ck is None:
        # epoch 0 improves on -inf, so the best epoch's weights are the live ones; no step follows
        best_ck = _snapshot(model, best_epoch, vocab, copy=False)
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


# The least premise-side input-projection work, padded rows x (static_dim
# + contextual_dim) x hidden multiply-adds, at which a batch's eval
# forward may run on the helper thread. For small models the helper's
# own malloc arena is a large share of the process's memory: with every
# batch eligible, desk-scale eval (batches of 1-4M) raised peak RSS by up
# to 12%. Batches at paper widths make 80-130M. Like a BLAS library's
# threading threshold, it is a property of the input, not of a workload.
HELPER_MIN_MACS = 1 << 24


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


def forward_batches(model, batches):
    """Each batch's eval forward output (a (batch, K) array), in input order.

    The forwards run over constant views of the model's parameters, so
    they build no graph (see `tensor._node`). When two CPUs are usable,
    every other batch that reaches `HELPER_MIN_MACS` runs on one helper
    thread while this thread computes the next batch, so at most two
    forwards are live. Each batch is still one forward on one thread, so
    the outputs are the serial loop's bit for bit. The first batch in
    input order that fails raises its error, and the helper is gone when
    the call returns.
    """
    cfg = model.cfg
    frozen = MatchModel(cfg, {name: T.constant(t.data) for name, t in model.params.items()}, provider=model.provider)

    def forward(batch):
        return frozen.forward_pair(batch).data

    macs_per_row = (cfg.static_dim + cfg.effective_contextual_dim) * cfg.hidden
    helped = [batch.ids_a.size * macs_per_row >= HELPER_MIN_MACS for batch in batches]
    if not any(helped) or _usable_cpus() < 2:
        return [forward(batch) for batch in batches]
    # imported here: a run that never evaluates on two threads does not pay for it
    from concurrent.futures import ThreadPoolExecutor

    outputs = [None] * len(batches)
    pending = None  # (index, future) of the batch on the helper
    with ThreadPoolExecutor(1) as pool:
        for i, batch in enumerate(batches):
            if pending is None and helped[i]:
                # a new thread starts in an empty context, and numpy keeps its errstate there
                pending = (i, pool.submit(contextvars.copy_context().run, forward, batch))
                continue
            try:
                outputs[i] = forward(batch)
            finally:
                if pending is not None:
                    # the helper's batch comes first: its error, if any, replaces this one's
                    (j, future), pending = pending, None
                    outputs[j] = future.result()
        if pending is not None:
            outputs[pending[0]] = pending[1].result()
    return outputs


def evaluate(model, pairs, vocab):
    """Deterministic metric report for a raw-record split."""
    cfg = model.cfg
    batches, _ = build_batches(pairs, vocab, cfg.effective_max_len, cfg.batch_size)
    return _evaluate_batches(model, batches)


def _evaluate_batches(model, batches):
    """The metric report over a split's batches, built in input order."""
    cfg = model.cfg
    outputs = forward_batches(model, batches)
    if task_spec(cfg.task).kind == "classify":
        preds, labels = [], []
        for batch, out in zip(batches, outputs):
            preds.extend(np.argmax(out, axis=1).tolist())
            labels.extend(batch.labels.tolist())
        return EvalReport({"acc": accuracy(preds, labels)}, cfg.fingerprint())
    scored = {}
    for batch, out in zip(batches, outputs):
        for pair, score, label in zip(batch.items, out[:, 0].tolist(), batch.labels.tolist()):
            scored.setdefault(pair.group_id, []).append((score, label == 1))
    m, r = map_mrr(list(scored.values()))
    return EvalReport({"map": m, "mrr": r}, cfg.fingerprint())


def evaluate_checkpoint(ck, pairs, provider=None):
    model = MatchModel(ck.config, ck.params, provider=provider)
    return evaluate(model, pairs, ck.vocab)


def _snapshot(model, epoch, vocab, copy=True):
    # adam_step writes through the model's parameter arrays: train() copies them only when a step is
    # about to overwrite the best epoch's weights, and shares them (copy=False) when no step follows
    params = {name: T.Tensor(t.data.copy() if copy else t.data, requires_grad=t.requires_grad) for name, t in model.params.items()}
    return Checkpoint(params=params, epoch=epoch, config=model.cfg, vocab=vocab)


ABLATION_ORDER = ("full",) + TrainConfig.ABLATION_FLAGS


def run_ablations(base_cfg, train_pairs, dev_pairs, vocab=None, static_matrix=None, provider=None):
    """Train and evaluate the seven standard variants over `vocab`, the one `static_matrix` was built for.

    Returns rows of (variant, fingerprint, best dev metric, delta-vs-full)
    in the fixed order, full model first.
    """
    rows = []
    full_metric = None
    for variant in ABLATION_ORDER:
        # "full" is no flag: all off
        cfg = dataclasses.replace(base_cfg, **{flag: flag == variant for flag in TrainConfig.ABLATION_FLAGS})
        result = train(cfg, train_pairs, dev_pairs, static_matrix=static_matrix, provider=provider, vocab=vocab)
        metric = result.best_metric
        if variant == "full":
            full_metric = metric
        rows.append((variant, cfg.fingerprint(), metric, metric - full_metric))
    return rows
