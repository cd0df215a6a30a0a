"""Independent reference implementations used to check the real code.

Everything here is written against the mathematical definitions with
plain numpy / python loops and never imports the package's tensor engine,
so a bug in the engine cannot hide in the oracle.
"""

import hashlib
import json
import math
import struct

import numpy as np


def matmul_loops(a, b):
    r, k = a.shape
    k2, c = b.shape
    assert k == k2
    out = np.zeros((r, c))
    for i in range(r):
        for j in range(c):
            s = 0.0
            for t in range(k):
                s += a[i, t] * b[t, j]
            out[i, j] = s
    return out


def conv1d_direct(x, kernels):
    n, d_in = x.shape
    w, _, d_out = kernels.shape
    half = w // 2
    out = np.zeros((n, d_out))
    for t in range(n):
        for o in range(d_out):
            s = 0.0
            for dt in range(w):
                src = t + dt - half
                if 0 <= src < n:
                    for i in range(d_in):
                        s += x[src, i] * kernels[dt, i, o]
            out[t, o] = s
    return out


def softmax_highprec(x):
    """Softmax of a 1-d vector in 50-digit arithmetic."""
    from mpmath import mp, mpf

    mp.dps = 50
    vals = [mp.e ** mpf(float(v)) for v in x]
    total = sum(vals)
    return np.array([float(v / total) for v in vals])


def softmax_rows(x, keep):
    """Row softmax restricted to the columns flagged in `keep` (bool)."""
    out = np.zeros_like(x)
    for i in range(x.shape[0]):
        cols = [j for j in range(x.shape[1]) if keep[j]]
        if not cols:
            continue
        m = max(x[i, j] for j in cols)
        exps = {j: math.exp(x[i, j] - m) for j in cols}
        z = sum(exps.values())
        for j in cols:
            out[i, j] = exps[j] / z
    return out


def softmax_vec(x, keep):
    out = np.zeros_like(x)
    idx = [i for i in range(len(x)) if keep[i]]
    if not idx:
        return out
    m = max(x[i] for i in idx)
    exps = {i: math.exp(x[i] - m) for i in idx}
    z = sum(exps.values())
    for i in idx:
        out[i] = exps[i] / z
    return out


def relu_np(x):
    return np.maximum(x, 0.0)


def sigmoid_per_sign(x):
    """The engine's earlier sigmoid expression, which evaluates exp(-|x|) three times."""
    return np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))), np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))


def align_direct(c, q, w_c, w_q, mask_a, mask_b):
    """Alignment between two encoded sentences, computed step by step.

    Projections pass through relu, their product gives the similarity
    grid, rows are normalized over the second sentence to mix its rows
    into the first, columns are normalized over the first sentence to mix
    its rows into the second. Padded rows of the outputs are zero.
    """
    pc = relu_np(c @ w_c)
    pq = relu_np(q @ w_q)
    s = pc @ pq.T
    a_rows = softmax_rows(s, mask_b.astype(bool))
    c_aligned = a_rows @ q
    a_cols = softmax_rows(s.T, mask_a.astype(bool))  # softmax over first-sentence positions
    q_aligned = a_cols @ c
    c_aligned = c_aligned * mask_a[:, None]
    q_aligned = q_aligned * mask_b[:, None]
    return c_aligned, q_aligned, s


def fuse_direct(x, y, w1, w2):
    n, d = x.shape
    out = np.zeros((n, d))
    for t in range(n):
        cat = np.concatenate([x[t], y[t], x[t] * y[t], x[t] - y[t]])
        cand = np.tanh(cat @ w1)
        gate = 1.0 / (1.0 + np.exp(-(cat @ w2)))
        out[t] = gate * cand + (1.0 - gate) * x[t]
    return out


def similarity_direct(h, p, w_h, w_p):
    return relu_np(h @ w_h) @ relu_np(p @ w_p).T


def h2p_direct(s, p, mask_b):
    weights = softmax_rows(s, mask_b.astype(bool))
    return weights @ p


def p2h_direct(s, h, mask_a, mask_b):
    n = s.shape[0]
    keep_b = mask_b.astype(bool)
    row_max = np.array(
        [max(s[t, j] for j in range(s.shape[1]) if keep_b[j]) if keep_b.any() else 0.0 for t in range(n)]
    )
    b = softmax_vec(row_max, mask_a.astype(bool))
    c = b @ h
    return c, np.tile(c, (n, 1))


def merge_direct(h, q, c_att):
    # c_att is the already-tiled n x d block
    return np.concatenate([h, q, h * q, h * c_att], axis=1)


def self_attend_direct(g, mask_a):
    e = g @ g.T
    weights = softmax_rows(e, mask_a.astype(bool))
    z = weights @ g
    return z * mask_a[:, None]


def head_direct(pooled, w, b, kind):
    pre = np.tanh(pooled @ w + b)
    if kind == "rank":
        return pre
    m = pre.max()
    e = np.exp(pre - m)
    return e / e.sum()


def cross_entropy_direct(probs, labels):
    n, k = probs.shape
    total = 0.0
    for i in range(n):
        row = 0.0
        for j in range(k):
            y = 1.0 if j == labels[i] else 0.0
            row += y * math.log(max(probs[i, j], 1e-12))
        total -= row
    return total / n


def hinge_direct(pos, neg):
    vals = [max(0.0, 1.0 - p + q) for p, q in zip(np.ravel(pos), np.ravel(neg))]
    return sum(vals) / len(vals)


def stub_rows_splitmix(seed, dim, tokens):
    """The stub provider's rows from its definition, one Python int at a time.

    Key: blake2b-64 of "seed|pos|tok", little-endian. Output j of
    SplitMix64 seeded with the key mixes key + j * golden gamma; its low
    then high 32-bit halves give two values, (1 + top 23 bits / 2^23) - 1.5.
    """
    mask = (1 << 64) - 1
    rows = []
    for pos, tok in enumerate(tokens):
        key = int.from_bytes(hashlib.blake2b(f"{seed}|{pos}|{tok}".encode("utf-8"), digest_size=8).digest(), "little")
        row = []
        j = 1
        while len(row) < dim:
            z = (key + j * 0x9E3779B97F4A7C15) & mask
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
            z ^= z >> 31
            for half in (z & 0xFFFFFFFF, z >> 32):
                row.append((1.0 + (half >> 9) / 2.0**23) - 1.5)
            j += 1
        rows.append(row[:dim])
    return np.array(rows, dtype=np.float32).reshape(len(tokens), dim)


def accuracy_count(preds, labels):
    hits = sum(1 for p, l in zip(preds, labels) if p == l)
    return hits / len(labels)


def map_mrr_bruteforce(groups):
    """groups: list of lists of (score, relevant) in stable input order."""
    ap_values = []
    rr_values = []
    for cands in groups:
        order = sorted(range(len(cands)), key=lambda i: -cands[i][0])
        seen_relevant = 0
        precisions = []
        first_rank = None
        for rank, i in enumerate(order, start=1):
            if cands[i][1]:
                seen_relevant += 1
                precisions.append(seen_relevant / rank)
                if first_rank is None:
                    first_rank = rank
        if not precisions:
            continue
        ap_values.append(sum(precisions) / len(precisions))
        rr_values.append(1.0 / first_rank)
    return sum(ap_values) / len(ap_values), sum(rr_values) / len(rr_values)


def adam_scalar(grads, lr, beta1, beta2, eps, x0=0.0):
    """Run the moment recurrences for one scalar parameter."""
    x, m, v = x0, 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        x -= lr * m_hat / (math.sqrt(v_hat) + eps)
    return x, m, v


def adam_dense(x, m, v, g, t, lr, beta1, beta2, eps):
    """One dense Adam step in whole-array expressions; returns new (x, m, v).

    `g` None stands for a zero gradient. This is the engine's original
    expression, kept as the reference its in-place form must match bit
    for bit.
    """
    if g is None:
        g = np.zeros_like(x)
    m = beta1 * m + (1.0 - beta1) * g
    v = beta2 * v + (1.0 - beta2) * g * g
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    return x - lr * m_hat / (np.sqrt(v_hat) + eps), m, v


def clip_gradients_dense(params, max_norm):
    """The engine's original global-norm clip over dense gradients."""
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


def adam_step_dense(params, state_m, state_v, t, cfg):
    """`adam_dense` over every trainable tensor and its dense gradient, updated whole."""
    for name in sorted(params):
        p = params[name]
        if p.requires_grad:
            p.data, m, v = adam_dense(p.data, state_m[name], state_v[name], p.grad, t, cfg.lr, cfg.beta1, cfg.beta2, cfg.adam_eps)
            state_m[name][...], state_v[name][...] = m, v
            p.grad = None


def take_rows_dense_grad(n_rows, idx, g):
    """Gradient of a row gather w.r.t. an n_rows-row table, as a dense array.

    Scatter-adds every incoming row into a zero table in occurrence
    order (row-major over `idx`, which may have any shape): the engine's
    original take_rows vector-Jacobian product.
    """
    gx = np.zeros((n_rows, g.shape[-1]))
    np.add.at(gx, np.asarray(idx, dtype=np.intp), g)
    return gx


def embed_rows_composed(ops, table, ids, mask, contexts, ctx_dim, rate, rng):
    """One side's embeddings as the model first built them, from engine ops.

    `ops` is the tensor engine (passed in, not imported). Gathers the
    table rows, concatenates a zero (..., n, ctx_dim) constant holding
    each item's contextual rows, multiplies by the position mask repeated
    over the width, and applies dropout at `rate`: the reference for
    `embed_rows`, which writes one buffer where these ops make an array
    each.
    """
    x = ops.take_rows(table, ids)
    if ctx_dim > 0:
        ctx = np.zeros(np.shape(ids) + (ctx_dim,))
        for row, rows in zip(ctx, contexts):
            row[: len(rows)] = np.asarray(rows, dtype=np.float64)
        x = ops.concat([x, ops.constant(ctx)], axis=-1)
    width = x.shape[-1]
    x = ops.mul(x, ops.constant(np.repeat(np.asarray(mask, dtype=np.float64)[..., None], width, axis=-1)))
    if rate > 0.0:
        x = ops.dropout(x, rate, rng)
    return x


def _legacy_manifest(ck, history):
    """The manifest earlier writers gave `ck`, `history` being the run's metric history.

    Beside the current keys it holds that history, a "trainable" flag on
    every tensor entry, and the config keys since retired, each at its
    only value still read (false).
    """
    return {
        "config": dict(ck.config.to_dict(), sum_loss=False, include_unanswerable=False),
        "epoch": ck.epoch,
        "history": history,
        "tensors": [
            {"name": n, "shape": list(ck.params[n].shape), "kind": "param", "trainable": bool(ck.params[n].requires_grad)}
            for n in sorted(ck.params)
        ],
        "vocab": ck.vocab.id_to_token,
    }


def _write_legacy(path, manifest, arrays):
    header = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(b"SMCK" + struct.pack("<IQ", 1, len(header)) + header)
        for arr in arrays:
            fh.write(np.asarray(arr, dtype="<f8").tobytes())


def save_checkpoint_with_history(path, ck, history):
    """Write `ck` in the checkpoint layout whose manifest also held the history.

    This is the writer of the files saved after optimizer state was
    dropped and before the manifest lost its "history" and "trainable"
    entries and the config its retired keys (`_legacy_manifest`).
    """
    _write_legacy(path, _legacy_manifest(ck, history), [ck.params[n].data for n in sorted(ck.params)])


def save_checkpoint_with_moments(path, ck, adam_m, adam_v, adam_t, history):
    """Write `ck` in the earlier checkpoint layout that also held Adam state.

    The manifest is `save_checkpoint_with_history`'s plus an "adam_t"
    step count and, after the "param" entries, one "adam_m" then one
    "adam_v" entry per moment array, each group in sorted name order;
    the float64 values follow in manifest order. This is the writer of
    that layout, kept as the reference for files written before
    optimizer state was dropped.
    """
    manifest = _legacy_manifest(ck, history)
    manifest["adam_t"] = adam_t
    arrays = [ck.params[n].data for n in sorted(ck.params)]
    for kind, table in (("adam_m", adam_m), ("adam_v", adam_v)):
        for n in sorted(table):
            manifest["tensors"].append({"name": n, "shape": list(table[n].shape), "kind": kind, "trainable": False})
            arrays.append(table[n])
    _write_legacy(path, manifest, arrays)


def edit_manifest(blob, edit):
    """The checkpoint file `blob` with its manifest dict passed through `edit` and re-encoded canonically."""
    (manifest_len,) = struct.unpack("<Q", blob[8:16])
    manifest = json.loads(blob[16 : 16 + manifest_len])
    edit(manifest)
    header = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return blob[:8] + struct.pack("<Q", len(header)) + header + blob[16 + manifest_len :]


def load_static_vectors_per_value(path, vocab, dim, seed=0):
    """The static-vector loader that parses every value of every line with `float()`.

    This is the package's original loader, kept as the reference its
    chunked parse must match bit for bit. `vocab` needs `len`, `in` and
    `id_of`; row 0 is the pad row. A bad file raises ValueError carrying
    the `<path>:<line>: ...` message of the package's ParseError.
    """
    matrix = np.zeros((len(vocab), dim))
    line_of = np.zeros(len(vocab), dtype=np.int64)  # 0: not in the file
    line_of[0] = -1
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            parts = line.rstrip("\n").split(" ")
            if len(parts) < 2:
                continue
            token, values = parts[0], parts[1:]
            if len(values) != dim:
                raise ValueError(f"{path}:{line_no}: expected {dim} floats after token, got {len(values)}")
            if token in vocab:
                idx = vocab.id_of(token)
                try:
                    matrix[idx] = [float(v) for v in values]
                except ValueError as exc:
                    raise ValueError(f"{path}:{line_no}: {exc}") from None
                line_of[idx] = line_no
    bad = line_of[~np.isfinite(matrix).all(axis=1)]
    if bad.size:
        raise ValueError(f"{path}:{bad.min()}: values must be finite")
    rng = np.random.default_rng(seed)
    for idx in np.flatnonzero(line_of == 0):
        matrix[idx] = rng.uniform(-0.05, 0.05, size=dim)
    return matrix
