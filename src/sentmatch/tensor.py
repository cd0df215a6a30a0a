"""Dense float64 tensors with reverse-mode automatic differentiation.

Every value in the model (activations, weights, losses) is a `Tensor`
wrapping a numpy float64 array. The graph is kept apart from the
values: a tensor has a record (`_Record`) exactly when it requires a
gradient, holding the records of its parents that require one, its
vector-Jacobian closure, its pending gradient and its shape, but not
its value. A closure keeps exactly the arrays it reads (its operands
for `matmul` and `mul`, its own output for `softmax` or `tanh`,
nothing for `add` or `concat`), so an activation no vjp reads is freed
as soon as the model code drops its tensor, not when the step's graph
goes. A 0/1 factor (the entries dropout kept, where `relu` and
`clamp_min` pass, `embed_rows`' padding mask) is kept as a bool array,
an eighth of its float64 size, and the vjp rebuilds the float factor
with the forward's own expression, so gradients keep their bits.
`Tensor.backward()` runs through the recorded graph once, in reverse
topological order, accumulating gradients into every record, and
consumes it as it goes: a record's closure is dropped as soon as it
has fired, and with it every array that only fired closures read,
while the records themselves stay with their parents and shapes. Only leaves keep their gradients afterwards: an
interior record's gradient is released as soon as its closure has
consumed it, so backward holds the gradients of the frontier it is
working on, not one per activation. A second backward through a
consumed graph raises GraphError.

A node none of whose inputs needs a gradient is graph-free: it gets no
record, no parents and no closure, since backward would never visit
it. A forward over constant parameters (as evaluation runs it)
therefore builds no graph, and each activation is freed as soon as the
forward stops using it, as in plain numpy code. Constants never enter
a graph: a record names only the parents that require a gradient, and
backward from a constant does nothing.

Row gathers (`take_rows`, `embed_rows`) accumulate row-sparse: a
tensor's pending gradient is one pair, its sorted unique touched rows
and their summed values, and each call merges its own rows into it.
Backward scatters an interior node's pair into one dense buffer when it
reaches that node, but leaves a leaf's pair in place: a lookup
into a large table therefore costs work in proportion to the rows it
touched, not to the table. Reading a leaf's `grad` still gives a plain
dense ndarray of its shape, built from the pair on first read; the
optimizer and the gradient clip instead take the pair from `_grad_rows`.

The engine is deliberately small: arrays of at most 3 dimensions, no
broadcasting (equal shapes are enforced where the contract says so),
single-threaded per graph. A padding mask is the one operand that is
broadcast: `softmax`, `max_along` and `mask_rows` take the 0/1 (..., len)
positions of a padded batch and spread them over the other of the last
two axes. Sequence ops work on the last two axes (positions x features),
so the same op takes one sentence pair's 2-d activations or a batch's
3-d ones with a leading batch axis; a shared 2-d weight is applied to
every item of the batch, and each item's product is the one its 2-d
form computes. Convolution kernels are the
other 3-d arrays (width, d_in, d_out). Tensor values are immutable once
built; separate graphs can live on separate threads because there is no
global tape.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, GraphError, NumericalError, ShapeError

# Additive bias for masked attention cells. Finite on purpose: exp(x) for
# x <= -745 underflows to exactly 0.0 in float64, so masked positions get
# weight 0 without inf-inf artifacts inside the stable softmax.
MASK_OFF = -1e30


def _asarray(data):
    # 3-d: a batch of sequences (batch, len, d), or conv kernels (width, d_in, d_out)
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim > 3:
        raise ShapeError(f"tensors are at most 3-d, got shape {arr.shape}")
    return arr


class _Record:
    """A tensor's place in the graph: everything backward reads of it but its value."""

    __slots__ = ("shape", "_parents", "_vjp", "_grad", "_rows")

    def __init__(self, shape, parents=(), vjp=None):
        self.shape = shape
        self._parents = parents  # the records of the parents that need a gradient
        self._vjp = vjp  # g -> None, accumulating into the parents' records; None once fired
        self._grad = None
        # pending row-sparse gradient: None or one (rows, values) pair (see _accumulate_rows)
        self._rows = None


class Tensor:
    """A value, and through `_record` its node in the computation graph.

    `data` is the forward value, `grad` the accumulated gradient (same
    shape, or None before backward). Leaf tensors are created with
    `requires_grad=True` for trainable weights and False for constants
    (masks, labels, precomputed vectors); interior nodes inherit the flag
    from their parents. A tensor has a record exactly when it requires a
    gradient, so a constant's `grad` stays None and setting it raises
    GraphError. After backward only a leaf's `grad` is set; an interior
    node's is None again.
    """

    __slots__ = ("data", "_record")

    def __init__(self, data, requires_grad=False):
        self.data = _asarray(data)
        self._record = _Record(self.data.shape) if requires_grad else None

    @property
    def requires_grad(self):
        return self._record is not None

    @property
    def _parents(self):
        """The records of this node's parents that need a gradient, () for a constant; a walk from a loss tensor starts here."""
        return () if self._record is None else self._record._parents

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data)

    @property
    def grad(self):
        """The dense gradient, or None; a pending row pair is scattered into it on first read."""
        record = self._record
        if record is None:
            return None
        if record._rows is not None:
            _flush_rows(record)
        return record._grad

    @grad.setter
    def grad(self, value):
        if self._record is None:
            raise GraphError("a constant has no gradient to set")
        self._record._grad = value
        self._record._rows = None

    def backward(self):
        """Propagate gradients from this scalar through the graph.

        Visits each record exactly once, children before parents.
        Gradients of every reachable record are reset first, so repeated
        backward calls on disjoint graphs do not leak accumulation across
        calls. An interior record's vjp and gradient are dropped right
        after the vjp has fired; leaves keep their gradients, row pairs
        included (see the module docstring). The graph is consumed: a
        record with parents but no vjp has fired, and a backward that
        reaches one raises GraphError before it changes any gradient. A
        constant has no graph, so its backward does nothing.
        """
        if self.data.size != 1:
            raise ShapeError(f"backward requires a scalar, got shape {self.shape}")
        root = self._record
        if root is None:
            return
        topo = []
        seen = {id(root)}
        stack = [(root, iter(root._parents))]
        while stack:
            node, parents = stack[-1]
            advanced = False
            for p in parents:
                if id(p) not in seen:
                    seen.add(id(p))
                    stack.append((p, iter(p._parents)))
                    advanced = True
                    break
            if not advanced:
                if node._vjp is None and node._parents:
                    raise GraphError("backward through a graph that an earlier backward already consumed")
                topo.append(node)
                stack.pop()
        for node in topo:
            node._grad = None
            node._rows = None
        root._grad = np.ones(root.shape)
        for node in reversed(topo):
            if node._vjp is not None:
                # every consumer of `node` has fired by now, so its row pair is complete
                if node._rows is not None:
                    _flush_rows(node)
                node._vjp(node._grad)
                # both dead once fired: the closure's arrays go unless a later vjp reads them too
                node._vjp = node._grad = None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _accumulate(r, g):
    """Add `g` to record `r`'s gradient; None (a constant's place) takes nothing."""
    if r is not None:
        if r._rows is not None:
            _flush_rows(r)
        r._grad = g if r._grad is None else r._grad + g


def _accumulate_rows(r, rows, values):
    """Add a gradient that is zero outside `rows` (sorted and unique).

    Equal, bit for bit, to `_accumulate` of the array that scatters
    `values` into zeros. While record `r` has no dense gradient, its
    pending pair takes the call: the union of both rows, the old values,
    and `+=` the new ones. Every entry is a sum begun at +0.0 that adds each
    call's deduplicated sum in firing order, so it is never -0.0: the
    `+ 0.0` that dense accumulation adds on untouched rows would change
    nothing. After a dense contribution, the call is scattered densely
    instead, because that `+ 0.0` turns a -0.0 entry of the dense
    gradient into +0.0.
    """
    if r._grad is not None:
        out = np.zeros(r.shape)
        out[rows] = values
        _accumulate(r, out)
    elif r._rows is None:
        r._rows = (rows, values)
    else:
        old_rows, old_values = r._rows
        merged = np.union1d(old_rows, rows)
        sums = np.zeros((merged.size, r.shape[1]))
        sums[np.searchsorted(merged, old_rows)] = old_values
        sums[np.searchsorted(merged, rows)] += values
        r._rows = (merged, sums)


def _flush_rows(r):
    """Turn record `r`'s pending (rows, values) pair into its dense gradient."""
    (rows, values), r._rows = r._rows, None
    r._grad = np.zeros(r.shape)
    r._grad[rows] = values


def _grad_rows(t):
    """Tensor `t`'s pending row-sparse gradient as (rows, values), or None.

    `rows` are sorted and unique, and `values` holds their rows of the
    dense gradient bit for bit. Reading changes nothing; `values`
    belongs to `t` and may be scaled in place. None when `t` has no
    pending rows (its gradient, if any, is dense) or is a constant.
    """
    return None if t._record is None else t._record._rows


def constant(data):
    return Tensor(data, requires_grad=False)


def parameter(data):
    return Tensor(data, requires_grad=True)


def _node(data, parents, vjp):
    """An op's output: a graph node if some input needs a gradient, else graph-free.

    A graph node's record names the records of the parents that need a
    gradient, and no constant; a graph-free node has no record, so its
    closure, and the arrays it captured, are dropped here.
    """
    out = Tensor(data)
    records = tuple(p._record for p in parents if p._record is not None)
    if records:
        out._record = _Record(out.data.shape, records, vjp)
    return out


# ---------------------------------------------------------------------------
# linear algebra


def _swap(arr):
    return np.swapaxes(arr, -1, -2)


def matmul(a, b):
    """Matrix product over the last two axes; gradients for both operands.

    `a` is (..., n, k). `b` is a (k, m) matrix shared by every item, or
    (..., k, m) with the same leading axes as `a`. The forward makes, for
    each item, the BLAS call of its 2-d product, so a batch gives each
    item's 2-d result bit for bit. (One GEMM over all items' rows does
    not: BLAS picks its kernel, and with it the rounding, by matrix size,
    and numpy multiplies a single row or column with GEMV.) Gradients
    through a shared `b` need no such match and are one GEMM each over
    the items' flattened rows.
    """
    if a.ndim < 2 or b.ndim not in (2, a.ndim) or a.shape[-1] != b.shape[-2] or b.shape[:-2] not in ((), a.shape[:-2]):
        raise ShapeError(f"matmul shapes incompatible: {a.shape} x {b.shape}")
    shared = b.ndim == 2
    k, m = b.shape[-2:]
    a_data, b_data, ra, rb = a.data, b.data, a._record, b._record
    out_data = a_data @ b_data

    def vjp(g):
        # a constant operand (a mask, a precomputed vector) gets no product
        if shared:
            g_rows = g.reshape(-1, m)
            if ra is not None:
                _accumulate(ra, (g_rows @ b_data.T).reshape(ra.shape))
            if rb is not None:
                _accumulate(rb, a_data.reshape(-1, k).T @ g_rows)
        else:
            if ra is not None:
                _accumulate(ra, g @ _swap(b_data))
            if rb is not None:
                _accumulate(rb, _swap(a_data) @ g)

    return _node(out_data, (a, b), vjp)


def transpose(a):
    """Swap the last two axes."""
    if a.ndim < 2:
        raise ShapeError(f"transpose expects at least 2-d, got {a.shape}")
    ra = a._record

    def vjp(g):
        _accumulate(ra, _swap(g))

    return _node(_swap(a.data), (a,), vjp)


def reshape(a, shape):
    old, ra = a.shape, a._record

    def vjp(g):
        _accumulate(ra, g.reshape(old))

    return _node(a.data.reshape(shape), (a,), vjp)


def _pad_rows(x, pad):
    """`x` (..., len, d) between `pad` zero rows before and after it along the sequence axis."""
    *lead, n, d = x.shape
    xp = np.zeros((*lead, n + 2 * pad, d))
    xp[..., pad:pad + n, :] = x
    return xp


def conv1d(x, kernels):
    """Same-padded cross-correlation along the sequence axis (-2).

    `x` is (..., len, d_in), `kernels` is width x d_in x d_out with odd
    width; zero padding keeps the output length equal to the input
    length, and items of a batch are padded apart. Each tap is one
    product per item, the one a single sequence makes; the kernel
    gradient of a tap is one GEMM over every item's rows.
    """
    if x.ndim not in (2, 3) or kernels.data.ndim != 3:
        raise ShapeError(f"conv1d expects (..., len, d_in) and (w, d_in, d_out), got {x.shape} and {kernels.shape}")
    w, d_in, d_out = kernels.shape
    if w % 2 == 0:
        raise ConfigError(f"conv1d kernel width must be odd, got {w}")
    if d_in != x.shape[-1]:
        raise ShapeError(f"conv1d channel mismatch: input {x.shape} vs kernels {kernels.shape}")
    *lead, n, _ = x.shape
    pad = w // 2
    x_data, k_data, rx, rk = x.data, kernels.data, x._record, kernels._record
    xp = _pad_rows(x_data, pad)
    out_data = np.zeros((*lead, n, d_out))
    for dt in range(w):
        out_data += xp[..., dt:dt + n, :] @ k_data[dt]

    def vjp(g):
        if rx is not None:
            gxp = np.zeros((*lead, n + 2 * pad, d_in))
            for dt in range(w):
                gxp[..., dt:dt + n, :] += g @ k_data[dt].T
            _accumulate(rx, gxp[..., pad:pad + n, :])
        if rk is not None:
            xp = _pad_rows(x_data, pad)  # padded again: the graph keeps the input, not a wider copy
            g_rows = g.reshape(-1, d_out)
            gk = np.empty_like(k_data)
            for dt in range(w):
                gk[dt] = xp[..., dt:dt + n, :].reshape(-1, d_in).T @ g_rows
            _accumulate(rk, gk)

    return _node(out_data, (x, kernels), vjp)


# ---------------------------------------------------------------------------
# nonlinearities and normalization


def _positions(op, x, mask, axis):
    """The 0/1 (..., len) `mask` of the positions along `axis`, one of `x`'s last two, broadcast over the other."""
    keep = np.asarray(mask, dtype=np.float64)
    if x.ndim < 2 or axis % x.ndim < x.ndim - 2 or keep.shape != x.shape[:-2] + (x.shape[axis],):
        raise ShapeError(f"{op} mask of shape {keep.shape} does not fit shape {x.shape} along axis {axis}")
    return keep[..., None, :] if axis % x.ndim == x.ndim - 1 else keep[..., None]


def softmax(x, axis=-1, mask=None):
    """Numerically stable softmax along `axis`.

    Slices are shifted by their max before exponentiation, so extreme
    inputs do not overflow. `mask` (see `_positions`) adds `MASK_OFF` to
    the masked entries, which then get weight exactly 0, and -0.0 (no
    change) to the rest. A slice whose entries are all -inf (or all at
    `MASK_OFF`) normalizes to the uniform distribution; callers that fully
    mask a slice are expected to zero the corresponding output rows.
    """
    d = x.data if mask is None else x.data + (1.0 - _positions("softmax", x, mask, axis)) * MASK_OFF
    m = np.max(d, axis=axis, keepdims=True)
    m_safe = np.where(np.isfinite(m), m, 0.0)
    e = np.exp(d - m_safe)
    s = np.sum(e, axis=axis, keepdims=True)
    k = d.shape[axis] if d.ndim else 1
    out_data = np.where(s > 0.0, e / np.where(s > 0.0, s, 1.0), 1.0 / k)
    rx = x._record

    def vjp(g):
        inner = np.sum(g * out_data, axis=axis, keepdims=True)
        _accumulate(rx, out_data * (g - inner))

    return _node(out_data, (x,), vjp)


def mask_rows(x, mask):
    """Zero the rows of `x` (..., len, d) where the 0/1 `mask` (..., len) is 0."""
    keep, rx = _positions("mask_rows", x, mask, -2), x._record

    def vjp(g):
        _accumulate(rx, g * keep)

    return _node(x.data * keep, (x,), vjp)


def relu(x):
    return clamp_min(x, 0.0)


def tanh(x):
    out_data, rx = np.tanh(x.data), x._record

    def vjp(g):
        _accumulate(rx, g * (1.0 - out_data * out_data))

    return _node(out_data, (x,), vjp)


def sigmoid(x):
    # exp formulated per sign to stay stable for large |x|; np.where evaluates both branches
    d = x.data
    e = np.exp(-np.abs(d))
    denom = 1.0 + e
    out_data = np.where(d >= 0, 1.0 / denom, e / denom)
    rx = x._record

    def vjp(g):
        _accumulate(rx, g * out_data * (1.0 - out_data))

    return _node(out_data, (x,), vjp)


def log(x):
    x_data, rx = x.data, x._record
    out_data = np.log(x_data)

    def vjp(g):
        _accumulate(rx, g / x_data)

    return _node(out_data, (x,), vjp)


def clamp_min(x, floor):
    out_data, rx = np.maximum(x.data, floor), x._record
    # exactly where x > floor, NaN included; a graph-free forward has no vjp to read it
    pos = None if rx is None else out_data > floor

    def vjp(g):
        _accumulate(rx, g * pos)

    return _node(out_data, (x,), vjp)


# ---------------------------------------------------------------------------
# pointwise arithmetic (equal shapes enforced, no broadcasting)


def _check_same_shape(op, a, b):
    if a.shape != b.shape:
        raise ShapeError(f"{op} requires equal shapes, got {a.shape} and {b.shape}")


def add(a, b):
    _check_same_shape("add", a, b)
    ra, rb = a._record, b._record

    def vjp(g):
        _accumulate(ra, g)
        _accumulate(rb, g)

    return _node(a.data + b.data, (a, b), vjp)


def sub(a, b):
    _check_same_shape("sub", a, b)
    ra, rb = a._record, b._record

    def vjp(g):
        _accumulate(ra, g)
        _accumulate(rb, -g)

    return _node(a.data - b.data, (a, b), vjp)


def mul(a, b):
    _check_same_shape("mul", a, b)
    a_data, b_data, ra, rb = a.data, b.data, a._record, b._record

    def vjp(g):
        # a constant operand (a row mask) gets no product
        if ra is not None:
            _accumulate(ra, g * b_data)
        if rb is not None:
            _accumulate(rb, g * a_data)

    return _node(a_data * b_data, (a, b), vjp)


def mul_const(x, c):
    rx = x._record

    def vjp(g):
        _accumulate(rx, g * c)

    return _node(x.data * c, (x,), vjp)


def rsub_const(c, x):
    """c - x, elementwise against a python scalar."""
    rx = x._record

    def vjp(g):
        _accumulate(rx, -g)

    return _node(c - x.data, (x,), vjp)


def concat(tensors, axis=0):
    """Concatenate along `axis`; shapes must agree off the concat axis."""
    tensors = list(tensors)
    if not tensors:
        raise ShapeError("concat of zero tensors")
    ndim = tensors[0].ndim
    for t in tensors[1:]:
        off_ok = t.ndim == ndim and all(
            t.shape[i] == tensors[0].shape[i] for i in range(ndim) if i != axis % max(ndim, 1)
        )
        if not off_ok:
            raise ShapeError(f"concat shapes incompatible off axis {axis}: {tensors[0].shape} and {t.shape}")
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis % ndim] for t in tensors]
    offsets = np.cumsum([0] + sizes)
    records = [t._record for t in tensors]

    def vjp(g):
        for r, lo, hi in zip(records, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * ndim
            idx[axis % ndim] = slice(lo, hi)
            _accumulate(r, g[tuple(idx)])

    return _node(out_data, tensors, vjp)


# ---------------------------------------------------------------------------
# reductions, gathers, shape utilities


def sum_all(x):
    shape, rx = x.shape, x._record

    def vjp(g):
        _accumulate(rx, np.full(shape, float(g)))

    return _node(np.sum(x.data), (x,), vjp)


def max_along(x, axis, mask=None):
    """Max reduction along one axis, `mask` added as in `softmax`; gradient routes to the first argmax."""
    d = x.data if mask is None else x.data + (1.0 - _positions("max_along", x, mask, axis)) * MASK_OFF
    idx = np.expand_dims(np.argmax(d, axis=axis), axis)
    out_data = np.max(d, axis=axis)
    shape, rx = x.shape, x._record

    def vjp(g):
        gx = np.zeros(shape)
        np.put_along_axis(gx, idx, np.expand_dims(g, axis), axis)
        _accumulate(rx, gx)

    return _node(out_data, (x,), vjp)


def take_rows(x, indices):
    """Gather rows of a 2-d tensor; gradient scatter-adds back.

    `indices` may have any shape, such as a batch's (batch, len) id
    matrix; the result has that shape plus the row width.

    The gradient is accumulated row-sparse: rows read more than once
    have their incoming gradients summed in occurrence order (row-major
    over `indices`), and the sorted unique rows and those sums are merged
    into `x`'s one pending (rows, values) pair. If `x` is a leaf the pair
    outlives `backward()`; reading `x.grad` gives the dense array, equal
    bit for bit to scatter-adding every call's gradient into a zero
    table, and `_grad_rows(x)` gives just the pair.
    """
    if x.ndim != 2:
        raise ShapeError(f"take_rows expects 2-d, got {x.shape}")
    idx, rx = np.asarray(indices, dtype=np.intp), x._record

    def vjp(g):
        _accumulate_gathered(rx, idx, g)

    return _node(x.data[idx], (x,), vjp)


def _accumulate_gathered(r, idx, g):
    """Add to record `r` the gradient `g` of its rows gathered by `idx`, row-sparse (see take_rows)."""
    # in-range negative indices name the rows they read
    rows, inverse = np.unique(idx.reshape(-1) % r.shape[0], return_inverse=True)
    values = np.zeros((rows.size, r.shape[1]))
    np.add.at(values, inverse, g.reshape(inverse.size, r.shape[1]))
    _accumulate_rows(r, rows, values)


def embed_rows(table, ids, mask, contexts=None, rate=0.0, rng=None):
    """One side's word inputs: table rows joined to constant contextual rows, masked, dropped out.

    Equal, bit for bit and in its draws from `rng`, to
    `dropout(mul(concat([take_rows(table, ids), constant(ctx)], -1), mask
    repeated over the width), rate, rng)`, where `ctx` is zero but for
    `contexts[i]` in the first rows of item i. Where that composition
    makes a (..., n, width) array at each step, this op writes one
    `ids.shape + (d + ctx_dim,)` buffer in place. `contexts` holds one
    (len_i, ctx_dim) array per item of `ids` (any float dtype, converted
    on assignment), or is None for no contextual rows. `rate` 0 (as at
    inference) draws nothing. Only the table gets a gradient, through its
    row-sparse pair as in take_rows, so of the dropout draws only the
    table's columns are kept, as bool.
    """
    if table.ndim != 2:
        raise ShapeError(f"embed_rows expects a 2-d table, got {table.shape}")
    idx = np.asarray(ids, dtype=np.intp)
    d = table.shape[1]
    if contexts is None:
        buf = table.data[idx]
    else:
        ctx_dim = np.shape(contexts[0])[1]
        buf = np.zeros(idx.shape + (d + ctx_dim,))
        buf[..., :d] = table.data[idx]
        for row, rows in zip(buf, contexts):
            row[: len(rows), d:] = rows
    mask = np.asarray(mask, dtype=np.float64)[..., None]
    buf *= mask
    kept, rt = None, table._record
    if rate != 0.0:
        scale = rng.random(buf.shape)
        drawn = scale >= rate
        np.divide(drawn, 1.0 - rate, out=scale)
        buf *= scale
        if rt is not None:
            kept = drawn[..., :d].copy()  # a view would hold the whole draw alive
    on = mask != 0.0  # the 0/1 mask as bool: g * on has the bits of g * mask

    def vjp(g):
        g = g[..., :d] if kept is None else g[..., :d] * (kept / (1.0 - rate))
        _accumulate_gathered(rt, idx, g * on)

    return _node(buf, (table,), vjp)


def tile_rows(x, n):
    """Repeat a 1 x d row (one per item of a batch) n times; gradient sums the copies."""
    if x.ndim < 2 or x.shape[-2] != 1:
        raise ShapeError(f"tile_rows expects (..., 1, d) rows, got {x.shape}")
    rx = x._record

    def vjp(g):
        _accumulate(rx, g.sum(axis=-2, keepdims=True))

    return _node(np.repeat(x.data, n, axis=-2), (x,), vjp)


def dropout(x, rate, rng):
    """Inverted dropout: zero with probability `rate`, scale survivors.

    Caller decides training vs inference; at rate 0 this is the identity
    and draws nothing from `rng`.
    """
    if rate == 0.0:
        return x
    kept, rx = rng.random(x.shape) >= rate, x._record

    def vjp(g):
        _accumulate(rx, g * (kept / (1.0 - rate)))

    return _node(x.data * (kept / (1.0 - rate)), (x,), vjp)


# ---------------------------------------------------------------------------
# gradient checking


class GradCheckReport:
    """Outcome of one finite-difference check.

    `max_rel_err` is the worst relative error (with a unit floor in the
    denominator, so near-zero gradients are judged absolutely), and
    `worst` names the offending (input index, flat coordinate).
    """

    def __init__(self, max_rel_err, worst, tolerance):
        self.max_rel_err = max_rel_err
        self.worst = worst
        self.passed = max_rel_err <= tolerance

    def __repr__(self):
        return f"GradCheckReport(max_rel_err={self.max_rel_err:.3e}, worst={self.worst}, passed={self.passed})"


def grad_check(op, inputs, tolerance=1e-4, step=1e-5):
    """Compare analytic gradients of `op` against central finite differences.

    `op` maps a list of tensors to one tensor; the check reduces it with
    sum_all so the seed gradient is well defined, then perturbs every
    coordinate of every input by +-`step`. Raises NumericalError (naming
    the coordinate) if any analytic or numeric value is non-finite.
    Returns a GradCheckReport; the caller compares against `tolerance`.
    """
    out = sum_all(op(inputs))
    out.backward()
    analytic = [np.zeros_like(t.data) if t.grad is None else t.grad.copy() for t in inputs]

    def forward():
        return float(sum_all(op(inputs)).data)

    max_rel = 0.0
    worst = (0, 0)
    for i, t in enumerate(inputs):
        flat = t.data.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + step
            f_plus = forward()
            flat[j] = orig - step
            f_minus = forward()
            flat[j] = orig
            numeric = (f_plus - f_minus) / (2.0 * step)
            a = analytic[i].reshape(-1)[j]
            if not (np.isfinite(numeric) and np.isfinite(a)):
                raise NumericalError(f"non-finite gradient at input {i}, coordinate {j}: analytic={a}, numeric={numeric}")
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1.0)
            if rel > max_rel:
                max_rel = rel
                worst = (i, j)
    return GradCheckReport(max_rel, worst, tolerance)
