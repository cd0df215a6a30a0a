"""Dense float64 tensors with reverse-mode automatic differentiation.

Every value in the model (activations, weights, losses) is a `Tensor`
wrapping a numpy float64 array. Operations record their inputs and a
vector-Jacobian closure on the output node; `Tensor.backward()` replays
the recorded graph once, in reverse topological order, accumulating
gradients into every node that requires them.

Row gathers (`take_rows`) accumulate row-sparse: each call records only
the rows it read and their summed gradients. Backward scatters an
interior node's records into one dense buffer when the replay reaches
that node, but leaves a leaf's records in place: a lookup into a large
table therefore costs work in proportion to the rows it touched, not to
the table. Reading a leaf's `grad` still gives a plain dense ndarray of
its shape, built from the records on first read; the optimizer instead
takes the touched rows from `_grad_rows`, and `rows_sum_squares` gives
their contribution to the global gradient norm bit for bit.

The engine is deliberately small: arrays of at most 3 dimensions, no
broadcasting (equal shapes are enforced where the contract says so),
single-threaded per graph. Sequence ops work on the last two axes
(positions x features), so the same op takes one sentence pair's 2-d
activations or a batch's 3-d ones with a leading batch axis; a shared
2-d weight is applied to every item of the batch, and each item's
product is the one its 2-d form computes. Convolution kernels are the
other 3-d arrays (width, d_in, d_out). Tensors are immutable values once
built; separate graphs can live on separate threads because there is no
global tape.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ConfigError, NumericalError, ShapeError

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


class Tensor:
    """A node in the computation graph.

    `data` is the forward value, `grad` the accumulated gradient (same
    shape, or None before backward). Leaf tensors are created with
    `requires_grad=True` for trainable weights and False for constants
    (masks, labels, precomputed vectors); interior nodes inherit the flag
    from their parents.
    """

    __slots__ = ("data", "_grad", "requires_grad", "_parents", "_vjp", "_rows")

    def __init__(self, data, requires_grad=False, _parents=(), _vjp=None):
        self.data = _asarray(data)
        self._grad = None
        # pending row-sparse gradient: a list of take_rows records (see
        # _accumulate_rows), or one coalesced (rows, values) tuple (see _grad_rows)
        self._rows = None
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._vjp = _vjp

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
        """The dense gradient, or None; pending row records are scattered into it on first read."""
        if self._rows is not None:
            _flush_rows(self)
        return self._grad

    @grad.setter
    def grad(self, value):
        self._grad = value
        self._rows = None

    def backward(self):
        """Propagate gradients from this scalar through the graph.

        Visits each recorded node exactly once, children before parents.
        Gradients of every node reachable through grad-requiring edges are
        reset first, so repeated backward calls on disjoint graphs do not
        leak accumulation across calls. Leaves keep their row records
        (see the module docstring).
        """
        if self.data.size != 1:
            raise ShapeError(f"backward requires a scalar, got shape {self.shape}")
        topo = []
        seen = {id(self)}
        stack = [(self, iter(self._parents))]
        while stack:
            node, parents = stack[-1]
            advanced = False
            for p in parents:
                if p.requires_grad and id(p) not in seen:
                    seen.add(id(p))
                    stack.append((p, iter(p._parents)))
                    advanced = True
                    break
            if not advanced:
                topo.append(node)
                stack.pop()
        for node in topo:
            node._grad = None
            node._rows = None
        self._grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._vjp is not None:
                # every consumer of `node` has fired by now, so its records are complete
                if node._rows is not None:
                    _flush_rows(node)
                node._vjp(node._grad)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _accumulate(t, g):
    if t.requires_grad:
        if t._rows is not None:
            _flush_rows(t)
        t._grad = g if t._grad is None else t._grad + g


def _accumulate_rows(t, rows, values):
    """Add a gradient that is zero outside `rows` (no row twice).

    Equal, bit for bit, to `_accumulate` of the array that scatter-adds
    `values` into zeros. While `t` has no dense gradient the record is
    kept as is; `_flush_rows` adds the records row by row into one zero
    buffer. Every buffer entry is a sum begun at +0.0, so it is never
    -0.0: the `+ 0.0` that dense accumulation adds on untouched rows
    would change nothing, and adding a -0.0 value gives the same bits as
    adding the +0.0 the scatter turns it into. After a dense
    contribution, the record is scattered densely instead, because that
    `+ 0.0` turns a -0.0 entry of the dense gradient into +0.0.
    """
    if t._grad is None:
        if t._rows is None:
            t._rows = []
        t._rows.append((rows, values))
    else:
        _accumulate(t, _scatter_rows(t.shape, [(rows, values)]))


def _scatter_rows(shape, records):
    out = np.zeros(shape)
    for rows, values in records:
        out[rows] += values
    return out


def _flush_rows(t):
    """Turn `t`'s pending row records into its dense gradient."""
    records, t._rows = t._rows, None
    if isinstance(records, tuple):
        rows, values = records
        t._grad = np.zeros(t.shape)
        t._grad[rows] = values
    else:
        t._grad = _scatter_rows(t.shape, records)


def _grad_rows(t):
    """`t`'s pending row-sparse gradient as (rows, values), or None.

    `rows` are sorted and unique, and `values` holds their rows of the
    dense gradient bit for bit: each is a sum begun at +0.0 over the
    records in order, as the dense scatter makes it. The coalesced pair
    replaces the records on `t`, so `grad` and later calls read the same
    values; `values` belongs to `t` and may be scaled in place. None
    when `t` has no records (its gradient, if any, is dense).
    """
    records = t._rows
    if records is None or isinstance(records, tuple):
        return records
    rows = np.unique(np.concatenate([r for r, _ in records]))
    values = np.zeros((rows.size, t.shape[1]))
    for r, v in records:
        values[np.searchsorted(rows, r)] += v
    t._rows = (rows, values)
    return t._rows


_PAIRWISE_BLOCK = 128  # numpy's PW_BLOCKSIZE: longest run summed without splitting


@functools.lru_cache(maxsize=8)
def _pairwise_tree(n):
    """The tree in which numpy's `np.sum` adds n contiguous float64 values.

    numpy sums a run of more than 128 values as the sum of its first
    `n2 = n//2 - (n//2) % 8` values plus the rest, recursively. Nodes are
    numbered by level: level 0 is the whole run, and level k+1 holds the
    two halves, left then right, of each level-k node that splits, in
    order. `splits[k]` are the level-k numbers of the nodes that split,
    so nodes 2i and 2i+1 of level k+1 are the halves of `splits[k][i]`.
    Returns `splits` and, sorted by position, the leaves' first
    position, length, level and number.
    """
    starts, lens = np.zeros(1, dtype=np.intp), np.array([n], dtype=np.intp)
    splits, leaves = [], []
    while starts.size:
        split = lens > _PAIRWISE_BLOCK
        leaf = np.flatnonzero(~split)
        leaves.append((starts[leaf], lens[leaf], np.full(leaf.size, len(splits)), leaf))
        splits.append(np.flatnonzero(split))
        s, l = starts[split], lens[split]
        half = l // 2 - (l // 2) % 8
        starts = np.stack([s, s + half], axis=1).reshape(-1)
        lens = np.stack([half, l - half], axis=1).reshape(-1)
    start, length, level, index = (np.concatenate(parts) for parts in zip(*leaves))
    order = np.argsort(start)
    leaves = [start[order], length[order], level[order], index[order]]
    for arr in splits + leaves:
        arr.flags.writeable = False  # cached: every caller shares these arrays
    return splits, *leaves


def _leaf_sums(x):
    """numpy's sum of each row of `x`, a run of at most 128 values, bit for bit.

    Fewer than 8 values are added in order (numpy starts at -0.0, which
    adding the first value absorbs); longer runs go through 8 strided
    accumulators, combined pairwise, and then the tail past the last
    multiple of 8 is added in order.
    """
    n = x.shape[1]
    if n < 8:
        res = x[:, 0].copy()
        for j in range(1, n):
            res += x[:, j]
        return res
    body = n - n % 8
    r = x[:, :8].copy()
    for i in range(8, body, 8):
        r += x[:, i:i + 8]
    res = ((r[:, 0] + r[:, 1]) + (r[:, 2] + r[:, 3])) + ((r[:, 4] + r[:, 5]) + (r[:, 6] + r[:, 7]))
    for j in range(body, n):
        res += x[:, j]
    return res


def rows_sum_squares(shape, rows, values):
    """`float(np.sum(g * g))` for the (V, d) array g that is zero outside `rows`.

    `rows` are sorted and unique and `values` are their rows of g. The
    result equals the dense sum bit for bit at a cost in proportion to
    the touched rows: numpy adds the flattened g in a fixed pairwise
    tree (`_pairwise_tree`), a leaf with no touched value sums to exactly
    +0.0, and adding +0.0 to a sum of squares leaves it unchanged, so
    only the leaves that overlap touched rows are summed and then
    combined in the tree's order.
    """
    n_rows, d = shape
    if rows.size == 0 or d == 0:
        return 0.0
    splits, leaf_start, leaf_len, leaf_level, leaf_index = _pairwise_tree(n_rows * d)
    # leaves overlapping each row's elements [row*d, row*d + d)
    first = np.searchsorted(leaf_start, rows * d, "right") - 1
    last = np.searchsorted(leaf_start, rows * d + (d - 1), "right") - 1
    count = last - first + 1
    ramp = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
    leaves = np.unique(np.repeat(first, count) + ramp)
    # the touched leaves back to back, squares in place and zeros elsewhere;
    # a row's leaves are consecutive, so its elements stay contiguous
    lens = leaf_len[leaves]
    offsets = np.cumsum(lens) - lens
    packed = np.zeros(int(lens.sum()))
    row_at = offsets[np.searchsorted(leaves, first)] + (rows * d - leaf_start[first])
    packed[row_at[:, None] + np.arange(d)] = values * values
    sums = np.empty(leaves.size)
    for n in np.unique(lens).tolist():
        sel = np.flatnonzero(lens == n)
        sums[sel] = _leaf_sums(packed[offsets[sel][:, None] + np.arange(n)])
    # fold bottom-up; a node missing a child takes the other's sum unchanged
    levels, indices = leaf_level[leaves], leaf_index[leaves]
    idx, val = np.empty(0, dtype=np.intp), np.empty(0)
    for level in range(len(splits) - 1, -1, -1):
        if idx.size:
            parent = idx // 2
            pair = np.flatnonzero(parent[1:] == parent[:-1])  # left child at i, right at i + 1
            val[pair] = val[pair] + val[pair + 1]
            keep = np.ones(idx.size, dtype=bool)
            keep[pair + 1] = False
            idx, val = splits[level][parent[keep]], val[keep]
        here = levels == level
        idx = np.concatenate([idx, indices[here]])
        val = np.concatenate([val, sums[here]])
        order = np.argsort(idx)
        idx, val = idx[order], val[order]
    return float(val[0])


def constant(data):
    return Tensor(data, requires_grad=False)


def parameter(data):
    return Tensor(data, requires_grad=True)


def _node(data, parents, vjp):
    needs = any(p.requires_grad for p in parents)
    return Tensor(data, requires_grad=needs, _parents=tuple(parents), _vjp=vjp if needs else None)


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
    out_data = a.data @ b.data

    def vjp(g):
        if shared:
            g_rows = g.reshape(-1, m)
            _accumulate(a, (g_rows @ b.data.T).reshape(a.shape))
            _accumulate(b, a.data.reshape(-1, k).T @ g_rows)
        else:
            _accumulate(a, g @ _swap(b.data))
            _accumulate(b, _swap(a.data) @ g)

    return _node(out_data, (a, b), vjp)


def transpose(a):
    """Swap the last two axes."""
    if a.ndim < 2:
        raise ShapeError(f"transpose expects at least 2-d, got {a.shape}")

    def vjp(g):
        _accumulate(a, _swap(g))

    return _node(_swap(a.data), (a,), vjp)


def reshape(a, shape):
    old = a.shape

    def vjp(g):
        _accumulate(a, g.reshape(old))

    return _node(a.data.reshape(shape), (a,), vjp)


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
    xp = np.zeros((*lead, n + 2 * pad, d_in))
    xp[..., pad:pad + n, :] = x.data
    out_data = np.zeros((*lead, n, d_out))
    for dt in range(w):
        out_data += xp[..., dt:dt + n, :] @ kernels.data[dt]

    def vjp(g):
        if x.requires_grad:
            gxp = np.zeros_like(xp)
            for dt in range(w):
                gxp[..., dt:dt + n, :] += g @ kernels.data[dt].T
            _accumulate(x, gxp[..., pad:pad + n, :])
        if kernels.requires_grad:
            g_rows = g.reshape(-1, d_out)
            gk = np.empty_like(kernels.data)
            for dt in range(w):
                gk[dt] = xp[..., dt:dt + n, :].reshape(-1, d_in).T @ g_rows
            _accumulate(kernels, gk)

    return _node(out_data, (x, kernels), vjp)


# ---------------------------------------------------------------------------
# nonlinearities and normalization


def softmax(x, axis=-1):
    """Numerically stable softmax along `axis`.

    Slices are shifted by their max before exponentiation, so extreme
    inputs do not overflow. A slice whose entries are all -inf (or all at
    `MASK_OFF`) normalizes to the uniform distribution; callers that fully
    mask a slice are expected to zero the corresponding output rows.
    """
    d = x.data
    m = np.max(d, axis=axis, keepdims=True)
    m_safe = np.where(np.isfinite(m), m, 0.0)
    e = np.exp(d - m_safe)
    s = np.sum(e, axis=axis, keepdims=True)
    k = d.shape[axis] if d.ndim else 1
    out_data = np.where(s > 0.0, e / np.where(s > 0.0, s, 1.0), 1.0 / k)

    def vjp(g):
        inner = np.sum(g * out_data, axis=axis, keepdims=True)
        _accumulate(x, out_data * (g - inner))

    return _node(out_data, (x,), vjp)


def relu(x):
    out_data = np.maximum(x.data, 0.0)

    def vjp(g):
        _accumulate(x, g * (x.data > 0.0))

    return _node(out_data, (x,), vjp)


def tanh(x):
    out_data = np.tanh(x.data)

    def vjp(g):
        _accumulate(x, g * (1.0 - out_data * out_data))

    return _node(out_data, (x,), vjp)


def sigmoid(x):
    # exp formulated per sign to stay stable for large |x|
    d = x.data
    out_data = np.where(d >= 0, 1.0 / (1.0 + np.exp(-np.abs(d))), np.exp(-np.abs(d)) / (1.0 + np.exp(-np.abs(d))))

    def vjp(g):
        _accumulate(x, g * out_data * (1.0 - out_data))

    return _node(out_data, (x,), vjp)


def log(x):
    out_data = np.log(x.data)

    def vjp(g):
        _accumulate(x, g / x.data)

    return _node(out_data, (x,), vjp)


def clamp_min(x, floor):
    out_data = np.maximum(x.data, floor)

    def vjp(g):
        _accumulate(x, g * (x.data > floor))

    return _node(out_data, (x,), vjp)


# ---------------------------------------------------------------------------
# pointwise arithmetic (equal shapes enforced, no broadcasting)


def _check_same_shape(op, a, b):
    if a.shape != b.shape:
        raise ShapeError(f"{op} requires equal shapes, got {a.shape} and {b.shape}")


def add(a, b):
    _check_same_shape("add", a, b)

    def vjp(g):
        _accumulate(a, g)
        _accumulate(b, g)

    return _node(a.data + b.data, (a, b), vjp)


def sub(a, b):
    _check_same_shape("sub", a, b)

    def vjp(g):
        _accumulate(a, g)
        _accumulate(b, -g)

    return _node(a.data - b.data, (a, b), vjp)


def mul(a, b):
    _check_same_shape("mul", a, b)

    def vjp(g):
        _accumulate(a, g * b.data)
        _accumulate(b, g * a.data)

    return _node(a.data * b.data, (a, b), vjp)


def add_const(x, c):
    def vjp(g):
        _accumulate(x, g)

    return _node(x.data + c, (x,), vjp)


def mul_const(x, c):
    def vjp(g):
        _accumulate(x, g * c)

    return _node(x.data * c, (x,), vjp)


def rsub_const(c, x):
    """c - x, elementwise against a python scalar."""

    def vjp(g):
        _accumulate(x, -g)

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

    def vjp(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * ndim
            idx[axis % ndim] = slice(lo, hi)
            _accumulate(t, g[tuple(idx)])

    return _node(out_data, tensors, vjp)


# ---------------------------------------------------------------------------
# reductions, gathers, shape utilities


def sum_all(x):
    def vjp(g):
        _accumulate(x, np.full(x.shape, float(g)))

    return _node(np.sum(x.data), (x,), vjp)


def max_along(x, axis):
    """Max reduction along one axis; gradient routes to the first argmax."""
    idx = np.expand_dims(np.argmax(x.data, axis=axis), axis)
    out_data = np.max(x.data, axis=axis)

    def vjp(g):
        gx = np.zeros_like(x.data)
        np.put_along_axis(gx, idx, np.expand_dims(g, axis), axis)
        _accumulate(x, gx)

    return _node(out_data, (x,), vjp)


def take_rows(x, indices):
    """Gather rows of a 2-d tensor; gradient scatter-adds back.

    `indices` may have any shape, such as a batch's (batch, len) id
    matrix; the result has that shape plus the row width.

    The gradient is accumulated row-sparse: rows read more than once
    have their incoming gradients summed in occurrence order (row-major
    over `indices`), and only the unique rows and those sums are
    recorded on `x`. If `x` is a leaf the records outlive `backward()`;
    reading `x.grad` gives the dense array, equal bit for bit to
    scatter-adding every call's gradient into a zero table, and
    `_grad_rows(x)` gives just its touched rows.
    """
    if x.ndim != 2:
        raise ShapeError(f"take_rows expects 2-d, got {x.shape}")
    idx = np.asarray(indices, dtype=np.intp)

    def vjp(g):
        rows = idx.reshape(-1) % x.shape[0]  # in-range negative indices name the rows they read
        g = g.reshape(rows.size, x.shape[1])
        # slot of each row, in first-occurrence order; a dict beats np.unique
        # on the short index lists of sentences and pooled rows
        slot = {}
        inverse = [slot.setdefault(i, len(slot)) for i in rows.tolist()]
        if len(slot) == len(inverse):
            values = g
        else:
            rows = np.fromiter(slot, dtype=np.intp, count=len(slot))
            values = np.zeros((rows.size, x.shape[1]))
            np.add.at(values, inverse, g)
        _accumulate_rows(x, rows, values)

    return _node(x.data[idx], (x,), vjp)


def tile_rows(x, n):
    """Repeat a 1 x d row (one per item of a batch) n times; gradient sums the copies."""
    if x.ndim < 2 or x.shape[-2] != 1:
        raise ShapeError(f"tile_rows expects (..., 1, d) rows, got {x.shape}")

    def vjp(g):
        _accumulate(x, g.sum(axis=-2, keepdims=True))

    return _node(np.repeat(x.data, n, axis=-2), (x,), vjp)


def dropout(x, rate, rng):
    """Inverted dropout: zero with probability `rate`, scale survivors.

    Caller decides training vs inference; at rate 0 this is the identity
    and draws nothing from `rng`.
    """
    if rate == 0.0:
        return x
    keep = (rng.random(x.shape) >= rate) / (1.0 - rate)

    def vjp(g):
        _accumulate(x, g * keep)

    return _node(x.data * keep, (x,), vjp)


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
