import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sentmatch import tensor as T
from sentmatch.errors import ConfigError, NumericalError, ShapeError

import oracles


class TestMatmul:
    def test_identity(self):
        m = T.constant([[1.0, 2.0], [3.0, 4.0]])
        out = T.matmul(T.constant(np.eye(2)), m)
        np.testing.assert_array_equal(out.data, m.data)

    def test_permutation(self):
        out = T.matmul(T.constant([[1.0, 2.0], [3.0, 4.0]]), T.constant([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_array_equal(out.data, [[2.0, 1.0], [4.0, 3.0]])

    def test_random_against_loop_oracle(self, rng):
        a = rng.normal(size=(5, 4))
        b = rng.normal(size=(4, 3))
        out = T.matmul(T.constant(a), T.constant(b))
        np.testing.assert_allclose(out.data, oracles.matmul_loops(a, b), atol=1e-12)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            T.matmul(T.constant(np.zeros((2, 3))), T.constant(np.zeros((2, 3))))


class TestConv1d:
    def test_width_one_identity_kernel(self, rng):
        x = rng.normal(size=(6, 4))
        k = np.eye(4).reshape(1, 4, 4)
        out = T.conv1d(T.constant(x), T.constant(k))
        np.testing.assert_allclose(out.data, x, atol=1e-15)

    def test_hand_computed_sum_kernel(self):
        x = np.array([[1.0], [2.0], [3.0]])
        k = np.ones((3, 1, 1))
        out = T.conv1d(T.constant(x), T.constant(k))
        np.testing.assert_array_equal(out.data.ravel(), [3.0, 6.0, 5.0])

    def test_random_against_direct_summation(self, rng):
        x = rng.normal(size=(7, 3))
        k = rng.normal(size=(3, 3, 5))
        out = T.conv1d(T.constant(x), T.constant(k))
        np.testing.assert_allclose(out.data, oracles.conv1d_direct(x, k), atol=1e-12)

    def test_even_width_rejected(self):
        with pytest.raises(ConfigError):
            T.conv1d(T.constant(np.zeros((4, 2))), T.constant(np.zeros((2, 2, 2))))


class TestSoftmax:
    def test_uniform_on_equal_inputs(self):
        out = T.softmax(T.constant([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)

    def test_no_overflow_on_huge_gap(self):
        out = T.softmax(T.constant([1000.0, 0.0]))
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-9)

    def test_random_against_highprec_oracle(self, rng):
        x = rng.normal(size=6) * 3
        out = T.softmax(T.constant(x))
        np.testing.assert_allclose(out.data, oracles.softmax_highprec(x), atol=1e-12)

    def test_fully_masked_slice_is_uniform(self):
        out = T.softmax(T.constant(np.full((2, 4), -np.inf)), axis=1)
        np.testing.assert_allclose(out.data, np.full((2, 4), 0.25))
        out = T.softmax(T.constant(np.full(4, T.MASK_OFF)))
        np.testing.assert_allclose(out.data, np.full(4, 0.25))

    def test_mask_off_column_gets_exact_zero(self, rng):
        x = rng.normal(size=(3, 4))
        x[:, 2] = T.MASK_OFF
        out = T.softmax(T.constant(x), axis=1)
        assert np.all(out.data[:, 2] == 0.0)

    @given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=8))
    def test_slices_are_distributions(self, values):
        out = T.softmax(T.constant(values))
        assert np.all(out.data >= 0.0)
        assert abs(out.data.sum() - 1.0) <= 1e-12

    @given(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_2d_rows_sum_to_one(self, n, m, seed):
        x = np.random.default_rng(seed).normal(size=(n, m)) * 10
        out = T.softmax(T.constant(x), axis=1)
        np.testing.assert_allclose(out.data.sum(axis=1), np.ones(n), atol=1e-12)


class TestElementwise:
    def test_relu(self):
        np.testing.assert_array_equal(T.relu(T.constant([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0])

    def test_sigmoid_zero(self):
        assert T.sigmoid(T.constant([0.0])).data[0] == 0.5

    def test_sigmoid_is_the_per_sign_expression_bitwise(self, rng):
        edges = np.array([0.0, -0.0, 800.0, -800.0, 745.0, -745.0, 1e-300, -1e-300, np.inf, -np.inf, np.nan])
        for x in (edges, rng.normal(0.0, 20.0, size=(16, 38, 150))):
            with np.errstate(all="ignore"):
                got, want = T.sigmoid(T.constant(x)).data, oracles.sigmoid_per_sign(x)
            assert got.tobytes() == want.tobytes()

    def test_concat_axis0(self):
        out = T.concat([T.constant([1.0, 2.0]), T.constant([3.0])], axis=0)
        np.testing.assert_array_equal(out.data, [1.0, 2.0, 3.0])

    def test_add_shape_mismatch(self):
        with pytest.raises(ShapeError, match=r"\(2,\).*\(3,\)"):
            T.add(T.constant([1.0, 2.0]), T.constant([1.0, 2.0, 3.0]))

    def test_concat_shape_mismatch(self):
        with pytest.raises(ShapeError):
            T.concat([T.constant(np.zeros((2, 3))), T.constant(np.zeros((2, 4)))], axis=0)


def _weighted(fn):
    """Compose an op with a fixed random linear functional so that the
    scalar reduction in grad_check has a non-degenerate gradient."""

    def wrapped(inputs):
        out = fn(inputs)
        w = T.constant(np.random.default_rng(99).normal(size=out.shape))
        return T.mul(out, w)

    return wrapped


def _op_cases(rng):
    a33 = T.parameter(rng.normal(size=(3, 3)))
    b34 = T.parameter(rng.normal(size=(3, 4)))
    v5 = T.parameter(rng.normal(size=5))
    pos = T.parameter(rng.uniform(0.5, 2.0, size=(3, 3)))
    # keep relu/max inputs away from the kink/tie neighborhood
    spread = T.parameter(rng.normal(size=(3, 4)) + np.arange(12).reshape(3, 4) * 0.1 + 0.05)
    return [
        ("matmul", lambda ins: T.matmul(ins[0], ins[1]), [a33, b34]),
        ("conv1d", lambda ins: T.conv1d(ins[0], ins[1]), [T.parameter(rng.normal(size=(6, 3))), T.parameter(rng.normal(size=(3, 3, 2)))]),
        ("softmax", _weighted(lambda ins: T.softmax(ins[0], axis=1)), [b34]),
        ("softmax_vec", _weighted(lambda ins: T.softmax(ins[0])), [v5]),
        ("relu", lambda ins: T.relu(ins[0]), [spread]),
        ("tanh", lambda ins: T.tanh(ins[0]), [a33]),
        ("sigmoid", lambda ins: T.sigmoid(ins[0]), [a33]),
        ("log", lambda ins: T.log(ins[0]), [pos]),
        ("clamp_min", lambda ins: T.clamp_min(ins[0], 0.9), [pos]),
        ("add", lambda ins: T.add(ins[0], ins[1]), [a33, T.parameter(rng.normal(size=(3, 3)))]),
        ("sub", lambda ins: T.sub(ins[0], ins[1]), [a33, T.parameter(rng.normal(size=(3, 3)))]),
        ("mul", lambda ins: T.mul(ins[0], ins[1]), [a33, T.parameter(rng.normal(size=(3, 3)))]),
        ("add_const", lambda ins: T.add_const(ins[0], 2.5), [a33]),
        ("mul_const", lambda ins: T.mul_const(ins[0], -1.7), [a33]),
        ("rsub_const", lambda ins: T.rsub_const(1.0, ins[0]), [a33]),
        ("concat", _weighted(lambda ins: T.concat(ins, axis=1)), [a33, b34]),
        ("transpose", _weighted(lambda ins: T.transpose(ins[0])), [b34]),
        ("reshape", _weighted(lambda ins: T.reshape(ins[0], (4, 3))), [b34]),
        ("sum_all", lambda ins: T.sum_all(ins[0]), [b34]),
        ("max_along", _weighted(lambda ins: T.max_along(ins[0], axis=1)), [spread]),
        ("take_rows", _weighted(lambda ins: T.take_rows(ins[0], [2, 0, 2]), ), [b34]),
        ("tile_rows", _weighted(lambda ins: T.tile_rows(ins[0], 4)), [T.parameter(rng.normal(size=(1, 3)))]),
        ("dropout", lambda ins: T.dropout(ins[0], 0.4, np.random.default_rng(7)), [a33]),
    ] + _batched_op_cases(rng) + _masked_op_cases(rng)


# two items of 3 positions, the second padded after 2; rows 1 and 0 (<pad>) repeat
EMBED_IDS, EMBED_MASK = [[1, 4, 1], [2, 1, 0]], np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 0.0]])
EMBED_CONTEXTS = [np.linspace(-0.5, 0.5, 6, dtype=np.float32).reshape(3, 2), np.float32([[0.25, -0.75], [1.5, 0.125]])]


def _padded_batch(rng, shape, lengths):
    """(B, n, d) activations whose rows past each item's length are zero, as after masking."""
    data = rng.normal(size=shape)
    for item, length in enumerate(lengths):
        data[item, length:] = 0.0
    return T.parameter(data)


def _batched_op_cases(rng):
    """3-d cases of the ops that take a leading batch axis: B = 2, the second item padded."""
    x = _padded_batch(rng, (2, 4, 3), [4, 2])
    y = _padded_batch(rng, (2, 3, 3), [3, 1])
    w32 = T.parameter(rng.normal(size=(3, 2)))
    # masked logits as the attention blocks build them: MASK_OFF on the padded
    # columns (row softmax) or rows (column softmax) of the second item
    rows_masked, cols_masked = rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 3, 4))
    rows_masked[1, :, 2:] += T.MASK_OFF
    cols_masked[1, 2:, :] += T.MASK_OFF
    spread = rng.normal(size=(2, 3, 4)) + np.arange(24).reshape(2, 3, 4) * 0.1 + 0.05
    return [
        ("matmul_shared_batched", lambda ins: T.matmul(ins[0], ins[1]), [x, w32]),
        ("matmul_batched", lambda ins: T.matmul(ins[0], T.transpose(ins[1])), [x, y]),
        ("transpose_batched", _weighted(lambda ins: T.transpose(ins[0])), [x]),
        ("reshape_batched", _weighted(lambda ins: T.reshape(ins[0], (2, 1, 12))), [x]),
        ("conv1d_batched", lambda ins: T.conv1d(ins[0], ins[1]), [x, T.parameter(rng.normal(size=(3, 3, 2)))]),
        ("softmax_rows_batched", _weighted(lambda ins: T.softmax(ins[0], axis=-1)), [T.parameter(rows_masked)]),
        ("softmax_cols_batched", _weighted(lambda ins: T.softmax(ins[0], axis=-2)), [T.parameter(cols_masked)]),
        ("max_along_batched", _weighted(lambda ins: T.max_along(ins[0], axis=-1)), [T.parameter(spread)]),
        ("max_along_cols_batched", _weighted(lambda ins: T.max_along(ins[0], axis=-2)), [T.parameter(spread.copy())]),
        ("take_rows_batched", _weighted(lambda ins: T.take_rows(ins[0], [[2, 0, 2], [1, 1, 0]])), [T.parameter(rng.normal(size=(3, 4)))]),
        ("tile_rows_batched", _weighted(lambda ins: T.tile_rows(ins[0], 3)), [T.parameter(rng.normal(size=(2, 1, 3)))]),
        ("embed_rows", _weighted(lambda ins: T.embed_rows(ins[0], EMBED_IDS, EMBED_MASK)), [T.parameter(rng.normal(size=(5, 3)))]),
        (
            "embed_rows_ctx_dropout",
            _weighted(lambda ins: T.embed_rows(ins[0], EMBED_IDS, EMBED_MASK, EMBED_CONTEXTS, 2, 0.3, np.random.default_rng(7))),
            [T.parameter(rng.normal(size=(5, 3)))],
        ),
    ]


def _masked_op_cases(rng):
    """The ops' `mask` arguments, on one pair's 2-d and a batch's 3-d arrays.

    Every slice keeps a position: a fully masked one has no gradient that
    finite differences can see (the perturbation vanishes into MASK_OFF).
    """
    # positions along the last axis (4) and along axis -2 (3); the second item is padded
    last, rows = np.array([[1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 0.0, 0.0]]), np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 0.0]])
    # keep max inputs away from ties
    spread = rng.normal(size=(2, 3, 4)) + np.arange(24).reshape(2, 3, 4) * 0.1 + 0.05
    return [
        ("softmax_masked", _weighted(lambda ins: T.softmax(ins[0], axis=-1, mask=[1.0, 0.0, 1.0, 1.0])), [T.parameter(rng.normal(size=(3, 4)))]),
        ("softmax_masked_cols", _weighted(lambda ins: T.softmax(ins[0], axis=-2, mask=[0.0, 1.0, 1.0])), [T.parameter(rng.normal(size=(3, 4)))]),
        ("softmax_masked_batched", _weighted(lambda ins: T.softmax(ins[0], axis=-1, mask=last)), [T.parameter(rng.normal(size=(2, 3, 4)))]),
        ("softmax_masked_cols_batched", _weighted(lambda ins: T.softmax(ins[0], axis=-2, mask=rows)), [T.parameter(rng.normal(size=(2, 3, 4)))]),
        ("max_along_masked", _weighted(lambda ins: T.max_along(ins[0], axis=-1, mask=[0.0, 1.0, 1.0, 0.0])), [T.parameter(spread[0].copy())]),
        ("max_along_masked_batched", _weighted(lambda ins: T.max_along(ins[0], axis=-1, mask=last)), [T.parameter(spread.copy())]),
        ("max_along_masked_cols_batched", _weighted(lambda ins: T.max_along(ins[0], axis=-2, mask=rows)), [T.parameter(spread.copy())]),
        ("mask_rows", _weighted(lambda ins: T.mask_rows(ins[0], [1.0, 0.0, 1.0])), [T.parameter(rng.normal(size=(3, 4)))]),
        ("mask_rows_batched", _weighted(lambda ins: T.mask_rows(ins[0], rows)), [T.parameter(rng.normal(size=(2, 3, 4)))]),
    ]


OP_NAMES = [c[0] for c in _op_cases(np.random.default_rng(0))]


@pytest.mark.parametrize("seed", range(21))
@pytest.mark.parametrize("op_name", OP_NAMES)
def test_gradients_match_finite_differences(op_name, seed):
    rng = np.random.default_rng(seed)
    cases = {name: (fn, ins) for name, fn, ins in _op_cases(rng)}
    fn, ins = cases[op_name]
    report = T.grad_check(fn, ins, tolerance=1e-4)
    assert report.passed, f"{op_name} seed {seed}: {report}"


def _masked_and_composed(name, axis):
    """The engine op taking `mask`, and the composition of plain ops it replaces."""
    if name == "mask_rows":
        return T.mask_rows, lambda x, m: oracles.mask_rows_composed(T, x, m)
    op = getattr(T, name)
    return (
        lambda x, m: op(x, axis=axis, mask=m),
        lambda x, m: op(oracles.mask_bias_composed(T, x, m, axis), axis=axis),
    )


class TestMaskArgument:
    @pytest.mark.parametrize("shape", [(3, 5), (4, 3, 5)])
    @pytest.mark.parametrize("name, axis", [("softmax", -1), ("softmax", -2), ("max_along", -1), ("max_along", -2), ("mask_rows", -2)])
    @pytest.mark.parametrize("seed", range(6))
    def test_bitwise_the_composition_it_replaces(self, seed, name, axis, shape):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=shape) * 3.0
        data[rng.random(shape) < 0.25] = -0.0
        data[rng.random(shape) < 0.1] = 0.0
        big = rng.random(shape) < 0.1
        data[big] = rng.choice([-1e20, 1e20], size=big.sum())  # large enough that adding MASK_OFF rounds
        mask = (rng.random(shape[:-2] + (shape[axis],)) < 0.6).astype(np.float64)
        if seed == 0:
            mask[...] = 0.0  # every slice fully masked
        elif len(shape) == 3:
            mask[0], mask[1] = 0.0, 1.0  # a fully masked item and an unpadded one
        runs = []
        for fn in _masked_and_composed(name, axis):
            x = T.parameter(data.copy())
            out = fn(x, mask)
            w = np.random.default_rng(100 + seed).normal(size=out.shape)
            w[w < -1.0] = -0.0
            T.sum_all(T.mul(out, T.constant(w))).backward()
            runs.append((out.data.tobytes(), x.grad.tobytes()))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize(
        "call, mask_shape, x_shape",
        [
            (lambda x, m: T.softmax(x, axis=-1, mask=m), (2, 3), (2, 3, 4)),
            (lambda x, m: T.softmax(x, axis=-2, mask=m), (2, 4), (2, 3, 4)),
            (lambda x, m: T.softmax(x, mask=m), (4,), (4,)),
            (lambda x, m: T.max_along(x, axis=-1, mask=m), (4,), (2, 3, 4)),
            (lambda x, m: T.max_along(x, axis=0, mask=m), (2,), (2, 3, 4)),
            (lambda x, m: T.mask_rows(x, m), (2, 4), (2, 3, 4)),
        ],
        ids=["wrong-axis", "wrong-axis-cols", "vector", "no-batch-axis", "leading-axis", "mask-rows-width"],
    )
    def test_a_mask_of_another_shape_is_a_shape_error_naming_both(self, call, mask_shape, x_shape):
        with pytest.raises(ShapeError, match=re.escape(str(mask_shape)) + ".*" + re.escape(str(x_shape))):
            call(T.parameter(np.ones(x_shape)), np.ones(mask_shape))


class TestBackward:
    def test_shared_input_accumulates_once_per_path(self, rng):
        x = T.parameter(rng.normal(size=4))
        out = T.sum_all(T.mul(x, x))
        out.backward()
        np.testing.assert_allclose(x.grad, 2.0 * x.data, atol=1e-14)

    def test_every_leaf_gets_a_gradient(self, rng):
        leaves = [T.parameter(rng.normal(size=(3, 3))) for _ in range(3)]
        out = T.sum_all(T.add(T.matmul(leaves[0], leaves[1]), T.tanh(leaves[2])))
        out.backward()
        for leaf in leaves:
            assert leaf.grad is not None and leaf.grad.shape == leaf.shape

    def test_constants_do_not_collect_gradients(self, rng):
        x = T.parameter(rng.normal(size=(2, 2)))
        c = T.constant(rng.normal(size=(2, 2)))
        T.sum_all(T.mul(x, c)).backward()
        assert c.grad is None

    def test_backward_requires_scalar(self, rng):
        x = T.parameter(rng.normal(size=(2, 2)))
        with pytest.raises(ShapeError):
            T.relu(x).backward()

    def test_repeated_backward_does_not_accumulate(self, rng):
        x = T.parameter(rng.normal(size=3))
        out = T.sum_all(T.mul(x, x))
        out.backward()
        first = x.grad.copy()
        out.backward()
        np.testing.assert_array_equal(x.grad, first)

    def test_only_leaves_keep_their_gradients(self, rng):
        table, w = T.parameter(rng.normal(size=(10, 4))), T.parameter(rng.normal(size=(4, 4)))
        frozen = T.constant(rng.normal(size=(3, 4)))
        loss = T.sum_all(T.tanh(T.matmul(T.add(T.take_rows(table, [3, 1, 3]), frozen), w)))
        loss.backward()
        interior, stack = [], [loss]
        while stack:
            node = stack.pop()
            if node._vjp is not None:
                interior.append(node)
                stack.extend(node._parents)
        assert len(interior) == 5
        assert all(node.grad is None for node in interior)
        assert T._grad_rows(table)[0].tolist() == [1, 3], "a leaf keeps its row records"
        assert w.grad.shape == (4, 4) and frozen.grad is None

    def test_backward_memory_does_not_grow_with_chain_length(self):
        x = T.parameter(np.ones(1 << 17))  # 1 MB
        peaks = []
        for length in (4, 32):
            h = x
            for _ in range(length):
                h = T.tanh(T.mul_const(h, 0.5))
            loss = T.sum_all(h)
            tracemalloc.start()
            try:
                loss.backward()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # each interior gradient is freed once its vjp has fired
        assert peaks[1] < peaks[0] + x.data.nbytes, f"{peaks[1] / x.data.nbytes:.1f} MB for 32 links vs {peaks[0] / x.data.nbytes:.1f} MB for 4"

    def test_deep_chain_terminates(self):
        x = T.parameter(np.ones(4))
        h = x
        for _ in range(300):
            h = T.add_const(T.mul_const(h, 0.999), 0.001)
        T.sum_all(h).backward()
        assert x.grad is not None


class TestGradCheckHarness:
    def test_reports_max_relative_error(self, rng):
        report = T.grad_check(lambda ins: T.tanh(ins[0]), [T.parameter(rng.normal(size=4))])
        assert report.max_rel_err <= 1e-4
        assert report.passed

    def test_nonfinite_raises_with_coordinate(self, rng):
        x = T.parameter(rng.normal(size=3))
        bad = T.constant([np.nan, 1.0, 1.0])
        with pytest.raises(NumericalError, match="coordinate"):
            T.grad_check(lambda ins: T.mul(ins[0], bad), [x])


def dense_take_rows(x, indices):
    """take_rows with the original dense scatter-add backward (reference)."""
    idx = np.asarray(indices, dtype=np.intp)

    def vjp(g):
        T._accumulate(x, oracles.take_rows_dense_grad(x.shape[0], idx, g))

    return T._node(x.data[idx], (x,), vjp)


# rows 3 and 7 repeat inside one sentence and across sentences; -1 is row 9
SENTENCES = [[3, 1, 3, 7], [7, 7, 0], [3, 9, -1, 3, 5], [2], [7, 3, 3, 3, 3], [4, 8, 6]]


def _tap(x, sink):
    """`x` through an identity node whose vjp appends the gradient reaching it to `sink`.

    Backward frees an interior node's gradient once its vjp has fired, so
    a test reads an interior gradient through a tap.
    """

    def vjp(g):
        sink.append(g)
        T._accumulate(x, g)

    return T._node(x.data, (x,), vjp)


def _gather_graph(gather, table, w, mix_dense):
    """Loss over several lookups plus, per hidden node, the list its gradient lands in.

    With `mix_dense` each hidden node is also read by a gather, before or
    after a dense op depending on the sentence, as the heads do.
    """
    loss, hidden = None, []
    for i, ids in enumerate(SENTENCES):
        hidden.append([])
        h = _tap(T.tanh(T.matmul(gather(table, ids), w)), hidden[-1])
        if mix_dense:
            reads = [gather(h, [0, len(ids) - 1, 0]), T.relu(h)]
            h = T.concat(reads[:: 1 if i % 2 else -1], axis=0)
        part = T.sum_all(T.tanh(T.matmul(h, w)))
        loss = part if loss is None else T.add(loss, part)
    return loss, hidden


class TestRowSparseGather:
    @pytest.mark.parametrize("mix_dense", [False, True])
    @pytest.mark.parametrize("seed", range(5))
    def test_gradient_is_bitwise_the_dense_scatter(self, seed, mix_dense):
        rng = np.random.default_rng(seed)
        table_data, w_data = rng.normal(size=(10, 4)), rng.normal(size=(4, 4))
        grads = []
        for gather in (T.take_rows, dense_take_rows):
            table, w = T.parameter(table_data.copy()), T.parameter(w_data.copy())
            loss, hidden = _gather_graph(gather, table, w, mix_dense)
            loss.backward()
            assert all(len(sink) == 1 for sink in hidden), "each hidden node's vjp fires once"
            grads.append([table.grad, w.grad] + [sink[0] for sink in hidden])
        sparse, dense = grads
        assert type(sparse[0]) is np.ndarray and sparse[0].shape == table_data.shape
        for got, want in zip(sparse, dense):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("ids", [[1, 4, 1], [4, 1, 5]])
    def test_negative_zero_gradient_lands_as_positive_zero(self, rng, ids):
        # the dense scatter adds onto +0.0, which turns -0.0 into +0.0
        weights = T.constant(np.array([[-0.0, 1.0, 0.0]] * 3))
        grads = []
        for gather in (T.take_rows, dense_take_rows):
            table = T.parameter(rng.normal(size=(6, 3)))
            T.sum_all(T.mul(gather(table, ids), weights)).backward()
            grads.append(table.grad)
        assert grads[0].tobytes() == grads[1].tobytes()
        assert not np.signbit(grads[0]).any()

    @pytest.mark.parametrize("mix_dense", [False, True])
    def test_leaf_keeps_its_rows_until_grad_is_read(self, rng, mix_dense):
        table_data, w_data = rng.normal(size=(10, 4)), rng.normal(size=(4, 4))
        want = T.parameter(table_data.copy())
        _gather_graph(dense_take_rows, want, T.parameter(w_data.copy()), mix_dense)[0].backward()
        table = T.parameter(table_data.copy())
        _gather_graph(T.take_rows, table, T.parameter(w_data.copy()), mix_dense)[0].backward()
        rows, values = T._grad_rows(table)
        touched = sorted({i % 10 for ids in SENTENCES for i in ids})
        assert rows.tolist() == touched
        assert values.tobytes() == want.grad[rows].tobytes()
        assert T._grad_rows(table)[1] is values, "coalesced once, then kept"
        assert table.grad.tobytes() == want.grad.tobytes()
        assert T._grad_rows(table) is None, "reading grad turns the rows dense"

    def test_backward_memory_does_not_scale_with_lookups(self, rng):
        table = T.parameter(rng.normal(size=(20000, 32)))
        lookups = [T.take_rows(table, rng.integers(0, 20000, size=12)) for _ in range(40)]
        loss = T.sum_all(T.concat(lookups, axis=0))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            loss.backward()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert type(table.grad) is np.ndarray
        # one dense gradient buffer plus small per-lookup records
        assert peak < 1.5 * table.data.nbytes, f"backward peaked at {peak / table.data.nbytes:.2f} table sizes"


# two sides of a batch over one table: <pad> (row 0) pads them, rows repeat
# within a sentence, across its items and across the sides
EMBED_SIDES = [
    ([[3, 1, 3, 7, 2], [7, 7, 0, 0, 0], [5, 3, 9, 0, 0]], [5, 2, 3]),
    ([[6, 3, 0], [1, 1, 1], [8, 0, 0]], [2, 3, 1]),
]


def _embed_sides(embed, table, contexts, ctx_dim, rate, rng):
    """Both sides' embeddings in the model's order: side a's draws, then side b's."""
    outs = []
    for (ids, lengths), side_contexts in zip(EMBED_SIDES, contexts):
        mask = (np.arange(len(ids[0])) < np.array(lengths)[:, None]).astype(np.float64)
        outs.append(embed(table, np.array(ids), mask, side_contexts if ctx_dim else None, ctx_dim, rate, rng))
    return outs


class TestEmbedRows:
    @pytest.mark.parametrize("frozen", [False, True])
    @pytest.mark.parametrize("rate", [0.0, 0.2])
    @pytest.mark.parametrize("ctx_dim", [0, 64])
    @pytest.mark.parametrize("seed", range(3))
    def test_bitwise_the_composed_ops(self, seed, ctx_dim, rate, frozen):
        rng = np.random.default_rng(seed)
        table_data = rng.normal(size=(10, 6))
        table_data[0] = -np.abs(table_data[0]) - 0.5  # a <pad> row of negatives: masking leaves -0.0
        contexts = [[rng.uniform(-0.5, 0.5, size=(n, ctx_dim)).astype(np.float32) for n in lengths] for _, lengths in EMBED_SIDES]
        runs = []
        for embed in (T.embed_rows, lambda *args: oracles.embed_rows_composed(T, *args)):
            table = T.Tensor(table_data.copy(), requires_grad=not frozen)
            draws = np.random.default_rng(100 + seed)
            outs = _embed_sides(embed, table, contexts, ctx_dim, rate, draws)
            run = [out.data.tobytes() for out in outs] + [draws.bit_generator.state]
            if frozen:
                assert not any(out.requires_grad or out._vjp is not None for out in outs), "a frozen table gives constants"
            else:
                w = np.random.default_rng(seed).normal(size=outs[0].shape)
                loss = T.add(T.sum_all(T.mul(T.tanh(outs[0]), T.constant(w))), T.sum_all(T.tanh(outs[1])))
                loss.backward()
                rows, values = T._grad_rows(table)
                run += [rows.tolist(), values.tobytes(), table.grad.tobytes()]
            runs.append(run)
        assert runs[0] == runs[1]
        if rate == 0.0:
            assert runs[0][2] == np.random.default_rng(100 + seed).bit_generator.state, "rate 0 draws nothing"

    def test_training_keeps_only_the_table_columns_of_the_dropout_scale(self):
        table = T.parameter(np.ones((4, 8)))
        contexts = [np.ones((16, 120), dtype=np.float32)] * 4
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            out = T.embed_rows(table, np.ones((4, 16), dtype=np.intp), np.ones((4, 16)), contexts, 120, 0.5, np.random.default_rng(0))
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the (4, 16, 128) output plus a (4, 16, 8) scale, not a whole-width one
        assert held < 1.25 * out.data.nbytes, f"the node holds {held / out.data.nbytes:.2f} outputs"


def _bits(x):
    return np.float64(x).tobytes()


# magnitudes from 1e-150 to 1e150 with both signs, and both zeros
_SPREAD = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.builds(lambda m, e: m * 10.0**e, st.floats(-10.0, 10.0), st.integers(-150, 150)),
)


@st.composite
def _row_sparse_gradients(draw):
    """A (V, d) table shape, sorted unique touched rows and their values."""
    d = draw(st.one_of(st.integers(1, 7), st.integers(8, 40), st.sampled_from([8, 16, 100])))
    n_rows = draw(st.one_of(st.just(1), st.integers(1, 128 // d + 1), st.integers(2, 300)))
    # rows holding the first and the last value and both sides of every numpy summation leaf boundary
    leaf_start = T._pairwise_tree(n_rows * d)[1].tolist()
    edges = sorted({0, n_rows - 1} | {s // d for s in leaf_start} | {(s - 1) // d for s in leaf_start[1:]})
    picks = st.one_of(st.sampled_from(edges), st.integers(0, n_rows - 1))
    rows = np.array(sorted(draw(st.sets(picks, min_size=1, max_size=min(n_rows, 24)))), dtype=np.intp)
    # values of one magnitude round differently under another summation order
    elements = draw(st.sampled_from([_SPREAD, st.floats(-10.0, 10.0)]))
    values = draw(hnp.arrays(np.float64, (rows.size, d), elements=elements))
    return (n_rows, d), rows, values


class TestRowSumSquares:
    @settings(max_examples=100)
    @given(_row_sparse_gradients())
    def test_bitwise_the_dense_sum(self, case):
        shape, rows, values = case
        g = np.zeros(shape)
        g[rows] = values
        assert _bits(T.rows_sum_squares(shape, rows, values)) == _bits(float(np.sum(g * g)))

    @pytest.mark.parametrize("d", [1, 3, 7, 8, 9, 13, 16, 33])
    def test_bitwise_the_dense_sum_on_small_tables(self, rng, d):
        for n_rows in range(1, 40):
            rows = np.flatnonzero(rng.random(n_rows) < 0.6)
            rows = np.union1d(rows, [n_rows - 1])
            values = rng.normal(size=(rows.size, d))
            g = np.zeros((n_rows, d))
            g[rows] = values
            assert _bits(T.rows_sum_squares(g.shape, rows, values)) == _bits(float(np.sum(g * g))), (n_rows, d)

    @pytest.mark.parametrize("seed", range(3))
    def test_bitwise_the_dense_sum_at_paper_widths(self, seed):
        rng = np.random.default_rng(seed)
        shape = (40400, 300)
        rows = np.unique(np.concatenate([[0, shape[0] - 1], rng.integers(0, shape[0], size=600)]))
        values = rng.normal(size=(rows.size, shape[1])) * 10.0 ** rng.uniform(-100, 100, size=(rows.size, 1))
        g = np.zeros(shape)
        g[rows] = values
        assert _bits(T.rows_sum_squares(shape, rows, values)) == _bits(float(np.sum(g * g)))

    def test_no_rows_sum_to_zero(self):
        assert _bits(T.rows_sum_squares((5, 3), np.empty(0, dtype=np.intp), np.empty((0, 3)))) == _bits(0.0)


@st.composite
def _gradient_sequences(draw):
    """A (V, d) table and the gradients that reach it, in firing order.

    Each event is a `take_rows` or `embed_rows` call (indices may repeat
    and be negative; `take_rows` may read nothing) with the gradient of
    its output, or a dense contribution of the table's shape. Values
    include both zeros, or are of one magnitude, so that another order
    of the sums would round differently.
    """
    n_rows, d = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    index = st.integers(-n_rows, n_rows - 1)
    elements = draw(st.sampled_from([_SPREAD, st.floats(-10.0, 10.0)]))
    events = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["take_rows", "embed_rows", "dense"]))
        if kind == "dense":
            events.append((kind, draw(hnp.arrays(np.float64, (n_rows, d), elements=elements))))
        elif kind == "take_rows":
            idx = draw(hnp.arrays(np.intp, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=4), elements=index))
            events.append((kind, idx, draw(hnp.arrays(np.float64, idx.shape + (d,), elements=elements))))
        else:
            ids = draw(hnp.arrays(np.intp, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=4), elements=index))
            mask = draw(hnp.arrays(np.float64, ids.shape, elements=st.sampled_from([0.0, 1.0])))
            ctx_dim = draw(st.sampled_from([0, 2]))
            events.append((kind, ids, mask, ctx_dim, draw(hnp.arrays(np.float64, ids.shape + (d + ctx_dim,), elements=elements))))
    return (n_rows, d), events


def _loss_firing_in_order(table, events):
    """A loss whose backward hands `table` each event's gradient in the listed order.

    Backward fires the terms of a left-nested sum last-built first, so
    the terms are built in reverse.
    """
    loss = None
    for kind, *args in reversed(events):
        if kind == "dense":
            out = table
        elif kind == "take_rows":
            out = T.take_rows(table, args[0])
        else:
            ids, mask, ctx_dim, _ = args
            contexts = [np.zeros((ids.shape[1], ctx_dim))] * len(ids) if ctx_dim else None
            out = T.embed_rows(table, ids, mask, contexts, ctx_dim)
        term = T.sum_all(T.mul(out, T.constant(args[-1])))
        loss = term if loss is None else T.add(loss, term)
    return loss


def _dense_sum_of(n_rows, events):
    """The events' dense gradients added in order, each gather's scattered by the original vjp."""
    want = None
    for kind, *args in events:
        if kind == "dense":
            part = args[0]
        elif kind == "take_rows":
            part = oracles.take_rows_dense_grad(n_rows, *args)
        else:
            ids, mask, ctx_dim, g = args
            part = oracles.take_rows_dense_grad(n_rows, ids, g[..., : g.shape[-1] - ctx_dim] * mask[..., None])
        want = part if want is None else want + part
    return want


class TestRowSparseSequences:
    @settings(max_examples=150, deadline=None)
    @given(_gradient_sequences(), st.booleans())
    def test_any_sequence_is_bitwise_the_dense_scatter(self, case, interior):
        (n_rows, d), events = case
        leaf = T.parameter(np.linspace(-1.0, 1.0, n_rows * d).reshape(n_rows, d))
        # an interior table has its row pair turned dense inside backward, before its vjp fires
        table = T.reshape(leaf, (n_rows, d)) if interior else leaf
        _loss_firing_in_order(table, events).backward()
        want = _dense_sum_of(n_rows, events)
        pair = T._grad_rows(leaf)
        if interior or any(kind == "dense" for kind, *_ in events):
            assert pair is None
        else:
            rows, values = pair
            gathered = np.concatenate([np.ravel(args[0]) % n_rows for _, *args in events])
            assert rows.tolist() == np.unique(gathered).tolist(), "sorted and unique"
            assert values.shape == (rows.size, d)
            assert T._grad_rows(leaf) is pair and leaf._grad is None, "reading the pair changes nothing"
            assert values.tobytes() == want[rows].tobytes()
        assert leaf.grad.tobytes() == want.tobytes()
