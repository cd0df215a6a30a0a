import dataclasses
import json
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sentmatch import tensor as T
from sentmatch.checkpoint import load_checkpoint, save_checkpoint
from sentmatch.config import TrainConfig
from sentmatch.data import RawPair, build_vocab, group_by_question, tokenize_pairs
from sentmatch.embedding import StubContextualProvider, Vocab
from sentmatch.errors import DataError, NumericalError
from sentmatch.metrics import map_mrr
from sentmatch.synthetic import make_classification_pairs, make_ranking_groups
import sentmatch.trainer as trainer_mod
from sentmatch.trainer import _snapshot, adam_step, clip_gradients, evaluate, evaluate_checkpoint, run_ablations, train

import oracles
from test_tensor import _SPREAD, dense_take_rows

LABELS = {"entailment": 0, "contradiction": 1, "neutral": 2}


def _classify_pairs(n, seed):
    return [RawPair(LABELS[l], a, b) for l, a, b in make_classification_pairs(n, seed=seed)]


def _ranking_pairs(n_questions, seed):
    return [RawPair(int(l), a, b, g) for l, a, b, g in make_ranking_groups(n_questions, seed=seed)]


def _tiny_cfg(**kw):
    base = dict(task="snli", static_dim=12, contextual_dim=0, hidden=8, epochs=2, batch_size=16, seed=3, dropout=0.1)
    base.update(kw)
    return TrainConfig(**base)


class TestAdam:
    def test_first_step_magnitude_is_learning_rate(self):
        cfg = _tiny_cfg(lr=0.01)
        p = T.parameter(np.zeros((2, 2)))
        p.grad = np.full((2, 2), 3.7)
        params = {"w": p}
        m = {"w": np.zeros((2, 2))}
        v = {"w": np.zeros((2, 2))}
        adam_step(params, m, v, t=1, cfg=cfg, live={})
        # bias correction makes the first update lr * g / (|g| + eps)
        np.testing.assert_allclose(p.data, -cfg.lr * np.sign(3.7), rtol=1e-6)

    def test_zero_gradient_from_fresh_state_changes_nothing(self):
        cfg = _tiny_cfg()
        p = T.parameter(np.ones((2, 2)) * 5.0)
        p.grad = np.zeros((2, 2))
        params = {"w": p}
        m = {"w": np.zeros((2, 2))}
        v = {"w": np.zeros((2, 2))}
        live = {}
        for t in range(1, 4):
            adam_step(params, m, v, t=t, cfg=cfg, live=live)
        np.testing.assert_array_equal(p.data, np.ones((2, 2)) * 5.0)
        np.testing.assert_array_equal(m["w"], np.zeros((2, 2)))

    def test_no_gradient_is_bitwise_an_explicit_zero_gradient(self, rng):
        # the recurrences still run with g = 0, so a tensor with non-zero moments moves
        cfg = _tiny_cfg(lr=0.1)
        start = rng.normal(size=(3, 4))
        runs = []
        for zero_grad in (False, True):
            p = T.parameter(start.copy())
            m, v, live = {"w": np.zeros((3, 4))}, {"w": np.zeros((3, 4))}, {}
            p.grad = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
            adam_step({"w": p}, m, v, t=1, cfg=cfg, live=live)
            after_one = p.data.copy()
            p.grad = np.zeros((3, 4)) if zero_grad else None
            adam_step({"w": p}, m, v, t=2, cfg=cfg, live=live)
            assert not np.array_equal(p.data, after_one), "non-zero moments move the tensor"
            runs.append((p.data.copy(), m["w"].copy(), v["w"].copy()))
        assert [a.tobytes() for a in runs[0]] == [a.tobytes() for a in runs[1]]

    def test_no_gradient_on_a_row_sparse_table_is_bitwise_an_explicit_zero_row_gradient(self, rng):
        cfg = _tiny_cfg(lr=0.1)
        start = rng.normal(size=(40, 4))
        runs = []
        for zero_grad in (False, True):
            table = T.parameter(start.copy())
            m, v, live = {"t": np.zeros((40, 4))}, {"t": np.zeros((40, 4))}, {}
            T.sum_all(T.tanh(T.take_rows(table, [3, 7, 7]))).backward()
            adam_step({"t": table}, m, v, t=1, cfg=cfg, live=live)
            after_one = table.data.copy()
            if zero_grad:
                T.sum_all(T.mul(T.take_rows(table, [3, 7]), T.constant(np.zeros((2, 4))))).backward()
                assert T._grad_rows(table)[0].tolist() == [3, 7], "a zero row pair on the live rows"
            adam_step({"t": table}, m, v, t=2, cfg=cfg, live=live)
            assert live["t"].tolist() == [3, 7]
            assert not np.array_equal(table.data[[3, 7]], after_one[[3, 7]]), "live rows with non-zero moments move"
            runs.append((table.data.copy(), m["t"].copy(), v["t"].copy()))
        assert [a.tobytes() for a in runs[0]] == [a.tobytes() for a in runs[1]]

    def test_matches_scalar_recurrence_oracle(self, rng):
        cfg = _tiny_cfg(lr=0.003)
        grads = rng.normal(size=12)
        p = T.parameter(np.array([[0.0]]))
        params = {"w": p}
        m = {"w": np.zeros((1, 1))}
        v = {"w": np.zeros((1, 1))}
        live = {}
        for t, g in enumerate(grads, start=1):
            p.grad = np.array([[g]])
            adam_step(params, m, v, t=t, cfg=cfg, live=live)
        x, om, ov = oracles.adam_scalar(grads, cfg.lr, cfg.beta1, cfg.beta2, cfg.adam_eps)
        assert abs(p.data[0, 0] - x) <= 1e-12
        assert abs(m["w"][0, 0] - om) <= 1e-12
        assert abs(v["w"][0, 0] - ov) <= 1e-12

    def test_in_place_update_is_bitwise_the_dense_expression(self, rng):
        cfg = _tiny_cfg(lr=0.01)
        shapes = {"a": (3, 4), "b": (5,), "c": (2, 2, 3)}
        params = {n: T.parameter(rng.normal(size=s)) for n, s in shapes.items()}
        m = {n: np.zeros(s) for n, s in shapes.items()}
        v = {n: np.zeros(s) for n, s in shapes.items()}
        ref = {n: (p.data.copy(), np.zeros(shapes[n]), np.zeros(shapes[n])) for n, p in params.items()}
        live = {}
        for t in range(1, 8):
            for n, p in params.items():
                p.grad = None if (t + len(n)) % 3 == 0 else rng.normal(size=shapes[n])
                if p.grad is not None:
                    p.grad.reshape(-1)[:2] = [0.0, -0.0]
                ref[n] = oracles.adam_dense(*ref[n], p.grad, t, cfg.lr, cfg.beta1, cfg.beta2, cfg.adam_eps)
            adam_step(params, m, v, t=t, cfg=cfg, live=live)
            for n, p in params.items():
                assert p.grad is None, "the step consumes the gradient"
                want_x, want_m, want_v = ref[n]
                assert p.data.tobytes() == want_x.tobytes(), f"{n} step {t}"
                assert m[n].tobytes() == want_m.tobytes() and v[n].tobytes() == want_v.tobytes(), f"{n} step {t}"

    def test_snapshot_survives_later_in_place_steps(self, rng):
        pairs = _classify_pairs(12, seed=15)
        result = train(_tiny_cfg(epochs=1), pairs)
        model, cfg = result.model, result.model.cfg
        m = {n: np.zeros_like(t.data) for n, t in model.params.items() if t.requires_grad}
        v = {n: np.zeros_like(t.data) for n, t in model.params.items() if t.requires_grad}
        live = {}

        def step(t):
            for p in model.params.values():
                p.grad = rng.normal(size=p.shape)
            adam_step(model.params, m, v, t=t, cfg=cfg, live=live)

        step(1)
        ck = _snapshot(model, 0, result.checkpoint.vocab)

        def saved_bytes():
            return [t.data.tobytes() for t in ck.params.values()]

        before = saved_bytes()
        table = model.params["embed.static"].data.tobytes()
        for t in (2, 3):
            step(t)
        assert model.params["embed.static"].data.tobytes() != table
        assert saved_bytes() == before

    def test_clip_rescales_to_maximum_norm(self):
        p1 = T.parameter(np.zeros(3))
        p2 = T.parameter(np.zeros(4))
        p1.grad = np.full(3, 10.0)
        p2.grad = np.full(4, 10.0)
        params = {"a": p1, "b": p2}
        norm = clip_gradients(params, max_norm=5.0)
        assert norm > 5.0
        total = np.sqrt(sum(float(np.sum(p.grad**2)) for p in params.values()))
        assert abs(total - 5.0) <= 1e-9

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_non_finite_update_names_the_parameter(self):
        cfg = _tiny_cfg(lr=1e308)
        params = {"a": T.parameter(np.zeros((2, 2))), "b": T.parameter(np.full((2, 2), -1e308))}
        for p in params.values():
            p.grad = np.ones((2, 2))
        m = {n: np.zeros((2, 2)) for n in params}
        v = {n: np.zeros((2, 2)) for n in params}
        with pytest.raises(NumericalError, match=r"parameter b is non-finite after Adam step 1"):
            adam_step(params, m, v, t=1, cfg=cfg, live={})

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_non_finite_row_update_names_the_table(self):
        cfg = _tiny_cfg(lr=1e308)
        table = T.parameter(np.full((10, 2), -1e308))
        T.sum_all(T.take_rows(table, [3])).backward()
        with pytest.raises(NumericalError, match=r"parameter embed.static is non-finite after Adam step 1"):
            adam_step({"embed.static": table}, {"embed.static": np.zeros((10, 2))}, {"embed.static": np.zeros((10, 2))}, t=1, cfg=cfg, live={})


def _bits(x):
    return np.float64(x).tobytes()


@st.composite
def _clip_cases(draw):
    """A row pair on a (V, d) table, the dense gradient of a second tensor, and a clip norm."""
    d = draw(st.one_of(st.integers(1, 8), st.integers(1, 300)))
    n_rows = draw(st.one_of(st.integers(1, 40), st.integers(1, 40400)))
    rows = np.array(sorted(draw(st.sets(st.integers(0, n_rows - 1), max_size=min(n_rows, 24)))), dtype=np.intp)
    elements = draw(st.sampled_from([_SPREAD, st.floats(-10.0, 10.0)]))
    values = draw(hnp.arrays(np.float64, (rows.size, d), elements=elements))
    dense = draw(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3, max_side=6), elements=elements))
    max_norm = draw(st.sampled_from([0.0, 1e-3, 1.0, 1e300]))
    return (n_rows, d), rows, values, dense, max_norm


def _pair_and_flush(shape, rows, values, dense):
    """Two parameter dicts holding the same gradients: the table's as a row pair, and flushed dense."""
    pair = {"table": T.parameter(np.zeros(shape)), "w": T.parameter(np.zeros(dense.shape))}
    T._accumulate_rows(pair["table"]._record, rows, values.copy())
    flushed = {"table": T.parameter(np.zeros(shape)), "w": T.parameter(np.zeros(dense.shape))}
    flushed["table"].grad = np.zeros(shape)
    flushed["table"].grad[rows] = values
    for params in (pair, flushed):
        params["w"].grad = dense.copy()
    return pair, flushed


class TestClipNorm:
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
    @settings(max_examples=50)
    @given(_clip_cases())
    def test_a_row_pair_clips_as_its_dense_flush(self, case):
        shape, rows, values, dense, max_norm = case
        pair, flushed = _pair_and_flush(shape, rows, values, dense)
        float_sum = np.sqrt(sum(float(np.sum(p.grad * p.grad)) for p in flushed.values()))
        norm = clip_gradients(pair, max_norm)
        assert T._grad_rows(pair["table"]) is not None, "the clip keeps the table's gradient a row pair"
        assert _bits(norm) == _bits(clip_gradients(flushed, max_norm))
        for name in pair:
            assert pair[name].grad.tobytes() == flushed[name].grad.tobytes(), name
        if np.isfinite(float_sum) and float_sum > 1e-150:  # the float sum of squares is finite and normal
            assert abs(norm - float_sum) <= 1e-14 * float_sum

    @pytest.mark.parametrize("d", [1, 3, 7, 8, 9, 13, 16, 33])
    def test_a_row_pair_clips_as_its_dense_flush_on_small_tables(self, rng, d):
        for n_rows in range(1, 40):
            rows = np.union1d(np.flatnonzero(rng.random(n_rows) < 0.6), [n_rows - 1])
            pair, flushed = _pair_and_flush((n_rows, d), rows, rng.normal(size=(rows.size, d)), rng.normal(size=(2, d)))
            norm = clip_gradients(pair, 1.0)
            assert _bits(norm) == _bits(clip_gradients(flushed, 1.0)), (n_rows, d)
            for name in pair:
                assert pair[name].grad.tobytes() == flushed[name].grad.tobytes(), (n_rows, d, name)

    @pytest.mark.parametrize("seed", range(3))
    def test_a_row_pair_clips_as_its_dense_flush_at_paper_widths(self, seed):
        rng = np.random.default_rng(seed)
        shape = (40400, 300)
        rows = np.unique(np.concatenate([[0, shape[0] - 1], rng.integers(0, shape[0], size=600)]))
        values = rng.normal(size=(rows.size, shape[1])) * 10.0 ** rng.uniform(-100, 100, size=(rows.size, 1))
        pair, flushed = _pair_and_flush(shape, rows, values, rng.normal(size=(3, 5)))
        float_sum = np.sqrt(sum(float(np.sum(p.grad * p.grad)) for p in flushed.values()))
        norm = clip_gradients(pair, 5.0)
        assert _bits(norm) == _bits(clip_gradients(flushed, 5.0))
        assert abs(norm - float_sum) <= 1e-14 * float_sum
        assert T._grad_rows(pair["table"])[1].tobytes() == flushed["table"].grad[rows].tobytes()

    def test_no_rows_clip_to_zero(self):
        pair, flushed = _pair_and_flush((5, 3), np.empty(0, dtype=np.intp), np.empty((0, 3)), np.zeros((2, 3)))
        for params in (pair, flushed):
            assert _bits(clip_gradients(params, 1.0)) == _bits(0.0)

    def test_zero_rows_and_zero_tensors_leave_the_norm(self, rng):
        values = rng.normal(size=(5, 7)) * 10.0 ** rng.integers(-20, 20, size=(5, 1))
        bare = {"table": T.parameter(np.zeros((50, 7)))}
        T._accumulate_rows(bare["table"]._record, np.array([3, 8, 20, 21, 40]), values)
        padded_values = np.zeros((8, 7))
        padded_values[[0, 2, 4, 5, 7]] = values
        padded_values[1, 3] = -0.0
        padded = {"table": T.parameter(np.zeros((50, 7))), "zero": T.parameter(np.zeros((4, 3)))}
        T._accumulate_rows(padded["table"]._record, np.array([3, 5, 8, 11, 20, 21, 30, 40]), padded_values)
        padded["zero"].grad = np.array([[0.0, -0.0, 0.0]] * 4)
        assert _bits(clip_gradients(bare, 0.0)) == _bits(clip_gradients(padded, 0.0))

    def test_finite_row_sums_past_the_largest_float_give_inf(self):
        big = np.sqrt(np.finfo(np.float64).max) * 0.8  # each row's sum of squares is 0.64 of the largest float
        case = ((10, 1), np.array([2, 7]), np.full((2, 1), big), np.array([[big, 1.0]]))
        pair, flushed = _pair_and_flush(*case)
        reference = _pair_and_flush(*case)[1]
        for clip, params in ((clip_gradients, pair), (clip_gradients, flushed), (oracles.clip_gradients_dense, reference)):
            assert clip(params, 5.0) == np.inf
            assert not params["table"].grad.any() and not params["w"].grad.any(), "every gradient is scaled to zero"


# one step each: (ids of two lookups into "a", ids into "b", whether "b" also
# takes a dense gradient, clip norm); rows enter, repeat within and across
# lookups, and go quiet, and both tables have quiet steps
ROW_PLAN = [
    ([3, 7, 7], [7, 12], [0, 29], False, 0.5),
    ([3], [20, 21], [], False, 0.0),
    ([], [], [4], False, 0.5),
    ([0, 39], [39], [4, 4], False, 0.0),
    ([12], [12], [1], True, 0.5),
    ([30, 31, 32], [], [2], False, 0.0),
    ([], [], [], False, 0.0),
    ([7], [8], [2, 5], False, 0.5),
]


def _plan_loss(params, gather, ids_a1, ids_a2, ids_b, dense_b):
    weights = np.array([[0.5, -0.0, 2.0]])
    parts = [T.sum_all(T.tanh(T.matmul(gather(params["a"], ids), params["w"]))) for ids in (ids_a1, ids_a2) if ids]
    if ids_b:
        parts.append(T.sum_all(T.mul(gather(params["b"], ids_b), T.constant(np.repeat(weights, len(ids_b), axis=0)))))
    if dense_b:
        parts.append(T.sum_all(T.mul(params["b"], T.constant(np.full((30, 3), 0.1)))))
    loss = None
    for part in parts:
        loss = part if loss is None else T.add(loss, part)
    return loss


class TestRowSparseAdam:
    def test_live_rows_are_bitwise_the_dense_expression(self, rng):
        cfg = _tiny_cfg(lr=0.01)
        shapes = {"a": (40, 4), "b": (30, 3), "w": (4, 3)}
        params = {n: T.parameter(rng.normal(size=s)) for n, s in shapes.items()}
        m = {n: np.zeros(s) for n, s in shapes.items()}
        v = {n: np.zeros(s) for n, s in shapes.items()}
        ref = {n: (p.data.copy(), np.zeros(shapes[n]), np.zeros(shapes[n])) for n, p in params.items()}
        live, seen = {}, set()
        for t, (ids_a1, ids_a2, ids_b, dense_b, clip) in enumerate(ROW_PLAN, start=1):
            ref_params = {n: T.parameter(ref[n][0].copy()) for n in shapes}
            loss = _plan_loss(params, T.take_rows, ids_a1, ids_a2, ids_b, dense_b)
            ref_loss = _plan_loss(ref_params, dense_take_rows, ids_a1, ids_a2, ids_b, dense_b)
            if loss is not None:
                loss.backward()
                ref_loss.backward()
            assert clip_gradients(params, clip) == oracles.clip_gradients_dense(ref_params, clip)
            for n in shapes:
                ref[n] = oracles.adam_dense(*ref[n], ref_params[n].grad, t, cfg.lr, cfg.beta1, cfg.beta2, cfg.adam_eps)
            adam_step(params, m, v, t=t, cfg=cfg, live=live)
            for n, p in params.items():
                assert p.grad is None, "the step consumes the gradient"
                want_x, want_m, want_v = ref[n]
                assert p.data.tobytes() == want_x.tobytes(), f"{n} step {t}"
                assert m[n].tobytes() == want_m.tobytes() and v[n].tobytes() == want_v.tobytes(), f"{n} step {t}"
            seen |= set(ids_a1) | set(ids_a2)
            assert live["a"].tolist() == sorted(seen), "table a stays row-sparse"
        assert live["b"] is None, "a dense gradient makes every row live"

    def test_snapshot_survives_later_in_place_row_updates(self):
        pairs = _classify_pairs(12, seed=15)
        result = train(_tiny_cfg(epochs=1), pairs)
        model, cfg = result.model, result.model.cfg
        table = model.params["embed.static"]
        m = {n: np.zeros(t.shape) for n, t in model.params.items() if t.requires_grad}
        v = {n: np.zeros(t.shape) for n, t in model.params.items() if t.requires_grad}
        live = {}

        def step(t, ids):
            T.sum_all(T.tanh(T.take_rows(table, ids))).backward()
            adam_step(model.params, m, v, t=t, cfg=cfg, live=live)

        step(1, [2, 3])
        ck = _snapshot(model, 0, result.checkpoint.vocab)
        before = [t.data.tobytes() for t in ck.params.values()]
        live_rows = table.data[[2, 3, 4]].tobytes()
        step(2, [4])
        step(3, [3])
        assert live["embed.static"].tolist() == [2, 3, 4]
        assert table.data[[2, 3, 4]].tobytes() != live_rows
        assert [t.data.tobytes() for t in ck.params.values()] == before
        # nothing trains after the last epoch, so its checkpoint is not a copy
        assert all(result.checkpoint.params[n].data is p.data for n, p in model.params.items())

    def test_clip_scales_a_row_pair_in_place_after_the_table_goes_whole(self, rng):
        # gathers alone carry the table past half live at step 4; the clip fires at every step
        plan = [[0, 1, 2], [3, 4, 5, 5], [6, 7, 8], [9, 10, 11, 2], [3], [12, 19, 19], [0, 5], [18, 4, 7]]
        cfg = _tiny_cfg(lr=0.01)
        shapes = {"a": (20, 3), "w": (3, 2)}
        params = {n: T.parameter(rng.normal(size=s)) for n, s in shapes.items()}
        ref_params = {n: T.parameter(p.data.copy()) for n, p in params.items()}
        m, v, ref_m, ref_v = ({n: np.zeros(s) for n, s in shapes.items()} for _ in range(4))
        live = {}
        for t, ids in enumerate(plan, start=1):
            for ps, gather in ((params, T.take_rows), (ref_params, dense_take_rows)):
                T.sum_all(T.tanh(T.matmul(gather(ps["a"], ids), ps["w"]))).backward()
            norm = clip_gradients(params, 1e-3)
            assert T._grad_rows(params["a"]) is not None, "the clip keeps the table's gradient a row pair"
            assert norm > 1e-3 and norm == oracles.clip_gradients_dense(ref_params, 1e-3)
            adam_step(params, m, v, t=t, cfg=cfg, live=live)
            oracles.adam_step_dense(ref_params, ref_m, ref_v, t, cfg)
            for n, p in params.items():
                assert p.data.tobytes() == ref_params[n].data.tobytes(), f"{n} step {t}"
                assert m[n].tobytes() == ref_m[n].tobytes() and v[n].tobytes() == ref_v[n].tobytes(), f"{n} step {t}"
            assert (live["a"] is None) == (t >= 4)

    def test_train_step_memory_does_not_scale_with_the_table(self, rng):
        cfg = _tiny_cfg(grad_clip=1e-3)
        params = {"embed.static": T.parameter(rng.normal(size=(20000, 32))), "w": T.parameter(rng.normal(size=(32, 4)))}
        table = params["embed.static"]
        m = {n: np.zeros(p.shape) for n, p in params.items()}
        v = {n: np.zeros(p.shape) for n, p in params.items()}
        # a first step on a small table imports what numpy loads lazily
        small = T.parameter(rng.normal(size=(300, 32)))
        T.sum_all(T.take_rows(small, [1, 2])).backward()
        clip_gradients({"s": small}, cfg.grad_clip)
        adam_step({"s": small}, {"s": np.zeros(small.shape)}, {"s": np.zeros(small.shape)}, t=1, cfg=cfg, live={})
        lookups = [T.take_rows(table, rng.integers(0, 20000, size=12)) for _ in range(40)]
        loss = T.sum_all(T.tanh(T.matmul(T.concat(lookups, axis=0), params["w"])))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            loss.backward()
            live = {}
            norm = clip_gradients(params, cfg.grad_clip)
            adam_step(params, m, v, t=1, cfg=cfg, live=live)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert norm > cfg.grad_clip, "the clip fires"
        # the touched rows' gradient, moments and scratch; never a table-sized array
        assert peak < 0.5 * table.data.nbytes, f"the step peaked at {peak / table.data.nbytes:.2f} table sizes"


class TestTraining:
    def test_loss_decreases_on_learnable_data(self):
        pairs = _classify_pairs(48, seed=1)
        result = train(_tiny_cfg(epochs=6, dropout=0.0), pairs, dev_pairs=pairs)
        losses = [h["train_loss"] for h in result.history]
        assert losses[-1] < losses[0]

    def test_identical_seed_reproduces_history_and_checkpoint_bitwise(self, tmp_path):
        pairs = _classify_pairs(24, seed=2)
        dev = _classify_pairs(12, seed=4)
        runs = []
        for i in range(2):
            result = train(_tiny_cfg(epochs=2), pairs, dev_pairs=dev)
            path = tmp_path / f"ck{i}.bin"
            save_checkpoint(path, result.checkpoint)
            runs.append((result.history, path.read_bytes()))
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] == runs[1][1]

    @pytest.mark.parametrize("task", ["snli", "wikiqa"])
    def test_row_sparse_gather_writes_the_dense_scatter_checkpoint(self, task, monkeypatch, tmp_path):
        from sentmatch.embedding import StubContextualProvider

        if task == "snli":
            pairs, dev = _classify_pairs(40, seed=16), _classify_pairs(12, seed=17)
            cfg = _tiny_cfg(contextual_dim=4)
        else:
            pairs, dev = _ranking_pairs(4, seed=18), _ranking_pairs(2, seed=19)
            cfg = _tiny_cfg(task="wikiqa", contextual_dim=4, batch_size=4)
        blobs = []
        for gather in (T.take_rows, dense_take_rows):
            monkeypatch.setattr(T, "take_rows", gather)
            result = train(cfg, pairs, dev_pairs=dev, provider=StubContextualProvider(4, seed=0))
            path = tmp_path / f"{gather.__name__}.bin"
            save_checkpoint(path, result.checkpoint)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("task", ["snli", "wikiqa"])
    def test_row_sparse_optimizer_writes_the_dense_checkpoint(self, task, monkeypatch, tmp_path):
        if task == "snli":
            pairs, dev = _classify_pairs(40, seed=16), _classify_pairs(12, seed=17)
            cfg = _tiny_cfg(contextual_dim=4)
        else:
            pairs, dev = _ranking_pairs(4, seed=18), _ranking_pairs(2, seed=19)
            cfg = _tiny_cfg(task="wikiqa", contextual_dim=4, batch_size=4, grad_clip=0.5)
        # spare words keep most of the table untouched, so it stays row-sparse
        vocab = Vocab(build_vocab(pairs).id_to_token[2:] + [f"spare{i}" for i in range(400)])
        norms, lives = [], []

        def row_sparse_clip(params, max_norm):
            norms.append(clip_gradients(params, max_norm))
            return norms[-1]

        def row_sparse_adam(params, state_m, state_v, t, cfg, live):
            lives.append(live)
            adam_step(params, state_m, state_v, t, cfg, live)

        def dense_clip(params, max_norm):
            norms.append(oracles.clip_gradients_dense(params, max_norm))
            return norms[-1]

        def dense_adam(params, state_m, state_v, t, cfg, live):
            oracles.adam_step_dense(params, state_m, state_v, t, cfg)

        blobs = []
        for clip, adam in ((row_sparse_clip, row_sparse_adam), (dense_clip, dense_adam)):
            monkeypatch.setattr(trainer_mod, "clip_gradients", clip)
            monkeypatch.setattr(trainer_mod, "adam_step", adam)
            result = train(cfg, pairs, dev_pairs=dev, provider=StubContextualProvider(4, seed=0), vocab=vocab)
            path = tmp_path / f"{adam.__name__}.bin"
            save_checkpoint(path, result.checkpoint)
            blobs.append(path.read_bytes())
        assert lives[-1]["embed.static"] is not None, "the table took the row-sparse path"
        if task == "wikiqa":
            assert any(n > cfg.grad_clip for n in norms), "the clip fires"
        half = len(norms) // 2
        assert norms[:half] == norms[half:]
        assert blobs[0] == blobs[1]

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
    def test_overflowing_weights_abort_naming_parameter_epoch_and_batch(self):
        with pytest.raises(NumericalError, match=r"epoch 0 batch \d+: parameter \S+ is non-finite after Adam step \d+"):
            train(_tiny_cfg(epochs=1, lr=1e308, grad_clip=0.0), _classify_pairs(24, seed=5))

    def test_nan_loss_aborts_with_diagnostics(self, monkeypatch):
        pairs = _classify_pairs(12, seed=5)
        import sentmatch.trainer as trainer_mod

        def poisoned(model, step, train, rng):
            (batch,) = step
            return T.mul_const(trainer_mod.cross_entropy(
                T.concat([model.forward_pair(p, train=train, rng=rng) for p in batch.pairs], axis=0),
                batch.labels,
            ), np.nan)

        monkeypatch.setattr(trainer_mod, "_step_loss", poisoned)
        with pytest.raises(NumericalError, match=r"epoch 0 batch 0.*max\|grad\|"):
            train(_tiny_cfg(epochs=1), pairs)

    def test_nan_gradients_report_a_nan_max(self, monkeypatch):
        step_loss = trainer_mod._step_loss

        def poisoned(model, step, train, rng):
            return T.mul_const(step_loss(model, step, train, rng), np.nan)

        monkeypatch.setattr(trainer_mod, "_step_loss", poisoned)
        with pytest.raises(NumericalError, match=r"max\|grad\|=nan$"):
            train(_tiny_cfg(epochs=1), _classify_pairs(12, seed=5))

    def test_one_nan_entry_makes_the_max_abs_grad_nan(self):
        big, poisoned, table = T.parameter(np.zeros(3)), T.parameter(np.zeros(3)), T.parameter(np.zeros((4, 2)))
        big.grad = np.array([-7.0, 1.0, 0.0])
        poisoned.grad = np.array([0.5, np.nan, 0.0])
        T._accumulate_rows(table._record, np.array([1, 3]), np.array([[2.0, np.nan], [1.0, 1.0]]))
        assert trainer_mod._max_abs_grad({"big": big}) == 7.0
        for params in ({"big": big, "poisoned": poisoned}, {"poisoned": poisoned, "big": big}, {"big": big, "table": table}):
            assert np.isnan(trainer_mod._max_abs_grad(params)), list(params)
        assert T._grad_rows(table) is not None, "the pair is read, not flushed"

    def test_nan_loss_message_reads_the_table_pair_without_flushing_it(self, monkeypatch):
        built, init_params, step_loss = [], trainer_mod.init_params, trainer_mod._step_loss

        def kept_init_params(*args, **kwargs):
            built.append(init_params(*args, **kwargs))
            return built[-1]

        def nan_loss(model, step, train, rng):
            # a NaN constant added to the loss leaves every gradient finite
            return T.add(step_loss(model, step, train, rng), T.constant(np.nan))

        monkeypatch.setattr(trainer_mod, "init_params", kept_init_params)
        monkeypatch.setattr(trainer_mod, "_step_loss", nan_loss)
        with pytest.raises(NumericalError, match=r"max\|grad\|=") as info:
            train(_tiny_cfg(epochs=1), _classify_pairs(12, seed=5))
        params = built[0]
        assert T._grad_rows(params["embed.static"]) is not None, "the message leaves the table's gradient a row pair"
        dense = max(float(np.max(np.abs(p.grad))) for p in params.values() if p.grad is not None)
        assert 0.0 < dense < np.inf
        assert float(str(info.value).rpartition("max|grad|=")[2]) == dense

    def test_ranking_split_is_tokenized_once_per_run(self, spy):
        import sentmatch.data as data_mod
        import sentmatch.trainer as trainer_mod

        spy(trainer_mod, "tokenize_pairs")
        spy(data_mod, "tokenize_pairs")
        result = train(_tiny_cfg(task="wikiqa", epochs=3, batch_size=4, early_stop_patience=0), _ranking_pairs(4, seed=24))
        assert len(result.history) == 3
        assert spy.calls == ["tokenize_pairs"]

    def test_classification_splits_are_tokenized_once_per_run(self, spy):
        import sentmatch.data as data_mod

        spy(trainer_mod, "tokenize_pairs")
        spy(data_mod, "tokenize_pairs")
        result = train(_tiny_cfg(epochs=3, batch_size=5), _classify_pairs(12, seed=25), dev_pairs=_classify_pairs(6, seed=26))
        assert len(result.history) == 3
        assert spy.calls == ["tokenize_pairs", "tokenize_pairs"]  # the training split, then dev

    def test_batches_from_one_tokenization_equal_each_epochs_retokenized_batches(self, tmp_path, monkeypatch):
        from sentmatch.data import batch_pairs, tokenize_pairs

        pairs, dev = _classify_pairs(23, seed=27), _classify_pairs(7, seed=28)
        cfg = _tiny_cfg(epochs=3, batch_size=5)
        vocab = build_vocab(pairs)

        def retokenized(tokenized, batch_size, shuffle_seed=None):
            return batch_pairs(tokenize_pairs(pairs, vocab, cfg.effective_max_len)[0], batch_size, shuffle_seed)

        blobs, histories = [], []
        for patch in (False, True):
            if patch:
                monkeypatch.setattr(trainer_mod, "batch_pairs", retokenized)
            result = train(cfg, pairs, dev_pairs=dev, vocab=vocab)
            save_checkpoint(tmp_path / "ck.bin", result.checkpoint)
            blobs.append((tmp_path / "ck.bin").read_bytes())
            histories.append(result.history)
        assert histories[0] == histories[1] and blobs[0] == blobs[1]

    @pytest.mark.parametrize("epochs, copies", [(3, 2), (1, 0)])
    def test_best_epoch_is_copied_only_before_a_step_overwrites_it(self, monkeypatch, epochs, copies):
        built, snapshot = [], trainer_mod._snapshot

        def counted(model, *args, **kwargs):
            ck = snapshot(model, *args, **kwargs)
            built.append(any(np.shares_memory(t.data, model.params[n].data) for n, t in ck.params.items()))
            return ck

        monkeypatch.setattr(trainer_mod, "_snapshot", counted)
        result = train(_tiny_cfg(epochs=epochs, dropout=0.0), _classify_pairs(48, seed=1))
        losses = [h["train_loss"] for h in result.history]
        assert losses == sorted(losses, reverse=True) and len(set(losses)) == epochs, "every epoch improves"
        assert built.count(False) == copies, "checkpoints that share no array with the model"
        assert result.best_epoch == result.checkpoint.epoch == epochs - 1
        assert all(result.checkpoint.params[n].data is p.data for n, p in result.model.params.items())

    @pytest.mark.parametrize("task, seed, best", [("snli", 2, 2), ("wikiqa", 0, 0)])
    def test_an_earlier_best_epoch_is_the_run_cut_after_it(self, task, seed, best):
        # shuffling and dropout are keyed by (seed, epoch), so the first best + 1 epochs of both runs agree
        if task == "snli":
            pairs, dev = _classify_pairs(48, seed=30 + seed), _classify_pairs(24, seed=40 + seed)
        else:
            pairs, dev = _ranking_pairs(10, seed=30 + seed), _ranking_pairs(8, seed=40 + seed)
        cfg = _tiny_cfg(task=task, epochs=5, seed=seed, lr=0.01)
        full = train(cfg, pairs, dev_pairs=dev)
        cut = train(dataclasses.replace(cfg, epochs=best + 1), pairs, dev_pairs=dev)
        assert full.best_epoch == cut.best_epoch == best
        assert full.history[: best + 1] == cut.history
        assert full.checkpoint.epoch == cut.checkpoint.epoch == best
        assert sorted(full.checkpoint.params) == sorted(cut.checkpoint.params)
        for name, t in full.checkpoint.params.items():
            assert t.requires_grad == cut.checkpoint.params[name].requires_grad
            assert t.data.tobytes() == cut.checkpoint.params[name].data.tobytes(), name
        assert full.model.params["head.w"].data.tobytes() != full.checkpoint.params["head.w"].data.tobytes()

    def test_early_stopping_cuts_the_run_short(self):
        pairs = _classify_pairs(24, seed=6)
        dev = _classify_pairs(12, seed=7)
        result = train(_tiny_cfg(epochs=12, early_stop_patience=2, lr=1e-6), pairs, dev_pairs=dev)
        assert len(result.history) < 12

    @pytest.mark.parametrize("patience", [1, 2, 3])
    def test_early_stopping_stops_patience_epochs_after_the_best(self, patience):
        pairs = _classify_pairs(24, seed=7)
        dev = _classify_pairs(12, seed=8)
        result = train(_tiny_cfg(epochs=12, early_stop_patience=patience, lr=0.003), pairs, dev_pairs=dev)
        assert result.best_epoch > 0, "a later best epoch, not the first"
        assert len(result.history) == result.best_epoch + patience + 1 < 12
        assert all(h["acc"] <= result.best_metric for h in result.history[result.best_epoch + 1 :])

    @pytest.mark.parametrize(
        "task, dev, unit",
        [
            ("snli", [RawPair(0, "", "a dog runs"), RawPair(2, "a cat sleeps", "  ")], "pair with two non-empty sentences"),
            ("wikiqa", [RawPair(0, "who runs", "a dog runs", "q0"), RawPair(1, "who runs", "", "q0"), RawPair(0, "who sleeps", "a cat", "q1")], "positive pair with two non-empty sentences"),
        ],
        ids=["classify", "rank"],
    )
    def test_a_dev_split_that_cannot_be_scored_is_refused_before_the_first_step(self, monkeypatch, task, dev, unit):
        steps = []
        monkeypatch.setattr(trainer_mod, "adam_step", lambda *args, **kw: steps.append(args[3]))
        pairs = _classify_pairs(24, seed=1) if task == "snli" else _ranking_pairs(4, seed=2)
        with pytest.raises(DataError, match=f"^no dev score: the {len(dev)} dev records hold no {unit}$"):
            train(_tiny_cfg(task=task), pairs, dev_pairs=dev)
        assert steps == []

    @pytest.mark.parametrize("task", ["snli", "wikiqa"])
    def test_memory_peak_does_not_grow_with_steps(self, task):
        # every step's batch has one shape: 20- and 12-token sentences, 8 rows
        words = "the a man woman dog cat runs eats sleeps sings in on park street food ball red blue".split()
        rng = np.random.default_rng(5)

        def pairs(steps):
            if task == "wikiqa":  # one (positive, negative) triple per question
                return [
                    RawPair(label, " ".join(rng.choice(words, 20)), " ".join(rng.choice(words, 12)), f"q{i}")
                    for i in range(8 * steps)
                    for label in (1, 0)
                ]
            return [RawPair(i % 3, " ".join(rng.choice(words, 20)), " ".join(rng.choice(words, 12))) for i in range(8 * steps)]

        cfg = _tiny_cfg(task=task, static_dim=16, contextual_dim=64, hidden=32, epochs=1, batch_size=8, dropout=0.2)
        provider = StubContextualProvider(64, seed=1)
        train(cfg, pairs(1), provider=provider)  # first-call allocations stay out of the peaks
        peaks = []
        for steps in (1, 4):
            tracemalloc.start()
            try:
                train(cfg, pairs(steps), provider=provider)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # a step's graph is freed before the next step's forward is built
        assert peaks[1] < 1.3 * peaks[0], f"4 steps peaked at {peaks[1] / peaks[0]:.2f}x one step"


class TestEpochSteps:
    def test_classification_steps_partition_the_pairs_once_per_epoch_in_the_seeded_order(self):
        cfg = _tiny_cfg(batch_size=5)
        pairs = _classify_pairs(23, seed=30)
        tokenized = tokenize_pairs(pairs, build_vocab(pairs), cfg.effective_max_len)[0]
        orders = []
        for epoch in range(3):
            steps = trainer_mod._epoch_steps(cfg, tokenized, None, epoch)
            assert [len(step) for step in steps] == [1] * 5
            assert [len(batch) for (batch,) in steps] == [5, 5, 5, 5, 3]
            seed = int(trainer_mod._seed_rng(cfg.seed, 3, epoch).integers(2**31))
            want = [tokenized[i] for i in np.random.default_rng(seed).permutation(len(tokenized))]
            got = [pair for (batch,) in steps for pair in batch.items]
            assert list(map(id, got)) == list(map(id, want))
            orders.append(list(map(id, got)))
        assert orders[0] != orders[1], "each epoch has its own order"

    def test_ranking_steps_pair_a_positive_and_a_negative_of_one_question_row_by_row(self):
        cfg = _tiny_cfg(task="wikiqa", batch_size=4)
        pairs = _ranking_pairs(6, seed=31)
        tokenized = tokenize_pairs(pairs, build_vocab(pairs), cfg.effective_max_len)[0]
        groups = group_by_question(tokenized)
        n_positives = sum(p.label == 1 for p in tokenized)
        for epoch in range(2):
            steps = trainer_mod._epoch_steps(cfg, tokenized, groups, epoch)
            assert {len(step) for step in steps} == {2}
            for pos, neg in steps:
                assert pos.labels.tolist() == [1] * len(pos) and neg.labels.tolist() == [0] * len(neg)
                assert [p.group_id for p in pos.items] == [p.group_id for p in neg.items]
            assert sum(len(pos) for pos, _ in steps) == n_positives, "every positive once an epoch"


class TestEvaluate:
    def test_zero_head_on_balanced_data_is_chance(self):
        pairs = _classify_pairs(30, seed=8)
        result = train(_tiny_cfg(epochs=1), pairs, dev_pairs=pairs)
        model = result.model
        model.params["head.w"].data[:] = 0.0
        model.params["head.b"].data[:] = 0.0
        report = evaluate(model, pairs, result.checkpoint.vocab)
        # uniform probabilities predict class 0 everywhere; fixture is balanced
        assert abs(report.metrics["acc"] - 1 / 3) <= 0.05

    def test_evaluation_is_deterministic(self):
        pairs = _classify_pairs(18, seed=9)
        result = train(_tiny_cfg(epochs=1), pairs, dev_pairs=pairs)
        r1 = evaluate(result.model, pairs, result.checkpoint.vocab)
        r2 = evaluate(result.model, pairs, result.checkpoint.vocab)
        assert r1.metrics == r2.metrics

    def test_ranking_eval_matches_metric_closed_forms(self):
        pairs = _ranking_pairs(2, seed=10)
        cfg = _tiny_cfg(task="wikiqa", epochs=1, batch_size=4)
        result = train(cfg, pairs, dev_pairs=pairs)
        report = evaluate(result.model, pairs, result.checkpoint.vocab)
        scored = {}
        for p in pairs:
            scored.setdefault(p.group_id, [])
        # recompute through the public metric on the model's own scores
        from sentmatch.data import build_batches

        batches, _ = build_batches(pairs, result.checkpoint.vocab, cfg.effective_max_len, 8)
        for batch in batches:
            for row, pair in zip(batch.pairs, batch.items):
                scored[pair.group_id].append((float(result.model.forward_pair(row).data[0, 0]), pair.label == 1))
        expected = map_mrr(list(scored.values()))
        assert (report.metrics["map"], report.metrics["mrr"]) == expected


class TestCheckpoint:
    def test_save_load_save_is_bitwise_identical(self, tmp_path):
        pairs = _classify_pairs(12, seed=11)
        result = train(_tiny_cfg(epochs=1), pairs, dev_pairs=pairs)
        p1 = tmp_path / "a.bin"
        p2 = tmp_path / "b.bin"
        save_checkpoint(p1, result.checkpoint)
        save_checkpoint(p2, load_checkpoint(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_failed_save_leaves_previous_file_intact(self, tmp_path):
        pairs = _classify_pairs(12, seed=20)
        ck = train(_tiny_cfg(epochs=1), pairs).checkpoint
        path = tmp_path / "ck.bin"
        save_checkpoint(path, ck)
        good = path.read_bytes()
        # the last tensor written cannot be read as float64: the write fails partway
        name = sorted(ck.params)[-1]
        bad = T.Tensor(ck.params[name].data)
        bad.data = np.full(bad.shape, "x", dtype=object)
        broken = dataclasses.replace(ck, params={**ck.params, name: bad})
        with pytest.raises(ValueError):
            save_checkpoint(path, broken)
        assert path.read_bytes() == good
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ck.bin"]

    def test_manifest_with_an_rng_state_still_loads(self, tmp_path):
        # earlier files carried an "rng_state" manifest key that nothing read
        pairs = _classify_pairs(15, seed=21)
        result = train(_tiny_cfg(epochs=1), pairs, dev_pairs=pairs)
        path, old_path = tmp_path / "ck.bin", tmp_path / "old.bin"
        save_checkpoint(path, result.checkpoint)
        blob = path.read_bytes()
        rng_state = {"bit_generator": "PCG64", "state": {"state": 2**100 + 7, "inc": 2**90 + 1}, "has_uint32": 0, "uinteger": 0}
        old_path.write_bytes(oracles.edit_manifest(blob, lambda manifest: manifest.update(rng_state=rng_state)))
        old = load_checkpoint(old_path)
        assert evaluate_checkpoint(old, pairs).metrics == evaluate_checkpoint(result.checkpoint, pairs).metrics
        resaved = tmp_path / "resaved.bin"
        save_checkpoint(resaved, old)
        assert resaved.read_bytes() == blob

    def test_file_holds_the_header_manifest_and_parameters_only(self, tmp_path):
        result = train(_tiny_cfg(epochs=1), _classify_pairs(12, seed=22))
        path = tmp_path / "ck.bin"
        save_checkpoint(path, result.checkpoint)
        blob = path.read_bytes()
        (manifest_len,) = struct.unpack("<Q", blob[8:16])
        manifest = json.loads(blob[16 : 16 + manifest_len])
        params = result.checkpoint.params
        assert sorted(manifest) == ["config", "epoch", "tensors", "vocab"]
        assert manifest["tensors"] == [{"kind": "param", "name": n, "shape": list(params[n].shape)} for n in sorted(params)]
        assert len(blob) == 16 + manifest_len + 8 * sum(t.size for t in params.values())

    def test_file_with_history_and_trainable_flags_still_loads(self, tmp_path):
        # earlier files repeated the metric history, flagged each tensor trainable, and held retired config keys
        pairs = _classify_pairs(15, seed=23)
        result = train(_tiny_cfg(epochs=2, freeze_static=True), pairs, dev_pairs=pairs)
        old_path, path, resaved = tmp_path / "old.bin", tmp_path / "ck.bin", tmp_path / "resaved.bin"
        oracles.save_checkpoint_with_history(old_path, result.checkpoint, result.history)
        save_checkpoint(path, result.checkpoint)
        old = load_checkpoint(old_path)
        assert evaluate_checkpoint(old, pairs) == evaluate_checkpoint(result.checkpoint, pairs)
        save_checkpoint(resaved, old)
        assert resaved.read_bytes() == path.read_bytes()

    def test_loaded_parameters_are_constants(self, tmp_path):
        result = train(_tiny_cfg(epochs=1), _classify_pairs(12, seed=22))
        path = tmp_path / "ck.bin"
        save_checkpoint(path, result.checkpoint)
        params = load_checkpoint(path).params
        assert sorted(params) == sorted(result.checkpoint.params)
        assert not any(t.requires_grad for t in params.values())

    def test_file_with_optimizer_state_still_loads(self, tmp_path, rng):
        # earlier files also held an "adam_t" step count and the Adam moments
        pairs = _classify_pairs(15, seed=23)
        result = train(_tiny_cfg(epochs=1, freeze_static=True), pairs, dev_pairs=pairs)
        ck = result.checkpoint
        moments = [{n: rng.normal(size=t.shape) for n, t in ck.params.items() if t.requires_grad} for _ in range(2)]
        old_path, path, resaved = tmp_path / "old.bin", tmp_path / "ck.bin", tmp_path / "resaved.bin"
        oracles.save_checkpoint_with_moments(old_path, ck, *moments, adam_t=4, history=result.history)
        save_checkpoint(path, ck)
        old = load_checkpoint(old_path)
        assert evaluate_checkpoint(old, pairs).metrics == evaluate_checkpoint(ck, pairs).metrics
        save_checkpoint(resaved, old)
        assert resaved.read_bytes() == path.read_bytes()
        assert old_path.stat().st_size > path.stat().st_size

    def test_roundtrip_preserves_evaluation_bitwise(self, tmp_path):
        pairs = _classify_pairs(15, seed=12)
        result = train(_tiny_cfg(epochs=1), pairs, dev_pairs=pairs)
        direct = evaluate_checkpoint(result.checkpoint, pairs)
        path = tmp_path / "ck.bin"
        save_checkpoint(path, result.checkpoint)
        loaded = evaluate_checkpoint(load_checkpoint(path), pairs)
        assert direct.metrics == loaded.metrics
        assert direct.fingerprint == loaded.fingerprint

    def test_load_reads_each_tensor_into_its_array_without_a_second_copy(self, tmp_path):
        result = train(_tiny_cfg(epochs=1, static_dim=4096), _classify_pairs(12, seed=24))
        path = tmp_path / "ck.bin"
        save_checkpoint(path, result.checkpoint)
        tracemalloc.start()
        try:
            load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert peak < 1.3 * size, f"loading peaked at {peak / size:.2f} file sizes"


    def test_load_skips_legacy_optimizer_moments_unread(self, tmp_path, rng):
        result = train(_tiny_cfg(epochs=1, static_dim=4096), _classify_pairs(12, seed=24))
        ck = result.checkpoint
        moments = [{n: rng.normal(size=t.shape) for n, t in ck.params.items() if t.requires_grad} for _ in range(2)]
        plain, legacy = tmp_path / "ck.bin", tmp_path / "legacy.bin"
        save_checkpoint(plain, ck)
        oracles.save_checkpoint_with_moments(legacy, ck, *moments, adam_t=1, history=result.history)
        peaks = []
        for path in (plain, legacy):
            tracemalloc.start()
            try:
                load_checkpoint(path)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert legacy.stat().st_size > 2.5 * plain.stat().st_size
        assert peaks[1] < 1.2 * peaks[0], f"the legacy load peaked at {peaks[1] / peaks[0]:.2f}x the plain load"


class TestAblationSweep:
    def test_seven_rows_full_first_with_deltas(self):
        pairs = _classify_pairs(18, seed=13)
        dev = _classify_pairs(9, seed=14)
        cfg = _tiny_cfg(epochs=1, contextual_dim=4)
        from sentmatch.embedding import StubContextualProvider

        rows = run_ablations(cfg, pairs, dev, provider=StubContextualProvider(4, seed=0))
        assert len(rows) == 7
        assert rows[0][0] == "full" and rows[0][3] == 0.0
        names = [r[0] for r in rows]
        assert names == list(dict.fromkeys(names)), "variants must be unique"
        full_metric = rows[0][2]
        for variant, fp, metric, delta in rows[1:]:
            assert fp == variant
            assert abs((metric - full_metric) - delta) <= 1e-12
