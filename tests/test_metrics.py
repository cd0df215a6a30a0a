import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sentmatch.errors import DataError
from sentmatch.metrics import accuracy, map_mrr

import oracles


class TestAccuracy:
    def test_all_correct(self):
        assert accuracy([0, 1, 2], [0, 1, 2]) == 1.0

    def test_partial(self):
        assert abs(accuracy([0, 1, 2], [0, 1, 1]) - 2 / 3) <= 1e-15

    def test_random_matches_counting_oracle(self, rng):
        preds = rng.integers(0, 4, size=50)
        labels = rng.integers(0, 4, size=50)
        assert accuracy(preds, labels) == oracles.accuracy_count(preds, labels)

    def test_length_mismatch_raises(self):
        with pytest.raises(DataError):
            accuracy([0, 1], [0, 1, 2])


class TestMapMrr:
    def test_relevant_first(self):
        m, r = map_mrr([[(0.9, True), (0.5, False), (0.1, False)]])
        assert m == 1.0 and r == 1.0

    def test_single_relevant_ranked_third_of_five(self):
        cands = [(0.9, False), (0.8, False), (0.7, True), (0.6, False), (0.5, False)]
        m, r = map_mrr([cands])
        assert abs(m - 1 / 3) <= 1e-15 and abs(r - 1 / 3) <= 1e-15

    def test_relevants_at_ranks_one_and_three(self):
        cands = [(0.9, True), (0.8, False), (0.7, True), (0.6, False)]
        m, r = map_mrr([cands])
        assert abs(m - 5 / 6) <= 1e-15
        assert r == 1.0

    def test_values_within_unit_interval(self, rng):
        groups = []
        for _ in range(8):
            cands = [(float(rng.normal()), bool(rng.random() < 0.4)) for _ in range(6)]
            if not any(rel for _, rel in cands):
                cands[0] = (cands[0][0], True)
            groups.append(cands)
        m, r = map_mrr(groups)
        assert 0.0 < m <= 1.0 and 0.0 < r <= 1.0

    def test_random_matches_bruteforce_oracle(self, rng):
        for trial in range(10):
            groups = []
            for _ in range(5):
                k = int(rng.integers(2, 7))
                cands = [(float(rng.normal()), bool(rng.random() < 0.5)) for _ in range(k)]
                groups.append(cands)
            if not any(any(rel for _, rel in g) for g in groups):
                continue
            got = map_mrr(groups)
            want = oracles.map_mrr_bruteforce(groups)
            np.testing.assert_allclose(got, want, atol=1e-12)

    @given(st.integers(min_value=0, max_value=10_000), st.floats(min_value=0.1, max_value=5.0))
    def test_rank_invariance_under_monotone_transforms(self, seed, scale):
        rng = np.random.default_rng(seed)
        groups = []
        for _ in range(4):
            # distinct scores so the transform cannot create or break ties
            scores = rng.permutation(np.linspace(-2, 2, 6) + rng.uniform(0, 0.01))
            rels = rng.random(6) < 0.5
            if not rels.any():
                rels[0] = True
            groups.append(list(zip(scores.tolist(), rels.tolist())))
        base = map_mrr(groups)
        warped = [[(np.exp(scale * s), rel) for s, rel in g] for g in groups]
        np.testing.assert_allclose(map_mrr(warped), base, atol=1e-15)

    def test_group_without_relevant_is_left_out(self):
        groups = [
            [(0.9, True), (0.1, False)],
            [(0.5, False), (0.4, False)],
        ]
        m, r = map_mrr(groups)
        assert m == 1.0 and r == 1.0

    def test_ties_broken_by_stable_input_order(self):
        cands = [(0.5, False), (0.5, True)]
        m, r = map_mrr([cands])
        assert m == 0.5 and r == 0.5

    def test_no_evaluable_groups_raises(self):
        with pytest.raises(DataError):
            map_mrr([[(0.5, False)]])
