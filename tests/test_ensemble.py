from __future__ import annotations

import numpy as np
import pytest

from conftest import base_with, neighbor_set, random_base
from radd.ensemble import EnsembleStrategy, Prediction, format_prediction_tsv, predict
from radd.errors import EmptyNeighborSetError, InvalidConfigError, NeighborIndexError
from radd.retrieval import NeighborSet, RetrievalStrategy

MV, RATIO, AVG = EnsembleStrategy.MAJORITY_VOTE, EnsembleStrategy.RATIO, EnsembleStrategy.AVERAGE


def rule(strategy, labels=None, scores=None):
    """predict's score over a base of exactly these labels (or scores),
    every row retrieved."""
    n = len(labels if labels is not None else scores)
    base = base_with(labels if labels is not None else [0] * n, scores if scores is not None else [0.5] * n)
    return predict(base, neighbor_set(range(n)), strategy, query_id=0).score


def f32(x) -> float:
    return float(np.float32(x))


class TestMajorityVote:
    def test_clear_fake_majority(self):
        assert rule(MV, labels=[1, 1, 1, 0]) == 1.0

    def test_clear_real_majority(self):
        assert rule(MV, labels=[0, 0, 1]) == 0.0

    def test_exact_tie(self):
        assert rule(MV, labels=[0, 1]) == 0.5


class TestRatio:
    def test_half(self):
        assert rule(RATIO, labels=[1, 1, 0, 0]) == 0.5

    def test_three_quarters(self):
        assert rule(RATIO, labels=[1, 1, 1, 0]) == 0.75

    def test_no_positives(self):
        assert rule(RATIO, labels=[0, 0, 0]) == 0.0


class TestAverage:
    # The base stores float32 scores, so the expected means are of those.
    def test_two_point_mean(self):
        assert rule(AVG, scores=[0.2, 0.4]) == pytest.approx((f32(0.2) + f32(0.4)) / 2, abs=1e-12)

    def test_singleton(self):
        assert rule(AVG, scores=[0.9]) == f32(0.9)

    def test_mean_of_three(self):
        assert rule(AVG, scores=[0.25, 0.5, 0.75]) == 0.5


class TestPredict:
    def test_ratio_fetches_labels(self):
        base = base_with([1, 1, 0, 0], [0.5] * 4)
        p = predict(base, neighbor_set([0, 1, 2]), EnsembleStrategy.RATIO, query_id=9)
        assert p.score == pytest.approx(2 / 3)
        assert p.query_id == 9 and p.neighbor_count == 3

    def test_average_fetches_scores(self):
        base = base_with([0, 0], [0.6, 0.8])
        p = predict(base, neighbor_set([0, 1]), EnsembleStrategy.AVERAGE, query_id=0)
        assert p.score == pytest.approx(0.7, abs=1e-7)

    def test_hybrid_denominator_is_dedup_size(self):
        # k=4 requested, union shrank to 3: the ratio denominator is 3
        base = base_with([1, 0, 1, 0], [0.5] * 4)
        p = predict(base, neighbor_set([0, 1, 2]), EnsembleStrategy.RATIO, query_id=0)
        assert p.score == pytest.approx(2 / 3)
        assert p.neighbor_count == 3

    @pytest.mark.parametrize("strategy", list(EnsembleStrategy))
    def test_empty_neighbors(self, strategy):
        base = base_with([1], [0.5])
        with pytest.raises(EmptyNeighborSetError):
            predict(base, neighbor_set([]), strategy, query_id=0)

    @pytest.mark.parametrize("strategy", ["avg", "mv", None, RetrievalStrategy.HYBRID])
    def test_non_member_strategy_rejected(self, strategy):
        # No rule stands in for another: a value that is not an EnsembleStrategy
        # is a configuration error, never majority vote.
        base = base_with([1, 0, 1], [0.5] * 3)
        with pytest.raises(InvalidConfigError, match="EnsembleStrategy"):
            predict(base, neighbor_set([0, 1, 2]), strategy, query_id=0)

    def test_index_out_of_range(self):
        base = base_with([1, 0], [0.5, 0.5])
        with pytest.raises(NeighborIndexError):
            predict(base, neighbor_set([0, 5]), EnsembleStrategy.RATIO, query_id=0)

    @pytest.mark.parametrize("indices", [
        np.array([[30, 31]]),  # 2-D: one "row" of two base rows
        np.arange(60) % 2 == 0,  # a boolean mask as long as the base
        np.array([1.0, 2.0]),
        [1, 2],  # not an array
    ])
    @pytest.mark.parametrize("strategy", list(EnsembleStrategy))
    def test_indices_not_a_1d_integer_array_rejected(self, rng, indices, strategy):
        base = random_base(rng, 60, d_cm=3)
        with pytest.raises(NeighborIndexError, match="1-D integer array"):
            predict(base, NeighborSet(indices, np.ones(len(indices))), strategy, query_id=0)

    def test_prediction_ignores_similarities(self, rng):
        base = random_base(rng, 10, d_cm=3)
        a = neighbor_set([1, 3, 5], sims=[0.9, 0.8, 0.7])
        b = neighbor_set([1, 3, 5], sims=[0.1, 0.05, 0.01])
        for strategy in EnsembleStrategy:
            assert (
                predict(base, a, strategy, 0).score == predict(base, b, strategy, 0).score
            )


class TestAlgebraicProperties:
    """The rules' algebra over random neighbor sets of one 60-row base."""

    @staticmethod
    def scores(base, strategy, rng, trials, max_size):
        for _ in range(trials):
            idx = rng.choice(base.n, size=int(rng.integers(1, max_size)), replace=False)
            yield idx, predict(base, neighbor_set(idx), strategy, 0).score

    def test_ratio_label_flip_antisymmetry(self, rng):
        base = random_base(rng, 60, d_cm=3)
        flipped = base_with(1 - base.labels, base.scores)
        for idx, ratio in self.scores(base, RATIO, rng, 300, 50):
            assert ratio == pytest.approx(1.0 - predict(flipped, neighbor_set(idx), RATIO, 0).score, abs=1e-12)

    def test_mv_consistent_with_ratio(self, rng):
        base = random_base(rng, 60, d_cm=3)
        for idx, ratio in self.scores(base, RATIO, rng, 300, 30):
            mv = predict(base, neighbor_set(idx), MV, 0).score
            if ratio > 0.5:
                assert mv == 1.0
            elif ratio < 0.5:
                assert mv == 0.0
            else:
                assert mv == 0.5

    def test_average_permutation_invariant_and_bounded(self, rng):
        base = random_base(rng, 60, d_cm=3)
        for idx, mean in self.scores(base, AVG, rng, 200, 40):
            shuffled = rng.permutation(idx)
            assert predict(base, neighbor_set(shuffled), AVG, 0).score == mean  # fsum makes this exact
            scores = base.scores[idx].tolist()
            assert min(scores) <= mean <= max(scores)
            assert 0.0 < mean < 1.0


class TestTsv:
    def test_format(self):
        preds = [
            Prediction(3, 2 / 3, EnsembleStrategy.RATIO, 3),
            Prediction(4, 0.5, None, 0),
        ]
        text = format_prediction_tsv(preds)
        assert text == "3\t0.666666667\tratio\t3\n4\t0.500000000\traw\t0\n"

    def test_empty(self):
        assert format_prediction_tsv([]) == ""
