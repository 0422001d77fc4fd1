from __future__ import annotations

import numpy as np
import pytest

from conftest import TIE_HEAVY_GRID, random_base, random_query, simple_layout, tie_heavy_world
from radd.ensemble import EnsembleStrategy, Prediction
from radd.errors import (
    DimensionMismatchError,
    EmptySamplesError,
    InvalidConfigError,
    InvalidLabelError,
    MissingClassError,
    NonFiniteValueError,
    UnlabeledQueryError,
)
from radd.metrics import EvalReport, ScoredSample, accuracy, eer, evaluate, evaluate_grid, report_from_predictions
from radd.retrieval import RetrievalStrategy
from radd.store import from_arrays
from radd.types import QueryRecord
from reference import brute_force_eer


def samples(pairs):
    return [ScoredSample(score=s, label=y) for s, y in pairs]


class TestAccuracy:
    def test_both_correct(self):
        assert accuracy(samples([(0.9, 1), (0.1, 0)])) == 1.0

    def test_half_threshold_classifies_fake(self):
        assert accuracy(samples([(0.5, 1)])) == 1.0
        assert accuracy(samples([(0.5, 0)])) == 0.0

    def test_both_wrong(self):
        assert accuracy(samples([(0.9, 0), (0.1, 1)])) == 0.0

    def test_empty(self):
        with pytest.raises(EmptySamplesError):
            accuracy([])
        with pytest.raises(EmptySamplesError):
            eer([])

    def test_accuracy_plus_error_is_one(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 60))
            ss = samples(zip(rng.uniform(0, 1, n), rng.integers(0, 2, n).tolist()))
            correct = sum(1 for s in ss if (s.score >= 0.5) == bool(s.label))
            acc = accuracy(ss)
            assert acc == correct / n
            assert acc + (n - correct) / n == pytest.approx(1.0, abs=1e-12)


class TestEer:
    def test_perfect_separation(self):
        assert eer(samples([(0.1, 0), (0.2, 0), (0.8, 1), (0.9, 1)])) == 0.0

    def test_fully_inverted_two_points(self):
        assert eer(samples([(0.9, 0), (0.1, 1)])) == 1.0

    def test_binary_scores_use_averaged_rates_rule(self):
        # 5 real (one scored 1.0 -> FAR 0.2), 5 fake (two scored 0.0 -> miss 0.4)
        real = [(1.0, 0)] + [(0.0, 0)] * 4
        fake = [(0.0, 1)] * 2 + [(1.0, 1)] * 3
        value = eer(samples(real + fake))
        assert value == pytest.approx(0.3, abs=1e-12)
        assert type(value) is float

    def test_constant_scores_give_half(self):
        assert eer(samples([(0.5, 0), (0.5, 1), (0.5, 1)])) == 0.5

    def test_missing_class(self):
        with pytest.raises(MissingClassError):
            eer(samples([(0.2, 0), (0.4, 0)]))
        with pytest.raises(MissingClassError):
            eer(samples([(0.2, 1)]))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_score(self, bad):
        with pytest.raises(NonFiniteValueError):
            eer(samples([(0.2, 0), (bad, 0), (0.8, 1)]))

    def test_interpolated_crossing(self):
        # real in {0.2, 0.5}, fake in {0.5, 0.8}: cross-class tie at 0.5
        # forces the crossing strictly between operating points
        value = eer(samples([(0.2, 0), (0.5, 0), (0.5, 1), (0.8, 1)]))
        assert value == pytest.approx(0.25, abs=1e-12)
        assert type(value) is float

    def test_oracle_equivalence_random(self):
        rng = np.random.default_rng(77)
        for trial in range(200):
            n = int(rng.integers(2, 120))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            if trial % 3 == 0:
                scores = rng.integers(0, 5, size=n) / 4.0  # heavy ties
            elif trial % 3 == 1:
                scores = rng.integers(0, 2, size=n).astype(float)  # binary
            else:
                scores = rng.uniform(0, 1, size=n)
            ss = samples(zip(scores.tolist(), labels.tolist()))
            assert eer(ss) == pytest.approx(
                brute_force_eer(scores.tolist(), labels.tolist()), abs=1e-9
            ), f"trial={trial}"

    def test_monotone_transform_invariance(self, rng):
        for _ in range(30):
            n = int(rng.integers(4, 80))
            scores = rng.uniform(0, 1, size=n)
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            base_eer = eer(samples(zip(scores, labels.tolist())))
            warped = eer(samples(zip((scores**3 + 2 * scores).tolist(), labels.tolist())))
            assert warped == pytest.approx(base_eer, abs=1e-12)

    def test_symmetry_under_score_and_label_flip(self, rng):
        for _ in range(60):
            n = int(rng.integers(2, 100))
            scores = np.round(rng.uniform(0, 1, size=n), 1)  # with ties
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            forward = eer(samples(zip(scores, labels.tolist())))
            mirrored = eer(samples(zip((1.0 - scores).tolist(), (1 - labels).tolist())))
            assert mirrored == pytest.approx(forward, abs=1e-12)

    def test_matches_roc_polyline_crossing(self, rng):
        # independent cross-check against an established ROC implementation:
        # on continuous scores our sweep must land on the same polyline
        # crossing as the (fpr, fnr) curves from sklearn's roc_curve
        sklearn_metrics = pytest.importorskip("sklearn.metrics")

        def roc_eer(labels, scores):
            fpr, tpr, _ = sklearn_metrics.roc_curve(labels, scores, pos_label=1)
            fnr = 1 - tpr
            diff = fnr - fpr  # +1 at the strictest threshold, -1 at the loosest
            i = int(np.flatnonzero(diff <= 0)[0])
            if i == 0 or diff[i] == 0:
                return float(fpr[i] if diff[i] == 0 else fpr[0])
            t = diff[i - 1] / (diff[i - 1] - diff[i])
            return float(fpr[i - 1] + t * (fpr[i] - fpr[i - 1]))

        for _ in range(100):
            n = int(rng.integers(4, 300))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            scores = rng.uniform(0, 1, size=n)
            mine = eer(samples(zip(scores.tolist(), labels.tolist())))
            assert mine == pytest.approx(roc_eer(labels, scores), abs=1e-12)


class TestScoredSampleChecks:
    """Both metrics read one checked split: a bad sample raises the same typed
    error from either, before anything is counted."""

    @pytest.mark.parametrize("metric", [accuracy, eer])
    @pytest.mark.parametrize("bad, error", [
        ((0.6, None), InvalidLabelError),
        ((0.6, "1"), InvalidLabelError),
        ((0.6, 1.7), InvalidLabelError),
        ((0.6, True), InvalidLabelError),
        ((0.6, 2), InvalidLabelError),
        ((0.6, np.int64(1)), InvalidLabelError),
        (("0.7", 1), NonFiniteValueError),
        ((True, 1), NonFiniteValueError),
        ((None, 1), NonFiniteValueError),
        ((10**400, 1), NonFiniteValueError),
        ((float("nan"), 0), NonFiniteValueError),
    ])
    def test_bad_sample_raises(self, metric, bad, error):
        with pytest.raises(error):
            metric(samples([(0.3, 0), bad, (0.4, 1)]))

    def test_nan_alone_is_no_perfect_accuracy(self):
        with pytest.raises(NonFiniteValueError):
            accuracy(samples([(float("nan"), 0)]))

    def test_binary_and_float32_scores_are_valid(self):
        ss = samples([(0.0, 0), (np.float32(0.25), 0), (1.0, 1), (np.float64(0.75), 1)])
        assert (accuracy(ss), eer(ss)) == (1.0, 0.0)


def consistent_neighborhood_fixture(flip=False):
    """Two tight, well-separated clusters; every query's neighbors share its
    label (or the opposite label when flipped)."""
    real = np.array([[10.0, 0.0], [10.1, 0.1], [9.9, -0.1]], dtype=np.float32)
    fake = np.array([[0.0, 10.0], [0.1, 10.1], [-0.1, 9.9]], dtype=np.float32)
    cm = np.vstack([real, fake])
    labels = np.array([0, 0, 0, 1, 1, 1], dtype=np.uint8)
    if flip:
        labels = 1 - labels
    base = from_arrays(
        ids=np.arange(6), labels=labels,
        scores=np.array([0.1, 0.1, 0.1, 0.9, 0.9, 0.9], dtype=np.float32),
        cm_matrix=cm, prof_matrix=cm.copy(), layout=simple_layout(2),
    )
    queries = [
        QueryRecord(id=0, cm=[10.05, 0.0], prof=[10.05, 0.0], score=0.2, label=0),
        QueryRecord(id=1, cm=[0.0, 10.05], prof=[0.0, 10.05], score=0.8, label=1),
        QueryRecord(id=2, cm=[9.8, 0.2], prof=[9.8, 0.2], score=0.3, label=0),
        QueryRecord(id=3, cm=[0.2, 9.8], prof=[0.2, 9.8], score=0.7, label=1),
    ]
    return base, queries


class TestEvaluate:
    def test_consistent_neighborhood_is_perfect(self):
        base, queries = consistent_neighborhood_fixture()
        for strategy in (RetrievalStrategy.CM_ONLY, RetrievalStrategy.HYBRID):
            for ens in (EnsembleStrategy.MAJORITY_VOTE, EnsembleStrategy.RATIO):
                report = evaluate(base, queries, strategy, ens, k=3)
                assert report.eer == 0.0
                assert report.accuracy == 1.0

    def test_flipped_labels_invert_accuracy(self):
        base, queries = consistent_neighborhood_fixture(flip=True)
        report = evaluate(base, queries, RetrievalStrategy.CM_ONLY, EnsembleStrategy.RATIO, k=3)
        assert report.accuracy == 0.0

    def test_single_query_reports_accuracy_without_eer(self):
        base, queries = consistent_neighborhood_fixture()
        report = evaluate(base, queries[:1], RetrievalStrategy.CM_ONLY, EnsembleStrategy.RATIO, k=3)
        assert report.eer is None
        assert report.accuracy == 1.0

    def test_unlabeled_query_rejected(self):
        base, queries = consistent_neighborhood_fixture()
        unlabeled = QueryRecord(id=42, cm=queries[0].cm, prof=queries[0].prof, score=0.2)
        with pytest.raises(UnlabeledQueryError) as exc_info:
            evaluate(base, [unlabeled], RetrievalStrategy.CM_ONLY, EnsembleStrategy.RATIO, k=3)
        assert exc_info.value.query_id == 42

    def test_baseline_uses_raw_scores(self):
        base, queries = consistent_neighborhood_fixture()
        report = evaluate(base, queries, None, None, k=0)
        assert report.strategy == "none"
        assert report.accuracy == 1.0  # raw scores already separate this fixture

    def test_baseline_reports_no_ensemble(self):
        # No ensemble runs on raw scores, so none is reported, whatever was given.
        base, queries = consistent_neighborhood_fixture()
        plain = evaluate(base, queries, None, None, k=0)
        for report in (evaluate(base, queries, None, EnsembleStrategy.RATIO, k=5),
                       *evaluate_grid(base, queries, None, EnsembleStrategy.RATIO, [1, 5])):
            assert (report.strategy, report.ensemble, report.k) == ("none", "none", 0)
            assert report == plain

    @pytest.mark.parametrize("ks, parallelism, message", [
        (["x"], 0, "must be integers"),
        ([True], 1, "must be integers"),
        ([5], 0, "parallelism must be >= 1, got 0"),
        ([True, 2.5], "a", "must be integers"),
        ([], 1, "got None"),
    ], ids=["str-k", "bool-k", "parallelism-0", "grid-of-non-integers", "empty-grid"])
    def test_baseline_checks_its_configuration(self, ks, parallelism, message):
        # The baseline uses no k (0 is accepted), but a non-integer k or
        # parallelism, a parallelism below 1 or an empty grid is an error,
        # as for every retrieval strategy.
        base, queries = consistent_neighborhood_fixture()
        with pytest.raises(InvalidConfigError, match=message):
            evaluate_grid(base, queries, None, None, ks, parallelism)
        if len(ks) == 1:
            with pytest.raises(InvalidConfigError, match=message):
                evaluate(base, queries, None, None, *ks, parallelism=parallelism)

    def test_report_rejects_nan_score(self):
        _, queries = consistent_neighborhood_fixture()
        predictions = [Prediction(q.id, q.score, None, 0) for q in queries]
        predictions[1] = Prediction(queries[1].id, float("nan"), None, 0)
        with pytest.raises(NonFiniteValueError):
            report_from_predictions(predictions, queries, None, None, k=0)

    def test_report_rejects_unlabeled_query(self):
        _, queries = consistent_neighborhood_fixture()
        queries[2] = QueryRecord(id=42, cm=queries[2].cm, prof=queries[2].prof, score=0.3)
        predictions = [Prediction(q.id, q.score, None, 0) for q in queries]
        with pytest.raises(UnlabeledQueryError) as exc_info:
            report_from_predictions(predictions, queries, None, None, k=0)
        assert exc_info.value.query_id == 42

    def test_report_rejects_fewer_predictions_than_queries(self):
        _, queries = consistent_neighborhood_fixture()
        predictions = [Prediction(q.id, q.score, None, 0) for q in queries[:3]]
        with pytest.raises(DimensionMismatchError, match="3 predictions for 4 queries"):
            report_from_predictions(predictions, queries, None, None, k=0)

    def test_report_counts(self):
        base, queries = consistent_neighborhood_fixture()
        report = evaluate(base, queries, RetrievalStrategy.CM_ONLY, EnsembleStrategy.RATIO, k=3)
        assert (report.n_real, report.n_fake) == (2, 2)
        assert report.to_json_dict()["threshold_used"] == 0.5
        assert report.k == 3

    def test_json_shape(self):
        report = EvalReport(eer=0.25, accuracy=0.75, n_real=2, n_fake=2,
                            strategy="cm", ensemble="mv", k=5)
        obj = report.to_json_dict()
        assert obj["config"] == {"strategy": "cm", "ensemble": "mv", "k": 5}
        assert obj["eer"] == 0.25 and obj["threshold_used"] == 0.5

    def test_deterministic_across_parallelism(self, rng):
        base = random_base(rng, 120, d_cm=5, d_prof=5)
        queries = [random_query(rng, i, 5, 5) for i in range(150)]
        reports = [
            evaluate(base, queries, RetrievalStrategy.HYBRID, EnsembleStrategy.RATIO, 7, parallelism=p)
            for p in (1, 4, 8)
        ]
        assert reports[0] == reports[1] == reports[2]


class TestEvaluateGrid:
    @pytest.mark.parametrize("parallelism", [1, 4])
    @pytest.mark.parametrize("ensemble", list(EnsembleStrategy))
    @pytest.mark.parametrize("strategy", [*RetrievalStrategy, None])
    def test_equals_evaluate_at_each_k(self, strategy, ensemble, parallelism):
        base, queries = tie_heavy_world(11)
        got = evaluate_grid(base, queries, strategy, ensemble, TIE_HEAVY_GRID, parallelism)
        want = [evaluate(base, queries, strategy, ensemble, k, parallelism) for k in TIE_HEAVY_GRID]
        assert got == want

    def test_checks_queries_before_retrieval(self, ranked_blocks):
        base, queries = tie_heavy_world(12, n_queries=4)
        with pytest.raises(EmptySamplesError):
            evaluate_grid(base, [], RetrievalStrategy.CM_ONLY, EnsembleStrategy.RATIO, [3])
        unlabeled = [*queries, QueryRecord(id=9, cm=[1.0, 0.0, 0.0], prof=[1.0, 0.0, 0.0], score=0.5)]
        with pytest.raises(UnlabeledQueryError):
            evaluate_grid(base, unlabeled, RetrievalStrategy.HYBRID, EnsembleStrategy.RATIO, [1])
        # A missing or non-member ensemble is a configuration error before any block is ranked.
        for ensemble in (None, "avg", RetrievalStrategy.CM_ONLY):
            with pytest.raises(InvalidConfigError, match="ensemble"):
                evaluate_grid(base, queries, RetrievalStrategy.CM_ONLY, ensemble, [3])
            with pytest.raises(InvalidConfigError, match="ensemble"):
                evaluate(base, queries, RetrievalStrategy.HYBRID, ensemble, 3)
        assert ranked_blocks == []
