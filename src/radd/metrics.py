"""Equal error rate, fixed-threshold accuracy, and the end-to-end evaluation
pipeline. Every evaluation (``evaluate``, ``evaluate_grid`` and the CLI's
``evaluate``, ``sweep`` and ``ablate``) takes one private path,
``_evaluate``: one label check, one retrieval at the largest k (or the raw
scores), ``predict`` per query and one ``report_from_predictions`` per k.

Conventions, fixed once here and used everywhere:

- The positive class is fake (label 1): higher score means more likely fake.
- Accuracy uses the fixed threshold 0.5 with the >= rule, so a score of
  exactly 0.5 classifies as fake. Zero-day conditions preclude tuning a
  threshold on development data, hence the fixed operating point.
- EER sweeps the threshold over every distinct score plus below-min and
  above-max sentinels. FAR(t) is the fraction of real samples scoring >= t;
  miss(t) is the fraction of fake samples scoring < t. The sweep finds the
  adjacent operating points where FAR - miss changes sign and linearly
  interpolates the crossing. When the score set has at most two distinct
  values (binary outputs such as majority vote), the EER is instead
  (FAR + miss) / 2 at the single threshold separating the values.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ensemble import EnsembleStrategy, Prediction, predict
from .errors import (DimensionMismatchError, EmptySamplesError, InvalidConfigError, MissingClassError,
                     NonFiniteValueError, UnlabeledQueryError)
from .retrieval import RetrievalStrategy, _grid, retrieve_batch
from .store import KnowledgeBase
from .types import QueryRecord, _validate_label

__all__ = [
    "ACCURACY_THRESHOLD",
    "EvalReport",
    "ScoredSample",
    "accuracy",
    "eer",
    "evaluate",
    "evaluate_grid",
    "score_queries",
]

ACCURACY_THRESHOLD = 0.5


@dataclass(frozen=True)
class ScoredSample:
    """A prediction score paired with its ground-truth label. The score is a
    finite real number, not range-checked (majority vote scores 0.0 and 1.0);
    the label is the literal integer 0 or 1, as in every record."""

    score: float
    label: int

    def __post_init__(self):
        score = self.score
        try:  # a str, a bool, None, NaN or an infinity is not a finite real number
            finite = not isinstance(score, bool) and isinstance(score, numbers.Real) and math.isfinite(score)
        except OverflowError:  # nor is an int past the float range
            finite = False
        if not finite:
            raise NonFiniteValueError(f"score must be a finite number, got {score!r}")
        _validate_label(self.label)


@dataclass(frozen=True)
class EvalReport:
    """Metrics for one (strategy, ensemble, k) configuration.

    ``eer`` is None when it is undefined (only one class present); the run
    still reports accuracy rather than failing.
    """

    eer: float | None
    accuracy: float
    n_real: int
    n_fake: int
    strategy: str
    ensemble: str
    k: int

    def to_json_dict(self) -> dict:
        return {
            "eer": self.eer,
            "accuracy": self.accuracy,
            "n_real": self.n_real,
            "n_fake": self.n_fake,
            "threshold_used": ACCURACY_THRESHOLD,
            "config": {"strategy": self.strategy, "ensemble": self.ensemble, "k": self.k},
        }

    def table_row(self) -> str:
        """One human-readable row: strategy, ensemble, k, EER%, Acc%."""
        eer_txt = f"{100.0 * self.eer:.2f}" if self.eer is not None else "n/a"
        return (
            f"{self.strategy:>8} {self.ensemble:>6} {self.k:>4} "
            f"{eer_txt:>7} {100.0 * self.accuracy:>7.2f}"
        )


def _split_scores(samples: Sequence[ScoredSample]) -> tuple[np.ndarray, np.ndarray]:
    """The sorted real and fake scores: the one split both metrics count from."""
    if len(samples) == 0:
        raise EmptySamplesError("no samples to score")
    scores = np.array([s.score for s in samples], dtype=np.float64)
    labels = np.array([s.label for s in samples], dtype=np.int64)
    return np.sort(scores[labels == 0]), np.sort(scores[labels == 1])


def accuracy(samples: Sequence[ScoredSample]) -> float:
    """Fraction of samples whose thresholded decision matches the label."""
    real, fake = _split_scores(samples)
    correct = np.count_nonzero(real < ACCURACY_THRESHOLD) + np.count_nonzero(fake >= ACCURACY_THRESHOLD)
    return int(correct) / len(samples)


def eer(samples: Sequence[ScoredSample]) -> float:
    """Equal error rate of the scored samples (see module docstring for the
    sweep and interpolation conventions).

    Raises:
        MissingClassError: Fewer than one real or one fake sample.
    """
    real, fake = _split_scores(samples)
    if real.size == 0 or fake.size == 0:
        raise MissingClassError(
            f"EER needs both classes; got {real.size} real and {fake.size} fake samples"
        )
    distinct = np.unique(np.concatenate([real, fake]))
    if distinct.size <= 2:
        # Binary or constant outputs: place the threshold between the two
        # values (at the single value when constant) and average the rates.
        tau = distinct[-1]
        far = np.count_nonzero(real >= tau) / real.size
        miss = np.count_nonzero(fake < tau) / fake.size
        return float((far + miss) / 2.0)
    taus = np.concatenate([[distinct[0] - 1.0], distinct, [distinct[-1] + 1.0]])
    far = (real.size - np.searchsorted(real, taus, side="left")) / real.size
    miss = np.searchsorted(fake, taus, side="left") / fake.size
    diff = far - miss  # non-increasing: +1 at the low sentinel, -1 at the high
    i = int(np.flatnonzero(diff >= 0.0)[-1])
    if diff[i] == 0.0:
        return float(far[i])
    t = diff[i] / (diff[i] - diff[i + 1])
    return float(far[i] + t * (far[i + 1] - far[i]))


def _require_labels(queries: Sequence[QueryRecord]) -> None:
    """Raise EmptySamplesError for zero queries, and UnlabeledQueryError
    naming the first query without a label."""
    if len(queries) == 0:
        raise EmptySamplesError("cannot evaluate zero queries")
    for q in queries:
        if q.label is None:
            raise UnlabeledQueryError(f"query {q.id} has no ground-truth label", query_id=q.id)


def score_queries(
    base: KnowledgeBase,
    queries: Sequence[QueryRecord],
    strategy: RetrievalStrategy | None,
    ensemble: EnsembleStrategy | None,
    k: int,
    parallelism: int = 1,
) -> list[Prediction]:
    """Run retrieval plus ensemble for every query, in input order.

    ``strategy=None`` is the baseline: the raw CM score is passed through
    with no retrieval, which gives baseline-vs-retrieval comparisons a single
    code path.
    """
    if strategy is None:
        return [
            Prediction(query_id=q.id, score=q.score, strategy=None, neighbor_count=0)
            for q in queries
        ]
    if ensemble is None:
        raise InvalidConfigError("an ensemble strategy is required unless strategy is None")
    neighbor_sets = retrieve_batch(base, queries, strategy, k, parallelism)
    return [predict(base, ns, ensemble, q.id) for q, ns in zip(queries, neighbor_sets)]


def evaluate(
    base: KnowledgeBase,
    queries: Sequence[QueryRecord],
    strategy: RetrievalStrategy | None,
    ensemble: EnsembleStrategy | None,
    k: int,
    parallelism: int = 1,
) -> EvalReport:
    """Score every labeled query and report EER plus fixed-threshold accuracy.

    Raises:
        UnlabeledQueryError: Some query has no ground-truth label (reported by
            id before any retrieval runs).
    """
    return _evaluate(base, queries, strategy, ensemble, [k], parallelism)[0][1]


def evaluate_grid(
    base: KnowledgeBase,
    queries: Sequence[QueryRecord],
    strategy: RetrievalStrategy | None,
    ensemble: EnsembleStrategy | None,
    ks: Sequence[int],
    parallelism: int = 1,
) -> list[EvalReport]:
    """``[evaluate(base, queries, strategy, ensemble, k, parallelism) for k in ks]``
    from a single retrieval at max(ks) (see ``retrieve_grid``)."""
    return [report for _, report in _evaluate(base, queries, strategy, ensemble, ks, parallelism)]


def _evaluate(base: KnowledgeBase, queries: Sequence[QueryRecord], strategy: RetrievalStrategy | None,
              ensemble: EnsembleStrategy | None, ks: Sequence[int], parallelism: int = 1,
              shared: list | None = None) -> list[tuple[list[Prediction], EvalReport]]:
    """The one evaluation path: the predictions and the report at each k of
    *ks*, in order, after one label check and one retrieval at max(ks).
    *shared* carries one CM ranking across calls (see ``retrieval._grid``)."""
    _require_labels(queries)
    if strategy is None or ensemble is None or (len(ks) == 1 and shared is None):
        # Raw scores (the baseline), score_queries' missing-ensemble error, or the one-k retrieval perfbench traces.
        per_k = [score_queries(base, queries, strategy, ensemble, max(ks, default=0), parallelism)] * len(ks)
    else:
        per_k = [
            [predict(base, ns, ensemble, q.id) for q, ns in zip(queries, sets)]
            for sets in _grid(base, queries, strategy, ks, parallelism, shared)
        ]
    return [(p, report_from_predictions(p, queries, strategy, ensemble, k)) for p, k in zip(per_k, ks)]


def report_from_predictions(
    predictions: Sequence[Prediction],
    queries: Sequence[QueryRecord],
    strategy: RetrievalStrategy | None,
    ensemble: EnsembleStrategy | None,
    k: int,
) -> EvalReport:
    """Aggregate per-query predictions into an EvalReport.

    Raises:
        DimensionMismatchError: *predictions* and *queries* differ in length.
        UnlabeledQueryError: Some query has no ground-truth label.
    """
    if len(predictions) != len(queries):
        raise DimensionMismatchError(f"{len(predictions)} predictions for {len(queries)} queries")
    _require_labels(queries)
    samples = [ScoredSample(score=p.score, label=q.label) for p, q in zip(predictions, queries)]
    acc = accuracy(samples)
    try:
        eer_value: float | None = eer(samples)
    except MissingClassError:
        eer_value = None
    labels = [q.label for q in queries]
    return EvalReport(
        eer=eer_value,
        accuracy=acc,
        n_real=labels.count(0),
        n_fake=labels.count(1),
        strategy=strategy.value if strategy else "none",
        ensemble=ensemble.value if strategy and ensemble else "none",
        k=k if strategy else 0,
    )
