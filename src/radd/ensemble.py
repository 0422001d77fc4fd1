"""Training-free ensemble rules that turn a retrieved neighbor set into a
prediction score.

Three rules: majority vote over neighbor labels, the ratio of fake-labeled
neighbors, and the mean of neighbor CM scores. None of them ever consume
similarity values; a prediction depends only on which rows were retrieved.

Each rule is written once and has two callers: ``predict`` scores one set
(the per-query path of a one-k ``evaluate``) and ``_score_sets`` scores a
whole (queries x width) array of sets at once (every k of a sweep, every
mask of an ablation). mv and ratio live in ``_COUNT_RULES``, one expression
of a set's fake count and size that runs alike on Python ints and on numpy
arrays; avg is ``_mean``, one ``math.fsum`` per set in both callers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import EmptyNeighborSetError, InvalidConfigError, NeighborIndexError
from .retrieval import NeighborSet
from .store import KnowledgeBase

__all__ = ["EnsembleStrategy", "Prediction", "predict"]


class EnsembleStrategy(Enum):
    MAJORITY_VOTE = "mv"
    RATIO = "ratio"
    AVERAGE = "avg"


@dataclass(frozen=True)
class Prediction:
    """Final score for one query under one ensemble rule.

    ``neighbor_count`` is the deduplicated neighbor-set size, which for
    hybrid retrieval may be smaller than the requested k. Baseline (raw CM
    score) predictions carry ``strategy=None`` and a neighbor count of zero.
    """

    query_id: int
    score: float
    strategy: EnsembleStrategy | None
    neighbor_count: int


def _mean(scores: list[float], n: int) -> float:
    """avg: exact summation, so the mean does not depend on neighbor order."""
    return math.fsum(scores) / n


# mv and ratio from a set's fake count and size, the same code on ints and on arrays of them (bool / 2 is 0.0 or 0.5).
_COUNT_RULES = {
    EnsembleStrategy.RATIO: lambda fakes, n: fakes / n,
    # An argmax over counts is undefined on a tie; 0.5 hands the decision to
    # the fixed threshold, where the >= rule calls it fake.
    EnsembleStrategy.MAJORITY_VOTE: lambda fakes, n: (2 * fakes > n) / 2 + (2 * fakes >= n) / 2,
}


def predict(
    base: KnowledgeBase,
    neighbors: NeighborSet,
    strategy: EnsembleStrategy,
    query_id: int,
) -> Prediction:
    """Fetch the neighbors' labels/scores from the base and apply one rule:
    mv is 1.0 if fake labels outnumber real, 0.0 if real outnumber fake and
    0.5 on an exact tie; ratio is the fraction of neighbors labeled fake;
    avg is the mean of their CM scores. The denominator is always the
    deduplicated neighbor-set size. Any other *strategy* (a string, None)
    raises InvalidConfigError: no rule stands in for another."""
    n = len(neighbors)
    if n == 0:
        raise EmptyNeighborSetError(f"query {query_id}: empty neighbor set")
    idx = neighbors.indices
    if idx.min() < 0 or idx.max() >= base.n:
        raise NeighborIndexError(
            f"query {query_id}: neighbor index out of range for base of {base.n} rows"
        )
    if strategy is EnsembleStrategy.AVERAGE:
        score = _mean(base.scores[idx].tolist(), n)
    elif isinstance(strategy, EnsembleStrategy):
        score = _COUNT_RULES[strategy](int(base.labels[idx].sum()), n)
    else:
        raise InvalidConfigError(f"ensemble strategy must be an EnsembleStrategy, got {strategy!r}")
    return Prediction(query_id=query_id, score=score, strategy=strategy, neighbor_count=n)


def _score_sets(base: KnowledgeBase, rows: np.ndarray, sizes: np.ndarray, strategy: EnsembleStrategy) -> np.ndarray:
    """The float64 score of each of many neighbor sets under one rule, each
    equal to ``predict``'s: set i is the first sizes[i] base rows of row i of
    the (queries x width) array *rows*, as ``retrieval._grid`` returns them."""
    if strategy is EnsembleStrategy.AVERAGE:
        return np.array([_mean(s[:c], c) for s, c in zip(base.scores[rows].tolist(), sizes.tolist())])
    in_set = np.arange(rows.shape[1]) < sizes[:, None]
    return _COUNT_RULES[strategy](np.sum(base.labels[rows], axis=1, where=in_set, dtype=np.int64), sizes)


def format_prediction_tsv(predictions: Sequence[Prediction]) -> str:
    """Render predictions as the TSV emitted by the CLI: query_id, score to
    nine decimal places, strategy, neighbor count."""
    lines = [
        f"{p.query_id}\t{p.score:.9f}\t{p.strategy.value if p.strategy else 'raw'}\t{p.neighbor_count}"
        for p in predictions
    ]
    return "\n".join(lines) + ("\n" if lines else "")
