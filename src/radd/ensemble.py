"""Training-free ensemble rules that turn a retrieved neighbor set into a
prediction score.

Three rules: majority vote over neighbor labels, the ratio of fake-labeled
neighbors, and the mean of neighbor CM scores. None of them ever consume
similarity values; a prediction depends only on which rows were retrieved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

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
        # Exact summation, so the mean does not depend on neighbor order.
        score = math.fsum(base.scores[idx].tolist()) / n
    elif strategy is EnsembleStrategy.RATIO:
        score = int(base.labels[idx].sum()) / n
    elif strategy is EnsembleStrategy.MAJORITY_VOTE:
        fakes = int(base.labels[idx].sum())
        # An argmax over counts is undefined on a tie; 0.5 hands the
        # decision to the fixed threshold, where the >= rule calls it fake.
        score = 1.0 if 2 * fakes > n else 0.0 if 2 * fakes < n else 0.5
    else:
        raise InvalidConfigError(f"ensemble strategy must be an EnsembleStrategy, got {strategy!r}")
    return Prediction(query_id=query_id, score=score, strategy=strategy, neighbor_count=n)


def format_prediction_tsv(predictions: Sequence[Prediction]) -> str:
    """Render predictions as the TSV emitted by the CLI: query_id, score to
    nine decimal places, strategy, neighbor count."""
    lines = [
        f"{p.query_id}\t{p.score:.9f}\t{p.strategy.value if p.strategy else 'raw'}\t{p.neighbor_count}"
        for p in predictions
    ]
    return "\n".join(lines) + ("\n" if lines else "")
