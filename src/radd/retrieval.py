"""Exact top-k cosine retrieval over a knowledge base.

Three strategies: CM-feature space only, profile-feature space only, and the
hybrid split that takes floor(k/2) CM neighbors plus ceil(k/2) profile
neighbors and deduplicates their union.

Conventions that make results reproducible everywhere:

- Every reported similarity is a float64 cosine: one float64 dot of the
  float32 vectors divided by the product of their float64 norms. float32
  arithmetic only screens out rows that provably cannot rank.
- Ties in similarity are broken by ascending row index, so the ranking is a
  total order.
- A zero-norm vector (on either side) gets the sentinel similarity -1.0
  instead of NaN, which pushes degenerate rows to the bottom deterministically.
- A query's ranking, similarity bits included, depends only on the query and
  the base: it is the same alone, at any position of a batch and for any
  worker count.

This is a flat exact scan, not an approximate index, with one selection
step (``_rank``): it ranks a whole list of query vectors in one space, cut
into chunks of b queries that a worker pool ranks. Per chunk
(``_rank_block``) a float32 matrix product screens every row, and only the
survivors are rescored in float64 and sorted, as in exact flat search
(Johnson, Douze and Jegou, arXiv:1702.08734: a blocked matrix product, then
k-selection). The ranking is a total order, so a query's top k' is the
prefix of its top k, and one ranking at max(grid) serves a whole k grid
(``retrieve_grid``; ``retrieve_batch`` is its one-k case). cm and prof slice
it; hybrid at k merges, over the whole query list at once, the floor(k/2)
prefix of the CM ranking with the ceil(k/2) prefix of the profile ranking.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, HybridKTooSmallError
from .store import KnowledgeBase, Space
from .types import QueryRecord, as_feature_vector

__all__ = ["NeighborSet", "RetrievalStrategy", "retrieve", "retrieve_batch", "retrieve_grid", "top_k"]

# Queries per screening matmul: each worker holds one (_CHUNK, n) float32
# block of screened similarities and the partition's copy of it.
_CHUNK = 64


class RetrievalStrategy(Enum):
    CM_ONLY = "cm"
    PROFILE_ONLY = "prof"
    HYBRID = "hybrid"


@dataclass(frozen=True)
class NeighborSet:
    """Retrieved rows for one query, ordered by (similarity desc, index asc).

    ``indices`` are knowledge-base row positions (not entry ids). For hybrid
    retrieval the set may be smaller than ``k_requested`` because the two
    half-retrievals can overlap; a row retrieved in both spaces keeps the
    larger of its two similarities.
    """

    indices: np.ndarray  # int64, distinct
    similarities: np.ndarray  # float64, aligned with indices
    strategy: RetrievalStrategy
    k_requested: int

    @property
    def entries(self) -> list[tuple[int, float]]:
        return [(int(i), float(s)) for i, s in zip(self.indices, self.similarities)]

    def __len__(self) -> int:
        return int(self.indices.shape[0])


# A nonzero base row with a norm outside these bounds skips the float32 screen
# and is always rescored: no overflow or heavy underflow reaches the screen.
_SCREENED_NORMS = (2.0**-60, 2.0**60)


def _slack(d: int) -> float:
    """2 eps(d), where eps bounds |screened - rescored| similarity of a
    nonzero query and a screened row in d dimensions for every finite
    float32 input (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., 3.1): gamma_d = d u / (1 - d u), u = 2**-24, for the float32
    dot in any summation order, with or without FMA; 4u for rounding the
    unit query, the inverse norm and the scaled product; (d + 8) 2**-50 for
    the float64 norms, the float64 rescoring and every underflow (at most
    2**-126 per operation, gradual or flushed, against a norm >= 2**-60)."""
    u = 2.0**-24
    if d * u >= 0.5:
        return float("inf")
    return 2.0 * ((1.0 + 2.0**-20) * (d * u / (1.0 - d * u) + 4.0 * u) + (d + 8) * 2.0**-50)


def _rank_block(
    base: KnowledgeBase, space: Space, queries: Sequence[np.ndarray], k: int
) -> tuple[np.ndarray, np.ndarray]:
    """(b, k) rows and similarities of each of the b query vectors' k
    nearest base rows (k <= n), ordered by (similarity desc, row asc).

    Screen: every row in float32 (the float64 unit query rounded to float32,
    one float32 matrix product, float32 inverse norms; zero rows at the
    sentinel exactly). A row survives if it screens at least the query's
    k-th largest screened value t minus ``_slack(d)`` = 2 eps. With c_k the
    k-th largest rescored value, c_k - eps <= t <= c_k + eps, so every row
    of the top k survives and a dropped row rescores strictly below c_k: no
    tie at the boundary is cut. Rescore: one float64 dot per survivor, with
    bits that depend only on the (query, row) pair; a stable sort of the
    survivors (in ascending row order) by similarity gives the ranking."""
    matrix, norms, n = base.matrix(space), base.norms(space), base.n
    q64 = np.ascontiguousarray(queries, dtype=np.float64)
    qnorms = np.sqrt(np.einsum("ij,ij->i", q64, q64))
    zero_q, zero_rows = qnorms == 0.0, norms == 0.0
    safe_q, safe_rows = np.where(zero_q, 1.0, qnorms), np.where(zero_rows, 1.0, norms)
    screened = (norms >= _SCREENED_NORMS[0]) & (norms <= _SCREENED_NORMS[1])
    unscreened = ~(screened | zero_rows)
    inverse = np.divide(1.0, norms, out=np.zeros(n), where=screened).astype(np.float32)
    with np.errstate(all="ignore"):  # only unscreened columns can overflow, and they are replaced
        sims = (q64 / safe_q[:, None]).astype(np.float32) @ matrix.T
        sims *= inverse
    sims[:, zero_rows] = -1.0
    sims[:, unscreened] = -np.inf
    kth = np.partition(sims, n - k, axis=1)[:, n - k].astype(np.float64)
    # One float32 step below the rounded float64 threshold, so no row is lost to rounding.
    threshold = np.nextafter((kth - _slack(matrix.shape[1])).astype(np.float32), np.float32(-np.inf))
    keep = sims >= threshold[:, None]
    keep[:, unscreened] = True
    # A zero query ties every row at the sentinel: its top k are rows 0..k-1.
    keep[zero_q] = np.arange(n) < k
    rows, cols = np.divmod(np.flatnonzero(keep), n)  # a 2-D nonzero is many times slower
    starts = np.searchsorted(rows, np.arange(len(q64) + 1))
    dots = np.empty(len(cols))
    for i, q in enumerate(q64):
        span = slice(starts[i], starts[i + 1])
        dots[span] = np.einsum("ij,j->i", matrix.take(cols[span], axis=0).astype(np.float64), q)
    # One division by the norm product (not two divisions), as in the reference cosine.
    sim = dots / (safe_q[rows] * safe_rows[cols])
    sim[zero_q[rows] | zero_rows[cols]] = -1.0
    order = np.lexsort((-sim, rows))  # stable: ascending row among equal similarities
    pick = order[starts[:-1, None] + np.arange(k)]
    return cols[pick], sim[pick]


def _rank(
    base: KnowledgeBase, space: Space, vecs: Sequence[np.ndarray], k: int, parallelism: int
) -> tuple[np.ndarray, np.ndarray]:
    """The one selection step: (q, min(k, n)) rows and similarities of each
    of the q query vectors' nearest base rows in one space, ordered by
    (similarity desc, row asc). The list is cut into fixed _CHUNK blocks,
    each ranked by one ``_rank_block``; *parallelism* only decides how many
    blocks run at once."""
    k = min(k, base.n)
    blocks = [vecs[i : i + _CHUNK] for i in range(0, len(vecs), _CHUNK)]
    if parallelism == 1 or len(blocks) <= 1:
        ranked = [_rank_block(base, space, b, k) for b in blocks]
    else:
        # More workers than blocks would only start idle threads.
        with ThreadPoolExecutor(max_workers=min(parallelism, len(blocks))) as pool:
            ranked = list(pool.map(lambda b: _rank_block(base, space, b, k), blocks))
    idx, sim = (np.concatenate(parts) for parts in zip(*ranked))
    idx.flags.writeable = sim.flags.writeable = False  # the sets of every k share these rows
    return idx, sim


def _merge(cm: tuple[np.ndarray, np.ndarray], prof: tuple[np.ndarray, np.ndarray], k: int) -> list[NeighborSet]:
    """Hybrid neighbor sets at *k* from the whole (rows, similarities)
    rankings: the floor(k/2) prefix of the CM ranking merged with the
    ceil(k/2) prefix of the profile ranking. A row found by both keeps the
    larger similarity (the CM one when equal)."""
    idx = np.concatenate([cm[0][:, : k // 2], prof[0][:, : k - k // 2]], axis=1)
    sim = np.concatenate([cm[1][:, : k // 2], prof[1][:, : k - k // 2]], axis=1)
    # Sort each query's candidates by (row, similarity desc), stably so the
    # CM half wins a tie, and drop every repeat of a row after its first.
    order = np.lexsort((-sim, idx), axis=1)
    idx = np.take_along_axis(idx, order, axis=1)
    sim = np.take_along_axis(sim, order, axis=1)
    dropped = np.zeros(idx.shape, dtype=bool)
    dropped[:, 1:] = idx[:, 1:] == idx[:, :-1]
    order = np.lexsort((idx, -sim, dropped), axis=1)
    idx = np.take_along_axis(idx, order, axis=1)
    sim = np.take_along_axis(sim, order, axis=1)
    counts = idx.shape[1] - np.count_nonzero(dropped, axis=1)
    return [
        NeighborSet(i[:c], s[:c], RetrievalStrategy.HYBRID, k) for i, s, c in zip(idx, sim, counts.tolist())
    ]


def _check_query_dim(base: KnowledgeBase, space: Space, vec: np.ndarray, label: str):
    if vec.ndim != 1 or vec.shape[0] != base.dim(space):
        raise DimensionMismatchError(
            f"{label} has dimension {vec.shape[0] if vec.ndim == 1 else vec.shape}, "
            f"expected {base.dim(space)} for space {space!r}"
        )


def top_k(base: KnowledgeBase, query_vec, space: Space, k: int) -> NeighborSet:
    """The min(k, n) base rows most similar to *query_vec* in one feature
    space. k larger than the base silently truncates to n."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    vec = as_feature_vector(query_vec, "query")
    _check_query_dim(base, space, vec, "query")
    idx, sim = _rank(base, space, [vec], k, 1)
    return NeighborSet(idx[0], sim[0], RetrievalStrategy(space), k)


def retrieve(base: KnowledgeBase, query: QueryRecord, strategy: RetrievalStrategy, k: int) -> NeighborSet:
    """Retrieve neighbors for one query under the chosen strategy.

    Hybrid needs k >= 2 so the floor(k/2) CM half and ceil(k/2) profile half
    are both non-empty.
    """
    return retrieve_batch(base, [query], strategy, k, parallelism=1)[0]


def retrieve_batch(
    base: KnowledgeBase, queries: Sequence[QueryRecord], strategy: RetrievalStrategy, k: int, parallelism: int = 1
) -> list[NeighborSet]:
    """Retrieve neighbors for many queries at one k (see ``retrieve_grid``)."""
    return retrieve_grid(base, queries, strategy, [k], parallelism)[0]


def retrieve_grid(
    base: KnowledgeBase, queries: Sequence[QueryRecord], strategy: RetrievalStrategy, ks: Sequence[int],
    parallelism: int = 1,
) -> list[list[NeighborSet]]:
    """Neighbor sets for many queries at every k of *ks*: one list per k, in
    query order, equal to ``retrieve_batch`` at that k. Each space is ranked
    once at max(ks); each k slices that ranking (cm, prof) or merges its
    halves' prefixes (hybrid).

    Results do not depend on *parallelism* or on the batch (``_rank_block``).
    A query vector of the wrong dimension is reported with the query id.
    """
    hybrid = strategy is RetrievalStrategy.HYBRID
    if parallelism < 1:
        raise ValueError(f"parallelism must be >= 1, got {parallelism}")
    if not ks or min(ks) < 1:
        raise ValueError(f"k must be >= 1, got {min(ks, default=None)}")
    if hybrid and min(ks) < 2:
        raise HybridKTooSmallError(f"hybrid retrieval needs k >= 2, got {min(ks)}")
    if not queries:
        return [[] for _ in ks]
    spaces: tuple[Space, ...] = ("cm", "prof") if hybrid else (strategy.value,)
    for q in queries:
        for space in spaces:
            name = "cm vector" if space == "cm" else "profile vector"
            _check_query_dim(base, space, getattr(q, space), f"query {q.id}: {name}")
    kmax = max(ks)
    if not hybrid:
        idx, sim = _rank(base, strategy.value, [getattr(q, strategy.value) for q in queries], kmax, parallelism)
        return [[NeighborSet(i[:k], s[:k], strategy, k) for i, s in zip(idx, sim)] for k in ks]
    cm = _rank(base, "cm", [q.cm for q in queries], kmax // 2, parallelism)
    prof = _rank(base, "prof", [q.prof for q in queries], kmax - kmax // 2, parallelism)
    return [_merge(cm, prof, k) for k in ks]
