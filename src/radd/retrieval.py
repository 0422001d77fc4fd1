"""Exact top-k cosine retrieval over a knowledge base.

Three strategies: CM-feature space only, profile-feature space only, and the
hybrid split that takes floor(k/2) CM neighbors plus ceil(k/2) profile
neighbors and deduplicates their union.

Conventions that make results reproducible everywhere:

- All similarity math runs in float64, whatever the storage precision.
- Ties in similarity are broken by ascending row index, so the ranking is a
  total order.
- A zero-norm vector (on either side) gets the sentinel similarity -1.0
  instead of NaN, which pushes degenerate rows to the bottom deterministically.
- Queries are ranked in fixed-size chunks regardless of the parallelism
  setting, so outputs are bit-identical for any worker count.

This is a flat exact scan, not an approximate index, with one selection
step (``_rank``): it ranks a whole list of query vectors in one space. It
alone cuts the list into chunks of b queries and owns the worker pool; per
chunk it makes one (b, n) float64 similarity block (a dense matrix product),
one argpartition for every row's top k and a (similarity desc, row asc)
lexsort of the survivors, and only a row whose cutoff value repeats beyond
the partition takes the exact per-row tie repair. The ranking is a total
order, so a query's top k' is the prefix of its top k for every k' <= k,
and one ranking at max(grid) serves a whole k grid (``retrieve_grid``;
``retrieve_batch`` is its one-k case). cm and prof slice it; hybrid at k
merges, over the whole query list at once, the floor(k/2) prefix of the CM
ranking with the ceil(k/2) prefix of the profile ranking.
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

# Queries per similarity matmul. Fixed: chunk boundaries must not depend on
# the parallelism setting or results could differ between worker counts.
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


def _similarity_block(base: KnowledgeBase, space: Space, queries: Sequence[np.ndarray]) -> np.ndarray:
    """(b, n) float64 cosine similarities of each of the b query vectors
    against every base row, with zero-norm sentinel handling on both sides."""
    q64 = np.ascontiguousarray(queries, dtype=np.float64)
    norms = base.norms(space)
    qnorms = np.sqrt(np.einsum("ij,ij->i", q64, q64))
    safe_rows = np.where(norms == 0.0, 1.0, norms)
    safe_q = np.where(qnorms == 0.0, 1.0, qnorms)
    sims = q64 @ base.matrix64(space).T
    # One division by the product (not two divisions): the rounding is part
    # of the bit-exact contract.
    sims /= safe_q[:, None] * safe_rows[None, :]
    if (norms == 0.0).any():
        sims[:, norms == 0.0] = -1.0
    if (qnorms == 0.0).any():
        sims[qnorms == 0.0, :] = -1.0
    return sims


def _top_indices(sims: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest values of one similarity row ordered by
    (value desc, index asc). Exact under ties: boundary ties are resolved
    toward smaller row indices, matching a full stable sort."""
    part = np.argpartition(-sims, k - 1)[:k]
    cutoff = sims[part].min()
    above = np.flatnonzero(sims > cutoff)
    at = np.flatnonzero(sims == cutoff)[: k - above.shape[0]]
    chosen = np.concatenate([above, at])
    order = np.argsort(-sims[chosen], kind="stable")  # stable keeps index order in ties
    return chosen[order]


def _top_rows(sims: np.ndarray, k: int) -> np.ndarray:
    """(b, k) int64 indices of each row's k largest similarities, ordered by
    (value desc, index asc); *k* must not exceed n (at k == n the partition
    keeps every column and the lexsort is a stable full sort)."""
    n = sims.shape[1]
    part = np.argpartition(sims, n - k, axis=1)[:, n - k :]
    vals = np.take_along_axis(sims, part, axis=1)
    idx = np.take_along_axis(part, np.lexsort((part, -vals), axis=1), axis=1)
    # argpartition may pick an arbitrary subset of the entries tied at the
    # cutoff value; only rows with more than k entries >= cutoff can be wrong.
    cutoff = vals.min(axis=1)
    for r in np.flatnonzero(np.count_nonzero(sims >= cutoff[:, None], axis=1) > k):
        idx[r] = _top_indices(sims[r], k)
    return idx


def _rank(
    base: KnowledgeBase, space: Space, vecs: Sequence[np.ndarray], k: int, parallelism: int
) -> tuple[np.ndarray, np.ndarray]:
    """The one selection step: (q, min(k, n)) rows and similarities of each
    of the q query vectors' nearest base rows in one space, ordered by
    (similarity desc, row asc). The list is cut into fixed _CHUNK blocks,
    each one similarity block and one ``_top_rows``; *parallelism* only
    decides how many blocks run at once."""
    k = min(k, base.n)

    def rank_block(block: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        sims = _similarity_block(base, space, block)
        idx = _top_rows(sims, k)
        return idx, np.take_along_axis(sims, idx, axis=1)

    blocks = [vecs[i : i + _CHUNK] for i in range(0, len(vecs), _CHUNK)]
    if parallelism == 1 or len(blocks) <= 1:
        ranked = [rank_block(b) for b in blocks]
    else:
        # More workers than blocks would only start idle threads.
        with ThreadPoolExecutor(max_workers=min(parallelism, len(blocks))) as pool:
            ranked = list(pool.map(rank_block, blocks))
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
    base: KnowledgeBase,
    queries: Sequence[QueryRecord],
    strategy: RetrievalStrategy,
    k: int,
    parallelism: int = 1,
) -> list[NeighborSet]:
    """Retrieve neighbors for many queries at one k (see ``retrieve_grid``)."""
    return retrieve_grid(base, queries, strategy, [k], parallelism)[0]


def retrieve_grid(
    base: KnowledgeBase,
    queries: Sequence[QueryRecord],
    strategy: RetrievalStrategy,
    ks: Sequence[int],
    parallelism: int = 1,
) -> list[list[NeighborSet]]:
    """Neighbor sets for many queries at every k of *ks*: one list per k, in
    query order, equal to ``retrieve_batch`` at that k. Each space is ranked
    once at max(ks); each k slices that ranking (cm, prof) or merges its
    halves' prefixes (hybrid).

    Results are bit-identical for any *parallelism* value (see ``_rank``).
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
