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
- Batch retrieval processes queries in fixed-size chunks regardless of the
  parallelism setting, so outputs are bit-identical for any worker count.

This is a flat exact scan, not an approximate index. Each chunk of b queries
computes all n similarities as one contiguous (b, n) float64 block (one dense
matrix product), then selects every row's top k at once with a single
argpartition along the rows and a (similarity desc, row asc) lexsort of the k
survivors. Only a row whose cutoff value repeats beyond the partition (more
than k entries >= cutoff) goes through the exact per-row tie repair. The
hybrid union is merged with array operations over the chunk's two halves.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, HybridKTooSmallError, RaddError
from .store import KnowledgeBase, Space
from .types import QueryRecord, as_feature_vector

__all__ = ["NeighborSet", "RetrievalStrategy", "retrieve", "retrieve_batch", "top_k"]

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


def _similarity_block(base: KnowledgeBase, space: Space, queries: np.ndarray) -> np.ndarray:
    """(b, n) float64 cosine similarities of each of the b query rows against
    every base row, with zero-norm sentinel handling on both sides."""
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
    (value desc, index asc); *k* must not exceed n."""
    n = sims.shape[1]
    if k >= n:
        return np.argsort(-sims, axis=1, kind="stable")
    part = np.argpartition(sims, n - k, axis=1)[:, n - k :]
    vals = np.take_along_axis(sims, part, axis=1)
    idx = np.take_along_axis(part, np.lexsort((part, -vals), axis=1), axis=1)
    # argpartition may pick an arbitrary subset of the entries tied at the
    # cutoff value; only rows with more than k entries >= cutoff can be wrong.
    cutoff = vals.min(axis=1)
    for r in np.flatnonzero(np.count_nonzero(sims >= cutoff[:, None], axis=1) > k):
        idx[r] = _top_indices(sims[r], k)
    return idx


def _select(sims: np.ndarray, k: int, strategy: RetrievalStrategy, k_requested: int) -> list[NeighborSet]:
    idx = _top_rows(sims, k)
    val = np.take_along_axis(sims, idx, axis=1)
    return [NeighborSet(i, s, strategy, k_requested) for i, s in zip(idx, val)]


def _hybrid(base: KnowledgeBase, chunk: Sequence[QueryRecord], k: int) -> list[NeighborSet]:
    """floor(k/2) CM plus ceil(k/2) profile neighbors per query; a row found
    by both halves keeps the larger similarity (the CM one when equal)."""
    idx_halves, sim_halves = [], []
    for space, kk in (("cm", k // 2), ("prof", k - k // 2)):
        sims = _similarity_block(base, space, np.stack([getattr(q, space) for q in chunk]))
        idx_halves.append(_top_rows(sims, min(kk, base.n)))
        sim_halves.append(np.take_along_axis(sims, idx_halves[-1], axis=1))
    idx = np.concatenate(idx_halves, axis=1)
    sim = np.concatenate(sim_halves, axis=1)
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
    sims = _similarity_block(base, space, vec[None, :])
    strategy = RetrievalStrategy.CM_ONLY if space == "cm" else RetrievalStrategy.PROFILE_ONLY
    return _select(sims, min(k, base.n), strategy, k)[0]


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
    """Retrieve neighbors for many queries; output order matches input order.

    Results are bit-identical for any *parallelism* value: the batch is cut
    into fixed-size chunks first and workers only decide which chunk runs
    where. Per-query failures are annotated with the query id.
    """
    if parallelism < 1:
        raise ValueError(f"parallelism must be >= 1, got {parallelism}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if strategy is RetrievalStrategy.HYBRID and k < 2:
        raise HybridKTooSmallError(f"hybrid retrieval needs k >= 2, got {k}")
    if not queries:
        return []

    chunks = [queries[i : i + _CHUNK] for i in range(0, len(queries), _CHUNK)]

    def run_chunk(chunk: Sequence[QueryRecord]) -> list[NeighborSet]:
        for q in chunk:
            try:
                if strategy in (RetrievalStrategy.CM_ONLY, RetrievalStrategy.HYBRID):
                    _check_query_dim(base, "cm", q.cm, "cm vector")
                if strategy in (RetrievalStrategy.PROFILE_ONLY, RetrievalStrategy.HYBRID):
                    _check_query_dim(base, "prof", q.prof, "profile vector")
            except RaddError as exc:
                exc.args = (f"query {q.id}: {exc}",)
                raise
        if strategy is RetrievalStrategy.HYBRID:
            return _hybrid(base, chunk, k)
        space = "cm" if strategy is RetrievalStrategy.CM_ONLY else "prof"
        sims = _similarity_block(base, space, np.stack([getattr(q, space) for q in chunk]))
        return _select(sims, min(k, base.n), strategy, k)

    if parallelism == 1 or len(chunks) == 1:
        results = [run_chunk(c) for c in chunks]
    else:
        # More workers than chunks would only start idle threads.
        with ThreadPoolExecutor(max_workers=min(parallelism, len(chunks))) as pool:
            results = list(pool.map(run_chunk, chunks))
    return [ns for chunk_result in results for ns in chunk_result]
