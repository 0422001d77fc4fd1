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

This is a flat exact scan, not an approximate index: every query computes all
n similarities as one dense matrix product.
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
    """(n, b) float64 cosine similarities of every base row against each of
    the b query rows, with zero-norm sentinel handling on both sides."""
    q64 = np.ascontiguousarray(queries, dtype=np.float64)
    m64 = base.matrix64(space)
    norms = base.norms(space)
    qnorms = np.sqrt(np.einsum("ij,ij->i", q64, q64))
    safe_rows = np.where(norms == 0.0, 1.0, norms)
    safe_q = np.where(qnorms == 0.0, 1.0, qnorms)
    sims = (m64 @ q64.T) / (safe_rows[:, None] * safe_q[None, :])
    if (norms == 0.0).any():
        sims[norms == 0.0, :] = -1.0
    if (qnorms == 0.0).any():
        sims[:, qnorms == 0.0] = -1.0
    return sims


def _top_indices(sims: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest similarities ordered by (value desc, index
    asc). Exact under ties: boundary ties are resolved toward smaller row
    indices, matching a full stable sort."""
    n = sims.shape[0]
    if k >= n:
        return np.argsort(-sims, kind="stable")
    # argpartition may pick an arbitrary subset of rows tied at the cutoff
    # value, so rebuild the boundary explicitly.
    part = np.argpartition(-sims, k - 1)[:k]
    cutoff = sims[part].min()
    above = np.flatnonzero(sims > cutoff)
    at = np.flatnonzero(sims == cutoff)[: k - above.shape[0]]
    chosen = np.concatenate([above, at])
    order = np.argsort(-sims[chosen], kind="stable")  # stable keeps index order in ties
    return chosen[order]


def _select(sims: np.ndarray, k: int, strategy: RetrievalStrategy, k_requested: int) -> NeighborSet:
    idx = _top_indices(sims, k).astype(np.int64)
    return NeighborSet(idx, sims[idx], strategy, k_requested)


def _hybrid(sims_cm: np.ndarray, sims_prof: np.ndarray, k: int) -> NeighborSet:
    k_cm = k // 2
    k_prof = k - k_cm
    cm_idx = _top_indices(sims_cm, min(k_cm, sims_cm.shape[0]))
    prof_idx = _top_indices(sims_prof, min(k_prof, sims_prof.shape[0]))
    merged = dict(zip(cm_idx.tolist(), sims_cm[cm_idx].tolist()))
    for i, s in zip(prof_idx.tolist(), sims_prof[prof_idx].tolist()):
        if i not in merged or s > merged[i]:
            merged[i] = s
    idx = np.fromiter(merged.keys(), dtype=np.int64, count=len(merged))
    sim = np.fromiter(merged.values(), dtype=np.float64, count=len(merged))
    order = np.lexsort((idx, -sim))
    return NeighborSet(idx[order], sim[order], RetrievalStrategy.HYBRID, k)


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
    sims = _similarity_block(base, space, vec[None, :])[:, 0]
    strategy = RetrievalStrategy.CM_ONLY if space == "cm" else RetrievalStrategy.PROFILE_ONLY
    return _select(sims, min(k, base.n), strategy, k)


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
        out: list[NeighborSet] = []
        if strategy is RetrievalStrategy.CM_ONLY:
            sims = _similarity_block(base, "cm", np.stack([q.cm for q in chunk]))
            kk = min(k, base.n)
            out = [_select(sims[:, j], kk, strategy, k) for j in range(len(chunk))]
        elif strategy is RetrievalStrategy.PROFILE_ONLY:
            sims = _similarity_block(base, "prof", np.stack([q.prof for q in chunk]))
            kk = min(k, base.n)
            out = [_select(sims[:, j], kk, strategy, k) for j in range(len(chunk))]
        else:
            sims_cm = _similarity_block(base, "cm", np.stack([q.cm for q in chunk]))
            sims_prof = _similarity_block(base, "prof", np.stack([q.prof for q in chunk]))
            out = [_hybrid(sims_cm[:, j], sims_prof[:, j], k) for j in range(len(chunk))]
        return out

    if parallelism == 1 or len(chunks) == 1:
        results = [run_chunk(c) for c in chunks]
    else:
        with ThreadPoolExecutor(max_workers=parallelism) as pool:
            results = list(pool.map(run_chunk, chunks))
    return [ns for chunk_result in results for ns in chunk_result]
