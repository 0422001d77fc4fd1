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
into blocks of b queries that a worker pool ranks, b sized from the base's
rows (``_block_queries``). Per block (``_rank_block``) float32 matrix
products over tiles of T base rows (``_tile_rows``: one 16 MiB float32 tile
per worker) screen every row against a lower bound on the k-th largest
screened value (a k-selection over column group maxima merged across the
tiles, not n values), and only the survivors are rescored in float64 and
sorted, as in exact flat search (Johnson, Douze and Jegou, arXiv:1702.08734:
a matrix product tiled over queries and base, then k-selection).
The ranking is a total order, so a query's top k' is the
prefix of its top k, and one ranking at max(grid) serves a whole k grid
(``_grid``: ``retrieve_batch`` calls it at one k, ``metrics`` at a grid).
cm and prof slice it; hybrid at k merges, over the whole query list at
once, the floor(k/2) prefix of the CM ranking with the ceil(k/2) prefix of
the profile ranking.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, HybridKTooSmallError, InvalidConfigError
from .store import KnowledgeBase, Space
from .types import QueryRecord

__all__ = ["NeighborSet", "RetrievalStrategy", "retrieve_batch"]

# The fewest queries per block, and the block height over any base under 2,048 rows (see ``_block_queries``).
_CHUNK = 64


class RetrievalStrategy(Enum):
    CM_ONLY = "cm"
    PROFILE_ONLY = "prof"
    HYBRID = "hybrid"


@dataclass(frozen=True, eq=False)  # numpy fields: compare and hash by identity
class NeighborSet:
    """Retrieved rows for one query, ordered by (similarity desc, index asc).

    ``indices`` are knowledge-base row positions (not entry ids). For hybrid
    retrieval the set may be smaller than the requested k because the two
    half-retrievals can overlap; a row retrieved in both spaces keeps the
    larger of its two similarities.
    """

    indices: np.ndarray  # int64, distinct
    similarities: np.ndarray  # float64, aligned with indices

    def __len__(self) -> int:
        return int(self.indices.shape[0])


# A nonzero base row with a norm outside these bounds is screened as its exact
# power-of-two multiple with a norm in [0.5, 1) (``_screen_state``).
_SCREENED_NORMS = (2.0**-60, 2.0**60)


def _slack(d: int) -> float:
    """2 eps(d), where eps bounds |screened - rescored| similarity of a
    nonzero query and a nonzero row in d dimensions for every finite
    float32 input (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., 3.1): gamma_d = d u / (1 - d u), u = 2**-24, for the float32
    dot in any summation order, with or without FMA; 4u for rounding the
    unit query, the inverse norm and the scaled product; (d + 8) 2**-50 for
    the float64 norms, the float64 rescoring and every underflow (at most
    2**-126 per operation, gradual or flushed, against a norm >= 2**-60).
    A row rescaled to a norm in [0.5, 1), >= 2**-60, meets every term; an
    element underflowing in it (2**-126 against 0.5) is one more underflow."""
    u = 2.0**-24
    if d * u >= 0.5:
        return float("inf")
    return 2.0 * ((1.0 + 2.0**-20) * (d * u / (1.0 - d * u) + 4.0 * u) + (d + 8) * 2.0**-50)


def _block_queries(n: int) -> int:
    """Queries per block over a base of n rows: b = max(_CHUNK, min(n // 32,
    512)). A taller query panel speeds up the float32 product in the wide
    spaces where it is most of a ranking (d 285 and 1,024; Goto and van de
    Geijn, ACM TOMS 34(3), 2008). On a small base a block's (b, n) tile, not
    the 16 MiB cap of ``_tile_rows``, is the memory, so b follows n there."""
    return max(_CHUNK, min(n // 32, 512))


def _tile_rows(b: int, k: int) -> int:
    """Base rows per screening tile of b queries at k: one (b, T) float32
    tile of 16 MiB per worker, at least k wide."""
    return max(k, 2**22 // b)


def _merge_group_maxima(best: np.ndarray, sims: np.ndarray, k: int) -> np.ndarray:
    """The (b, k) k largest of *best* and of the maxima of disjoint column
    groups of the (b, m) tile *sims*, column 0 the k-th largest (the rest in
    no order). The tile's groups are s strided sets of w = max(1, m //
    max(8k, 512)) columns (j, j + s, ..., a view reduced without a copy of
    the tile) and each of the m - s w tail columns alone: at least min(m,
    max(8k, 512)) groups (fewer, longer groups make the reduction
    loop-overhead bound)."""
    b, m = sims.shape
    w = max(1, m // max(8 * k, 512))
    s = m // w
    merged = np.empty((b, k + s + m - s * w), dtype=np.float32)
    merged[:, :k] = best
    np.max(sims[:, : s * w].reshape(b, w, s), axis=1, out=merged[:, k : k + s])
    merged[:, k + s :] = sims[:, s * w :]
    merged.partition(merged.shape[1] - k, axis=1)
    return merged[:, -k:]


def _threshold(best: np.ndarray, d: int) -> np.ndarray:
    """The float32 screening cut L - 2 eps for the bound L = best[:, 0], one
    float32 step below the rounded float64 value, so no row is lost to
    rounding."""
    return np.nextafter((best[:, 0].astype(np.float64) - _slack(d)).astype(np.float32), np.float32(-np.inf))


def _screen_state(base: KnowledgeBase, space: Space) -> tuple:
    """What the screen needs of one space of the base, computed once per
    ``_rank`` call: the zero rows (at the sentinel), the float64 norms with
    1.0 at zero rows, the int32 shift e of each row (the frexp exponent of a
    norm outside ``_SCREENED_NORMS``, else 0: the row screens times 2**-e),
    and the float32 inverse norms of the rows as screened (0.0 at zero rows)."""
    norms = base.norms(space)
    zero_rows = norms == 0.0
    shift = np.frexp(norms)[1]
    shift[(norms >= _SCREENED_NORMS[0]) & (norms <= _SCREENED_NORMS[1])] = 0
    inverse = np.divide(1.0, np.ldexp(norms, -shift), out=np.zeros(base.n), where=~zero_rows).astype(np.float32)
    return zero_rows, np.where(zero_rows, 1.0, norms), shift, inverse


def _rank_block(
    base: KnowledgeBase, space: Space, queries: Sequence[np.ndarray], k: int, state: tuple
) -> tuple[np.ndarray, np.ndarray]:
    """(b, k) rows and similarities of each of the b query vectors' k
    nearest base rows (k <= n), ordered by (similarity desc, row asc);
    *state* is the space's ``_screen_state``.

    Screen: every row in float32 (the float64 unit query rounded to float32,
    one float32 matrix product per tile of ``_tile_rows`` base rows, a row
    outside ``_SCREENED_NORMS`` rescaled, float32 inverse norms; zero rows at
    the sentinel exactly). A row survives if it
    screens at least L - 2 eps (``_slack(d)`` = 2 eps), for any L <= t, the
    query's k-th largest screened value. L is the k-th largest maximum of
    disjoint column groups, merged over the tiles (``_merge_group_maxima``):
    the k groups that reach L hold k distinct rows screening >= L, so L <= t.
    With c_k the k-th largest rescored value, c_k - eps <= t <= c_k + eps. A
    row of the top k screens >= c_k - eps >= t - 2 eps >= L - 2 eps and
    survives; a dropped row screens < L - 2 eps <= c_k - eps and rescores
    strictly below c_k: no tie at the boundary is cut, and a smaller L only
    keeps more rows. Tile j keeps the rows that screen >= L_j - 2 eps, L_j
    the k-th largest maximum of the groups of tiles 1..j; these are a subset
    of all groups, so L_j <= L and no row of the top k is lost before the
    final cut at L. Rescore: one float64 dot per survivor, with bits that
    depend only on the (query, row) pair; a stable sort of the survivors (in
    ascending row order) by similarity gives the ranking."""
    matrix, n = base.matrix(space), base.n
    d = matrix.shape[1]
    zero_rows, safe_rows, shift, inverse = state
    q64 = np.ascontiguousarray(queries, dtype=np.float64)
    qnorms = np.sqrt(np.einsum("ij,ij->i", q64, q64))
    zero_q = qnorms == 0.0
    safe_q = np.where(zero_q, 1.0, qnorms)
    with np.errstate(under="ignore"):  # a tiny element of a unit query may round to 0
        q32 = (q64 / safe_q[:, None]).astype(np.float32)

    def screen(tile: slice) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # The (row, column, screened value) of the tile's survivors, with the
        # tile's group maxima merged into best; the tile is freed on return,
        # before the next one is multiplied.
        nonlocal best
        with np.errstate(all="ignore"):  # scaling a huge row down underflows its tiny elements
            sims = q32 @ (np.ldexp(matrix[tile], -shift[tile, None]) if shift[tile].any() else matrix[tile]).T
            sims *= inverse[tile]
        sims[:, zero_rows[tile]] = -1.0
        best = _merge_group_maxima(best, sims, k)
        keep = sims >= _threshold(best, d)[:, None]
        # A zero query ties every row at the sentinel: its top k are rows 0..k-1.
        keep[zero_q] = np.arange(tile.start, tile.start + sims.shape[1]) < k
        flat = np.flatnonzero(keep)  # a 2-D nonzero or a mask index is many times slower
        rows, cols = np.divmod(flat, sims.shape[1])
        return rows, cols + tile.start, sims.ravel()[flat]

    best = np.full((len(q64), k), -np.inf, dtype=np.float32)
    step = _tile_rows(len(q64), k)
    tiles = [screen(slice(start, start + step)) for start in range(0, n, step)]
    rows, cols, screened_sims = (np.concatenate(parts) for parts in zip(*tiles))
    keep = (screened_sims >= _threshold(best, d)[rows]) | zero_q[rows]
    # Ascending row, then column: each tile's survivors are in order and the tiles follow one another.
    order = np.argsort(rows[keep], kind="stable")
    rows, cols = rows[keep][order], cols[keep][order]
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
    (similarity desc, row asc). The list is cut into blocks of
    ``_block_queries(n)`` queries (one b for every space and mask of a base
    of n rows), each ranked by one ``_rank_block`` that screens the base in
    tiles of ``_tile_rows`` rows, so a worker holds one 16 MiB float32 tile
    at a time; *parallelism* only decides how many blocks run at once."""
    k, step = min(k, base.n), _block_queries(base.n)
    blocks = [vecs[i : i + step] for i in range(0, len(vecs), step)]
    state = _screen_state(base, space)
    if parallelism == 1 or len(blocks) <= 1:
        # No one-worker pool: it left perfbench job_s as it was but raised peak_rss_mb past its 10% bound
        # (3 pairs, 2-core x86-64, OpenBLAS 0.3.31): cli-quickstart 82.0-82.2 -> 89.3-93.3 MB, kb40k-library
        # 213.9-214.9 -> 236.0-237.8 MB; per-thread malloc arenas or BLAS buffers are likely (unverified).
        ranked = [_rank_block(base, space, b, k, state) for b in blocks]
    else:
        # More workers than blocks would only start idle threads.
        with ThreadPoolExecutor(max_workers=min(parallelism, len(blocks))) as pool:
            ranked = list(pool.map(lambda b: _rank_block(base, space, b, k, state), blocks))
    idx, sim = (np.concatenate(parts) for parts in zip(*ranked))
    idx.flags.writeable = sim.flags.writeable = False  # the sets of every k share these rows
    return idx, sim


def _merge(cm: tuple[np.ndarray, np.ndarray], prof: tuple[np.ndarray, np.ndarray], k: int) -> tuple:
    """Hybrid neighbor sets at *k* from the whole (rows, similarities)
    rankings, as ``_grid`` returns a k: the floor(k/2) prefix of the CM
    ranking merged with the ceil(k/2) prefix of the profile ranking. A row
    found by both keeps the larger similarity (the CM one when equal)."""
    idx = np.concatenate([cm[0][:, : k // 2], prof[0][:, : k - k // 2]], axis=1)
    sim = np.concatenate([cm[1][:, : k // 2], prof[1][:, : k - k // 2]], axis=1)
    # Sort each query's candidates by (row, similarity desc), stably so the
    # CM half wins a tie, and move every repeat of a row after its first to the end.
    order = np.lexsort((-sim, idx), axis=1)
    idx, sim = (np.take_along_axis(a, order, axis=1) for a in (idx, sim))
    dropped = np.zeros(idx.shape, dtype=bool)
    dropped[:, 1:] = idx[:, 1:] == idx[:, :-1]
    order = np.lexsort((idx, -sim, dropped), axis=1)
    idx, sim = (np.take_along_axis(a, order, axis=1) for a in (idx, sim))
    return idx, sim, idx.shape[1] - np.count_nonzero(dropped, axis=1)


def retrieve_batch(
    base: KnowledgeBase, queries: Sequence[QueryRecord], strategy: RetrievalStrategy, k: int, parallelism: int = 1
) -> list[NeighborSet]:
    """Neighbor sets for many queries at one k, in query order. One query is
    a batch of one: ``retrieve_batch(base, [query], strategy, k)[0]``.

    Results do not depend on *parallelism* or on the batch (``_rank_block``).
    A query vector of the wrong dimension is reported with the query id.
    """
    [(idx, sim, sizes)] = _grid(base, queries, strategy, [k], parallelism, None)
    return [NeighborSet(i[:c], s[:c]) for i, s, c in zip(idx, sim, sizes.tolist())]


def _check_config(strategy: RetrievalStrategy | None, ks: Sequence[int], parallelism: int, least_k: int = 1) -> None:
    """The one check of the strategy (None: the baseline), *ks* and the worker count: retrieval's, the CLI's
    pre-read and the library baseline's, which uses no k and so passes *least_k* 0 (an empty grid still fails)."""
    if strategy is not None and not isinstance(strategy, RetrievalStrategy):
        raise InvalidConfigError(f"strategy must be a RetrievalStrategy or None, got {strategy!r}")
    if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in (parallelism, *ks)):
        raise InvalidConfigError(f"k and parallelism must be integers, got k {list(ks)!r}, parallelism {parallelism!r}")
    if parallelism < 1:
        raise InvalidConfigError(f"parallelism must be >= 1, got {parallelism}")
    if len(ks) == 0 or min(ks) < least_k:
        raise InvalidConfigError(f"k must be >= {least_k}, got {min(ks, default=None)}")
    if strategy is RetrievalStrategy.HYBRID and min(ks) < 2:
        raise HybridKTooSmallError(f"hybrid retrieval needs k >= 2, got {min(ks)}")


def _grid(base: KnowledgeBase, queries: Sequence[QueryRecord], strategy: RetrievalStrategy, ks: Sequence[int],
          parallelism: int, shared: list | None) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Neighbor sets for many queries at every k of *ks*, as arrays: at each
    k, the (queries x width) rows and similarities and each query's set size,
    set i being the first sizes[i] entries of row i (width and size are
    min(k, n) for cm and prof; a hybrid set is deduplicated, its repeats
    after its end). Each space is ranked once at max(ks); each k slices that
    ranking (cm, prof) or merges its halves' prefixes (hybrid). The CM ranking
    is put in the list *shared* when it is empty and read from it when not:
    one list serves only calls whose CM rankings are the same bits (one CM
    matrix, CM query vectors and *ks*)."""
    hybrid = strategy is RetrievalStrategy.HYBRID
    _check_config(strategy, ks, parallelism)
    if not queries:
        return [(np.empty((0, 0), dtype=np.int64), np.empty((0, 0)), np.empty(0, dtype=np.int64))] * len(ks)
    kmax = max(ks)
    depths = {"cm": kmax // 2, "prof": kmax - kmax // 2} if hybrid else {strategy.value: kmax}
    vecs = {space: [getattr(q, space) for q in queries] for space in depths}
    for space in depths:
        d = base.dim(space)
        bad = next((i for i, vec in enumerate(vecs[space]) if vec.shape[0] != d), None)
        if bad is not None:
            noun = "cm vector" if space == "cm" else "profile vector"
            raise DimensionMismatchError(f"query {queries[bad].id}: {noun} has dimension "
                                         f"{vecs[space][bad].shape[0]}, expected {d} for space {space!r}")
    ranked = {space: shared[0] if shared and space == "cm" else _rank(base, space, vecs[space], k, parallelism)
              for space, k in depths.items()}
    if shared == [] and "cm" in ranked:
        shared.append(ranked["cm"])
    if not hybrid:
        idx, sim = ranked[strategy.value]
        return [(idx[:, :k], sim[:, :k], np.full(len(queries), min(k, idx.shape[1]))) for k in ks]
    return [_merge(ranked["cm"], ranked["prof"], k) for k in ks]
