from __future__ import annotations

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import TIE_HEAVY_GRID, random_base, random_query, simple_layout, tie_heavy_world
from radd import retrieval
from radd.errors import DimensionMismatchError, HybridKTooSmallError
from radd.retrieval import RetrievalStrategy, retrieve, retrieve_batch, retrieve_grid, top_k
from radd.store import from_arrays
from radd.types import QueryRecord
from reference import naive_cosine, naive_retrieve, naive_top_k


def make_base(cm_rows, prof_rows=None):
    cm = np.asarray(cm_rows, dtype=np.float32)
    prof = np.asarray(prof_rows, dtype=np.float32) if prof_rows is not None else cm.copy()
    n = cm.shape[0]
    return from_arrays(
        ids=np.arange(n), labels=np.zeros(n, dtype=np.uint8),
        scores=np.full(n, 0.5, dtype=np.float32),
        cm_matrix=cm, prof_matrix=prof, layout=simple_layout(prof.shape[1]),
    )


def query_for(base, cm, prof=None):
    prof = prof if prof is not None else [1.0] * base.d_prof
    return QueryRecord(id=0, cm=cm, prof=prof, score=0.5)


@pytest.fixture
def recording_pool(monkeypatch):
    """Stands in for ThreadPoolExecutor: records max_workers and runs the
    chunks in the calling thread, so no thread starts."""

    class RecordingPool:
        max_workers: list[int] = []

        def __init__(self, max_workers):
            self.max_workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(retrieval, "ThreadPoolExecutor", RecordingPool)
    return RecordingPool.max_workers


class TestCosine:
    """The similarity that top_k reports, on one- and two-row bases."""

    @staticmethod
    def sim(row, query):
        return top_k(make_base([row]), query, "cm", 1).similarities[0]

    def test_identical_direction(self):
        assert self.sim([1.0, 0.0], [1.0, 0.0]) == 1.0

    def test_orthogonal(self):
        assert self.sim([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_closed_form(self):
        # (1*2 + 2*1) / (sqrt(5) * sqrt(5)) = 4/5
        assert self.sim([1.0, 2.0], [2.0, 1.0]) == pytest.approx(0.8, abs=1e-12)

    def test_zero_norm_sentinel(self):
        assert self.sim([0.0, 0.0], [1.0, 1.0]) == -1.0
        assert self.sim([1.0, 1.0], [0.0, 0.0]) == -1.0
        assert self.sim([0.0, 0.0], [0.0, 0.0]) == -1.0
        ns = top_k(make_base([[0.0, 0.0], [1.0, 1.0]]), [1.0, 1.0], "cm", 2)
        assert ns.indices.tolist() == [1, 0]
        assert ns.similarities.tolist() == pytest.approx([1.0, -1.0], abs=1e-12)
        ns = top_k(make_base([[1.0, 2.0], [2.0, 1.0]]), [0.0, 0.0], "cm", 2)
        assert ns.similarities.tolist() == [-1.0, -1.0]

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            top_k(make_base([[1.0, 2.0]]), [1.0], "cm", 1)
        with pytest.raises(DimensionMismatchError):
            top_k(make_base([[1.0], [2.0]]), [1.0, 2.0], "cm", 1)

    def test_antiparallel(self):
        assert self.sim([1.0, 2.0], [-1.0, -2.0]) == pytest.approx(-1.0, abs=1e-12)


class TestTopK:
    def test_tie_broken_by_ascending_index(self):
        # rows 0 and 3 have exactly equal cosine to the query (row 3 is a
        # dyadic scaling of row 0, which is exact in floating point)
        base = make_base([[1.0, 1.0], [0.0, 1.0], [1.0, 2.0], [2.0, 2.0]])
        ns = top_k(base, [1.0, 0.0], "cm", 2)
        assert ns.indices.tolist() == [0, 3]
        assert ns.similarities[0] == ns.similarities[1]

    def test_k_equals_n_returns_all_sorted(self):
        base = make_base([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        ns = top_k(base, [1.0, 0.0], "cm", 3)
        assert ns.indices.tolist() == [0, 2, 1]
        assert list(ns.similarities) == sorted(ns.similarities, reverse=True)

    def test_k_one_is_argmax(self):
        base = make_base([[1.0, 5.0], [1.0, 0.1], [1.0, 1.0]])
        ns = top_k(base, [1.0, 0.0], "cm", 1)
        assert ns.indices.tolist() == [1]

    def test_k_above_n_truncates(self):
        base = make_base([[1.0, 0.0], [0.0, 1.0]])
        assert len(top_k(base, [1.0, 0.0], "cm", 100)) == 2

    def test_k_below_one_rejected(self):
        base = make_base([[1.0, 0.0]])
        with pytest.raises(ValueError):
            top_k(base, [1.0, 0.0], "cm", 0)

    def test_dimension_mismatch(self):
        base = make_base([[1.0, 0.0]])
        with pytest.raises(DimensionMismatchError):
            top_k(base, [1.0, 0.0, 0.0], "cm", 1)

    def test_zero_rows_sink_to_bottom(self):
        base = make_base([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [-1.0, 0.0]])
        ns = top_k(base, [1.0, 0.0], "cm", 4)
        assert ns.indices.tolist() == [1, 0, 2, 3]  # sentinel -1.0 ties after real sims
        assert ns.similarities.tolist() == [1.0, -1.0, -1.0, -1.0]

    def test_matches_scalar_cosine(self, rng):
        base = random_base(rng, n=40, d_cm=7)
        q = rng.standard_normal(7).astype(np.float32)
        ns = top_k(base, q, "cm", 40)
        for i, s in ns.entries:
            assert s == pytest.approx(naive_cosine(base.cm_matrix[i], q), abs=1e-12)


class TestRetrieve:
    def test_cm_only_matches_top_k(self, rng):
        base = random_base(rng, n=30, d_cm=5)
        q = random_query(rng, 0, 5)
        a = retrieve(base, q, RetrievalStrategy.CM_ONLY, 7)
        b = top_k(base, q.cm, "cm", 7)
        assert a.indices.tolist() == b.indices.tolist()

    def test_hybrid_even_split(self):
        # cm space ranks rows 0,1 first; prof space ranks rows 2,3 first
        cm = [[1.0, 0.0], [0.9, 0.1], [0.0, 1.0], [0.1, 0.9], [-1.0, 0.0], [-1.0, 0.1]]
        prof = [[0.0, 1.0], [0.1, 0.9], [1.0, 0.0], [0.9, 0.1], [-1.0, 0.0], [-1.0, 0.1]]
        base = make_base(cm, prof)
        q = QueryRecord(id=0, cm=[1.0, 0.0], prof=[1.0, 0.0], score=0.5)
        ns = retrieve(base, q, RetrievalStrategy.HYBRID, 4)
        assert sorted(ns.indices.tolist()) == [0, 1, 2, 3]
        assert len(ns) == 4

    def test_hybrid_odd_split_floor_cm_ceil_prof(self):
        cm = [[1.0, 0.0], [0.9, 0.1], [0.8, 0.2], [0.0, 1.0], [0.1, 0.9], [0.2, 0.8]]
        prof = [[0.0, 1.0], [0.1, 0.9], [0.2, 0.8], [1.0, 0.0], [0.9, 0.1], [0.8, 0.2]]
        base = make_base(cm, prof)
        q = QueryRecord(id=0, cm=[1.0, 0.0], prof=[1.0, 0.0], score=0.5)
        ns = retrieve(base, q, RetrievalStrategy.HYBRID, 5)
        # k1 = 2 from cm space (rows 0,1), k2 = 3 from prof space (rows 3,4,5)
        assert sorted(ns.indices.tolist()) == [0, 1, 3, 4, 5]

    def test_hybrid_overlap_dedup(self):
        # prof space is identical to cm space, so both halves retrieve the
        # same rows and the union shrinks
        cm = [[1.0, 0.0], [0.9, 0.1], [0.5, 0.5], [0.0, 1.0]]
        base = make_base(cm, cm)
        q = QueryRecord(id=0, cm=[1.0, 0.0], prof=[1.0, 0.0], score=0.5)
        ns = retrieve(base, q, RetrievalStrategy.HYBRID, 4)
        assert ns.indices.tolist() == [0, 1]
        assert len(ns) == 2 <= 4

    def test_hybrid_union_forced_overlap(self):
        # cm top-2 = {1, 2}, prof top-2 = {2, 3} -> union {1, 2, 3}
        cm = [[-1.0, 0.0], [1.0, 0.0], [0.96, 0.04], [0.2, 0.8]]
        prof = [[-1.0, 0.0], [0.2, 0.8], [1.0, 0.0], [0.96, 0.04]]
        base = make_base(cm, prof)
        q = QueryRecord(id=0, cm=[1.0, 0.0], prof=[1.0, 0.0], score=0.5)
        ns = retrieve(base, q, RetrievalStrategy.HYBRID, 4)
        assert sorted(ns.indices.tolist()) == [1, 2, 3]

    def test_hybrid_keeps_max_similarity_on_overlap(self):
        cm = [[1.0, 0.0], [0.0, 1.0]]
        prof = [[1.0, 1.0], [0.0, 1.0]]
        base = make_base(cm, prof)
        q = QueryRecord(id=0, cm=[1.0, 0.0], prof=[1.0, 0.0], score=0.5)
        ns = retrieve(base, q, RetrievalStrategy.HYBRID, 2)
        # row 0 is retrieved by both halves: cm sim 1.0 beats prof sim 1/sqrt(2)
        assert ns.indices.tolist()[0] == 0
        assert ns.similarities[0] == 1.0

    def test_hybrid_k_too_small(self, rng):
        base = random_base(rng, 5, 3)
        q = random_query(rng, 0, 3)
        with pytest.raises(HybridKTooSmallError):
            retrieve(base, q, RetrievalStrategy.HYBRID, 1)

    def test_profile_only_uses_prof_space(self, rng):
        base = random_base(rng, n=25, d_cm=4, d_prof=6)
        q = random_query(rng, 0, 4, 6)
        ns = retrieve(base, q, RetrievalStrategy.PROFILE_ONLY, 5)
        expected = naive_top_k(base.prof_matrix, q.prof, 5)
        assert ns.indices.tolist() == [i for i, _ in expected]


class TestRetrieveBatch:
    def test_order_preserved(self, rng):
        base = random_base(rng, n=20, d_cm=4)
        queries = [random_query(rng, i, 4) for i in range(3)]
        results = retrieve_batch(base, queries, RetrievalStrategy.CM_ONLY, 5)
        assert len(results) == 3
        for q, ns in zip(queries, results):
            single = retrieve(base, q, RetrievalStrategy.CM_ONLY, 5)
            assert ns.indices.tolist() == single.indices.tolist()

    def test_empty_batch(self, rng):
        base = random_base(rng, 5, 3)
        assert retrieve_batch(base, [], RetrievalStrategy.CM_ONLY, 2) == []

    @pytest.mark.parametrize("strategy", list(RetrievalStrategy))
    def test_parallelism_bit_identical(self, rng, strategy):
        base = random_base(rng, n=150, d_cm=6, d_prof=5)
        queries = [random_query(rng, i, 6, 5) for i in range(200)]
        baseline = retrieve_batch(base, queries, strategy, 9, parallelism=1)
        for par in (4, 8):
            again = retrieve_batch(base, queries, strategy, 9, parallelism=par)
            for a, b in zip(baseline, again):
                assert a.indices.tolist() == b.indices.tolist()
                assert a.similarities.tobytes() == b.similarities.tobytes()

    def test_workers_capped_at_chunk_count(self, rng, recording_pool):
        base = random_base(rng, n=30, d_cm=4)
        queries = [random_query(rng, i, 4) for i in range(retrieval._CHUNK + 1)]
        baseline = retrieve_batch(base, queries, RetrievalStrategy.CM_ONLY, 5)  # one worker: no pool
        capped = retrieve_batch(base, queries, RetrievalStrategy.CM_ONLY, 5, parallelism=10**6)
        assert recording_pool == [2]
        for a, b in zip(baseline, capped):
            assert a.indices.tobytes() == b.indices.tobytes()
            assert a.similarities.tobytes() == b.similarities.tobytes()

    def test_error_names_query_id(self, rng):
        base = random_base(rng, 10, 4)
        bad = QueryRecord(id=77, cm=[1.0], prof=[1.0] * 4, score=0.5)
        with pytest.raises(DimensionMismatchError) as exc_info:
            retrieve_batch(base, [bad], RetrievalStrategy.CM_ONLY, 2)
        assert "query 77" in str(exc_info.value)


class TestOracleEquivalence:
    """retrieve() must match the naive all-pairs reference exactly,
    including tie ordering, on randomized instances."""

    @pytest.mark.parametrize("strategy", ["cm", "prof", "hybrid"])
    def test_random_instances(self, strategy):
        rng = np.random.default_rng(999)
        for trial in range(40):
            n = int(rng.integers(1, 80))
            d = int(rng.integers(1, 16))
            tie_heavy = trial % 3 == 0
            base = random_base(rng, n, d, d_prof=d, tie_heavy=tie_heavy, zero_rows=trial % 4)
            q = random_query(rng, trial, d, d, tie_heavy=tie_heavy)
            for k in (1, 2, 5, n):
                if strategy == "hybrid" and k < 2:
                    continue
                got = retrieve(base, q, RetrievalStrategy(strategy), k)
                want = naive_retrieve(base.cm_matrix, base.prof_matrix, q.cm, q.prof, strategy, k)
                assert got.indices.tolist() == [i for i, _ in want], (
                    f"trial={trial} n={n} d={d} k={k} strategy={strategy}"
                )

    def test_scale_invariance(self):
        # scaling by powers of two is exact in floating point, so the
        # retrieved set must be identical, not merely close
        rng = np.random.default_rng(5)
        for _ in range(20):
            n, d = int(rng.integers(2, 50)), int(rng.integers(1, 10))
            base = random_base(rng, n, d)
            q = random_query(rng, 0, d)
            ref = retrieve(base, q, RetrievalStrategy.CM_ONLY, 5).indices.tolist()
            for scale in (0.25, 2.0, 8.0):
                scaled_q = QueryRecord(id=0, cm=q.cm * np.float32(scale), prof=q.prof, score=0.5)
                assert retrieve(base, scaled_q, RetrievalStrategy.CM_ONLY, 5).indices.tolist() == ref
            row = int(rng.integers(0, n))
            cm2 = base.cm_matrix.copy()
            cm2[row] *= np.float32(4.0)
            base2 = from_arrays(base.ids, base.labels, base.scores, cm2, base.prof_matrix, base.layout)
            assert retrieve(base2, q, RetrievalStrategy.CM_ONLY, 5).indices.tolist() == ref

    def test_monotonicity_in_k(self, rng):
        for strategy in (RetrievalStrategy.CM_ONLY, RetrievalStrategy.PROFILE_ONLY):
            base = random_base(rng, 60, 5, d_prof=5)
            q = random_query(rng, 0, 5, 5)
            prev: set[int] = set()
            for k in (1, 3, 7, 20, 60):
                current = set(retrieve(base, q, strategy, k).indices.tolist())
                assert prev <= current
                prev = current

    def test_hybrid_size_bound_and_disjoint_equality(self):
        rng = np.random.default_rng(31)
        for trial in range(30):
            n, d = int(rng.integers(2, 60)), int(rng.integers(2, 8))
            base = random_base(rng, n, d, d_prof=d, tie_heavy=trial % 2 == 0)
            q = random_query(rng, trial, d, d)
            for k in range(2, 12):
                ns = retrieve(base, q, RetrievalStrategy.HYBRID, k)
                assert len(ns) <= k
                cm_half = set(top_k(base, q.cm, "cm", k // 2).indices.tolist())
                prof_half = set(top_k(base, q.prof, "prof", k - k // 2).indices.tolist())
                assert set(ns.indices.tolist()) == cm_half | prof_half
                if not (cm_half & prof_half) and k <= n:
                    assert len(ns) == k


class TestBatchedSelection:
    """The chunked kernel (float32 screen, float64 rescoring of the
    survivors, array hybrid merge) against the naive reference on
    integer-valued data, where every similarity is exact and ties abound."""

    def test_tie_heavy_chunks_match_reference(self, monkeypatch):
        block_sizes = set()
        rank_block = retrieval._rank_block

        def recording_rank_block(base, space, queries, k):
            block_sizes.add(len(queries))
            return rank_block(base, space, queries, k)

        monkeypatch.setattr(retrieval, "_rank_block", recording_rank_block)
        rng = np.random.default_rng(77)
        for n in (23, 41):
            base = random_base(rng, n, 3, d_prof=3, tie_heavy=True, zero_rows=3)
            queries = [random_query(rng, i, 3, 3, tie_heavy=True) for i in range(retrieval._CHUNK + 6)]
            for i in (0, 9, retrieval._CHUNK + 2):
                queries[i] = QueryRecord(id=i, cm=np.zeros(3), prof=queries[i].prof, score=0.5)
            queries[5] = QueryRecord(id=5, cm=queries[5].cm, prof=np.zeros(3), score=0.5)
            for k in (2, 5, 17, n, n + 3):
                for strategy in ("cm", "prof", "hybrid"):
                    got = retrieve_batch(base, queries, RetrievalStrategy(strategy), k)
                    for q, ns in zip(queries, got):
                        want = naive_retrieve(base.cm_matrix, base.prof_matrix, q.cm, q.prof, strategy, k)
                        assert ns.entries == want, f"n={n} k={k} strategy={strategy} query={q.id}"
        assert block_sizes == {retrieval._CHUNK, 6}

    def test_hybrid_overlap_keeps_larger_profile_similarity(self):
        # Row 0 is in both halves of every query. For even queries its
        # profile similarity (1.0) beats its CM one (1/sqrt(2)); for odd
        # queries the CM one (1/sqrt(2)) beats the profile one (0.0).
        cm = [[1.0, 1.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]
        prof = [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]
        base = make_base(cm, prof)
        axes = ([1.0, 0.0], [0.0, 1.0])
        queries = [QueryRecord(id=i, cm=axes[i % 2], prof=axes[i % 2], score=0.5) for i in range(6)]
        got = retrieve_batch(base, queries, RetrievalStrategy.HYBRID, 4)
        for q, ns in zip(queries, got):
            want = naive_retrieve(base.cm_matrix, base.prof_matrix, q.cm, q.prof, "hybrid", 4)
            assert ns.entries == want
            row0 = dict(ns.entries)[0]
            if q.id % 2 == 0:
                assert row0 == 1.0
            else:
                assert row0 == pytest.approx(2**-0.5, abs=1e-12)


class TestRetrieveGrid:
    """One ranking at max(grid) serves every k: each k's sets must be the
    ones a retrieval at that k alone gives, byte for byte."""

    @pytest.mark.parametrize("parallelism", [1, 4])
    @pytest.mark.parametrize("strategy", list(RetrievalStrategy))
    def test_each_k_equals_retrieve_batch(self, strategy, parallelism):
        base, queries = tie_heavy_world(8)
        got = retrieve_grid(base, queries, strategy, TIE_HEAVY_GRID, parallelism)
        assert len(got) == len(TIE_HEAVY_GRID)
        for k, sets in zip(TIE_HEAVY_GRID, got):
            want = retrieve_batch(base, queries, strategy, k, parallelism)
            assert len(sets) == len(want) == len(queries)
            for a, b in zip(sets, want):
                assert a.indices.tolist() == b.indices.tolist(), f"k={k}"
                assert a.similarities.tobytes() == b.similarities.tobytes(), f"k={k}"
                assert (a.strategy, a.k_requested) == (b.strategy, b.k_requested) == (strategy, k)

    def test_ranks_each_space_once_per_chunk(self, ranked_blocks):
        base, queries = tie_heavy_world(9)
        retrieve_grid(base, queries, RetrievalStrategy.HYBRID, TIE_HEAVY_GRID)
        chunks = -(-len(queries) // retrieval._CHUNK)
        assert sorted(ranked_blocks) == ["cm"] * chunks + ["prof"] * chunks

    def test_bad_grids_rejected(self):
        base, queries = tie_heavy_world(10, n_queries=3)
        for grid in ([], [5, 0]):
            with pytest.raises(ValueError):
                retrieve_grid(base, queries, RetrievalStrategy.CM_ONLY, grid)
        with pytest.raises(HybridKTooSmallError):
            retrieve_grid(base, queries, RetrievalStrategy.HYBRID, [5, 1])

    @pytest.mark.parametrize("strategy", list(RetrievalStrategy))
    def test_no_queries(self, strategy):
        base, _ = tie_heavy_world(10, n_queries=3)
        assert retrieve_grid(base, [], strategy, [3, 4]) == [[], []]

    def test_hybrid_one_pool_per_space(self, recording_pool):
        base, queries = tie_heavy_world(11, n_queries=retrieval._CHUNK + 1)
        retrieve_grid(base, queries, RetrievalStrategy.HYBRID, [4, 10], parallelism=10**6)
        assert recording_pool == [2, 2]


class TestRankBlock:
    def test_whole_row_equals_stable_argsort(self):
        # Integer-valued rows with heavy ties, repeated rows, all-zero rows
        # (the -1.0 sentinel) and a zero query: at k == n the screen keeps
        # every row and the ranking must be exactly the stable sort of the
        # naive similarities.
        rng = np.random.default_rng(3)
        cm = rng.integers(-2, 3, size=(23, 3)).astype(np.float32)
        cm[5] = cm[6] = cm[2]
        cm[7] = cm[11] = 0.0
        base = make_base(cm)
        queries = rng.integers(-2, 3, size=(40, 3)).astype(np.float32)
        queries[4] = 0.0
        idx, sim = retrieval._rank_block(base, "cm", list(queries), base.n)
        for q, rows, sims in zip(queries, idx, sim):
            want = np.array([naive_cosine(row, q) for row in cm])
            np.testing.assert_array_equal(rows, np.argsort(-want, kind="stable"))
            assert sims.tobytes() == want[rows].tobytes()


def exact_cosines(matrix, query) -> list[float]:
    """naive_cosine of every row, computed row by row with the same exactly
    rounded sums (each float32 product is exact in float64), fast enough
    for thousands of rows."""
    m, q = np.asarray(matrix, dtype=np.float64), np.asarray(query, dtype=np.float64)
    nq = math.sqrt(math.fsum((q * q).tolist()))
    out = []
    for row in m:
        dot, nr = math.fsum((row * q).tolist()), math.sqrt(math.fsum((row * row).tolist()))
        out.append(-1.0 if nq == 0.0 or nr == 0.0 else dot / (nr * nq))
    return out


def ranked(sims: list[float], k: int) -> list[tuple[int, float]]:
    return sorted(enumerate(sims), key=lambda pair: (-pair[1], pair[0]))[:k]


def assert_matches(ns, want: list[tuple[int, float]], msg: str) -> None:
    """Exactly the reference's rows, with similarities within float64
    rounding of its exactly rounded ones."""
    assert ns.indices.tolist() == [i for i, _ in want], msg
    np.testing.assert_allclose(ns.similarities, [s for _, s in want], rtol=0, atol=1e-14, err_msg=msg)


class TestScreenBound:
    """The float32 screen may drop a row only when the float64 ranking
    provably excludes it, for every finite float32 input."""

    @pytest.mark.parametrize("scale", [3e38, 1e30, 1e-30, 1e-42])
    def test_extreme_magnitudes_match_reference(self, scale):
        # Rows scaled so their largest |entry| is *scale*, next to ordinary
        # rows; queries ordinary and at the same scale. 1e-42 is subnormal
        # in float32, and 3e38 overflows a float32 dot product.
        rng = np.random.default_rng(41)
        n, d = 60, 8
        directions = rng.standard_normal((n, d))
        cm = (directions / np.abs(directions).max(axis=1, keepdims=True) * scale).astype(np.float32)
        cm[::3] = rng.standard_normal((len(cm[::3]), d)).astype(np.float32)
        base = make_base(cm)
        queries = [query_for(base, rng.standard_normal(d)) for _ in range(6)]
        queries += [query_for(base, row) for row in cm[1:7:2] * np.float32(0.5)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k in (1, 7, n):
                got = retrieve_batch(base, queries, RetrievalStrategy.CM_ONLY, k)
                for q, ns in zip(queries, got):
                    assert_matches(ns, naive_top_k(base.cm_matrix, q.cm, k), f"scale={scale} k={k}")

    @pytest.mark.parametrize("d", [16, 285])
    def test_near_tie_cluster_matches_reference(self, d):
        # 3,000 rows within 3e-3 of one direction: their cosines to a query
        # in the cluster differ by less than float32 can resolve near 1.0,
        # but float64 orders them. The screen keeps the tied band whole.
        rng = np.random.default_rng(d)
        center = rng.standard_normal(d)
        cm = (center + 3e-3 * rng.standard_normal((3000, d))).astype(np.float32)
        base = make_base(cm, cm[:, :1])
        queries = [query_for(base, center + 3e-3 * rng.standard_normal(d), [1.0]) for _ in range(8)]
        got = retrieve_grid(base, queries, RetrievalStrategy.CM_ONLY, [1, 10, 50])
        for qi, q in enumerate(queries):
            want = ranked(exact_cosines(base.cm_matrix, q.cm), 50)
            for k, sets in zip((1, 10, 50), got):
                assert sets[qi].indices.tolist() == [i for i, _ in want[:k]], f"d={d} k={k} query={qi}"

    def test_duplicates_zero_rows_zero_query_and_k_past_n(self):
        rng = np.random.default_rng(8)
        cm = rng.standard_normal((30, 5)).astype(np.float32)
        cm[[4, 9, 17, 28]] = cm[12]  # exact duplicates of row 12, before and after it
        cm[[3, 20]] = 0.0
        base = make_base(cm)
        queries = [query_for(base, cm[12]), query_for(base, -cm[12]), query_for(base, np.zeros(5))]
        queries += [query_for(base, rng.standard_normal(5)) for _ in range(3)]
        for k in (3, 5, 30, 45):
            got = retrieve_batch(base, queries, RetrievalStrategy.CM_ONLY, k)
            for q, ns in zip(queries, got):
                assert_matches(ns, naive_top_k(base.cm_matrix, q.cm, k), f"k={k}")
        alike = retrieve(base, queries[0], RetrievalStrategy.CM_ONLY, 5).indices.tolist()
        assert alike == [4, 9, 12, 17, 28]
        zero = retrieve(base, queries[2], RetrievalStrategy.CM_ONLY, 45)
        assert zero.indices.tolist() == list(range(30)) and (zero.similarities == -1.0).all()


class TestPositionIndependence:
    """A query's neighbor set, similarity bits included, does not depend on
    how it was asked for: alone, at any position of a batch, at any
    parallelism or through a k grid."""

    @pytest.mark.parametrize("strategy", list(RetrievalStrategy))
    def test_same_bits_alone_in_any_batch_and_grid(self, strategy):
        rng = np.random.default_rng(13)
        base = random_base(rng, n=3000, d_cm=24, d_prof=40)
        queries = [random_query(rng, i, 24, 40) for i in range(150)]
        k = 12
        alone = [retrieve(base, q, strategy, k) for q in queries[:: 7]]

        def assert_same(sets, picks):
            for want, ns in zip(alone, (sets[i] for i in picks)):
                assert ns.indices.tobytes() == want.indices.tobytes()
                assert ns.similarities.tobytes() == want.similarities.tobytes()

        forward = range(0, 150, 7)
        for parallelism in (1, 3):
            assert_same(retrieve_batch(base, queries, strategy, k, parallelism), forward)
            assert_same(retrieve_batch(base, queries[::-1], strategy, k, parallelism), [149 - i for i in forward])
        assert_same(retrieve_grid(base, queries[5:] + queries[:5], strategy, [k, 40])[0],
                    [(i - 5) % 150 for i in forward])


def test_batch_allocates_less_than_a_float64_copy_of_the_base():
    # Two workers over a 20,000 x 256 base: the screen's float32 blocks and
    # the rescored survivors, never a float64 copy of the matrix (41 MB).
    rng = np.random.default_rng(20)
    base = random_base(rng, n=20_000, d_cm=256)
    queries = [random_query(rng, i, 256) for i in range(256)]
    tracemalloc.start()
    try:
        retrieve_batch(base, queries, RetrievalStrategy.CM_ONLY, 10, parallelism=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < base.cm_matrix.size * 8, f"peak {peak / 1e6:.1f} MB"
