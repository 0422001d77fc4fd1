from __future__ import annotations

import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import TIE_HEAVY_GRID, random_base, random_query, simple_layout, tie_heavy_world
import radd
from radd import retrieval
from radd.errors import DimensionMismatchError, HybridKTooSmallError, InvalidConfigError
from radd.retrieval import RetrievalStrategy, _grid, retrieve_batch
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


def retrieve_one(base, query, strategy, k):
    """One query's neighbor set: a batch of one."""
    return retrieve_batch(base, [query], strategy, k)[0]


def top_cm(base, vec, k):
    """The neighbor set of the CM vector *vec* alone."""
    return retrieve_one(base, query_for(base, vec), RetrievalStrategy.CM_ONLY, k)


def entries(ns) -> list[tuple[int, float]]:
    return list(zip(ns.indices.tolist(), ns.similarities.tolist()))


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
    """The similarity that a CM retrieval reports, on one- and two-row bases."""

    @staticmethod
    def sim(row, query):
        return top_cm(make_base([row]), query, 1).similarities[0]

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
        ns = top_cm(make_base([[0.0, 0.0], [1.0, 1.0]]), [1.0, 1.0], 2)
        assert ns.indices.tolist() == [1, 0]
        assert ns.similarities.tolist() == pytest.approx([1.0, -1.0], abs=1e-12)
        ns = top_cm(make_base([[1.0, 2.0], [2.0, 1.0]]), [0.0, 0.0], 2)
        assert ns.similarities.tolist() == [-1.0, -1.0]

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            top_cm(make_base([[1.0, 2.0]]), [1.0], 1)
        with pytest.raises(DimensionMismatchError):
            top_cm(make_base([[1.0], [2.0]]), [1.0, 2.0], 1)

    def test_antiparallel(self):
        assert self.sim([1.0, 2.0], [-1.0, -2.0]) == pytest.approx(-1.0, abs=1e-12)


class TestTopK:
    def test_tie_broken_by_ascending_index(self):
        # rows 0 and 3 have exactly equal cosine to the query (row 3 is a
        # dyadic scaling of row 0, which is exact in floating point)
        base = make_base([[1.0, 1.0], [0.0, 1.0], [1.0, 2.0], [2.0, 2.0]])
        ns = top_cm(base, [1.0, 0.0], 2)
        assert ns.indices.tolist() == [0, 3]
        assert ns.similarities[0] == ns.similarities[1]

    def test_k_equals_n_returns_all_sorted(self):
        base = make_base([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        ns = top_cm(base, [1.0, 0.0], 3)
        assert ns.indices.tolist() == [0, 2, 1]
        assert list(ns.similarities) == sorted(ns.similarities, reverse=True)

    def test_k_one_is_argmax(self):
        base = make_base([[1.0, 5.0], [1.0, 0.1], [1.0, 1.0]])
        ns = top_cm(base, [1.0, 0.0], 1)
        assert ns.indices.tolist() == [1]

    def test_k_above_n_truncates(self):
        base = make_base([[1.0, 0.0], [0.0, 1.0]])
        assert len(top_cm(base, [1.0, 0.0], 100)) == 2

    def test_k_below_one_rejected(self):
        base = make_base([[1.0, 0.0]])
        with pytest.raises(InvalidConfigError):
            top_cm(base, [1.0, 0.0], 0)

    def test_dimension_mismatch(self):
        base = make_base([[1.0, 0.0]])
        with pytest.raises(DimensionMismatchError):
            top_cm(base, [1.0, 0.0, 0.0], 1)

    def test_zero_rows_sink_to_bottom(self):
        base = make_base([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [-1.0, 0.0]])
        ns = top_cm(base, [1.0, 0.0], 4)
        assert ns.indices.tolist() == [1, 0, 2, 3]  # sentinel -1.0 ties after real sims
        assert ns.similarities.tolist() == [1.0, -1.0, -1.0, -1.0]

    def test_matches_scalar_cosine(self, rng):
        base = random_base(rng, n=40, d_cm=7)
        q = rng.standard_normal(7).astype(np.float32)
        ns = top_cm(base, q, 40)
        for i, s in entries(ns):
            assert s == pytest.approx(naive_cosine(base.cm_matrix[i], q), abs=1e-12)


class TestRetrieve:
    def test_cm_only_matches_naive_top_k(self, rng):
        base = random_base(rng, n=30, d_cm=5)
        q = random_query(rng, 0, 5)
        a = retrieve_one(base, q, RetrievalStrategy.CM_ONLY, 7)
        assert a.indices.tolist() == [i for i, _ in naive_top_k(base.cm_matrix, q.cm, 7)]

    def test_hybrid_even_split(self):
        # cm space ranks rows 0,1 first; prof space ranks rows 2,3 first
        cm = [[1.0, 0.0], [0.9, 0.1], [0.0, 1.0], [0.1, 0.9], [-1.0, 0.0], [-1.0, 0.1]]
        prof = [[0.0, 1.0], [0.1, 0.9], [1.0, 0.0], [0.9, 0.1], [-1.0, 0.0], [-1.0, 0.1]]
        base = make_base(cm, prof)
        q = QueryRecord(id=0, cm=[1.0, 0.0], prof=[1.0, 0.0], score=0.5)
        ns = retrieve_one(base, q, RetrievalStrategy.HYBRID, 4)
        assert sorted(ns.indices.tolist()) == [0, 1, 2, 3]
        assert len(ns) == 4

    def test_hybrid_odd_split_floor_cm_ceil_prof(self):
        cm = [[1.0, 0.0], [0.9, 0.1], [0.8, 0.2], [0.0, 1.0], [0.1, 0.9], [0.2, 0.8]]
        prof = [[0.0, 1.0], [0.1, 0.9], [0.2, 0.8], [1.0, 0.0], [0.9, 0.1], [0.8, 0.2]]
        base = make_base(cm, prof)
        q = QueryRecord(id=0, cm=[1.0, 0.0], prof=[1.0, 0.0], score=0.5)
        ns = retrieve_one(base, q, RetrievalStrategy.HYBRID, 5)
        # k1 = 2 from cm space (rows 0,1), k2 = 3 from prof space (rows 3,4,5)
        assert sorted(ns.indices.tolist()) == [0, 1, 3, 4, 5]

    def test_hybrid_overlap_dedup(self):
        # prof space is identical to cm space, so both halves retrieve the
        # same rows and the union shrinks
        cm = [[1.0, 0.0], [0.9, 0.1], [0.5, 0.5], [0.0, 1.0]]
        base = make_base(cm, cm)
        q = QueryRecord(id=0, cm=[1.0, 0.0], prof=[1.0, 0.0], score=0.5)
        ns = retrieve_one(base, q, RetrievalStrategy.HYBRID, 4)
        assert ns.indices.tolist() == [0, 1]
        assert len(ns) == 2 <= 4

    def test_hybrid_union_forced_overlap(self):
        # cm top-2 = {1, 2}, prof top-2 = {2, 3} -> union {1, 2, 3}
        cm = [[-1.0, 0.0], [1.0, 0.0], [0.96, 0.04], [0.2, 0.8]]
        prof = [[-1.0, 0.0], [0.2, 0.8], [1.0, 0.0], [0.96, 0.04]]
        base = make_base(cm, prof)
        q = QueryRecord(id=0, cm=[1.0, 0.0], prof=[1.0, 0.0], score=0.5)
        ns = retrieve_one(base, q, RetrievalStrategy.HYBRID, 4)
        assert sorted(ns.indices.tolist()) == [1, 2, 3]

    def test_hybrid_keeps_max_similarity_on_overlap(self):
        cm = [[1.0, 0.0], [0.0, 1.0]]
        prof = [[1.0, 1.0], [0.0, 1.0]]
        base = make_base(cm, prof)
        q = QueryRecord(id=0, cm=[1.0, 0.0], prof=[1.0, 0.0], score=0.5)
        ns = retrieve_one(base, q, RetrievalStrategy.HYBRID, 2)
        # row 0 is retrieved by both halves: cm sim 1.0 beats prof sim 1/sqrt(2)
        assert ns.indices.tolist()[0] == 0
        assert ns.similarities[0] == 1.0

    def test_hybrid_k_too_small(self, rng):
        base = random_base(rng, 5, 3)
        q = random_query(rng, 0, 3)
        with pytest.raises(HybridKTooSmallError):
            retrieve_one(base, q, RetrievalStrategy.HYBRID, 1)

    def test_profile_only_uses_prof_space(self, rng):
        base = random_base(rng, n=25, d_cm=4, d_prof=6)
        q = random_query(rng, 0, 4, 6)
        ns = retrieve_one(base, q, RetrievalStrategy.PROFILE_ONLY, 5)
        expected = naive_top_k(base.prof_matrix, q.prof, 5)
        assert ns.indices.tolist() == [i for i, _ in expected]


class TestRetrieveBatch:
    def test_order_preserved(self, rng):
        base = random_base(rng, n=20, d_cm=4)
        queries = [random_query(rng, i, 4) for i in range(3)]
        results = retrieve_batch(base, queries, RetrievalStrategy.CM_ONLY, 5)
        assert len(results) == 3
        for q, ns in zip(queries, results):
            single = retrieve_one(base, q, RetrievalStrategy.CM_ONLY, 5)
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

    @pytest.mark.parametrize("strategy", [RetrievalStrategy.PROFILE_ONLY, RetrievalStrategy.HYBRID])
    def test_error_names_first_bad_query(self, rng, strategy):
        base = random_base(rng, 10, 4)
        queries = [QueryRecord(id=i, cm=[1.0] * 4, prof=[1.0] * (3 if i in (5, 8) else 4), score=0.5)
                   for i in range(10)]
        with pytest.raises(DimensionMismatchError, match="^query 5: profile vector has dimension 3, expected 4"):
            retrieve_batch(base, queries, strategy, 2)


class TestOracleEquivalence:
    """A single-query retrieval must match the naive all-pairs reference exactly,
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
                got = retrieve_one(base, q, RetrievalStrategy(strategy), k)
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
            ref = retrieve_one(base, q, RetrievalStrategy.CM_ONLY, 5).indices.tolist()
            for scale in (0.25, 2.0, 8.0):
                scaled_q = QueryRecord(id=0, cm=q.cm * np.float32(scale), prof=q.prof, score=0.5)
                assert retrieve_one(base, scaled_q, RetrievalStrategy.CM_ONLY, 5).indices.tolist() == ref
            row = int(rng.integers(0, n))
            cm2 = base.cm_matrix.copy()
            cm2[row] *= np.float32(4.0)
            base2 = from_arrays(base.ids, base.labels, base.scores, cm2, base.prof_matrix, base.layout)
            assert retrieve_one(base2, q, RetrievalStrategy.CM_ONLY, 5).indices.tolist() == ref

    def test_monotonicity_in_k(self, rng):
        for strategy in (RetrievalStrategy.CM_ONLY, RetrievalStrategy.PROFILE_ONLY):
            base = random_base(rng, 60, 5, d_prof=5)
            q = random_query(rng, 0, 5, 5)
            prev: set[int] = set()
            for k in (1, 3, 7, 20, 60):
                current = set(retrieve_one(base, q, strategy, k).indices.tolist())
                assert prev <= current
                prev = current

    def test_hybrid_size_bound_and_disjoint_equality(self):
        rng = np.random.default_rng(31)
        for trial in range(30):
            n, d = int(rng.integers(2, 60)), int(rng.integers(2, 8))
            base = random_base(rng, n, d, d_prof=d, tie_heavy=trial % 2 == 0)
            q = random_query(rng, trial, d, d)
            for k in range(2, 12):
                ns = retrieve_one(base, q, RetrievalStrategy.HYBRID, k)
                assert len(ns) <= k
                cm_half = set(retrieve_one(base, q, RetrievalStrategy.CM_ONLY, k // 2).indices.tolist())
                prof_half = set(retrieve_one(base, q, RetrievalStrategy.PROFILE_ONLY, k - k // 2).indices.tolist())
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

        def recording_rank_block(base, space, queries, k, state):
            block_sizes.add(len(queries))
            return rank_block(base, space, queries, k, state)

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
                        assert entries(ns) == want, f"n={n} k={k} strategy={strategy} query={q.id}"
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
            assert entries(ns) == want
            row0 = dict(entries(ns))[0]
            if q.id % 2 == 0:
                assert row0 == 1.0
            else:
                assert row0 == pytest.approx(2**-0.5, abs=1e-12)


class TestRetrieveGrid:
    """One ranking at max(grid) serves every k (``_grid``, set i of a k the
    first sizes[i] entries of row i): each k's sets must be the ones a
    retrieval at that k alone gives, byte for byte."""

    @pytest.mark.parametrize("parallelism", [1, 4])
    @pytest.mark.parametrize("strategy", list(RetrievalStrategy))
    def test_each_k_equals_retrieve_batch(self, strategy, parallelism):
        base, queries = tie_heavy_world(8)
        got = _grid(base, queries, strategy, TIE_HEAVY_GRID, parallelism, None)
        assert len(got) == len(TIE_HEAVY_GRID)
        for k, (rows, sims, sizes) in zip(TIE_HEAVY_GRID, got):
            want = retrieve_batch(base, queries, strategy, k, parallelism)
            assert len(sizes) == len(want) == len(queries)
            for i, b in enumerate(want):
                assert rows[i, : sizes[i]].tolist() == b.indices.tolist(), f"k={k}"
                assert sims[i, : sizes[i]].tobytes() == b.similarities.tobytes(), f"k={k}"
                assert sizes[i] == len(b) <= k

    def test_ranks_each_space_once_per_chunk(self, ranked_blocks):
        base, queries = tie_heavy_world(9)
        _grid(base, queries, RetrievalStrategy.HYBRID, TIE_HEAVY_GRID, 1, None)
        chunks = -(-len(queries) // retrieval._CHUNK)
        assert sorted(ranked_blocks) == ["cm"] * chunks + ["prof"] * chunks

    def test_bad_grids_rejected(self):
        base, queries = tie_heavy_world(10, n_queries=3)
        for grid in ([], [5, 0]):
            with pytest.raises(InvalidConfigError):
                _grid(base, queries, RetrievalStrategy.CM_ONLY, grid, 1, None)
        with pytest.raises(HybridKTooSmallError):
            _grid(base, queries, RetrievalStrategy.HYBRID, [5, 1], 1, None)
        for strategy in RetrievalStrategy:
            with pytest.raises(InvalidConfigError, match="parallelism"):
                radd.retrieve_batch(base, queries, strategy, 5, parallelism=0)
            with pytest.raises(InvalidConfigError, match="parallelism"):
                radd.evaluate(base, queries, strategy, radd.EnsembleStrategy.RATIO, 5, parallelism=0)
        # A strategy that is not a RetrievalStrategy is a configuration error at every entry point.
        for call in (lambda: retrieve_batch(base, queries, "cm", 5), lambda: _grid(base, queries, "cm", [5], 1, None),
                     lambda: radd.evaluate(base, queries, "cm", radd.EnsembleStrategy.RATIO, 5),
                     lambda: radd.evaluate_grid(base, queries, "cm", radd.EnsembleStrategy.RATIO, [5])):
            with pytest.raises(InvalidConfigError, match="RetrievalStrategy"):
                call()

    @pytest.mark.parametrize("k, parallelism", [
        (2.5, 1), (True, 1), (np.float64(5.0), 1), (None, 1), (5, None), (5, 2.5), (5, False),
    ])
    def test_non_integer_k_or_parallelism_rejected(self, k, parallelism):
        # A bool or a non-integer is a configuration error, never a TypeError
        # or a silent truncation; numpy integers are integers.
        base, queries = tie_heavy_world(12, n_queries=3)
        for strategy in RetrievalStrategy:
            with pytest.raises(InvalidConfigError, match="must be integers"):
                radd.evaluate(base, queries, strategy, radd.EnsembleStrategy.RATIO, k, parallelism=parallelism)
            with pytest.raises(InvalidConfigError, match="must be integers"):
                _grid(base, queries, strategy, [6, k], parallelism, None)
        want = radd.evaluate(base, queries, RetrievalStrategy.HYBRID, radd.EnsembleStrategy.RATIO, 5, parallelism=2)
        got = radd.evaluate(base, queries, RetrievalStrategy.HYBRID, radd.EnsembleStrategy.RATIO, np.int64(5),
                            parallelism=np.int32(2))
        [grid] = radd.evaluate_grid(base, queries, RetrievalStrategy.HYBRID, radd.EnsembleStrategy.RATIO,
                                    [np.int64(5)], parallelism=np.int32(2))
        assert got == want == grid
        for report in (got, grid):  # a report holds a Python int k, so it serializes
            assert type(report.k) is int
            assert json.loads(json.dumps(report.to_json_dict()))["config"]["k"] == 5

    @pytest.mark.parametrize("strategy", list(RetrievalStrategy))
    def test_no_queries(self, strategy):
        base, _ = tie_heavy_world(10, n_queries=3)
        got = _grid(base, [], strategy, [3, 4], 1, None)
        assert [(len(rows), len(sims), len(sizes)) for rows, sims, sizes in got] == [(0, 0, 0), (0, 0, 0)]
        assert retrieve_batch(base, [], strategy, 3) == []

    def test_hybrid_one_pool_per_space(self, recording_pool):
        base, queries = tie_heavy_world(11, n_queries=retrieval._CHUNK + 1)
        _grid(base, queries, RetrievalStrategy.HYBRID, [4, 10], 10**6, None)
        assert recording_pool == [2, 2]

    @pytest.mark.parametrize("parallelism, n_queries", [(1, 3 * retrieval._CHUNK + 1), (4, 5)])
    def test_one_thread_rankings_start_no_pool(self, monkeypatch, parallelism, n_queries):
        # Several blocks at parallelism 1, or one block at any parallelism,
        # run in the calling thread: a pool costs peak RSS (see _rank).
        class NoPool:
            def __init__(self, *args, **kwargs):
                raise AssertionError("this ranking must not start a thread pool")

        base, queries = tie_heavy_world(12, n_queries=n_queries)
        monkeypatch.setattr(retrieval, "ThreadPoolExecutor", NoPool)
        got = _grid(base, queries, RetrievalStrategy.HYBRID, [4, 10], parallelism, None)
        assert [len(sizes) for _, _, sizes in got] == [n_queries, n_queries]


class TestBlockQueries:
    """Queries per block: b = max(_CHUNK, min(n // 32, 512)) over a base of
    n rows; base rows per screening tile: T = max(k, 2**22 // b). Neither
    decides a ranking, only how the query list and the base are cut."""

    @pytest.mark.parametrize("n, b", [(200, 64), (2047, 64), (4000, 125), (16_384, 512), (40_000, 512),
                                      (100_000, 512)])
    def test_rule_at_benchmark_shapes(self, n, b):
        assert retrieval._block_queries(n) == b

    @pytest.mark.parametrize("b, k, rows", [(512, 200, 8192), (142, 20, 29537), (64, 20, 65536), (1, 5, 2**22),
                                            (512, 9000, 9000)])
    def test_tile_rule(self, b, k, rows):
        assert retrieval._tile_rows(b, k) == rows

    @pytest.mark.parametrize("parallelism", [1, 3])
    @pytest.mark.parametrize("n, tile, grid, ruled_sizes", [
        # The rule cuts 155 queries over 4,000 rows into a block of 125 and
        # one of 30, each one tile.
        (4000, None, [2, 11, 40, 4003], [30, 125]),
        # Over 16,384 rows it cuts 520 queries into a block of 512 that
        # tiles of 3,000 rows cut six ways, and a block of 8.
        (16_384, 3000, [2, 11, 40], [8, 512]),
    ], ids=["n4000", "n16384-tiled"])
    def test_rule_blocks_rank_as_floor_blocks(self, monkeypatch, parallelism, n, tile, grid, ruled_sizes):
        # Tie-heavy spaces: rows repeated from 30 integer rows, some
        # all-zero, and queries that repeat base rows or are all-zero, some
        # at the edges of the rule's and the floor's blocks. The floor cuts
        # the queries into blocks of 64, each one tile.
        rng = np.random.default_rng(31)
        d_cm, d_prof, n_queries = 48, 40, sum(ruled_sizes)
        cm = rng.integers(-1, 2, size=(30, d_cm))[rng.integers(0, 30, size=n)].astype(np.float32)
        prof = rng.integers(-1, 2, size=(30, d_prof))[rng.integers(0, 30, size=n)].astype(np.float32)
        cm[::37], prof[::41] = 0.0, 0.0
        base = make_base(cm, prof)
        picks = rng.integers(0, n, size=n_queries)
        queries = [QueryRecord(id=i, cm=cm[j], prof=prof[(j * 7) % n], score=0.5) for i, j in enumerate(picks)]
        for i in {0, 63, 64, 124, 125, 250, 511} & set(range(n_queries)):
            queries[i] = QueryRecord(id=i, cm=np.zeros(d_cm), prof=queries[i].prof, score=0.5)
        for i in {1, 126, 200, 512} & set(range(n_queries)):
            queries[i] = QueryRecord(id=i, cm=queries[i].cm, prof=np.zeros(d_prof), score=0.5)
        vecs = {space: [getattr(q, space) for q in queries] for space in ("cm", "prof")}
        sizes: list[int] = []
        tiles: list[tuple[int, int]] = []
        rank_block, merge, tile_rows = retrieval._rank_block, retrieval._merge_group_maxima, retrieval._tile_rows

        def recording_rank_block(base, space, block, k, state):
            sizes.append(len(block))
            return rank_block(base, space, block, k, state)

        def recording_merge(best, sims, k):
            tiles.append(sims.shape)
            return merge(best, sims, k)

        monkeypatch.setattr(retrieval, "_rank_block", recording_rank_block)
        monkeypatch.setattr(retrieval, "_merge_group_maxima", recording_merge)
        if tile is not None:
            monkeypatch.setattr(retrieval, "_tile_rows", lambda b, k: max(k, tile))
        ruled = {space: retrieval._rank(base, space, vecs[space], max(grid), parallelism) for space in vecs}
        blocks = len(ruled_sizes)
        assert sorted(sizes[:blocks]) == sorted(sizes[blocks:]) == ruled_sizes  # workers finish in any order
        if tile is not None:  # each space's 512-query block in 5 full tiles and a tail
            assert tiles.count((512, tile)) == 2 * (n // tile) and tiles.count((512, n % tile)) == 2
        ruled_grid = {s: _grid(base, queries, s, grid, parallelism, None) for s in RetrievalStrategy}
        monkeypatch.setattr(retrieval, "_block_queries", lambda n: retrieval._CHUNK)
        monkeypatch.setattr(retrieval, "_tile_rows", tile_rows)
        sizes.clear()
        tiles.clear()
        for space, (idx, sim) in ruled.items():
            floor_idx, floor_sim = retrieval._rank(base, space, vecs[space], max(grid), 1)
            assert idx.tobytes() == floor_idx.tobytes(), space
            assert sim.tobytes() == floor_sim.tobytes(), space
        for strategy, per_k in ruled_grid.items():
            for k, got, want in zip(grid, per_k, _grid(base, queries, strategy, grid, 1, None)):
                for a, b in zip(got, want):  # rows, similarities and set sizes
                    assert a.tobytes() == b.tobytes(), f"{strategy.value} k={k}"
        assert set(sizes) == {retrieval._CHUNK, n_queries % retrieval._CHUNK}
        assert {m for _, m in tiles} == {n}


def tiled_world(seed: int) -> tuple:
    """A tie-heavy world of 230 rows and 150 queries for cutting into tiles:
    zero rows and rows outside the screened norms (2**70 times too large or
    too small, screened rescaled) in the later tiles, a band of 19 copies of
    one row off the integer grid across rows 44..62 (over the boundaries of
    50-, 57- and 61-row tiles), queries in the band's direction, and zero CM
    and profile queries in the first and last block."""
    rng = np.random.default_rng(seed)
    base = random_base(rng, 230, 4, d_prof=3, tie_heavy=True)
    cm, prof = base.cm_matrix.copy(), base.prof_matrix.copy()
    cm[44:63], prof[44:63] = [5.0, -3.0, 7.0, 1.0], [4.0, 3.0, -5.0]
    cm[[150, 151, 229]], prof[[120, 201, 229]] = 0.0, 0.0
    cm[[140, 200]] *= np.float32(2.0**70)
    cm[228] *= np.float32(2.0**-70)
    prof[[110, 227]] *= np.float32(2.0**-70)
    base = make_base(cm, prof)
    queries = [random_query(rng, i, 4, 3, tie_heavy=True) for i in range(150)]
    for i in (3, 4, 100):
        queries[i] = QueryRecord(id=i, cm=cm[44] * 2, prof=prof[44], score=0.5)
    for i in (0, 140):
        queries[i] = QueryRecord(id=i, cm=np.zeros(4), prof=queries[i].prof, score=0.5)
    for i in (1, 149):
        queries[i] = QueryRecord(id=i, cm=queries[i].cm, prof=np.zeros(3), score=0.5)
    return base, queries


class TestTiles:
    """The screen cut into base-row tiles ranks exactly as one tile does:
    the same rows and similarity bits, equal to the naive reference."""

    @pytest.mark.parametrize("rows", [50, 57, 61, 1])
    @pytest.mark.parametrize("parallelism", [1, 3])
    @pytest.mark.parametrize("strategy", list(RetrievalStrategy))
    def test_tiles_rank_as_one_tile(self, monkeypatch, strategy, parallelism, rows):
        # 50 and 61 do not divide 230; 57 leaves a last tile of 2 rows, narrower
        # than k = 40; 1 makes every tile k wide. Each grid is ranked at its
        # largest k, so k == n is a grid of its own.
        base, queries = tiled_world(5)
        grids = ([2, 5, 40], [base.n])
        one_tile = [_grid(base, queries, strategy, grid, parallelism, None) for grid in grids]
        widths: list[int] = []
        merge = retrieval._merge_group_maxima

        def recording_merge(best, sims, k):
            widths.append(sims.shape[1])
            return merge(best, sims, k)

        monkeypatch.setattr(retrieval, "_merge_group_maxima", recording_merge)
        monkeypatch.setattr(retrieval, "_tile_rows", lambda b, k: max(k, rows))
        for grid, want_grid in zip(grids, one_tile):
            for k, got, want in zip(grid, _grid(base, queries, strategy, grid, parallelism, None), want_grid):
                for a, b in zip(got, want):  # rows, similarities and set sizes
                    assert a.tobytes() == b.tobytes(), f"k={k}"
                idx, sims, sizes = got
                for q in queries[::7] + queries[-2:]:
                    got_entries = list(zip(idx[q.id, : sizes[q.id]].tolist(), sims[q.id, : sizes[q.id]].tolist()))
                    want_entries = naive_retrieve(base.cm_matrix, base.prof_matrix, q.cm, q.prof, strategy.value, k)
                    assert got_entries == want_entries, f"k={k} query={q.id}"
        if rows == 57 and strategy is RetrievalStrategy.CM_ONLY:
            assert 2 in widths and widths.count(57) == 4 * 3  # 4 full tiles and a 2-row tail per block
        if strategy is not RetrievalStrategy.HYBRID:  # hybrid ranks each space at about n / 2
            assert base.n in widths  # k == n is one tile

    def test_band_across_a_tile_boundary_is_cut_by_row(self, monkeypatch, checked_bounds):
        # Every row of the band ties at the top for a query in its direction;
        # the top k are the band's first k rows, whatever tile they are in.
        # Each tile's merged bound is checked against the tiles seen so far.
        base, queries = tiled_world(6)
        monkeypatch.setattr(retrieval, "_tile_rows", lambda b, k: max(k, 50))
        for k in (3, 6, 10, 19):
            got = retrieve_batch(base, queries[3:5], RetrievalStrategy.CM_ONLY, k)
            for ns in got:
                assert ns.indices.tolist() == list(range(44, 44 + k))
                assert (ns.similarities == ns.similarities[0]).all()
        assert len(checked_bounds) == 4 * 5  # 5 tiles at each k


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
        idx, sim = retrieval._rank_block(base, "cm", list(queries), base.n, retrieval._screen_state(base, "cm"))
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


@pytest.fixture
def checked_bounds(monkeypatch) -> list[np.ndarray]:
    """Checks every screening bound, the k-th largest of a block's group
    maxima merged over its tiles so far, against the exact k-th largest
    screened value of those tiles, and records per tile which rows' bound
    was exact."""
    exact: list[np.ndarray] = []
    tiles: dict[int, tuple[np.ndarray, list[np.ndarray]]] = {}  # id of the merged maxima -> (them, their tiles)
    merge = retrieval._merge_group_maxima

    def checked(best, sims, k):
        merged = merge(best, sims, k)
        seen = tiles.pop(id(best), (best, []))[1] + [sims]
        tiles[id(merged)] = (merged, seen)  # held, so no later array takes its id
        screened = np.concatenate(seen, axis=1)
        kth = np.partition(screened, screened.shape[1] - k, axis=1)[:, -k]
        assert (merged[:, 0] <= kth).all(), f"bound above the k-th screened value at k={k}"
        exact.append(merged[:, 0] == kth)
        return merged

    monkeypatch.setattr(retrieval, "_merge_group_maxima", checked)
    return exact


def column_groups(n: int, k: int) -> tuple[int, int]:
    """The kernel's grouping of n columns at k: w columns per group, stride s."""
    w = max(1, n // max(8 * k, 512))
    return w, n // w


def clustered_base(rng, n: int, d: int, center: np.ndarray, near: list[int]):
    """Random rows, except those at *near*: in that order, steps of 1e-3
    away from *center* in one direction orthogonal to it, so their cosines
    to *center* strictly decrease."""
    cm = rng.standard_normal((n, d)).astype(np.float32)
    away = rng.standard_normal(d)
    away -= (away @ center) / (center @ center) * center
    for rank, row in enumerate(near):
        cm[row] = center + 1e-3 * (rank + 1) * away
    return make_base(cm)


class TestScreenBound:
    """The float32 screen may drop a row only when the float64 ranking
    provably excludes it, for every finite float32 input."""

    @pytest.mark.parametrize("k", [3, 10])
    def test_top_k_in_one_strided_group(self, checked_bounds, k):
        # The k best rows are j, j + s, j + 2s, ...: one group holds them all,
        # so the bound comes from the runners-up of other groups, below t.
        # 5,200 columns make 10 groups of stride 520.
        rng = np.random.default_rng(k)
        n, d = 5200, 8
        w, s = column_groups(n, k)
        assert (w, s) == (10, 520) and w >= k
        center = rng.standard_normal(d)
        base = clustered_base(rng, n, d, center, [7 + i * s for i in range(k)])
        query = query_for(base, center)
        got = retrieve_one(base, query, RetrievalStrategy.CM_ONLY, k)
        assert_matches(got, naive_top_k(base.cm_matrix, query.cm, k), f"k={k}")
        assert got.indices.tolist() == [7 + i * s for i in range(k)]
        assert not checked_bounds[0].all()

    def test_tail_columns_decide_the_bound(self, checked_bounds):
        # n is not a multiple of w; the k best rows are the last k columns,
        # each a group of its own, next to a strided group of runners-up.
        # 3,077 columns make 6 groups of stride 512 and a 5-column tail.
        rng = np.random.default_rng(5)
        n, d, k = 3077, 8, 5
        w, s = column_groups(n, k)
        assert (w, s) == (6, 512) and n % w >= k
        center = rng.standard_normal(d)
        base = clustered_base(rng, n, d, center, list(range(n - k, n)) + [3 + i * s for i in range(w)])
        query = query_for(base, center)
        got = retrieve_one(base, query, RetrievalStrategy.CM_ONLY, k)
        assert_matches(got, naive_top_k(base.cm_matrix, query.cm, k), "tail")
        assert got.indices.tolist() == list(range(n - k, n))
        assert checked_bounds[0].all()  # k distinct groups hold the top k

    @pytest.mark.parametrize("n, k", [(30, 5), (39, 5), (50, 50), (7, 7)])
    def test_one_column_per_group_is_exact(self, checked_bounds, n, k):
        # n < max(8k, 512) gives w = 1 (every column its own group); k = n is
        # its extreme.
        assert column_groups(n, k)[0] == 1
        rng = np.random.default_rng(n)
        base = make_base(rng.standard_normal((n, 6)).astype(np.float32))
        queries = [query_for(base, rng.standard_normal(6)) for _ in range(5)]
        for q, ns in zip(queries, retrieve_batch(base, queries, RetrievalStrategy.CM_ONLY, k)):
            assert_matches(ns, naive_top_k(base.cm_matrix, q.cm, k), f"n={n} k={k}")
        assert all(exact.all() for exact in checked_bounds)

    def test_tie_band_across_group_boundaries(self, checked_bounds):
        # 28 rows of one direction, half exact copies and half nudged by one
        # float32 step (a difference the screen cannot see), placed across the
        # stride boundary at s, twice in the same groups, and across the start
        # of the tail. Ties go to the lower row at every k. 2,051 columns make
        # 4 groups of stride 512 and a 3-column tail.
        rng = np.random.default_rng(17)
        n, d = 2051, 8
        w, s = column_groups(n, 10)
        assert (w, s) == (4, 512) and n > s * w
        center = rng.standard_normal(d).astype(np.float32)
        cm = rng.standard_normal((n, d)).astype(np.float32)
        band = [*range(s - 5, s + 5), *range(2 * s - 5, 2 * s + 5), *range(s * w - 5, n)]
        for i, row in enumerate(band):
            cm[row] = center
            if i % 2:
                cm[row, i % d] = np.nextafter(center[i % d], np.float32(np.inf))
        base = make_base(cm)
        queries = [query_for(base, center), query_for(base, center + 1e-3 * rng.standard_normal(d))]
        for k in (10, 20, 28, 40):
            for q, ns in zip(queries, retrieve_batch(base, queries, RetrievalStrategy.CM_ONLY, k)):
                assert_matches(ns, naive_top_k(base.cm_matrix, q.cm, k), f"k={k}")
                assert set(ns.indices[: min(k, 28)].tolist()) <= set(band)

    def test_bound_at_most_kth_value(self):
        # Group maxima against the exact k-th value on float32 blocks with
        # ties, -inf columns and the -1.0 sentinel, at every grouping shape,
        # merged from one tile and from tiles of k, 97 and 1,000 columns.
        rng = np.random.default_rng(2)
        shapes = [(1, 1), (15, 2), (16, 1), (160, 1), (163, 2), (1100, 1), (1537, 3), (2000, 10), (2037, 5),
                  (5200, 80), (500, 500)]
        for n, k in shapes:
            sims = rng.integers(-3, 4, size=(9, n)).astype(np.float32) / np.float32(3)
            sims[:, rng.integers(0, n, size=n // 5)] = -np.inf
            sims[:, rng.integers(0, n, size=n // 5)] = -1.0
            sims[0] = -np.inf
            kth = np.partition(sims, n - k, axis=1)[:, n - k]
            for width in (n, k, 97, 1000):
                best = np.full((9, k), -np.inf, dtype=np.float32)
                for start in range(0, n, max(k, width)):
                    best = retrieval._merge_group_maxima(best, sims[:, start : start + max(k, width)], k)
                bound = best[:, 0]
                assert bound.dtype == np.float32 and bound.shape == (9,)
                assert (bound <= kth).all(), f"n={n} k={k} width={width}"
                if column_groups(max(k, width), k)[0] == 1:
                    np.testing.assert_array_equal(bound, kth)

    def test_slack_past_half_a_unit_keeps_every_row(self, monkeypatch):
        # At d u >= 1/2 (u = 2**-24) gamma_d has no finite bound: the slack is
        # infinite, the cut is -inf for any bound, and every row, the -1.0
        # sentinel and the most negative float32 included, survives the
        # screen, so the float64 rescoring alone ranks, with the same bits.
        assert retrieval._slack(2**23) == retrieval._slack(2**23 + 1) == math.inf
        assert math.isfinite(retrieval._slack(2**23 - 1))
        f32 = np.finfo(np.float32)
        best = np.array([[1.0, 0.5], [-1.0, -1.0], [f32.max, 0.0], [-np.inf, -np.inf]], dtype=np.float32)
        cut = retrieval._threshold(best, 2**23)
        assert cut.dtype == np.float32 and (cut == -np.inf).all()
        sims = np.array([f32.min, -1.0, 0.0, f32.tiny, 1.0, f32.max], dtype=np.float32)
        assert (sims[None, :] >= cut[:, None]).all()
        base, queries = tie_heavy_world(13)
        want = [_grid(base, queries, s, TIE_HEAVY_GRID, 1, None) for s in RetrievalStrategy]
        monkeypatch.setattr(retrieval, "_slack", lambda d: math.inf)
        for strategy, want_grid in zip(RetrievalStrategy, want):
            got_grid = _grid(base, queries, strategy, TIE_HEAVY_GRID, 1, None)
            for k, got, want in zip(TIE_HEAVY_GRID, got_grid, want_grid):
                for a, b in zip(got, want):  # rows, similarities and set sizes
                    assert a.tobytes() == b.tobytes(), f"{strategy.value} k={k}"

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

    @pytest.mark.parametrize("errstate", [{}, {"all": "raise"}], ids=["default", "raise"])
    @pytest.mark.parametrize("strategy", list(RetrievalStrategy))
    def test_extreme_rows_match_reference(self, strategy, errstate):
        # Rows outside the screened norms, each screened as its power-of-two
        # multiple, in both spaces: near FLT_MAX, all subnormal, at 1e-36,
        # and rows mixing 3e38 with 1e-45 (scaled down, the 1e-45 elements
        # underflow), beside ordinary and zero rows. Queries point at rows of
        # each kind, at their scale, or are ordinary; the unit queries of the
        # mixed rows underflow in float32. Under numpy's default settings no
        # warning, and with numpy raising on every floating-point error, no
        # error may escape.
        rng = np.random.default_rng(43)
        f32 = np.float32

        def block(d):
            rows = rng.standard_normal((80, d))
            rows[:10] = rows[:10] / np.abs(rows[:10]).max(axis=1, keepdims=True) * np.finfo(f32).max
            rows[10:20] = rng.integers(-1000, 1001, size=(10, d)) * 2.0**-149
            rows[20:30] *= 1e-36
            rows[30:40] = rng.choice([3e38, -2e38, 1e-45, -1e-45], size=(10, d))
            rows[40:43] = 0.0
            return rows.astype(f32)

        cm, prof = block(8), block(5)
        base = make_base(cm, prof)
        picks = [0, 3, 12, 15, 22, 27, 31, 38, 50, 41]
        queries = [QueryRecord(id=i, cm=cm[row] * f32(0.5), prof=prof[row], score=0.5) for i, row in enumerate(picks)]
        queries += [random_query(rng, i, 8, 5) for i in range(len(picks), 40)]
        with np.errstate(**errstate), warnings.catch_warnings():
            warnings.simplefilter("error")
            for k in (2, 9, 40):
                got = retrieve_batch(base, queries, strategy, k)
                for q, ns in zip(queries, got):
                    want = naive_retrieve(base.cm_matrix, base.prof_matrix, q.cm, q.prof, strategy.value, k)
                    assert_matches(ns, want, f"k={k} query={q.id}")

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
        got = _grid(base, queries, RetrievalStrategy.CM_ONLY, [1, 10, 50], 1, None)
        for qi, q in enumerate(queries):
            want = ranked(exact_cosines(base.cm_matrix, q.cm), 50)
            for k, (rows, _, sizes) in zip((1, 10, 50), got):
                assert rows[qi, : sizes[qi]].tolist() == [i for i, _ in want[:k]], f"d={d} k={k} query={qi}"

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
        alike = retrieve_one(base, queries[0], RetrievalStrategy.CM_ONLY, 5).indices.tolist()
        assert alike == [4, 9, 12, 17, 28]
        zero = retrieve_one(base, queries[2], RetrievalStrategy.CM_ONLY, 45)
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
        alone = [retrieve_one(base, q, strategy, k) for q in queries[:: 7]]

        def assert_same(sets, picks):
            for want, ns in zip(alone, (sets[i] for i in picks)):
                assert ns.indices.tobytes() == want.indices.tobytes()
                assert ns.similarities.tobytes() == want.similarities.tobytes()

        forward = range(0, 150, 7)
        for parallelism in (1, 3):
            assert_same(retrieve_batch(base, queries, strategy, k, parallelism), forward)
            assert_same(retrieve_batch(base, queries[::-1], strategy, k, parallelism), [149 - i for i in forward])
        rows, sims, sizes = _grid(base, queries[5:] + queries[:5], strategy, [k, 40], 1, None)[0]
        for want, i in zip(alone, ((i - 5) % 150 for i in forward)):
            assert rows[i, : sizes[i]].tobytes() == want.indices.tobytes()
            assert sims[i, : sizes[i]].tobytes() == want.similarities.tobytes()


def test_rank_block_makes_no_second_copy_of_its_block():
    # One block (256 queries over 8,192 rows under the rule) in one tile (the
    # rule's tile is 16,384 rows wide) holds the float32 similarity block,
    # its survivor mask and the group maxima; a full-width copy of the block
    # (a partition over it) would take the peak past 2x.
    rng = np.random.default_rng(21)
    base = random_base(rng, n=8192, d_cm=256)
    b = retrieval._block_queries(base.n)
    assert b == 256 and retrieval._tile_rows(b, 10) >= base.n
    queries = list(rng.standard_normal((b, 256)).astype(np.float32))
    block = b * base.n * 4
    tracemalloc.start()
    try:
        retrieval._rank_block(base, "cm", queries, 10, retrieval._screen_state(base, "cm"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.75 * block, f"peak {peak / block:.2f}x the float32 block"


def test_small_base_blocks_stay_under_the_width_rule_block():
    # The seed-7 quick-start shape (4,000 rows, 400 queries, k 10): on a base
    # this small a block's (b, n) similarity tile is the memory, not the 16
    # MiB tile cap, so b follows n (125 here). In each space the peak of one
    # ranking stays under 2x a 142 x 4,000 float32 block (the profile block
    # of a d // 2 rule); 512-query blocks would take it past 4x.
    entries, queries = radd.generate(radd.SynthConfig(seed=7))
    base = radd.build(entries)
    assert (base.n, len(queries)) == (4000, 400)
    old_block = 142 * base.n * 4
    for space in ("cm", "prof"):
        vecs = [getattr(q, space) for q in queries]
        tracemalloc.start()
        try:
            retrieval._rank(base, space, vecs, 10, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.0 * old_block, f"{space}: peak {peak / old_block:.2f}x a 142 x 4,000 float32 block"


def test_rank_block_holds_one_tile_at_a_time():
    # 512 queries over 20,000 rows of width 16: the rule's tiles of 8,192
    # rows (16 MiB of float32 each) cut the base into 3, the last 3,616
    # wide. A tile, its survivor mask and its group maxima are live at once,
    # besides the block's query arrays; two tiles at once would take the
    # peak past 2x a tile.
    rng = np.random.default_rng(22)
    base = random_base(rng, n=20_000, d_cm=16)
    b, d = 512, 16
    rows = retrieval._tile_rows(b, 10)
    assert rows == 8192 and base.n > 2 * rows
    queries = list(rng.standard_normal((b, d)).astype(np.float32))
    tile, query_arrays = b * rows * 4, b * d * (8 + 4)  # float64 and unit float32 queries
    tracemalloc.start()
    try:
        retrieval._rank_block(base, "cm", queries, 10, retrieval._screen_state(base, "cm"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.75 * tile + query_arrays, f"peak {peak / tile:.2f}x one tile"


def test_out_of_range_rows_take_the_one_screen():
    # 64 queries over 20,000 x 64 rows at scale 1e-20 and 1e20, every row
    # outside the screened norms: a rescaled copy of the tile beside the
    # similarity tile keeps the peak within 3x of the same base at scale 1
    # (about 1.5x), where rescoring every row would keep b x n survivors
    # and rescore each query against a float64 copy of the base.
    rng = np.random.default_rng(23)
    cm = rng.standard_normal((20_000, 64)).astype(np.float32)
    queries = [QueryRecord(id=i, cm=v, prof=[1.0], score=0.5) for i, v in enumerate(rng.standard_normal((64, 64)))]
    peaks = {}
    for scale in (1.0, 1e-20, 1e20):
        base = make_base(cm * np.float32(scale), cm[:, :1])
        assert (retrieval._screen_state(base, "cm")[2] != 0).all() == (scale != 1.0)
        tracemalloc.start()
        try:
            retrieve_batch(base, queries, RetrievalStrategy.CM_ONLY, 10)
            peaks[scale] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert max(peaks[1e-20], peaks[1e20]) < 3 * peaks[1.0], {s: f"{p / 2**20:.1f} MiB" for s, p in peaks.items()}


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
