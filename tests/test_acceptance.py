"""Acceptance suite: one test per acceptance criterion, each printing a
PASS line with its measured evidence (run with -s to see them inline).

Criteria covered:
  1 retrieval oracle equivalence      6 persistence round-trip + corruption
  2 EER oracle equivalence            7 synthetic zero-day experiment
  3 hybrid structural properties      8 ablation machinery
  4 ensemble algebra                  9 performance at 100k x 1024
  5 determinism under parallelism
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from conftest import base_with, neighbor_set, random_base, random_query, simple_layout
from radd import store
from radd.ablation import AttributeMask, apply_mask
from radd.ensemble import EnsembleStrategy, format_prediction_tsv, predict
from radd.errors import BadMagicError, ChecksumMismatchError, TruncatedFileError
from radd.metrics import evaluate, score_queries
from radd.retrieval import RetrievalStrategy, retrieve_batch
from radd.store import build, from_arrays, load, save
from radd.synthetic import SynthConfig, generate
from radd.types import QueryRecord
from reference import brute_force_eer, naive_retrieve


def _pass(criterion: int, detail: str):
    print(f"[PASS] criterion {criterion}: {detail}")


def test_criterion_1_retrieval_oracle_equivalence():
    rng = np.random.default_rng(20240801)
    start = time.perf_counter()
    instances = 0
    trial = 0
    while instances < 1000:
        trial += 1
        n = int(rng.integers(1, 501))
        d = int(rng.integers(1, 65))
        tie_heavy = trial % 3 == 0
        base = random_base(rng, n, d, d_prof=d, tie_heavy=tie_heavy, zero_rows=trial % 5)
        q = random_query(rng, trial, d, d, tie_heavy=tie_heavy)
        strategy = ("cm", "prof", "hybrid")[trial % 3]
        for k in (1, 2, 5, 17, n):
            if strategy == "hybrid" and k < 2:
                continue
            got = retrieve_batch(base, [q], RetrievalStrategy(strategy), k)[0]
            want = naive_retrieve(base.cm_matrix, base.prof_matrix, q.cm, q.prof, strategy, k)
            assert got.indices.tolist() == [i for i, _ in want], (
                f"trial={trial} n={n} d={d} k={k} strategy={strategy}"
            )
            instances += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"oracle equivalence took {elapsed:.1f}s"
    _pass(1, f"{instances} randomized instances matched the naive reference in {elapsed:.1f}s")


def test_criterion_2_eer_oracle_equivalence():
    rng = np.random.default_rng(20240802)
    checked = binary_checked = 0
    while checked < 500:
        n = int(rng.integers(2, 201))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        kind = checked % 4
        if kind == 0:
            scores = rng.uniform(0.0, 1.0, size=n)
        elif kind == 1:
            scores = rng.integers(0, 4, size=n) / 3.0  # heavy ties
        elif kind == 2:
            scores = rng.integers(0, 2, size=n).astype(float)  # binary
        else:
            scores = np.round(rng.uniform(0.0, 1.0, size=n), 1)
        from radd.metrics import ScoredSample, eer

        ss = [ScoredSample(float(s), int(y)) for s, y in zip(scores, labels)]
        got = eer(ss)
        want = brute_force_eer(scores.tolist(), labels.tolist())
        assert got == pytest.approx(want, abs=1e-9), f"set {checked}: {got} vs {want}"
        if np.unique(scores).size <= 2:
            # binary sets must follow the averaged-rates rule exactly:
            # (FAR + miss) / 2 at the split between the two values
            real = scores[labels == 0]
            fake = scores[labels == 1]
            tau = np.unique(scores)[-1]
            expected = (np.mean(real >= tau) + np.mean(fake < tau)) / 2.0
            assert got == expected
            binary_checked += 1
        checked += 1
    assert binary_checked >= 100
    _pass(2, f"{checked} score sets matched brute force (incl. {binary_checked} binary sets exact)")


def test_criterion_3_hybrid_structural_properties():
    rng = np.random.default_rng(20240803)
    equality_seen = shrink_seen = 0
    for trial in range(150):
        n = int(rng.integers(2, 120))
        d = int(rng.integers(2, 12))
        base = random_base(rng, n, d, d_prof=d, tie_heavy=trial % 2 == 0)
        q = random_query(rng, trial, d, d, tie_heavy=trial % 2 == 0)
        for k in range(2, 12):
            ns = retrieve_batch(base, [q], RetrievalStrategy.HYBRID, k)[0]
            assert len(ns) <= k
            assert len(set(ns.indices.tolist())) == len(ns)  # distinct
            k1, k2 = k // 2, k - k // 2
            assert k1 + k2 == k and k2 - k1 in (0, 1)
            cm_half = set(retrieve_batch(base, [q], RetrievalStrategy.CM_ONLY, k1)[0].indices.tolist())
            prof_half = set(retrieve_batch(base, [q], RetrievalStrategy.PROFILE_ONLY, k2)[0].indices.tolist())
            assert set(ns.indices.tolist()) == cm_half | prof_half
            if cm_half & prof_half:
                shrink_seen += 1
            elif min(k, n) == k:
                assert len(ns) == k
                equality_seen += 1
    assert equality_seen > 0 and shrink_seen > 0
    _pass(3, f"1500 hybrid instances: size bound held, floor/ceil split verified for k=2..11 "
             f"({equality_seen} disjoint-equality, {shrink_seen} overlap-shrink cases)")


def test_criterion_4_ensemble_algebra():
    # predict over random neighbor sets of a 120-row base and of the same
    # base with every label flipped.
    rng = np.random.default_rng(20240804)
    labels = rng.integers(0, 2, size=120)
    base = base_with(labels, rng.uniform(0.01, 0.99, size=120))
    flipped = base_with(1 - labels, base.scores)

    def score(b, idx, strategy):
        return predict(b, neighbor_set(idx), strategy, 0).score

    for _ in range(1000):
        idx = rng.choice(base.n, size=int(rng.integers(1, 60)), replace=False)
        ratio = score(base, idx, EnsembleStrategy.RATIO)
        assert ratio == pytest.approx(1.0 - score(flipped, idx, EnsembleStrategy.RATIO), abs=1e-12)
        mv = score(base, idx, EnsembleStrategy.MAJORITY_VOTE)
        if ratio > 0.5:
            assert mv == 1.0
        elif ratio < 0.5:
            assert mv == 0.0
        else:
            assert mv == 0.5
    for _ in range(1000):
        idx = rng.choice(base.n, size=int(rng.integers(1, 60)), replace=False)
        mean = score(base, idx, EnsembleStrategy.AVERAGE)
        assert score(base, rng.permutation(idx), EnsembleStrategy.AVERAGE) == mean
        scores = base.scores[idx].tolist()
        assert min(scores) <= mean <= max(scores)
    _pass(4, "ratio antisymmetry, MV/ratio consistency, average invariance over 1000 multisets each")


def test_criterion_5_determinism_under_parallelism():
    config = SynthConfig(seed=501, n_real=400, n_seen_fake=400, n_query_real=120, n_query_zeroday=120)
    entries, queries = generate(config)
    base = build(entries)
    for strategy, ens in (
        (RetrievalStrategy.CM_ONLY, EnsembleStrategy.MAJORITY_VOTE),
        (RetrievalStrategy.HYBRID, EnsembleStrategy.RATIO),
        (RetrievalStrategy.PROFILE_ONLY, EnsembleStrategy.AVERAGE),
    ):
        tsvs = []
        for parallelism in (1, 4, 8):
            preds = score_queries(base, queries, strategy, ens, k=11, parallelism=parallelism)
            tsvs.append(format_prediction_tsv(preds).encode())
        assert tsvs[0] == tsvs[1] == tsvs[2]
    _pass(5, "prediction TSVs byte-identical for parallelism 1/4/8 across three configurations")


@pytest.mark.parametrize("n", [1, 1000, 100_000])
def test_criterion_6_persistence_round_trip(tmp_path, n):
    rng = np.random.default_rng(600 + n)
    base = random_base(rng, n=n, d_cm=8, d_prof=4, tie_heavy=False)
    path = tmp_path / "base.rakb"
    save(base, path)
    other = load(path)
    for attr in ("ids", "labels", "scores", "cm_matrix", "prof_matrix"):
        assert getattr(other, attr).tobytes() == getattr(base, attr).tobytes(), attr
    assert other.layout == base.layout
    _pass(6, f"round-trip bit-exact at n={n}")


def test_criterion_6_corruption_detection(tmp_path):
    rng = np.random.default_rng(606)
    base = random_base(rng, n=50, d_cm=8, d_prof=4)
    path = tmp_path / "base.rakb"
    save(base, path)
    pristine = path.read_bytes()

    corrupted = bytearray(pristine)
    corrupted[:4] = b"XXXX"
    path.write_bytes(corrupted)
    with pytest.raises(BadMagicError):
        load(path)

    # truncate halfway into the cm matrix block; the blocks end at the 4-byte CRC
    blocks = [(name, dtype.itemsize * int(np.prod(shape))) for name, dtype, shape in store._blocks(base.n, base.d_cm, base.d_prof)]
    cut = len(pristine) - 4 - sum(size for _, size in blocks)
    for name, size in blocks:
        if name == "cm_matrix":
            break
        cut += size
    cut += (base.n // 2) * base.d_cm * 4
    path.write_bytes(pristine[:cut])
    with pytest.raises(TruncatedFileError):
        load(path)

    flipped = bytearray(pristine)
    flipped[len(flipped) // 2] ^= 0x01
    path.write_bytes(flipped)
    with pytest.raises(ChecksumMismatchError):
        load(path)
    _pass(6, "corrupted magic -> BadMagic, truncation -> TruncatedFile, bit flip -> ChecksumMismatch")


def test_criterion_7_synthetic_zero_day_experiment():
    start = time.perf_counter()
    seeds = list(range(7000, 7010))
    passes = 0
    rows = []
    for seed in seeds:
        config = SynthConfig(
            seed=seed, n_real=2000, n_seen_fake=2000,
            n_query_real=200, n_query_zeroday=200,
            cluster_sep=12.0, zeroday_shift=2.0, score_miscalibration=1.0,
        )
        entries, queries = generate(config)
        base = build(entries)
        baseline = evaluate(base, queries, None, None, 0)
        cm_mv = evaluate(base, queries, RetrievalStrategy.CM_ONLY, EnsembleStrategy.MAJORITY_VOTE, 20)
        hybrid_mv = evaluate(base, queries, RetrievalStrategy.HYBRID, EnsembleStrategy.MAJORITY_VOTE, 20)
        ok = (
            baseline.eer >= 0.40
            and cm_mv.eer <= 0.10
            and hybrid_mv.eer <= cm_mv.eer + 0.02
        )
        passes += ok
        rows.append((seed, baseline.eer, cm_mv.eer, hybrid_mv.eer, ok))
    elapsed = time.perf_counter() - start
    for seed, b, c, h, ok in rows:
        print(f"  seed {seed}: baseline {100*b:.1f}%  cm+mv {100*c:.2f}%  hybrid+mv {100*h:.2f}%  {'ok' if ok else 'FAIL'}")
    assert passes >= 9, f"only {passes}/10 seeds satisfied the zero-day criterion"
    assert elapsed < 120.0, f"experiment took {elapsed:.1f}s"
    _pass(7, f"{passes}/10 seeds: baseline EER >= 40%, cm+mv@20 <= 10%, hybrid within 2 points ({elapsed:.1f}s)")


def test_criterion_8_ablation_machinery():
    def masked_evaluate(base, queries, mask, strategy, ensemble, k):
        masked, (masked_queries,) = apply_mask(base, [queries], mask, strategy)
        return evaluate(masked, masked_queries, strategy, ensemble, k)

    config = SynthConfig(seed=801, n_real=300, n_seen_fake=300, n_query_real=60, n_query_zeroday=60)
    entries, queries = generate(config)
    base = build(entries)

    plain_prof = evaluate(base, queries, RetrievalStrategy.PROFILE_ONLY, EnsembleStrategy.RATIO, 10)
    empty_masked = masked_evaluate(base, queries, AttributeMask(()), RetrievalStrategy.PROFILE_ONLY,
                                   EnsembleStrategy.RATIO, 10)
    assert empty_masked == plain_prof  # bit-exact dataclass equality

    plain_cm = evaluate(base, queries, RetrievalStrategy.CM_ONLY, EnsembleStrategy.RATIO, 10)
    all_but_age = AttributeMask({"gender", "emotion", "voice_quality"})
    prof_changed = masked_evaluate(base, queries, all_but_age, RetrievalStrategy.PROFILE_ONLY,
                                   EnsembleStrategy.RATIO, 10)
    cm_same = masked_evaluate(base, queries, all_but_age, RetrievalStrategy.CM_ONLY,
                              EnsembleStrategy.RATIO, 10)
    assert prof_changed != plain_prof, "masking all but age must change profile-only results"
    assert cm_same == plain_cm, "cm-only results must be bit-identical under any mask"
    _pass(8, "empty mask reproduces the unmasked report exactly; masks change prof-only but not cm-only")


def test_criterion_9_performance_at_scale():
    rng = np.random.default_rng(900)
    n, d_cm, n_queries, k = 100_000, 1024, 1000, 200
    cm = rng.standard_normal((n, d_cm), dtype=np.float32)
    prof = rng.standard_normal((n, 4), dtype=np.float32)
    base = from_arrays(
        ids=np.arange(n, dtype=np.uint64),
        labels=rng.integers(0, 2, size=n).astype(np.uint8),
        scores=rng.uniform(0.01, 0.99, size=n).astype(np.float32),
        cm_matrix=cm, prof_matrix=prof, layout=simple_layout(4),
    )
    queries = [
        QueryRecord(id=i, cm=rng.standard_normal(d_cm).astype(np.float32),
                    prof=np.ones(4, dtype=np.float32), score=0.5)
        for i in range(n_queries)
    ]

    start = time.perf_counter()
    results = retrieve_batch(base, queries, RetrievalStrategy.CM_ONLY, k, parallelism=8)
    batch_elapsed = time.perf_counter() - start
    assert len(results) == n_queries and all(len(ns) == k for ns in results)
    assert batch_elapsed <= 60.0, f"batch retrieval took {batch_elapsed:.1f}s"

    try:
        from threadpoolctl import threadpool_limits
        blas_threads = "single-threaded"
    except ImportError:  # without the [test] extra: default BLAS threads
        from contextlib import nullcontext

        def threadpool_limits(limits):
            return nullcontext()

        blas_threads = "BLAS threads not limited (threadpoolctl not installed)"
    with threadpool_limits(limits=1):
        single_start = time.perf_counter()
        ns = retrieve_batch(base, queries[:1], RetrievalStrategy.CM_ONLY, k)[0]
        single_elapsed = time.perf_counter() - single_start
    assert len(ns) == k
    assert single_elapsed <= 0.150, f"single query took {1000*single_elapsed:.1f} ms"
    _pass(9, f"batch {n_queries}x(n={n}, d={d_cm}) k={k}: {batch_elapsed:.1f}s; "
             f"single query {1000*single_elapsed:.1f} ms, {blas_threads}")
