from __future__ import annotations

import numpy as np
import pytest

from radd import retrieval
from radd.store import KnowledgeBase, from_arrays
from radd.types import ProfileLayout, QueryRecord


def simple_layout(d_prof: int) -> ProfileLayout:
    return ProfileLayout((("p", d_prof),))


def random_base(
    rng: np.random.Generator,
    n: int,
    d_cm: int,
    d_prof: int = 4,
    tie_heavy: bool = False,
    zero_rows: int = 0,
) -> KnowledgeBase:
    """Random base for property tests. ``tie_heavy`` draws features from a
    tiny integer grid so exact duplicate rows (hence exact similarity ties)
    are common; ``zero_rows`` zeroes out that many rows in both spaces."""
    if tie_heavy:
        cm = rng.integers(-1, 3, size=(n, d_cm)).astype(np.float32)
        prof = rng.integers(-1, 3, size=(n, d_prof)).astype(np.float32)
    else:
        cm = rng.standard_normal((n, d_cm)).astype(np.float32)
        prof = rng.standard_normal((n, d_prof)).astype(np.float32)
    for i in range(min(zero_rows, n)):
        row = int(rng.integers(0, n))
        cm[row] = 0.0
        prof[row] = 0.0
    return from_arrays(
        ids=np.arange(n, dtype=np.uint64),
        labels=rng.integers(0, 2, size=n).astype(np.uint8),
        scores=rng.uniform(0.01, 0.99, size=n).astype(np.float32),
        cm_matrix=cm,
        prof_matrix=prof,
        layout=simple_layout(d_prof),
    )


def random_query(
    rng: np.random.Generator, qid: int, d_cm: int, d_prof: int = 4, tie_heavy: bool = False
) -> QueryRecord:
    if tie_heavy:
        cm = rng.integers(-1, 3, size=d_cm).astype(np.float32)
        prof = rng.integers(-1, 3, size=d_prof).astype(np.float32)
    else:
        cm = rng.standard_normal(d_cm).astype(np.float32)
        prof = rng.standard_normal(d_prof).astype(np.float32)
    return QueryRecord(
        id=qid, cm=cm, prof=prof, score=float(rng.uniform(0.02, 0.98)),
        label=int(rng.integers(0, 2)),
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def ranked_blocks(monkeypatch) -> list[str]:
    """The space of every retrieval._rank_block call made in the test."""
    calls: list[str] = []
    block = retrieval._rank_block

    def counting_block(base, space, queries, k):
        calls.append(space)
        return block(base, space, queries, k)

    monkeypatch.setattr(retrieval, "_rank_block", counting_block)
    return calls


# A k grid for prefix tests over a base of TIE_HEAVY_N rows: unsorted, with
# odd k, a repeated k, k == n and k > n.
TIE_HEAVY_N = 37
TIE_HEAVY_GRID = (9, 2, 17, 9, TIE_HEAVY_N, 3, TIE_HEAVY_N + 5, 4)


def tie_heavy_world(seed: int, n_queries: int = 133) -> tuple[KnowledgeBase, list[QueryRecord]]:
    """A tie-heavy base of TIE_HEAVY_N rows (some all-zero) and tie-heavy
    queries, the first with a zero CM vector and the second with a zero
    profile vector."""
    rng = np.random.default_rng(seed)
    base = random_base(rng, TIE_HEAVY_N, 3, d_prof=3, tie_heavy=True, zero_rows=4)
    queries = [random_query(rng, i, 3, 3, tie_heavy=True) for i in range(n_queries)]
    queries[0] = QueryRecord(id=0, cm=np.zeros(3), prof=queries[0].prof, score=0.5, label=1)
    queries[1] = QueryRecord(id=1, cm=queries[1].cm, prof=np.zeros(3), score=0.5, label=0)
    return base, queries
