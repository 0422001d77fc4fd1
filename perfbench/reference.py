"""Float64 references for the benchmark's output check.

They follow the conventions of the oracles in ``tests/reference.py`` (exact
cosine in float64, -1.0 for a zero-norm vector on either side, ranking by
similarity descending then row ascending, hybrid = floor(k/2) CM rows plus
ceil(k/2) profile rows with duplicates keeping the larger similarity,
brute-force threshold enumeration for EER) but are vectorized so that they
can score every query of a workload in a few seconds. They share no code
with ``radd``.
"""

from __future__ import annotations

import math

import numpy as np

# Similarities held at once while ranking: 2**24 float64 values (128 MB).
_BLOCK_VALUES = 1 << 24


def _cosine_block(rows32: np.ndarray, q64: np.ndarray, qnorms: np.ndarray) -> np.ndarray:
    """(b, r) float64 cosine similarities of b queries against r rows."""
    rows64 = np.asarray(rows32, dtype=np.float64)
    rnorms = np.sqrt(np.einsum("ij,ij->i", rows64, rows64))
    sims = q64 @ rows64.T
    sims /= np.multiply.outer(np.where(qnorms == 0.0, 1.0, qnorms), np.where(rnorms == 0.0, 1.0, rnorms))
    sims[:, rnorms == 0.0] = -1.0
    sims[qnorms == 0.0, :] = -1.0
    return sims


def _first_k(neg: np.ndarray, k: int) -> np.ndarray:
    """Boolean mask of the k smallest values per row of *neg*, ties going to
    the leftmost columns. Exactly k entries per row are set."""
    kth = np.partition(neg, k - 1, axis=1)[:, k - 1]
    keep = neg <= kth[:, None]
    for r in np.flatnonzero(keep.sum(axis=1) > k):  # ties at the k-th value
        tied = np.flatnonzero(neg[r] == kth[r])
        keep[r, tied[k - np.count_nonzero(neg[r] < kth[r]) :]] = False
    return keep


def rank(matrix: np.ndarray, queries: np.ndarray, k: int, full_sort: bool = False):
    """Exact top-k rows of *matrix* for every query row.

    Returns ``(indices, similarities)``, both (b, min(k, n)), each row
    ordered by (similarity desc, row asc). With ``full_sort`` every
    similarity of a query is kept and stably sorted (the oracle); otherwise
    each row block keeps only its own exact top k before the final sort,
    which gives the same answer because the ranking is a total order.
    """
    q64 = np.asarray(queries, dtype=np.float64)
    qnorms = np.sqrt(np.einsum("ij,ij->i", q64, q64))
    n = matrix.shape[0]
    k = min(k, n)
    step = max(k, _BLOCK_VALUES // max(1, q64.shape[0]))
    idx_parts, sim_parts = [], []
    for r0 in range(0, n, step):
        sims = _cosine_block(matrix[r0 : r0 + step], q64, qnorms)
        cols = np.broadcast_to(np.arange(r0, r0 + sims.shape[1]), sims.shape)
        if not full_sort and sims.shape[1] > k:
            keep = _first_k(-sims, k)
            sims = sims[keep].reshape(-1, k)
            cols = cols[keep].reshape(-1, k)
        idx_parts.append(cols)
        sim_parts.append(sims)
    idx = np.concatenate(idx_parts, axis=1)  # ascending row order in every query row
    sim = np.concatenate(sim_parts, axis=1)
    order = np.argsort(-sim, axis=1, kind="stable")[:, :k]
    return np.take_along_axis(idx, order, axis=1), np.take_along_axis(sim, order, axis=1)


def hybrid(cm_ranked, prof_ranked, k: int) -> list[np.ndarray]:
    """Hybrid neighbour lists from per-space rankings of at least ceil(k/2)
    rows: the first floor(k/2) CM rows and ceil(k/2) profile rows, a row
    found twice keeping its larger similarity, ordered by (similarity desc,
    row asc)."""
    (cm_idx, cm_sim), (prof_idx, prof_sim) = cm_ranked, prof_ranked
    k_cm, k_prof = k // 2, k - k // 2
    out = []
    for q in range(cm_idx.shape[0]):
        merged: dict[int, float] = {}
        for i, s in zip(
            np.concatenate([cm_idx[q, :k_cm], prof_idx[q, :k_prof]]).tolist(),
            np.concatenate([cm_sim[q, :k_cm], prof_sim[q, :k_prof]]).tolist(),
        ):
            if i not in merged or s > merged[i]:
                merged[i] = s
        out.append(np.array(sorted(merged, key=lambda i: (-merged[i], i)), dtype=np.int64))
    return out


def ensemble(rule: str, labels: np.ndarray, scores32: np.ndarray, neighbours) -> np.ndarray:
    """Per-query prediction scores for rule mv, ratio or avg."""
    out = np.empty(len(neighbours), dtype=np.float64)
    for q, idx in enumerate(neighbours):
        fakes = int(labels[idx].sum())
        if rule == "mv":
            reals = len(idx) - fakes
            out[q] = 1.0 if fakes > reals else 0.0 if reals > fakes else 0.5
        elif rule == "ratio":
            out[q] = fakes / len(idx)
        else:
            out[q] = math.fsum(float(s) for s in scores32[idx]) / len(idx)
    return out


def accuracy(scores: np.ndarray, labels: np.ndarray) -> float:
    """Share of decisions (score >= 0.5 means fake) that match the label."""
    return int(np.count_nonzero((scores >= 0.5).astype(np.int64) == labels)) / len(labels)


def eer(scores: np.ndarray, labels: np.ndarray) -> float | None:
    """Equal error rate by threshold enumeration: one operating point per
    distinct score plus sentinels beyond both ends, each counted against
    every sample; the first sign change of FAR - miss is interpolated.
    At most two distinct scores use (FAR + miss) / 2 at the upper value.
    None when a class is missing."""
    real = scores[labels == 0]
    fake = scores[labels == 1]
    if real.size == 0 or fake.size == 0:
        return None
    distinct = np.unique(scores)
    if distinct.size <= 2:
        taus = distinct[-1:]
    else:
        taus = np.concatenate([[distinct[0] - 1.0], distinct, [distinct[-1] + 1.0]])
    far = np.count_nonzero(real[None, :] >= taus[:, None], axis=1) / real.size
    miss = np.count_nonzero(fake[None, :] < taus[:, None], axis=1) / fake.size
    if distinct.size <= 2:
        return float((far[0] + miss[0]) / 2.0)
    diff = far - miss
    crossings = np.flatnonzero((diff[:-1] >= 0.0) & (diff[1:] < 0.0))
    if crossings.size == 0:
        return float(far[-1])
    i = int(crossings[0])
    if diff[i] == 0.0:
        return float(far[i])
    t = diff[i] / (diff[i] - diff[i + 1])
    return float(far[i] + t * (far[i + 1] - far[i]))


def report(scores: np.ndarray, labels: np.ndarray) -> dict:
    """The fields of radd's report.json that the data determines."""
    return {
        "eer": eer(scores, labels),
        "accuracy": accuracy(scores, labels),
        "n_real": int(np.count_nonzero(labels == 0)),
        "n_fake": int(np.count_nonzero(labels == 1)),
    }
