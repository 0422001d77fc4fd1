"""Naive reference implementations used as oracles by the test suite.

Everything here is deliberately dumb and independent of the library's
vectorized code paths: per-row Python loops, exact fsum accumulation, and
full sorts. The conventions (tie rule, zero-norm sentinel, threshold sweep,
interpolation) are shared with the library contract; the mechanics are not.
"""

from __future__ import annotations

import math
from fractions import Fraction


def naive_cosine(a, b) -> float:
    dot = math.fsum(float(x) * float(y) for x, y in zip(a, b))
    na = math.sqrt(math.fsum(float(x) * float(x) for x in a))
    nb = math.sqrt(math.fsum(float(y) * float(y) for y in b))
    if na == 0.0 or nb == 0.0:
        return -1.0
    return dot / (na * nb)


def naive_top_k(matrix, query, k: int) -> list[tuple[int, float]]:
    """All-pairs cosine, full sort by (similarity desc, row index asc)."""
    sims = [(i, naive_cosine(row, query)) for i, row in enumerate(matrix)]
    sims.sort(key=lambda pair: (-pair[1], pair[0]))
    return sims[: min(k, len(sims))]


def naive_retrieve(cm_matrix, prof_matrix, q_cm, q_prof, strategy: str, k: int) -> list[tuple[int, float]]:
    """Reference for the three retrieval strategies, including the hybrid
    floor/ceil split, union dedup keeping the larger similarity, and the
    final (similarity desc, index asc) ordering."""
    if strategy == "cm":
        return naive_top_k(cm_matrix, q_cm, k)
    if strategy == "prof":
        return naive_top_k(prof_matrix, q_prof, k)
    assert strategy == "hybrid"
    half_cm = naive_top_k(cm_matrix, q_cm, k // 2)
    half_prof = naive_top_k(prof_matrix, q_prof, k - k // 2)
    merged: dict[int, float] = {}
    for i, s in half_cm + half_prof:
        if i not in merged or s > merged[i]:
            merged[i] = s
    out = sorted(merged.items(), key=lambda pair: (-pair[1], pair[0]))
    return out


def naive_ensemble(rule: str, labels, scores) -> float:
    """The three ensemble rules over one neighbor set, counted one by one:
    mv is 1.0 when fakes (label 1) outnumber reals, 0.0 when reals outnumber
    fakes and 0.5 on a tie; ratio is the fraction of fakes; avg is the exact
    rational sum of the scores, rounded once to float64, over the set size."""
    fakes = sum(1 for y in labels if y == 1)
    reals = sum(1 for y in labels if y == 0)
    if rule == "mv":
        return 1.0 if fakes > reals else 0.0 if reals > fakes else 0.5
    if rule == "ratio":
        return fakes / len(labels)
    assert rule == "avg"
    return float(sum(Fraction(s) for s in scores)) / len(scores)


def brute_force_eer(scores, labels) -> float:
    """Threshold-enumeration EER with explicit counting.

    Enumerates an operating point per distinct score (plus sentinels beyond
    both ends), counts FAR/miss by looping over samples, finds the adjacent
    pair where FAR - miss changes sign, and linearly interpolates the
    crossing. Score sets with at most two distinct values use the averaged
    (FAR + miss) / 2 rule at the threshold between the values.
    """
    real = [s for s, y in zip(scores, labels) if y == 0]
    fake = [s for s, y in zip(scores, labels) if y == 1]
    assert real and fake

    def far_at(tau: float) -> float:
        return sum(1 for s in real if s >= tau) / len(real)

    def miss_at(tau: float) -> float:
        return sum(1 for s in fake if s < tau) / len(fake)

    distinct = sorted(set(scores))
    if len(distinct) <= 2:
        tau = distinct[-1]
        return (far_at(tau) + miss_at(tau)) / 2.0

    taus = [distinct[0] - 1.0] + distinct + [distinct[-1] + 1.0]
    points = [(far_at(t), miss_at(t)) for t in taus]
    prev_far, prev_miss = points[0]
    for far, miss in points[1:]:
        prev_diff = prev_far - prev_miss
        diff = far - miss
        if prev_diff >= 0.0 and diff < 0.0:
            if prev_diff == 0.0:
                return prev_far
            t = prev_diff / (prev_diff - diff)
            return prev_far + t * (far - prev_far)
        prev_far, prev_miss = far, miss
    # FAR - miss goes from +1 to -1, so the loop can only fall through when
    # the final diff is exactly zero.
    return points[-1][0]
