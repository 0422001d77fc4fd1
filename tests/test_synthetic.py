from __future__ import annotations

import re
import tracemalloc
import warnings

import numpy as np
import pytest

from radd.ensemble import EnsembleStrategy
from radd.errors import InvalidConfigError, NonFiniteValueError
from radd.metrics import evaluate
from radd.retrieval import RetrievalStrategy
from radd.store import build
from radd.synthetic import SynthConfig, generate
from radd.types import DEFAULT_PROFILE_LAYOUT

from conftest import INVALID_CONFIGS

SMALL = dict(n_real=80, n_seen_fake=80, n_query_real=20, n_query_zeroday=20)


class TestConfig:
    def test_defaults_validate(self):
        SynthConfig(seed=1)

    @pytest.mark.parametrize("overrides, message", INVALID_CONFIGS)
    def test_invalid_configs(self, overrides, message):
        # A config is checked when it is made, so a bad one never exists.
        with pytest.raises(InvalidConfigError, match=f"^{re.escape(message)}$"):
            SynthConfig(seed=1, **overrides)

    @pytest.mark.parametrize("overrides, message", [
        ({"seed": "7"}, "seed must be an integer"),
        ({"seed": 1.5}, "seed must be an integer"),
        ({"seed": True}, "seed must be an integer"),
        ({"n_real": 1.5}, "n_real must be an integer"),
        ({"cluster_sep": "x"}, "cluster_sep must be a finite number"),
        ({"cluster_sep": False}, "cluster_sep must be a finite number"),
        ({"zeroday_shift": float("nan")}, "zeroday_shift must be a finite number"),
        ({"zeroday_shift": 10**400}, "zeroday_shift must be a finite number"),
        ({"score_miscalibration": None}, "score_miscalibration must be a finite number"),
    ])
    def test_mistyped_fields_rejected(self, overrides, message):
        with pytest.raises(InvalidConfigError, match=message):
            SynthConfig.from_dict({"seed": 1, **overrides})

    def test_numeric_types_accepted(self):
        config = SynthConfig.from_dict({"seed": np.uint64(3), "n_real": 5, "cluster_sep": 8, "zeroday_shift": 1.5})
        assert (config.seed, config.n_real, config.cluster_sep) == (3, 5, 8)

    @pytest.mark.parametrize("obj", [[1, 2], "x", None, 5, [{"seed": 1}]])
    def test_from_dict_rejects_non_objects(self, obj):
        with pytest.raises(InvalidConfigError, match="config must be a JSON object"):
            SynthConfig.from_dict(obj)

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(InvalidConfigError):
            SynthConfig.from_dict({"seed": 1, "bogus": 2})
        with pytest.raises(InvalidConfigError):
            SynthConfig.from_dict({})
        # Profiles always follow the default layout, so their width is not a field.
        with pytest.raises(InvalidConfigError, match=r"unknown config fields: \['d_prof'\]"):
            SynthConfig.from_dict({"seed": 1, "d_prof": 285})


class TestGenerate:
    def test_deterministic_for_fixed_seed(self):
        config = SynthConfig(seed=42, **SMALL)
        e1, q1 = generate(config)
        e2, q2 = generate(config)
        assert len(e1) == len(e2) == 160
        for a, b in zip(e1, e2):
            assert a.id == b.id and a.label == b.label and a.score == b.score
            assert a.cm.tobytes() == b.cm.tobytes()
            assert a.prof.tobytes() == b.prof.tobytes()
        for a, b in zip(q1, q2):
            assert a.score == b.score and a.cm.tobytes() == b.cm.tobytes()

    def test_different_seeds_differ(self):
        e1, _ = generate(SynthConfig(seed=1, **SMALL))
        e2, _ = generate(SynthConfig(seed=2, **SMALL))
        assert e1[0].cm.tobytes() != e2[0].cm.tobytes()

    def test_counts_and_labels(self):
        entries, queries = generate(SynthConfig(seed=3, **SMALL))
        assert [e.label for e in entries] == [0] * 80 + [1] * 80
        assert [q.label for q in queries] == [0] * 20 + [1] * 20
        assert [e.id for e in entries] == list(range(160))

    def test_scores_strictly_inside_unit_interval(self):
        entries, queries = generate(SynthConfig(seed=4, **SMALL))
        for item in list(entries) + list(queries):
            assert 0.0 < item.score < 1.0

    def test_profiles_validate_against_default_layout(self):
        entries, queries = generate(SynthConfig(seed=5, **SMALL))
        for item in list(entries)[:10] + list(queries)[:10]:
            assert item.prof.shape == (DEFAULT_PROFILE_LAYOUT.total_dim,)

    def test_profile_attribute_supports(self):
        entries, _ = generate(SynthConfig(seed=6, **SMALL))
        spans = DEFAULT_PROFILE_LAYOUT.spans()
        for e in entries[:50]:
            age = e.prof[spans["age"][0]]
            assert age == int(age) and 0 <= age <= 10
            gender = e.prof[spans["gender"][0] : spans["gender"][1]]
            assert sorted(gender.tolist()) == [0.0, 1.0]
            emotion = e.prof[spans["emotion"][0] : spans["emotion"][1]]
            trait, embedding = emotion[0], emotion[1:]
            assert trait == int(trait) and 0 <= trait <= 7
            assert np.linalg.norm(embedding) == pytest.approx(1.0, abs=1e-5)
            vq = e.prof[spans["voice_quality"][0] : spans["voice_quality"][1]]
            assert vq.min() >= 0.0 and vq.max() <= 1.0

    def test_no_miscalibration_means_seen_rule(self):
        # zero-day scores follow the plain logistic rule, so they separate
        # from real queries as cleanly as the seen data does
        entries, queries = generate(SynthConfig(seed=7, score_miscalibration=0.0, **SMALL))
        zd = [q.score for q in queries if q.label == 1]
        real = [q.score for q in queries if q.label == 0]
        assert min(zd) > max(real)

    def test_full_miscalibration_mirrors_scores(self):
        _, queries = generate(SynthConfig(seed=8, score_miscalibration=1.0, **SMALL))
        zd = np.array([q.score for q in queries if q.label == 1])
        real = np.array([q.score for q in queries if q.label == 0])
        # fooled detector: zero-day scores sit in the real score range
        assert np.median(zd) < 0.5
        assert abs(np.median(zd) - np.median(real)) < 0.2

    def test_zero_shift_collapses_onto_seen_fakes(self):
        config = SynthConfig(seed=9, zeroday_shift=0.0, **SMALL)
        entries, queries = generate(config)
        base = build(entries)
        for k in (1, 5, 20):
            report = evaluate(base, queries, RetrievalStrategy.CM_ONLY,
                              EnsembleStrategy.MAJORITY_VOTE, k)
            assert report.eer == 0.0
            assert report.accuracy == 1.0

    def test_baseline_collapses_at_full_miscalibration(self):
        config = SynthConfig(seed=10, score_miscalibration=1.0, **SMALL)
        entries, queries = generate(config)
        base = build(entries)
        baseline = evaluate(base, queries, None, None, 0)
        # raw scores predict "real" for everything: accuracy equals the
        # real-query fraction of the mixture, and EER sits near chance
        assert baseline.accuracy == pytest.approx(0.5, abs=0.1)
        assert baseline.eer >= 0.35

    def test_failing_row_raises_its_record_error_without_warnings(self):
        # cluster_sep 1e39 puts every center past the float32 range: the
        # first knowledge row is rebuilt through KnowledgeEntry, which raises
        # the error a record-by-record build meets first, and numpy's cast
        # and matmul warnings about the inf and NaN values stay silent.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteValueError, match=r"^cm has non-finite value at index 2$") as info:
                generate(SynthConfig(seed=0, cluster_sep=1e39, **SMALL))
        assert info.value.index == 2


def test_generate_and_build_peak_memory():
    # generate + build at 20,000 knowledge rows (seed 7, d_cm 16, d_prof
    # 285; 23.21 MiB of base arrays). Run alone in a fresh process, the
    # tracemalloc peak was 67.25 MiB (2.897x the arrays) with one block per
    # cluster, profiles stacked in float64 and build stacking the rows, and
    # 63.21 MiB (2.723x) with one float32 block per record set, each profile
    # part cast straight into its columns, and build filling preallocated
    # columns; there the float64 (n, 256) emotion-embedding draw and the
    # temporary of the same size inside np.linalg.norm set the peak. With the
    # embedding drawn 4,096 rows at a time, generate alone peaks at 40.09
    # MiB, and build copying the rows set the peak: 55.93 MiB (2.409x), the
    # records plus the base arrays. build now shares the blocks of the
    # unchanged list, so generate sets the peak: 40.09 MiB (1.727x).
    config = SynthConfig(seed=7, n_real=10_000, n_seen_fake=10_000, n_query_real=1, n_query_zeroday=1)
    tracemalloc.start()
    try:
        entries, _ = generate(config)
        base = build(entries)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = sum(a.nbytes for a in (base.ids, base.labels, base.scores, base.cm_matrix, base.prof_matrix))
    assert base.n == 20_000
    assert peak <= 1.75 * arrays, f"peak {peak / arrays:.3f}x the arrays"
