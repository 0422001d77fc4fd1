from __future__ import annotations

import numpy as np
import pytest

import radd.ablation as ablation
from radd.ablation import AttributeMask, apply_mask, mask_base, mask_queries
from radd.ensemble import EnsembleStrategy
from radd.errors import AllAttributesExcludedError, DimensionMismatchError, UnknownAttributeError
from radd.metrics import evaluate
from radd.retrieval import RetrievalStrategy, retrieve_batch
from radd.store import build, from_arrays
from radd.synthetic import SynthConfig, generate
from radd.types import DEFAULT_PROFILE_LAYOUT, ProfileLayout, QueryRecord


@pytest.fixture(scope="module")
def synth_world():
    config = SynthConfig(seed=11, n_real=120, n_seen_fake=120, n_query_real=30, n_query_zeroday=30)
    entries, queries = generate(config)
    return build(entries), queries


def profile_query(prof) -> QueryRecord:
    return QueryRecord(id=3, cm=[1.0, 0.0], prof=prof, score=0.5, label=1)


def masked_evaluate(base, queries, mask, strategy, ensemble, k):
    """One ablation run: apply_mask, then evaluate."""
    masked, (masked_queries,) = apply_mask(base, [queries], mask, strategy)
    return evaluate(masked, masked_queries, strategy, ensemble, k)


def mask_one(prof, layout, mask):
    """The masked profile of a single query carrying *prof*."""
    (out,) = mask_queries([profile_query(prof)], layout, mask)
    return out.prof


class TestApplyMask:
    """Masking through mask_queries and mask_base: both check the mask once
    per call and cut the same columns."""

    def test_exclude_voice_quality(self, rng):
        v = rng.standard_normal(285).astype(np.float32)
        out = mask_one(v, DEFAULT_PROFILE_LAYOUT, AttributeMask({"voice_quality"}))
        assert out.shape == (260,)
        np.testing.assert_array_equal(out, v[:260])

    def test_exclude_age_and_gender(self, synth_world):
        base, queries = synth_world
        mask = AttributeMask({"age", "gender"})
        masked = mask_base(base, mask)
        assert masked.d_prof == 282
        assert masked.layout == ProfileLayout((("emotion", 257), ("voice_quality", 25)))
        np.testing.assert_array_equal(masked.prof_matrix, base.prof_matrix[:, 3:])
        (mq,) = mask_queries(queries[:1], base.layout, mask)
        np.testing.assert_array_equal(mq.prof, queries[0].prof[3:])
        assert (mq.id, mq.label, mq.score, mq.cm.tobytes()) == (
            queries[0].id, queries[0].label, queries[0].score, queries[0].cm.tobytes())

    def test_empty_mask_is_identity(self, rng, synth_world):
        v = rng.standard_normal(285).astype(np.float32)
        out = mask_one(v, DEFAULT_PROFILE_LAYOUT, AttributeMask(()))
        assert out.shape == (285,)
        np.testing.assert_array_equal(out, v)
        base, _ = synth_world
        masked = mask_base(base, AttributeMask(()))
        assert masked.layout == base.layout
        assert masked.prof_matrix.tobytes() == base.prof_matrix.tobytes()

    def test_empty_mask_returns_base_itself(self, synth_world):
        base, _ = synth_world
        assert mask_base(base, AttributeMask()) is base

    def test_middle_exclusion_preserves_order(self):
        layout = ProfileLayout((("a", 2), ("b", 3), ("c", 1)))
        out = mask_one(np.arange(6, dtype=np.float32), layout, AttributeMask({"b"}))
        assert out.tolist() == [0.0, 1.0, 5.0]
        base = from_arrays([0, 1], [0, 1], [0.5, 0.5], np.ones((2, 2)),
                           np.arange(12, dtype=np.float32).reshape(2, 6), layout)
        masked = mask_base(base, AttributeMask({"b"}))
        assert masked.layout == ProfileLayout((("a", 2), ("c", 1)))
        assert masked.prof_matrix.tolist() == [[0.0, 1.0, 5.0], [6.0, 7.0, 11.0]]

    def test_unknown_attribute(self, synth_world):
        base, queries = synth_world
        mask = AttributeMask({"pitch"})
        with pytest.raises(UnknownAttributeError):
            mask_queries(queries, DEFAULT_PROFILE_LAYOUT, mask)
        with pytest.raises(UnknownAttributeError):
            mask_base(base, mask)

    def test_all_attributes_excluded(self, synth_world):
        base, queries = synth_world
        mask = AttributeMask({"age", "gender", "emotion", "voice_quality"})
        with pytest.raises(AllAttributesExcludedError):
            mask_queries(queries, DEFAULT_PROFILE_LAYOUT, mask)
        with pytest.raises(AllAttributesExcludedError):
            mask_base(base, mask)

    def test_wrong_input_dim(self):
        with pytest.raises(DimensionMismatchError, match="query 3"):
            mask_queries([profile_query(np.ones(10))], DEFAULT_PROFILE_LAYOUT, AttributeMask(()))

    def test_projection_idempotent(self, synth_world):
        base, queries = synth_world
        mask = AttributeMask({"emotion"})
        reduced = mask_base(base, mask)
        reduced_qs = mask_queries(queries, base.layout, mask)
        again = mask_base(reduced, AttributeMask(()))
        again_qs = mask_queries(reduced_qs, reduced.layout, AttributeMask(()))
        assert again.layout == reduced.layout
        np.testing.assert_array_equal(again.prof_matrix, reduced.prof_matrix)
        for a, b in zip(reduced_qs, again_qs):
            np.testing.assert_array_equal(a.prof, b.prof)


class TestMaskedRetrieval:
    def test_asymmetric_masking_fails_at_retrieval(self, synth_world):
        base, queries = synth_world
        masked = mask_base(base, AttributeMask({"voice_quality"}))
        with pytest.raises(DimensionMismatchError):
            retrieve_batch(masked, [queries[0]], RetrievalStrategy.PROFILE_ONLY, 3)

    def test_empty_mask_neighbors_identical(self, synth_world):
        base, queries = synth_world
        masked = mask_base(base, AttributeMask(()))
        masked_qs = mask_queries(queries, base.layout, AttributeMask(()))
        for q, mq in zip(queries[:10], masked_qs[:10]):
            a = retrieve_batch(base, [q], RetrievalStrategy.PROFILE_ONLY, 7)[0]
            b = retrieve_batch(masked, [mq], RetrievalStrategy.PROFILE_ONLY, 7)[0]
            assert a.indices.tolist() == b.indices.tolist()
            assert a.similarities.tobytes() == b.similarities.tobytes()


class TestAblationRun:
    def test_empty_mask_matches_plain_evaluate(self, synth_world):
        base, queries = synth_world
        plain = evaluate(base, queries, RetrievalStrategy.HYBRID, EnsembleStrategy.RATIO, 10)
        masked = masked_evaluate(base, queries, AttributeMask(()), RetrievalStrategy.HYBRID,
                                 EnsembleStrategy.RATIO, 10)
        assert masked == plain

    def test_cm_only_invariant_under_any_mask(self, synth_world):
        base, queries = synth_world
        plain = evaluate(base, queries, RetrievalStrategy.CM_ONLY, EnsembleStrategy.RATIO, 10)
        for excluded in ({"age"}, {"voice_quality"}, {"age", "gender", "emotion"}):
            report = masked_evaluate(base, queries, AttributeMask(excluded), RetrievalStrategy.CM_ONLY,
                                     EnsembleStrategy.RATIO, 10)
            assert report == plain

    def test_cm_only_mask_warns(self, synth_world, caplog):
        base, queries = synth_world
        with caplog.at_level("WARNING", logger="radd.ablation"):
            masked_evaluate(base, queries, AttributeMask({"age"}), RetrievalStrategy.CM_ONLY,
                            EnsembleStrategy.RATIO, 5)
        assert any("no effect" in rec.message for rec in caplog.records)

    def test_masking_changes_profile_retrieval(self, synth_world):
        base, queries = synth_world
        # voice quality carries the class signal in the synthetic world, so
        # stripping everything else changes neighbor sets but keeps quality,
        # while stripping voice quality degrades it
        full = evaluate(base, queries, RetrievalStrategy.PROFILE_ONLY, EnsembleStrategy.RATIO, 10)
        gutted = masked_evaluate(base, queries, AttributeMask({"voice_quality"}),
                                 RetrievalStrategy.PROFILE_ONLY, EnsembleStrategy.RATIO, 10)
        assert gutted != full

    def test_empty_mask_returns_the_same_objects(self, synth_world):
        base, queries = synth_world
        out_base, (out_queries,) = apply_mask(base, [queries], AttributeMask(), RetrievalStrategy.HYBRID)
        assert out_base is base
        assert all(a is b for a, b in zip(out_queries, queries, strict=True))

    def test_masks_every_query_set_from_one_masked_base(self, synth_world, monkeypatch):
        base, queries = synth_world
        calls = []
        monkeypatch.setattr(ablation, "mask_base", lambda b, m: calls.append(m) or mask_base(b, m))
        mask = AttributeMask({"emotion"})
        out_base, out_sets = apply_mask(base, [queries[:7], queries[7:]], mask, RetrievalStrategy.PROFILE_ONLY)
        assert calls == [mask]
        assert out_base.layout == ProfileLayout((("age", 1), ("gender", 2), ("voice_quality", 25)))
        assert [len(qs) for qs in out_sets] == [7, len(queries) - 7]
        for masked, q in zip(out_sets[0] + out_sets[1], queries, strict=True):
            np.testing.assert_array_equal(masked.prof, np.concatenate([q.prof[:3], q.prof[260:]]))

    def test_mask_label(self):
        assert AttributeMask(()).label() == "full"
        assert AttributeMask({"age", "gender"}).label() == "w/o age+gender"
