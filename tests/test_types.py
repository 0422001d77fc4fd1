from __future__ import annotations

import json
import re

import numpy as np
import pytest

from radd.errors import (
    InvalidIdError,
    InvalidLabelError,
    InvalidLayoutError,
    NonFiniteValueError,
    ParseError,
    ScoreOutOfRangeError,
)
from radd.retrieval import NeighborSet
from radd.types import (
    DEFAULT_PROFILE_LAYOUT,
    KnowledgeEntry,
    ProfileLayout,
    QueryRecord,
    as_feature_vector,
)


class TestValidateVector:
    """Record vectors are validated by as_feature_vector."""

    def test_well_formed(self):
        v = as_feature_vector([1.0, 2.0])
        assert v.dtype == np.float32
        assert v.tolist() == [1.0, 2.0]

    def test_nan_reports_index(self):
        with pytest.raises(NonFiniteValueError) as exc_info:
            as_feature_vector([float("nan"), 0.0])
        assert exc_info.value.index == 0

    def test_inf_rejected(self):
        with pytest.raises(NonFiniteValueError) as exc_info:
            as_feature_vector([0.0, float("inf")])
        assert exc_info.value.index == 1

    def test_float32_overflow_rejected(self):
        # 1e39 is finite in float64 but infinite once stored as float32
        with pytest.raises(NonFiniteValueError):
            as_feature_vector([1e39, 0.0])

    def test_result_is_read_only(self):
        v = as_feature_vector([1.0, 2.0])
        with pytest.raises(ValueError):
            v[0] = 3.0

    @pytest.mark.parametrize("values", [[{"a": 1}, 1.0], ["x", 1.0], [[1.0, 2.0], 1.0], [10**400, 1.0], {"a": 1}])
    def test_non_numbers_are_a_radd_error(self, values):
        with pytest.raises(NonFiniteValueError, match="cm must hold only numbers"):
            as_feature_vector(values, "cm")

    @pytest.mark.parametrize("values, index", [
        (["1.5", 1.0], 0),
        ([1.0, True], 1),
        ([1, 2.0, np.False_], 2),
        (np.array([True, False]), 0),
        (np.array(["1.5", "2"]), 0),
        (np.array([1.0, "2"], dtype=object), 1),
    ])
    def test_strings_and_booleans_are_not_coerced(self, values, index):
        with pytest.raises(NonFiniteValueError, match="cm must hold only numbers") as exc_info:
            as_feature_vector(values, "cm")
        assert exc_info.value.index == index

    @pytest.mark.parametrize("values", [
        [1, 2.5], (1.0, -2.0), [np.float32(1.5), np.int64(2), np.float64(3.0)],
        np.array([1, 2], dtype=np.int16), np.array([1.5, 2.0], dtype=np.float64), np.array([3], dtype=np.uint8),
    ])
    def test_numbers_of_every_kind_accepted(self, values):
        assert as_feature_vector(values).tolist() == [float(np.float32(x)) for x in values]

    def test_does_not_freeze_caller_array(self):
        arr = np.array([1.0, 2.0], dtype=np.float32)
        as_feature_vector(arr)
        arr[0] = 9.0  # caller's array must stay writable


class TestProfileLayout:
    @pytest.mark.parametrize("attributes", [
        (("a", 2.7),), (("a", True),), (("a", "3"),), (("a", 3.0),), ((1, 2),), ((b"a", 2),), (("a", 1), (None, 2)),
    ])
    def test_no_coercion(self, attributes):
        with pytest.raises(InvalidLayoutError):
            ProfileLayout(attributes)

    def test_numpy_integer_widths_accepted(self):
        layout = ProfileLayout((("a", np.int64(2)), ("b", np.uint8(3))))
        assert layout.attributes == (("a", 2), ("b", 3))
        assert all(type(w) is int for _, w in layout.attributes)
        assert layout == ProfileLayout((("a", 2), ("b", 3)))

    def test_default_dims(self):
        assert DEFAULT_PROFILE_LAYOUT.total_dim == 285

    def test_default_spans(self):
        spans = DEFAULT_PROFILE_LAYOUT.spans()
        assert spans["age"] == (0, 1)
        assert spans["gender"] == (1, 3)
        assert spans["emotion"] == (3, 260)
        assert spans["voice_quality"] == (260, 285)

    def test_single_attribute(self):
        assert ProfileLayout((("voice_quality", 25),)).total_dim == 25

    def test_empty_layout_rejected(self):
        with pytest.raises(InvalidLayoutError):
            ProfileLayout(())

    def test_zero_width_rejected(self):
        with pytest.raises(InvalidLayoutError):
            ProfileLayout((("age", 0),))

    def test_duplicate_names_rejected(self):
        with pytest.raises(InvalidLayoutError):
            ProfileLayout((("a", 1), ("a", 2)))

    def test_spans_partition_every_index(self):
        # every index in [0, total) is owned by exactly one attribute
        layout = ProfileLayout((("a", 3), ("b", 1), ("c", 7)))
        owners = {}
        for name, (start, stop) in layout.spans().items():
            for j in range(start, stop):
                assert j not in owners
                owners[j] = name
        assert sorted(owners) == list(range(layout.total_dim))

    def test_descriptor_round_trip(self):
        desc = DEFAULT_PROFILE_LAYOUT.to_descriptor()
        assert desc == "age:1,gender:2,emotion:257,voice_quality:25"
        assert ProfileLayout.from_descriptor(desc) == DEFAULT_PROFILE_LAYOUT
        assert ProfileLayout.from_descriptor("a:007").attributes == (("a", 7),)  # leading zeros are digits

    def test_bad_descriptor(self):
        with pytest.raises(InvalidLayoutError):
            ProfileLayout.from_descriptor("age=1")
        with pytest.raises(InvalidLayoutError):
            ProfileLayout.from_descriptor("age:x")

    @pytest.mark.parametrize("width", ["+1", "1_0", " 1", "1 ", "\u0665", "\uff11", "", "1.0", "0b1"])
    def test_width_is_ascii_digits(self, width):
        # int() reads all but the last three of these.
        message = f"bad span width in 'b:{width}': not an integer in ASCII digits"
        with pytest.raises(InvalidLayoutError, match=re.escape(message)):
            ProfileLayout.from_descriptor(f"a:1,b:{width}")

    def test_negative_width_is_named_by_the_range_check(self):
        with pytest.raises(InvalidLayoutError, match="must have an integer width >= 1, got -1"):
            ProfileLayout.from_descriptor("a:-1")

    @pytest.mark.parametrize("layout", [
        DEFAULT_PROFILE_LAYOUT, ProfileLayout(((" padded ", 3), ("two words", 10), ("\u0665", 1))),
    ])
    def test_every_written_descriptor_reads_back(self, layout):
        assert ProfileLayout.from_descriptor(layout.to_descriptor()) == layout


class TestLabelAndScore:
    """The label and score checks, reached through the record types."""

    @staticmethod
    def score_of(value) -> float:
        return QueryRecord(id=0, cm=[1.0], prof=[1.0], score=value).score

    def test_labels_accept_only_literal_01(self):
        assert KnowledgeEntry(id=0, cm=[1.0], prof=[1.0], label=0, score=0.5).label == 0
        assert KnowledgeEntry(id=0, cm=[1.0], prof=[1.0], label=1, score=0.5).label == 1
        for bad in (2, -1, 0.0, 1.0, "1", True, False, None):
            with pytest.raises(InvalidLabelError):
                KnowledgeEntry(id=0, cm=[1.0], prof=[1.0], label=bad, score=0.5)
            if bad is not None:  # a query's label is optional
                with pytest.raises(InvalidLabelError):
                    QueryRecord(id=0, cm=[1.0], prof=[1.0], label=bad, score=0.5)

    def test_score_open_interval(self):
        assert self.score_of(0.5) == 0.5
        for bad in (0.0, 1.0, -0.1, 1.1, float("nan")):
            with pytest.raises(ScoreOutOfRangeError):
                self.score_of(bad)

    def test_score_rejected_if_float32_rounds_to_boundary(self):
        # strictly below 1.0 in float64 but rounds to 1.0 as float32
        with pytest.raises(ScoreOutOfRangeError):
            self.score_of(1.0 - 1e-12)
        with pytest.raises(ScoreOutOfRangeError):
            self.score_of(1e-60)  # underflows to 0.0 in float32

    @pytest.mark.parametrize("bad", ["0.5", True, None, [0.5], {"s": 0.5}, pytest.param(10**400, id="10**400")])
    def test_score_must_be_a_real_number(self, bad):
        with pytest.raises(ScoreOutOfRangeError):
            KnowledgeEntry(id=0, cm=[1.0], prof=[1.0], label=0, score=bad)
        with pytest.raises(ScoreOutOfRangeError):
            QueryRecord(id=0, cm=[1.0], prof=[1.0], score=bad)

    def test_numpy_scores_accepted(self):
        assert self.score_of(np.float32(0.25)) == 0.25
        assert self.score_of(np.float64(0.75)) == 0.75

    def test_score_is_float32_exact(self):
        s = self.score_of(0.93)
        assert s == float(np.float32(0.93))


class TestRecords:
    def test_entry_construction(self):
        e = KnowledgeEntry(id=7, cm=[1.0, 2.0], prof=[0.5] * 285, label=1, score=0.93)
        assert e.cm.shape == (2,) and e.prof.shape == (285,)
        assert e.meta is None

    def test_query_label_optional(self):
        q = QueryRecord(id=0, cm=[1.0], prof=[1.0], score=0.4)
        assert q.label is None
        q2 = QueryRecord(id=0, cm=[1.0], prof=[1.0], score=0.4, label=1)
        assert q2.label == 1

    def test_entry_rejects_bad_payload(self):
        with pytest.raises(InvalidLabelError):
            KnowledgeEntry(id=1, cm=[1.0], prof=[1.0], label=2, score=0.5)
        with pytest.raises(ScoreOutOfRangeError):
            KnowledgeEntry(id=1, cm=[1.0], prof=[1.0], label=1, score=1.0)
        with pytest.raises(NonFiniteValueError):
            KnowledgeEntry(id=1, cm=[float("nan")], prof=[1.0], label=1, score=0.5)
        with pytest.raises(InvalidIdError):
            KnowledgeEntry(id=-1, cm=[1.0], prof=[1.0], label=1, score=0.5)

    def test_meta_must_be_a_string(self):
        assert KnowledgeEntry(id=1, cm=[1.0], prof=[1.0], label=1, score=0.5, meta="tag").meta == "tag"
        for bad in (5, ["tag"], {"a": "b"}, True):
            with pytest.raises(ParseError, match="meta"):
                KnowledgeEntry(id=1, cm=[1.0], prof=[1.0], label=1, score=0.5, meta=bad)

    @pytest.mark.parametrize("bad", [2**64, -1, 1.0, True, "7"])
    def test_bad_id_is_an_id_error(self, bad):
        with pytest.raises(InvalidIdError) as exc_info:
            QueryRecord(id=bad, cm=[1.0], prof=[1.0], score=0.5)
        assert not isinstance(exc_info.value, InvalidLabelError)
        assert QueryRecord(id=2**64 - 1, cm=[1.0], prof=[1.0], score=0.5).id == 2**64 - 1

    def test_float_payload_round_trips_through_json(self, rng):
        # float32 -> shortest-repr JSON -> float32 restores identical bits
        values = rng.standard_normal(64).astype(np.float32) * 1e3
        e = KnowledgeEntry(id=1, cm=values, prof=[1.0], label=0, score=0.25)
        decoded = np.asarray(json.loads(json.dumps([float(x) for x in e.cm])), dtype=np.float32)
        assert decoded.tobytes() == e.cm.tobytes()


class TestRecordIdentity:
    """Records and neighbor sets hold numpy arrays, so they compare and hash
    by identity: a record equal in content to a listed one is not found, and
    no comparison raises numpy's ambiguous-truth-value error."""

    @staticmethod
    def twins(kind: str) -> tuple:
        make = {
            "entry": lambda: KnowledgeEntry(id=1, cm=[1.0, 2.0], prof=[0.5, 0.25], label=1, score=0.5),
            "query": lambda: QueryRecord(id=1, cm=[1.0, 2.0], prof=[0.5, 0.25], score=0.5, label=0),
            "neighbors": lambda: NeighborSet(np.array([3, 1]), np.array([0.5, 0.25])),
        }[kind]
        return make(), make()

    @pytest.mark.parametrize("kind", ["entry", "query", "neighbors"])
    def test_compare_and_hash_by_identity(self, kind):
        a, b = self.twins(kind)
        records = [a]
        assert a == a and b != a and not (b == a)
        assert a in records and b not in records
        assert records.index(a) == 0 and records.count(a) == 1 and records.count(b) == 0
        with pytest.raises(ValueError):
            records.index(b)
        assert hash(a) == hash(a) and len({a, b, a}) == 2 and {a: 1}[a] == 1
