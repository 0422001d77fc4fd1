from __future__ import annotations

import ast
import errno
import hashlib
import io
import itertools
import json
import os
import struct
import threading
import tracemalloc
import zlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import random_base, simple_layout
from radd import store
from radd.ablation import AttributeMask, mask_base, mask_queries
from radd.errors import (
    BadMagicError,
    ChecksumMismatchError,
    DimensionMismatchError,
    DuplicateIdError,
    EmptyInputError,
    InvalidIdError,
    InvalidLabelError,
    InvalidLayoutError,
    NonFiniteValueError,
    ParseError,
    ScoreOutOfRangeError,
    StoreIOError,
    TruncatedFileError,
    UnsupportedVersionError,
)
from radd.store import (
    build,
    entry_to_json,
    from_arrays,
    ingest_jsonl,
    load,
    profile_zscore,
    read_queries_jsonl,
    save,
    write_jsonl,
)
from radd.synthetic import SynthConfig, generate
from radd.types import DEFAULT_PROFILE_LAYOUT, KnowledgeEntry, ProfileLayout, QueryRecord


def derived(base, prof_matrix, layout):
    """A base made by the constructor from *base*'s ids, labels, scores and
    CM matrix, with *prof_matrix* and *layout* as its profile space."""
    return store.KnowledgeBase(base.ids, base.labels, base.scores, base.cm_matrix, prof_matrix, layout)


def first_block(data: bytes) -> int:
    """Offset of a RAKB file's first column block: the 28-byte header and
    the layout descriptor, zero-padded to a multiple of 64."""
    end = 28 + struct.unpack_from("<I", data, 24)[0]
    return end + -end % 64


class DiskFullAfterTwoWrites(io.FileIO):
    """Stands in for ``open`` in radd.store: the third write fails with ENOSPC."""

    writes = 0

    def write(self, data):
        self.writes += 1
        if self.writes > 2:
            raise OSError(errno.ENOSPC, "No space left on device")
        return super().write(data)


def make_entries(n=3, d_cm=4, layout=DEFAULT_PROFILE_LAYOUT):
    rng = np.random.default_rng(0)
    return [
        KnowledgeEntry(
            id=i,
            cm=rng.standard_normal(d_cm).astype(np.float32),
            prof=rng.standard_normal(layout.total_dim).astype(np.float32),
            label=int(i % 2),
            score=float(rng.uniform(0.05, 0.95)),
        )
        for i in range(n)
    ]


class TestBuild:
    def test_construction(self):
        base = build(make_entries(3, d_cm=4))
        assert (base.n, base.d_cm, base.d_prof) == (3, 4, 285)
        assert base.ids.tolist() == [0, 1, 2]

    def test_duplicate_id_reported(self):
        entries = make_entries(2)
        dup = KnowledgeEntry(id=1, cm=entries[0].cm, prof=entries[0].prof, label=0, score=0.5)
        with pytest.raises(DuplicateIdError) as exc_info:
            build([entries[1], dup])
        assert exc_info.value.entry_id == 1

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            build([])

    def test_from_arrays_duplicate_id_reported(self, rng):
        base = random_base(rng, n=5, d_cm=3)
        ids = np.array([4, 9, 2, 9, 4], dtype=np.uint64)  # row 3 is the first repeat
        with pytest.raises(DuplicateIdError) as exc_info:
            from_arrays(ids, base.labels, base.scores, base.cm_matrix, base.prof_matrix, base.layout)
        assert exc_info.value.entry_id == 9

    def test_norm_of_3_4_row_is_5(self):
        layout = simple_layout(2)
        e = KnowledgeEntry(id=0, cm=[3.0, 4.0], prof=[1.0, 0.0], label=0, score=0.5)
        base = build([e], layout)
        assert base.cm_norms[0] == 5.0

    def test_norm_cache_matches_recomputation(self, rng):
        base = random_base(rng, n=50, d_cm=9)
        fresh = np.linalg.norm(base.cm_matrix.astype(np.float64), axis=1)
        np.testing.assert_allclose(base.cm_norms, fresh, rtol=1e-6)

    def test_first_entry_checked_against_layout(self):
        e = KnowledgeEntry(id=0, cm=[1.0, 2.0], prof=[1.0, 0.0, 0.0], label=0, score=0.5)
        with pytest.raises(DimensionMismatchError, match=r"position 0\) has dims \(2, 3\), expected \(2, 2\)"):
            build([e], simple_layout(2))

    def test_unlabeled_entry_rejected(self):
        entries = [*make_entries(2), QueryRecord(id=9, cm=[0.0] * 4, prof=[0.0] * 285, score=0.5)]
        with pytest.raises(InvalidLabelError, match=r"^entry 9 \(position 2\) has no label$"):
            build(entries)

    @pytest.mark.parametrize("source", ["generate", "ingest_jsonl", "by hand"])
    def test_equals_from_arrays_of_stacked_columns(self, tmp_path, source):
        if source == "by hand":
            entries = make_entries(7, d_cm=5)
        else:
            entries, _ = generate(SynthConfig(seed=3, n_real=9, n_seen_fake=8, n_query_real=1, n_query_zeroday=1))
        if source == "ingest_jsonl":
            write_jsonl(tmp_path / "k.jsonl", (entry_to_json(e) for e in entries))
            entries = ingest_jsonl(tmp_path / "k.jsonl")
        base = build(entries)
        stacked = from_arrays(
            np.array([e.id for e in entries], np.uint64), np.array([e.label for e in entries], np.uint8),
            np.array([e.score for e in entries], np.float32), np.stack([e.cm for e in entries]),
            np.stack([e.prof for e in entries]),
        )
        for name in ("ids", "labels", "scores", "cm_matrix", "prof_matrix", "cm_norms", "prof_norms"):
            got, want = getattr(base, name), getattr(stacked, name)
            assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes(), name

    def test_mixed_dims_rejected(self):
        layout = simple_layout(2)
        a = KnowledgeEntry(id=0, cm=[1.0, 2.0], prof=[1.0, 0.0], label=0, score=0.5)
        b = KnowledgeEntry(id=1, cm=[1.0], prof=[1.0, 0.0], label=0, score=0.5)
        with pytest.raises(DimensionMismatchError):
            build([a, b], layout)

    def test_row_order_preserved(self):
        entries = make_entries(5)
        base = build(entries)
        for i, e in enumerate(entries):
            assert base.cm_matrix[i].tobytes() == e.cm.tobytes()

    def test_package_built_arrays_adopted_without_copy(self, rng, monkeypatch):
        # build hands its fresh arrays over read-only, and mask_base and
        # profile_zscore their fresh profile matrix and the parent's arrays,
        # so the base keeps each one as it is; an array that its caller can
        # still write to is copied, and stays writeable.
        adopted = []
        frozen = store._frozen

        def recording_frozen(arr, dtype):
            out = frozen(arr, dtype)
            adopted.append(out is arr)
            return out

        monkeypatch.setattr(store, "_frozen", recording_frozen)
        base = build(make_entries(4))
        mask_base(base, AttributeMask({"age"}))
        profile_zscore(base, [])
        assert adopted == [True] * 15  # 5 arrays in build and in each view
        adopted.clear()
        cm = rng.standard_normal((4, 3)).astype(np.float32)
        caller = from_arrays(base.ids, base.labels, base.scores, cm, base.prof_matrix, base.layout)
        assert adopted == [True, True, True, False, True]  # only the writeable cm matrix is copied
        assert cm.flags.writeable and not np.shares_memory(caller.cm_matrix, cm)

    def test_base_arrays_immutable(self):
        base = build(make_entries(2))
        with pytest.raises(ValueError):
            base.cm_matrix[0, 0] = 1.0
        with pytest.raises(ValueError):
            base.labels[0] = 1


class TestMatrixCheck:
    """Both feature matrices go through one check: 2-D, then finite."""

    def arrays(self, rng, n=6, d=3):
        return dict(ids=np.arange(n), labels=np.zeros(n, dtype=np.uint8), scores=np.full(n, 0.5, dtype=np.float32),
                    cm_matrix=rng.standard_normal((n, d)).astype(np.float32),
                    prof_matrix=rng.standard_normal((n, 2)).astype(np.float32), layout=simple_layout(2))

    @pytest.mark.parametrize("space", ["cm_matrix", "prof_matrix"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, rng, space, value):
        arrays = self.arrays(rng)
        arrays[space][4, 1] = value
        with pytest.raises(NonFiniteValueError):
            from_arrays(**arrays)

    @pytest.mark.parametrize("space", ["cm_matrix", "prof_matrix"])
    def test_not_2d_rejected(self, rng, space):
        arrays = self.arrays(rng)
        arrays[space] = arrays[space].ravel()
        with pytest.raises(DimensionMismatchError, match="2-dimensional"):
            from_arrays(**arrays)

    def test_largest_finite_float32_accepted(self, rng):
        arrays = self.arrays(rng)
        arrays["cm_matrix"][:] = np.finfo(np.float32).max  # its squares overflow float32, not float64
        assert np.isfinite(from_arrays(**arrays).cm_norms).all()

    def test_check_makes_no_matrix_sized_temporary(self, rng):
        arrays = self.arrays(rng, n=20_000, d=256)
        for arr in arrays.values():
            if isinstance(arr, np.ndarray):
                arr.flags.writeable = False  # adopted as they are, not copied
        tracemalloc.start()
        try:
            from_arrays(**arrays)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.15 * arrays["cm_matrix"].nbytes  # a boolean mask of the matrix alone is 0.25


class TestColumnCheck:
    """ids, labels, scores and the feature matrices are checked before they
    are cast to uint64, uint8 and float32, so no value is parsed, truncated
    or wrapped."""

    def arrays(self, rng, n=2, **overrides):
        arrays = dict(ids=np.arange(n), labels=np.array([0, 1] * (n // 2)), scores=np.full(n, 0.5),
                      cm_matrix=rng.standard_normal((n, 3)).astype(np.float32),
                      prof_matrix=rng.standard_normal((n, 2)).astype(np.float32), layout=simple_layout(2))
        return {**arrays, **overrides}

    @pytest.mark.parametrize("overrides, error", [
        ({"labels": [0.5, 1.0]}, InvalidLabelError),
        ({"labels": np.array([0.0, 1.0])}, InvalidLabelError),
        ({"labels": np.array([256, 1])}, InvalidLabelError),
        ({"labels": np.array([-1, 1])}, InvalidLabelError),
        ({"labels": np.array([True, False])}, InvalidLabelError),
        ({"labels": np.array([0, 2], dtype=np.uint8)}, InvalidLabelError),
        ({"labels": ["0", "1"]}, InvalidLabelError),
        ({"ids": np.array([-1, 1])}, InvalidIdError),
        ({"ids": [-1, 1]}, InvalidIdError),
        ({"ids": [2**64, 0]}, InvalidIdError),
        ({"ids": np.array([0.0, 1.0])}, InvalidIdError),
        ({"ids": [1.5, 2]}, InvalidIdError),
        ({"ids": np.array([True, False])}, InvalidIdError),
        ({"ids": [[0], [1, 2]]}, InvalidIdError),
        ({"scores": np.array(["0.5", "0.5"])}, ScoreOutOfRangeError),
        ({"scores": np.array([True, True])}, ScoreOutOfRangeError),
        ({"scores": [None, 0.5]}, ScoreOutOfRangeError),
        ({"cm_matrix": np.array([["1.5", "2", "3"], ["4", "5", "6"]])}, NonFiniteValueError),
        ({"prof_matrix": np.ones((2, 2), dtype=bool)}, NonFiniteValueError),
        ({"cm_matrix": [[1.0, 2.0, 3.0], [1.0]]}, NonFiniteValueError),
        # numpy types a list that mixes booleans with numbers as int64 or float64
        ({"ids": [True, 0]}, InvalidIdError),
        ({"labels": [True, 0]}, InvalidLabelError),
        ({"cm_matrix": [[True, 0.5, 1.0], [0.2, 0.3, 0.4]]}, NonFiniteValueError),
    ])
    def test_uncastable_column_rejected(self, rng, overrides, error):
        with pytest.raises(error):
            from_arrays(**self.arrays(rng, **overrides))

    @pytest.mark.parametrize("ids", [
        np.arange(2), np.arange(2, dtype=np.int32), np.arange(2, dtype=np.uint8), np.arange(2, dtype=np.uint64),
        [0, 1], [2**64 - 1, 0], np.array([2**64 - 1, 0], dtype=np.uint64),
    ])
    @pytest.mark.parametrize("labels", [np.array([0, 1]), np.array([0, 1], dtype=np.int8), [0, 1]])
    def test_integers_in_range_accepted(self, rng, ids, labels):
        base = from_arrays(**self.arrays(rng, ids=ids, labels=labels))
        assert base.ids.tolist() == [int(i) for i in ids] and base.labels.tolist() == [0, 1]
        assert (base.ids.dtype, base.labels.dtype) == (np.uint64, np.uint8)

    def test_integer_matrices_accepted(self, rng):
        cm = np.arange(6).reshape(2, 3)
        base = from_arrays(**self.arrays(rng, cm_matrix=cm, prof_matrix=[[1, 0], [0, 1]]))
        assert base.cm_matrix.tolist() == cm.tolist() and base.prof_matrix.dtype == np.float32

    @pytest.mark.parametrize("overrides, error, message", [
        ({"ids": np.arange(0), "labels": np.arange(0), "scores": np.arange(0.0),
          "cm_matrix": np.zeros((0, 3), np.float32), "prof_matrix": np.zeros((0, 2), np.float32)},
         EmptyInputError, "at least one row"),
        ({"ids": np.arange(3)}, DimensionMismatchError, r"ids has length \(3,\), expected \(2,\)"),
        ({"labels": np.array([0])}, DimensionMismatchError, "labels has length"),
        ({"scores": np.full(3, 0.5)}, DimensionMismatchError, "scores has length"),
        ({"labels": np.array([0, 3])}, InvalidLabelError, "labels must be the integer 0 or 1"),
        ({"scores": np.array([0.0, 0.5])}, ScoreOutOfRangeError, "strictly inside"),
        ({"scores": np.array([0.5, 1.0])}, ScoreOutOfRangeError, "strictly inside"),
        ({"scores": np.array([0.5, np.nan])}, ScoreOutOfRangeError, "strictly inside"),
        ({"scores": np.array([0.5, 1 - 1e-12])}, ScoreOutOfRangeError, "strictly inside"),  # 1.0 at float32
    ])
    def test_constructor_errors(self, rng, overrides, error, message):
        with pytest.raises(error, match=message):
            from_arrays(**self.arrays(rng, **overrides))


class TestDerivedView:
    def test_shares_parent_arrays_and_recomputes_norms(self, rng):
        base = random_base(rng, n=30, d_cm=5, d_prof=4)
        new_prof = rng.standard_normal((30, 2)).astype(np.float32)
        view = derived(base, new_prof, simple_layout(2))
        for name in ("ids", "labels", "scores", "cm_matrix"):
            assert getattr(view, name) is getattr(base, name)
        assert view.cm_norms.tobytes() == base.cm_norms.tobytes()
        assert (view.n, view.d_cm, view.d_prof, base.d_prof) == (30, 5, 2, 4)
        assert view.prof_matrix.tobytes() == new_prof.tobytes()
        assert view.prof_norms.tobytes() == store._row_norms(new_prof).tobytes()
        # matrix64 is a new float64 copy on every call; nothing caches one.
        assert view.matrix64("cm").tobytes() == base.cm_matrix.astype(np.float64).tobytes()
        assert view.matrix64("prof").tobytes() == new_prof.astype(np.float64).tobytes()
        assert view.matrix64("prof") is not view.matrix64("prof")
        assert base.matrix64("prof").shape == (30, 4)

    def test_bad_profile_matrix_rejected(self, rng):
        base = random_base(rng, n=6, d_cm=3, d_prof=2)
        nan_prof = np.ones((6, 2), dtype=np.float32)
        nan_prof[4, 1] = np.nan
        cases = [
            (np.ones(6, dtype=np.float32), simple_layout(2), DimensionMismatchError),  # not 2-D
            (np.ones((5, 2), dtype=np.float32), simple_layout(2), DimensionMismatchError),  # row count
            (np.ones((6, 3), dtype=np.float32), simple_layout(2), InvalidLayoutError),  # layout width
            (nan_prof, simple_layout(2), NonFiniteValueError),
        ]
        for prof, layout, error in cases:
            with pytest.raises(error):
                derived(base, prof, layout)
        assert base.d_prof == 2 and base.prof_matrix.shape == (6, 2)


class TestPersistence:
    @pytest.mark.parametrize("n", [1, 10, 1000])
    @pytest.mark.parametrize("d_cm", [1, 8])
    def test_round_trip_bit_exact(self, tmp_path, rng, n, d_cm):
        base = random_base(rng, n=n, d_cm=d_cm, d_prof=3)
        path = tmp_path / "b.rakb"
        save(base, path)
        other = load(path)
        assert other.n == base.n and other.d_cm == base.d_cm and other.d_prof == base.d_prof
        assert other.layout == base.layout
        for attr in ("ids", "labels", "scores", "cm_matrix", "prof_matrix"):
            assert getattr(other, attr).tobytes() == getattr(base, attr).tobytes()

    def test_round_trip_wide(self, tmp_path, rng):
        base = random_base(rng, n=10, d_cm=1024, d_prof=2)
        path = tmp_path / "b.rakb"
        save(base, path)
        assert load(path).cm_matrix.tobytes() == base.cm_matrix.tobytes()

    def test_bad_magic(self, tmp_path, rng):
        path = tmp_path / "b.rakb"
        save(random_base(rng, 3, 4), path)
        data = bytearray(path.read_bytes())
        data[:4] = b"NOPE"
        path.write_bytes(data)
        with pytest.raises(BadMagicError):
            load(path)

    def test_unsupported_version(self, tmp_path, rng):
        path = tmp_path / "b.rakb"
        save(random_base(rng, 3, 4), path)
        pristine = path.read_bytes()
        for version in (99, 2, 1):  # a future format, the unaligned v2, and the CRC-64 v1
            data = bytearray(pristine)
            struct.pack_into("<I", data, 4, version)
            path.write_bytes(data)
            with pytest.raises(UnsupportedVersionError, match="rebuild .* JSONL"):
                load(path)

    def test_truncated_mid_matrix(self, tmp_path, rng):
        base = random_base(rng, n=20, d_cm=8, d_prof=3)
        path = tmp_path / "b.rakb"
        save(base, path)
        data = path.read_bytes()
        # cut inside the cm block: keep what precedes it and half the cm rows
        cut = first_block(data)
        for name, dtype, shape in store._blocks(base.n, base.d_cm, base.d_prof):
            if name == "cm_matrix":
                break
            cut += dtype.itemsize * int(np.prod(shape))
        cut += (base.n // 2) * base.d_cm * 4
        path.write_bytes(data[:cut])
        with pytest.raises(TruncatedFileError):
            load(path)

    def test_truncated_header(self, tmp_path, rng):
        path = tmp_path / "b.rakb"
        save(random_base(rng, 3, 4), path)
        path.write_bytes(path.read_bytes()[:10])
        with pytest.raises(TruncatedFileError):
            load(path)

    def test_trailing_garbage(self, tmp_path, rng):
        path = tmp_path / "b.rakb"
        save(random_base(rng, 3, 4), path)
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(TruncatedFileError):
            load(path)

    def test_corrupted_payload_fails_checksum(self, tmp_path, rng):
        path = tmp_path / "b.rakb"
        save(random_base(rng, 10, 4), path)
        pristine = path.read_bytes()
        # the layout descriptor starts after the 24-byte header and its u32 length
        for offset in (len(pristine) // 2, 24 + 4 + 1):
            data = bytearray(pristine)
            data[offset] ^= 0xFF
            path.write_bytes(data)
            with pytest.raises(ChecksumMismatchError):
                load(path)

    def test_descriptor_not_utf8_is_a_layout_error(self, tmp_path, rng):
        # A descriptor byte that is not UTF-8, under a valid checksum.
        path = tmp_path / "b.rakb"
        save(random_base(rng, 10, 4), path)
        data = bytearray(path.read_bytes())
        data[24 + 4] = 0xFF
        data[-4:] = struct.pack("<I", zlib.crc32(data[:-4]))
        path.write_bytes(data)
        with pytest.raises(InvalidLayoutError, match="not UTF-8"):
            load(path)

    def test_failed_save_keeps_previous_base(self, tmp_path, rng, monkeypatch):
        base = random_base(rng, 10, 4)
        path = tmp_path / "b.rakb"
        save(base, path)
        pristine = path.read_bytes()
        monkeypatch.setattr(store, "open", DiskFullAfterTwoWrites, raising=False)
        with pytest.raises(StoreIOError):
            save(random_base(rng, 20, 4), path)
        monkeypatch.undo()
        assert path.read_bytes() == pristine
        other = load(path)
        for attr in ("ids", "labels", "scores", "cm_matrix", "prof_matrix"):
            assert getattr(other, attr).tobytes() == getattr(base, attr).tobytes()
        assert [p.name for p in tmp_path.iterdir()] == ["b.rakb"]

    def test_missing_file(self, tmp_path):
        with pytest.raises(StoreIOError):
            load(tmp_path / "absent.rakb")

    def test_loaded_arrays_read_only(self, tmp_path, rng):
        path = tmp_path / "b.rakb"
        save(random_base(rng, 3, 4), path)
        other = load(path)
        with pytest.raises(ValueError):
            other.scores[0] = 0.5

    def test_loaded_arrays_aligned(self, tmp_path, rng, monkeypatch):
        # Neither the descriptor's length nor n may misalign a block (a
        # misaligned float32 matrix would make numpy skip BLAS in the
        # retrieval matrix product), and no block is copied on load.
        path = tmp_path / "b.rakb"
        read = []
        read_bytes = Path.read_bytes
        monkeypatch.setattr(Path, "read_bytes", lambda self: read.append(read_bytes(self)) or read[-1])
        for name_len, n in itertools.product(range(1, 9), range(8, 16)):
            base = random_base(rng, n, 3, d_prof=2)
            save(derived(base, base.prof_matrix, ProfileLayout((("x" * name_len, 2),))), path)
            other = load(path)
            file_bytes = np.frombuffer(read[-1], np.uint8)
            for name in ("ids", "labels", "scores", "cm_matrix", "prof_matrix"):
                arr = getattr(other, name)
                assert arr.flags.aligned and arr.flags.c_contiguous and not arr.flags.writeable, name
                assert np.shares_memory(arr, file_bytes), name
                assert arr.tobytes() == getattr(base, name).tobytes(), name

    def test_blocks_start_after_zero_pad_to_64(self, tmp_path, rng):
        base = random_base(rng, 7, 3, d_prof=2)
        path = tmp_path / "b.rakb"
        save(base, path)
        data = path.read_bytes()
        desc_end = 28 + struct.unpack_from("<I", data, 24)[0]
        start = first_block(data)
        assert data[desc_end:start] == bytes(start - desc_end)
        assert data[start : start + 8 * base.n] == base.ids.astype("<u8").tobytes()

    def test_load_peak_memory_near_file_size(self, tmp_path, rng):
        n, d_cm, d_prof = 20_000, 256, 8
        base = from_arrays(
            np.arange(n, dtype=np.uint64), np.zeros(n, np.uint8), np.full(n, 0.5, np.float32),
            rng.standard_normal((n, d_cm), dtype=np.float32), np.ones((n, d_prof), np.float32),
            simple_layout(d_prof),
        )
        path = tmp_path / "b.rakb"
        save(base, path)
        del base
        tracemalloc.start()
        try:
            other = load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert other.n == n
        assert peak < 1.2 * path.stat().st_size


class TestOneWriter:
    def test_failed_write_jsonl_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "k.jsonl"
        write_jsonl(path, (entry_to_json(e) for e in make_entries(2)))
        pristine = path.read_bytes()
        monkeypatch.setattr(store, "open", DiskFullAfterTwoWrites, raising=False)
        with pytest.raises(StoreIOError):
            write_jsonl(path, (entry_to_json(e) for e in make_entries(5)))
        monkeypatch.undo()
        assert path.read_bytes() == pristine
        assert [p.name for p in tmp_path.iterdir()] == ["k.jsonl"]

    def test_line_generator_error_propagates_and_keeps_previous_file(self, tmp_path):
        # An error that is not an OSError, raised while the parts are made,
        # is re-raised as it is, after the temp file is removed.
        path = tmp_path / "k.jsonl"
        write_jsonl(path, (entry_to_json(e) for e in make_entries(2)))
        pristine = path.read_bytes()
        failure = ValueError("line 3 cannot be made")

        def lines():
            for e in make_entries(5)[:2]:
                yield entry_to_json(e)
            raise failure

        with pytest.raises(ValueError) as exc_info:
            write_jsonl(path, lines())
        assert exc_info.value is failure
        assert path.read_bytes() == pristine
        assert [p.name for p in tmp_path.iterdir()] == ["k.jsonl"]

    def test_only_atomic_write_writes_files(self):
        """No write-mode open, write_text or write_bytes in the package
        outside store._atomic_write."""
        src = Path(store.__file__).parent
        found = []
        for path in sorted(src.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            allowed = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef) and node.name == "_atomic_write":
                    allowed.update(id(n) for n in ast.walk(node))
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call) or id(node) in allowed:
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in ("write_text", "write_bytes"):
                    found.append(f"{path.name}:{node.lineno} {name}")
                elif name == "open":
                    # builtin open(file, mode), Path.open(mode)
                    modes = node.args[1:2] if isinstance(func, ast.Name) else node.args[:1]
                    modes += [kw.value for kw in node.keywords if kw.arg == "mode"]
                    for mode in modes:
                        if not (isinstance(mode, ast.Constant) and set(str(mode.value)) <= set("rbt")):
                            found.append(f"{path.name}:{node.lineno} open")
        assert found == []


class TestIngest:
    def write_lines(self, tmp_path, lines):
        path = tmp_path / "in.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def record(self, i, layout=None, **overrides):
        d_prof = (layout or simple_layout(3)).total_dim
        obj = {
            "id": i,
            "label": i % 2,
            "score": 0.93,
            "cm": [1.0, 2.0, 3.0, 4.0],
            "prof": [0.1] * d_prof,
        }
        obj.update(overrides)
        return json.dumps(obj)

    def test_well_formed(self, tmp_path):
        layout = simple_layout(3)
        path = self.write_lines(tmp_path, [self.record(7)])
        entries = ingest_jsonl(path, layout)
        assert len(entries) == 1 and entries[0].id == 7
        assert entries[0].score == float(np.float32(0.93))

    def test_order_preserved(self, tmp_path):
        layout = simple_layout(3)
        path = self.write_lines(tmp_path, [self.record(i) for i in (5, 3, 9)])
        assert [e.id for e in ingest_jsonl(path, layout)] == [5, 3, 9]

    def test_score_out_of_range_names_line(self, tmp_path):
        layout = simple_layout(3)
        path = self.write_lines(tmp_path, [self.record(0), self.record(1, score=1.0)])
        with pytest.raises(ScoreOutOfRangeError) as exc_info:
            ingest_jsonl(path, layout)
        assert exc_info.value.line == 2
        assert "line 2" in str(exc_info.value)

    def test_bad_label_names_line(self, tmp_path):
        layout = simple_layout(3)
        path = self.write_lines(tmp_path, [self.record(0, label=2)])
        with pytest.raises(InvalidLabelError) as exc_info:
            ingest_jsonl(path, layout)
        assert exc_info.value.line == 1

    def test_boolean_label_rejected(self, tmp_path):
        layout = simple_layout(3)
        path = self.write_lines(tmp_path, ['{"id":0,"label":true,"score":0.5,"cm":[1.0],"prof":[0.1,0.1,0.1]}'])
        with pytest.raises(InvalidLabelError):
            ingest_jsonl(path, layout)

    def test_malformed_json_names_line(self, tmp_path):
        layout = simple_layout(3)
        path = self.write_lines(tmp_path, [self.record(0), "{not json"])
        with pytest.raises(ParseError) as exc_info:
            ingest_jsonl(path, layout)
        assert exc_info.value.line == 2

    def test_prof_dim_must_match_layout(self, tmp_path):
        layout = simple_layout(3)
        path = self.write_lines(tmp_path, [self.record(0, prof=[0.1] * 4)])
        with pytest.raises(DimensionMismatchError) as exc_info:
            ingest_jsonl(path, layout)
        assert exc_info.value.line == 1

    def test_cm_dim_fixed_by_first_line(self, tmp_path):
        layout = simple_layout(3)
        path = self.write_lines(tmp_path, [self.record(0), self.record(1, cm=[1.0])])
        with pytest.raises(DimensionMismatchError) as exc_info:
            ingest_jsonl(path, layout)
        assert exc_info.value.line == 2

    def test_missing_label_rejected_for_knowledge(self, tmp_path):
        layout = simple_layout(3)
        obj = json.loads(self.record(0))
        del obj["label"]
        path = self.write_lines(tmp_path, [json.dumps(obj)])
        with pytest.raises(InvalidLabelError):
            ingest_jsonl(path, layout)

    @pytest.mark.parametrize("bad_id", [2**64, -1, 1.5, True, "7"])
    @pytest.mark.parametrize("reader", [ingest_jsonl, read_queries_jsonl])
    def test_id_above_u64_names_line(self, tmp_path, reader, bad_id):
        # types._validate_id is the only id check, so every bad id value
        # gets the same error type, with its line number.
        path = self.write_lines(tmp_path, [self.record(0), self.record(1, id=bad_id)])
        with pytest.raises(InvalidIdError) as exc_info:
            reader(path, simple_layout(3))
        assert exc_info.value.line == 2
        assert "line 2" in str(exc_info.value)

    @pytest.mark.parametrize("key, value", [
        ("cm", [{"a": 1}, 2.0, 3.0, 4.0]),
        ("cm", ["x", 2.0, 3.0, 4.0]),
        ("prof", [[0.1, 0.2], 0.1, 0.1]),
        ("cm", [10**400, 2.0, 3.0, 4.0]),
        ("cm", [1.0, "1.5", 3.0, 4.0]),  # a numeric string is not read as a number
        ("prof", [0.1, True, 0.1]),  # nor is a boolean
    ])
    @pytest.mark.parametrize("reader", [ingest_jsonl, read_queries_jsonl])
    def test_non_number_element_names_line(self, tmp_path, reader, key, value):
        path = self.write_lines(tmp_path, [self.record(0), self.record(1, **{key: value})])
        with pytest.raises(NonFiniteValueError) as exc_info:
            reader(path, simple_layout(3))
        assert exc_info.value.line == 2
        assert "line 2" in str(exc_info.value)

    @pytest.mark.parametrize("overrides, error", [
        ({"cm": 5}, DimensionMismatchError),
        ({"cm": []}, DimensionMismatchError),
        ({"prof": None}, DimensionMismatchError),
        ({"score": "0.5"}, ScoreOutOfRangeError),
        ({"score": True}, ScoreOutOfRangeError),
        ({"score": 10**400}, ScoreOutOfRangeError),
        ({"meta": 5}, ParseError),
    ])
    @pytest.mark.parametrize("reader", [ingest_jsonl, read_queries_jsonl])
    def test_bad_field_value_names_line(self, tmp_path, reader, overrides, error):
        # The record types check every value, so a file gets the same error
        # class as a record built in Python.
        path = self.write_lines(tmp_path, [self.record(0), self.record(1, **overrides)])
        with pytest.raises(error) as exc_info:
            reader(path, simple_layout(3))
        assert exc_info.value.line == 2

    @pytest.mark.parametrize("key", ["id", "score", "cm", "prof"])
    @pytest.mark.parametrize("reader", [ingest_jsonl, read_queries_jsonl])
    def test_missing_required_key_names_line(self, tmp_path, reader, key):
        obj = json.loads(self.record(1))
        del obj[key]
        path = self.write_lines(tmp_path, [self.record(0), json.dumps(obj)])
        with pytest.raises(ParseError, match=f"missing required field '{key}'") as exc_info:
            reader(path, simple_layout(3))
        assert exc_info.value.line == 2

    @pytest.mark.parametrize("reader", [ingest_jsonl, read_queries_jsonl])
    def test_not_utf8_names_line_and_byte(self, tmp_path, reader):
        # Line 1 holds valid non-ASCII text; line 3 a byte no UTF-8 text holds.
        lines = [self.record(0, meta="café"), self.record(1), self.record(2, meta="x")]
        path = tmp_path / "in.jsonl"
        data = "\n".join(lines).encode("utf-8").replace(b'"x"', b'"x\xe9"')
        path.write_bytes(data + b"\n")
        with pytest.raises(ParseError, match="not UTF-8 text: byte 0xe9") as exc_info:
            reader(path, simple_layout(3))
        assert exc_info.value.line == 3
        assert "line 3" in str(exc_info.value)
        path.write_bytes(data.replace(b"\xe9", b""))
        assert [r.id for r in reader(path, simple_layout(3))] == [0, 1, 2]

    def test_queries_label_optional(self, tmp_path):
        layout = simple_layout(3)
        obj = json.loads(self.record(0))
        del obj["label"]
        path = self.write_lines(tmp_path, [json.dumps(obj), self.record(1)])
        queries = read_queries_jsonl(path, layout)
        assert queries[0].label is None and queries[1].label == 1

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize("reader", [ingest_jsonl, read_queries_jsonl])
    def test_pipe_reads_like_the_file(self, tmp_path, reader):
        # A pipe cannot be read twice, so its newlines are not counted first:
        # the blocks start at one row and double (here 7 times for 100 rows).
        entries, _ = generate(SynthConfig(seed=3, n_real=50, n_seen_fake=50, n_query_real=1, n_query_zeroday=1))
        path = tmp_path / "knowledge.jsonl"
        write_jsonl(path, (entry_to_json(e) for e in entries))
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        writer = threading.Thread(target=lambda: fifo.write_bytes(path.read_bytes()), daemon=True)
        writer.start()
        piped = reader(fifo)
        writer.join(timeout=30)
        assert not writer.is_alive()
        read = reader(path)
        assert len(piped) == len(read) == 100
        for a, b in zip(piped, read):
            assert type(a) is type(b) and (a.id, a.label, getattr(a, "meta", None)) == (b.id, b.label, getattr(b, "meta", None))
            assert np.float32(a.score).tobytes() == np.float32(b.score).tobytes()
            assert a.cm.tobytes() == b.cm.tobytes() and a.prof.tobytes() == b.prof.tobytes()
            assert not (a.cm.flags.writeable or a.prof.flags.writeable)

    def test_zero_vector_warning(self, tmp_path, caplog):
        layout = simple_layout(3)
        path = self.write_lines(tmp_path, [self.record(0, cm=[0.0, 0.0, 0.0, 0.0])])
        with caplog.at_level("WARNING", logger="radd.store"):
            entries = ingest_jsonl(path, layout)
        assert len(entries) == 1
        assert any("all-zero" in rec.message for rec in caplog.records)

    def test_jsonl_round_trip_bit_exact(self, tmp_path, rng):
        f32 = np.float32
        tiny, flt_min, flt_max = np.finfo(f32).smallest_subnormal, np.finfo(f32).tiny, np.finfo(f32).max
        edges = np.array(
            [0.0, -0.0, tiny, -tiny, flt_min, np.nextafter(flt_min, f32(0)), -flt_min, flt_max, -flt_max,
             1.0, np.nextafter(f32(1), f32(2)), np.nextafter(f32(1), f32(0)), 16777216.0, 123456792.0,
             1234567936.0, 0.1, 1e-5],
            dtype=f32,
        )
        patterns = rng.integers(0, 2**32, size=100_000, dtype=np.uint64).astype(np.uint32).view(f32)
        values = np.concatenate([edges, patterns[np.isfinite(patterns)]])
        values = np.resize(values, -(-values.size // 100) * 100).reshape(-1, 100)
        layout = simple_layout(60)
        scores = [float(tiny), 0.99999994, *rng.uniform(0.01, 0.99, len(values) - 2)]
        original = [
            KnowledgeEntry(
                id=i, cm=row[:40], prof=row[40:], label=i % 2, score=score,
                meta=("tag", "café", None)[i % 3],
            )
            for i, (row, score) in enumerate(zip(values, scores))
        ]
        path = tmp_path / "round.jsonl"
        write_jsonl(path, (entry_to_json(e) for e in original))
        for again in (ingest_jsonl(path, layout), read_queries_jsonl(path, layout)):
            assert len(again) == len(original)
            for a, b in zip(original, again):
                assert a.id == b.id and a.label == b.label
                assert np.float32(a.score).tobytes() == np.float32(b.score).tobytes()
                assert a.cm.tobytes() == b.cm.tobytes()
                assert a.prof.tobytes() == b.prof.tobytes()
                if isinstance(b, KnowledgeEntry):
                    assert a.meta == b.meta
        # every number of score, cm and prof has at most 9 significant digits
        for line in path.read_text(encoding="utf-8").splitlines():
            obj = json.loads(line, parse_float=str, parse_int=str)
            for token in (obj["score"], *obj["cm"], *obj["prof"]):
                digits = token.lstrip("-").split("e")[0].replace(".", "").lstrip("0")
                assert len(digits) <= 9, token


def array_bytes(base) -> int:
    return sum(a.nbytes for a in (base.ids, base.labels, base.scores, base.cm_matrix, base.prof_matrix))


def test_ingest_and_build_peak_memory(tmp_path):
    # ingest_jsonl + build of the seed-7 quick-start knowledge file (4,000
    # rows, d_cm 16, d_prof 285; 4.64 MiB of base arrays). The tracemalloc
    # peak was 11.45 MiB (2.466x the arrays) while build stacked the rows
    # into new matrices, and 11.03 MiB (2.375x) while it copied them into
    # preallocated columns. build now shares the reader's blocks, so the
    # reader sets the peak: 6.77 MiB (1.459x), the blocks plus the records,
    # their row views and the reader's per-line columns.
    entries, _ = generate(SynthConfig(seed=7, n_query_real=1, n_query_zeroday=1))
    path = tmp_path / "knowledge.jsonl"
    write_jsonl(path, (entry_to_json(e) for e in entries))
    del entries
    tracemalloc.start()
    try:
        base = build(ingest_jsonl(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert base.n == 4000
    assert peak <= 1.50 * array_bytes(base), f"peak {peak / array_bytes(base):.3f}x the arrays"


def test_wide_layout_rejected_before_any_allocation():
    # A (6, 10**7) float32 profile block would take 240 MB, so build may size
    # its blocks only once the first entry's widths pass.
    entries = make_entries(6)
    tracemalloc.start()
    try:
        with pytest.raises(DimensionMismatchError, match=r"expected \(4, 10000000\)$"):
            build(entries, simple_layout(10**7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, f"peak {peak / 2**20:.1f} MiB"


BASE_ARRAYS = ("ids", "labels", "scores", "cm_matrix", "prof_matrix", "cm_norms", "prof_norms")


def assert_same_base(got, want):
    for name in BASE_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name


def shares_blocks(base, entries) -> bool:
    return np.shares_memory(base.cm_matrix, entries[0].cm) and np.shares_memory(base.prof_matrix, entries[0].prof)


class TestSharedBlocks:
    """build shares the checked blocks of an unchanged list from generate or
    ingest_jsonl, and copies every other sequence, with the same result and
    the same errors."""

    @pytest.fixture
    def made(self, tmp_path):
        def make(source):
            entries, _ = generate(SynthConfig(seed=5, n_real=9, n_seen_fake=8, n_query_real=1, n_query_zeroday=1))
            if source == "ingest_jsonl":
                write_jsonl(tmp_path / "k.jsonl", (entry_to_json(e) for e in entries))
                entries = ingest_jsonl(tmp_path / "k.jsonl")
            return entries
        return make

    @pytest.mark.parametrize("source", ["generate", "ingest_jsonl"])
    def test_unchanged_list_shares_blocks(self, made, source):
        entries = made(source)
        base, copied = build(entries), build(list(entries))
        assert shares_blocks(base, entries) and not shares_blocks(copied, entries)
        assert_same_base(base, copied)
        assert not (base.cm_matrix.flags.writeable or base.prof_matrix.flags.writeable)

    @pytest.mark.parametrize("source", ["generate", "ingest_jsonl"])
    @pytest.mark.parametrize("change", ["reverse", "assign", "append", "del", "sort"])
    def test_changed_list_is_copied(self, made, source, change):
        entries = made(source)
        if change == "reverse":
            entries.reverse()
        elif change == "assign":
            entries[3] = replace(entries[3], score=0.5)
        elif change == "append":
            entries.append(replace(entries[0], id=99))
        elif change == "del":
            del entries[2]
        else:
            entries.sort(key=lambda e: -e.id)
        base = build(entries)
        assert not shares_blocks(base, entries)
        assert_same_base(base, build(list(entries)))

    def test_unlabeled_queries_rejected_alike(self, tmp_path):
        _, queries = generate(SynthConfig(seed=5, n_real=2, n_seen_fake=2, n_query_real=3, n_query_zeroday=3))
        write_jsonl(tmp_path / "q.jsonl", (entry_to_json(replace(q, label=None)) for q in queries))
        queries = read_queries_jsonl(tmp_path / "q.jsonl")
        for sequence in (queries, list(queries)):
            with pytest.raises(InvalidLabelError, match=r"^entry 0 \(position 0\) has no label$"):
                build(sequence)

    @pytest.mark.parametrize("source", ["generate", "ingest_jsonl"])
    @pytest.mark.parametrize("width", [3, 10**7, 2**63])
    def test_layout_of_another_width_rejected_alike(self, made, source, width):
        entries = made(source)
        for sequence in (entries, list(entries)):
            with pytest.raises(DimensionMismatchError, match=rf"^entry 0 \(position 0\) has dims \(16, 285\), expected \(16, {width}\)$"):
                build(sequence, simple_layout(width))

    def test_repeated_id_rejected_alike(self, tmp_path):
        entries = make_entries(4)
        write_jsonl(tmp_path / "k.jsonl", (entry_to_json(e) for e in [*entries, replace(entries[1], score=0.5)]))
        read = ingest_jsonl(tmp_path / "k.jsonl")
        for sequence in (read, list(read)):
            with pytest.raises(DuplicateIdError, match=r"^duplicate entry id 1 \(row 4\)$") as exc_info:
                build(sequence)
            assert exc_info.value.entry_id == 1

    @pytest.mark.skipif(not hasattr(os, "pipe"), reason="needs pipes")
    def test_piped_read_keeps_no_doubled_block(self, tmp_path):
        # A pipe is read whole and counted like a file, so its blocks are
        # sized once, with the same shape as the file read's.
        entries, _ = generate(SynthConfig(seed=3, n_real=50, n_seen_fake=50, n_query_real=1, n_query_zeroday=1))
        data = "".join(f"{entry_to_json(e)}\n" for e in entries).encode("utf-8")
        (tmp_path / "k.jsonl").write_bytes(data)
        from_file = build(ingest_jsonl(tmp_path / "k.jsonl"))
        piped = read_through_pipe(ingest_jsonl, data)
        base = build(piped)
        assert shares_blocks(base, piped)
        for matrix, file_matrix in ((base.cm_matrix, from_file.cm_matrix), (base.prof_matrix, from_file.prof_matrix)):
            assert (matrix.shape, matrix.base.shape) == (file_matrix.shape, file_matrix.base.shape)
        assert_same_base(base, build(list(entries)))

    @pytest.mark.skipif(not hasattr(os, "pipe"), reason="needs pipes")
    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("reader", [ingest_jsonl, read_queries_jsonl], ids=["knowledge", "queries"])
    def test_piped_read_is_counted_and_hashed_like_a_file(self, tmp_path, reader, newline):
        # Every line end the text layer splits on is counted, so a pipe's
        # records and block shapes equal the file read's, and both carry the
        # sha256 of the bytes sent, whichever line ends they use.
        entries, _ = generate(SynthConfig(seed=5, n_real=20, n_seen_fake=20, n_query_real=1, n_query_zeroday=1))
        data = "".join(f"{entry_to_json(e)}{newline}" for e in entries).encode("utf-8")
        (tmp_path / "k.jsonl").write_bytes(data)
        from_file, piped = reader(tmp_path / "k.jsonl"), read_through_pipe(reader, data)
        assert piped._sha256 == from_file._sha256 == hashlib.sha256(data).hexdigest()
        assert list(map(entry_to_json, piped)) == list(map(entry_to_json, from_file))
        for space in ("cm", "prof"):
            got, want = piped._columns[space], from_file._columns[space]
            assert (got.shape, got.base.shape) == (want.shape, want.base.shape) == ((40, want.shape[1]), (41, want.shape[1]))


def read_through_pipe(reader, data: bytes):
    """*reader* applied to the read end of an os.pipe that a thread fills with *data*."""
    read_fd, write_fd = os.pipe()

    def write():
        with os.fdopen(write_fd, "wb") as fh:
            fh.write(data)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    records = reader(read_fd)  # the reader's open owns and closes the descriptor
    writer.join(timeout=30)
    assert not writer.is_alive()
    return records


class TestRowViews:
    """Records from generate, the readers and the mask step are read-only
    row views of blocks the package owns; each of them is a record like any
    other to dataclasses.replace."""

    @pytest.fixture(scope="class")
    def sources(self, tmp_path_factory) -> dict:
        entries, queries = generate(SynthConfig(seed=4, n_real=6, n_seen_fake=5, n_query_real=3, n_query_zeroday=2))
        root = tmp_path_factory.mktemp("views")
        write_jsonl(root / "k.jsonl", (entry_to_json(e) for e in entries))
        # Queries built from arrays their caller keeps writing to.
        cm = np.stack([q.cm for q in queries])
        prof = np.stack([q.prof for q in queries])
        own = [replace(q, cm=cm[i], prof=prof[i]) for i, q in enumerate(queries)]
        return {
            "generate": (entries + queries, []),
            "ingest_jsonl": (ingest_jsonl(root / "k.jsonl"), []),
            "read_queries_jsonl": (read_queries_jsonl(root / "k.jsonl"), []),
            "mask_queries": (mask_queries(own, DEFAULT_PROFILE_LAYOUT, AttributeMask({"emotion"})), [cm, prof]),
            "profile_zscore": (profile_zscore(build(entries), [own])[1][0], [cm, prof]),
        }

    SOURCES = ["generate", "ingest_jsonl", "read_queries_jsonl", "mask_queries", "profile_zscore"]

    def test_generate_shares_one_block_per_space(self, sources):
        # Entries and queries are each drawn into one block per space, cluster
        # after cluster; every record views its own row of it.
        records = sources["generate"][0]
        for part in (records[:11], records[11:]):
            for space in ("cm", "prof"):
                block = getattr(part[0], space).base
                assert block.shape == (len(part), getattr(part[0], space).shape[0]), space
                assert all(getattr(r, space).base is block for r in part), space
                assert block.tobytes() == np.stack([getattr(r, space) for r in part]).tobytes(), space
        assert not np.shares_memory(records[0].cm.base, records[11].cm.base)

    @pytest.mark.parametrize("source", SOURCES)
    def test_read_only_and_apart_from_caller_arrays(self, sources, source):
        records, caller_arrays = sources[source]
        base = build([KnowledgeEntry(id=i, cm=r.cm, prof=r.prof, label=0, score=r.score) for i, r in enumerate(records)],
                     simple_layout(records[0].prof.shape[0]))
        for r in records:
            for vec in (r.cm, r.prof):
                assert vec.dtype == np.float32 and vec.ndim == 1 and not vec.flags.writeable
                for arr in (*caller_arrays, base.cm_matrix, base.prof_matrix):
                    assert not np.shares_memory(vec, arr)

    @pytest.mark.parametrize("source", SOURCES)
    @pytest.mark.parametrize("change, error", [
        ({"id": -1}, InvalidIdError),
        ({"cm": np.array([np.nan] * 16)}, NonFiniteValueError),
        ({"prof": [1.0, True]}, NonFiniteValueError),
        ({"prof": []}, DimensionMismatchError),
        ({"score": 1.0}, ScoreOutOfRangeError),
        ({"score": 1.0 - 1e-12}, ScoreOutOfRangeError),  # 1.0 once rounded to float32
        ({"label": 2}, InvalidLabelError),
    ])
    def test_replace_runs_every_check(self, sources, source, change, error):
        record = sources[source][0][0]
        with pytest.raises(error):
            replace(record, **change)

    @pytest.mark.parametrize("source", SOURCES)
    def test_replace_copies_a_caller_array(self, sources, source):
        record = sources[source][0][0]
        cm = np.ones(16, dtype=np.float32)
        again = replace(record, cm=cm)
        assert not again.cm.flags.writeable and not np.shares_memory(again.cm, cm) and cm.flags.writeable
        assert replace(record).cm is record.cm  # a read-only vector is reused, not copied


class TestProfileZscore:
    def test_stats_from_base_applied_to_queries(self, rng):
        from conftest import random_query

        base = random_base(rng, n=200, d_cm=4, d_prof=6)
        queries = [random_query(rng, i, 4, 6) for i in range(5)]
        view, (new_queries,) = profile_zscore(base, [queries])
        # base profile columns become zero-mean, unit-variance
        assert np.allclose(view.prof_matrix.mean(axis=0), 0.0, atol=1e-3)
        assert np.allclose(view.prof_matrix.std(axis=0), 1.0, atol=1e-3)
        # the same affine map is applied to queries
        mean = base.prof_matrix.astype(np.float64).mean(axis=0)
        std = base.prof_matrix.astype(np.float64).std(axis=0)
        expected = ((queries[0].prof - mean) / std).astype(np.float32)
        np.testing.assert_array_equal(new_queries[0].prof, expected)

    @pytest.mark.parametrize("n, d, scale", [(1, 3, 1.0), (7, 5, 1e-20), (1000, 285, 1.0), (333, 17, 1e20)])
    def test_same_bits_as_a_float64_copy(self, rng, n, d, scale):
        # The statistics and both normalized blocks, computed from the float32
        # matrix, have the bits of the one-shot formula over a float64 copy.
        from conftest import random_query

        prof = (rng.standard_normal((n, d)) * scale).astype(np.float32)
        prof[:, 1] = np.float32(0.25 * scale)  # a constant column: centered, not scaled
        base = derived(random_base(rng, n=n, d_cm=2, d_prof=d), prof, simple_layout(d))
        queries = [random_query(rng, i, 2, d) for i in range(9)]
        prof64 = prof.astype(np.float64)
        mean, std = prof64.mean(axis=0), prof64.std(axis=0)
        std[std == 0.0] = 1.0
        view, (got,) = profile_zscore(base, [queries])
        assert view.prof_matrix.tobytes() == ((prof64 - mean) / std).astype(np.float32).tobytes()
        want = ((np.array([q.prof for q in queries]).astype(np.float64) - mean) / std).astype(np.float32)
        assert np.array([q.prof for q in got]).tobytes() == want.tobytes()

    def test_peak_under_four_profile_matrices(self, rng):
        # float64 deviations (2x the float32 matrix) and their float32
        # rounding (1x); a float64 copy of the matrix and its float64
        # temporaries would take the peak to 6x.
        base = random_base(rng, n=20_000, d_cm=2, d_prof=285)
        tracemalloc.start()
        try:
            profile_zscore(base, [])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        matrix = base.prof_matrix.nbytes
        assert peak < 4 * matrix, f"peak {peak / matrix:.2f}x the profile matrix"

    def test_cm_space_untouched(self, rng):
        base = random_base(rng, n=50, d_cm=4)
        view, _ = profile_zscore(base, [])
        assert view.cm_matrix is base.cm_matrix

    def test_float32_overflow_names_query(self, rng, recwarn):
        # std of [0, 1e-40] is tiny but nonzero, so a query value of 1.0
        # scales past the float32 range
        base = random_base(rng, n=2, d_cm=2, d_prof=1)
        base = derived(base, np.array([[0.0], [1e-40]], dtype=np.float32), base.layout)
        query = QueryRecord(id=17, cm=[1.0, 0.0], prof=[1.0], score=0.5)
        with pytest.raises(NonFiniteValueError, match="query 17") as exc_info:
            profile_zscore(base, [[query]])
        assert exc_info.value.index == 0
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("order, error, message", [
        ((0, 1, 2), NonFiniteValueError, "query 17: prof has non-finite value at index 0"),
        ((0, 2, 1), DimensionMismatchError, "query 18: profile has dimension 2, expected 1"),
    ])
    def test_first_bad_query_in_order_reported(self, rng, order, error, message):
        # The queries' profiles are rewritten as one block; the error is still
        # the first bad query's, whether its width or its new value is bad.
        base = random_base(rng, n=2, d_cm=2, d_prof=1)
        base = derived(base, np.array([[0.0], [1e-40]], dtype=np.float32), base.layout)
        queries = [QueryRecord(id=16 + i, cm=[1.0, 0.0], prof=prof, score=0.5) for i, prof in
                   enumerate([[0.0], [1.0], [0.0, 0.0]])]
        with pytest.raises(error) as exc_info:
            profile_zscore(base, [[queries[i] for i in order]])
        assert str(exc_info.value) == message
