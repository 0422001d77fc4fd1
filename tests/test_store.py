from __future__ import annotations

import ast
import errno
import io
import json
import struct
from pathlib import Path

import numpy as np
import pytest

from conftest import random_base, simple_layout
from radd import store
from radd.ablation import AttributeMask, mask_base
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
from radd.types import DEFAULT_PROFILE_LAYOUT, KnowledgeEntry, ProfileLayout, QueryRecord


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
        # build, mask_base and profile_zscore hand their fresh arrays over
        # read-only, so the base keeps each one as it is; an array that its
        # caller can still write to is copied, and stays writeable.
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
        assert adopted == [True] * 7  # 5 arrays in build, one profile matrix in each view
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


class TestDerivedView:
    def test_shares_parent_state_and_checks_only_the_new_profile(self, rng, monkeypatch):
        base = random_base(rng, n=30, d_cm=5, d_prof=4)
        new_prof = rng.standard_normal((30, 2)).astype(np.float32)
        norms_calls = []
        row_norms = store._row_norms

        def counting_row_norms(matrix):
            norms_calls.append(matrix.shape)
            return row_norms(matrix)

        monkeypatch.setattr(store, "_row_norms", counting_row_norms)
        view = base.with_profile_matrix(new_prof, simple_layout(2))
        assert norms_calls == [(30, 2)]
        for name in ("ids", "labels", "scores", "cm_matrix", "cm_norms"):
            assert getattr(view, name) is getattr(base, name)
        assert (view.n, view.d_cm, view.d_prof, base.d_prof) == (30, 5, 2, 4)
        assert view.prof_matrix.tobytes() == new_prof.tobytes()
        assert view.prof_norms.tobytes() == row_norms(new_prof).tobytes()
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
                base.with_profile_matrix(prof, layout)
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
        for version in (99, 1):  # a future format, and the CRC-64 format v1
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
        # cut inside the cm block: drop the prof block, checksum, and half the cm rows
        cut = len(data) - 8 - base.n * base.d_prof * 4 - (base.n // 2) * base.d_cm * 4
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

    def test_loaded_arrays_aligned(self, tmp_path, rng):
        # The layout descriptor's length moves every block, so a block can
        # lie misaligned in the file; a misaligned float32 matrix would make
        # numpy skip BLAS in the retrieval matrix product.
        path = tmp_path / "b.rakb"
        for name_len in range(1, 9):
            base = random_base(rng, 5, 3, d_prof=2)
            save(base.with_profile_matrix(base.prof_matrix, ProfileLayout((("x" * name_len, 2),))), path)
            other = load(path)
            for arr in (other.ids, other.labels, other.scores, other.cm_matrix, other.prof_matrix):
                assert arr.flags.aligned and arr.flags.c_contiguous and not arr.flags.writeable
            assert other.cm_matrix.tobytes() == base.cm_matrix.tobytes()


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

    def test_queries_label_optional(self, tmp_path):
        layout = simple_layout(3)
        obj = json.loads(self.record(0))
        del obj["label"]
        path = self.write_lines(tmp_path, [json.dumps(obj), self.record(1)])
        queries = read_queries_jsonl(path, layout)
        assert queries[0].label is None and queries[1].label == 1

    def test_zero_vector_warning(self, tmp_path, caplog):
        layout = simple_layout(3)
        path = self.write_lines(tmp_path, [self.record(0, cm=[0.0, 0.0, 0.0, 0.0])])
        with caplog.at_level("WARNING", logger="radd.store"):
            entries = ingest_jsonl(path, layout)
        assert len(entries) == 1
        assert any("all-zero" in rec.message for rec in caplog.records)

    def test_jsonl_round_trip_bit_exact(self, tmp_path, rng):
        layout = simple_layout(5)
        original = [
            KnowledgeEntry(
                id=i,
                cm=rng.standard_normal(6).astype(np.float32),
                prof=rng.standard_normal(5).astype(np.float32),
                label=int(rng.integers(0, 2)),
                score=float(rng.uniform(0.01, 0.99)),
                meta="tag" if i % 2 else None,
            )
            for i in range(20)
        ]
        path = tmp_path / "round.jsonl"
        write_jsonl(path, (entry_to_json(e) for e in original))
        again = ingest_jsonl(path, layout)
        for a, b in zip(original, again):
            assert a.id == b.id and a.label == b.label and a.meta == b.meta
            assert a.score == b.score
            assert a.cm.tobytes() == b.cm.tobytes()
            assert a.prof.tobytes() == b.prof.tobytes()


class TestProfileZscore:
    def test_stats_from_base_applied_to_queries(self, rng):
        from conftest import random_query

        base = random_base(rng, n=200, d_cm=4, d_prof=6)
        queries = [random_query(rng, i, 4, 6) for i in range(5)]
        view, new_queries = profile_zscore(base, queries)
        # base profile columns become zero-mean, unit-variance
        assert np.allclose(view.prof_matrix.mean(axis=0), 0.0, atol=1e-3)
        assert np.allclose(view.prof_matrix.std(axis=0), 1.0, atol=1e-3)
        # the same affine map is applied to queries
        mean = base.prof_matrix.astype(np.float64).mean(axis=0)
        std = base.prof_matrix.astype(np.float64).std(axis=0)
        expected = ((queries[0].prof - mean) / std).astype(np.float32)
        np.testing.assert_array_equal(new_queries[0].prof, expected)

    def test_cm_space_untouched(self, rng):
        base = random_base(rng, n=50, d_cm=4)
        view, _ = profile_zscore(base, [])
        assert view.cm_matrix is base.cm_matrix

    def test_float32_overflow_names_query(self, rng, recwarn):
        # std of [0, 1e-40] is tiny but nonzero, so a query value of 1.0
        # scales past the float32 range
        base = random_base(rng, n=2, d_cm=2, d_prof=1)
        base = base.with_profile_matrix(np.array([[0.0], [1e-40]], dtype=np.float32), base.layout)
        query = QueryRecord(id=17, cm=[1.0, 0.0], prof=[1.0], score=0.5)
        with pytest.raises(NonFiniteValueError, match="query 17") as exc_info:
            profile_zscore(base, [query])
        assert exc_info.value.index == 0
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
