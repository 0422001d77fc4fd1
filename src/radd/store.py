"""Knowledge-base construction, persistence, and JSONL ingestion.

A knowledge base is a columnar, immutable snapshot of N labeled reference
utterances: two row-major float32 feature matrices (CM space and profile
space), parallel label/score/id arrays, and precomputed row norms.

On-disk format (all multi-byte values little-endian):

    magic   "RAKB"                       4 bytes
    version u32 (currently 2)
    n       u64
    d_cm    u32
    d_prof  u32
    layout  u32 byte length + UTF-8 "name:width,name:width,..."
    ids     n * u64
    labels  n * u8
    scores  n * f32
    cm      n * d_cm * f32, row-major
    prof    n * d_prof * f32, row-major
    crc     u32, CRC-32 (zlib) over every preceding byte

Loading verifies magic, version, declared size, and checksum, in that
order, before it decodes the layout descriptor; it then maps the columnar
blocks as read-only views over the file bytes, copying a block that lies
misaligned for its type. Version 1 files (CRC-64 trailer) are rejected;
rebuild them from their JSONL. Saving is atomic: the bytes go to a temp
file in the target's directory, which is fsynced and then renamed over the
target, so a failed save leaves any previous file intact.

Ingestion reads line-delimited JSON records produced by an external feature
extraction pipeline; every error is reported with its 1-based line number.
"""

from __future__ import annotations

import copy
import json
import logging
import os
import struct
import zlib
from dataclasses import replace
from pathlib import Path
from typing import Callable, Iterable, Literal, Sequence

import numpy as np

from .errors import (
    BadMagicError,
    ChecksumMismatchError,
    DimensionMismatchError,
    DuplicateIdError,
    EmptyInputError,
    InvalidLabelError,
    InvalidLayoutError,
    NonFiniteValueError,
    ParseError,
    RaddError,
    ScoreOutOfRangeError,
    StoreIOError,
    TruncatedFileError,
    UnsupportedVersionError,
)
from .types import DEFAULT_PROFILE_LAYOUT, KnowledgeEntry, ProfileLayout, QueryRecord

logger = logging.getLogger(__name__)

MAGIC = b"RAKB"
FORMAT_VERSION = 2
_HEADER = struct.Struct("<4sIQII")  # magic, version, n, d_cm, d_prof
_U32 = struct.Struct("<I")  # layout descriptor length; CRC-32 trailer

Space = Literal["cm", "prof"]


# --- knowledge base ----------------------------------------------------------

class KnowledgeBase:
    """Immutable indexed collection of reference utterances.

    All arrays are parallel over the n rows and are read-only after
    construction; the object is safe to share across threads. Retrieval
    reads the float32 matrices and the float64 row norms directly; no
    float64 copy of a matrix is kept.
    """

    def __init__(
        self,
        ids: np.ndarray,
        labels: np.ndarray,
        scores: np.ndarray,
        cm_matrix: np.ndarray,
        prof_matrix: np.ndarray,
        layout: ProfileLayout,
    ):
        self.ids = _frozen(ids, np.uint64)
        self.labels = _frozen(labels, np.uint8)
        self.scores = _frozen(scores, np.float32)
        self.cm_matrix = _frozen(cm_matrix, np.float32)
        if self.cm_matrix.ndim != 2:
            raise DimensionMismatchError("feature matrices must be 2-dimensional")
        self.n, self.d_cm = (int(x) for x in self.cm_matrix.shape)
        if self.n < 1 or self.d_cm < 1:
            raise EmptyInputError("knowledge base needs at least one row and one dimension per space")
        self._set_profile(prof_matrix, layout)
        for name, arr in (("ids", self.ids), ("labels", self.labels), ("scores", self.scores)):
            if arr.shape != (self.n,):
                raise DimensionMismatchError(f"{name} has length {arr.shape}, expected ({self.n},)")
        # One enforcement point for row invariants, whatever the construction
        # path (build, from_arrays, or a checksum-valid but hand-edited file).
        _, first = np.unique(self.ids, return_index=True)
        if first.size != self.n:
            row = int(np.setdiff1d(np.arange(self.n), first)[0])  # first row repeating an earlier id
            dup = int(self.ids[row])
            raise DuplicateIdError(f"duplicate entry id {dup} (row {row})", entry_id=dup)
        if self.labels.max() > 1:
            raise InvalidLabelError("labels must be 0 or 1")
        if not np.isfinite(self.cm_matrix).all():
            raise NonFiniteValueError("feature matrices must be finite")
        smin, smax = float(self.scores.min()), float(self.scores.max())
        if not (np.isfinite(smin) and 0.0 < smin and smax < 1.0):
            raise ScoreOutOfRangeError("scores must lie strictly inside (0, 1)")
        self.cm_norms = _row_norms(self.cm_matrix)

    def _set_profile(self, prof_matrix: np.ndarray, layout: ProfileLayout) -> None:
        """Check *prof_matrix* (2-D, n rows, as wide as *layout*, finite) and
        install it with its norms."""
        prof = _frozen(prof_matrix, np.float32)
        if prof.ndim != 2:
            raise DimensionMismatchError("feature matrices must be 2-dimensional")
        if prof.shape[0] != self.n:
            raise DimensionMismatchError("cm and prof matrices disagree on row count")
        if layout.total_dim != prof.shape[1]:
            raise InvalidLayoutError(f"layout covers {layout.total_dim} dims but prof matrix has {prof.shape[1]}")
        if not np.isfinite(prof).all():
            raise NonFiniteValueError("feature matrices must be finite")
        self.prof_matrix, self.layout, self.d_prof = prof, layout, int(prof.shape[1])
        self.prof_norms = _row_norms(prof)

    def dim(self, space: Space) -> int:
        return self.d_cm if space == "cm" else self.d_prof

    def matrix(self, space: Space) -> np.ndarray:
        return self.cm_matrix if space == "cm" else self.prof_matrix

    def norms(self, space: Space) -> np.ndarray:
        return self.cm_norms if space == "cm" else self.prof_norms

    def matrix64(self, space: Space) -> np.ndarray:
        """A new float64 copy of a feature matrix (for the benchmark; retrieval makes none)."""
        return np.asarray(self.matrix(space), dtype=np.float64)

    def with_profile_matrix(self, prof_matrix: np.ndarray, layout: ProfileLayout) -> "KnowledgeBase":
        """Derived base with a replacement profile matrix (used by masking and
        normalization views). It shares ids, labels, scores, the CM matrix
        and its norms with this base, unchecked; only the new profile matrix
        is checked."""
        view = copy.copy(self)
        view._set_profile(prof_matrix, layout)
        return view

    def __len__(self) -> int:
        return self.n


def _frozen(arr, dtype) -> np.ndarray:
    """*arr* as a read-only, contiguous, aligned (for BLAS) *dtype* array, copied
    if its owner can still write to it (the package's own go through ``_handed``)."""
    out = np.require(arr, dtype, "CA")
    if out is arr and out.flags.writeable:
        out = out.copy()
    out.flags.writeable = False
    return out


def _handed(arr: np.ndarray) -> np.ndarray:
    """A fresh array the package owns, made read-only for ``_frozen``."""
    arr.flags.writeable = False
    return arr


def _row_norms(matrix: np.ndarray) -> np.ndarray:
    norms = np.sqrt(np.einsum("ij,ij->i", matrix, matrix, dtype=np.float64))
    norms.flags.writeable = False
    return norms


def build(entries: Sequence[KnowledgeEntry], layout: ProfileLayout = DEFAULT_PROFILE_LAYOUT) -> KnowledgeBase:
    """Build a knowledge base from validated entries, preserving order:
    the i-th entry becomes row i.

    Raises:
        EmptyInputError: No entries.
        DimensionMismatchError: Entries disagree on dimensions, or the profile
            dimension does not match *layout*.
        DuplicateIdError: Two entries share an id (raised by KnowledgeBase,
            which reports the first repeated id).
    """
    if len(entries) == 0:
        raise EmptyInputError("cannot build a knowledge base from zero entries")
    d_cm = entries[0].cm.shape[0]
    d_prof = entries[0].prof.shape[0]
    if d_prof != layout.total_dim:
        raise DimensionMismatchError(
            f"profile dimension {d_prof} does not match layout total {layout.total_dim}"
        )
    for pos, e in enumerate(entries):
        if e.cm.shape[0] != d_cm or e.prof.shape[0] != d_prof:
            raise DimensionMismatchError(
                f"entry {e.id} (position {pos}) has dims "
                f"({e.cm.shape[0]}, {e.prof.shape[0]}), expected ({d_cm}, {d_prof})"
            )
    ids = np.fromiter((e.id for e in entries), dtype=np.uint64, count=len(entries))
    labels = np.fromiter((e.label for e in entries), dtype=np.uint8, count=len(entries))
    scores = np.fromiter((e.score for e in entries), dtype=np.float32, count=len(entries))
    cm = np.stack([e.cm for e in entries])
    prof = np.stack([e.prof for e in entries])
    return KnowledgeBase(*map(_handed, (ids, labels, scores, cm, prof)), layout)


def from_arrays(
    ids, labels, scores, cm_matrix, prof_matrix, layout: ProfileLayout = DEFAULT_PROFILE_LAYOUT
) -> KnowledgeBase:
    """Bulk constructor from parallel arrays (bypasses per-entry objects;
    intended for generators and tests that build large bases)."""
    return KnowledgeBase(ids, labels, scores, cm_matrix, prof_matrix, layout)


# --- persistence -------------------------------------------------------------

def _atomic_write(path, parts: Iterable) -> None:
    """The one file writer of the package: write the concatenation of
    *parts* (an iterable of bytes-like objects, each written as it arrives,
    so nothing is joined in memory) to *path* so that readers see either the
    previous file or the complete new one.

    The bytes go to a temp file in the same directory, which is fsynced and
    then renamed over *path*; on any failure, including one raised while
    *parts* is produced, the temp file is removed and an existing *path* is
    left untouched. Raises StoreIOError on OS errors.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    try:
        fh = open(tmp, "xb")
    except OSError as exc:
        raise StoreIOError(f"cannot write {path}: {exc}") from exc
    try:
        with fh:
            for part in parts:
                fh.write(part)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise StoreIOError(f"cannot write {path}: {exc}") from exc
        raise


def save(base: KnowledgeBase, path) -> None:
    """Write *base* to *path* in the RAKB binary format, atomically."""
    desc = base.layout.to_descriptor().encode("utf-8")
    # The arrays are C-contiguous, so they are checksummed and written
    # through the buffer protocol without a bytes copy.
    parts = [
        _HEADER.pack(MAGIC, FORMAT_VERSION, base.n, base.d_cm, base.d_prof),
        _U32.pack(len(desc)),
        desc,
        base.ids.astype("<u8", copy=False),
        base.labels,
        base.scores.astype("<f4", copy=False),
        base.cm_matrix.astype("<f4", copy=False),
        base.prof_matrix.astype("<f4", copy=False),
    ]
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    _atomic_write(path, [*parts, _U32.pack(crc)])


def load(path) -> KnowledgeBase:
    """Read a knowledge base written by :func:`save`.

    The returned base's arrays are views over the file bytes (misaligned
    blocks are copied). Raises BadMagicError, UnsupportedVersionError,
    TruncatedFileError, ChecksumMismatchError, or StoreIOError as appropriate.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise StoreIOError(f"cannot read knowledge base from {path}: {exc}") from exc
    if len(data) < 4:
        raise TruncatedFileError(f"{path}: file too short to hold a header ({len(data)} bytes)")
    if data[:4] != MAGIC:
        raise BadMagicError(f"{path}: bad magic {data[:4]!r}, expected {MAGIC!r}")
    if len(data) < _HEADER.size + _U32.size:
        raise TruncatedFileError(f"{path}: truncated header ({len(data)} bytes)")
    _, version, n, d_cm, d_prof = _HEADER.unpack_from(data, 0)
    if version != FORMAT_VERSION:
        raise UnsupportedVersionError(
            f"{path}: format version {version}, expected {FORMAT_VERSION}; "
            "rebuild the base from its knowledge JSONL with `radd build`"
        )
    (desc_len,) = _U32.unpack_from(data, _HEADER.size)
    desc_start = _HEADER.size + _U32.size
    offset = desc_start + desc_len

    sizes = [n * 8, n * 1, n * 4, n * d_cm * 4, n * d_prof * 4]
    expected = offset + sum(sizes) + _U32.size
    if len(data) < expected:
        raise TruncatedFileError(
            f"{path}: file has {len(data)} bytes but header declares {expected}"
        )
    if len(data) > expected:
        raise TruncatedFileError(
            f"{path}: {len(data) - expected} bytes of trailing data after checksum"
        )
    (stored_crc,) = _U32.unpack_from(data, expected - _U32.size)
    actual_crc = zlib.crc32(memoryview(data)[: expected - _U32.size])
    if stored_crc != actual_crc:
        raise ChecksumMismatchError(
            f"{path}: checksum mismatch (stored {stored_crc:#010x}, computed {actual_crc:#010x})"
        )
    layout = ProfileLayout.from_descriptor(data[desc_start:offset].decode("utf-8"))

    ids = np.frombuffer(data, dtype="<u8", count=n, offset=offset)
    offset += sizes[0]
    labels = np.frombuffer(data, dtype=np.uint8, count=n, offset=offset)
    offset += sizes[1]
    scores = np.frombuffer(data, dtype="<f4", count=n, offset=offset)
    offset += sizes[2]
    cm = np.frombuffer(data, dtype="<f4", count=n * d_cm, offset=offset).reshape(n, d_cm)
    offset += sizes[3]
    prof = np.frombuffer(data, dtype="<f4", count=n * d_prof, offset=offset).reshape(n, d_prof)
    return KnowledgeBase(ids, labels, scores, cm, prof, layout)


# --- JSONL ingestion ---------------------------------------------------------

def _parse_vector(obj: dict, key: str, expected: int | None) -> list:
    values = obj.get(key)
    if not isinstance(values, list) or not values:
        raise ParseError(f"field {key!r} must be a non-empty array")
    if expected is not None and len(values) != expected:
        raise DimensionMismatchError(f"field {key!r} has length {len(values)}, expected {expected}")
    return values


def _parse_record(obj: dict, d_cm: int | None, d_prof: int, record_type):
    """Check the JSON shape of one record; *record_type* validates the values
    (id, label, score, finite vectors)."""
    if not isinstance(obj, dict):
        raise ParseError(f"record must be a JSON object, got {type(obj).__name__}")
    if "id" not in obj:
        raise ParseError("record is missing required field 'id'")
    if "score" not in obj:
        raise ParseError("record is missing required field 'score'")
    score = obj["score"]
    if isinstance(score, bool) or not isinstance(score, (int, float)):
        raise ParseError(f"field 'score' must be a number, got {score!r}")
    cm = _parse_vector(obj, "cm", d_cm)
    prof = _parse_vector(obj, "prof", d_prof)
    meta = obj.get("meta")
    if meta is not None and not isinstance(meta, str):
        raise ParseError(f"field 'meta' must be a string, got {meta!r}")
    fields = {"id": obj["id"], "cm": cm, "prof": prof, "score": score, "label": obj.get("label")}
    if record_type is KnowledgeEntry:
        fields["meta"] = meta  # query records carry no meta; it is validated, then dropped
    return record_type(**fields)


def _read_jsonl(path, layout: ProfileLayout, record_type) -> list:
    """Parse a JSONL file into *record_type* objects (KnowledgeEntry, whose
    label is required, or QueryRecord), preserving line order. The CM
    dimension is fixed by the first record; the profile dimension must match
    *layout*. Every error carries the offending 1-based line number."""
    records = []
    d_cm: int | None = None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    try:
                        obj = json.loads(line)
                    except json.JSONDecodeError as exc:
                        raise ParseError(f"invalid JSON: {exc}") from exc
                    record = _parse_record(obj, d_cm, layout.total_dim, record_type)
                except RaddError as exc:
                    exc.args = (f"line {lineno}: {exc}",)
                    exc.line = lineno
                    raise
                if d_cm is None:
                    d_cm = record.cm.shape[0]
                records.append(record)
    except OSError as exc:
        raise StoreIOError(f"cannot read {path}: {exc}") from exc
    return records


def ingest_jsonl(path, layout: ProfileLayout = DEFAULT_PROFILE_LAYOUT) -> list[KnowledgeEntry]:
    """Parse a knowledge JSONL file into entries, preserving line order.

    Degenerate all-zero feature rows are accepted but counted and logged,
    since their retrieval behavior is the similarity sentinel, not a crash.
    """
    entries = _read_jsonl(path, layout, KnowledgeEntry)
    zero_rows = sum(1 for e in entries if not e.cm.any() or not e.prof.any())
    if zero_rows:
        logger.warning("%s: %d entries have an all-zero feature vector", path, zero_rows)
    return entries


def read_queries_jsonl(path, layout: ProfileLayout = DEFAULT_PROFILE_LAYOUT) -> list[QueryRecord]:
    """Parse a query JSONL file (same record schema; label optional)."""
    return _read_jsonl(path, layout, QueryRecord)


def entry_to_json(record: KnowledgeEntry | QueryRecord) -> str:
    """One JSONL line for a knowledge entry or a query record, with keys in
    the order id, label (if set), score, cm, prof, meta (if set)."""
    obj: dict = {"id": record.id}
    if record.label is not None:
        obj["label"] = record.label
    obj["score"] = record.score
    # float32 -> Python float is exact, and json emits the shortest repr,
    # so writing and re-ingesting restores identical float32 bits.
    obj["cm"] = record.cm.tolist()
    obj["prof"] = record.prof.tolist()
    meta = getattr(record, "meta", None)
    if meta is not None:
        obj["meta"] = meta
    return json.dumps(obj, separators=(",", ":"))


query_to_json = entry_to_json


def write_jsonl(path, lines: Iterable[str]) -> None:
    """Write each string of *lines* as one UTF-8 line, atomically."""
    _atomic_write(path, (f"{line}\n".encode("utf-8") for line in lines))


# --- query profile rewrites --------------------------------------------------

def _map_profiles(
    queries: Sequence[QueryRecord], d_prof: int, fn: Callable[[np.ndarray], np.ndarray]
) -> list[QueryRecord]:
    """Each query with its profile vector replaced by ``fn(prof)`` (validated
    as a QueryRecord field), after checking the vector is *d_prof* wide. Any
    error names the query."""
    out = []
    for q in queries:
        try:
            if q.prof.shape[0] != d_prof:
                raise DimensionMismatchError(f"profile has dimension {q.prof.shape[0]}, expected {d_prof}")
            out.append(replace(q, prof=fn(q.prof)))
        except RaddError as exc:
            exc.args = (f"query {q.id}: {exc}",)
            raise
    return out


def profile_zscore(
    base: KnowledgeBase, queries: Sequence[QueryRecord]
) -> tuple[KnowledgeBase, list[QueryRecord]]:
    """Per-dimension z-score normalization of the profile space.

    Statistics (mean, standard deviation) are computed on the knowledge base
    only and applied identically to base rows and queries, so the two sides
    stay comparable. Zero-variance dimensions are centered but not scaled.
    Off by default; the raw concatenated profile is the canonical behavior.

    Raises:
        NonFiniteValueError: A normalized query value overflows float32 (a
            tiny but nonzero base deviation); the message names the query.
    """
    prof64 = base.prof_matrix.astype(np.float64)
    mean = prof64.mean(axis=0)
    std = prof64.std(axis=0)
    std[std == 0.0] = 1.0
    view = base.with_profile_matrix(_handed(((prof64 - mean) / std).astype(np.float32)), base.layout)
    # The float64 result is rounded to float32 by QueryRecord, which rejects
    # an overflow to inf without a RuntimeWarning.
    return view, _map_profiles(queries, base.d_prof, lambda prof: (prof.astype(np.float64) - mean) / std)
