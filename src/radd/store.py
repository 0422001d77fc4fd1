"""Knowledge-base construction, persistence, and JSONL ingestion.

A knowledge base is a columnar, immutable snapshot of N labeled reference
utterances: two row-major float32 feature matrices (CM space and profile
space), parallel label/score/id arrays, and precomputed row norms.

On-disk format, version 3 (all multi-byte values little-endian):

    magic   "RAKB"                       4 bytes
    version u32 (currently 3)
    n       u64
    d_cm    u32
    d_prof  u32
    layout  u32 byte length + UTF-8 "name:width,name:width,..."
    pad     zero bytes up to the next multiple of 64
    ids     n * u64
    scores  n * f32
    cm      n * d_cm * f32, row-major
    prof    n * d_prof * f32, row-major
    labels  n * u8
    crc     u32, CRC-32 (zlib) over every preceding byte

The blocks run widest element first, so the pad aligns each for its type.
Loading verifies magic, version, declared size, and checksum, in that
order, before it decodes the layout descriptor; it then maps the columnar
blocks as read-only views over the file bytes. Version 1 and 2 files are
rejected; rebuild them from their JSONL. Saving is atomic: the bytes go to
a temp file in the target's directory, which is fsynced and then renamed
over the target, so a failed save leaves any previous file intact.

Ingestion parses each line of an external pipeline's JSONL once, into one
float32 block per space that ``types._records_of_blocks`` checks once and
turns into read-only row views; every error is the one a record-by-record
read meets first, reported with its 1-based line number. The query profile
rewrites (a mask, z-scoring) make their records through the same step, from
one new profile block per query set, and report an error by query id.
radd's writer gives every float32 field at most 9 significant digits, exactly.
"""

from __future__ import annotations

import hashlib
import io
import json
import logging
import math
import os
import struct
import zlib
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path
from typing import Callable, Iterable, Literal, Sequence

import numpy as np

from .errors import (
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
    RaddError,
    ScoreOutOfRangeError,
    StoreIOError,
    TruncatedFileError,
    UnsupportedVersionError,
)
from .types import (
    DEFAULT_PROFILE_LAYOUT,
    KnowledgeEntry,
    ProfileLayout,
    QueryRecord,
    _MAX_ID,
    _Records,
    _records_of_blocks,
    _scores32,
    _validate_meta,
)

logger = logging.getLogger(__name__)

MAGIC = b"RAKB"
FORMAT_VERSION = 3
_HEADER = struct.Struct("<4sIQIII")  # magic, version, n, d_cm, d_prof, layout descriptor length
_CRC = struct.Struct("<I")  # CRC-32 trailer
_ALIGN = 64  # the header and descriptor are zero-padded to a multiple of this

Space = Literal["cm", "prof"]


# --- knowledge base ----------------------------------------------------------

class KnowledgeBase:
    """Immutable indexed collection of reference utterances.

    All arrays are parallel over the n rows and are read-only after
    construction; the object is safe to share across threads. Retrieval
    reads the float32 matrices and the float64 row norms directly; no
    float64 copy of a matrix is kept. A derived base (a masked or normalized
    profile space) comes from this constructor too: it adopts the parent's
    read-only arrays as they are, and recomputes only the norms. ``build``
    hands it the read-only blocks of an unchanged entry list from
    ``generate`` or ``ingest_jsonl``, which the base then shares, and a
    row-by-row copy of any other sequence.
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
        self.ids = _frozen(_exact(ids, "iu", InvalidIdError, "ids must be integers in [0, 2**64)", _MAX_ID), np.uint64)
        self.labels = _frozen(_exact(labels, "iu", InvalidLabelError, "labels must be the integer 0 or 1", 1), np.uint8)
        self.scores = _frozen(_exact(scores, "fiu", ScoreOutOfRangeError, "scores must be numbers"), np.float32)
        self.cm_matrix = _frozen(_exact(cm_matrix), np.float32)
        self.cm_norms = _row_norms(self.cm_matrix)
        self.n, self.d_cm = (int(x) for x in self.cm_matrix.shape)
        if self.n < 1 or self.d_cm < 1:
            raise EmptyInputError("knowledge base needs at least one row and one dimension per space")
        self.prof_matrix = _frozen(_exact(prof_matrix), np.float32)
        self.prof_norms = _row_norms(self.prof_matrix)
        rows, self.d_prof = (int(x) for x in self.prof_matrix.shape)
        if rows != self.n:
            raise DimensionMismatchError("cm and prof matrices disagree on row count")
        if layout.total_dim != self.d_prof:
            raise InvalidLayoutError(f"layout covers {layout.total_dim} dims but prof matrix has {self.d_prof}")
        self.layout = layout
        for name, arr in (("ids", self.ids), ("labels", self.labels), ("scores", self.scores)):
            if arr.shape != (self.n,):
                raise DimensionMismatchError(f"{name} has length {arr.shape}, expected ({self.n},)")
        # One enforcement point for row invariants, whatever made the arrays:
        # build, from_arrays, a derived view or a checksum-valid hand-edited file.
        _, first = np.unique(self.ids, return_index=True)
        if first.size != self.n:
            row = int(np.setdiff1d(np.arange(self.n), first)[0])  # first row repeating an earlier id
            dup = int(self.ids[row])
            raise DuplicateIdError(f"duplicate entry id {dup} (row {row})", entry_id=dup)
        if not _scores32(self.scores)[1].all():
            raise ScoreOutOfRangeError("scores must lie strictly inside (0, 1)")

    def dim(self, space: Space) -> int:
        return self.d_cm if space == "cm" else self.d_prof

    def matrix(self, space: Space) -> np.ndarray:
        return self.cm_matrix if space == "cm" else self.prof_matrix

    def norms(self, space: Space) -> np.ndarray:
        return self.cm_norms if space == "cm" else self.prof_norms

    def matrix64(self, space: Space) -> np.ndarray:
        """A new float64 copy of a feature matrix (for the benchmark; retrieval makes none)."""
        return np.asarray(self.matrix(space), dtype=np.float64)


def _exact(
    values, kinds="fiu", error=NonFiniteValueError, message="feature matrices must hold only numbers", top=None
) -> np.ndarray:
    """*values* as an array of a dtype kind in *kinds* and, with *top*, values in
    [0, *top*], checked before ``_frozen`` parses, truncates or wraps them."""
    try:
        arr = np.asarray(values)
        if arr.dtype.kind in "fO" and top is not None and all(type(v) is int and 0 <= v <= top for v in values):
            arr = np.array(values, np.uint64)  # numpy types a list of ints past int64 and small ones as float64
    except (TypeError, ValueError) as exc:  # a ragged list, or a lone number
        raise error(f"{message}: {exc}") from None
    if arr.dtype.kind not in kinds or top is not None and arr.size and not 0 <= int(arr.min()) <= int(arr.max()) <= top:
        raise error(message)
    # numpy types a list that mixes booleans with numbers as numbers
    if not isinstance(values, np.ndarray) and any(isinstance(v, (bool, np.bool_)) for v in np.array(values, object).flat):
        raise error(message)
    return arr


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
    """The float64 row norms of a feature matrix, the one check of both
    spaces' matrices: 2-D and finite. A finite float32 row's squares cannot
    overflow float64, so the norms are finite exactly when the row is, and
    the check makes no temporary as large as the matrix."""
    if matrix.ndim != 2:
        raise DimensionMismatchError("feature matrices must be 2-dimensional")
    norms = np.sqrt(np.einsum("ij,ij->i", matrix, matrix, dtype=np.float64))
    if not np.isfinite(norms).all():
        raise NonFiniteValueError("feature matrices must be finite")
    norms.flags.writeable = False
    return norms


def build(entries: Sequence[KnowledgeEntry], layout: ProfileLayout = DEFAULT_PROFILE_LAYOUT) -> KnowledgeBase:
    """Build a knowledge base from validated entries, preserving order:
    the i-th entry becomes row i.

    A list from ``generate`` or ``ingest_jsonl`` that still holds exactly
    the entries it was made with, in order, hands over the read-only blocks
    its entries view, which the base shares; any other sequence is copied
    row by row. Both go through every check of KnowledgeBase.

    Raises:
        EmptyInputError: No entries.
        DimensionMismatchError: An entry's CM width differs from the first
            entry's, or its profile width from *layout*.
        InvalidLabelError: An entry has no label (an unlabeled QueryRecord).
        DuplicateIdError: Two entries share an id (raised by KnowledgeBase,
            which reports the first repeated id).
    """
    if len(entries) == 0:
        raise EmptyInputError("cannot build a knowledge base from zero entries")
    n, d_cm, d_prof = len(entries), entries[0].cm.shape[0], layout.total_dim
    kept = entries.unchanged_columns() if isinstance(entries, _Records) else None
    if kept is not None and isinstance(entries[0], KnowledgeEntry) and kept["prof"].shape[1] == d_prof:
        ids, labels = np.array(kept["id"], np.uint64), np.array(kept["label"], np.uint8)
        scores, cm, prof = kept["score"], kept["cm"], kept["prof"]
    else:
        for pos, e in enumerate(entries):
            if e.cm.shape[0] != d_cm or e.prof.shape[0] != d_prof:
                raise DimensionMismatchError(
                    f"entry {e.id} (position {pos}) has dims "
                    f"({e.cm.shape[0]}, {e.prof.shape[0]}), expected ({d_cm}, {d_prof})"
                )
            if e.label is None:
                raise InvalidLabelError(f"entry {e.id} (position {pos}) has no label")
            if not pos:  # sized once a row has the layout's width, so a bad layout allocates nothing
                ids, labels, scores = np.empty(n, np.uint64), np.empty(n, np.uint8), np.empty(n, np.float32)
                cm, prof = np.empty((n, d_cm), np.float32), np.empty((n, d_prof), np.float32)
            ids[pos], labels[pos], scores[pos], cm[pos], prof[pos] = e.id, e.label, e.score, e.cm, e.prof
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
    left untouched. Raises StoreIOError on OS errors and for a path with
    no file name, such as ``.``.
    """
    path = Path(path)
    try:
        tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")  # ValueError if the name is empty
        fh = open(tmp, "xb")
    except (OSError, ValueError) as exc:
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


def _blocks(n: int, d_cm: int, d_prof: int) -> tuple:
    """The column blocks of a file in order: (KnowledgeBase attribute, dtype,
    shape), widest element first so the padded header aligns every block."""
    return (
        ("ids", np.dtype("<u8"), (n,)),
        ("scores", np.dtype("<f4"), (n,)),
        ("cm_matrix", np.dtype("<f4"), (n, d_cm)),
        ("prof_matrix", np.dtype("<f4"), (n, d_prof)),
        ("labels", np.dtype("u1"), (n,)),
    )


def save(base: KnowledgeBase, path) -> None:
    """Write *base* to *path* in the RAKB binary format, atomically."""
    desc = base.layout.to_descriptor().encode("utf-8")
    head = _HEADER.pack(MAGIC, FORMAT_VERSION, base.n, base.d_cm, base.d_prof, len(desc)) + desc
    # The arrays are C-contiguous, so they are checksummed and written
    # through the buffer protocol without a bytes copy.
    blocks = _blocks(base.n, base.d_cm, base.d_prof)
    parts = [head, bytes(-len(head) % _ALIGN), *(getattr(base, name).astype(dtype, copy=False) for name, dtype, _ in blocks)]
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    _atomic_write(path, [*parts, _CRC.pack(crc)])


def load(path) -> KnowledgeBase:
    """Read a knowledge base written by :func:`save`.

    The returned base's arrays are read-only views over the file bytes, which
    it keeps as ``_data`` for the CLI to hash; a load itself hashes nothing.
    Raises BadMagicError, UnsupportedVersionError, TruncatedFileError,
    ChecksumMismatchError, or StoreIOError as appropriate.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise StoreIOError(f"cannot read knowledge base from {path}: {exc}") from exc
    if len(data) < 4:
        raise TruncatedFileError(f"{path}: file too short to hold a header ({len(data)} bytes)")
    if data[:4] != MAGIC:
        raise BadMagicError(f"{path}: bad magic {data[:4]!r}, expected {MAGIC!r}")
    if len(data) < _HEADER.size:
        raise TruncatedFileError(f"{path}: truncated header ({len(data)} bytes)")
    _, version, n, d_cm, d_prof, desc_len = _HEADER.unpack_from(data, 0)
    if version != FORMAT_VERSION:
        raise UnsupportedVersionError(
            f"{path}: format version {version}, expected {FORMAT_VERSION}; "
            "rebuild the base from its knowledge JSONL with `radd build`"
        )
    start = _HEADER.size + desc_len
    start += -start % _ALIGN
    blocks = _blocks(n, d_cm, d_prof)
    expected = start + sum(dtype.itemsize * math.prod(shape) for _, dtype, shape in blocks) + _CRC.size
    if len(data) < expected:
        raise TruncatedFileError(f"{path}: file has {len(data)} bytes but header declares {expected}")
    if len(data) > expected:
        raise TruncatedFileError(f"{path}: {len(data) - expected} bytes of trailing data after checksum")
    (stored_crc,) = _CRC.unpack_from(data, expected - _CRC.size)
    actual_crc = zlib.crc32(memoryview(data)[: expected - _CRC.size])
    if stored_crc != actual_crc:
        raise ChecksumMismatchError(
            f"{path}: checksum mismatch (stored {stored_crc:#010x}, computed {actual_crc:#010x})"
        )
    try:
        layout = ProfileLayout.from_descriptor(data[_HEADER.size : _HEADER.size + desc_len].decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise InvalidLayoutError(f"{path}: layout descriptor is not UTF-8 text: {exc}") from None

    arrays, offset = {}, start
    for name, dtype, shape in blocks:
        arrays[name] = np.frombuffer(data, dtype, math.prod(shape), offset).reshape(shape)
        offset += arrays[name].nbytes
    base = KnowledgeBase(layout=layout, **arrays)
    base._data = data  # the arrays view these bytes, so keeping them costs no memory
    return base


# --- JSONL ingestion ---------------------------------------------------------

_REQUIRED_KEYS = ("id", "score", "cm", "prof")


@contextmanager
def _at(place: str, number: int):
    """Prefix a RaddError raised inside with where it was met: ``line 7: ``
    for a reader's 1-based line, which also sets the error's ``.line``, or
    ``query 17: `` for a query id."""
    try:
        yield
    except RaddError as exc:
        exc.args = (f"{place} {number}: {exc}",)
        if place == "line":
            exc.line = number
        raise


def _object_of_line(line: str) -> dict:
    """The file-level rules of a line, with their messages: UTF-8 text holding
    a JSON object with the required keys and a string or no meta."""
    if not line.isascii():
        try:
            line.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ParseError(f"not UTF-8 text: byte {ord(line[exc.start]) - 0xDC00:#04x}") from None
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError(f"record must be a JSON object, got {type(obj).__name__}")
    missing = [key for key in _REQUIRED_KEYS if key not in obj]
    if missing:
        raise ParseError(f"record is missing required field {missing[0]!r}")
    _validate_meta(obj.get("meta"))
    return obj


def _put_fields(obj: dict, record_type, widths: dict, put_row: Callable) -> None:
    """The field checks of a line's object. One that passes a fast test (an
    id, a float score inside (0, 1), a label, and vectors of the widths
    holding only JSON numbers) fixes ``widths["cm"]`` and goes to *put_row*.
    One that fails it, or holds an int past the float range (*put_row*
    returns False), is built through *record_type*, which raises its error,
    or else the width check does: the test fails exactly when one of them
    raises."""
    id_, cm, prof, score, label = obj["id"], obj["cm"], obj["prof"], obj["score"], obj.get("label")
    if (
        type(id_) is int and 0 <= id_ <= _MAX_ID and type(score) is float and 0.0 < score < 1.0
        and (type(label) is int and 0 <= label <= 1 or label is None and record_type is QueryRecord)
        and type(cm) is list and type(prof) is list
        and 0 < len(cm) == (widths["cm"] or len(cm)) and len(prof) == widths["prof"]
        and {float, int} >= set(map(type, cm)) and {float, int} >= set(map(type, prof))
    ):
        widths["cm"] = len(cm)
        if put_row(cm, prof):
            return
    record = record_type(**{f.name: obj.get(f.name) for f in fields(record_type)})
    for key, width in widths.items():
        got = getattr(record, key).shape[0]
        if width and got != width:
            raise DimensionMismatchError(f"field {key!r} has length {got}, expected {width}")
    raise AssertionError("an object that fails the field test fails a record check")


def _read_jsonl(path, layout: ProfileLayout, record_type) -> _Records:
    """Parse a JSONL file into *record_type* objects (KnowledgeEntry, whose
    label is required, or QueryRecord, which drops ``meta``), preserving line
    order. The first record fixes the CM width and *layout* the profile
    width. Every error carries its 1-based line.

    Each line is parsed once (``_object_of_line``), and ``_put_fields`` puts
    its vectors straight into one block per space, sized by a first pass over
    the file (or a pipe, read whole into memory) that counts the line ends
    the text layer splits on and takes the sha256, the records' ``_sha256``.
    The blocks become records through ``_records_of_blocks``. The rows before
    a line that fails are checked first, so the error raised is the one a
    record-by-record read meets first. A file that grew or shrank since its count raises StoreIOError."""
    widths = {"cm": None, "prof": layout.total_dim}
    columns, linenos = {key: [] for key in ("id", "score", "label", "meta")}, []
    blocks = [np.empty((0, 0), np.float32)] * 2  # sized by the first row whose widths pass
    error = None

    def put_row(cm, prof) -> bool:
        # The vectors into the next row of the blocks, sized once; False for an int past the float range.
        row = len(linenos)
        if row == len(blocks[0]):
            if row:
                raise StoreIOError(f"{path} changed while it was read")
            capacity = min(newlines, size // (2 * (widths["cm"] + widths["prof"]))) + 1  # >= 2 bytes per element
            blocks[:] = (np.empty((capacity, width), np.float32) for width in widths.values())
        try:
            blocks[0][row], blocks[1][row] = cm, prof
        except OverflowError:
            return False
        return True

    try:
        with open(path, "rb") as fh:
            data = fh if fh.seekable() else io.BytesIO(fh.read())  # a pipe is read whole, as load reads a piped base
            newlines, size, digest = 0, 0, hashlib.sha256()
            for chunk in iter(lambda: data.read(1 << 20), b""):
                # A line ends at \n, \r\n or a lone \r; a \r\n split across chunks counts twice (an overcount).
                newlines += chunk.count(b"\n") + (chunk.count(b"\r") - chunk.count(b"\r\n") if b"\r" in chunk else 0)
                size += len(chunk)
                digest.update(chunk)
            data.seek(0)
            # Non-UTF-8 bytes decode to lone surrogates, which no UTF-8 text holds: each is caught on its line.
            text = io.TextIOWrapper(data, encoding="utf-8", errors="surrogateescape")  # named: dropped, it closes data
            with np.errstate(over="ignore"):  # a float32 overflow becomes inf, which the block check rejects
                for lineno, line in enumerate(text, start=1):
                    if not line.strip():
                        continue
                    try:
                        obj = _object_of_line(line)
                        _put_fields(obj, record_type, widths, put_row)
                    except RaddError as exc:
                        error = exc
                        break
                    for key, column in columns.items():
                        column.append(obj.get(key))
                    linenos.append(lineno)
            if error is None and data.tell() != size:
                raise StoreIOError(f"{path} changed while it was read")
    except OSError as exc:
        raise StoreIOError(f"cannot read {path}: {exc}") from exc
    if len(blocks[0]) > len(linenos) + 1:  # blank lines left spare rows: cut them, so no record keeps them alive
        blocks[:] = (block[: len(linenos)].copy() for block in blocks)
    # The rows before a failing line are checked first: an earlier row's error comes first.
    records = _records_of_blocks(
        record_type, columns, {"cm": blocks[0], "prof": blocks[1]}, lambda row: _at("line", linenos[row])
    )
    if error is not None:
        with _at("line", lineno):
            raise error
    records._sha256 = digest.hexdigest()
    return records


def ingest_jsonl(path, layout: ProfileLayout = DEFAULT_PROFILE_LAYOUT) -> list[KnowledgeEntry]:
    """Parse a knowledge JSONL file into entries, preserving line order.

    Degenerate all-zero feature rows are accepted but counted and logged,
    since their retrieval behavior is the similarity sentinel, not a crash.
    """
    entries = _read_jsonl(path, layout, KnowledgeEntry)
    cm, prof = entries._columns["cm"], entries._columns["prof"]
    zero_rows = np.count_nonzero(~cm.any(axis=1) | ~prof.any(axis=1))
    if zero_rows:
        logger.warning("%s: %d entries have an all-zero feature vector", path, zero_rows)
    return entries


def read_queries_jsonl(path, layout: ProfileLayout = DEFAULT_PROFILE_LAYOUT) -> list[QueryRecord]:
    """Parse a query JSONL file (same record schema; label optional)."""
    return _read_jsonl(path, layout, QueryRecord)


def _float32_text(values) -> str:
    # Nine significant digits name a finite float32 x exactly: the decimal D
    # lies within 5e-9*|x| of x, under half a float32 ulp (at least
    # 2**-25*|x|, more for subnormals), and the float64 parse adds at most
    # 2**-53*|D|, so D rounds back to x; FLT_MAX is written 3.40282347e+38,
    # below the overflow midpoint. CPython's % formatting and float parsing
    # are correctly rounded. A zero keeps its repr, so -0.0 keeps its sign.
    return ",".join(["%.9g" % x if x else repr(x) for x in values])


def entry_to_json(record: KnowledgeEntry | QueryRecord) -> str:
    """One JSONL line for a knowledge entry or a query record, with keys in
    the order id, label (if set), score, cm, prof, meta (if set). Every
    float32 field gets at most 9 significant digits, which name it exactly."""
    label = "" if record.label is None else f'"label":{json.dumps(record.label)},'
    meta = getattr(record, "meta", None)
    tail = "" if meta is None else f',"meta":{json.dumps(meta)}'
    cm, prof = _float32_text(record.cm.tolist()), _float32_text(record.prof.tolist())
    return f'{{"id":{json.dumps(record.id)},{label}"score":{_float32_text((record.score,))},"cm":[{cm}],"prof":[{prof}]{tail}}}'


query_to_json = entry_to_json


def _jsonl_parts(lines: Iterable[str]) -> Iterable[bytes]:
    """Each string of *lines* as one UTF-8 line, for ``_atomic_write``."""
    return (f"{line}\n".encode("utf-8") for line in lines)


def write_jsonl(path, lines: Iterable[str]) -> None:
    """Write each string of *lines* as one UTF-8 line, atomically."""
    _atomic_write(path, _jsonl_parts(lines))


# --- query profile rewrites --------------------------------------------------

def _map_profiles(
    queries: Sequence[QueryRecord], d_prof: int, fn: Callable[[np.ndarray], np.ndarray]
) -> list[QueryRecord]:
    """Each query with its profile vector replaced by its row of ``fn(P)``,
    P the (q, *d_prof*) block of the query profiles: one operation, whose
    block ``_records_of_blocks`` checks once and the new records view. The
    cm vectors are kept as they are, so they may differ in width. The first
    query whose profile is not *d_prof* wide, or whose new row fails the
    check, is reported by its id."""
    wide = next((i for i, q in enumerate(queries) if q.prof.shape[0] != d_prof), len(queries))
    columns = {f.name: [getattr(q, f.name) for q in queries[:wide]] for f in fields(QueryRecord)}
    with np.errstate(over="ignore"):  # a float32 overflow becomes inf, which the check rejects
        block = np.asarray(fn(np.array(columns["prof"], np.float32).reshape(wide, d_prof)), np.float32)
    records = _records_of_blocks(QueryRecord, columns, {"prof": block}, lambda row: _at("query", queries[row].id))
    if wide < len(queries):
        with _at("query", queries[wide].id):
            raise DimensionMismatchError(f"profile has dimension {queries[wide].prof.shape[0]}, expected {d_prof}")
    return records


def profile_zscore(
    base: KnowledgeBase, query_sets: Sequence[Sequence[QueryRecord]]
) -> tuple[KnowledgeBase, list[list[QueryRecord]]]:
    """Per-dimension z-score normalization of the profile space.

    Statistics (mean, standard deviation) are computed on the knowledge base
    only and applied identically to base rows and queries, so the two sides
    stay comparable. Zero-variance dimensions are centered but not scaled.
    Off by default; the raw concatenated profile is the canonical behavior.

    Raises:
        NonFiniteValueError: A normalized query value overflows float32 (a
            tiny but nonzero base deviation); the message names the query.
    """
    # float64 statistics and deviations of the float32 matrix, the bits of a float64 copy without one.
    mean = base.prof_matrix.mean(axis=0, dtype=np.float64)
    std = base.prof_matrix.std(axis=0, dtype=np.float64)
    std[std == 0.0] = 1.0
    deviations = base.prof_matrix - mean
    deviations /= std
    prof = _handed(deviations.astype(np.float32))
    view = KnowledgeBase(base.ids, base.labels, base.scores, base.cm_matrix, prof, base.layout)
    # The float64 block is rounded to float32 by _map_profiles, whose check
    # rejects an overflow to inf without a RuntimeWarning.
    return view, [_map_profiles(qs, base.d_prof, lambda profs: (profs - mean) / std) for qs in query_sets]
