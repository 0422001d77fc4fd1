"""Shared domain types: feature vectors, labels, scores, records, and the
profile-vector layout.

Feature vectors are plain 1-d ``numpy.float32`` arrays (made read-only on
validation); there is no wrapper class. All record types are frozen
dataclasses and validate their payload at construction, so anything that
exists is well-formed: finite float32 features, labels in {0, 1}, scores
strictly inside (0, 1). Each field has one check here, written for a block
of rows: a record runs it on a one-row block, and every other record set
(from ``generate``, the JSONL readers, and the query profile rewrites) is
made by ``_records_of_blocks``, which runs it once per block. Its records
are read-only row views (a failing row is rebuilt through its record type,
which raises its own error) in a list that keeps the checked columns for
``store.build``.
"""

from __future__ import annotations

import numbers
import operator
from contextlib import nullcontext
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidIdError,
    InvalidLabelError,
    InvalidLayoutError,
    NonFiniteValueError,
    ParseError,
    ScoreOutOfRangeError,
)

__all__ = [
    "DEFAULT_PROFILE_LAYOUT",
    "KnowledgeEntry",
    "ProfileLayout",
    "QueryRecord",
    "as_feature_vector",
]

_MAX_ID = 2**64 - 1


def as_feature_vector(values, name: str = "vector") -> np.ndarray:
    """Coerce *values* to a read-only 1-d float32 array, rejecting non-finite
    elements.

    Values that overflow float32 become infinite after the cast and are
    rejected the same way as NaN/inf inputs.

    Raises:
        DimensionMismatchError: If *values* is not 1-dimensional or is empty.
        NonFiniteValueError: If any element is NaN or infinite (the message
            and ``.index`` report the first offending position), or is not
            a number at all (an object, a string, a boolean, a nested list
            of another length, an int past the float range).
    """
    try:
        with np.errstate(over="ignore"):  # overflow becomes inf; rejected below
            arr = np.asarray(values, dtype=np.float32)
    except (TypeError, ValueError, OverflowError) as exc:
        raise NonFiniteValueError(f"{name} must hold only numbers: {exc}") from exc
    if arr.ndim != 1:
        raise DimensionMismatchError(f"{name} must be 1-dimensional, got shape {arr.shape}")
    if arr.size < 1:
        raise DimensionMismatchError(f"{name} must have at least one element")
    numeric = values.dtype.kind in "fiu" if isinstance(values, np.ndarray) else {float, int} >= set(map(type, values))
    if not numeric:  # numpy would read a numeric string or a boolean as a number
        for idx, x in enumerate(values):
            if isinstance(x, (bool, np.bool_)) or not isinstance(x, numbers.Real):
                raise NonFiniteValueError(f"{name} must hold only numbers, got {x!r} at index {idx}", index=idx)
    if not _finite_rows(arr[None])[0]:
        idx = int(np.flatnonzero(~np.isfinite(arr))[0])
        raise NonFiniteValueError(f"{name} has non-finite value at index {idx}", index=idx)
    if arr is values:
        if not arr.flags.writeable:
            return arr  # already validated and frozen; reuse
        arr = arr.copy()  # never flip flags on a caller-owned array
    arr.flags.writeable = False
    return arr


def _finite_rows(block: np.ndarray) -> np.ndarray:
    """The one finiteness check of feature vectors: whether each row of a
    2-d float32 block is finite. A float64 sum of finite float32 values
    cannot overflow, so it is finite exactly when its row is, and the check
    makes no temporary as large as the block."""
    return np.isfinite(np.einsum("ij->i", block, dtype=np.float64))


def _scores32(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The one range check of scores: *scores* rounded to float32 (the
    storage precision) and whether each lies strictly inside (0, 1) both
    before and after the rounding, so a value that only reaches 0.0 or 1.0
    after rounding is rejected rather than stored at the boundary."""
    s32 = scores.astype(np.float32)
    return s32, (0.0 < scores) & (scores < 1.0) & (0.0 < s32) & (s32 < 1.0)


class _Records(list):
    """A list of records from ``_records_of_blocks`` that keeps the checked
    columns they view (id, label, the float32 scores, and the read-only
    blocks), the records it was made with and, from a JSONL reader, piped or
    not, its ``_sha256``. Otherwise it is a list: a slice, ``+`` or ``copy()`` gives a plain one."""

    __slots__ = ("_columns", "_made", "_sha256")

    def unchanged_columns(self) -> dict | None:
        """The columns while the list still holds exactly the records it was
        made with, in order; None once it has been changed."""
        if len(self) == len(self._made) and all(map(operator.is_, self, self._made)):
            return self._columns
        return None


def _records_of_blocks(record_type, columns: dict, blocks: dict, at_row=lambda row: nullcontext()) -> _Records:
    """The one step that makes records without ``__post_init__``: one
    *record_type* per id of *columns* (field name -> one value per row, with
    the raw scores), whose *blocks* (cm and prof, or prof alone: the float32
    blocks the package owns, cut to the ids) are checked once: finite rows,
    and scores strictly inside (0, 1) at float32. The first row that fails
    is rebuilt through *record_type* inside ``at_row(row)``, and raises its
    own error; otherwise the records view the rows of the frozen blocks, in
    a list that keeps them with the id, label and score columns."""
    n = len(columns["id"])
    for block in blocks.values():
        block.flags.writeable = False
    blocks = {name: block[:n] for name, block in blocks.items()}
    s32, inside = _scores32(np.asarray(columns["score"], dtype=np.float64))
    ok = np.logical_and.reduce([inside, *map(_finite_rows, blocks.values())])
    columns = {**columns, **blocks}
    if not ok.all():
        row = int(np.argmin(ok))
        with at_row(row):
            record_type(**{f.name: columns[f.name][row] for f in fields(record_type)})
    s32.flags.writeable = False
    columns["score"] = s32.tolist()
    names, records = [f.name for f in fields(record_type)], _Records()
    # Field by field within a record, as __init__ sets them, so the records
    # share one key table; set column by column, each record got a dict.
    for values in zip(*(columns[name] for name in names)):
        record = object.__new__(record_type)
        for name, value in zip(names, values):
            object.__setattr__(record, name, value)
        records.append(record)
    records._columns = {"id": columns["id"], "label": columns["label"], "score": s32, **blocks}
    records._made = tuple(records)
    return records


def _validate_id(value, context: str) -> int:
    if isinstance(value, bool) or type(value) is not int:
        raise InvalidIdError(f"{context} id must be an integer, got {value!r}")
    if not 0 <= value <= _MAX_ID:
        raise InvalidIdError(f"{context} id must fit in an unsigned 64-bit integer, got {value}")
    return value


def _validate_meta(value) -> None:
    if value is not None and not isinstance(value, str):
        raise ParseError(f"field 'meta' must be a string, got {value!r}")


def _validate_record(record, context: str, label_required: bool) -> None:
    """The one check of the fields KnowledgeEntry and QueryRecord share,
    storing each validated value back on the frozen *record*.

    The score is a Python or numpy int or float (bool, str, None and
    containers are rejected, not coerced). It is rounded to float32 (the
    storage precision) before the range check, so a value that only reaches
    0.0 or 1.0 after rounding is rejected rather than stored at the
    boundary; the record keeps the float32-exact value as a Python float.
    The label is the literal integer 0 or 1.
    """
    for name, value in (
        ("id", _validate_id(record.id, context)),
        ("cm", as_feature_vector(record.cm, "cm")),
        ("prof", as_feature_vector(record.prof, "prof")),
    ):
        object.__setattr__(record, name, value)
    score, label = record.score, record.label
    if isinstance(score, bool) or not isinstance(score, (int, float, np.integer, np.floating)):
        raise ScoreOutOfRangeError(f"score must be a number, got {score!r}")
    inside = 0.0 < score < 1.0  # NaN and every int fail here, so no int past the float range reaches the array
    if inside:
        (s32,), (inside,) = _scores32(np.array([score]))
    if not inside:
        raise ScoreOutOfRangeError(f"score must lie strictly inside (0, 1), got {score!r}")
    object.__setattr__(record, "score", float(s32))
    if label_required or label is not None:
        _validate_label(label)


def _validate_label(label) -> None:
    if type(label) is not int:  # the literal 0 or 1: bool, float, str and numpy labels are rejected, not coerced
        raise InvalidLabelError(f"label must be the integer 0 or 1, got {label!r}")
    if label not in (0, 1):
        raise InvalidLabelError(f"label must be 0 or 1, got {label}")


def _parse_int(text: str) -> int:
    """The one parser of integers written as text (the integer flags, the
    k grid, layout widths): ASCII digits, after a '-' for a negative value,
    which the caller's range check then names. ``int`` would also read a
    '+', underscores, surrounding whitespace and other scripts' digits;
    here each of these, and an empty text, raises ValueError."""
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer in ASCII digits: {text!r}")
    return int(text)


@dataclass(frozen=True)
class ProfileLayout:
    """Ordered (attribute name, span width) pairs partitioning a profile
    vector.

    Spans are implicitly contiguous: attribute i occupies the width-sized
    block immediately after attribute i-1, so the pairs always cover
    [0, total_dim) exactly with no overlap.
    """

    attributes: tuple[tuple[str, int], ...]

    def __post_init__(self):
        attrs = tuple(self.attributes)
        if not attrs:
            raise InvalidLayoutError("layout must contain at least one attribute")
        for name, width in attrs:  # checked, never coerced; a numpy integer is a width
            if not isinstance(name, str) or not name or ":" in name or "," in name:
                raise InvalidLayoutError(f"invalid attribute name {name!r}")
            if isinstance(width, bool) or not isinstance(width, numbers.Integral) or width < 1:
                raise InvalidLayoutError(f"attribute {name!r} must have an integer width >= 1, got {width!r}")
        names = [n for n, _ in attrs]
        if len(set(names)) != len(names):
            raise InvalidLayoutError(f"duplicate attribute names in layout: {names}")
        object.__setattr__(self, "attributes", tuple((n, int(w)) for n, w in attrs))

    @property
    def total_dim(self) -> int:
        """Total profile dimension (sum of span widths)."""
        return sum(w for _, w in self.attributes)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.attributes)

    def spans(self) -> dict[str, tuple[int, int]]:
        """Map each attribute to its half-open [start, stop) index span."""
        out, start = {}, 0
        for name, width in self.attributes:
            out[name] = (start, start + width)
            start += width
        return out

    def to_descriptor(self) -> str:
        """Serialize as comma-separated ``name:width`` pairs."""
        return ",".join(f"{n}:{w}" for n, w in self.attributes)

    @classmethod
    def from_descriptor(cls, descriptor: str) -> "ProfileLayout":
        """Parse the ``name:width`` descriptor format.

        Raises:
            InvalidLayoutError: On any malformed pair.
        """
        pairs = []
        for part in descriptor.split(","):
            name, sep, width = part.partition(":")
            if not sep:
                raise InvalidLayoutError(f"layout descriptor pair {part!r} lacks ':'")
            try:
                pairs.append((name, _parse_int(width)))
            except ValueError as exc:
                raise InvalidLayoutError(f"bad span width in {part!r}: {exc}") from exc
        return cls(tuple(pairs))


# Composition of the default profile extractor: age decile scalar, one-hot
# gender, emotion trait scalar plus 256-d embedding, 25-d voice quality.
DEFAULT_PROFILE_LAYOUT = ProfileLayout(
    (("age", 1), ("gender", 2), ("emotion", 257), ("voice_quality", 25))
)


@dataclass(frozen=True, eq=False)  # numpy fields: compare and hash by identity
class KnowledgeEntry:
    """One labeled reference utterance: CM feature vector, profile feature
    vector, binary ground-truth label, and the CM's prediction score."""

    id: int
    cm: np.ndarray
    prof: np.ndarray
    label: int
    score: float
    meta: str | None = None

    def __post_init__(self):
        _validate_record(self, "entry", label_required=True)
        _validate_meta(self.meta)


@dataclass(frozen=True, eq=False)  # numpy fields: compare and hash by identity
class QueryRecord:
    """One evaluation utterance. The ground-truth label is optional: it is
    present in evaluation sets and absent in live queries."""

    id: int
    cm: np.ndarray
    prof: np.ndarray
    score: float
    label: int | None = None

    def __post_init__(self):
        _validate_record(self, "query", label_required=False)
