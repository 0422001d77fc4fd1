"""Exception hierarchy for the radd package.

Every error raised by the library derives from :class:`RaddError`, so callers
(and the CLI exit-code mapping) can catch one base class. Errors that carry
structured context expose it as attributes (``index``, ``line``, ``entry_id``,
``query_id``) in addition to the message.
"""

from __future__ import annotations


class RaddError(Exception):
    """Base class for all errors raised by this package."""

    # Set by ingestion when an error is located in a line-delimited file.
    line: int | None = None


# --- validation -------------------------------------------------------------

class DimensionMismatchError(RaddError):
    """A vector's length does not match the expected dimension."""


class NonFiniteValueError(RaddError):
    """A vector element is NaN, infinite, or not a number at all."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class InvalidLayoutError(RaddError):
    """A profile layout is empty, overlapping, or otherwise malformed."""


class ScoreOutOfRangeError(RaddError):
    """A prediction score falls outside the open interval (0, 1)."""


class InvalidLabelError(RaddError):
    """A label is not the literal integer 0 or 1."""


class InvalidIdError(RaddError):
    """An id is not an integer in [0, 2**64 - 1]."""


# --- knowledge store --------------------------------------------------------

class EmptyInputError(RaddError):
    """A knowledge base cannot be built from zero entries."""


class DuplicateIdError(RaddError):
    """Two entries share an id."""

    def __init__(self, message: str, entry_id: int | None = None):
        super().__init__(message)
        self.entry_id = entry_id


class StoreIOError(RaddError):
    """Underlying I/O failure while reading or writing a knowledge-base file."""


class BadMagicError(RaddError):
    """The file does not start with the expected magic bytes."""


class UnsupportedVersionError(RaddError):
    """The file declares a format version this build cannot read."""


class ChecksumMismatchError(RaddError):
    """The stored checksum does not match the file contents."""


class TruncatedFileError(RaddError):
    """The file is shorter (or longer) than its header declares."""


class ParseError(RaddError):
    """A record is not shaped as the JSONL contract asks: a line that is not
    a JSON object, a missing required key, or a ``meta`` that is not a string."""


# --- retrieval --------------------------------------------------------------

class HybridKTooSmallError(RaddError):
    """Hybrid retrieval needs k >= 2 so both halves are non-empty."""


# --- ensemble ---------------------------------------------------------------

class EmptyNeighborSetError(RaddError):
    """An ensemble rule received zero neighbors."""


class NeighborIndexError(RaddError):
    """A neighbor set references a row outside the knowledge base."""


# --- metrics ----------------------------------------------------------------

class EmptySamplesError(RaddError):
    """A metric received zero samples."""


class MissingClassError(RaddError):
    """EER needs at least one real and one fake sample."""


class UnlabeledQueryError(RaddError):
    """Evaluation requires ground-truth labels on every query."""

    def __init__(self, message: str, query_id: int | None = None):
        super().__init__(message)
        self.query_id = query_id


# --- ablation ---------------------------------------------------------------

class UnknownAttributeError(RaddError):
    """A mask names an attribute absent from the profile layout."""


class AllAttributesExcludedError(RaddError):
    """A mask may not remove every attribute of the layout."""


# --- synthetic / config -----------------------------------------------------

class InvalidConfigError(RaddError):
    """A generator or run configuration violates its invariants."""
