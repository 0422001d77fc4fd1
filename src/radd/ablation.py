"""Attribute probing: evaluate with selected profile attributes removed.

A mask names the attributes to exclude. The same mask must be applied to the
knowledge base and to every query, which ``apply_mask`` does in one step for
every command that evaluates: it builds an in-memory view of the base with
the masked profile matrix (the CM matrix shared, both spaces' norms
recomputed) and masks the query profiles identically. Nothing is persisted;
the Table-2-style protocol sweeps several masks over one base. A mask leaves
the CM space as it is (the same matrix, the queries' CM vectors kept), so
``radd ablate`` ranks that space once and reuses the ranking for every mask.
"""

from __future__ import annotations

import logging
from collections.abc import Iterable
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import AllAttributesExcludedError, InvalidConfigError, UnknownAttributeError
from .retrieval import RetrievalStrategy
from .store import KnowledgeBase, _handed, _map_profiles
from .types import ProfileLayout, QueryRecord

logger = logging.getLogger(__name__)

__all__ = ["AttributeMask", "apply_mask", "mask_base", "mask_queries"]


@dataclass(frozen=True)
class AttributeMask:
    """Profile-layout attribute names to exclude, from an iterable of str (a
    str is rejected). May be empty (the identity mask) but may not cover
    every attribute."""

    excluded: frozenset[str]

    def __init__(self, excluded=()):
        names = tuple(excluded) if isinstance(excluded, Iterable) and not isinstance(excluded, (str, bytes)) else None
        if names is None or not all(isinstance(name, str) for name in names):
            raise InvalidConfigError(f"a mask takes an iterable of attribute names (str), got {excluded!r}")
        object.__setattr__(self, "excluded", frozenset(names))

    def label(self) -> str:
        if not self.excluded:
            return "full"
        return "w/o " + "+".join(sorted(self.excluded))


def _kept(layout: ProfileLayout, mask: AttributeMask) -> tuple[ProfileLayout, np.ndarray]:
    """Check *mask* against *layout*; return the layout of the surviving
    attributes (original order preserved) and their profile columns."""
    unknown = mask.excluded - set(layout.names)
    if unknown:
        raise UnknownAttributeError(
            f"mask names unknown attributes {sorted(unknown)}; layout has {list(layout.names)}"
        )
    if mask.excluded >= set(layout.names):
        raise AllAttributesExcludedError("mask may not exclude every attribute")
    spans = layout.spans()
    kept = tuple((n, w) for n, w in layout.attributes if n not in mask.excluded)
    cols = np.concatenate([np.arange(*spans[n]) for n, _ in kept])
    return ProfileLayout(kept), cols


def mask_base(base: KnowledgeBase, mask: AttributeMask) -> KnowledgeBase:
    """In-memory view of *base* with masked profile rows, through the
    constructor: the CM matrix is shared, not copied, and both spaces' norms
    are recomputed; the empty mask returns *base* itself."""
    if not mask.excluded:
        return base
    layout, cols = _kept(base.layout, mask)
    prof = _handed(np.take(base.prof_matrix, cols, axis=1))
    return KnowledgeBase(base.ids, base.labels, base.scores, base.cm_matrix, prof, layout)


def mask_queries(
    queries: Sequence[QueryRecord], layout: ProfileLayout, mask: AttributeMask
) -> list[QueryRecord]:
    """Each query with its profile vector cut to the non-excluded spans of
    *layout*, in order; the output dimension is the layout total minus the
    excluded widths."""
    _, cols = _kept(layout, mask)
    return _map_profiles(queries, layout.total_dim, lambda profs: profs[:, cols])


def apply_mask(
    base: KnowledgeBase,
    query_sets: Sequence[Sequence[QueryRecord]],
    mask: AttributeMask,
    strategy: RetrievalStrategy | None,
) -> tuple[KnowledgeBase, Sequence[Sequence[QueryRecord]]]:
    """*base* and each of the *query_sets* with *mask* applied alike; the
    empty mask returns them unchanged. A mask cannot change CM-only
    retrieval or the raw-score baseline (*strategy* None), so there it is
    applied with a warning."""
    if not mask.excluded:
        return base, query_sets
    if strategy is None or strategy is RetrievalStrategy.CM_ONLY:
        target = "the raw-score baseline" if strategy is None else "cm-only retrieval"
        logger.warning("mask %s has no effect on %s", mask.label(), target)
    return mask_base(base, mask), [mask_queries(qs, base.layout, mask) for qs in query_sets]
