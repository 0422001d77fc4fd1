"""Attribute probing: evaluate with selected profile attributes removed.

A mask names the attributes to exclude. The same mask must be applied to the
knowledge base and to every query, which ``apply_mask`` does in one step for
every command that evaluates: it builds an in-memory view of the base with
the masked profile matrix (norms recomputed for the reduced space, CM space
untouched) and masks the query profiles identically. Nothing is persisted;
the Table-2-style protocol sweeps several masks over one base.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import AllAttributesExcludedError, UnknownAttributeError
from .retrieval import RetrievalStrategy
from .store import KnowledgeBase, _handed, _map_profiles
from .types import ProfileLayout, QueryRecord

logger = logging.getLogger(__name__)

__all__ = ["AttributeMask", "apply_mask", "mask_base", "mask_queries"]


@dataclass(frozen=True)
class AttributeMask:
    """Set of profile-layout attribute names to exclude. May be empty (the
    identity mask) but may not cover every attribute."""

    excluded: frozenset[str]

    def __init__(self, excluded=()):
        object.__setattr__(self, "excluded", frozenset(excluded))

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
    """In-memory view of *base* with masked profile rows and recomputed
    profile norms. The CM matrix is shared, not copied; the empty mask
    returns *base* itself."""
    if not mask.excluded:
        return base
    layout, cols = _kept(base.layout, mask)
    return base.with_profile_matrix(_handed(np.take(base.prof_matrix, cols, axis=1)), layout)


def mask_queries(
    queries: Sequence[QueryRecord], layout: ProfileLayout, mask: AttributeMask
) -> list[QueryRecord]:
    """Each query with its profile vector cut to the non-excluded spans of
    *layout*, in order; the output dimension is the layout total minus the
    excluded widths."""
    _, cols = _kept(layout, mask)
    return _map_profiles(queries, layout.total_dim, lambda prof: prof[cols])


def apply_mask(
    base: KnowledgeBase,
    query_sets: Sequence[Sequence[QueryRecord]],
    mask: AttributeMask,
    strategy: RetrievalStrategy | None,
) -> tuple[KnowledgeBase, Sequence[Sequence[QueryRecord]]]:
    """*base* and each of the *query_sets* with *mask* applied alike; the
    empty mask returns them unchanged. A mask cannot change CM-only
    retrieval, so there it is applied with a warning."""
    if not mask.excluded:
        return base, query_sets
    if strategy is RetrievalStrategy.CM_ONLY:
        logger.warning("mask %s has no effect on cm-only retrieval", mask.label())
    return mask_base(base, mask), [mask_queries(qs, base.layout, mask) for qs in query_sets]
