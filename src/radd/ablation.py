"""Attribute probing: evaluate with selected profile attributes removed.

A mask names the attributes to exclude. The same mask must be applied to the
knowledge base and to every query, which this module does in one step: it
builds an in-memory view of the base with the masked profile matrix (norms
recomputed for the reduced space, CM space untouched) and masks the query
profiles identically. Nothing is persisted; the Table-2-style protocol sweeps
several masks over one base.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ensemble import EnsembleStrategy
from .errors import AllAttributesExcludedError, UnknownAttributeError
from .metrics import EvalReport, evaluate
from .retrieval import RetrievalStrategy
from .store import KnowledgeBase, _map_profiles
from .types import ProfileLayout, QueryRecord

logger = logging.getLogger(__name__)

__all__ = ["AttributeMask", "ablation_run", "mask_base", "mask_queries"]


@dataclass(frozen=True)
class AttributeMask:
    """Set of profile-layout attribute names to exclude. May be empty (the
    identity mask) but may not cover every attribute."""

    excluded: frozenset[str]

    def __init__(self, excluded=()):
        object.__setattr__(self, "excluded", frozenset(excluded))

    def validate(self, layout: ProfileLayout) -> None:
        unknown = self.excluded - set(layout.names)
        if unknown:
            raise UnknownAttributeError(
                f"mask names unknown attributes {sorted(unknown)}; layout has {list(layout.names)}"
            )
        if self.excluded >= set(layout.names):
            raise AllAttributesExcludedError("mask may not exclude every attribute")

    def label(self) -> str:
        if not self.excluded:
            return "full"
        return "w/o " + "+".join(sorted(self.excluded))


def _kept(layout: ProfileLayout, mask: AttributeMask) -> tuple[ProfileLayout, np.ndarray]:
    """Check *mask* against *layout*; return the layout of the surviving
    attributes (original order preserved) and their profile columns."""
    mask.validate(layout)
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
    return base.with_profile_matrix(np.ascontiguousarray(base.prof_matrix[:, cols]), layout)


def mask_queries(
    queries: Sequence[QueryRecord], layout: ProfileLayout, mask: AttributeMask
) -> list[QueryRecord]:
    """Each query with its profile vector cut to the non-excluded spans of
    *layout*, in order; the output dimension is the layout total minus the
    excluded widths."""
    _, cols = _kept(layout, mask)
    return _map_profiles(queries, layout.total_dim, lambda prof: prof[cols])


def ablation_run(
    base: KnowledgeBase,
    queries: Sequence[QueryRecord],
    mask: AttributeMask,
    strategy: RetrievalStrategy | None,
    ensemble: EnsembleStrategy | None,
    k: int,
    parallelism: int = 1,
) -> EvalReport:
    """Evaluate with *mask* applied symmetrically to base and queries.

    With CM-only retrieval the mask cannot change anything; the run still
    executes but logs a warning instead of silently doing meaningless work.
    """
    masked = mask_base(base, mask)
    if strategy is RetrievalStrategy.CM_ONLY and mask.excluded:
        logger.warning("mask %s has no effect on cm-only retrieval", mask.label())
    return evaluate(masked, mask_queries(queries, base.layout, mask), strategy, ensemble, k, parallelism)
