"""Incremental (delta) maintenance of cached site sub-results.

**Why this is sound.**  Theorem 1 of the paper says a decomposable
GMDJ over a horizontally partitioned detail relation can be evaluated
as sub-aggregates per fragment, merged with super-aggregates keyed on
``K``.  The theorem quantifies over *arbitrary* horizontal partitions —
so splitting one site's fragment ``F`` into ``{F_old, Δ}`` (the
fragment a cached sub-result was computed against, plus the rows
appended since) is just another partition:

    H(F)  =  merge_K( H(F_old), H(Δ) )

``H(F_old)`` is the cached entry; ``H(Δ)`` is cheap to compute because
``Δ`` is small; the merge reuses the exact synchronization machinery
the coordinator already applies across sites
(:func:`repro.distributed.coordinator.combine_states_by_key`).

**The boundary** (:func:`delta_mergeable`):

* **Non-decomposable aggregates** (holistic ones such as MEDIAN /
  COUNT DISTINCT in exact mode) do not admit sub-/super-aggregate
  merging at all — full recompute.  Their *sketched* counterparts
  (APPROX_MEDIAN / APPROX_PERCENTILE / APPROX_COUNT_DISTINCT,
  :mod:`repro.sketches`) carry bounded mergeable states and therefore
  stay on the delta-merge side: ``H(F)`` = sketch-merge of ``H(F_old)``
  and ``H(Δ)`` is exact sketch semantics, because every sketch is a
  commutative monoid over multiset union.
* **Multi-GMDJ steps** (synchronization reduction, Thm. 5): a site
  chains the step's GMDJs locally, *finalizing* earlier aggregates over
  its own fragment so later conditions (e.g. ``r.Price >= b.avg1``) can
  reference them.  Under the ``{F_old, Δ}`` split those locally
  finalized values would be computed over partial data — Thm. 5's
  entailment argument does not apply to two sub-fragments holding the
  *same* partition-attribute values — so the merged result could
  diverge.  Full recompute.
* **Base rounds** are delta-mergeable exactly for
  :class:`~repro.core.expression_tree.ProjectionBase` (possibly
  filtered): distinct projection distributes over multiset union,
  ``π(σ(F_old ⊔ Δ)) = dedup(π(σ(F_old)) ⊔ π(σ(Δ)))``.
* **MIN/MAX stay mergeable** because the warehouse is append-only:
  min/max are distributive under insertion; only *deletion* would break
  them (there is no inverse), and ``SkallaEngine.append`` is the sole
  mutation path.  If deletions are ever added, MIN/MAX (and any
  non-invertible aggregate) must be moved to the full-recompute side.

Falling back is always safe: the cache layer treats "not mergeable" as
an ordinary miss and recomputes from the full fragment.
"""

from __future__ import annotations

import time
from typing import Sequence

from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.core.expression_tree import ProjectionBase
from repro.distributed.coordinator import combine_states_by_key
from repro.distributed.site import SkallaSite
from repro.distributed.transport.base import SiteRequest, perform_request


def delta_mergeable(request: SiteRequest) -> bool:
    """Whether ``request``'s sub-result admits append-delta maintenance."""
    if request.kind == "base":
        return isinstance(request.base_query, ProjectionBase)
    step = request.step
    if step is None or step.num_gmdjs != 1:
        # Thm. 5 steps locally finalize earlier rounds over the whole
        # fragment; a partial-fragment finalization is not equivalent.
        return False
    return step.gmdjs[0].is_decomposable()


def evaluate_delta(request: SiteRequest,
                   delta: Relation) -> tuple[Relation, float]:
    """Run the round's site work over *only* the delta rows.

    Reuses :func:`~repro.distributed.transport.base.perform_request`
    against a throwaway site wrapping the delta fragment, so the delta
    evaluation is bit-for-bit the same code path every transport backend
    executes — just over fewer rows.  Returns ``(H(Δ), seconds)``.
    """
    site = SkallaSite(request.site_id, delta)
    return perform_request(site, request)


def merge_sub_results(request: SiteRequest, cached: Relation,
                      delta_result: Relation, key: Sequence[str],
                      detail_schema: Schema) -> tuple[Relation, float]:
    """Merge ``H(Δ)`` into the cached ``H(F_old)`` (Theorem 1).

    * base rounds: multiset union + duplicate elimination, preserving
      first-appearance order (identical to evaluating over the
      concatenated fragment);
    * GMDJ steps: super-aggregate state merge keyed on ``K`` via
      :func:`~repro.distributed.coordinator.combine_states_by_key`;
      keys present on one side only keep their states (the other side
      contributes the aggregate's empty state), which also covers
      distribution-independent group reduction (Prop. 1) filtering the
      two sides differently.

    Returns ``(merged, coordinator_seconds)``.
    """
    started = time.perf_counter()
    if request.kind == "base":
        merged = cached.union_all(delta_result).distinct()
        return merged, time.perf_counter() - started
    step = request.step
    assert step is not None
    merged = combine_states_by_key([cached, delta_result], list(key),
                                   step.gmdjs, detail_schema)
    return merged, time.perf_counter() - started


__all__ = ["delta_mergeable", "evaluate_delta", "merge_sub_results"]
