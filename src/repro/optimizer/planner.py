"""The Egil planner: from a GMDJ expression + flags to a distributed plan.

Rewrites are applied in the order the paper develops them:

1. **coalescing** — fuse adjacent GMDJ rounds whose outer conditions do
   not reference inner outputs (fewer rounds outright);
2. **synchronization reduction** — pack remaining rounds into local
   steps under Corollary 1 (needs partition attributes from the
   distribution knowledge) and fold the base round into the first step
   under Proposition 2;
3. **distribution-aware group reduction** — derive per-site ``¬ψ_i``
   filters for every step that still ships the base structure;
4. **distribution-independent group reduction** — a flag the sites
   honour at ship-up time (no plan structure needed).

Independently of the flags, a key that contains a partition attribute
is recorded on the plan (``union_on``): the sites' key sets are then
disjoint, and the coordinator synchronizes by union (Definition 2 /
Corollary 1) instead of matching keys.  Partition attributes are the
declared ones plus the key columns the knowledge observes site-disjoint
in the data; the explain note tags the latter "observed", and the plan
records the knowledge epoch they were proved under (``plan.epoch``).
``info=None`` plans exactly as ``DistributionInfo()``.

Each rewrite silently no-ops when its side condition fails — the flags
say what the planner *may* do, the guards decide what it *can* do.  The
produced plan's :meth:`~repro.distributed.plan.DistributedPlan.explain`
lists what actually fired.
"""

from __future__ import annotations

from typing import Sequence

from repro.relational.schema import Schema
from repro.core.coalesce import coalesce_expression
from repro.core.expression_tree import GmdjExpression
from repro.distributed.messages import SiteId
from repro.distributed.partition import DistributionInfo
from repro.distributed.plan import (
    DistributedPlan, LocalStep, OptimizationFlags)
from repro.optimizer.group_reduction import site_group_filters
from repro.optimizer.sync_reduction import (
    base_round_removable, group_rounds_into_steps)


def build_plan(expression: GmdjExpression, flags: OptimizationFlags,
               info: DistributionInfo | None, detail_schema: Schema,
               sites: Sequence[SiteId]) -> DistributedPlan:
    """Build the optimized distributed plan for ``expression``."""
    expression.validate(detail_schema)
    notes: list[str] = []
    info = info or DistributionInfo()
    # read first: a fact withdrawn while planning leaves the plan behind
    epoch = info.epoch
    partition_attrs = info.partition_attributes(sites, expression.key)

    working = expression
    if flags.coalesce:
        coalesced = coalesce_expression(working)
        if coalesced.num_rounds < working.num_rounds:
            notes.append(
                f"coalescing fused {working.num_rounds} GMDJs into "
                f"{coalesced.num_rounds}")
        working = coalesced

    if flags.sync_reduction:
        grouped = group_rounds_into_steps(working, partition_attrs)
        if len(grouped) < working.num_rounds:
            notes.append(
                f"synchronization reduction packed {working.num_rounds} "
                f"rounds into {len(grouped)} steps (Cor. 1)")
        include_base = base_round_removable(working, grouped[0])
        if include_base:
            notes.append("base synchronization elided (Prop. 2)")
    else:
        grouped = [[gmdj] for gmdj in working.rounds]
        include_base = False

    steps = tuple(
        LocalStep(tuple(step_gmdjs),
                  include_base=(include_base and index == 0))
        for index, step_gmdjs in enumerate(grouped))

    site_filters: dict[int, dict[SiteId, object]] = {}
    if flags.group_reduction_aware:
        for index, step in enumerate(steps):
            if step.include_base:
                continue  # nothing is shipped down for this step
            thetas = [condition for gmdj in step.gmdjs
                      for condition in gmdj.conditions]
            filters = site_group_filters(thetas, info, sites)
            if filters:
                site_filters[index] = filters
        if site_filters:
            covered = sorted(site_filters)
            notes.append(
                f"distribution-aware group filters derived for steps "
                f"{covered} (Thm. 4)")

    union_on = min(partition_attrs & set(working.key), default=None)
    if union_on is not None:
        source = "observed, Cor. 1" if info.observed(union_on) else "Cor. 1"
        notes.append(f"synchronization: union on {union_on} ({source})")

    return DistributedPlan(expression=working, steps=steps, flags=flags,
                           site_filters=site_filters, notes=notes,
                           union_on=union_on, epoch=epoch)
