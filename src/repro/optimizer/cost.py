"""A cost model for distributed plans.

The paper evaluates its optimizations empirically; a production system
also needs to *predict* their effect — e.g. whether deriving and
applying ¬ψ filters is worth it, or which flag combination to run —
without touching the data.  This module estimates a plan's traffic and
modeled transfer time from table statistics
(:mod:`repro.relational.statistics`) and distribution knowledge:

* the base-values size ``|B|`` comes from
  :func:`~repro.relational.statistics.estimate_group_count` over the
  expression's key attributes;
* when the key contains a **partition attribute**, each group lives at
  exactly one site, so per-site group counts divide by ``n`` and the
  site-side reduction returns ``|B|`` rows per round instead of
  ``n·|B|`` — the same ``c = 1`` regime the Fig. 2 analysis uses;
* row widths follow the wire format of the schemas actually shipped
  (the growing base-result structure down, key + state columns up).

The estimates are intentionally coarse (independence assumptions,
pessimistic fallbacks) but faithful enough to rank plans — which is all
:func:`choose_flags` needs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from repro.relational.schema import Schema
from repro.relational.statistics import TableStats, estimate_group_count
from repro.core.expression_tree import GmdjExpression
from repro.distributed.messages import (
    CONTROL_MESSAGE_BYTES, ENVELOPE_BYTES, SiteId)
from repro.distributed.network import LinkModel
from repro.distributed.partition import DistributionInfo
from repro.distributed.plan import DistributedPlan, OptimizationFlags


@dataclass(frozen=True)
class CostEstimate:
    """Predicted cost of one distributed plan."""

    bytes_down: float
    bytes_up: float
    synchronizations: int
    transfer_seconds: float

    @property
    def bytes_total(self) -> float:
        return self.bytes_down + self.bytes_up


def estimate_plan_cost(plan: DistributedPlan, stats: TableStats,
                       num_sites: int, detail_schema: Schema,
                       link: LinkModel | None = None) -> CostEstimate:
    """Predict bytes and modeled transfer time for ``plan``.

    ``stats`` describes the *global* (union) fact relation, as
    :func:`~repro.relational.statistics.collect_stats` returns it for
    the per-site fragments.
    Whether the key is partitioned over the sites is the plan's own
    record (``plan.union_on``, proved by the planner for its site set).
    """
    link = link or LinkModel()
    expression = plan.expression
    group_count = estimate_group_count(stats, expression.key)
    key_partitioned = plan.union_on is not None

    bytes_down = 0.0
    bytes_up = 0.0
    phases = 0

    base_schema = expression.base_schema(detail_schema)
    if not plan.steps[0].include_base:
        # Base round: control down, per-site distinct projections up.
        bytes_down += num_sites * (CONTROL_MESSAGE_BYTES + ENVELOPE_BYTES)
        per_site_groups = (group_count / num_sites if key_partitioned
                           else group_count)
        bytes_up += num_sites * (per_site_groups
                                 * base_schema.row_wire_width()
                                 + ENVELOPE_BYTES)
        phases += 2

    structure_width = base_schema.row_wire_width()
    for step_index, step in enumerate(plan.steps):
        up_width = _up_row_width(expression, step, detail_schema)
        if step.include_base:
            bytes_down += num_sites * (CONTROL_MESSAGE_BYTES
                                       + ENVELOPE_BYTES)
            per_site = (group_count / num_sites if key_partitioned
                        else group_count)
            bytes_up += num_sites * (per_site * up_width + ENVELOPE_BYTES)
        else:
            filters = plan.site_filters.get(step_index, {})
            fully_filtered = key_partitioned and \
                len(filters) >= num_sites
            down_rows = (group_count if fully_filtered
                         else num_sites * group_count)
            bytes_down += down_rows * structure_width \
                + num_sites * ENVELOPE_BYTES
            if plan.flags.group_reduction_independent and key_partitioned:
                up_rows = group_count  # c = 1: one home site per group
            else:
                up_rows = num_sites * group_count
            bytes_up += up_rows * up_width + num_sites * ENVELOPE_BYTES
        phases += 2
        for gmdj in step.gmdjs:
            structure_width += sum(
                spec.output_attribute(detail_schema).dtype.wire_width
                for spec in gmdj.all_aggregates)

    transfer_seconds = (phases * link.latency
                        + (bytes_down + bytes_up) / link.bandwidth)
    return CostEstimate(bytes_down=bytes_down, bytes_up=bytes_up,
                        synchronizations=plan.num_synchronizations,
                        transfer_seconds=transfer_seconds)


def _up_row_width(expression: GmdjExpression, step,
                  detail_schema: Schema) -> int:
    """Wire width of one shipped sub-aggregate row for ``step``."""
    if step.include_base:
        carried = expression.base_schema(detail_schema)
    else:
        carried = expression.base_schema(detail_schema).project(
            expression.key)
    width = carried.row_wire_width()
    for gmdj in step.gmdjs:
        for field in gmdj.state_fields(detail_schema):
            width += field.dtype.wire_width
    return width


def choose_flags(expression: GmdjExpression, stats: TableStats,
                 num_sites: int, detail_schema: Schema,
                 info: DistributionInfo | None = None,
                 link: LinkModel | None = None,
                 sites: Sequence[SiteId] | None = None,
                 ) -> tuple[OptimizationFlags, CostEstimate]:
    """Pick the cheapest flag combination by estimated transfer time.

    Enumerates all 16 combinations (cheap: estimation is closed-form)
    and returns the winner with its estimate.  Ties break toward fewer
    enabled optimizations — no reason to run machinery that the model
    says buys nothing.  ``sites`` are the ids ``info`` is keyed by
    (default ``0 … num_sites-1``).
    """
    from repro.optimizer.planner import build_plan
    if sites is None:
        sites = list(range(num_sites))
    best: tuple[OptimizationFlags, CostEstimate] | None = None
    for combo in itertools.product([False, True], repeat=4):
        flags = OptimizationFlags(*combo)
        plan = build_plan(expression, flags, info, detail_schema,
                          sites=sites)
        estimate = estimate_plan_cost(plan, stats, num_sites,
                                      detail_schema, link)
        candidate = (flags, estimate)
        if best is None or _better(candidate, best):
            best = candidate
    assert best is not None
    return best


def _better(candidate, incumbent) -> bool:
    candidate_key = (candidate[1].transfer_seconds,
                     sum([candidate[0].coalesce,
                          candidate[0].group_reduction_independent,
                          candidate[0].group_reduction_aware,
                          candidate[0].sync_reduction]))
    incumbent_key = (incumbent[1].transfer_seconds,
                     sum([incumbent[0].coalesce,
                          incumbent[0].group_reduction_independent,
                          incumbent[0].group_reduction_aware,
                          incumbent[0].sync_reduction]))
    return candidate_key < incumbent_key
