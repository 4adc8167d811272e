"""Distributed GMDJ optimizations (Sect. 4 of the paper): predicate
analysis, group reduction, synchronization reduction, and the planner
that combines them into a distributed plan (coalescing itself is the
``repro.core.coalesce`` rewrite the planner applies)."""

from repro.optimizer.analysis import (
    Interval, derive_site_filter, detail_interval, necessary_base_condition)
from repro.optimizer.group_reduction import (
    expected_group_ratio, reduced_group_volume, site_group_filters,
    unreduced_group_volume)
from repro.optimizer.cost import (
    CostEstimate, choose_flags, estimate_plan_cost)
from repro.optimizer.planner import build_plan
from repro.optimizer.sync_reduction import (
    base_round_removable, can_merge_rounds, common_partition_attrs,
    group_rounds_into_steps, step_entails_key_equality)

__all__ = [
    "Interval", "derive_site_filter", "detail_interval",
    "necessary_base_condition",
    "expected_group_ratio", "reduced_group_volume", "site_group_filters",
    "unreduced_group_volume",
    "CostEstimate", "choose_flags", "estimate_plan_cost",
    "build_plan",
    "base_round_removable", "can_merge_rounds", "common_partition_attrs",
    "group_rounds_into_steps", "step_entails_key_equality",
]
