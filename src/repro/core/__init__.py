"""The paper's primary contribution: the GMDJ operator, complex GMDJ
expressions, their centralized evaluation, and GMDJ-level algebraic
transformations (coalescing)."""

from repro.core.builder import QueryBuilder, agg
from repro.core.coalesce import (
    can_coalesce, coalesce_adjacent, coalesce_expression,
    coalesced_round_count)
from repro.core.evaluator import FINALIZED, STATES, evaluate_gmdj
from repro.core.expression_tree import (
    BaseQuery, GmdjExpression, ProjectionBase, RelationBase, expression)
from repro.core.gmdj import Gmdj, GroupingVariable, profile_gmdj
from repro.core.multi_feature import MultiFeatureQuery, extremes_profile
from repro.core.temporal import (
    DAY, HOUR, MINUTE, add_time_bucket, bucketed_query,
    moving_window_query)

__all__ = [
    "QueryBuilder", "agg",
    "can_coalesce", "coalesce_adjacent", "coalesce_expression",
    "coalesced_round_count",
    "FINALIZED", "STATES", "evaluate_gmdj",
    "BaseQuery", "GmdjExpression", "ProjectionBase", "RelationBase",
    "expression",
    "Gmdj", "GroupingVariable", "profile_gmdj",
    "MultiFeatureQuery", "extremes_profile",
    "DAY", "HOUR", "MINUTE", "add_time_bucket", "bucketed_query",
    "moving_window_query",
]
