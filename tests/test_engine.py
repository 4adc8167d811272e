"""Engine tests: distributed execution ≡ centralized, across
partitionings, optimization flags, and site subsets."""

import itertools

import pytest

from repro.errors import PlanError, SchemaError
from repro.relational.aggregates import AggregateSpec, count_star
from repro.relational.expressions import b, r
from repro.relational.relation import Relation
from repro.core.builder import QueryBuilder, agg
from repro.core.expression_tree import GmdjExpression, RelationBase
from repro.core.gmdj import Gmdj
from repro.distributed.engine import SkallaEngine
from repro.distributed.plan import (
    ALL_OPTIMIZATIONS, NO_OPTIMIZATIONS, OptimizationFlags)
from repro.distributed.partition import (
    partition_by_hash, partition_round_robin)


def flow_query():
    return (QueryBuilder()
            .base("SourceAS", "DestAS")
            .gmdj([count_star("cnt1"), agg("sum", "NumBytes", "sum1")],
                  (r.SourceAS == b.SourceAS) & (r.DestAS == b.DestAS))
            .gmdj([count_star("cnt2")],
                  (r.SourceAS == b.SourceAS) & (r.DestAS == b.DestAS)
                  & (r.NumBytes >= b.sum1 / b.cnt1))
            .build())


ALL_FLAG_COMBOS = [
    OptimizationFlags(coalesce=c, group_reduction_independent=i,
                      group_reduction_aware=a, sync_reduction=s)
    for c, i, a, s in itertools.product([False, True], repeat=4)]


class TestEquivalence:
    @pytest.mark.parametrize("flags", ALL_FLAG_COMBOS,
                             ids=[f.describe() for f in ALL_FLAG_COMBOS])
    def test_partitioned_with_knowledge(self, small_flows, flow_warehouse,
                                        flags):
        expression = flow_query()
        reference = expression.evaluate_centralized(small_flows)
        result = flow_warehouse.execute(expression, flags)
        assert result.relation.multiset_equals(reference)

    def test_round_robin_no_knowledge(self, small_flows):
        expression = flow_query()
        reference = expression.evaluate_centralized(small_flows)
        engine = SkallaEngine(partition_round_robin(small_flows, 5))
        for flags in (NO_OPTIMIZATIONS, ALL_OPTIMIZATIONS):
            result = engine.execute(expression, flags)
            assert result.relation.multiset_equals(reference)

    def test_hash_partitioned(self, small_flows):
        expression = flow_query()
        reference = expression.evaluate_centralized(small_flows)
        engine = SkallaEngine(partition_by_hash(small_flows, "SourceAS", 3))
        result = engine.execute(expression, ALL_OPTIMIZATIONS)
        assert result.relation.multiset_equals(reference)

    def test_single_site(self, small_flows):
        expression = flow_query()
        reference = expression.evaluate_centralized(small_flows)
        engine = SkallaEngine({0: small_flows})
        result = engine.execute(expression, ALL_OPTIMIZATIONS)
        assert result.relation.multiset_equals(reference)

    def test_participating_subset(self, small_flows, flow_warehouse):
        expression = flow_query()
        subset = [0, 2]
        local_union = flow_warehouse.total_detail_relation(subset)
        reference = expression.evaluate_centralized(local_union)
        result = flow_warehouse.execute(expression, ALL_OPTIMIZATIONS,
                                        sites=subset)
        assert result.relation.multiset_equals(reference)

    def test_empty_site_fragment(self, small_flows):
        empty = small_flows.head(0)
        engine = SkallaEngine({0: small_flows, 1: empty})
        expression = flow_query()
        reference = expression.evaluate_centralized(small_flows)
        result = engine.execute(expression, NO_OPTIMIZATIONS)
        assert result.relation.multiset_equals(reference)

    def test_relation_base_distributed(self, small_flows, flow_warehouse):
        spine = Relation.from_dicts(
            [{"SourceAS": v} for v in (1, 2, 3, 99)])
        gmdj = Gmdj.single([count_star("n")], r.SourceAS == b.SourceAS)
        expression = GmdjExpression(RelationBase(spine), (gmdj,),
                                    ("SourceAS",))
        reference = expression.evaluate_centralized(small_flows)
        result = flow_warehouse.execute(expression, NO_OPTIMIZATIONS)
        assert result.relation.multiset_equals(reference)
        # no base round for an explicit base relation
        assert result.metrics.num_synchronizations == 1

    @pytest.mark.parametrize("condition", [
        r.g == b.g,
        (r.g >= b.g) & (r.g <= b.g),
        (r.g == b.g) & ((r.v >= 0) | (r.v < 0)),
    ], ids=["equi", "range", "residual"])
    def test_int64_sum_exact_past_float_precision(self, condition):
        """Integer SUM stays exact past 2^53 whichever kernel evaluates
        θ and however many sites contribute to the merge."""
        groups = {0: [2 ** 53, 1, 1], 1: [-2 ** 53, -1, -3],
                  2: [5, 2 ** 62, 7]}
        detail = Relation.from_dicts([{"g": g, "v": v}
                                      for g, values in groups.items()
                                      for v in values])
        expected = {g: sum(values) for g, values in groups.items()}
        expression = (QueryBuilder().base("g")
                      .gmdj([agg("sum", "v", "s")], condition).build())
        results = [expression.evaluate_centralized(detail)]
        for num_sites in (1, 2, 3):
            engine = SkallaEngine(partition_round_robin(detail, num_sites))
            results += [engine.execute(expression, flags).relation
                        for flags in (NO_OPTIMIZATIONS, ALL_OPTIMIZATIONS)]
        for result in results:
            assert {int(g): int(s) for g, s in zip(
                result.column("g"), result.column("s"))} == expected

    def test_output_column_order_matches_centralized(self, small_flows,
                                                     flow_warehouse):
        expression = flow_query()
        reference = expression.evaluate_centralized(small_flows)
        result = flow_warehouse.execute(expression, ALL_OPTIMIZATIONS)
        assert result.relation.schema == reference.schema


class TestPlanShape:
    def test_unoptimized_synchronization_count(self, flow_warehouse):
        result = flow_warehouse.execute(flow_query(), NO_OPTIMIZATIONS)
        # base round + 2 GMDJ rounds
        assert result.metrics.num_synchronizations == 3

    def test_fully_optimized_single_sync(self, flow_warehouse):
        result = flow_warehouse.execute(flow_query(), ALL_OPTIMIZATIONS)
        assert result.metrics.num_synchronizations == 1

    def test_optimizations_reduce_traffic(self, flow_warehouse):
        baseline = flow_warehouse.execute(flow_query(), NO_OPTIMIZATIONS)
        optimized = flow_warehouse.execute(flow_query(), ALL_OPTIMIZATIONS)
        assert optimized.metrics.total_bytes < baseline.metrics.total_bytes

    def test_metrics_populated(self, flow_warehouse):
        metrics = flow_warehouse.execute(flow_query(),
                                         NO_OPTIMIZATIONS).metrics
        assert metrics.response_seconds > 0
        assert metrics.communication_seconds > 0
        assert metrics.total_bytes > 0
        assert metrics.num_participating_sites == 4
        assert len(metrics.phases) == 3

    def test_plan_explain_readable(self, flow_warehouse):
        result = flow_warehouse.execute(flow_query(), ALL_OPTIMIZATIONS)
        text = result.plan.explain()
        assert "Prop. 2" in text or "synchronizations" in text


class TestTheorem2Bound:
    def test_traffic_bound_independent_of_fact_size(self, small_flows,
                                                    flow_warehouse):
        """Theorem 2: total transfer ≤ Σ_i 2·s_i·|Q| + s_0·|Q| rows."""
        expression = flow_query()
        result = flow_warehouse.execute(expression, NO_OPTIMIZATIONS)
        query_size = result.relation.num_rows
        num_sites = result.metrics.num_participating_sites
        bound = (2 * num_sites * query_size * expression.num_rounds
                 + num_sites * query_size)
        assert result.metrics.rows_shipped <= bound


class TestErrors:
    def test_mixed_schemas_rejected(self, small_flows):
        other = small_flows.project(["SourceAS", "NumBytes"])
        with pytest.raises(SchemaError, match="share one schema"):
            SkallaEngine({0: small_flows, 1: other})

    def test_no_sites_rejected(self):
        with pytest.raises(PlanError):
            SkallaEngine({})

    def test_unknown_participating_site(self, flow_warehouse):
        with pytest.raises(PlanError, match="unknown site"):
            flow_warehouse.execute(flow_query(), sites=[0, 42])

    def test_holistic_aggregate_rejected_distributed(self, small_flows,
                                                     flow_warehouse):
        from repro.errors import AggregateError
        expression = (QueryBuilder()
                      .base("SourceAS")
                      .gmdj([AggregateSpec("median", "NumBytes", "med")],
                            r.SourceAS == b.SourceAS)
                      .build())
        # centralized is fine
        expression.evaluate_centralized(small_flows)
        with pytest.raises(AggregateError, match="holistic"):
            flow_warehouse.execute(expression, NO_OPTIMIZATIONS)
