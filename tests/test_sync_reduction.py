"""Tests for synchronization reduction guards (Prop. 2, Thm. 5, Cor. 1)."""


from repro.relational.aggregates import count_star
from repro.relational.expressions import b, r
from repro.relational.relation import Relation
from repro.core.builder import QueryBuilder, agg
from repro.core.expression_tree import GmdjExpression, RelationBase
from repro.core.gmdj import Gmdj
from repro.distributed.partition import DistributionInfo, RangeConstraint
from repro.optimizer.sync_reduction import (
    base_round_removable, can_merge_rounds, common_partition_attrs,
    group_rounds_into_steps, step_entails_key_equality)


def make_info():
    info = DistributionInfo()
    info.add(0, "A", RangeConstraint(0, 4))
    info.add(1, "A", RangeConstraint(5, 9))
    return info


def round_on(attrs, alias, extra=None):
    from repro.relational.expressions import And
    condition = And.of(*(r[a] == b[a] for a in attrs))
    if extra is not None:
        condition = condition & extra
    return Gmdj.single([count_star(alias)], condition)


class TestKeyEntailment:
    def test_entailing_step(self):
        rounds = [round_on(["A", "B"], "n1"),
                  round_on(["A", "B"], "n2", r.v >= b.n1)]
        assert step_entails_key_equality(rounds, ["A", "B"])

    def test_partial_key_fails(self):
        rounds = [round_on(["A"], "n1")]
        assert not step_entails_key_equality(rounds, ["A", "B"])

    def test_disjunctive_condition_fails(self):
        gmdj = Gmdj.single([count_star("n")],
                           (r.A == b.A) | (r.v > 0))
        assert not step_entails_key_equality([gmdj], ["A"])


class TestPartitionAttrs:
    def test_common_attr_found(self):
        rounds = [round_on(["A", "B"], "n1"),
                  round_on(["A"], "n2", r.v >= b.n1)]
        assert common_partition_attrs(rounds, ["A"]) == {"A"}

    def test_no_common_attr(self):
        rounds = [round_on(["A"], "n1"), round_on(["B"], "n2")]
        assert common_partition_attrs(rounds, ["A", "B"]) == set()

    def test_can_merge_rounds(self):
        first = round_on(["A"], "n1")
        second = round_on(["A"], "n2", r.v >= b.n1)
        assert can_merge_rounds(first, second, ["A"])
        assert not can_merge_rounds(first, second, ["C"])


class TestGrouping:
    def make_expression(self, rounds):
        from repro.core.expression_tree import ProjectionBase
        return GmdjExpression(ProjectionBase(("A",)), tuple(rounds), ("A",))

    def test_all_merge_with_knowledge(self):
        rounds = [round_on(["A"], "n1"), round_on(["A"], "n2", r.v >= b.n1),
                  round_on(["A"], "n3", r.v >= b.n2)]
        steps = group_rounds_into_steps(
            self.make_expression(rounds),
            make_info().partition_attributes([0, 1]))
        assert [len(step) for step in steps] == [3]

    def test_no_knowledge_no_merging(self):
        rounds = [round_on(["A"], "n1"), round_on(["A"], "n2")]
        steps = group_rounds_into_steps(self.make_expression(rounds), set())
        assert [len(step) for step in steps] == [1, 1]

    def test_break_at_non_entailing_round(self):
        rounds = [round_on(["A"], "n1"),
                  Gmdj.single([count_star("n2")], r.v >= b.n1),
                  round_on(["A"], "n3")]
        steps = group_rounds_into_steps(
            self.make_expression(rounds),
            make_info().partition_attributes([0, 1]))
        assert [len(step) for step in steps] == [1, 1, 1]

    def test_info_without_partition_attrs(self):
        info = DistributionInfo()
        info.add(0, "A", RangeConstraint(0, 6))
        info.add(1, "A", RangeConstraint(4, 9))  # overlapping: not Def. 2
        rounds = [round_on(["A"], "n1"), round_on(["A"], "n2")]
        steps = group_rounds_into_steps(
            self.make_expression(rounds), info.partition_attributes([0, 1]))
        assert [len(step) for step in steps] == [1, 1]


class TestBaseRoundRemoval:
    def test_projection_base_with_key_equality(self):
        expr = (QueryBuilder().base("A")
                .gmdj([count_star("n")], r.A == b.A).build())
        assert base_round_removable(expr, list(expr.rounds))

    def test_relation_base_never_removable(self):
        spine = Relation.from_dicts([{"A": 1}])
        gmdj = round_on(["A"], "n")
        expr = GmdjExpression(RelationBase(spine), (gmdj,), ("A",))
        assert not base_round_removable(expr, [gmdj])

    def test_non_entailing_condition_blocks(self):
        expr = (QueryBuilder().base("A")
                .gmdj([count_star("n")], r.v > 0).build())
        assert not base_round_removable(expr, list(expr.rounds))


class TestEndToEndSyncCounts:
    def test_sync_reduction_collapses_to_one(self, flow_warehouse,
                                             small_flows):
        from repro.distributed.plan import OptimizationFlags
        expr = (QueryBuilder()
                .base("SourceAS")
                .gmdj([count_star("cnt1"), agg("avg", "NumBytes", "avg1")],
                      r.SourceAS == b.SourceAS)
                .gmdj([count_star("cnt2")],
                      (r.SourceAS == b.SourceAS)
                      & (r.NumBytes >= b.avg1))
                .build())
        flags = OptimizationFlags(sync_reduction=True)
        result = flow_warehouse.execute(expr, flags)
        assert result.metrics.num_synchronizations == 1
        assert result.relation.multiset_equals(
            expr.evaluate_centralized(small_flows))

    def test_without_partition_attr_only_base_removed(self, small_flows):
        """Grouping on DestAS (not partitioned): Prop. 2 still applies but
        Cor. 1 cannot merge the rounds."""
        from repro.distributed.plan import OptimizationFlags
        from repro.distributed.partition import partition_by_values
        from repro.distributed.engine import SkallaEngine
        partitions, info = partition_by_values(
            small_flows, "RouterId", {s: [s] for s in range(4)})
        engine = SkallaEngine(partitions, info)
        expr = (QueryBuilder()
                .base("DestAS")
                .gmdj([count_star("cnt1"), agg("avg", "NumBytes", "avg1")],
                      r.DestAS == b.DestAS)
                .gmdj([count_star("cnt2")],
                      (r.DestAS == b.DestAS) & (r.NumBytes >= b.avg1))
                .build())
        result = engine.execute(expr,
                                OptimizationFlags(sync_reduction=True))
        assert result.metrics.num_synchronizations == 2
        assert result.relation.multiset_equals(
            expr.evaluate_centralized(small_flows))
