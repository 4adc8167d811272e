"""Tests for the multi-tier coordinator architecture: aggregation-tree
topologies as data, the partial Theorem-1 merge interior aggregators
run, and a tree's price over a flat run's round log."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tests.seeding import seeded

from repro.errors import PlanError, SchemaError
from repro.relational.aggregates import AggregateSpec, count_star
from repro.relational.expressions import b, r
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.relational.types import DataType
from repro.core.builder import QueryBuilder, agg
from repro.core.expression_tree import GmdjExpression, ProjectionBase
from repro.core.gmdj import Gmdj
from repro.distributed.coordinator import Coordinator, combine_states_by_key
from repro.distributed.engine import SkallaEngine
from repro.distributed.hierarchy import TreeNode, TreeTopology
from repro.distributed.partition import partition_round_robin
from repro.distributed.plan import LocalStep, NO_OPTIMIZATIONS
from repro.distributed.pricing import price
from repro.distributed.site import SkallaSite


def make_query():
    return (QueryBuilder()
            .base("g")
            .gmdj([count_star("n"), agg("avg", "v", "m")], r.g == b.g)
            .gmdj([count_star("n2")], (r.g == b.g) & (r.v >= b.m))
            .build())


@pytest.fixture(scope="module")
def detail():
    return Relation.from_dicts([
        {"g": i % 17, "v": float((i * 7) % 101)} for i in range(2_000)])


@pytest.fixture(scope="module")
def partitions(detail):
    return partition_round_robin(detail, 16)


class TestTopology:
    def test_balanced_covers_all_sites(self):
        topology = TreeTopology.balanced(list(range(16)), fanout=4)
        assert sorted(topology.sites()) == list(range(16))
        assert topology.depth() == 2

    def test_balanced_deeper(self):
        topology = TreeTopology.balanced(list(range(32)), fanout=3)
        assert sorted(topology.sites()) == list(range(32))
        assert topology.depth() >= 3

    def test_flat(self):
        topology = TreeTopology.flat([0, 1, 2])
        assert topology.depth() == 1

    def test_small_fanout_rejected(self):
        with pytest.raises(PlanError):
            TreeTopology.balanced([0, 1], fanout=1)

    def test_empty_rejected(self):
        with pytest.raises(PlanError):
            TreeTopology.balanced([], fanout=2)

    def test_duplicate_site_detected(self):
        # rejected eagerly at construction, not at validate time
        with pytest.raises(PlanError, match="more than once"):
            TreeTopology(TreeNode("root", (0, 0), ()))

    def test_duplicate_across_subtrees_detected(self):
        left = TreeNode("left", (0, 1), ())
        right = TreeNode("right", (1, 2), ())
        with pytest.raises(PlanError, match=r"\[1\].*more than once"):
            TreeTopology(TreeNode("root", (), (left, right)))

    def test_validate_sites_unknown(self):
        topology = TreeTopology.flat([0, 1, 7])
        with pytest.raises(PlanError, match="unknown sites \\[7\\]"):
            topology.validate_sites([0, 1, 2])

    def test_validate_sites_orphaned(self):
        topology = TreeTopology.flat([0, 1])
        with pytest.raises(PlanError, match="unreachable"):
            topology.validate_sites([0, 1, 2])

    def test_childless_node_rejected(self):
        with pytest.raises(PlanError, match="no children"):
            TreeNode("empty")


class TestCombineStates:
    def test_merges_by_key(self):
        schema_rows_a = [{"g": 1, "n__count": 2, "m__sum": 10.0,
                          "m__count": 2}]
        schema_rows_b = [{"g": 1, "n__count": 3, "m__sum": 5.0,
                          "m__count": 3},
                         {"g": 2, "n__count": 1, "m__sum": 7.0,
                          "m__count": 1}]
        gmdj = Gmdj.single([count_star("n"), AggregateSpec("avg", "v", "m")],
                           r.g == b.g)
        detail_schema = Relation.from_dicts([{"g": 1, "v": 1.0}]).schema
        merged = combine_states_by_key(
            [Relation.from_dicts(schema_rows_a),
             Relation.from_dicts(schema_rows_b)],
            ["g"], [gmdj], detail_schema)
        rows = {row["g"]: row for row in merged.to_dicts()}
        assert rows[1]["n__count"] == 5
        assert rows[1]["m__sum"] == pytest.approx(15.0)
        assert rows[2]["n__count"] == 1

    def test_carried_attributes_take_first_occurrence(self):
        """Non-state columns come from each key's first row — checked
        against the plain loop, with a NaN key in the mix."""
        nan = float("nan")
        parts = [
            Relation.from_dicts([
                {"g": 1.0, "tag": "a1", "n__count": 2},
                {"g": nan, "tag": "n1", "n__count": 1},
                {"g": 3.0, "tag": "c1", "n__count": 1}]),
            Relation.from_dicts([
                {"g": nan, "tag": "n2", "n__count": 5},
                {"g": 1.0, "tag": "a2", "n__count": 3},
                {"g": 7.0, "tag": "d2", "n__count": 4}])]
        gmdj = Gmdj.single([count_star("n")], r.g == b.g)
        detail_schema = Relation.from_dicts([{"g": 1.0, "tag": "x"}]).schema
        merged = combine_states_by_key(parts, ["g"], [gmdj], detail_schema)
        combined = Relation.concat(parts)
        first = {}
        for position in range(combined.num_rows - 1, -1, -1):
            key = combined.column("g")[position]
            first["nan" if np.isnan(key) else key] = position
        expected = [combined.column("tag")[position]
                    for position in sorted(first.values())]
        assert list(merged.column("tag")) == expected == [
            "a1", "n1", "c1", "d2"]
        assert list(merged.column("n__count")) == [5, 6, 1, 4]

    def test_empty_inputs_pass_through(self):
        relation = Relation.from_dicts([{"g": 1, "n__count": 1}]).head(0)
        gmdj = Gmdj.single([count_star("n")], r.g == b.g)
        detail_schema = Relation.from_dicts([{"g": 1}]).schema
        merged = combine_states_by_key([relation], ["g"], [gmdj],
                                       detail_schema)
        assert merged.num_rows == 0

    @seeded
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_arrival_order_and_bracketing_never_change_a_sync(self, data):
        """Folding the sites' sub-results in any order and bracketing
        through combine_states_by_key, then synchronizing, is
        bit-identical to synchronizing all of them at once."""
        schema = Schema.of(("g", DataType.INT64), ("v", DataType.INT64))
        gmdj = Gmdj.single(
            [count_star("n"), AggregateSpec("sum", "v", "s"),
             AggregateSpec("min", "v", "lo"), AggregateSpec("max", "v", "hi"),
             AggregateSpec("approx_count_distinct", "v", "acd")],
            r.g == b.g)
        expression = GmdjExpression(ProjectionBase(("g",)), (gmdj,), ("g",))
        step = LocalStep((gmdj,))
        base = Relation.from_rows(Schema.of(("g", DataType.INT64)),
                                  [(g,) for g in range(6)])
        rows = st.tuples(st.integers(0, 7),
                         st.integers(-2 ** 52, 2 ** 52))
        sub_results = [
            SkallaSite(site, Relation.from_rows(
                schema, data.draw(st.lists(rows, max_size=25))))
            .execute_step(step, base, ("g",), None, False)[0]
            for site in range(data.draw(st.integers(2, 6)))]

        def fold(parts):
            if len(parts) == 1:
                return parts[0]
            split = data.draw(st.integers(1, len(parts) - 1))
            return combine_states_by_key(
                [fold(parts[:split]), fold(parts[split:])],
                ("g",), [gmdj], schema)

        arrival = data.draw(st.permutations(sub_results))
        synchronized = []
        for inputs in (sub_results, [fold(arrival)]):
            coordinator = Coordinator(expression, schema)
            coordinator.set_base(base)
            coordinator.synchronize_step(step, inputs)
            synchronized.append(coordinator)
        batch, folded = synchronized
        for left, right in ((batch.result, folded.result),
                            (batch.state_relation, folded.state_relation)):
            assert left.schema == right.schema
            for name in left.schema.names:
                expected, actual = left.column(name), right.column(name)
                if expected.dtype == object:  # serialized sketch states
                    assert list(actual) == list(expected)
                else:
                    assert actual.tobytes() == expected.tobytes()


class TestCostProfile:
    """A balanced tree priced over one flat run (docs/TOPOLOGY.md)."""

    @pytest.fixture(scope="class")
    def priced(self, partitions):
        engine = SkallaEngine(partitions)
        run = engine.execute(make_query(), NO_OPTIMIZATIONS)
        topology = TreeTopology.balanced(sorted(partitions), fanout=4)
        return run, price(run.log, topology, engine.link)

    def test_root_inbound_bytes_reduced(self, priced):
        """The tree's headline benefit: fewer bytes arrive at the root
        per round (aggregators pre-merge duplicate groups)."""
        run, tree = priced
        assert tree.root_ingress_bytes < run.metrics.bytes_to_coordinator
        assert tree.bytes_to_coordinator == tree.root_ingress_bytes

    def test_metrics_populated(self, priced):
        __, tree = priced
        assert tree.response_seconds > 0
        assert tree.communication_seconds > 0
        assert tree.num_synchronizations == 3


class TestErrors:
    def test_schema_mismatch(self, detail):
        other = detail.project(["g"])
        with pytest.raises(SchemaError, match="share one schema"):
            SkallaEngine({0: detail, 1: other})
