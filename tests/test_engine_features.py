"""Tests for parallel site execution, the deterministic compute model,
and collection-point appends."""

import numpy as np
import pytest

from repro.errors import PartitionError, PlanError, SchemaError
from repro.relational.aggregates import count_star
from repro.relational.expressions import b, r
from repro.relational.relation import Relation
from repro.core.builder import QueryBuilder, agg
from repro.distributed.engine import SkallaEngine
from repro.distributed.faults import SlowSite
from repro.distributed.hierarchy import TreeTopology
from repro.distributed.network import ComputeModel
from repro.distributed.partition import (
    partition_by_ranges, partition_round_robin)
from repro.distributed.plan import ALL_OPTIMIZATIONS, NO_OPTIMIZATIONS
from repro.distributed.pricing import price


@pytest.fixture(scope="module")
def detail():
    rng = np.random.default_rng(53)
    return Relation.from_dicts([
        {"g": int(rng.integers(0, 10)), "v": float(rng.normal(5, 2))}
        for __ in range(3_000)])


def make_query():
    return (QueryBuilder().base("g")
            .gmdj([count_star("n"), agg("avg", "v", "m")], r.g == b.g)
            .gmdj([count_star("n2")], (r.g == b.g) & (r.v >= b.m))
            .build())


class TestParallelSites:
    @pytest.mark.parametrize("flags", [NO_OPTIMIZATIONS, ALL_OPTIMIZATIONS],
                             ids=["none", "all"])
    def test_parallel_matches_sequential(self, detail, flags):
        partitions = partition_round_robin(detail, 6)
        sequential = SkallaEngine(partitions)
        parallel = SkallaEngine(partitions, transport="thread")
        query = make_query()
        first = sequential.execute(query, flags)
        second = parallel.execute(query, flags)
        assert second.relation.multiset_equals(first.relation)
        assert second.metrics.num_synchronizations == \
            first.metrics.num_synchronizations
        assert second.metrics.total_bytes == first.metrics.total_bytes

    def test_parallel_with_retries(self, detail):
        from repro.distributed.faults import FlakySite
        partitions = partition_round_robin(detail, 4)
        engine = SkallaEngine(partitions, transport="thread",
                              max_retries=2)
        engine.sites[3] = FlakySite(3, partitions[3], failures=1)
        result = engine.execute(make_query(), NO_OPTIMIZATIONS)
        assert result.metrics.retries == 1
        assert result.relation.multiset_equals(
            make_query().evaluate_centralized(detail))

    def test_single_site_stays_sequential(self, detail):
        engine = SkallaEngine({0: detail}, transport="thread")
        result = engine.execute(make_query(), NO_OPTIMIZATIONS)
        assert result.relation.num_rows == 10


class TestComputeModel:
    def test_deterministic_response_time(self, detail):
        partitions = partition_round_robin(detail, 4)
        model = ComputeModel(scan_seconds_per_row=1e-6,
                             group_seconds_per_row=1e-5)
        engine = SkallaEngine(partitions, compute_model=model)
        query = make_query()
        first = engine.execute(query, NO_OPTIMIZATIONS)
        second = engine.execute(query, NO_OPTIMIZATIONS)
        # identical bit-for-bit: no wall-clock noise anywhere
        assert first.metrics.response_seconds == \
            second.metrics.response_seconds
        assert first.metrics.site_seconds == second.metrics.site_seconds

    @pytest.mark.parametrize("mode", ["delta", "tree"])
    def test_coordinator_merges_are_modeled(self, detail, mode):
        """A cache delta's coordinator-side merge and a tree's interior
        merges are costed by the model like the synchronization: two
        fresh engines report (or price, for the tree) the same
        seconds."""
        model = ComputeModel()
        query = (QueryBuilder().base("g")
                 .gmdj([count_star("n")], r.g == b.g).build())
        runs = []
        for __ in range(2):
            if mode == "delta":
                engine = SkallaEngine(partition_round_robin(detail, 2),
                                      compute_model=model, cache=True)
                engine.execute(query, NO_OPTIMIZATIONS)
                engine.append(0, detail.head(40))
                runs.append(engine.execute(query, NO_OPTIMIZATIONS).metrics)
            else:
                engine = SkallaEngine(partition_round_robin(detail, 4),
                                      compute_model=model)
                run = engine.execute(query, NO_OPTIMIZATIONS)
                runs.append(price(run.log, TreeTopology.balanced(range(4), 2),
                                  engine.link, model))
        if mode == "delta":
            assert runs[0].cache_delta_merges == 2
        else:
            assert any(len(phase.tree_level_seconds) > 1
                       for phase in runs[0].phases)
            assert ([phase.tree_level_seconds for phase in runs[0].phases]
                    == [phase.tree_level_seconds
                        for phase in runs[1].phases])
        assert ([phase.coordinator_seconds for phase in runs[0].phases]
                == [phase.coordinator_seconds for phase in runs[1].phases])
        assert runs[0].response_seconds == runs[1].response_seconds

    @pytest.mark.parametrize("transport", ["inprocess", "thread"])
    def test_model_replaces_measured_site_seconds(self, detail, transport):
        """With a model attached it is the only source of site seconds:
        a site that really sleeps shows in the measured wall-clock, not
        in the modeled seconds."""
        partitions = partition_round_robin(detail, 3)
        model = ComputeModel()
        runs = []
        for slow in (False, True):
            engine = SkallaEngine(partitions, compute_model=model,
                                  transport=transport, hedge=False)
            if slow:
                engine.sites[1] = SlowSite(1, partitions[1],
                                           delay_seconds=0.05)
            try:
                runs.append(engine.execute(make_query(),
                                           NO_OPTIMIZATIONS).metrics)
            finally:
                engine.close()
        fast, slowed = runs
        assert slowed.site_seconds == fast.site_seconds
        assert slowed.response_seconds == fast.response_seconds
        for phase in slowed.phases:
            assert phase.site_wall_seconds[1] >= 0.05

    def test_model_seconds_formula(self):
        model = ComputeModel(scan_seconds_per_row=2.0,
                             group_seconds_per_row=3.0)
        assert model.seconds(10, 4) == pytest.approx(32.0)


class TestAppend:
    def test_append_changes_results(self, detail):
        partitions = partition_round_robin(detail, 2)
        engine = SkallaEngine(partitions)
        query = make_query()
        before = engine.execute(query, NO_OPTIMIZATIONS)
        extra = Relation.from_dicts(
            [{"g": 0, "v": 100.0}] * 5, schema=detail.schema)
        engine.append(0, extra)
        after = engine.execute(query, NO_OPTIMIZATIONS)
        count_before = {row["g"]: row["n"]
                        for row in before.relation.to_dicts()}[0]
        count_after = {row["g"]: row["n"]
                       for row in after.relation.to_dicts()}[0]
        assert count_after == count_before + 5

    def test_append_matches_centralized_on_grown_data(self, detail):
        partitions = partition_round_robin(detail, 3)
        engine = SkallaEngine(partitions)
        extra = Relation.from_dicts(
            [{"g": 7, "v": -3.0}, {"g": 2, "v": 9.9}],
            schema=detail.schema)
        engine.append(1, extra)
        grown = detail.union_all(extra)
        query = make_query()
        result = engine.execute(query, ALL_OPTIMIZATIONS)
        assert result.relation.multiset_equals(
            query.evaluate_centralized(grown))

    def test_append_schema_mismatch_rejected(self, detail):
        engine = SkallaEngine(partition_round_robin(detail, 2))
        with pytest.raises(SchemaError, match="schema"):
            engine.append(0, detail.project(["g"]))

    def test_append_unknown_site(self, detail):
        engine = SkallaEngine(partition_round_robin(detail, 2))
        with pytest.raises(PlanError, match="unknown site"):
            engine.append(5, detail.head(1))

    def test_append_violating_constraints_rejected(self, detail):
        partitions, info = partition_by_ranges(
            detail, "g", {0: (0, 4), 1: (5, 9)})
        engine = SkallaEngine(partitions, info)
        wrong_home = Relation.from_dicts([{"g": 9, "v": 1.0}],
                                         schema=detail.schema)
        with pytest.raises(PartitionError, match="constraint"):
            engine.append(0, wrong_home)
        # the right site accepts them
        engine.append(1, wrong_home)


class TestPerStepSites:
    """Footnote 2 of the paper: S_MDk may be a strict subset of S_B."""

    def test_restricted_round_aggregates_fewer_fragments(self, detail):
        partitions = partition_round_robin(detail, 4)
        engine = SkallaEngine(partitions)
        query = (QueryBuilder().base("g")
                 .gmdj([count_star("n")], r.g == b.g)
                 .build())
        from repro.optimizer.planner import build_plan
        plan = build_plan(query, NO_OPTIMIZATIONS, None,
                          engine.detail_schema, sites=engine.site_ids)
        full = engine.execute_plan(plan)
        restricted = engine.execute_plan(plan, step_sites={0: [0, 1]})
        # base round saw all sites, so the groups are identical...
        assert restricted.relation.num_rows == full.relation.num_rows
        # ...but round-1 counts only cover sites 0 and 1
        subset_union = Relation.concat([partitions[0], partitions[1]])
        expected = query.evaluate_centralized(subset_union)
        expected_counts = {row["g"]: row["n"]
                           for row in expected.to_dicts()}
        for row in restricted.relation.to_dicts():
            assert row["n"] == expected_counts.get(row["g"], 0)

    def test_non_subset_rejected(self, detail):
        partitions = partition_round_robin(detail, 3)
        engine = SkallaEngine(partitions)
        query = (QueryBuilder().base("g")
                 .gmdj([count_star("n")], r.g == b.g)
                 .build())
        from repro.optimizer.planner import build_plan
        plan = build_plan(query, NO_OPTIMIZATIONS, None,
                          engine.detail_schema, sites=[0, 1])
        with pytest.raises(PlanError, match="subset"):
            engine.execute_plan(plan, sites=[0, 1], step_sites={0: [2]})
