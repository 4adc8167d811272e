"""Distributed evaluation of cube/rollup granularities."""

import pytest

from repro.relational.aggregates import AggregateSpec, count_star
from repro.cube import (
    ALL_MARKER, CubeLatticePlan, cube_sets, execute_lattice, rollup_sets)
from repro.data.tpch import generate_tpcr
from repro.distributed.engine import SkallaEngine
from repro.distributed.partition import partition_round_robin
from repro.distributed.plan import ALL_OPTIMIZATIONS, NO_OPTIMIZATIONS

AGGS = [count_star("n"), AggregateSpec("sum", "ExtendedPrice", "total")]
DIMS = ["MktSegment", "OrderPriority"]


@pytest.fixture(scope="module")
def relation():
    return generate_tpcr(num_rows=5_000, num_customers=250, seed=17)


@pytest.fixture(scope="module")
def engine(relation):
    return SkallaEngine(partition_round_robin(relation, 4))


def lattice_plan(requested):
    return CubeLatticePlan(attrs=tuple(DIMS), aggregates=tuple(AGGS),
                           requested=requested)


class TestDistributedCube:
    def test_every_granularity_matches_centralized(self, relation, engine):
        plan = lattice_plan(cube_sets(DIMS))
        for subset in plan.requested:
            expression = plan.source_expression(subset)
            reference = expression.evaluate_centralized(relation)
            for flags in (NO_OPTIMIZATIONS, ALL_OPTIMIZATIONS):
                result = engine.execute(expression, flags)
                assert result.relation.multiset_equals(reference), subset

    def test_rollup_granularities(self, relation, engine):
        plan = lattice_plan(rollup_sets(DIMS))
        for prefix in plan.requested:
            expression = plan.source_expression(prefix)
            reference = expression.evaluate_centralized(relation)
            result = engine.execute(expression, ALL_OPTIMIZATIONS)
            assert result.relation.multiset_equals(reference), prefix

    def test_cube_consistency_across_granularities(self, relation, engine):
        """Roll-up invariants: coarse cells equal sums of finer cells."""
        full = execute_lattice(engine, lattice_plan(cube_sets(DIMS)),
                               ALL_OPTIMIZATIONS).relation
        rows = {(row["MktSegment"], row["OrderPriority"]): row
                for row in full.to_dicts()}
        segments = {key[0] for key in rows if key[0] != ALL_MARKER}
        for segment in segments:
            fine_total = sum(row["total"] for key, row in rows.items()
                             if key[0] == segment and key[1] != ALL_MARKER)
            assert rows[(segment, ALL_MARKER)]["total"] == \
                pytest.approx(fine_total)
        grand = rows[(ALL_MARKER, ALL_MARKER)]
        assert grand["n"] == relation.num_rows


# ---------------------------------------------------------------------------
# Round-per-level lattice scheduling (repro.cube.execute_lattice)
# ---------------------------------------------------------------------------

class TestLatticeScheduler:
    """One scatter per lattice level; everything else is derived."""

    def _reference(self, plan, relation):
        from repro.cube import run_centralized
        return run_centralized(plan, relation)

    def test_full_cube_is_one_round(self, relation, engine):
        from repro.cube import cube_sets, execute_lattice
        plan = lattice_plan(cube_sets(DIMS))
        execution = execute_lattice(engine, plan, ALL_OPTIMIZATIONS)
        metrics = execution.metrics
        assert metrics.num_synchronizations == 1
        assert metrics.lattice_levels == 1
        assert metrics.cuboids_total == 4
        assert metrics.cuboids_derived == 3
        assert execution.relation.multiset_equals(
            self._reference(plan, relation))

    def test_incomparable_sources_schedule_level_by_level(self, relation,
                                                          engine):
        from repro.cube import execute_lattice
        # (MktSegment, OrderPriority) and (OrderPriority,) nest, but a
        # second maximal set of smaller width forces a second level.
        requested = (("MktSegment", "OrderPriority"), ("OrderPriority",),
                     ())
        plan = lattice_plan(requested)
        assert plan.sources == (("MktSegment", "OrderPriority"),)
        execution = execute_lattice(engine, plan, NO_OPTIMIZATIONS)
        assert execution.metrics.lattice_levels == 1
        assert execution.metrics.cuboids_derived == 2
        assert execution.relation.multiset_equals(
            self._reference(plan, relation))

    def test_disjoint_sources_get_their_own_levels(self, relation, engine):
        from repro.cube import execute_lattice
        requested = (("MktSegment", "OrderPriority"), ("OrderDate",), ())
        plan = self._plan_three(requested)
        execution = execute_lattice(engine, plan, NO_OPTIMIZATIONS)
        metrics = execution.metrics
        assert metrics.lattice_levels == 2      # widths 2 and 1
        assert len(execution.runs) == 2         # one scatter per source
        assert metrics.cuboids_total == 3
        assert metrics.cuboids_derived == 1     # only the grand total
        assert execution.relation.multiset_equals(
            self._reference(plan, relation))

    def _plan_three(self, requested):
        from repro.cube import CubeLatticePlan
        return CubeLatticePlan(
            attrs=("MktSegment", "OrderPriority", "OrderDate"),
            aggregates=tuple(AGGS), requested=requested)

    def test_tree_prices_the_lattice(self, relation):
        """Every source run of the lattice prices over a tree; the
        rollup-derived cuboids cost no round at any shape."""
        from repro.topology import build_cost_tree, clustered_wan
        from repro.cube import cube_sets, execute_lattice
        from repro.distributed.metrics import QueryMetrics
        from repro.distributed.pricing import price
        plan = lattice_plan(cube_sets(DIMS))
        wan = clustered_wan(6, seed=3)
        tree = build_cost_tree(wan, 2)
        engine = SkallaEngine(partition_round_robin(relation, 6))
        execution = execute_lattice(engine, plan, ALL_OPTIMIZATIONS)
        priced = QueryMetrics.combined(
            [price(run.log, tree, engine.link, wan=wan)
             for run in execution.runs], len(engine.site_ids))
        assert priced.topology == "tree"
        assert priced.num_synchronizations == \
            execution.metrics.num_synchronizations
        assert priced.root_ingress_bytes < priced.flat_ingress_bytes
        assert execution.metrics.cuboids_derived == 3
        assert execution.relation.multiset_equals(
            self._reference(plan, relation))

    def test_warm_cache_reruns_stay_identical(self, relation):
        from repro.cube import cube_sets, execute_lattice
        plan = lattice_plan(cube_sets(DIMS))
        engine = SkallaEngine(partition_round_robin(relation, 4),
                              cache=True)
        reference = self._reference(plan, relation)
        cold = execute_lattice(engine, plan, NO_OPTIMIZATIONS)
        warm = execute_lattice(engine, plan, NO_OPTIMIZATIONS)
        assert cold.relation.multiset_equals(reference)
        assert warm.relation.multiset_equals(reference)
        assert warm.metrics.cache_enabled
        assert sum(phase.cache_hits for phase in warm.metrics.phases) > 0

    def test_non_rollup_safe_aggregate_falls_back_per_cuboid(self,
                                                             relation,
                                                             engine):
        """The carve-out: rollup_safe=False drops to per-cuboid rounds."""
        from repro.relational.aggregates import (
            AggregateSpec, SumFunction, register_function)
        from repro.cube import CubeLatticePlan, cube_sets, execute_lattice

        class PinnedSum(SumFunction):
            name = "pinned_sum_test"
            rollup_safe = False

        register_function(PinnedSum())
        aggs = (count_star("n"),
                AggregateSpec("pinned_sum_test", "ExtendedPrice", "total"))
        plan = CubeLatticePlan(attrs=tuple(DIMS), aggregates=aggs,
                               requested=cube_sets(DIMS))
        assert not plan.rollable
        execution = execute_lattice(engine, plan, NO_OPTIMIZATIONS)
        metrics = execution.metrics
        assert len(execution.runs) == 4             # one per cuboid
        assert metrics.cuboids_derived == 0
        assert metrics.lattice_levels == 4
        # numerically the same cube as the rollup-safe sum
        safe = CubeLatticePlan(attrs=tuple(DIMS), aggregates=tuple(AGGS),
                               requested=cube_sets(DIMS))
        reference = self._reference(safe, relation)
        renamed = execution.relation
        assert renamed.multiset_equals(reference)


# ---------------------------------------------------------------------------
# Fault battery: kill / hang a site mid-lattice-level
# ---------------------------------------------------------------------------

class TestLatticeFaults:
    """Retry, respawn, and hedging keep derived cuboids correct."""

    REQUESTED = (("MktSegment", "OrderPriority"), ("OrderDate",), ())

    def _plan(self):
        from repro.cube import CubeLatticePlan
        return CubeLatticePlan(
            attrs=("MktSegment", "OrderPriority", "OrderDate"),
            aggregates=tuple(AGGS), requested=self.REQUESTED)

    def _reference(self, relation):
        from repro.cube import run_centralized
        return run_centralized(self._plan(), relation)

    def test_flaky_site_retries_mid_level(self, relation):
        from repro.distributed.faults import FlakySite
        from repro.distributed.transport import RetryPolicy
        from repro.cube import execute_lattice
        partitions = partition_round_robin(relation, 4)
        engine = SkallaEngine(
            partitions,
            retry_policy=RetryPolicy(max_retries=2, base_delay=0.001))
        # fails its first two step requests — the first lattice level
        # loses a site mid-scatter and must retry it
        engine.sites[2] = FlakySite(2, partitions[2], failures=2,
                                    fail_on="step")
        execution = execute_lattice(engine, self._plan(),
                                    NO_OPTIMIZATIONS)
        assert execution.metrics.retries >= 1
        assert execution.relation.multiset_equals(
            self._reference(relation))

    def test_killed_worker_respawns_mid_level(self, relation):
        from repro.distributed.faults import ProcessFaultSpec
        from repro.distributed.transport import RetryPolicy
        from repro.cube import execute_lattice
        # hedge=False: worker_respawns is reported by the retry arm; a
        # hedge that wins the round first reports none.
        engine = SkallaEngine(
            partition_round_robin(relation, 4), transport="process",
            hedge=False,
            retry_policy=RetryPolicy(max_retries=2, base_delay=0.01),
            transport_options={
                "fault_specs": {1: ProcessFaultSpec(kill_on_request=1)}})
        try:
            execution = execute_lattice(engine, self._plan(),
                                        NO_OPTIMIZATIONS)
        finally:
            engine.close()
        assert execution.metrics.worker_respawns >= 1
        assert execution.relation.multiset_equals(
            self._reference(relation))

    def test_hung_worker_is_hedged_mid_level(self, relation):
        from repro.distributed.faults import ProcessFaultSpec
        from repro.distributed.transport import HedgePolicy
        from repro.cube import execute_lattice
        engine = SkallaEngine(
            partition_round_robin(relation, 4), transport="process",
            hedge=HedgePolicy(multiplier=1.25, min_seconds=0.02),
            transport_options={
                "fault_specs": {2: ProcessFaultSpec(
                    hang_on_request=1, hang_seconds=2.0)}})
        try:
            execution = execute_lattice(engine, self._plan(),
                                        NO_OPTIMIZATIONS)
        finally:
            engine.close()
        assert execution.relation.multiset_equals(
            self._reference(relation))

    def test_persistent_failure_surfaces_cleanly(self, relation):
        from repro.errors import SiteFailure
        from repro.distributed.faults import FlakySite
        from repro.distributed.transport import RetryPolicy
        from repro.cube import execute_lattice
        partitions = partition_round_robin(relation, 4)
        engine = SkallaEngine(
            partitions,
            retry_policy=RetryPolicy(max_retries=1, base_delay=0.001))
        engine.sites[0] = FlakySite(0, partitions[0], failures=10_000)
        with pytest.raises(SiteFailure):
            execute_lattice(engine, self._plan(), NO_OPTIMIZATIONS)
