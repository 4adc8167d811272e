"""Tests for the plan cost model: accuracy against measurement, and
plan ranking."""

import pytest

from repro.bench.harness import build_tpcr_warehouse
from repro.bench.queries import correlated_query
from repro.optimizer.cost import (
    CostEstimate, choose_flags, estimate_plan_cost)
from repro.optimizer.planner import build_plan
from repro.relational.statistics import collect_stats
from repro.distributed.plan import (
    ALL_OPTIMIZATIONS, NO_OPTIMIZATIONS, OptimizationFlags)


@pytest.fixture(scope="module")
def warehouse():
    return build_tpcr_warehouse(num_rows=12_000, num_sites=8,
                                high_cardinality=True, seed=21)


@pytest.fixture(scope="module")
def stats(warehouse):
    engine = warehouse.engine
    return collect_stats([engine.fragment(site) for site in engine.site_ids],
                         attrs=["CustName", "NationKey", "Clerk"])


@pytest.fixture(scope="module")
def query(warehouse):
    return correlated_query([warehouse.group_attr], warehouse.measure)


def _measured_bytes(warehouse, query, flags):
    result = warehouse.engine.execute(query, flags)
    return result.metrics.total_bytes


class TestAccuracy:
    @pytest.mark.parametrize("flags", [
        NO_OPTIMIZATIONS,
        OptimizationFlags(group_reduction_independent=True),
        OptimizationFlags(group_reduction_independent=True,
                          group_reduction_aware=True),
        ALL_OPTIMIZATIONS,
    ], ids=lambda f: f.describe())
    def test_bytes_within_factor_two(self, warehouse, stats, query, flags):
        plan = build_plan(query, flags, warehouse.info,
                          warehouse.engine.detail_schema,
                          sites=warehouse.engine.site_ids)
        estimate = estimate_plan_cost(
            plan, stats, num_sites=8,
            detail_schema=warehouse.engine.detail_schema,
            link=warehouse.engine.link)
        measured = _measured_bytes(warehouse, query, flags)
        assert estimate.bytes_total == pytest.approx(measured, rel=1.0)
        assert estimate.bytes_total > measured / 2

    def test_sync_count_matches_plan(self, warehouse, stats, query):
        plan = build_plan(query, ALL_OPTIMIZATIONS, warehouse.info,
                          warehouse.engine.detail_schema,
                          sites=warehouse.engine.site_ids)
        estimate = estimate_plan_cost(
            plan, stats, 8, warehouse.engine.detail_schema)
        assert estimate.synchronizations == plan.num_synchronizations == 1


class TestRanking:
    def test_orders_main_configurations_like_measurement(
            self, warehouse, stats, query):
        configurations = [
            NO_OPTIMIZATIONS,
            OptimizationFlags(group_reduction_independent=True),
            OptimizationFlags(group_reduction_independent=True,
                              group_reduction_aware=True),
            ALL_OPTIMIZATIONS,
        ]
        estimated = []
        measured = []
        for flags in configurations:
            plan = build_plan(query, flags, warehouse.info,
                              warehouse.engine.detail_schema,
                              sites=warehouse.engine.site_ids)
            estimate = estimate_plan_cost(
                plan, stats, 8, warehouse.engine.detail_schema,
                link=warehouse.engine.link)
            estimated.append(estimate.bytes_total)
            measured.append(_measured_bytes(warehouse, query, flags))
        estimated_order = sorted(range(4), key=lambda i: estimated[i])
        measured_order = sorted(range(4), key=lambda i: measured[i])
        assert estimated_order == measured_order

    def test_choose_flags_picks_all_on_partitioned_key(self, warehouse,
                                                       stats, query):
        flags, estimate = choose_flags(
            query, stats, 8, warehouse.engine.detail_schema,
            info=warehouse.info, link=warehouse.engine.link)
        assert flags.sync_reduction
        assert isinstance(estimate, CostEstimate)
        # the chosen plan must actually be among the cheapest measured
        chosen = _measured_bytes(warehouse, query, flags)
        baseline = _measured_bytes(warehouse, query, NO_OPTIMIZATIONS)
        assert chosen < baseline / 3

    def test_choose_flags_without_knowledge(self, warehouse, stats, query):
        flags, __ = choose_flags(
            query, stats, 8, warehouse.engine.detail_schema, info=None)
        # Prop. 2 still applies without knowledge; aware GR cannot help,
        # and the tie-break must not enable it.
        assert flags.sync_reduction
        assert not flags.group_reduction_aware


class TestEdgeCases:
    def test_estimate_monotone_in_sites(self, warehouse, stats, query):
        plan_args = (query, NO_OPTIMIZATIONS, warehouse.info,
                     warehouse.engine.detail_schema)
        small = estimate_plan_cost(
            build_plan(*plan_args, sites=[0, 1]), stats, 2,
            warehouse.engine.detail_schema)
        large = estimate_plan_cost(
            build_plan(*plan_args, sites=list(range(8))), stats, 8,
            warehouse.engine.detail_schema)
        assert large.bytes_total > small.bytes_total

    def test_transfer_seconds_positive(self, warehouse, stats, query):
        plan = build_plan(query, NO_OPTIMIZATIONS, None,
                          warehouse.engine.detail_schema, sites=[0])
        estimate = estimate_plan_cost(plan, stats, 1,
                                      warehouse.engine.detail_schema)
        assert estimate.transfer_seconds > 0
