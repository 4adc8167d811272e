"""Integration tests: the Sect. 5 experiment queries end-to-end on the
TPCR warehouse, all optimization settings, checking both correctness and
the qualitative shapes the paper reports."""

import itertools

import pytest

from repro.bench.harness import (
    build_flow_warehouse, build_tpcr_warehouse, growth_exponent,
    speedup_series)
from repro.bench.queries import (
    coalescible_query, combined_query, correlated_query)
from repro.relational.expressions import r
from repro.distributed.plan import (
    ALL_OPTIMIZATIONS, NO_OPTIMIZATIONS, OptimizationFlags)


@pytest.fixture(scope="module")
def tpcr_warehouse():
    return build_tpcr_warehouse(num_rows=12_000, num_sites=8,
                                high_cardinality=True, seed=21)


@pytest.fixture(scope="module")
def tpcr_union(tpcr_warehouse):
    return tpcr_warehouse.engine.total_detail_relation()


class TestExperimentQueriesCorrect:
    """Every experiment query × every flag combination ≡ centralized."""

    @pytest.mark.parametrize("combo", list(itertools.product(
        [False, True], repeat=4)))
    def test_correlated_query(self, tpcr_warehouse, tpcr_union, combo):
        flags = OptimizationFlags(*combo)
        query = correlated_query(["CustName"], "ExtendedPrice")
        reference = query.evaluate_centralized(tpcr_union)
        result = tpcr_warehouse.engine.execute(query, flags)
        assert result.relation.multiset_equals(reference)

    def test_coalescible_query(self, tpcr_warehouse, tpcr_union):
        query = coalescible_query(["CustName"], "ExtendedPrice",
                                  r.Discount >= 0.05)
        reference = query.evaluate_centralized(tpcr_union)
        for flags in (NO_OPTIMIZATIONS, OptimizationFlags(coalesce=True),
                      ALL_OPTIMIZATIONS):
            result = tpcr_warehouse.engine.execute(query, flags)
            assert result.relation.multiset_equals(reference)

    def test_combined_query(self, tpcr_warehouse, tpcr_union):
        query = combined_query(["CustName"], "ExtendedPrice",
                               r.Discount >= 0.05)
        reference = query.evaluate_centralized(tpcr_union)
        for flags in (NO_OPTIMIZATIONS, ALL_OPTIMIZATIONS):
            result = tpcr_warehouse.engine.execute(query, flags)
            assert result.relation.multiset_equals(reference)

    def test_low_cardinality_variant(self):
        warehouse = build_tpcr_warehouse(num_rows=12_000, num_sites=4,
                                         high_cardinality=False, seed=5)
        union = warehouse.engine.total_detail_relation()
        query = correlated_query(["CustName"], "ExtendedPrice")
        reference = query.evaluate_centralized(union)
        result = warehouse.engine.execute(query, ALL_OPTIMIZATIONS)
        assert result.relation.multiset_equals(reference)


class TestTransportParityOnExperimentQueries:
    """The experiment queries through every transport backend produce
    bit-identical relations (the multiprocess acceptance criterion)."""

    QUERIES = {
        "correlated": lambda: correlated_query(["CustName"],
                                               "ExtendedPrice"),
        "coalescible": lambda: coalescible_query(
            ["CustName"], "ExtendedPrice", r.Discount >= 0.05),
        "combined": lambda: combined_query(
            ["CustName"], "ExtendedPrice", r.Discount >= 0.05),
    }

    @pytest.mark.parametrize("name", sorted(QUERIES))
    def test_process_matches_inprocess(self, tpcr_warehouse, name):
        engine = tpcr_warehouse.engine
        query = self.QUERIES[name]()
        for flags in (NO_OPTIMIZATIONS, ALL_OPTIMIZATIONS):
            engine.use_transport("inprocess")
            reference = engine.execute(query, flags).relation
            engine.use_transport("process")
            try:
                under_process = engine.execute(query, flags).relation
            finally:
                engine.use_transport("inprocess")
            assert under_process.multiset_equals(reference), (name, flags)
            assert list(under_process.schema.names) == \
                list(reference.schema.names)

    def test_thread_matches_inprocess(self, tpcr_warehouse):
        engine = tpcr_warehouse.engine
        query = self.QUERIES["combined"]()
        engine.use_transport("inprocess")
        reference = engine.execute(query, ALL_OPTIMIZATIONS).relation
        engine.use_transport("thread")
        try:
            under_thread = engine.execute(query, ALL_OPTIMIZATIONS).relation
        finally:
            engine.use_transport("inprocess")
        assert under_thread.multiset_equals(reference)


class TestSynchronizationCounts:
    def test_correlated_unoptimized_three_syncs(self, tpcr_warehouse):
        query = correlated_query(["CustName"], "ExtendedPrice")
        result = tpcr_warehouse.engine.execute(query, NO_OPTIMIZATIONS)
        assert result.metrics.num_synchronizations == 3

    def test_coalesced_two_syncs(self, tpcr_warehouse):
        query = coalescible_query(["CustName"], "ExtendedPrice",
                                  r.Discount >= 0.05)
        result = tpcr_warehouse.engine.execute(
            query, OptimizationFlags(coalesce=True))
        assert result.metrics.num_synchronizations == 2

    def test_sync_reduced_single_sync(self, tpcr_warehouse):
        query = correlated_query(["CustName"], "ExtendedPrice")
        result = tpcr_warehouse.engine.execute(
            query, OptimizationFlags(sync_reduction=True))
        assert result.metrics.num_synchronizations == 1

    def test_combined_all_on_single_sync(self, tpcr_warehouse):
        query = combined_query(["CustName"], "ExtendedPrice",
                               r.Discount >= 0.05)
        result = tpcr_warehouse.engine.execute(query, ALL_OPTIMIZATIONS)
        assert result.metrics.num_synchronizations == 1


class TestFigureShapes:
    """Cheap versions of the headline shape claims (the full sweeps live
    in benchmarks/)."""

    def test_fig2_group_reduction_turns_quadratic_into_linear(
            self, tpcr_warehouse):
        query = correlated_query(["CustName"], "ExtendedPrice")
        settings = {
            "none": NO_OPTIMIZATIONS,
            "both": OptimizationFlags(group_reduction_independent=True,
                                      group_reduction_aware=True),
        }
        rows = speedup_series(tpcr_warehouse, query, settings, [2, 4, 8])
        def exponent(label):
            sub = [row for row in rows if row["config"] == label]
            return growth_exponent([row["sites"] for row in sub],
                                   [row["rows_shipped"] for row in sub])
        assert exponent("none") > 1.6       # quadratic-ish
        assert exponent("both") < 1.3       # linear-ish

    def test_fig3_coalescing_halves_sync_traffic(self, tpcr_warehouse):
        query = coalescible_query(["CustName"], "ExtendedPrice",
                                  r.Discount >= 0.05)
        plain = tpcr_warehouse.engine.execute(query, NO_OPTIMIZATIONS)
        fused = tpcr_warehouse.engine.execute(
            query, OptimizationFlags(coalesce=True))
        assert fused.metrics.total_bytes < plain.metrics.total_bytes

    def test_fig4_sync_reduction_reduces_bytes_heavily(self,
                                                       tpcr_warehouse):
        query = correlated_query(["CustName"], "ExtendedPrice")
        plain = tpcr_warehouse.engine.execute(query, NO_OPTIMIZATIONS)
        reduced = tpcr_warehouse.engine.execute(
            query, OptimizationFlags(sync_reduction=True))
        assert reduced.metrics.total_bytes < plain.metrics.total_bytes / 3

    def test_fig5_optimizations_cut_response_time(self, tpcr_warehouse):
        query = combined_query(["CustName"], "ExtendedPrice",
                               r.Discount >= 0.05)
        plain = tpcr_warehouse.engine.execute(query, NO_OPTIMIZATIONS)
        optimized = tpcr_warehouse.engine.execute(query, ALL_OPTIMIZATIONS)
        assert optimized.metrics.response_seconds < \
            plain.metrics.response_seconds / 2

    def test_each_reduction_alone_never_adds_traffic(self, tpcr_warehouse):
        """Sect. 5.4's summary on the Fig. 5 query, every optimization
        in isolation and combined (modeled bytes): none hurts, all
        together ship the least, and on this partitioned key sync
        reduction alone beats both group reductions together."""
        query = combined_query(["CustName"], "ExtendedPrice",
                               r.Discount >= 0.05)
        settings = {
            "none": NO_OPTIMIZATIONS,
            "coalesce": OptimizationFlags(coalesce=True),
            "independent GR":
                OptimizationFlags(group_reduction_independent=True),
            "aware GR": OptimizationFlags(group_reduction_aware=True),
            "sync reduction": OptimizationFlags(sync_reduction=True),
            "both GR": OptimizationFlags(group_reduction_independent=True,
                                         group_reduction_aware=True),
            "all": ALL_OPTIMIZATIONS,
        }
        shipped = {
            label: tpcr_warehouse.engine.execute(query, flags)
            .metrics.total_bytes
            for label, flags in settings.items()}
        for label, total_bytes in shipped.items():
            assert total_bytes <= shipped["none"], label
        assert shipped["all"] == min(shipped.values())
        assert shipped["sync reduction"] < shipped["both GR"]


class TestFlowWarehouse:
    def test_flow_builder_and_query(self):
        warehouse = build_flow_warehouse(num_flows=6_000, num_routers=4,
                                         num_source_as=16, seed=2)
        union = warehouse.engine.total_detail_relation()
        query = correlated_query(["SourceAS"], "NumBytes")
        reference = query.evaluate_centralized(union)
        result = warehouse.engine.execute(query, ALL_OPTIMIZATIONS)
        assert result.relation.multiset_equals(reference)
        assert result.metrics.num_synchronizations == 1
