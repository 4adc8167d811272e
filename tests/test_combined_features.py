"""Cross-feature integration: the extension features composed.

Each extension is tested in isolation elsewhere; these tests compose
them — retries + optimizations, hierarchy + independent reduction,
facade + faults, storage + execution — because feature interactions
are where real systems break.
"""

import numpy as np
import pytest

from repro.relational.aggregates import count_star
from repro.relational.expressions import b, r
from repro.relational.relation import Relation
from repro.core.builder import QueryBuilder, agg
from repro.distributed.engine import SkallaEngine
from repro.distributed.faults import FlakySite
from repro.distributed.hierarchy import TreeTopology
from repro.distributed.pricing import price
from repro.distributed.partition import partition_round_robin
from repro.distributed.plan import ALL_OPTIMIZATIONS, OptimizationFlags


@pytest.fixture(scope="module")
def detail():
    rng = np.random.default_rng(41)
    return Relation.from_dicts([
        {"g": int(rng.integers(0, 13)), "v": float(rng.normal(20, 8))}
        for __ in range(2_500)])


def make_query():
    return (QueryBuilder().base("g")
            .gmdj([count_star("n"), agg("avg", "v", "m")], r.g == b.g)
            .gmdj([count_star("n2")], (r.g == b.g) & (r.v >= b.m))
            .build())


class TestFaultsPlusOptimizations:
    def test_all_together(self, detail):
        partitions = partition_round_robin(detail, 5)
        engine = SkallaEngine(partitions, max_retries=3)
        engine.sites[1] = FlakySite(1, partitions[1], failures=2)
        query = make_query()
        reference = query.evaluate_centralized(detail)
        result = engine.execute(query, ALL_OPTIMIZATIONS)
        assert result.relation.multiset_equals(reference)
        assert result.metrics.retries == 2

    def test_flaky_site_repeated_runs(self, detail):
        """Stability across repeated executions on the same engine
        (FlakySite recovers after its budget and stays recovered)."""
        partitions = partition_round_robin(detail, 4)
        engine = SkallaEngine(partitions, max_retries=2)
        engine.sites[0] = FlakySite(0, partitions[0], failures=1)
        query = make_query()
        reference = query.evaluate_centralized(detail)
        first = engine.execute(query, ALL_OPTIMIZATIONS)
        second = engine.execute(query, ALL_OPTIMIZATIONS)
        assert first.relation.multiset_equals(reference)
        assert second.relation.multiset_equals(reference)
        assert first.metrics.retries == 1
        assert second.metrics.retries == 0


class TestHierarchyPlusReduction:
    def test_tree_with_independent_reduction_traffic(self, detail):
        """Group reduction's saving survives the interior merges: priced
        over a fanout-3 tree, the reduced run still ships no more rows
        up than the plain one."""
        partitions = partition_round_robin(detail, 8)
        topology = TreeTopology.balanced(sorted(partitions), fanout=3)
        engine = SkallaEngine(partitions)
        query = make_query()
        reference = query.evaluate_centralized(detail)
        plain = engine.execute(query, OptimizationFlags())
        reduced = engine.execute(
            query, OptimizationFlags(group_reduction_independent=True))
        assert plain.relation.multiset_equals(reference)
        assert reduced.relation.multiset_equals(reference)
        up_plain, __ = price(plain.log, topology, engine.link) \
            .log.rows_by_direction()
        up_reduced, __ = price(reduced.log, topology, engine.link) \
            .log.rows_by_direction()
        assert up_reduced <= up_plain


class TestStoragePlusFaults:
    def test_loaded_warehouse_retries_flaky_site(self, detail, tmp_path):
        from repro.distributed.storage import load_warehouse, save_warehouse
        save_warehouse(SkallaEngine(partition_round_robin(detail, 3)),
                       tmp_path / "wh")
        engine = load_warehouse(tmp_path / "wh", max_retries=2)
        engine.sites[1] = FlakySite(1, engine.fragment(1), failures=1)
        query = make_query()
        result = engine.execute(query, ALL_OPTIMIZATIONS)
        assert result.relation.multiset_equals(
            query.evaluate_centralized(detail))
        assert result.metrics.retries == 1


class TestFacadePlusFaults:
    def test_warehouse_sql_survives_flaky_site(self, detail):
        from repro.warehouse import Warehouse
        partitions = partition_round_robin(detail, 3)
        engine = SkallaEngine(partitions, max_retries=2)
        engine.sites[2] = FlakySite(2, partitions[2], failures=1)
        warehouse = Warehouse(engine)
        result = warehouse.sql(
            "SELECT g, COUNT(*) AS n, AVG(v) AS m FROM T GROUP BY g "
            "ORDER BY n DESC")
        assert result.metrics.retries == 1
        assert result.relation.num_rows == 13
        counts = result.relation.column("n")
        assert all(counts[:-1] >= counts[1:])

