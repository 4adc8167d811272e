"""Tests for the high-level Warehouse facade."""

import numpy as np
import pytest

from repro.data.flows import generate_flows, router_as_ranges
from repro.distributed.partition import (
    RangeConstraint, partition_by_values)
from repro.distributed.plan import NO_OPTIMIZATIONS, OptimizationFlags
from repro.relational.relation import Relation
from repro.warehouse import QueryResult, Warehouse


@pytest.fixture(scope="module")
def flows():
    return generate_flows(num_flows=6_000, num_routers=4,
                          num_source_as=16, seed=8)


@pytest.fixture(scope="module")
def warehouse(flows):
    partitions, info = partition_by_values(
        flows, "RouterId", {site: [site] for site in range(4)})
    for site, (low, high) in router_as_ranges(4, 16).items():
        info.add(site, "SourceAS", RangeConstraint(low, high))
    return Warehouse.from_partitions(partitions, info)


BASIC_SQL = ("SELECT SourceAS, COUNT(*) AS n, AVG(NumBytes) AS m "
             "FROM Flow GROUP BY SourceAS")


class TestSql:
    def test_basic_query(self, warehouse, flows):
        result = warehouse.sql(BASIC_SQL)
        assert isinstance(result, QueryResult)
        assert result.relation.num_rows == 16
        assert sum(result.relation.column("n")) == flows.num_rows

    def test_auto_optimization_kicks_in(self, warehouse):
        result = warehouse.sql(BASIC_SQL)
        # grouping on the partition attribute: the model must find the
        # single-synchronization plan
        assert result.flags.sync_reduction
        assert result.metrics.num_synchronizations == 1

    def test_explicit_flags_override(self, warehouse):
        result = warehouse.sql(BASIC_SQL, flags=NO_OPTIMIZATIONS)
        assert result.metrics.num_synchronizations == 2

    def test_auto_optimize_off(self, flows):
        partitions, info = partition_by_values(
            flows, "RouterId", {site: [site] for site in range(4)})
        plain = Warehouse.from_partitions(partitions, info,
                                          auto_optimize=False)
        result = plain.sql(BASIC_SQL)
        assert result.flags == OptimizationFlags()

    def test_presentation_clauses_applied(self, warehouse):
        result = warehouse.sql(BASIC_SQL + " ORDER BY n DESC LIMIT 3")
        assert result.relation.num_rows == 3
        counts = result.relation.column("n")
        assert all(counts[:-1] >= counts[1:])

    def test_correlated_query(self, warehouse):
        result = warehouse.sql(
            BASIC_SQL + " THEN COMPUTE COUNT(*) AS above "
                        "WHERE NumBytes >= m")
        assert "above" in result.relation.schema

    def test_matches_manual_pipeline(self, warehouse, flows):
        from repro.sql.compiler import compile_query
        compiled = compile_query(BASIC_SQL, flows.schema)
        manual = compiled.run_centralized(flows)
        assert warehouse.sql(BASIC_SQL).relation.multiset_equals(manual)

    def test_report_text(self, warehouse):
        result = warehouse.sql(BASIC_SQL)
        report = result.report()
        assert "== plan ==" in report and "phase breakdown" in report


class TestExecute:
    def test_bare_expression(self, warehouse, flows):
        from repro.bench.queries import correlated_query
        expression = correlated_query(["SourceAS"], "NumBytes")
        result = warehouse.execute(expression)
        assert result.relation.multiset_equals(
            expression.evaluate_centralized(flows))


class TestStatsAndExplain:
    def test_stats_cached(self, warehouse):
        first = warehouse.stats(["SourceAS"])
        second = warehouse.stats(["SourceAS"])
        assert first is second
        assert first.column("SourceAS").distinct == 16

    def test_stats_see_appended_rows(self, flows):
        partitions, info = partition_by_values(
            flows, "RouterId", {site: [site] for site in range(4)})
        warehouse = Warehouse.from_partitions(partitions, info)
        before = warehouse.stats(["NumBytes"]).column("NumBytes")
        rows = warehouse.engine.fragment(0).head(3)
        columns = {name: rows.column(name) for name in rows.schema.names}
        columns["NumBytes"] = before.maximum + 1 + np.arange(3)
        warehouse.engine.append(0, Relation.from_columns(rows.schema,
                                                         columns))
        after = warehouse.stats(["NumBytes"]).column("NumBytes")
        assert after.maximum == before.maximum + 3
        assert after.distinct == before.distinct + 3
        assert warehouse.stats(["NumBytes"]) is warehouse.stats(["NumBytes"])

    def test_pick_flags_uses_knowledge(self, warehouse):
        from repro.bench.queries import correlated_query
        expression = correlated_query(["SourceAS"], "NumBytes")
        flags = warehouse.pick_flags(expression)
        assert flags.sync_reduction

    def test_explain_without_execution(self, warehouse):
        text = warehouse.explain(BASIC_SQL)
        assert "synchronizations" in text

    def test_describe(self, warehouse):
        text = warehouse.describe()
        assert "4 sites" in text
        assert "SourceAS" in text


class TestPersistence:
    def test_save_load_round_trip(self, warehouse, tmp_path):
        directory = warehouse.save(tmp_path / "wh")
        reopened = Warehouse.load(directory)
        original = warehouse.sql(BASIC_SQL)
        again = reopened.sql(BASIC_SQL)
        assert again.relation.multiset_equals(original.relation)
        assert "4 sites" in reopened.describe()
