"""Tests for the shared benchmark harness."""

import pytest

from repro.bench.harness import (
    Warehouse, build_flow_warehouse, build_tpcr_warehouse, format_table,
    growth_exponent, run_once, scaleup_series, speedup_series)
from repro.bench.queries import correlated_query
from repro.distributed.plan import NO_OPTIMIZATIONS, OptimizationFlags


@pytest.fixture(scope="module")
def warehouse() -> Warehouse:
    return build_tpcr_warehouse(num_rows=4_000, num_sites=4,
                                high_cardinality=True, seed=3)


class TestWarehouseBuilders:
    def test_tpcr_partition_attrs(self, warehouse):
        attrs = warehouse.info.partition_attributes(
            warehouse.engine.site_ids)
        assert {"NationKey", "CustKey", "CustName"} <= attrs

    def test_tpcr_cardinality_settings(self):
        high = build_tpcr_warehouse(num_rows=4_000, num_sites=2,
                                    high_cardinality=True)
        low = build_tpcr_warehouse(num_rows=4_000, num_sites=2,
                                   high_cardinality=False)
        assert high.num_groups == 800
        assert low.num_groups == 3_000

    def test_flow_warehouse(self):
        warehouse = build_flow_warehouse(num_flows=2_000, num_routers=4,
                                         num_source_as=16)
        assert warehouse.num_sites == 4
        assert "SourceAS" in warehouse.info.partition_attributes(
            warehouse.engine.site_ids)

    def test_fragments_union_to_num_rows(self, warehouse):
        total = sum(warehouse.engine.fragment(site).num_rows
                    for site in warehouse.engine.site_ids)
        assert total == warehouse.num_rows


class TestSeriesRunners:
    def test_run_once_row(self, warehouse):
        query = correlated_query([warehouse.group_attr], warehouse.measure)
        row = run_once(warehouse, query, NO_OPTIMIZATIONS, label="base")
        assert row["config"] == "base"
        assert row["sites"] == 4
        assert row["total_bytes"] > 0

    def test_speedup_series_shape(self, warehouse):
        query = correlated_query([warehouse.group_attr], warehouse.measure)
        rows = speedup_series(warehouse, query,
                              {"a": NO_OPTIMIZATIONS}, [1, 2])
        assert len(rows) == 2
        assert [row["sites"] for row in rows] == [1, 2]

    def test_scaleup_series_shape(self):
        def build(scale):
            return build_tpcr_warehouse(num_rows=1_000 * scale,
                                        num_sites=2, seed=scale)
        rows = scaleup_series(
            build,
            lambda wh: correlated_query([wh.group_attr], wh.measure),
            {"off": NO_OPTIMIZATIONS,
             "on": OptimizationFlags(sync_reduction=True)},
            scales=[1, 2])
        assert len(rows) == 4
        assert {row["scale"] for row in rows} == {1, 2}


class TestReporting:
    def test_format_table(self):
        rows = [{"a": 1, "b": 0.5}, {"a": 22, "b": 1.25}]
        text = format_table(rows, ["a", "b"])
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert "0.5000" in text and "22" in text

    def test_format_table_missing_column(self):
        text = format_table([{"a": 1}], ["a", "zz"])
        assert "zz" in text

    def test_growth_exponent_linear(self):
        xs = [1, 2, 4, 8]
        assert growth_exponent(xs, [3 * x for x in xs]) == \
            pytest.approx(1.0)

    def test_growth_exponent_quadratic(self):
        xs = [1, 2, 4, 8]
        assert growth_exponent(xs, [x * x for x in xs]) == \
            pytest.approx(2.0)

    def test_growth_exponent_needs_points(self):
        with pytest.raises(ValueError):
            growth_exponent([1], [1])
        with pytest.raises(ValueError):
            growth_exponent([2, 2], [1, 4])
