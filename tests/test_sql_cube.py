"""Tests for GROUP BY CUBE / ROLLUP / GROUPING SETS statements."""

import pytest

from repro.errors import ParseError
from repro.relational.aggregates import AggregateSpec, count_star
from repro.relational.operators import group_by
from repro.cube import (
    ALL_MARKER as ALL, compile_lattice, execute_lattice,
    grand_total_expression, run_centralized)
from repro.sql.compiler import compile_query
from repro.sql.parser import parse

SELECT = ("SELECT RouterId, DestPort, COUNT(*) AS n, "
          "SUM(NumBytes) AS total FROM Flow")
SQL = SELECT + " GROUP BY CUBE (RouterId, DestPort)"
CONSTRUCTS = {
    "CUBE": SQL,
    "ROLLUP": SELECT + " GROUP BY ROLLUP (RouterId, DestPort)",
    "GROUPING SETS": SELECT + " GROUP BY GROUPING SETS "
                              "((RouterId, DestPort), (RouterId), ())",
}
AGGS = [count_star("n"), AggregateSpec("sum", "NumBytes", "total")]


def compile_sql(sql, schema):
    return compile_lattice(parse(sql), schema)


class TestParsing:
    def test_cube_flag(self):
        statement = parse(SQL)
        assert statement.cube
        assert statement.group_attrs == ("RouterId", "DestPort")

    def test_plain_group_by_not_cube(self):
        statement = parse("SELECT a, COUNT(*) AS n FROM t GROUP BY a")
        assert not statement.cube


class TestCompilation:
    def test_granularity_count(self, small_flows):
        plan = compile_sql(SQL, small_flows.schema)
        # (a,b), (a), (b), () — all from the one (a,b) source
        assert len(plan.requested) == 4
        assert plan.sources == (("RouterId", "DestPort"),)

    def test_compile_query_redirects(self, small_flows):
        with pytest.raises(ParseError, match="compile_lattice"):
            compile_query(SQL, small_flows.schema)

    @pytest.mark.parametrize("construct", sorted(CONSTRUCTS))
    @pytest.mark.parametrize("clause", [
        " WHERE NumBytes > 0",
        " THEN COMPUTE COUNT(*) AS m",
        " HAVING n > 1",
        " ORDER BY n",
        " LIMIT 5",
    ])
    def test_unsupported_clauses_rejected(self, small_flows, construct,
                                          clause):
        sql = CONSTRUCTS[construct]
        if "WHERE NumBytes" in clause:
            sql = sql.replace(" GROUP BY", clause + " GROUP BY")
        else:
            sql = sql + clause
        with pytest.raises(ParseError, match=construct):
            compile_sql(sql, small_flows.schema)

    def test_sketch_precision_reaches_only_sketches(self, small_flows):
        """Exact aggregates take no precision; KLL gets its derived k."""
        from repro.sketches import kll_k_for_precision
        plan = compile_lattice(
            parse("SELECT RouterId, SUM(NumBytes) AS total, "
                  "APPROX_COUNT_DISTINCT(DestPort) AS ports, "
                  "APPROX_MEDIAN(NumBytes) AS med FROM Flow "
                  "GROUP BY CUBE (RouterId)"),
            small_flows.schema, sketch_precision=6)
        assert [spec.precision for spec in plan.aggregates] == [
            None, 6, kll_k_for_precision(6)]
        run_centralized(plan, small_flows)  # every spec is valid

    @pytest.mark.parametrize("construct", sorted(CONSTRUCTS))
    def test_unknown_attr_rejected(self, small_flows, construct):
        sql = CONSTRUCTS[construct].replace("DestPort", "Bogus")
        with pytest.raises(ParseError, match="not in the detail"):
            compile_sql(sql, small_flows.schema)


class TestGrandTotal:
    def test_distributable_grand_total(self, small_flows):
        expression = grand_total_expression(
            [count_star("n"), AggregateSpec("sum", "NumBytes", "s")])
        result = expression.evaluate_centralized(small_flows)
        assert result.num_rows == 1
        assert result.to_dicts()[0]["n"] == small_flows.num_rows

    def test_grand_total_distributed(self, small_flows, flow_warehouse):
        from repro.distributed import NO_OPTIMIZATIONS
        expression = grand_total_expression([count_star("n")])
        result = flow_warehouse.execute(expression, NO_OPTIMIZATIONS)
        assert result.relation.to_dicts()[0]["n"] == small_flows.num_rows


class TestExecution:
    def test_centralized_cuboids_match_group_by(self, small_flows):
        """Every cuboid of the stitched cube is that grouping's GROUP BY."""
        plan = compile_sql(SQL, small_flows.schema)
        rows = run_centralized(plan, small_flows).to_dicts()
        for subset in plan.requested:
            expected = {
                tuple(str(row[attr]) for attr in subset):
                    (row["n"], row["total"])
                for row in group_by(small_flows, list(subset),
                                    AGGS).to_dicts()}
            got = {
                tuple(row[attr] for attr in subset): (row["n"], row["total"])
                for row in rows
                if all((row[attr] == ALL) == (attr not in subset)
                       for attr in plan.attrs)}
            assert got == expected, subset

    def test_distributed_matches(self, small_flows, flow_warehouse):
        from repro.distributed import ALL_OPTIMIZATIONS
        plan = compile_sql(SQL, small_flows.schema)
        execution = execute_lattice(flow_warehouse, plan, ALL_OPTIMIZATIONS)
        assert execution.relation.multiset_equals(
            run_centralized(plan, small_flows))
        assert len(execution.runs) == 1  # one scatter; 3 cuboids derived

    def test_all_marker_rows_present(self, small_flows):
        plan = compile_sql(SQL, small_flows.schema)
        result = run_centralized(plan, small_flows)
        rows = {(row["RouterId"], row["DestPort"]): row
                for row in result.to_dicts()}
        assert (ALL, ALL) in rows
        assert rows[(ALL, ALL)]["n"] == small_flows.num_rows


class TestWarehouseDispatch:
    def test_sql_cube_through_facade(self, small_flows, flow_warehouse):
        from repro.warehouse import Warehouse
        warehouse = Warehouse(flow_warehouse)
        result = warehouse.sql(SQL)
        reference = run_centralized(compile_sql(SQL, small_flows.schema),
                                    small_flows)
        assert result.relation.multiset_equals(reference)
        # The lattice runs one scatter for the finest grouping and
        # derives the coarser cuboids coordinator-side (Theorem 1),
        # instead of one distributed round per granularity.
        assert result.metrics.num_synchronizations <= 2
        assert result.metrics.cuboids_total == 4
        assert result.metrics.cuboids_derived >= 2
