"""CUBE/ROLLUP over GMDJ expressions, checked against hand-computed cells.

The 4-row ``sales`` relation is small enough to total by hand; both
the centralized oracle (``run_centralized``) and the distributed
lattice (``execute_lattice``: one scatter, coarser cuboids rolled up
at the coordinator) must reproduce those totals.
"""

import pytest

from repro.errors import QueryError
from repro.relational.aggregates import AggregateSpec, count_star
from repro.relational.operators import group_by
from repro.relational.relation import Relation
from repro.distributed.engine import SkallaEngine
from repro.distributed.partition import partition_round_robin
from repro.distributed.plan import ALL_OPTIMIZATIONS
from repro.cube import (
    ALL_MARKER as ALL, CubeLatticePlan, cube_sets, execute_lattice,
    groupby_expression, rollup_sets, run_centralized)


@pytest.fixture()
def sales():
    return Relation.from_dicts([
        {"region": "east", "product": "a", "amount": 10.0},
        {"region": "east", "product": "b", "amount": 20.0},
        {"region": "west", "product": "a", "amount": 30.0},
        {"region": "west", "product": "a", "amount": 40.0},
    ])


AGGS = (count_star("n"), AggregateSpec("sum", "amount", "total"))
DIMS = ("region", "product")


def evaluate(detail, requested, how):
    """The stitched cube, centrally or through a 2-site lattice run."""
    plan = CubeLatticePlan(attrs=DIMS, aggregates=AGGS,
                           requested=requested)
    if how == "centralized":
        return run_centralized(plan, detail)
    with SkallaEngine(partition_round_robin(detail, 2)) as engine:
        return execute_lattice(engine, plan, ALL_OPTIMIZATIONS).relation


class TestGroupbyExpression:
    def test_matches_sql_group_by(self, sales):
        expr = groupby_expression(["region"], AGGS)
        via_gmdj = expr.evaluate_centralized(sales)
        via_groupby = group_by(sales, ["region"], AGGS)
        assert via_gmdj.multiset_equals(via_groupby)

    def test_requires_attrs(self):
        with pytest.raises(QueryError):
            groupby_expression([], AGGS)


@pytest.mark.parametrize("how", ["centralized", "lattice"])
class TestCube:
    def test_cube_values(self, sales, how):
        result = evaluate(sales, cube_sets(DIMS), how)
        rows = {(row["region"], row["product"]): row
                for row in result.to_dicts()}
        assert rows[("east", "a")]["total"] == pytest.approx(10.0)
        assert rows[("east", ALL)]["total"] == pytest.approx(30.0)
        assert rows[(ALL, "a")]["total"] == pytest.approx(80.0)
        assert rows[(ALL, ALL)]["total"] == pytest.approx(100.0)
        assert rows[(ALL, ALL)]["n"] == 4

    def test_cube_row_count(self, sales, how):
        result = evaluate(sales, cube_sets(DIMS), how)
        # finest: 3 groups; by region: 2; by product: 2; grand total: 1
        assert result.num_rows == 8


class TestCubeSets:
    def test_granularity_count(self):
        assert len(cube_sets(["a", "b", "c"])) == 8  # 2^3, () included

    def test_every_granularity_is_distributable(self, sales):
        plan = CubeLatticePlan(attrs=DIMS, aggregates=AGGS,
                               requested=cube_sets(DIMS))
        for subset in plan.requested:
            expr = plan.source_expression(subset)
            assert expr.is_decomposable()
            expr.validate(sales.schema)


class TestRollup:
    def test_prefixes_only(self):
        assert rollup_sets(["a", "b", "c"]) == (
            ("a", "b", "c"), ("a", "b"), ("a",), ())

    @pytest.mark.parametrize("how", ["centralized", "lattice"])
    def test_rollup_values(self, sales, how):
        result = evaluate(sales, rollup_sets(DIMS), how)
        rows = {(row["region"], row["product"]): row["total"]
                for row in result.to_dicts()}
        assert rows[("west", "a")] == pytest.approx(70.0)
        assert rows[("west", ALL)] == pytest.approx(70.0)
        assert rows[(ALL, ALL)] == pytest.approx(100.0)
        assert (ALL, "a") not in rows  # not a rollup granularity
