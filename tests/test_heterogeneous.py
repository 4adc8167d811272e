"""Tests for heterogeneous (multi-table, per-round) GMDJ chains."""

import numpy as np
import pytest

from repro.errors import QueryError, SchemaError
from repro.relational.aggregates import AggregateSpec, count_star
from repro.relational.expressions import b, r
from repro.relational.relation import Relation
from repro.core.gmdj import Gmdj
from repro.distributed.heterogeneous import (
    HeterogeneousQuery, HeterogeneousRound, HeterogeneousWarehouse)


@pytest.fixture(scope="module")
def tables():
    rng = np.random.default_rng(19)
    flows = Relation.from_dicts([
        {"SourceAS": int(rng.integers(1, 9)),
         "NumBytes": float(rng.integers(100, 10_000))}
        for __ in range(900)])
    alarms = Relation.from_dicts([
        {"SourceAS": int(rng.integers(1, 9)),
         "Severity": float(rng.integers(1, 6))}
        for __ in range(240)])
    return {"Flow": flows, "Alarm": alarms}


@pytest.fixture(scope="module")
def catalogs(tables):
    """Round-robin partition both tables over 3 sites."""
    result = {}
    for site in range(3):
        result[site] = {
            name: relation.filter(
                np.arange(relation.num_rows) % 3 == site)
            for name, relation in tables.items()}
    return result


def cross_table_query() -> HeterogeneousQuery:
    """Per source AS: flow volume from Flow, then alarm stats from
    Alarm, then flows above a threshold derived from BOTH."""
    first = Gmdj.single(
        [count_star("flows"), AggregateSpec("avg", "NumBytes", "avg_b")],
        r.SourceAS == b.SourceAS)
    second = Gmdj.single(
        [count_star("alarms"), AggregateSpec("max", "Severity", "worst")],
        r.SourceAS == b.SourceAS)
    third = Gmdj.single(
        [count_star("big_flows")],
        (r.SourceAS == b.SourceAS)
        & (r.NumBytes >= b.avg_b * (1 + b.worst / 10)))
    return HeterogeneousQuery(
        base_table="Flow", base_attrs=("SourceAS",),
        rounds=(HeterogeneousRound(first, "Flow"),
                HeterogeneousRound(second, "Alarm"),
                HeterogeneousRound(third, "Flow")))


class TestCentralizedReference:
    def test_cross_table_values(self, tables):
        result = cross_table_query().evaluate_centralized(tables)
        rows = {row["SourceAS"]: row for row in result.to_dicts()}
        flows = tables["Flow"].to_dicts()
        alarms = tables["Alarm"].to_dicts()
        for source in rows:
            mine = [f for f in flows if f["SourceAS"] == source]
            my_alarms = [a for a in alarms if a["SourceAS"] == source]
            assert rows[source]["flows"] == len(mine)
            assert rows[source]["alarms"] == len(my_alarms)
            if my_alarms:
                worst = max(a["Severity"] for a in my_alarms)
                assert rows[source]["worst"] == worst
                avg_b = rows[source]["avg_b"]
                threshold = avg_b * (1 + worst / 10)
                expected = sum(1 for f in mine
                               if f["NumBytes"] >= threshold)
                assert rows[source]["big_flows"] == expected

    def test_validation_errors(self, tables):
        schemas = {name: rel.schema for name, rel in tables.items()}
        with pytest.raises(SchemaError, match="unknown base table"):
            HeterogeneousQuery("Nope", ("SourceAS",),
                               (HeterogeneousRound(
                                   Gmdj.single([count_star("n")],
                                               r.SourceAS == b.SourceAS),
                                   "Flow"),)).validate(schemas)
        with pytest.raises(QueryError):
            HeterogeneousQuery("Flow", (), ())


class TestDistributed:
    def test_matches_centralized(self, tables, catalogs):
        query = cross_table_query()
        reference = query.evaluate_centralized(tables)
        engine = HeterogeneousWarehouse(catalogs)
        result, metrics = engine.execute(query)
        assert result.multiset_equals(reference)
        # base round + three GMDJ rounds
        assert metrics.num_synchronizations == 4

    def test_independent_reduction_equivalent(self, tables, catalogs):
        query = cross_table_query()
        reference = query.evaluate_centralized(tables)
        engine = HeterogeneousWarehouse(catalogs)
        plain, plain_metrics = engine.execute(query)
        reduced, reduced_metrics = engine.execute(
            query, independent_reduction=True)
        assert reduced.multiset_equals(reference)
        assert reduced_metrics.total_bytes <= plain_metrics.total_bytes

    def test_first_round_must_use_base_table(self, catalogs):
        from repro.errors import PlanError
        first, second, __ = cross_table_query().rounds
        query = HeterogeneousQuery("Flow", ("SourceAS",), (second, first))
        with pytest.raises(PlanError, match="first round"):
            HeterogeneousWarehouse(catalogs).execute(query)

    def test_total_table_helper(self, tables, catalogs):
        engine = HeterogeneousWarehouse(catalogs)
        assert engine.total_table("Alarm").multiset_equals(
            tables["Alarm"])

    def test_mismatched_catalogs_rejected(self, catalogs):
        broken = {site: dict(catalog)
                  for site, catalog in catalogs.items()}
        del broken[2]["Alarm"]
        with pytest.raises(SchemaError, match="same table set"):
            HeterogeneousWarehouse(broken)

    def test_schema_disagreement_rejected(self, catalogs):
        broken = {site: dict(catalog)
                  for site, catalog in catalogs.items()}
        broken[1]["Alarm"] = broken[1]["Alarm"].project(["SourceAS"])
        with pytest.raises(SchemaError, match="disagree"):
            HeterogeneousWarehouse(broken)

    def test_empty_catalog_rejected(self):
        from repro.errors import PlanError
        with pytest.raises(PlanError):
            HeterogeneousWarehouse({})
