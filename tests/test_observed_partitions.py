"""Observed partition attributes: keys the data proves site-disjoint.

Every engine checks each INT64 or STRING key column of the plans it
builds once against its fragments, whatever it was given as ``info``
(``None`` plans exactly as ``DistributionInfo()``).  An INT64 column
whose site value sets are pairwise disjoint, or a STRING column whose
site ranges are, joins the declared partition attributes, so Cor. 1
packing, Prop. 2 folding and union synchronization apply to it.
Appends merge value sets and widen ranges, and withdraw the fact on a
clash.
"""

from __future__ import annotations

import json
import sys
import threading

import numpy as np
import pytest

from repro.core.builder import QueryBuilder, agg
from repro.cube.lattice import grand_total_expression
from repro.data.tpch import (
    TpcrConfig, custkey_ranges, customer_name, generate_tpcr,
    nation_assignment)
from repro.distributed.engine import SkallaEngine
from repro.distributed import partition
from repro.distributed.partition import (
    PREFIX_ROWS, DistributionInfo, RangeConstraint, partition_by_hash,
    partition_by_ranges, partition_by_values, partition_round_robin)
from repro.distributed.plan import ALL_OPTIMIZATIONS
from repro.distributed.storage import (
    MANIFEST_NAME, load_warehouse, save_warehouse)
from repro.errors import PlanError
from repro.optimizer.planner import build_plan
from repro.relational.aggregates import count_star
from repro.relational.expressions import b, r
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.relational.types import DataType
from repro.warehouse import Warehouse


def _correlated(key: str):
    """Two rounds on ``key``, the second against the first's count."""
    return (QueryBuilder().base(key)
            .gmdj([count_star("n0"), agg("sum", "v", "s0")],
                  getattr(r, key) == getattr(b, key))
            .gmdj([count_star("n1")],
                  (getattr(r, key) == getattr(b, key))
                  & (r.v <= b.n0 * 10.0))
            .build())


@pytest.fixture()
def detail():
    return Relation.from_dicts([
        {"g": i % 10, "h": i % 3, "name": f"n{i % 10}", "v": float(i % 7)}
        for i in range(120)])


def _hashed(detail, info=DistributionInfo, sites=3):
    return SkallaEngine(partition_by_hash(detail, "g", sites),
                        None if info is None else info())


class TestPlanning:
    def test_disjoint_integer_key_unions_in_one_step(self, detail):
        engine = _hashed(detail)
        result = engine.execute(_correlated("g"), ALL_OPTIMIZATIONS)
        assert result.plan.union_on == "g"
        assert result.plan.num_synchronizations == 1
        assert "synchronization: union on g (observed, Cor. 1)" in \
            result.plan.explain()
        assert result.relation.multiset_equals(
            _correlated("g").evaluate_centralized(detail))

    def test_overlapping_key_stays_keyed(self, detail):
        engine = _hashed(detail)
        result = engine.execute(_correlated("h"), ALL_OPTIMIZATIONS)
        assert result.plan.union_on is None
        assert result.plan.num_synchronizations == 2

    def test_hashed_string_keys_are_not_observed(self, detail):
        engine = SkallaEngine(partition_by_hash(detail, "name", 3),
                              DistributionInfo())
        result = engine.execute(_correlated("name"), ALL_OPTIMIZATIONS)
        assert result.plan.union_on is None

    def test_range_placed_string_keys_are_observed(self, detail):
        partitions, __ = partition_by_ranges(
            detail, "name", {0: ("n0", "n3"), 1: ("n4", "n6"),
                             2: ("n7", "n9")})
        engine = SkallaEngine(partitions)
        result = engine.execute(_correlated("name"), ALL_OPTIMIZATIONS)
        assert result.plan.union_on == "name"
        assert result.plan.num_synchronizations == 1
        assert "synchronization: union on name (observed, Cor. 1)" in \
            result.plan.explain()
        assert result.relation.multiset_equals(
            _correlated("name").evaluate_centralized(detail))

    def test_no_info_plans_like_empty_info(self, detail):
        bare, empty = _hashed(detail, info=None), _hashed(detail)
        assert isinstance(bare.knowledge, DistributionInfo)
        for key in ("g", "h", "name"):
            expression = _correlated(key)
            plans = [build_plan(expression, ALL_OPTIMIZATIONS,
                                engine.knowledge, engine.detail_schema,
                                sites=engine.site_ids)
                     for engine in (bare, empty)]
            assert plans[0] == plans[1]
            assert plans[0].explain() == plans[1].explain()
        result = bare.execute(_correlated("g"), ALL_OPTIMIZATIONS)
        assert result.plan.union_on == "g"
        assert result.plan.num_synchronizations == 1
        assert result.relation.multiset_equals(
            _correlated("g").evaluate_centralized(detail))

    def test_string_prefixes_refute_without_a_full_scan(self, detail,
                                                        monkeypatch):
        """``name`` repeats within every prefix of every site: the
        prefix ranges overlap, so no site's full column is read."""
        big = Relation.concat([detail] * (PREFIX_ROWS // 20))
        engine = SkallaEngine(partition_round_robin(big, 3))
        assert all(engine.fragment(site).num_rows > PREFIX_ROWS
                   for site in engine.site_ids)
        scanned = []
        site_ranges = partition.site_ranges

        def recording(columns):
            scanned.extend(len(column) for column in columns.values())
            return site_ranges(columns)

        monkeypatch.setattr(partition, "site_ranges", recording)
        assert engine.knowledge.partition_attributes(
            engine.site_ids, ["name"]) == set()
        assert scanned and max(scanned) <= PREFIX_ROWS

    def test_unknown_participating_site(self, detail):
        engine = _hashed(detail)
        with pytest.raises(PlanError, match="unknown site"):
            engine.execute(_correlated("g"), sites=[0, 42])

    def test_grand_total_synthetic_key(self, detail):
        engine = _hashed(detail)
        expression = grand_total_expression([count_star("n")])
        result = engine.execute(expression, ALL_OPTIMIZATIONS)
        assert result.plan.union_on is None
        assert result.relation.to_dicts()[0]["n"] == detail.num_rows

    def test_cube_grand_total_through_sql(self, detail):
        warehouse = Warehouse(_hashed(detail))
        result = warehouse.sql(
            "SELECT g, COUNT(*) AS n FROM t GROUP BY ROLLUP(g)")
        totals = [row["n"] for row in result.relation.to_dicts()
                  if row["g"] == "ALL"]
        assert totals == [detail.num_rows]


class TestOwnership:
    def test_engines_sharing_one_info_do_not_share_facts(self, detail):
        info = DistributionInfo()
        hashed = SkallaEngine(partition_by_hash(detail, "g", 2), info)
        mixed = SkallaEngine({0: detail.head(60), 1: detail.head(60)}, info)
        expression = _correlated("g")
        assert mixed.execute(expression,
                             ALL_OPTIMIZATIONS).plan.union_on is None
        assert hashed.execute(expression,
                              ALL_OPTIMIZATIONS).plan.union_on == "g"
        assert info.sites is None and not info.observed("g")
        assert info.constraints == {}
        assert hashed.info is info and hashed.knowledge is not info

    def test_facts_are_not_persisted(self, detail, tmp_path):
        info = DistributionInfo()
        for site in range(3):
            info.add(site, "h", RangeConstraint(0, 2))
        engine = SkallaEngine(partition_by_hash(detail, "g", 3), info)
        assert engine.execute(_correlated("g"),
                              ALL_OPTIMIZATIONS).plan.union_on == "g"
        save_warehouse(engine, tmp_path / "wh")
        manifest = json.loads((tmp_path / "wh" / MANIFEST_NAME).read_text())
        assert all(set(saved) == {"h"}
                   for saved in manifest["constraints"].values())
        loaded = load_warehouse(tmp_path / "wh")
        assert loaded.info.sites is None
        assert not loaded.knowledge.observed("g")
        assert engine.knowledge.observed("g")


class TestAppend:
    def test_new_value_kept_then_clash_withdraws(self, detail):
        engine = _hashed(detail)
        expression = _correlated("g")
        engine.execute(expression, ALL_OPTIMIZATIONS)
        fresh = Relation.from_dicts(
            [{"g": 1000, "h": 0, "name": "x", "v": 1.0}])
        engine.append(0, fresh)             # a new value: fact kept
        assert engine.knowledge.epoch == 0
        assert engine.execute(expression,
                              ALL_OPTIMIZATIONS).plan.union_on == "g"
        engine.append(2, fresh)             # now at two sites
        assert engine.knowledge.epoch == 1
        result = engine.execute(expression, ALL_OPTIMIZATIONS)
        assert result.plan.union_on is None
        assert result.relation.multiset_equals(
            expression.evaluate_centralized(engine.total_detail_relation()))

    def test_append_between_plan_and_run_replans(self, detail):
        engine = _hashed(detail)
        expression = _correlated("g")
        plan = build_plan(expression, ALL_OPTIMIZATIONS, engine.knowledge,
                          engine.detail_schema, sites=engine.site_ids)
        assert (plan.union_on, plan.epoch) == ("g", 0)
        engine.append(1, engine.sites[0].fragment.head(1))
        result = engine.execute_plan(plan)
        assert result.plan.union_on is None and result.plan.epoch == 1
        assert result.relation.multiset_equals(
            expression.evaluate_centralized(engine.total_detail_relation()))

    def test_withdrawal_during_the_run_reruns(self, detail, monkeypatch):
        engine = _hashed(detail)
        expression = _correlated("g")
        plan = build_plan(expression, ALL_OPTIMIZATIONS, engine.knowledge,
                          engine.detail_schema, sites=engine.site_ids)
        clash = engine.sites[0].fragment.head(1)
        run_round = engine._run_round
        rounds = []

        def append_first(*args, **kwargs):
            if not rounds:
                engine.append(1, clash)     # lands before the sites scan
            rounds.append(args[2])
            return run_round(*args, **kwargs)

        monkeypatch.setattr(engine, "_run_round", append_first)
        result = engine.execute_plan(plan)
        assert result.plan.union_on is None and len(rounds) == 3
        assert result.relation.multiset_equals(
            expression.evaluate_centralized(engine.total_detail_relation()))

    def test_range_placed_integer_key_keeps_until_a_clash(self, detail):
        """``g`` placed by ranges is proved by its value sets.  A value
        that widens a site's range keeps the fact, and so does one that
        makes the ranges overlap but is held by no other site; a value
        another site holds withdraws it."""
        partitions, __ = partition_by_ranges(
            detail, "g", {0: (0, 2), 1: (3, 5), 2: (6, 9)})
        engine = SkallaEngine(partitions)
        expression = _correlated("g")
        assert engine.execute(expression,
                              ALL_OPTIMIZATIONS).plan.union_on == "g"

        def put(site, g):
            engine.append(site, Relation.from_dicts(
                [{"g": g, "h": 0, "name": "x", "v": 1.0}]))

        put(2, 12)                          # widens site 2's range
        put(0, 50)                          # no other site holds 50
        assert engine.knowledge.epoch == 0
        result = engine.execute(expression, ALL_OPTIMIZATIONS)
        assert result.plan.union_on == "g"
        assert result.relation.multiset_equals(
            expression.evaluate_centralized(engine.total_detail_relation()))
        put(1, 12)                          # site 2 holds 12
        assert engine.knowledge.epoch == 1
        result = engine.execute(expression, ALL_OPTIMIZATIONS)
        assert result.plan.union_on is None
        assert result.relation.multiset_equals(
            expression.evaluate_centralized(engine.total_detail_relation()))

    def test_string_range_widens_then_overlap_withdraws(self, detail):
        partitions, __ = partition_by_ranges(
            detail, "name", {0: ("n0", "n3"), 1: ("n4", "n6"),
                             2: ("n7", "n9")})
        engine = SkallaEngine(partitions)
        expression = _correlated("name")
        engine.execute(expression, ALL_OPTIMIZATIONS)

        def put(site, name):
            engine.append(site, Relation.from_dicts(
                [{"g": 0, "h": 0, "name": name, "v": 1.0}]))

        put(2, "z")                         # widens site 2's range
        assert engine.knowledge.epoch == 0
        assert engine.execute(expression,
                              ALL_OPTIMIZATIONS).plan.union_on == "name"
        put(0, "n35")                       # widens up to site 1's range
        put(1, "n5x")                       # inside site 1's own range
        assert engine.knowledge.epoch == 0
        put(0, "n8")                        # inside site 2's range
        assert engine.knowledge.epoch == 1
        result = engine.execute(expression, ALL_OPTIMIZATIONS)
        assert result.plan.union_on is None
        assert result.relation.multiset_equals(
            expression.evaluate_centralized(engine.total_detail_relation()))

    def test_refuted_stays_refuted(self, detail):
        engine = _hashed(detail)
        expression = _correlated("h")
        engine.execute(expression, ALL_OPTIMIZATIONS)
        engine.append(0, detail.head(1))
        assert engine.knowledge.epoch == 0   # nothing left to withdraw
        assert engine.execute(expression,
                              ALL_OPTIMIZATIONS).plan.union_on is None


def _tpcr_placement(rows: int = 20_000):
    """The end-to-end benchmark's placement: NationKey partitioning plus
    the CustKey / CustName ranges (Sect. 5.1)."""
    relation = generate_tpcr(TpcrConfig(num_rows=rows,
                                        num_customers=rows // 5))
    partitions, info = partition_by_values(
        relation, "NationKey", nation_assignment(4))
    for site, (low, high) in custkey_ranges(4, rows // 5).items():
        info.add(site, "CustKey", RangeConstraint(low, high))
        info.add(site, "CustName", RangeConstraint(
            customer_name(low), customer_name(high)))
    return partitions, info


def _x(n: int) -> str:
    return f"COUNT(*) AS cnt{n}, AVG(ExtendedPrice) AS avg{n}"


CORRELATED = {
    "fig2_corr_custname": (
        f"SELECT CustName, {_x(1)} FROM TPCR GROUP BY CustName "
        f"THEN COMPUTE {_x(2)} WHERE ExtendedPrice >= avg1"),
    "fig5_comb_custname": (
        f"SELECT CustName, {_x(1)} FROM TPCR GROUP BY CustName "
        f"THEN COMPUTE {_x(2)} WHERE Discount >= 0.05 "
        f"THEN COMPUTE {_x(3)} WHERE ExtendedPrice >= avg1"),
    "corr_orderkey": (
        f"SELECT OrderKey, {_x(1)} FROM TPCR GROUP BY OrderKey "
        f"THEN COMPUTE {_x(2)} WHERE ExtendedPrice >= avg1"),
}


class TestTpcrPlacement:
    """The end-to-end benchmark's placement at 20k rows, declared."""

    @pytest.fixture(scope="class")
    def warehouse(self):
        return Warehouse.from_partitions(*_tpcr_placement())

    def test_corr_orderkey_is_one_union_step(self, warehouse):
        result = warehouse.sql(CORRELATED["corr_orderkey"])
        assert result.plan.union_on == "OrderKey"
        assert result.plan.num_synchronizations == 1
        assert len(result.metrics.phases) == 1

    def test_plain_partkey_stays_keyed(self, warehouse):
        result = warehouse.sql(
            "SELECT PartKey, COUNT(*) AS n, SUM(Quantity) AS q, "
            "MAX(ExtendedPrice) AS m FROM TPCR GROUP BY PartKey")
        assert result.plan.union_on is None


class TestNothingDeclared:
    """The same placement with ``info=None``: the fragments show
    CustName's ranges and OrderKey's value sets site-disjoint, so the
    paper's correlated queries ship the declared bytes in the declared
    single union-synchronized step."""

    @pytest.fixture(scope="class")
    def warehouses(self):
        partitions, info = _tpcr_placement()
        return (Warehouse.from_partitions(partitions, info),
                Warehouse.from_partitions(partitions, None))

    @pytest.mark.parametrize("name", sorted(CORRELATED))
    def test_ships_the_declared_bytes_in_one_step(self, warehouses, name):
        declared, bare = (warehouse.sql(CORRELATED[name])
                          for warehouse in warehouses)
        assert bare.plan.union_on == declared.plan.union_on is not None
        assert bare.plan.num_synchronizations == 1
        assert declared.plan.num_synchronizations == 1
        assert bare.metrics.total_bytes == declared.metrics.total_bytes
        detail = warehouses[1].engine.total_detail_relation()
        assert bare.relation.multiset_equals(
            bare.compiled.run_centralized(detail))


class TestConcurrency:
    def test_checks_racing_appends_never_keep_a_broken_fact(self):
        """Planners checking ``g`` race an append that puts a ``g`` on
        a second site.  Afterwards the fact must be gone: a check that
        read a fragment the append had not yet checked would keep it."""
        rows = 60_000
        big = Relation.from_columns(Schema.of(
            ("g", DataType.INT64), ("v", DataType.FLOAT64)), {
                "g": np.arange(rows) % (rows // 2),
                "v": np.ones(rows)})
        partitions = partition_by_hash(big, "g", 3)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for round_ in range(20):
                engine = SkallaEngine(dict(partitions), DistributionInfo())
                clash = partitions[round_ % 3].head(1)
                start = threading.Barrier(5)

                def check():
                    start.wait()
                    engine.knowledge.partition_attributes(
                        engine.site_ids, {"g"})

                def append():
                    start.wait()
                    engine.append((round_ + 1) % 3, clash)

                workers = [threading.Thread(target=check) for __ in range(4)]
                workers.append(threading.Thread(target=append))
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join(timeout=30)
                assert not any(worker.is_alive() for worker in workers)
                assert engine.knowledge.partition_attributes(
                    engine.site_ids, {"g"}) == set()
        finally:
            sys.setswitchinterval(switch)
