"""Observed partition attributes: keys the data proves site-disjoint.

An engine given a ``DistributionInfo`` (empty included) checks each
INT64 key column of the plans it builds once against its fragments.
A column whose site value sets are pairwise disjoint joins the
declared partition attributes, so Cor. 1 packing, Prop. 2 folding and
union synchronization apply to it.  Appends maintain the fact and
withdraw it on a clash.
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
from repro.distributed.partition import (
    DistributionInfo, RangeConstraint, partition_by_hash,
    partition_by_values)
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

    def test_string_keys_are_not_observed(self, detail):
        engine = SkallaEngine(partition_by_hash(detail, "name", 3),
                              DistributionInfo())
        result = engine.execute(_correlated("name"), ALL_OPTIMIZATIONS)
        assert result.plan.union_on is None

    def test_no_info_means_no_knowledge(self, detail):
        engine = _hashed(detail, info=None)
        assert engine.knowledge is None
        result = engine.execute(_correlated("g"), ALL_OPTIMIZATIONS)
        assert result.plan.union_on is None

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
        assert info.observed is None and info.constraints == {}
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
        assert loaded.info.observed is None
        assert loaded.knowledge.observed is not engine.knowledge.observed


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

    def test_refuted_stays_refuted(self, detail):
        engine = _hashed(detail)
        expression = _correlated("h")
        engine.execute(expression, ALL_OPTIMIZATIONS)
        engine.append(0, detail.head(1))
        assert engine.knowledge.epoch == 0   # nothing left to withdraw
        assert engine.execute(expression,
                              ALL_OPTIMIZATIONS).plan.union_on is None


class TestTpcrPlacement:
    """The end-to-end benchmark's placement at 20k rows: NationKey
    partitioning plus the CustKey / CustName ranges (Sect. 5.1)."""

    @pytest.fixture(scope="class")
    def warehouse(self):
        rows = 20_000
        relation = generate_tpcr(TpcrConfig(num_rows=rows,
                                            num_customers=rows // 5))
        partitions, info = partition_by_values(
            relation, "NationKey", nation_assignment(4))
        for site, (low, high) in custkey_ranges(4, rows // 5).items():
            info.add(site, "CustKey", RangeConstraint(low, high))
            info.add(site, "CustName", RangeConstraint(
                customer_name(low), customer_name(high)))
        return Warehouse.from_partitions(partitions, info)

    def test_corr_orderkey_is_one_union_step(self, warehouse):
        result = warehouse.sql(
            "SELECT OrderKey, COUNT(*) AS cnt1, AVG(ExtendedPrice) AS avg1 "
            "FROM TPCR GROUP BY OrderKey THEN COMPUTE COUNT(*) AS cnt2, "
            "AVG(ExtendedPrice) AS avg2 WHERE ExtendedPrice >= avg1")
        assert result.plan.union_on == "OrderKey"
        assert result.plan.num_synchronizations == 1
        assert len(result.metrics.phases) == 1

    def test_plain_partkey_stays_keyed(self, warehouse):
        result = warehouse.sql(
            "SELECT PartKey, COUNT(*) AS n, SUM(Quantity) AS q, "
            "MAX(ExtendedPrice) AS m FROM TPCR GROUP BY PartKey")
        assert result.plan.union_on is None


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
                    engine.knowledge.observed.disjoint(
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
                assert engine.knowledge.observed.disjoint(
                    engine.site_ids, {"g"}) == set()
        finally:
            sys.setswitchinterval(switch)
