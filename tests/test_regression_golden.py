"""Golden regression tests: exact values on fixed seeds.

Everything else in the suite compares relative behaviours (distributed
vs centralized, optimized vs not).  These tests pin *absolute* values
for fixed seeds so that silent changes to generators, hashing, or
aggregation order are caught immediately.  If one of these fails after
an intentional change, re-derive the constants and say so in the
commit.
"""

import json
from pathlib import Path

import pytest

from repro.data.flows import generate_flows
from repro.data.tpch import generate_tpcr
from repro.relational.aggregates import count_star
from repro.relational.operators import group_by


class TestFlowGeneratorGolden:
    def test_fixed_seed_aggregate_values(self):
        flows = generate_flows(num_flows=1_000, num_routers=4,
                               num_source_as=16, seed=12345)
        assert flows.num_rows == 1_000
        assert int(flows.column("NumBytes").sum()) == 27_202_876
        assert int(flows.column("SourceAS").sum()) == 4_580
        by_router = group_by(flows, ["RouterId"], [count_star("n")])
        counts = {row["RouterId"]: row["n"]
                  for row in by_router.to_dicts()}
        assert counts == {0: 637, 1: 182, 2: 101, 3: 80}


class TestTpcrGeneratorGolden:
    def test_fixed_seed_aggregate_values(self):
        tpcr = generate_tpcr(num_rows=2_000, num_customers=100, seed=777)
        assert tpcr.num_rows == 2_000
        assert int(tpcr.column("Quantity").sum()) == 51_168
        assert tpcr.column("ExtendedPrice").sum() == \
            pytest.approx(71_990_279.0)
        nations = group_by(tpcr, ["NationKey"], [count_star("n")])
        assert nations.num_rows == 25


class TestExampleOneGolden:
    def test_fixed_seed_query_values(self):
        from repro.core.builder import QueryBuilder, agg
        from repro.relational.expressions import b, r
        flows = generate_flows(num_flows=1_000, num_routers=4,
                               num_source_as=16, seed=12345)
        query = (QueryBuilder()
                 .base("SourceAS")
                 .gmdj([count_star("cnt1"),
                        agg("sum", "NumBytes", "sum1")],
                       r.SourceAS == b.SourceAS)
                 .gmdj([count_star("cnt2")],
                       (r.SourceAS == b.SourceAS)
                       & (r.NumBytes >= b.sum1 / b.cnt1))
                 .build())
        result = {row["SourceAS"]: row
                  for row in query.evaluate_centralized(flows).to_dicts()}
        assert result[1]["cnt1"] == 301
        assert result[1]["sum1"] == 7_920_184
        assert result[1]["cnt2"] == 85
        total_above = sum(row["cnt2"] for row in result.values())
        assert total_above == 291


class TestModeledCostGolden:
    """The modeled cost of one fixed TPCR plan, pinned message by message.

    ``tests/golden/modeled_cost_pin.json`` was captured when the flat
    star and the aggregation tree were still two engines: with a
    :class:`ComputeModel` everything here is modeled, so one flat
    execution — its own metrics for ``flat``, its round log priced
    over the cost-driven tree for ``tree`` — must reproduce both message
    logs and response times exactly.
    """

    @pytest.fixture(scope="class")
    def case(self):
        from repro.bench.harness import build_tpcr_warehouse
        from repro.bench.queries import correlated_query
        from repro.distributed.engine import SkallaEngine
        from repro.distributed.network import ComputeModel
        from repro.distributed.plan import OptimizationFlags
        from repro.optimizer.planner import build_plan
        warehouse = build_tpcr_warehouse(
            num_rows=4000, num_sites=8, high_cardinality=False, seed=42,
            num_customers=200)
        engine = warehouse.engine
        partitions = {site: engine.fragment(site)
                      for site in engine.site_ids}
        plan = build_plan(
            correlated_query(["CustName"], "ExtendedPrice"),
            OptimizationFlags(group_reduction_independent=True,
                              group_reduction_aware=True),
            warehouse.info, engine.detail_schema, sites=engine.site_ids)
        pin = json.loads((Path(__file__).parent / "golden"
                          / "modeled_cost_pin.json").read_text())
        engine = SkallaEngine(partitions, warehouse.info,
                              compute_model=ComputeModel())
        return engine, engine.execute_plan(plan), pin

    @pytest.mark.parametrize("shape", ["flat", "tree"])
    def test_message_log_and_response_time(self, case, shape):
        from repro.distributed.network import ComputeModel
        from repro.distributed.pricing import price
        from repro.topology import build_cost_tree, clustered_wan
        engine, run, pin = case
        metrics = run.metrics
        if shape == "tree":
            wan = clustered_wan(8, num_regions=3, seed=5)
            tree = build_cost_tree(wan, 2)
            assert tree.depth() == 3
            metrics = price(run.log, tree, engine.link, ComputeModel(),
                            wan=wan)
        assert [[m.sender, m.receiver, m.kind, m.payload_bytes]
                for m in metrics.log.messages] == pin[shape]["messages"]
        assert metrics.response_seconds == pin[shape]["response_seconds"]
