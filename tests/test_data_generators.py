"""Tests for the workload generators (flows + TPCR)."""

import numpy as np
import pytest

from repro.data.flows import FLOW_SCHEMA, generate_flows, router_as_ranges
from repro.data.tpch import (
    NUM_NATIONS, TPCR_SCHEMA, TpcrConfig, custkey_ranges, customer_name,
    generate_tpcr, nation_assignment, nation_of_custkey)
from repro.errors import PartitionError


class TestFlows:
    def test_schema_and_size(self):
        flows = generate_flows(num_flows=500, seed=1)
        assert flows.schema == FLOW_SCHEMA
        assert flows.num_rows == 500

    def test_deterministic(self):
        first = generate_flows(num_flows=200, seed=9)
        second = generate_flows(num_flows=200, seed=9)
        assert first.multiset_equals(second)

    def test_seed_changes_data(self):
        first = generate_flows(num_flows=200, seed=1)
        second = generate_flows(num_flows=200, seed=2)
        assert not first.multiset_equals(second)

    def test_as_partitioned_by_router(self):
        flows = generate_flows(num_flows=2_000, num_routers=4,
                               num_source_as=16, seed=3)
        ranges = router_as_ranges(4, 16)
        routers = flows.column("RouterId")
        source_as = flows.column("SourceAS")
        for router, (low, high) in ranges.items():
            local = source_as[routers == router]
            assert np.all((local >= low) & (local <= high))

    def test_ranges_cover_all_as(self):
        ranges = router_as_ranges(3, 10)
        covered = set()
        for low, high in ranges.values():
            covered |= set(range(low, high + 1))
        assert covered == set(range(1, 11))

    def test_unpartitioned_mode(self):
        flows = generate_flows(num_flows=2_000, num_routers=4,
                               num_source_as=8,
                               as_partitioned_by_router=False, seed=3)
        # at least one AS must appear at two different routers
        pairs = set(zip(flows.column("SourceAS").tolist(),
                        flows.column("RouterId").tolist()))
        by_as = {}
        for source, router in pairs:
            by_as.setdefault(source, set()).add(router)
        assert any(len(routers) > 1 for routers in by_as.values())

    def test_time_ordering(self):
        flows = generate_flows(num_flows=300, seed=2)
        assert np.all(flows.column("EndTime") > flows.column("StartTime"))

    def test_positive_measures(self):
        flows = generate_flows(num_flows=300, seed=2)
        assert np.all(flows.column("NumPackets") > 0)
        assert np.all(flows.column("NumBytes") > 0)

    def test_requires_router(self):
        with pytest.raises(PartitionError):
            generate_flows(num_flows=10, num_routers=0)


class TestTpcr:
    def test_schema_and_size(self, small_tpcr):
        assert small_tpcr.schema == TPCR_SCHEMA
        assert small_tpcr.num_rows == 8_000

    def test_deterministic(self):
        first = generate_tpcr(num_rows=500, seed=4)
        second = generate_tpcr(num_rows=500, seed=4)
        assert first.multiset_equals(second)

    def test_config_object_and_overrides_agree(self):
        via_config = generate_tpcr(TpcrConfig(num_rows=300, seed=8))
        via_kwargs = generate_tpcr(num_rows=300, seed=8)
        assert via_config.multiset_equals(via_kwargs)

    def test_config_and_overrides_mutually_exclusive(self):
        with pytest.raises(TypeError):
            generate_tpcr(TpcrConfig(), num_rows=10)

    def test_custname_determined_by_custkey(self, small_tpcr):
        keys = small_tpcr.column("CustKey")
        names = small_tpcr.column("CustName")
        for key, name in zip(keys[:200], names[:200]):
            assert name == customer_name(int(key))

    def test_custname_order_matches_key_order(self):
        assert customer_name(5) < customer_name(40) < customer_name(400)

    def test_nation_determined_by_custkey(self, small_tpcr):
        keys = small_tpcr.column("CustKey")
        nations = small_tpcr.column("NationKey")
        expected = nation_of_custkey(keys, 400)
        assert np.array_equal(nations, expected)

    def test_nation_range(self, small_tpcr):
        nations = small_tpcr.column("NationKey")
        assert nations.min() >= 0 and nations.max() < NUM_NATIONS

    def test_default_ratios(self):
        config = TpcrConfig(num_rows=40_000)
        assert config.resolved_customers() == 1_000
        assert config.resolved_orders() == 10_000

    def test_nation_assignment_partitions(self):
        assignment = nation_assignment(8)
        all_nations = sorted(n for ns in assignment.values() for n in ns)
        assert all_nations == list(range(NUM_NATIONS))

    def test_nation_assignment_bounds(self):
        with pytest.raises(PartitionError):
            nation_assignment(0)
        with pytest.raises(PartitionError):
            nation_assignment(26)

    def test_custkey_ranges_match_data(self):
        self.check_custkey_ranges(200)

    @pytest.mark.parametrize("num_customers", [24, 26, 101, 240, 250])
    def test_custkey_ranges_exact_for_any_customer_count(
            self, num_customers):
        self.check_custkey_ranges(num_customers)

    def check_custkey_ranges(self, num_customers):
        """Not only for multiples of the 25 nations: verified against
        the generated fragments and, key by key, against the
        generator's own nation rule."""
        relation = generate_tpcr(num_rows=4_000,
                                 num_customers=num_customers, seed=6)
        from repro.distributed.partition import (
            RangeConstraint, partition_by_values)
        partitions, info = partition_by_values(
            relation, "NationKey", nation_assignment(4))
        ranges = custkey_ranges(4, num_customers)
        site_of_nation = {nation: site
                          for site, nations in nation_assignment(4).items()
                          for nation in nations}
        for custkey in range(1, num_customers + 1):
            nation = int(nation_of_custkey(custkey, num_customers))
            assert [site for site, (low, high) in ranges.items()
                    if low <= custkey <= high] == [site_of_nation[nation]]
        for site, (low, high) in ranges.items():
            info.add(site, "CustKey", RangeConstraint(low, high))
            info.add(site, "CustName",
                     RangeConstraint(customer_name(low),
                                     customer_name(high)))
        info.verify(partitions)  # must not raise
        assert {"NationKey", "CustKey", "CustName"} <= \
            info.partition_attributes(partitions)
