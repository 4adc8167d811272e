"""Tests for group reduction: filters, traffic effects, and the Fig. 2
closed-form model."""

import pytest

from repro.relational.expressions import b, r
from repro.relational.aggregates import count_star
from repro.core.builder import QueryBuilder, agg
from repro.distributed.partition import DistributionInfo, RangeConstraint
from repro.distributed.plan import OptimizationFlags
from repro.optimizer.group_reduction import (
    expected_group_ratio, reduced_group_volume, site_group_filters,
    unreduced_group_volume)


def flow_query():
    return (QueryBuilder()
            .base("SourceAS")
            .gmdj([count_star("cnt1"), agg("avg", "NumBytes", "avg1")],
                  r.SourceAS == b.SourceAS)
            .gmdj([count_star("cnt2")],
                  (r.SourceAS == b.SourceAS) & (r.NumBytes >= b.avg1))
            .build())


class TestSiteGroupFilters:
    def make_info(self):
        info = DistributionInfo()
        info.add(0, "SourceAS", RangeConstraint(1, 8))
        info.add(1, "SourceAS", RangeConstraint(9, 16))
        return info

    def test_filters_derived_per_site(self):
        thetas = [r.SourceAS == b.SourceAS]
        filters = site_group_filters(thetas, self.make_info(), [0, 1])
        assert set(filters) == {0, 1}

    def test_no_info_no_filters(self):
        assert site_group_filters([r.SourceAS == b.SourceAS],
                                  DistributionInfo(), [0]) == {}

    def test_unconstrained_site_omitted(self):
        info = self.make_info()
        thetas = [r.SourceAS == b.SourceAS]
        filters = site_group_filters(thetas, info, [0, 1, 2])
        assert 2 not in filters

    def test_unrelated_constraint_gives_no_filter(self):
        info = DistributionInfo()
        info.add(0, "RouterId", RangeConstraint(0, 0))
        filters = site_group_filters([r.SourceAS == b.SourceAS], info, [0])
        assert filters == {}


class TestTrafficEffects:
    def test_aware_reduction_sends_fewer_groups_down(self, flow_warehouse):
        query = flow_query()
        plain = flow_warehouse.execute(query, OptimizationFlags())
        aware = flow_warehouse.execute(
            query, OptimizationFlags(group_reduction_aware=True))
        __, plain_down = plain.metrics.log.rows_by_direction()
        __, aware_down = aware.metrics.log.rows_by_direction()
        assert aware_down < plain_down
        assert plain.relation.multiset_equals(aware.relation)

    def test_independent_reduction_sends_fewer_groups_up(self,
                                                         flow_warehouse):
        query = flow_query()
        plain = flow_warehouse.execute(query, OptimizationFlags())
        reduced = flow_warehouse.execute(
            query, OptimizationFlags(group_reduction_independent=True))
        plain_up, __ = plain.metrics.log.rows_by_direction()
        reduced_up, __ = reduced.metrics.log.rows_by_direction()
        assert reduced_up < plain_up
        assert plain.relation.multiset_equals(reduced.relation)

    def test_independent_reduction_matches_fraction_model(self,
                                                          flow_warehouse):
        """With a partitioned grouping attribute each group is updated at
        exactly one site (c = 1); the measured group traffic must match
        the paper's formula within 5%."""
        query = flow_query()
        num_sites = 4
        plain = flow_warehouse.execute(query, OptimizationFlags())
        reduced = flow_warehouse.execute(
            query, OptimizationFlags(group_reduction_independent=True))
        measured_ratio = (reduced.metrics.rows_shipped
                          / plain.metrics.rows_shipped)
        predicted = expected_group_ratio(num_sites, sites_per_group=1.0)
        assert measured_ratio == pytest.approx(predicted, rel=0.05)


class TestClosedForm:
    def test_ratio_formula(self):
        # (2c + 2n + 1) / (4n + 1)
        assert expected_group_ratio(8, 1.0) == \
            pytest.approx((2 + 16 + 1) / 33)

    def test_ratio_matches_volume_helpers(self):
        n, g, c = 6, 1000, 1.5
        ratio = reduced_group_volume(n, g, c) / unreduced_group_volume(n, g)
        assert ratio == pytest.approx(expected_group_ratio(n, c))

    def test_no_reduction_when_every_site_updates_every_group(self):
        # c = n makes the reduced and unreduced volumes coincide
        n, g = 5, 100
        assert reduced_group_volume(n, g, n) == \
            pytest.approx(unreduced_group_volume(n, g))

    def test_validation(self):
        with pytest.raises(ValueError):
            expected_group_ratio(0, 0.5)
        with pytest.raises(ValueError):
            expected_group_ratio(4, 5.0)
