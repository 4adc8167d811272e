"""End-to-end edge cases for distribution-aware group reduction:
disjunctive conditions, string-range constraints, NumPy range bounds,
knowledge observed from data, and provably-idle sites."""

import numpy as np
import pytest

from repro.relational.aggregates import count_star
from repro.relational.expressions import b, r
from repro.relational.relation import Relation
from repro.core.builder import QueryBuilder, agg
from repro.distributed.engine import SkallaEngine
from repro.distributed.partition import (
    DistributionInfo, RangeConstraint, partition_by_hash,
    partition_by_ranges)
from repro.distributed.plan import OptimizationFlags

AWARE = OptimizationFlags(group_reduction_aware=True)


@pytest.fixture(scope="module")
def detail():
    rng = np.random.default_rng(23)
    return Relation.from_dicts([
        {"g": int(rng.integers(0, 20)),
         "name": f"Customer#{int(rng.integers(0, 20)):09d}",
         "v": float(rng.normal(10, 5))}
        for __ in range(1_500)])


class TestDisjunctiveConditions:
    def test_or_condition_correct_and_reduced(self, detail):
        partitions, info = partition_by_ranges(
            detail, "g", {0: (0, 9), 1: (10, 19)})
        engine = SkallaEngine(partitions, info)
        # θ is a disjunction: equality on g OR a high-value detail row
        # with matching g — both arms carry the g equality, so the
        # derived per-site filter still applies.
        query = (QueryBuilder()
                 .base("g")
                 .gmdj([count_star("n")],
                       ((r.g == b.g) & (r.v >= 10))
                       | ((r.g == b.g) & (r.v < 0)))
                 .build())
        reference = query.evaluate_centralized(detail)
        plain = engine.execute(query, OptimizationFlags())
        aware = engine.execute(query, AWARE)
        assert aware.relation.multiset_equals(reference)
        __, plain_down = plain.metrics.log.rows_by_direction()
        __, aware_down = aware.metrics.log.rows_by_direction()
        assert aware_down < plain_down

    def test_unfilterable_disjunct_falls_back_safely(self, detail):
        partitions, info = partition_by_ranges(
            detail, "g", {0: (0, 9), 1: (10, 19)})
        engine = SkallaEngine(partitions, info)
        # one arm has no g restriction: the filter must not fire, and
        # results must stay correct
        query = (QueryBuilder()
                 .base("g")
                 .gmdj([count_star("n")],
                       (r.g == b.g) | (r.v > 1000.0))
                 .build())
        reference = query.evaluate_centralized(detail)
        aware = engine.execute(query, AWARE)
        assert aware.relation.multiset_equals(reference)


class TestStringRangeKnowledge:
    def test_custname_style_ranges(self, detail):
        boundary = "Customer#000000010"
        low_mask = detail.column("name") < boundary
        partitions = {0: detail.filter(low_mask),
                      1: detail.filter(~low_mask)}
        info = DistributionInfo()
        info.add(0, "name", RangeConstraint("Customer#000000000",
                                            "Customer#000000009"))
        info.add(1, "name", RangeConstraint(boundary,
                                            "Customer#000000019"))
        engine = SkallaEngine(partitions, info)
        query = (QueryBuilder()
                 .base("name")
                 .gmdj([count_star("n"), agg("avg", "v", "m")],
                       r.name == b.name)
                 .build())
        reference = query.evaluate_centralized(detail)
        plain = engine.execute(query, OptimizationFlags())
        aware = engine.execute(query, AWARE)
        assert aware.relation.multiset_equals(reference)
        assert aware.metrics.total_bytes < plain.metrics.total_bytes


class TestNumpyRangeBounds:
    """A band condition over range-placed sites: Theorem 4 bounds each
    site's base keys whether the declared bounds are Python or NumPy
    integers (observed bounds are NumPy scalars)."""

    @pytest.mark.parametrize("bound", [int, np.int64])
    def test_band_condition_filters_every_site(self, bound):
        detail = Relation.from_dicts([{"k": k % 400, "v": float(k % 7)}
                                      for k in range(1_600)])
        ranges = {site: (bound(100 * site), bound(100 * site + 99))
                  for site in range(4)}
        partitions, info = partition_by_ranges(detail, "k", ranges)
        engine = SkallaEngine(partitions, info)
        query = (QueryBuilder().base("k")
                 .gmdj([count_star("n"), agg("sum", "v", "s")],
                       (r.k >= b.k - 3) & (r.k <= b.k + 3))
                 .build())
        plain = engine.execute(query, OptimizationFlags())
        aware = engine.execute(query, AWARE)
        assert sorted(aware.plan.site_filters[0]) == [0, 1, 2, 3]
        assert aware.metrics.total_bytes < plain.metrics.total_bytes
        assert aware.relation.multiset_equals(
            query.evaluate_centralized(detail))


class TestObservedValueKnowledge:
    def test_knowledge_mined_from_fragments(self, detail):
        # hash-partition: nothing declared; the engine observes that g's
        # site value sets are disjoint and synchronizes by union
        engine = SkallaEngine(partition_by_hash(detail, "g", 3))
        query = (QueryBuilder()
                 .base("g")
                 .gmdj([count_star("n")], r.g == b.g)
                 .build())
        reference = query.evaluate_centralized(detail)
        plain = engine.execute(query, OptimizationFlags())
        reduced = engine.execute(query, OptimizationFlags.all())
        assert plain.plan.union_on == reduced.plan.union_on == "g"
        assert reduced.plan.num_synchronizations == 1
        assert not reduced.plan.site_filters    # observed: no ¬ψ_i
        assert plain.relation.multiset_equals(reference)
        assert reduced.relation.multiset_equals(reference)
        assert reduced.metrics.total_bytes < plain.metrics.total_bytes


class TestProvablyIdleSite:
    def test_site_that_cannot_match_receives_nothing(self, detail):
        partitions, info = partition_by_ranges(
            detail, "g", {0: (0, 9), 1: (10, 19)})
        engine = SkallaEngine(partitions, info)
        # the WHERE-style detail conjunct g < 5 is unsatisfiable at
        # site 1 (g ∈ [10, 19]) — the coordinator ships it zero groups
        query = (QueryBuilder()
                 .base("g", where=r.g < 5)
                 .gmdj([count_star("n")], (r.g == b.g) & (r.g < 5))
                 .build())
        reference = query.evaluate_centralized(detail)
        aware = engine.execute(query, AWARE)
        assert aware.relation.multiset_equals(reference)
        down_to_site1 = sum(
            message.rows for message in aware.metrics.log.messages
            if message.receiver == 1 and message.kind == "base_structure")
        assert down_to_site1 == 0
