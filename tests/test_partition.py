"""Unit tests for partitioning and distribution knowledge."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.errors import PartitionError
from repro.relational.relation import Relation
from repro.distributed.engine import SkallaEngine
from repro.distributed.partition import (
    DistributionInfo, RangeConstraint, ValueSetConstraint,
    partition_by_hash, partition_by_ranges, partition_by_values,
    partition_round_robin, site_ranges, site_value_sets)

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture()
def relation():
    return Relation.from_dicts([
        {"nation": n % 5, "cust": n, "v": float(n)} for n in range(50)])


class TestConstraints:
    def test_value_set(self):
        constraint = ValueSetConstraint(frozenset({1, 2}))
        assert constraint.contains(1) and not constraint.contains(3)
        mask = constraint.mask(np.array([1, 3, 2]))
        assert mask.tolist() == [True, False, True]
        assert constraint.bounds() == (1.0, 2.0)

    def test_value_set_strings_have_no_bounds(self):
        constraint = ValueSetConstraint(frozenset({"a", "b"}))
        assert constraint.bounds() is None

    def test_value_set_empty_rejected(self):
        with pytest.raises(PartitionError):
            ValueSetConstraint(frozenset())

    def test_range(self):
        constraint = RangeConstraint(10, 20)
        assert constraint.contains(10) and constraint.contains(20)
        assert not constraint.contains(21)
        assert constraint.bounds() == (10.0, 20.0)

    def test_range_numpy_bounds(self):
        """Observed bounds are NumPy scalars; booleans are not numbers."""
        column = np.array([10, 20], dtype=np.int64)
        assert RangeConstraint(column.min(), column.max()).bounds() == \
            (10.0, 20.0)
        assert RangeConstraint(np.float64(0.5), 2).bounds() == (0.5, 2.0)
        assert RangeConstraint(False, True).bounds() is None
        assert RangeConstraint(np.False_, np.True_).bounds() is None

    def test_range_strings(self):
        constraint = RangeConstraint("Customer#000000001",
                                     "Customer#000000050")
        assert constraint.contains("Customer#000000025")
        assert constraint.bounds() is None

    def test_range_inverted_rejected(self):
        with pytest.raises(PartitionError):
            RangeConstraint(5, 1)

    def test_intersections(self):
        assert ValueSetConstraint(frozenset({1, 2})).intersects(
            ValueSetConstraint(frozenset({2, 3})))
        assert not ValueSetConstraint(frozenset({1})).intersects(
            ValueSetConstraint(frozenset({2})))
        assert RangeConstraint(1, 5).intersects(RangeConstraint(5, 9))
        assert not RangeConstraint(1, 4).intersects(RangeConstraint(5, 9))
        assert RangeConstraint(1, 5).intersects(
            ValueSetConstraint(frozenset({3})))

    def test_to_expr(self):
        from repro.relational.expressions import BaseAttr
        expr = RangeConstraint(1, 5).to_expr(BaseAttr("x"))
        env = {"base": {"x": np.array([0, 3, 7])}, "detail": None}
        assert expr.eval(env).tolist() == [False, True, False]


class TestPartitioning:
    def test_by_values(self, relation):
        partitions, info = partition_by_values(
            relation, "nation", {0: [0, 1], 1: [2, 3], 2: [4]})
        assert sum(p.num_rows for p in partitions.values()) == 50
        info.verify(partitions)
        assert info.partition_attributes(partitions) == {"nation"}

    def test_by_values_unassigned_rejected(self, relation):
        with pytest.raises(PartitionError, match="not assigned"):
            partition_by_values(relation, "nation", {0: [0, 1]})

    def test_by_values_double_assignment_rejected(self, relation):
        with pytest.raises(PartitionError, match="both"):
            partition_by_values(relation, "nation",
                                {0: [0, 1], 1: [1, 2, 3, 4]})

    def test_by_ranges(self, relation):
        partitions, info = partition_by_ranges(
            relation, "cust", {0: (0, 24), 1: (25, 49)})
        assert partitions[0].num_rows == 25
        info.verify(partitions)
        assert "cust" in info.partition_attributes(partitions)

    def test_by_ranges_overlap_rejected(self, relation):
        with pytest.raises(PartitionError, match="overlaps"):
            partition_by_ranges(relation, "cust", {0: (0, 30), 1: (20, 49)})
        with pytest.raises(PartitionError, match="overlaps"):
            # no row lies in the overlap: the declaration is still wrong
            partition_by_ranges(relation, "cust",
                                {0: (0, 24.5), 1: (24.2, 49)})

    def test_by_ranges_gap_rejected(self, relation):
        with pytest.raises(PartitionError, match="outside"):
            partition_by_ranges(relation, "cust", {0: (0, 10), 1: (30, 49)})

    def test_by_hash_covers_everything(self, relation):
        partitions = partition_by_hash(relation, "cust", 4)
        assert sum(p.num_rows for p in partitions.values()) == 50
        rebuilt = Relation.concat(list(partitions.values()))
        assert rebuilt.multiset_equals(relation)

    def test_by_hash_same_key_same_site(self, relation):
        partitions = partition_by_hash(relation, "nation", 3)
        for site, fragment in partitions.items():
            for other_site, other in partitions.items():
                if site >= other_site:
                    continue
                mine = set(fragment.column("nation").tolist())
                theirs = set(other.column("nation").tolist())
                assert not mine & theirs

    def test_by_hash_string_placement_ignores_hash_seed(self):
        """String keys land on the same sites in every interpreter."""
        script = (
            "from repro.relational.relation import Relation\n"
            "from repro.distributed.partition import partition_by_hash\n"
            "rows = Relation.from_dicts("
            "[{'k': f'c{n}', 'v': n} for n in range(12)])\n"
            "parts = partition_by_hash(rows, 'k', 3)\n"
            "print(sorted((s, sorted(f.column('k').tolist()))"
            " for s, f in parts.items()))\n")
        placements = set()
        for seed in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": seed,
                   "PYTHONPATH": str(SRC)}
            placements.add(subprocess.run(
                [sys.executable, "-c", script], env=env, check=True,
                capture_output=True, text=True).stdout)
        assert len(placements) == 1

    def test_round_robin_balanced(self, relation):
        partitions = partition_round_robin(relation, 4)
        sizes = sorted(p.num_rows for p in partitions.values())
        assert max(sizes) - min(sizes) <= 1

    def test_zero_sites_rejected(self, relation):
        with pytest.raises(PartitionError):
            partition_by_hash(relation, "cust", 0)
        with pytest.raises(PartitionError):
            partition_round_robin(relation, 0)


class TestDistributionInfo:
    def test_verify_catches_violation(self, relation):
        partitions = partition_round_robin(relation, 2)
        info = DistributionInfo()
        info.add(0, "nation", ValueSetConstraint(frozenset({0})))
        with pytest.raises(PartitionError, match="violated"):
            info.verify(partitions)

    def test_verify_unknown_site(self, relation):
        info = DistributionInfo()
        info.add(7, "nation", ValueSetConstraint(frozenset({0})))
        with pytest.raises(PartitionError, match="unknown site"):
            info.verify({0: relation})

    def test_partition_attributes_requires_disjoint(self):
        info = DistributionInfo()
        info.add(0, "a", ValueSetConstraint(frozenset({1, 2})))
        info.add(1, "a", ValueSetConstraint(frozenset({2, 3})))
        assert info.partition_attributes([0, 1]) == set()

    def test_partition_attributes_requires_all_sites(self):
        info = DistributionInfo()
        info.add(0, "a", ValueSetConstraint(frozenset({1})))
        info.add(1, "b", ValueSetConstraint(frozenset({2})))
        assert info.partition_attributes([0, 1]) == set()

    def test_multiple_partition_attributes(self):
        info = DistributionInfo()
        info.add(0, "a", RangeConstraint(0, 4))
        info.add(0, "b", RangeConstraint(0, 40))
        info.add(1, "a", RangeConstraint(5, 9))
        info.add(1, "b", RangeConstraint(41, 90))
        assert info.partition_attributes([0, 1]) == {"a", "b"}

    def test_observed_value_info(self, relation):
        """What the data shows about values, observed by the engine
        where nothing is declared."""
        partitions, __ = partition_by_values(
            relation, "nation", {0: [0, 1], 1: [2, 3, 4]})
        knowledge = SkallaEngine(partitions).knowledge
        assert knowledge.constraints == {}
        assert knowledge.partition_attributes([0, 1]) == set()
        # INT64 nation and cust by disjoint value sets; FLOAT64 proves
        # nothing
        assert knowledge.partition_attributes(
            [0, 1], ["nation", "cust", "v"]) == {"nation", "cust"}
        assert knowledge.observed("nation") and not knowledge.observed("v")
        assert DistributionInfo().partition_attributes(
            [0, 1], ["nation"]) == set()    # holds no fragment


class TestSiteRanges:
    """Per-site (min, max): the observation of a STRING key column."""

    def test_string_ranges_skip_empty_sites(self):
        assert site_ranges({0: np.array(["b", "a"], dtype=object),
                            1: np.array([], dtype=object),
                            2: np.array(["c"], dtype=object)}) == \
            {0: ("a", "b"), 2: ("c", "c")}

    def test_overlapping_ranges_refute(self):
        assert site_ranges({0: np.array(["a", "c"], dtype=object),
                            1: np.array(["b"], dtype=object)}) is None

    @pytest.mark.parametrize("values", [
        ["a", 1], ["a", None], [b"a", b"b"], [1.5, 2.5]],
        ids=["int", "none", "bytes", "float"])
    def test_string_column_holding_a_non_str_proves_nothing(self, values):
        assert site_ranges({0: np.array(values, dtype=object)}) is None

    def test_integer_columns_are_not_ranged(self):
        """INT64 keys are proved by value sets only."""
        assert site_ranges({0: np.array([1, 2]), 1: np.array([5])}) is None


class TestSiteValueSets:
    """The value-set fallback of an observed INT64 column."""

    def test_disjoint_sites_give_sorted_value_sets(self):
        columns = {0: np.array([3, 1, 3]), 1: np.array([2, 5 * 10**9]),
                   2: np.array([], dtype=np.int64)}
        sets = site_value_sets(columns)
        assert sets[0].tolist() == [1, 3]
        assert sets[1].tolist() == [2, 5 * 10**9]
        assert sets[2].tolist() == []

    def test_shared_value_refutes(self):
        columns = {0: np.array([1, 4]), 1: np.array([2, 4])}
        assert site_value_sets(columns) is None

    def test_no_rows_anywhere(self):
        sets = site_value_sets({0: np.array([], dtype=np.int64)})
        assert sets[0].tolist() == []


class TestUnconstrainedSite:
    """A site registered without constraints may hold any value: it
    intersects every other site, whatever the constrained sites say."""

    SQL = ("SELECT k, COUNT(*) AS c1, AVG(v) AS a1 FROM T GROUP BY k "
           "THEN COMPUTE COUNT(*) AS c2 WHERE v >= a1")

    @pytest.fixture()
    def partitions(self):
        return {
            0: Relation.from_dicts([{"k": 1, "v": 10.0}, {"k": 2, "v": 1.0}]),
            1: Relation.from_dicts([{"k": 10, "v": 4.0}, {"k": 11, "v": 2.0}]),
            2: Relation.from_dicts([{"k": 1, "v": 0.0}, {"k": 10, "v": 8.0}]),
        }

    @pytest.fixture()
    def info(self):
        info = DistributionInfo()
        info.add(0, "k", RangeConstraint(0, 5))
        info.add(1, "k", RangeConstraint(6, 20))
        return info

    def test_not_a_partition_attribute(self, info):
        assert info.partition_attributes([0, 1]) == {"k"}
        assert info.partition_attributes([0, 1, 2]) == set()
        assert info.partition_attributes([]) == set()

    def test_correlated_round_matches_the_centralized_answer(
            self, partitions, info):
        # Under Corollary 1 round 2 would compare against site-local
        # averages: k = 1 counts both its rows (10 >= 10 at site 0,
        # 0 >= 0 at site 2) where the global average 5 admits one.
        from repro.distributed.plan import ALL_OPTIMIZATIONS
        from repro.sql.compiler import compile_query
        from repro.warehouse import Warehouse
        warehouse = Warehouse.from_partitions(partitions, info)
        detail = Relation.concat(list(partitions.values()))
        expected = compile_query(
            self.SQL, detail.schema).expression.evaluate_centralized(detail)
        for flags in (None, ALL_OPTIMIZATIONS):
            result = warehouse.sql(self.SQL, flags=flags)
            assert result.plan.union_on is None
            assert result.relation.multiset_equals(expected)
        counts = dict(zip(expected.column("k").tolist(),
                          expected.column("c2").tolist()))
        assert counts[1] == 1
