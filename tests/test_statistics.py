"""Tests for statistics collection and the HyperLogLog sketch."""

import numpy as np
import pytest

from repro.relational.relation import Relation
from repro.relational.schema import Attribute, Schema
from repro.relational.types import DataType
from repro.relational.statistics import (
    ColumnStats, HyperLogLog, StatisticsError, collect_stats,
    estimate_group_count, merge_stats)


class TestHyperLogLog:
    @pytest.mark.parametrize("true_count", [100, 5_000, 50_000])
    def test_estimate_within_tolerance(self, true_count):
        sketch = HyperLogLog(precision=11)
        rng = np.random.default_rng(7)
        values = rng.permutation(true_count * 3)[:true_count]
        # add duplicates too: cardinality must not change
        sketch.add_array(values)
        sketch.add_array(values[: true_count // 2])
        estimate = sketch.estimate()
        assert estimate == pytest.approx(true_count, rel=0.08)

    def test_small_range_linear_counting(self):
        sketch = HyperLogLog(precision=11)
        sketch.add_array(np.arange(10))
        assert sketch.estimate() == pytest.approx(10, abs=2)

    def test_empty_sketch(self):
        assert HyperLogLog().estimate() == 0.0

    def test_strings(self):
        sketch = HyperLogLog()
        values = np.array([f"Customer#{i:09d}" for i in range(2_000)],
                          dtype=object)
        sketch.add_array(values)
        assert sketch.estimate() == pytest.approx(2_000, rel=0.08)

    def test_floats(self):
        sketch = HyperLogLog()
        sketch.add_array(np.linspace(0.0, 1.0, 3_000))
        assert sketch.estimate() == pytest.approx(3_000, rel=0.08)

    def test_merge_equals_union(self):
        rng = np.random.default_rng(3)
        left_values = rng.integers(0, 10_000, size=8_000)
        right_values = rng.integers(5_000, 15_000, size=8_000)
        left = HyperLogLog()
        right = HyperLogLog()
        left.add_array(left_values)
        right.add_array(right_values)
        merged = left.merge(right)
        true_union = len(set(left_values.tolist())
                         | set(right_values.tolist()))
        assert merged.estimate() == pytest.approx(true_union, rel=0.08)

    def test_merge_precision_mismatch(self):
        with pytest.raises(StatisticsError):
            HyperLogLog(10).merge(HyperLogLog(12))

    def test_bad_precision(self):
        with pytest.raises(StatisticsError):
            HyperLogLog(precision=2)

    def test_single_add(self):
        sketch = HyperLogLog()
        sketch.add(42)
        sketch.add(42)
        assert sketch.estimate() == pytest.approx(1, abs=1)


class TestCollectStats:
    @pytest.fixture()
    def relation(self):
        return Relation.from_dicts([
            {"g": i % 7, "name": f"n{i % 3}", "v": float(i)}
            for i in range(100)])

    def test_exact_small(self, relation):
        stats = collect_stats(relation)
        assert stats.row_count == 100
        assert stats.column("g").distinct == 7
        assert stats.column("g").exact
        assert stats.column("g").minimum == 0
        assert stats.column("g").maximum == 6
        assert stats.column("name").distinct == 3

    @pytest.mark.parametrize("use_sketches", [False, True])
    def test_object_column_extremes_equal_the_sorted_ones(self,
                                                          use_sketches):
        # The one-pass min/max must pin the same ColumnStats the old
        # full sort of the column did, for strings and for bytes.
        rng = np.random.default_rng(14)
        names = [f"Customer#{int(k):09d}" for k in rng.integers(0, 500, 2000)]
        blobs = [name.encode() for name in names]
        relation = Relation.from_columns(
            Schema([Attribute("s", DataType.STRING),
                    Attribute("b", DataType.BYTES)]),
            {"s": np.array(names, dtype=object),
             "b": np.array(blobs, dtype=object)})
        stats = collect_stats(relation, use_sketches=use_sketches)
        for name, values in (("s", names), ("b", blobs)):
            ordered = sorted(values)
            column = stats.column(name)
            assert column == ColumnStats(
                name, 2000, column.distinct, ordered[0], ordered[-1],
                not use_sketches)
        if not use_sketches:
            assert stats.column("s").distinct == len(set(names))

    def test_sketched(self, relation):
        stats = collect_stats(relation, use_sketches=True)
        assert stats.column("g").distinct == pytest.approx(7, abs=2)
        assert not stats.column("g").exact

    def test_subset_of_columns(self, relation):
        stats = collect_stats(relation, attrs=["v"])
        assert set(stats.columns) == {"v"}

    def test_empty_relation(self, relation):
        stats = collect_stats(relation.head(0))
        assert stats.row_count == 0
        assert stats.column("g").distinct == 0.0

    def test_merge_stats(self, relation):
        first = collect_stats(relation.head(50))
        second = collect_stats(relation.filter(
            np.arange(relation.num_rows) >= 50))
        merged = merge_stats([first, second])
        assert merged.row_count == 100
        # pessimistic: sum of fragment distincts, capped at row count
        assert merged.column("g").distinct >= 7
        assert merged.column("v").minimum == 0.0
        assert merged.column("v").maximum == 99.0

    def test_merge_name_mismatch(self):
        left = ColumnStats("a", 1, 1.0, 0, 0, True)
        right = ColumnStats("b", 1, 1.0, 0, 0, True)
        with pytest.raises(StatisticsError):
            left.merged(right)

    def test_merge_nothing(self):
        with pytest.raises(StatisticsError):
            merge_stats([])

    def test_unknown_column(self, relation):
        stats = collect_stats(relation)
        with pytest.raises(StatisticsError):
            stats.column("zz")


class TestGroupCountEstimate:
    def test_single_attr(self):
        relation = Relation.from_dicts([
            {"g": i % 7, "h": i % 4} for i in range(200)])
        stats = collect_stats(relation)
        assert estimate_group_count(stats, ["g"]) == 7

    def test_product_capped_by_rows(self):
        relation = Relation.from_dicts([
            {"g": i % 50, "h": i % 40} for i in range(100)])
        stats = collect_stats(relation)
        assert estimate_group_count(stats, ["g", "h"]) == 100

    def test_no_attrs(self):
        relation = Relation.from_dicts([{"g": 1}])
        stats = collect_stats(relation)
        assert estimate_group_count(stats, []) == 1.0
