"""Tests for statistics collection over per-site fragments.

The sketch itself (accuracy, merge, serialization) is tested in
``tests/test_sketches.py``; these tests pin how :func:`collect_stats`
merges fragment states: exact unions below the threshold, register-max
merged sketches above it, and estimates that do not depend on the
process.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.bench.harness import build_tpcr_warehouse
from repro.relational import statistics
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, Schema
from repro.relational.types import DataType
from repro.relational.statistics import (
    ColumnStats, StatisticsError, collect_stats, estimate_group_count)
from repro.sketches.hll import (
    DEFAULT_PRECISION, HyperLogLog, relative_error_bound)

BOUND = relative_error_bound(DEFAULT_PRECISION)


@pytest.fixture()
def sketched(monkeypatch):
    """Force every column onto the sketch path."""
    monkeypatch.setattr(statistics, "SKETCH_THRESHOLD", 0)


def _split(relation, parts):
    """``relation`` dealt round-robin into ``parts`` fragments."""
    rows = np.arange(relation.num_rows)
    return [relation.filter(rows % parts == part) for part in range(parts)]


class TestCollectStats:
    @pytest.fixture()
    def relation(self):
        return Relation.from_dicts([
            {"g": i % 7, "name": f"n{i % 3}", "v": float(i)}
            for i in range(100)])

    def test_exact_small(self, relation):
        stats = collect_stats([relation])
        assert stats.row_count == 100
        assert stats.column("g").distinct == 7
        assert stats.column("g").exact
        assert stats.column("g").minimum == 0
        assert stats.column("g").maximum == 6
        assert stats.column("name").distinct == 3

    @pytest.mark.parametrize("sketch", [False, True])
    def test_object_column_extremes_equal_the_sorted_ones(self, monkeypatch,
                                                          sketch):
        # min/max over the fragments' distinct values must pin the same
        # ColumnStats a full sort of the column does, for strings and
        # for bytes, on both paths.
        if sketch:
            monkeypatch.setattr(statistics, "SKETCH_THRESHOLD", 0)
        rng = np.random.default_rng(14)
        names = [f"Customer#{int(k):09d}" for k in rng.integers(0, 500, 2000)]
        blobs = [name.encode() for name in names]
        relation = Relation.from_columns(
            Schema([Attribute("s", DataType.STRING),
                    Attribute("b", DataType.BYTES)]),
            {"s": np.array(names, dtype=object),
             "b": np.array(blobs, dtype=object)})
        stats = collect_stats(_split(relation, 3))
        for name, values in (("s", names), ("b", blobs)):
            ordered = sorted(values)
            column = stats.column(name)
            assert column == ColumnStats(
                name, 2000, column.distinct, ordered[0], ordered[-1],
                not sketch)
        if not sketch:
            assert stats.column("s").distinct == len(set(names))

    def test_sketched(self, relation, sketched):
        stats = collect_stats([relation])
        assert stats.column("g").distinct == pytest.approx(7, abs=2)
        assert not stats.column("g").exact

    def test_subset_of_columns(self, relation):
        stats = collect_stats([relation], attrs=["v"])
        assert set(stats.columns) == {"v"}

    def test_empty_relation(self, relation):
        stats = collect_stats([relation.head(0)])
        assert stats.row_count == 0
        assert stats.column("g").distinct == 0.0

    def test_fragments_merge_exactly(self, relation):
        # a value recurring in both fragments counts once
        stats = collect_stats([relation.head(50),
                               relation.filter(
                                   np.arange(relation.num_rows) >= 50)])
        assert stats.row_count == 100
        assert stats.column("g").distinct == 7
        assert stats.column("g").exact
        assert stats.column("v").minimum == 0.0
        assert stats.column("v").maximum == 99.0

    def test_empty_fragments_are_skipped(self, relation):
        stats = collect_stats([relation.head(0), relation, relation.head(0)])
        assert stats.column("g") == collect_stats([relation]).column("g")

    def test_no_fragments(self):
        with pytest.raises(StatisticsError):
            collect_stats([])

    def test_unknown_column(self, relation):
        stats = collect_stats([relation])
        with pytest.raises(StatisticsError):
            stats.column("zz")

    def test_threshold_bounds_summed_fragment_distincts(self, monkeypatch):
        # 4 fragments × 10 distinct values each: 40 summed, 10 in union
        fragments = [Relation.from_dicts([{"g": i} for i in range(10)])] * 4
        monkeypatch.setattr(statistics, "SKETCH_THRESHOLD", 40)
        assert collect_stats(fragments).column("g").exact
        monkeypatch.setattr(statistics, "SKETCH_THRESHOLD", 39)
        assert not collect_stats(fragments).column("g").exact


class TestSketchPath:
    @pytest.mark.parametrize("kind", ["int", "float", "string"])
    def test_estimate_within_bound(self, sketched, kind):
        # every key recurs at all 4 sites; summing per-site estimates
        # would report 4x the truth
        keys = np.arange(5_000)
        values = {"int": keys, "float": keys / 7.0,
                  "string": np.array([f"Clerk#{k:09d}" for k in keys],
                                     dtype=object)}[kind]
        rng = np.random.default_rng(3)
        dtype = {"int": DataType.INT64, "float": DataType.FLOAT64,
                 "string": DataType.STRING}[kind]
        relation = Relation.from_columns(
            Schema([Attribute("k", dtype)]),
            {"k": rng.permutation(np.tile(values, 4))})
        distinct = collect_stats(_split(relation, 4)).column("k").distinct
        assert abs(distinct - 5_000) <= BOUND * 5_000

    def test_merged_state_is_the_sketch_of_every_row(self):
        rng = np.random.default_rng(9)
        column = rng.integers(0, 20_000, 60_000)
        relation = Relation.from_columns(
            Schema([Attribute("k", DataType.INT64)]), {"k": column})
        parts = [statistics._distinct_values(fragment.column("k"))
                 for fragment in _split(relation, 4)]
        merged = statistics._merged_sketch(parts)
        every_row = HyperLogLog(DEFAULT_PRECISION).update(column)
        assert merged.to_bytes() == every_row.to_bytes()

    def test_estimate_is_identical_across_hash_seeds(self):
        # Python's str hash is salted per process; the estimate must not
        # be.  Each run feeds 4 fragments of one recurring STRING key.
        script = (
            "import numpy as np\n"
            "from repro.relational import statistics\n"
            "from repro.relational.relation import Relation\n"
            "statistics.SKETCH_THRESHOLD = 0\n"
            "keys = [f'Clerk#{k:09d}' for k in range(3000)]\n"
            "fragments = [Relation.from_dicts([{'c': key} for key in keys])"
            " for _ in range(4)]\n"
            "print(repr(statistics.collect_stats(fragments)"
            ".column('c').distinct))\n")
        source = str(Path(repro.__file__).resolve().parents[1])
        estimates = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=source)
            run = subprocess.run([sys.executable, "-c", script], env=env,
                                 capture_output=True, text=True, check=True)
            estimates.append(float(run.stdout))
        assert estimates[0] == estimates[1]
        assert abs(estimates[0] - 3_000) <= BOUND * 3_000

    @pytest.mark.parametrize("key",
                             ["Clerk", "PartKey", "OrderKey", "CustName"])
    def test_tpcr_keys_at_four_sites(self, sketched, key):
        engine = build_tpcr_warehouse(num_rows=20_000, num_sites=4,
                                      seed=42).engine
        fragments = [engine.fragment(site) for site in engine.site_ids]
        truth = len(set(np.concatenate(
            [fragment.column(key) for fragment in fragments]).tolist()))
        distinct = collect_stats(fragments, attrs=[key]).column(key).distinct
        assert abs(distinct - truth) <= BOUND * truth


class TestGroupCountEstimate:
    def test_single_attr(self):
        relation = Relation.from_dicts([
            {"g": i % 7, "h": i % 4} for i in range(200)])
        stats = collect_stats([relation])
        assert estimate_group_count(stats, ["g"]) == 7

    def test_product_capped_by_rows(self):
        relation = Relation.from_dicts([
            {"g": i % 50, "h": i % 40} for i in range(100)])
        stats = collect_stats([relation])
        assert estimate_group_count(stats, ["g", "h"]) == 100

    def test_no_attrs(self):
        relation = Relation.from_dicts([{"g": 1}])
        stats = collect_stats([relation])
        assert estimate_group_count(stats, []) == 1.0
