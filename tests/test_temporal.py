"""Tests for time bucketing, moving windows, and scalar functions."""

import numpy as np
import pytest

from repro.errors import ExpressionError, QueryError
from repro.relational.aggregates import AggregateSpec, count_star
from repro.relational.expressions import Func, fn, r
from repro.relational.relation import Relation
from repro.core.temporal import (
    HOUR, add_time_bucket, bucketed_query, moving_window_query,
    moving_window_reference)
from repro.distributed.engine import SkallaEngine
from repro.distributed.partition import partition_round_robin
from repro.distributed.plan import NO_OPTIMIZATIONS


@pytest.fixture()
def events():
    rng = np.random.default_rng(11)
    return Relation.from_dicts([
        {"t": int(rng.integers(0, 10 * HOUR)),
         "v": float(rng.integers(1, 100))}
        for __ in range(600)])


class TestScalarFunctions:
    def test_floor_bucketing(self, events):
        expr = fn("floor", r.t / HOUR)
        env = {"detail": events.columns(), "base": None}
        buckets = expr.eval(env)
        assert np.array_equal(buckets,
                              np.floor(events.column("t") / HOUR))

    @pytest.mark.parametrize("name,reference", [
        ("abs", np.abs), ("sqrt", np.sqrt), ("log", np.log),
        ("ceil", np.ceil), ("exp", np.exp), ("log2", np.log2),
    ])
    def test_functions_match_numpy(self, events, name, reference):
        env = {"detail": events.columns(), "base": None}
        with np.errstate(all="ignore"):
            expected = reference(events.column("v"))
        assert np.allclose(Func(name, r.v).eval(env), expected,
                           equal_nan=True)

    def test_unknown_function(self):
        with pytest.raises(ExpressionError, match="unknown scalar"):
            Func("median_filter", r.v)

    def test_attrs_and_substitute(self):
        expr = fn("floor", r.t / 60)
        assert expr.attrs("detail") == {"t"}
        from repro.relational.expressions import Literal
        replaced = expr.substitute({("detail", "t"): Literal(120)})
        assert replaced.eval({"detail": {}, "base": None}) == 2.0

    def test_result_dtype(self, events):
        from repro.relational.types import DataType
        assert Func("abs", r.t).result_dtype(None, events.schema) is \
            DataType.INT64
        assert Func("sqrt", r.t).result_dtype(None, events.schema) is \
            DataType.FLOAT64
        with pytest.raises(ExpressionError):
            Func("sqrt", r.t).result_dtype(
                None, Relation.from_dicts([{"t": "x"}]).schema)


class TestBucketing:
    def test_add_time_bucket(self, events):
        bucketed = add_time_bucket(events, "t", HOUR)
        assert "Bucket" in bucketed.schema
        assert np.array_equal(bucketed.column("Bucket"),
                              events.column("t") // HOUR)

    def test_bad_width(self, events):
        with pytest.raises(QueryError):
            add_time_bucket(events, "t", 0)

    def test_bucketed_query(self, events):
        bucketed = add_time_bucket(events, "t", HOUR)
        query = bucketed_query("Bucket",
                               [count_star("n"),
                                AggregateSpec("sum", "v", "s")])
        result = query.evaluate_centralized(bucketed)
        assert result.num_rows == len(np.unique(bucketed.column("Bucket")))
        assert sum(result.column("n")) == events.num_rows


class TestMovingWindow:
    def test_matches_reference(self, events):
        bucketed = add_time_bucket(events, "t", HOUR)
        query = moving_window_query(
            "Bucket", window_buckets=3,
            aggregates=[count_star("n"), AggregateSpec("sum", "v", "s"),
                        AggregateSpec("avg", "v", "m")])
        result = {row["Bucket"]: row
                  for row in query.evaluate_centralized(
                      bucketed).to_dicts()}
        reference = moving_window_reference(bucketed, "Bucket", 3, "v")
        for bucket, values in reference.items():
            assert result[bucket]["n"] == len(values)
            assert result[bucket]["s"] == pytest.approx(sum(values))
            assert result[bucket]["m"] == pytest.approx(
                sum(values) / len(values))

    def test_window_of_one_equals_plain_bucketing(self, events):
        bucketed = add_time_bucket(events, "t", HOUR)
        aggregates = [count_star("n"), AggregateSpec("sum", "v", "s")]
        moving = moving_window_query("Bucket", 1, aggregates)
        plain = bucketed_query("Bucket", aggregates)
        assert moving.evaluate_centralized(bucketed).multiset_equals(
            plain.evaluate_centralized(bucketed))

    def test_bad_window(self):
        with pytest.raises(QueryError):
            moving_window_query("Bucket", 0, [count_star("n")])

    def test_distributes_correctly(self, events):
        """Band (non-equi) conditions must survive distribution: the
        sub-aggregates of overlapping ranges merge like any other."""
        bucketed = add_time_bucket(events, "t", HOUR)
        query = moving_window_query(
            "Bucket", 3, [count_star("n"), AggregateSpec("avg", "v", "m")])
        reference = query.evaluate_centralized(bucketed)
        engine = SkallaEngine(partition_round_robin(bucketed, 4))
        result = engine.execute(query, NO_OPTIMIZATIONS)
        assert result.relation.multiset_equals(reference)
        # Theorem 2 for a band condition: traffic scales with the
        # buckets (one round over 4 sites), never with the 600 events
        buckets = reference.num_rows
        assert result.metrics.rows_shipped <= 2 * 4 * buckets + 4 * buckets

    def test_distributes_with_independent_reduction(self, events):
        from repro.distributed.plan import OptimizationFlags
        bucketed = add_time_bucket(events, "t", HOUR)
        query = moving_window_query("Bucket", 2, [count_star("n")])
        reference = query.evaluate_centralized(bucketed)
        engine = SkallaEngine(partition_round_robin(bucketed, 3))
        result = engine.execute(
            query, OptimizationFlags(group_reduction_independent=True))
        assert result.relation.multiset_equals(reference)
