"""Unit tests for the decomposable aggregate framework."""

import numpy as np
import pytest

from repro.errors import AggregateError, SchemaError
from repro.relational.aggregates import (
    AggregateSpec, aggregate_function, count_star, merge_grouped,
    primitive_empty, primitive_grouped, primitive_merge, primitive_reduce,
    register_function, validate_aggregate_list)
from repro.relational.aggregates import AggregateFunction
from repro.relational.schema import Schema
from repro.relational.types import DataType
from tests.seeding import active_seed

DETAIL = Schema.of(("x", DataType.INT64), ("y", DataType.FLOAT64),
                   ("s", DataType.STRING))


class TestPrimitives:
    def test_reduce(self):
        values = np.array([3, 1, 2])
        assert primitive_reduce("count", values) == 3
        assert primitive_reduce("sum", values) == 6
        assert primitive_reduce("min", values) == 1.0
        assert primitive_reduce("max", values) == 3.0
        assert primitive_reduce("sumsq", values) == 14.0

    def test_empty_values(self):
        empty = np.empty(0)
        assert primitive_reduce("sum", empty) == 0
        assert np.isnan(primitive_reduce("min", empty))
        assert primitive_empty("count") == 0

    def test_merge(self):
        assert primitive_merge("sum", 3, 4) == 7
        assert primitive_merge("min", 3.0, np.nan) == 3.0
        assert primitive_merge("max", np.nan, 5.0) == 5.0

    def test_grouped_count(self):
        codes = np.array([0, 1, 0, 2, 0])
        assert primitive_grouped("count", codes, None, 4).tolist() == \
            [3, 1, 1, 0]

    def test_grouped_sum_int_stays_int(self):
        codes = np.array([0, 0, 1])
        values = np.array([1, 2, 3], dtype=np.int64)
        result = primitive_grouped("sum", codes, values, 2)
        assert result.dtype == np.int64
        assert result.tolist() == [3, 3]

    def test_grouped_min_max_with_empty_group(self):
        codes = np.array([0, 0, 2])
        values = np.array([5.0, 3.0, 7.0])
        mins = primitive_grouped("min", codes, values, 3)
        assert mins[0] == 3.0 and np.isnan(mins[1]) and mins[2] == 7.0

    def test_grouped_requires_values(self):
        with pytest.raises(AggregateError):
            primitive_grouped("sum", np.array([0]), None, 1)

    def test_merge_grouped_counts(self):
        codes = np.array([0, 0, 1])
        states = np.array([2, 3, 4], dtype=np.int64)
        merged = merge_grouped("count", codes, states, 3)
        assert merged.tolist() == [5, 4, 0]
        assert merged.dtype == np.int64

    def test_merge_grouped_min_ignores_nan(self):
        codes = np.array([0, 0])
        states = np.array([np.nan, 2.0])
        merged = merge_grouped("min", codes, states, 1)
        assert merged[0] == 2.0

    @pytest.mark.parametrize("reduce", [primitive_grouped, merge_grouped],
                             ids=["primitive", "merge"])
    def test_grouped_int_sum_exact_past_float_precision(self, reduce):
        codes = np.array([0, 0, 0, 1, 1])
        values = np.array([2 ** 53, 1, 1, -2 ** 53, -1], dtype=np.int64)
        result = reduce("sum", codes, values, 3)
        assert result.dtype == np.int64
        assert result.tolist() == [2 ** 53 + 2, -2 ** 53 - 1, 0]

    @pytest.mark.parametrize("magnitude", [2 ** 51 - 1, 2 ** 51],
                             ids=["float_path", "int_path"])
    def test_grouped_int_sum_exact_either_side_of_guard(self, magnitude):
        """max|v| · n just below 2^53 keeps the float bincount, at 2^53
        the int64 one; both are exact."""
        codes = np.array([0, 0, 1, 1])
        values = np.array([magnitude, magnitude - 1, -magnitude, 3],
                          dtype=np.int64)
        expected = [2 * magnitude - 1, 3 - magnitude]
        assert primitive_grouped("sum", codes, values, 2).tolist() == \
            expected
        assert merge_grouped("sum", codes, values, 2).tolist() == expected

    def test_merge_grouped_int_sum_cancels_wide_states(self):
        codes = np.array([0, 0, 0])
        states = np.array([2 ** 62, 3, -2 ** 62], dtype=np.int64)
        assert merge_grouped("sum", codes, states, 1).tolist() == [3]

    def test_merge_grouped_int_sum_without_states(self):
        merged = merge_grouped("sum", np.array([], dtype=np.int64),
                               np.array([], dtype=np.int64), 2)
        assert merged.dtype == np.int64
        assert merged.tolist() == [0, 0]

    def test_grouped_sum_float_stays_float(self):
        codes = np.array([0, 1, 0])
        values = np.array([0.5, 2.0, 0.25])
        result = primitive_grouped("sum", codes, values, 2)
        assert result.dtype == np.float64
        assert result.tolist() == [0.75, 2.0]


class TestFunctions:
    def test_lookup_case_insensitive(self):
        assert aggregate_function("AVG").name == "avg"

    def test_unknown_function(self):
        with pytest.raises(AggregateError, match="unknown aggregate"):
            aggregate_function("mode")

    @pytest.mark.parametrize("func,expected", [
        ("count", 4), ("sum", 10), ("min", 1.0), ("max", 4.0),
        ("avg", 2.5), ("var", 1.25),
    ])
    def test_compute_matches_numpy(self, func, expected):
        values = np.array([1.0, 2.0, 3.0, 4.0])
        result = aggregate_function(func).compute(values, len(values))
        assert result == pytest.approx(expected)

    def test_stddev(self):
        values = np.array([1.0, 2.0, 3.0, 4.0])
        result = aggregate_function("stddev").compute(values, 4)
        assert result == pytest.approx(np.sqrt(1.25))

    def test_median_holistic_compute(self):
        values = np.array([1.0, 9.0, 5.0])
        assert aggregate_function("median").compute(values, 3) == 5.0
        assert np.isnan(aggregate_function("median").compute(None, 0))

    def test_count_distinct(self):
        values = np.array([1, 1, 2, 3, 3])
        assert aggregate_function("count_distinct").compute(values, 5) == 3

    def test_holistic_state_primitives_raise(self):
        with pytest.raises(AggregateError, match="holistic"):
            aggregate_function("median").state_primitives()
        with pytest.raises(AggregateError, match="holistic"):
            aggregate_function("count_distinct").state_primitives()

    def test_avg_finalize_empty_group_is_nan(self):
        function = aggregate_function("avg")
        result = function.finalize({"sum": np.array([0.0]),
                                    "count": np.array([0])})
        assert np.isnan(result[0])

    def test_register_custom_function(self):
        class First(AggregateFunction):
            name = "test_first"

            def output_dtype(self, input_dtype):
                return DataType.FLOAT64

            def state_primitives(self):
                return ("min",)

            def finalize(self, states):
                return states["min"]

        register_function(First())
        assert aggregate_function("test_first").name == "test_first"

    def test_register_unnamed_rejected(self):
        class Nameless(AggregateFunction):
            name = ""
        with pytest.raises(AggregateError):
            register_function(Nameless())


class TestSpecs:
    def test_count_star(self):
        spec = count_star("n")
        assert spec.column is None
        assert spec.output_attribute(DETAIL).dtype is DataType.INT64

    def test_column_required(self):
        with pytest.raises(AggregateError):
            AggregateSpec("sum", None, "s")

    def test_sum_preserves_input_dtype(self):
        int_spec = AggregateSpec("sum", "x", "sx")
        float_spec = AggregateSpec("sum", "y", "sy")
        assert int_spec.output_attribute(DETAIL).dtype is DataType.INT64
        assert float_spec.output_attribute(DETAIL).dtype is DataType.FLOAT64

    def test_sum_on_string_rejected(self):
        spec = AggregateSpec("sum", "s", "bad")
        with pytest.raises(AggregateError):
            spec.output_attribute(DETAIL)

    def test_state_fields_naming(self):
        spec = AggregateSpec("avg", "x", "a1")
        names = [field.name for field in spec.state_fields(DETAIL)]
        assert names == ["a1__sum", "a1__count"]

    def test_var_has_three_states(self):
        spec = AggregateSpec("var", "y", "v1")
        assert len(spec.state_fields(DETAIL)) == 3

    def test_validate_alias_collision(self):
        with pytest.raises(SchemaError, match="collides"):
            validate_aggregate_list(
                [count_star("x")], DETAIL, existing_names=["x"])

    def test_validate_duplicate_alias(self):
        with pytest.raises(SchemaError):
            validate_aggregate_list(
                [count_star("n"), count_star("n")], DETAIL, [])

    def test_validate_missing_column(self):
        with pytest.raises(SchemaError, match="not in the detail"):
            validate_aggregate_list(
                [AggregateSpec("sum", "zz", "s")], DETAIL, [])


class TestNullSemantics:
    """NaN-as-NULL consistency: every ratio-style aggregate finalizes an
    empty group to NaN (rendered ``NULL``); counting aggregates give 0,
    matching SQL's COUNT-over-empty = 0 / AVG-over-empty = NULL split."""

    def test_var_finalize_empty_group_is_nan(self):
        function = aggregate_function("var")
        result = function.finalize({"count": np.array([0]),
                                    "sum": np.array([0.0]),
                                    "m2": np.array([0.0])})
        assert np.isnan(result[0])

    def test_stddev_finalize_empty_group_is_nan(self):
        function = aggregate_function("stddev")
        result = function.finalize({"count": np.array([0]),
                                    "sum": np.array([0.0]),
                                    "m2": np.array([0.0])})
        assert np.isnan(result[0])

    def test_approx_median_empty_group_is_nan(self):
        from repro.relational.aggregates import primitive_empty
        function = aggregate_function("approx_median")
        key = function.state_primitives()[0]
        empty = np.array([primitive_empty(key)], dtype=object)
        assert np.isnan(function.finalize({key: empty})[0])

    def test_approx_count_distinct_empty_group_is_zero(self):
        from repro.relational.aggregates import primitive_empty
        function = aggregate_function("approx_count_distinct")
        key = function.state_primitives()[0]
        empty = np.array([primitive_empty(key)], dtype=object)
        assert function.finalize({key: empty})[0] == 0

    def test_nan_renders_as_null(self):
        from repro.relational.relation import Relation
        relation = Relation.from_dicts([{"g": 1, "a": float("nan")}])
        rendered = relation.pretty()
        assert "NULL" in rendered and "nan" not in rendered

    def test_stddev_clamps_round_off_negatives_only(self):
        function = aggregate_function("stddev")
        states = {"count": np.array([4, 4]),
                  "sum": np.array([0.0, 0.0]),
                  "m2": np.array([-1e-12, -1e-3])}
        result = function.finalize(states)
        assert result[0] == 0.0          # round-off noise -> clamped
        assert np.isnan(result[1])       # genuinely negative -> surfaced


class TestVarianceStability:
    """Regression for the catastrophic-cancellation VAR/STDDEV bug.

    Data ``1e9 + U(0,1)`` has true variance ~1/12; the old
    ``sumsq/n − mean²`` finalize subtracts two ~1e18 numbers whose
    difference is ~0.08 — beyond float64's ~15.9 significant digits —
    so it returned garbage (often negative, masked to 0 by the old
    ``sqrt(max(·, 0))``).  The shifted/m2 formulation agrees with
    ``np.var`` to at least 6 significant digits across 1, 2, and 8
    partitions.
    """

    OFFSET = 1.0e9

    def _values(self, n=4096):
        rng = np.random.default_rng(active_seed())
        return self.OFFSET + rng.random(n)

    @staticmethod
    def _old_formula_partitioned(values, num_parts):
        """The pre-fix pipeline: per-partition (count, sum, sumsq)
        states, additive merge, ``sumsq/n − mean²`` finalize."""
        parts = np.array_split(values, num_parts)
        count = float(sum(len(part) for part in parts))
        total = float(sum(part.sum() for part in parts))
        sumsq = float(sum(np.square(part).sum() for part in parts))
        mean = total / count
        return sumsq / count - mean * mean

    def _new_formula_partitioned(self, values, num_parts):
        """The fixed pipeline, exercised through the real machinery:
        per-partition grouped states + merge_spec_states_grouped."""
        from repro.relational.aggregates import (
            merge_spec_states_grouped, primitive_grouped)
        from repro.relational.schema import Schema
        from repro.relational.types import DataType
        schema = Schema.of(("y", DataType.FLOAT64))
        spec = AggregateSpec("var", "y", "v")
        parts = np.array_split(values, num_parts)
        columns = {field.name: np.array(
                       [primitive_grouped(field.primitive,
                                          np.zeros(len(part), dtype=np.int64),
                                          part, 1)[0]
                        for part in parts])
                   for field in spec.state_fields(schema)}
        codes = np.zeros(num_parts, dtype=np.int64)
        merged = merge_spec_states_grouped(spec, schema, codes, columns, 1)
        return float(spec.function.finalize(
            {field.primitive: merged[field.name]
             for field in spec.state_fields(schema)})[0])

    @pytest.mark.parametrize("num_parts", [1, 2, 8])
    def test_distributed_var_matches_numpy(self, num_parts):
        values = self._values()
        expected = float(np.var(values))
        result = self._new_formula_partitioned(values, num_parts)
        assert abs(result - expected) / expected < 1e-6  # >= 6 sig. digits

    @pytest.mark.parametrize("num_parts", [1, 2, 8])
    def test_old_formula_fails_on_offset_data(self, num_parts):
        """The discriminator: the naive formulation must NOT meet the
        6-digit bar on this data — proving the test would have caught
        the bug."""
        values = self._values()
        expected = float(np.var(values))
        naive = self._old_formula_partitioned(values, num_parts)
        assert abs(naive - expected) / expected > 1e-6

    def test_distributed_stddev_matches_numpy(self):
        from repro.relational.aggregates import (
            merge_spec_states_grouped, primitive_grouped)
        values = self._values()
        var = self._new_formula_partitioned(values, 8)
        assert abs(np.sqrt(var) - np.std(values)) / np.std(values) < 1e-6


class TestApproxSpecs:
    def test_state_field_names_carry_parameters(self):
        spec = AggregateSpec("approx_count_distinct", "x", "a",
                             precision=10)
        assert [f.name for f in spec.state_fields(DETAIL)] == ["a__hll10"]
        spec = AggregateSpec("approx_percentile", "y", "p",
                             param=0.9, precision=64)
        assert [f.name for f in spec.state_fields(DETAIL)] == ["p__kll64"]

    def test_state_dtype_is_bytes(self):
        spec = AggregateSpec("approx_median", "y", "m")
        field = spec.state_fields(DETAIL)[0]
        assert field.dtype is DataType.BYTES

    def test_approx_aggregates_are_decomposable(self):
        for func in ("approx_count_distinct", "approx_median",
                     "approx_percentile"):
            assert aggregate_function(func).decomposable

    def test_percentile_param_validation(self):
        with pytest.raises(AggregateError, match="fraction"):
            AggregateSpec("approx_percentile", "y", "p", param=1.5)
        with pytest.raises(AggregateError, match="k must be"):
            AggregateSpec("approx_percentile", "y", "p", precision=4)

    def test_hll_precision_validation(self):
        with pytest.raises(AggregateError):
            AggregateSpec("approx_count_distinct", "x", "a", precision=3)
        with pytest.raises(AggregateError):
            AggregateSpec("approx_count_distinct", "x", "a", precision=19)

    def test_median_rejects_param(self):
        with pytest.raises(AggregateError, match="no parameter"):
            AggregateSpec("approx_median", "y", "m", param=0.9)

    def test_exact_functions_reject_param(self):
        with pytest.raises(AggregateError, match="no parameter"):
            AggregateSpec("sum", "y", "s", param=2.0)
