"""Unit tests for the columnar Relation container."""

import numpy as np
import pytest

from repro.errors import SchemaError
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, Schema
from repro.relational.types import DataType


class TestConstruction:
    def test_from_rows(self, simple_schema):
        relation = Relation.from_rows(simple_schema, [(1, 2.0, "x")])
        assert relation.num_rows == 1
        assert relation.row(0) == (1, 2.0, "x")

    def test_from_rows_empty(self, simple_schema):
        relation = Relation.from_rows(simple_schema, [])
        assert relation.num_rows == 0

    def test_from_columns_coerces(self, simple_schema):
        relation = Relation.from_columns(simple_schema, {
            "k": [1, 2], "v": [1, 2], "name": ["a", "b"]})
        assert relation.column("v").dtype == np.float64

    def test_from_dicts_inferred_schema(self):
        relation = Relation.from_dicts([
            {"x": 1, "y": "hello"}, {"x": 2, "y": "world"}])
        assert relation.schema.names == ("x", "y")
        assert relation.schema.dtype("y") is DataType.STRING

    def test_from_dicts_empty_without_schema_raises(self):
        with pytest.raises(SchemaError):
            Relation.from_dicts([])

    def test_ragged_columns_rejected(self, simple_schema):
        with pytest.raises(SchemaError, match="ragged"):
            Relation(simple_schema, {
                "k": np.array([1, 2]), "v": np.array([1.0]),
                "name": np.array(["a", "b"], dtype=object)})

    def test_wrong_column_set_rejected(self, simple_schema):
        with pytest.raises(SchemaError):
            Relation(simple_schema, {"k": np.array([1])})

    def test_empty_constructor(self, simple_schema):
        assert Relation.empty(simple_schema).num_rows == 0


class TestAccess:
    def test_unknown_column_raises(self, simple_relation):
        with pytest.raises(SchemaError):
            simple_relation.column("nope")

    def test_iter_rows_round_trips(self, simple_relation):
        rows = list(simple_relation.iter_rows())
        rebuilt = Relation.from_rows(simple_relation.schema, rows)
        assert rebuilt.multiset_equals(simple_relation)

    def test_rows_are_python_scalars(self, simple_relation):
        row = simple_relation.row(0)
        assert isinstance(row[0], int)
        assert isinstance(row[1], float)
        assert isinstance(row[2], str)

    def test_to_dicts(self, simple_relation):
        dicts = simple_relation.to_dicts()
        assert dicts[0] == {"k": 1, "v": 1.5, "name": "a"}

    def test_wire_bytes(self, simple_relation):
        per_row = simple_relation.schema.row_wire_width()
        assert simple_relation.wire_bytes() == 6 * per_row


class TestOperations:
    def test_project(self, simple_relation):
        projected = simple_relation.project(["name", "k"])
        assert projected.schema.names == ("name", "k")
        assert projected.row(0) == ("a", 1)

    def test_rename(self, simple_relation):
        renamed = simple_relation.rename({"k": "key"})
        assert "key" in renamed.schema
        assert renamed.column("key").tolist() == \
            simple_relation.column("k").tolist()

    def test_filter(self, simple_relation):
        mask = simple_relation.column("k") == 1
        filtered = simple_relation.filter(mask)
        assert filtered.num_rows == 3
        assert set(filtered.column("name")) == {"a", "b", "c"}

    def test_filter_wrong_length_rejected(self, simple_relation):
        with pytest.raises(SchemaError):
            simple_relation.filter(np.array([True]))

    def test_take_with_repetition(self, simple_relation):
        taken = simple_relation.take(np.array([0, 0, 2]))
        assert taken.num_rows == 3
        assert taken.row(0) == taken.row(1)

    def test_head(self, simple_relation):
        assert simple_relation.head(2).num_rows == 2
        assert simple_relation.head(100).num_rows == 6

    def test_union_all_keeps_duplicates(self, simple_relation):
        doubled = simple_relation.union_all(simple_relation)
        assert doubled.num_rows == 12

    def test_union_all_incompatible_rejected(self, simple_relation):
        other = simple_relation.project(["k", "v"])
        with pytest.raises(SchemaError):
            simple_relation.union_all(other)

    def test_concat(self, simple_relation):
        combined = Relation.concat([simple_relation, simple_relation,
                                    simple_relation])
        assert combined.num_rows == 18

    def test_concat_empty_list_rejected(self):
        with pytest.raises(SchemaError):
            Relation.concat([])

    def test_append_columns(self, simple_relation):
        extended = simple_relation.append_columns(
            [Attribute("flag", DataType.BOOL)],
            {"flag": np.ones(6, dtype=bool)})
        assert extended.schema.names[-1] == "flag"
        assert extended.num_rows == 6

    def test_append_columns_wrong_length(self, simple_relation):
        with pytest.raises(SchemaError):
            simple_relation.append_columns(
                [Attribute("flag", DataType.BOOL)],
                {"flag": np.ones(2, dtype=bool)})


class TestDistinctAndSort:
    def test_distinct_full_row(self, simple_relation):
        doubled = simple_relation.union_all(simple_relation)
        assert doubled.distinct().num_rows == 6

    def test_distinct_projection(self, simple_relation):
        keys = simple_relation.distinct(["k"])
        assert sorted(keys.column("k").tolist()) == [1, 2, 3]

    def test_distinct_preserves_first_occurrence_order(self):
        relation = Relation.from_dicts([
            {"x": 2}, {"x": 1}, {"x": 2}, {"x": 3}])
        assert relation.distinct().column("x").tolist() == [2, 1, 3]

    def test_distinct_empty(self, simple_schema):
        empty = Relation.empty(simple_schema)
        assert empty.distinct().num_rows == 0

    def test_distinct_survives_a_key_space_wider_than_int64(self):
        # Five columns of 65,536 distinct values each span 2**80 key
        # combinations.  The pre-index row_group_codes multiplied the
        # cardinalities straight through, so column 0's radix was
        # 2**64 = 0 (mod 2**64): rows differing only in column 0
        # collapsed into one group and distinct() silently dropped one.
        side = 65_536
        diagonal = np.arange(side, dtype=np.int64)
        extra = np.array([1, 0, 0, 0, 0], dtype=np.int64)  # vs row 0: c0
        names = ["c0", "c1", "c2", "c3", "c4"]
        relation = Relation.from_columns(
            Schema([Attribute(name, DataType.INT64) for name in names]),
            {name: np.append(diagonal, extra[position])
             for position, name in enumerate(names)})
        distinct = relation.distinct()
        assert distinct.num_rows == side + 1
        assert distinct.row(side) == (1, 0, 0, 0, 0)
        codes = relation.row_group_codes()
        assert codes.tolist() == list(range(side + 1))

    def test_sort_single_key(self, simple_relation):
        ordered = simple_relation.sort(["v"])
        values = ordered.column("v")
        assert all(values[:-1] <= values[1:])

    def test_sort_multi_key_stable_lexicographic(self, simple_relation):
        ordered = simple_relation.sort(["k", "v"])
        rows = [(row[0], row[1]) for row in ordered.iter_rows()]
        assert rows == sorted(rows)

    def test_sort_descending(self, simple_relation):
        ordered = simple_relation.sort(["v"], ascending=False)
        values = ordered.column("v")
        assert all(values[:-1] >= values[1:])


class TestGrouping:
    def test_group_codes_dense_and_first_appearance(self):
        relation = Relation.from_dicts(
            [{"g": "b"}, {"g": "a"}, {"g": "b"}, {"g": "c"}])
        codes = relation.row_group_codes()
        assert codes.tolist() == [0, 1, 0, 2]

    def test_group_codes_multi_column(self, simple_relation):
        codes = simple_relation.row_group_codes(["k", "name"])
        # rows 0..5 keys: (1,a),(1,b),(2,c),(3,a),(2,a),(1,c)
        assert codes.tolist() == [0, 1, 2, 3, 4, 5]

    def test_group_indices(self, simple_relation):
        groups = simple_relation.group_indices(["k"])
        assert set(groups) == {(1,), (2,), (3,)}
        assert sorted(groups[(1,)].tolist()) == [0, 1, 5]

    def test_group_indices_empty(self, simple_schema):
        assert Relation.empty(simple_schema).group_indices(["k"]) == {}


class TestEquality:
    def test_multiset_equality_ignores_order(self, simple_relation):
        shuffled = simple_relation.take(np.array([5, 4, 3, 2, 1, 0]))
        assert simple_relation.multiset_equals(shuffled)

    def test_multiset_counts_duplicates(self, simple_relation):
        extra = simple_relation.union_all(simple_relation.head(1))
        assert not simple_relation.multiset_equals(extra)

    def test_float_tolerance(self):
        first = Relation.from_dicts([{"x": 0.1 + 0.2}])
        second = Relation.from_dicts([{"x": 0.3}])
        assert first.multiset_equals(second)

    def test_pretty_renders(self, simple_relation):
        text = simple_relation.pretty(limit=2)
        assert "k" in text and "..." in text
