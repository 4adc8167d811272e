"""Property-based tests for the extension engines (hypothesis).

* heterogeneous chains are partition-invariant;
* pivot∘unpivot is the identity on complete wide tables.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from tests.seeding import seeded, active_seed

from repro.relational.aggregates import AggregateSpec, count_star
from repro.relational.expressions import b, r
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.relational.types import DataType
from repro.core.gmdj import Gmdj
from repro.distributed.heterogeneous import (
    HeterogeneousQuery, HeterogeneousRound, HeterogeneousWarehouse)

DETAIL_SCHEMA = Schema.of(("g", DataType.INT64), ("v", DataType.FLOAT64))


@st.composite
def relations(draw, min_rows=1, max_rows=80):
    rows = draw(st.lists(
        st.tuples(st.integers(0, 5),
                  st.floats(-50, 50, allow_nan=False, width=32)),
        min_size=min_rows, max_size=max_rows))
    return Relation.from_rows(DETAIL_SCHEMA, rows)


class TestHeterogeneousProperties:
    @seeded
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_partition_invariance(self, data):
        first_table = data.draw(relations())
        second_table = data.draw(relations())
        num_sites = data.draw(st.integers(1, 4))
        tables = {"A": first_table, "B": second_table}
        catalogs = {}
        for site in range(num_sites):
            catalogs[site] = {
                name: relation.filter(
                    np.arange(relation.num_rows) % num_sites == site)
                for name, relation in tables.items()}
        query = HeterogeneousQuery(
            base_table="A", base_attrs=("g",),
            rounds=(
                HeterogeneousRound(
                    Gmdj.single([count_star("na"),
                                 AggregateSpec("sum", "v", "sa")],
                                r.g == b.g), "A"),
                HeterogeneousRound(
                    Gmdj.single([count_star("nb")],
                                (r.g == b.g) & (r.v >= b.sa / (b.na + 1))),
                    "B"),
            ))
        reference = query.evaluate_centralized(tables)
        engine = HeterogeneousWarehouse(catalogs)
        for reduction in (False, True):
            result, __ = engine.execute(query,
                                        independent_reduction=reduction)
            assert result.multiset_equals(reference)


class TestPivotProperty:
    @seeded
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_unpivot_then_pivot_identity(self, data):
        num_keys = data.draw(st.integers(1, 6))
        values_a = data.draw(st.lists(
            st.floats(-10, 10, allow_nan=False, width=32),
            min_size=num_keys, max_size=num_keys))
        values_b = data.draw(st.lists(
            st.floats(-10, 10, allow_nan=False, width=32),
            min_size=num_keys, max_size=num_keys))
        wide = Relation.from_dicts([
            {"k": index, "a": float(values_a[index]),
             "b": float(values_b[index])}
            for index in range(num_keys)])
        from repro.relational.operators import pivot, unpivot
        long_form = unpivot(wide, ["k"], ["a", "b"])
        back = pivot(long_form, "k", "attribute", "value")
        assert back.multiset_equals(wide)
