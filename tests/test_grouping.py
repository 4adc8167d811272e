"""The group index against the sort-based grouping it replaced.

``repro.relational.factorize`` builds first-appearance group codes,
first rows, the stable CSR order and foreign-key lookups without a
comparison sort over the rows.  Every property here pins one of those
products to the reference it retired — ``np.unique`` re-densification
per column plus first-appearance renumbering (the pre-index
``Relation.row_group_codes``), and ``np.argsort(codes, kind="stable")``
— over every column type, NaN / -0.0 / >= 2**53 keys, empty and one-row
relations, and both sides of the dense/sparse rule.  BYTES keys
(trailing/embedded NULs, non-ASCII) are pinned by hand-written
expectations and through the engine, since the retired reference shared
their ``astype(str)`` bug.  The cache tests watch entry lifetime across
``engine.append``.
"""

import contextlib
import gc
import re
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.relational import factorize as grouping
from repro.relational.aggregates import count_star
from repro.relational.expressions import b, r
from repro.relational.factorize import (
    column_promotion, convert, group_index, group_runs, pair_promotion,
    stable_order)
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, Schema
from repro.relational.types import DataType
from repro.core.builder import QueryBuilder, agg
from repro.core.evaluator import match_codes
from repro.core.expression_tree import ProjectionBase
from repro.data.tpch import (
    TpcrConfig, custkey_ranges, customer_name, generate_tpcr,
    nation_assignment)
from repro.distributed.coordinator import Coordinator
from repro.distributed.engine import SkallaEngine
from repro.distributed.partition import (
    RangeConstraint, partition_by_values, partition_round_robin)
from repro.distributed.plan import NO_OPTIMIZATIONS, OptimizationFlags
from repro.distributed.site import SkallaSite
from repro.warehouse import Warehouse


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

POOLS = {
    DataType.INT64: [0, 1, -1, 7, 2**53, 2**53 + 1, 2**62, -2**63],
    DataType.FLOAT64: [0.0, -0.0, float("nan"), 1.5, -1.5, float("inf"),
                       float("-inf"), 1e300],
    DataType.BOOL: [True, False],
    DataType.STRING: ["", "a", "b", "ab", "A", "é", "a b"],
    DataType.BYTES: [b"", b"a", b"b", b"ab", b"A", b"a\x00", b"a\x00b",
                     b"\xff"],
}


@st.composite
def relations(draw, min_rows=0, max_rows=40, max_columns=3):
    dtypes = draw(st.lists(st.sampled_from(list(POOLS)), min_size=1,
                           max_size=max_columns))
    num_rows = draw(st.integers(min_rows, max_rows))
    schema = Schema([Attribute(f"c{i}", dtype)
                     for i, dtype in enumerate(dtypes)])
    columns = {
        f"c{i}": draw(st.lists(st.sampled_from(POOLS[dtype]),
                               min_size=num_rows, max_size=num_rows))
        for i, dtype in enumerate(dtypes)}
    return Relation.from_columns(schema, {
        name: (np.array(values, dtype=schema[name].dtype.numpy_dtype)
               if values else
               np.empty(0, dtype=schema[name].dtype.numpy_dtype))
        for name, values in columns.items()})


@contextlib.contextmanager
def dense_limit(limit):
    """Pin the dense/sparse rule: ``0`` sends every code space through
    the sparse (``np.unique``) fallback, ``None`` keeps the shipped rule."""
    if limit is None:
        yield
        return
    original = grouping._dense_limit
    grouping._dense_limit = lambda num_rows: limit
    try:
        yield
    finally:
        grouping._dense_limit = original


LIMITS = pytest.mark.parametrize("limit", [None, 0], ids=["dense", "sparse"])


# ---------------------------------------------------------------------------
# References: the code this PR retired
# ---------------------------------------------------------------------------

def reference_codes(relation, names=None):
    """The pre-index ``row_group_codes``: per-column ``np.unique``, a
    mixed-radix product re-densified at every step, renumbered by first
    appearance through two more sorts."""
    names = relation.schema.names if names is None else names
    combined = None
    for name in names:
        array = relation.column(name)
        __, codes = np.unique(convert(array, column_promotion(array)),
                              return_inverse=True)
        if combined is None:
            combined = codes.astype(np.int64)
            continue
        combined = combined * (int(codes.max()) + 1) + codes
        __, combined = np.unique(combined, return_inverse=True)
    __, first_index, inverse = np.unique(
        combined, return_index=True, return_inverse=True)
    order = np.argsort(first_index, kind="stable")
    remap = np.empty_like(order)
    remap[order] = np.arange(len(order))
    return remap[inverse]


def same_key(left, right, promotion):
    if promotion == "float":
        return left == right or (left != left and right != right)
    return left == right


def reference_match(base, base_key, detail, detail_key):
    """Brute-force θ_K: base row -> any detail row with an equal key."""
    pairs = []
    for base_name, detail_name in zip(base_key, detail_key):
        promotion = pair_promotion(base.column(base_name),
                                   detail.column(detail_name))
        pairs.append((convert(base.column(base_name), promotion),
                      convert(detail.column(detail_name), promotion),
                      promotion))
    matches = []
    for i in range(base.num_rows):
        found = -1
        for j in range(detail.num_rows):
            if all(same_key(left[i], right[j], promotion)
                   for left, right, promotion in pairs):
                found = j
                break
        matches.append(found)
    return matches


def bytes_column(values):
    """An object column of ``bytes`` (``np.array`` would make it ``S``
    and strip the trailing NULs under test)."""
    column = np.empty(len(values), dtype=object)
    column[:] = values
    return column


def detached(relation):
    """Same rows in fresh arrays: no cache entry, no provenance."""
    return Relation(relation.schema, {
        name: relation.column(name).copy()
        for name in relation.schema.names})


def assert_same_column(left, right):
    assert left.dtype == right.dtype
    if left.dtype == object:
        assert left.tolist() == right.tolist()
    else:
        # bit patterns: -0.0 vs 0.0 and the NaN payload survive
        assert left.tobytes() == right.tobytes()


# ---------------------------------------------------------------------------
# Codes, first rows, distinct
# ---------------------------------------------------------------------------

class TestGroupIndex:
    @LIMITS
    @given(relation=relations(min_rows=1))
    @settings(max_examples=150)
    def test_codes_equal_the_sort_based_reference(self, relation, limit):
        with dense_limit(limit):
            index = relation.group_index()
        expected = reference_codes(relation)
        assert index.codes.dtype == np.int64
        assert index.codes.tolist() == expected.tolist()
        assert index.num_groups == int(expected.max()) + 1
        # first[g] is the first row carrying code g, ascending.
        __, first = np.unique(expected, return_index=True)
        assert index.first.tolist() == first.tolist()

    @LIMITS
    @given(relation=relations(min_rows=1), data=st.data())
    @settings(max_examples=100)
    def test_key_subsets(self, relation, data, limit):
        names = data.draw(st.lists(
            st.sampled_from(relation.schema.names), min_size=1,
            max_size=3, unique=True))
        with dense_limit(limit):
            codes = relation.row_group_codes(names)
        assert codes.tolist() == reference_codes(relation, names).tolist()

    @LIMITS
    @given(relation=relations())
    @settings(max_examples=100)
    def test_distinct_keeps_first_occurrences_in_order(self, relation,
                                                       limit):
        with dense_limit(limit):
            distinct = relation.distinct()
        if relation.num_rows == 0:
            assert distinct.num_rows == 0
            return
        __, first = np.unique(reference_codes(relation), return_index=True)
        expected = relation.take(np.sort(first))
        assert distinct.schema == relation.schema
        for name in relation.schema.names:
            assert_same_column(distinct.column(name), expected.column(name))

    @LIMITS
    @given(relation=relations(min_rows=1), data=st.data())
    @settings(max_examples=100)
    def test_masked_distinct_is_select_then_distinct(self, relation, data,
                                                     limit):
        mask = np.array(data.draw(st.lists(
            st.booleans(), min_size=relation.num_rows,
            max_size=relation.num_rows)), dtype=bool)
        with dense_limit(limit):
            masked = relation.distinct(mask=mask)
            expected = relation.filter(mask).distinct()
            names = relation.schema.names
            short = match_codes(masked, names, relation, names)
            full = match_codes(detached(masked), names, relation, names)
        assert masked.num_rows == expected.num_rows
        for name in names:
            assert_same_column(masked.column(name), expected.column(name))
        # ... and it still knows which detail rows it was taken from
        assert short[0].tolist() == full[0].tolist()

    def test_empty_relation(self):
        schema = Schema([Attribute("k", DataType.INT64),
                         Attribute("s", DataType.STRING)])
        empty = Relation.empty(schema)
        index = empty.group_index()
        assert index.num_groups == 0
        assert index.codes.shape == (0,) and index.codes.dtype == np.int64
        assert index.first.shape == (0,)
        assert empty.row_group_codes().shape == (0,)
        assert empty.distinct().num_rows == 0
        assert empty.group_indices(["k"]) == {}
        order, starts, sizes = group_runs(index.codes, 0)
        assert len(order) == len(starts) == len(sizes) == 0

    @pytest.mark.parametrize("dtype", list(POOLS))
    def test_one_row(self, dtype):
        relation = Relation.from_columns(
            Schema([Attribute("k", dtype)]),
            {"k": np.array(POOLS[dtype][:1], dtype=dtype.numpy_dtype)})
        index = relation.group_index()
        assert index.codes.tolist() == [0]
        assert index.first.tolist() == [0]
        assert relation.distinct().num_rows == 1

    def test_nan_and_signed_zero_group_like_np_unique(self):
        relation = Relation.from_columns(
            Schema([Attribute("x", DataType.FLOAT64)]),
            {"x": np.array([np.nan, 0.0, -0.0, np.nan, 1.0])})
        assert relation.row_group_codes().tolist() == [0, 1, 1, 0, 2]

    #: every pair differs, though ``astype(str)`` reads the first three
    #: as "a" and cannot decode the last two at all.
    BYTES_KEYS = [b"a", b"a\x00", b"a\x00\x00", b"a\x00b", b"",
                  b"\x00", b"\xff", b"\xc3\xa9"]

    @staticmethod
    def bytes_relation(values):
        return Relation.from_columns(
            Schema([Attribute("k", DataType.BYTES)]),
            {"k": bytes_column(values)})

    def test_bytes_group_on_their_raw_values(self):
        values = self.BYTES_KEYS + self.BYTES_KEYS[::-1]
        relation = self.bytes_relation(values)
        index = relation.group_index()
        assert index.num_groups == len(self.BYTES_KEYS)
        assert index.codes.tolist() == [
            self.BYTES_KEYS.index(value) for value in values]
        assert relation.distinct(["k"]).column("k").tolist() \
            == self.BYTES_KEYS
        # the ISSUE's one-liner: a trailing NUL is a different key
        assert self.bytes_relation(
            [b"a", b"a\x00", b"a"]).distinct(["k"]).num_rows == 2

    def test_bytes_keys_match_on_their_raw_values(self):
        detail = self.bytes_relation(self.BYTES_KEYS)
        probes = [b"a\x00", b"\xff", b"", b"a", b"missing", b"a\x00\x00\x00"]
        base_codes, detail_codes, num_groups = match_codes(
            self.bytes_relation(probes), ["k"], detail, ["k"])
        assert num_groups == len(self.BYTES_KEYS)
        assert detail_codes.tolist() == list(range(len(self.BYTES_KEYS)))
        assert base_codes.tolist() == [
            self.BYTES_KEYS.index(probe) if probe in self.BYTES_KEYS else -1
            for probe in probes]

    def test_large_integers_stay_distinct(self):
        relation = Relation.from_columns(
            Schema([Attribute("k", DataType.INT64)]),
            {"k": np.array([2**53, 2**53 + 1, 2**53], dtype=np.int64)})
        assert relation.row_group_codes().tolist() == [0, 1, 0]

    def test_compaction_paths_on_a_wide_key(self):
        """Cardinalities whose product leaves the dense range: 40 x 40
        fits a table, the third column forces a presence-table
        compaction, the fourth a sparse one — all against the
        reference."""
        rng = np.random.default_rng(5)
        num_rows = 300
        columns = {
            "a": rng.integers(0, 40, num_rows),
            "b": rng.integers(0, 40, num_rows),
            "c": rng.integers(0, 10, num_rows),
            "d": rng.integers(0, 250, num_rows),
            "e": rng.integers(0, 250, num_rows)}
        relation = Relation.from_columns(
            Schema([Attribute(name, DataType.INT64) for name in columns]),
            columns)
        index = relation.group_index()
        assert any(remap is not None and remap.keys is None
                   for remap in index._remaps), "no dense compaction"
        assert any(remap is not None and remap.keys is not None
                   for remap in index._remaps), "no sparse compaction"
        assert index.codes.tolist() == reference_codes(relation).tolist()

    def test_cached_products_are_read_only(self):
        relation = Relation.from_dicts([{"k": i % 3} for i in range(9)])
        index = relation.group_index()
        with pytest.raises(ValueError):
            index.codes[0] = 5
        order, __, ___ = group_runs(index.codes, index.num_groups)
        with pytest.raises(ValueError):
            order[0] = 5


# ---------------------------------------------------------------------------
# Stable order
# ---------------------------------------------------------------------------

class TestStableOrder:
    @given(st.data())
    @settings(max_examples=150)
    def test_radix_order_is_the_stable_argsort(self, data):
        # bounds across one, two and three 16-bit digits
        bound = data.draw(st.sampled_from(
            [1, 2, 7, 65_535, 65_536, 65_537, 1 << 20, (1 << 32) + 5]))
        values = data.draw(st.lists(
            st.one_of(st.integers(0, bound - 1),
                      st.sampled_from([0, bound - 1, (bound - 1) // 2])),
            max_size=60))
        codes = np.array(values, dtype=np.int64)
        order = stable_order(codes, bound)
        assert order.dtype == np.int64
        assert order.tolist() == np.argsort(codes, kind="stable").tolist()

    def test_two_digit_order_on_a_long_array(self):
        rng = np.random.default_rng(3)
        codes = rng.integers(0, 200_000, 50_000).astype(np.int64)
        assert np.array_equal(stable_order(codes, 200_000),
                              np.argsort(codes, kind="stable"))

    @LIMITS
    @given(relation=relations(min_rows=1))
    @settings(max_examples=100)
    def test_csr_layout(self, relation, limit):
        with dense_limit(limit):
            index = relation.group_index()
        order, starts, sizes = group_runs(index.codes, index.num_groups)
        assert order.tolist() == np.argsort(
            index.codes, kind="stable").tolist()
        assert sizes.tolist() == np.bincount(index.codes).tolist()
        assert starts.tolist() == (np.cumsum(sizes) - sizes).tolist()
        for code in range(index.num_groups):
            run = order[starts[code]:starts[code] + sizes[code]]
            assert run.tolist() == np.flatnonzero(
                index.codes == code).tolist()

    def test_group_indices_follow_first_appearance(self):
        relation = Relation.from_dicts(
            [{"k": k, "v": i} for i, k in enumerate("babcab")])
        groups = relation.group_indices(["k"])
        assert list(groups) == [("b",), ("a",), ("c",)]
        assert [rows.tolist() for rows in groups.values()] == [
            [0, 2, 5], [1, 4], [3]]


# ---------------------------------------------------------------------------
# Joins: foreign keys through the index, and the identity short-circuit
# ---------------------------------------------------------------------------

class TestMatchCodes:
    @LIMITS
    @given(detail=relations(min_rows=1, max_rows=25), data=st.data())
    @settings(max_examples=120)
    def test_foreign_keys_against_brute_force(self, detail, data, limit):
        # Base rows drawn from the same pools: some keys exist in the
        # detail relation, some do not.
        names = detail.schema.names
        num_base = data.draw(st.integers(1, 12))
        base = Relation.from_columns(detail.schema, {
            name: np.array(
                data.draw(st.lists(
                    st.sampled_from(POOLS[detail.schema[name].dtype]),
                    min_size=num_base, max_size=num_base)),
                dtype=detail.schema[name].dtype.numpy_dtype)
            for name in names})
        with dense_limit(limit):
            base_codes, detail_codes, num_groups = match_codes(
                base, names, detail, names)
        assert detail_codes.tolist() == reference_codes(detail).tolist()
        assert num_groups == int(detail_codes.max()) + 1
        expected = [(-1 if row < 0 else int(detail_codes[row]))
                    for row in reference_match(base, names, detail, names)]
        assert base_codes.tolist() == expected

    @LIMITS
    @given(detail=relations(min_rows=1), data=st.data())
    @settings(max_examples=120)
    def test_identity_short_circuit_equals_the_lookup_path(self, detail,
                                                           data, limit):
        """base = distinct projection of detail: codes read off the index
        must equal the ``lookup_codes`` route taken by a detached copy."""
        names = detail.schema.names
        base_names = data.draw(st.lists(st.sampled_from(names), min_size=1,
                                        max_size=3, unique=True))
        key = data.draw(st.lists(st.sampled_from(base_names), min_size=1,
                                 max_size=3, unique=True))
        with dense_limit(limit):
            base = detail.distinct(base_names)
            assert grouping.projected_rows(
                [base.column(name) for name in key],
                [detail.column(name) for name in key]) is not None
            short = match_codes(base, key, detail, key)
            copy = detached(base)
            assert grouping.projected_rows(
                [copy.column(name) for name in key],
                [detail.column(name) for name in key]) is None
            full = match_codes(copy, key, detail, key)
        assert short[0].tolist() == full[0].tolist()
        assert (short[0] >= 0).all()
        assert short[1] is full[1]
        assert short[2] == full[2]

    def test_filtered_source_is_not_mistaken_for_the_detail(self):
        detail = Relation.from_dicts(
            [{"k": i % 4, "v": float(i)} for i in range(12)])
        kept = detail.filter(detail.column("v") >= 6.0)
        base = kept.distinct(["k"])
        assert grouping.projected_rows(
            [base.column("k")], [detail.column("k")]) is None
        base_codes, detail_codes, __ = match_codes(
            base, ["k"], detail, ["k"])
        for row, code in enumerate(base_codes):
            rows = np.flatnonzero(detail_codes == code)
            assert (detail.column("k")[rows] == base.column("k")[row]).all()


# ---------------------------------------------------------------------------
# BYTES keys through the engine: distributed == centralized == by hand
# ---------------------------------------------------------------------------

class TestBytesKeysDistributed:
    """The differential oracle's rule (distributed result bit-identical
    to the centralized evaluator) on a key type its g/h/v grid never
    draws, plus a hand count — both evaluators share the factorizer, so
    agreeing with each other would not catch a shared wrong grouping."""

    SCHEMA = Schema([Attribute("k", DataType.BYTES),
                     Attribute("v", DataType.INT64)])

    @staticmethod
    def query():
        return (QueryBuilder()
                .base("k")
                .gmdj([count_star("n"), agg("sum", "v", "total")],
                      r.k == b.k)
                .gmdj([count_star("m")],
                      (r.k == b.k) & (r.v * b.n >= b.total))
                .build())

    def detail(self, keys, values):
        return Relation.from_columns(
            self.SCHEMA, {"k": bytes_column(keys),
                          "v": np.asarray(values, dtype=np.int64)})

    def by_hand(self, keys, values):
        rows = {}
        for key, value in zip(keys, values):
            rows.setdefault(key, []).append(value)
        return {key: (len(group), sum(group),
                      sum(v * len(group) >= sum(group) for v in group))
                for key, group in rows.items()}

    def check(self, keys, values, num_sites, transport, flags):
        detail = self.detail(keys, values)
        oracle = self.query().evaluate_centralized(detail)
        with SkallaEngine(partition_round_robin(detail, num_sites),
                          transport=transport) as engine:
            result = engine.execute(self.query(), flags)
        assert result.relation.multiset_equals(oracle)
        assert {row["k"]: (row["n"], row["total"], row["m"])
                for row in result.relation.to_dicts()} \
            == self.by_hand(keys, values)

    @given(rows=st.lists(
        st.tuples(st.sampled_from(POOLS[DataType.BYTES]),
                  st.integers(-50, 50)), min_size=1, max_size=40),
        num_sites=st.integers(1, 4), optimize=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_inprocess(self, rows, num_sites, optimize):
        keys, values = zip(*rows)
        self.check(keys, values, num_sites, "inprocess",
                   OptimizationFlags.all() if optimize
                   else NO_OPTIMIZATIONS)

    @pytest.mark.parametrize("transport", ["thread", "process"])
    def test_over_the_wire(self, transport):
        pool = POOLS[DataType.BYTES]
        keys = [pool[(i * 5 + i // 7) % len(pool)] for i in range(90)]
        values = [(i * 37) % 101 - 50 for i in range(90)]
        self.check(keys, values, 3, transport, OptimizationFlags.all())


# ---------------------------------------------------------------------------
# Direct-address integer keys
# ---------------------------------------------------------------------------

def direct_addressed(uniques):
    """Whether ``uniques`` came with a slot table for ``lookup_codes``."""
    return grouping._recall(("slots", id(uniques)), (uniques,)) is not None


def reference_lookup(uniques, values):
    """The binary search ``lookup_codes`` ran before slot tables."""
    positions = np.minimum(np.searchsorted(uniques, values),
                           len(uniques) - 1)
    return positions, uniques[positions] == values


#: a dense cluster around each anchor: spans stay small when one anchor
#: is drawn, and leave every table limit when two are
INT_ANCHORS = [0, -40, 2**53, -2**62, 2**62, 2**63 - 9, -2**63]
int_keys = st.builds(lambda anchor, offset: anchor + offset,
                     st.sampled_from(INT_ANCHORS), st.integers(0, 8))


class TestDirectAddress:
    @LIMITS
    @given(keys=st.lists(int_keys, min_size=1, max_size=40),
           probes=st.lists(int_keys, min_size=1, max_size=40))
    @settings(max_examples=200)
    def test_factorize_and_lookup_equal_the_sorted_reference(
            self, keys, probes, limit):
        column = np.array(keys, dtype=np.int64)
        values = np.array(probes, dtype=np.int64)
        want_uniques, want_codes = np.unique(column, return_inverse=True)
        with dense_limit(limit):
            uniques, codes = grouping.factorize(column, "int")
            positions, hit = grouping.lookup_codes(uniques, values, "int")
        span = int(column.max()) - int(column.min()) + 1
        dense = limit is None and span <= grouping._dense_limit(len(column))
        assert direct_addressed(uniques) == dense
        assert_same_column(uniques, want_uniques)
        assert_same_column(codes, want_codes.astype(np.int64))
        want_positions, want_hit = reference_lookup(want_uniques, values)
        assert hit.tolist() == want_hit.tolist()
        assert positions[hit].tolist() == want_positions[want_hit].tolist()
        # a miss still names a slot the caller may read before masking
        assert ((positions >= 0) & (positions < len(uniques))).all()

    def test_a_span_wider_than_int64_takes_the_sparse_path(self):
        column = np.array([-2**62 - 5, 2**62 + 5, 0, 2**62 + 5],
                          dtype=np.int64)
        uniques, codes = grouping.factorize(column, "int")
        assert not direct_addressed(uniques)
        assert uniques.tolist() == [-2**62 - 5, 0, 2**62 + 5]
        assert codes.tolist() == [0, 2, 1, 2]

    def test_out_of_span_probes_do_not_wrap(self):
        # value - low overflows int64 for these probes; a wrapped offset
        # would land inside the table and report a hit
        column = np.array([2**62, 2**62 + 1, 2**62 + 3], dtype=np.int64)
        uniques, __ = grouping.factorize(column, "int")
        assert direct_addressed(uniques)
        probes = np.array([-2**62, -2**63, 2**63 - 1, 2**62 + 2, 2**62 + 3,
                           2**62 - 1, -2**63 + 2**62 + 1], dtype=np.int64)
        positions, hit = grouping.lookup_codes(uniques, probes, "int")
        assert hit.tolist() == [False, False, False, False, True, False,
                                False]
        assert positions[4] == 2
        low = np.array([-2**63, -2**63 + 2], dtype=np.int64)
        uniques, __ = grouping.factorize(low, "int")
        assert direct_addressed(uniques)
        positions, hit = grouping.lookup_codes(
            uniques, np.array([2**63 - 1, -2**63 + 1, -2**63 + 2],
                              dtype=np.int64), "int")
        assert hit.tolist() == [False, False, True]

    def test_bool_keys(self):
        column = np.array([True, False, True, True])
        uniques, codes = grouping.factorize(column, "int")
        assert direct_addressed(uniques)
        assert uniques.tolist() == [0, 1] and codes.tolist() == [1, 0, 1, 1]
        base = Relation.from_dicts([{"k": False}, {"k": True}])
        detail = Relation.from_dicts([{"k": True}, {"k": True}])
        assert match_codes(base, ["k"], detail, ["k"])[0].tolist() == [-1, 0]

    def test_empty_and_one_row_columns(self):
        uniques, codes = grouping.factorize(np.empty(0, dtype=np.int64),
                                            "int")
        assert len(uniques) == 0 and len(codes) == 0
        assert codes.dtype == np.int64
        uniques, codes = grouping.factorize(
            np.array([-7], dtype=np.int64), "int")
        assert direct_addressed(uniques)
        assert uniques.tolist() == [-7] and codes.tolist() == [0]
        positions, hit = grouping.lookup_codes(
            uniques, np.array([-8, -7, -6], dtype=np.int64), "int")
        assert hit.tolist() == [False, True, False]
        assert positions.tolist() == [0, 0, 0]

    def test_the_slot_table_dies_with_the_column(self):
        gc.collect()
        before = grouping.cache_size()
        column = np.arange(100, dtype=np.int64) % 13
        uniques, __ = grouping.factorize(column, "int")
        assert direct_addressed(uniques)
        assert grouping.cache_size() == before + 2
        del column, uniques
        gc.collect()
        assert grouping.cache_size() == before


# ---------------------------------------------------------------------------
# Cache lifetime
# ---------------------------------------------------------------------------

def _query():
    return (QueryBuilder()
            .base("g")
            .gmdj([count_star("n"), agg("sum", "v", "total")], r.g == b.g)
            .gmdj([count_star("m")], (r.g == b.g) & (r.v >= b.total / b.n))
            .build())


class TestCacheLifetime:
    def test_entries_die_with_their_columns(self):
        gc.collect()
        before = grouping.cache_size()
        relation = Relation.from_dicts(
            [{"k": i % 7, "s": f"s{i % 3}"} for i in range(50)])
        relation.distinct()
        relation.group_indices(["k"])
        base = relation.distinct(["k"])
        match_codes(base, ["k"], relation, ["k"])
        assert grouping.cache_size() > before
        del relation, base
        gc.collect()
        assert grouping.cache_size() == before

    def test_index_is_reused_while_the_columns_live(self):
        relation = Relation.from_dicts([{"k": i % 7} for i in range(50)])
        first = relation.group_index(["k"])
        assert relation.group_index(["k"]) is first
        assert relation.project(["k"]).group_index() is first
        assert group_runs(first.codes, first.num_groups)[0] is group_runs(
            first.codes, first.num_groups)[0]
        assert detached(relation).group_index(["k"]) is not first

    def test_threads_share_the_cache_without_losing_entries(self):
        """Service threads hit the cache concurrently: every thread must
        read correct codes for the shared relation while private
        relations are built and collected around it, and the private
        entries must all be gone afterwards."""
        shared = Relation.from_dicts(
            [{"k": i % 11, "s": f"s{i % 4}"} for i in range(300)])
        expected = reference_codes(shared).tolist()
        gc.collect()
        before = grouping.cache_size()
        failures = []
        deadline = time.monotonic() + 1.0

        def work(seed):
            rounds = 0
            while time.monotonic() < deadline or rounds < 3:
                rounds += 1
                private = Relation.from_dicts(
                    [{"k": (i * seed) % 7} for i in range(40)])
                base = private.distinct()
                codes = match_codes(base, ["k"], private, ["k"])[0]
                if (codes.tolist() != list(range(base.num_rows))
                        or shared.group_index().codes.tolist() != expected
                        or shared.distinct(["k"]).num_rows != 11):
                    failures.append(seed)
                    return

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(seed,))
                       for seed in range(1, 9)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        gc.collect()
        # every private entry is gone; only the shared relation's remain
        assert grouping.cache_size() > before
        del shared
        gc.collect()
        assert grouping.cache_size() == before

    def test_append_evicts_the_old_fragment_and_indexes_the_new(self):
        gc.collect()
        before = grouping.cache_size()
        detail = Relation.from_dicts([
            {"g": i % 5, "v": float(i), "name": f"n{i % 9}"}
            for i in range(400)])
        engine = SkallaEngine(partition_round_robin(detail, 2))
        expected = engine.execute(_query()).relation
        old_fragment = engine.sites[0].fragment
        old_column = old_fragment.column("g")
        old_index = group_index([old_column])
        warm = grouping.cache_size()
        assert warm > before

        engine.append(0, Relation.from_dicts(
            [{"g": 9, "v": 1.0, "name": "n1"}]))
        new_column = engine.sites[0].fragment.column("g")
        assert new_column is not old_column
        appended = engine.execute(_query()).relation
        assert appended.num_rows == expected.num_rows + 1
        new_index = group_index([new_column])
        assert new_index is not old_index
        assert new_index.num_groups == old_index.num_groups + 1

        # Only this test still holds the pre-append arrays; once it lets
        # go, every entry keyed on them is evicted.
        key = ("index", id(old_column), "int")
        assert key in grouping._cache
        del old_fragment, old_column, old_index
        gc.collect()
        assert key not in grouping._cache

        engine.close()
        del engine, detail, expected, appended, new_column, new_index
        gc.collect()
        assert grouping.cache_size() == before


# ---------------------------------------------------------------------------
# The count guard: a warm query neither sorts nor searches key values
# ---------------------------------------------------------------------------

_CLERK = ("SELECT Clerk, COUNT(*) AS cnt1, AVG(ExtendedPrice) AS avg1 "
          "FROM TPCR GROUP BY Clerk THEN COMPUTE ")
#: statement shapes of benchmarks/e2e's scan_lowcard workload: Clerk is
#: a string key on no partition attribute, so the coordinator still
#: matches it (one ``np.unique(<U)`` per synchronization) — guarded at
#: the sites, over detail-length arrays.
SITE_GUARDED_STATEMENTS = {
    "corr_clerk": _CLERK + (
        "COUNT(*) AS cnt2, AVG(ExtendedPrice) AS avg2 "
        "WHERE ExtendedPrice >= avg1"),
    "range_clerk": _CLERK + (
        "COUNT(*) AS cnt2, SUM(Quantity) AS q2 WHERE ExtendedPrice >= "
        "avg1 * 0.5 AND ExtendedPrice < avg1 * 1.5"),
    "multi_low": (
        "SELECT ShipMode, ReturnFlag, OrderPriority, COUNT(*) AS n, "
        "SUM(ExtendedPrice) AS s, MIN(Discount) AS lo FROM TPCR "
        "GROUP BY ShipMode, ReturnFlag, OrderPriority"),
}


def _x(n):
    return f"COUNT(*) AS cnt{n}, AVG(ExtendedPrice) AS avg{n}"


#: statement shapes of the ship_highcard workload (the paper's Fig. 2-5
#: queries on the partition attribute CustName, plus integer keys on no
#: partition attribute): guarded at sites *and* coordinator, over every
#: array of at least ``KEY_THRESHOLD`` elements.
KEY_GUARDED_STATEMENTS = {
    "fig2_corr_custname": (
        f"SELECT CustName, {_x(1)} FROM TPCR GROUP BY CustName "
        f"THEN COMPUTE {_x(2)} WHERE ExtendedPrice >= avg1"),
    "fig3_coal_custname": (
        f"SELECT CustName, {_x(1)} FROM TPCR GROUP BY CustName "
        f"THEN COMPUTE {_x(2)} WHERE Discount >= 0.05"),
    "fig5_comb_custname": (
        f"SELECT CustName, {_x(1)} FROM TPCR GROUP BY CustName "
        f"THEN COMPUTE {_x(2)} WHERE Discount >= 0.05 "
        f"THEN COMPUTE {_x(3)} WHERE ExtendedPrice >= avg1"),
    "corr_orderkey": (
        f"SELECT OrderKey, {_x(1)} FROM TPCR GROUP BY OrderKey "
        f"THEN COMPUTE {_x(2)} WHERE ExtendedPrice >= avg1"),
    "plain_partkey": (
        "SELECT PartKey, COUNT(*) AS n, SUM(Quantity) AS q, "
        "MAX(ExtendedPrice) AS m FROM TPCR GROUP BY PartKey"),
}
KEY_THRESHOLD = 500
GUARD_ROWS = 20_000
GUARD_SITES = 4


class SortCounter:
    """Counts comparison sorts and binary searches over long arrays
    while a site (and, with ``coordinator=True``, the coordinator's
    synchronization) works.

    ``np.unique`` / ``np.argsort`` / ``np.sort`` / ``np.lexsort`` /
    ``np.searchsorted`` are wrapped at the ``numpy`` namespace (``src/``
    reaches every one through it; ``np.unique``'s own internal
    ``ndarray.argsort`` is the same sort, not a second one).  A call
    counts when its input — for ``searchsorted`` the sorted table — is
    at least ``threshold`` long and not a 16-bit integer array — those
    are the radix passes, which compare nothing.
    """

    def __init__(self, monkeypatch, threshold, coordinator=False):
        self.threshold = threshold
        self.active = False
        self.calls: list[str] = []
        for name in ("unique", "argsort", "sort", "lexsort", "searchsorted"):
            monkeypatch.setattr(np, name, self._wrap(name, getattr(np, name)))
        scopes = [(SkallaSite, "evaluate_base"), (SkallaSite, "execute_step")]
        if coordinator:
            scopes += [(Coordinator, "synchronize_base"),
                       (Coordinator, "synchronize_step")]
        for owner, name in scopes:
            monkeypatch.setattr(owner, name,
                                self._scoped(getattr(owner, name)))

    def _wrap(self, name, original):
        def counted(array, *args, **kwargs):
            if self.active:
                keys = array if name == "lexsort" else [array]
                for key in keys:
                    key = np.asarray(key)
                    if key.size >= self.threshold and key.dtype.itemsize > 2:
                        self.calls.append(
                            f"np.{name}({key.dtype}[{key.size}])")
            return original(array, *args, **kwargs)
        return counted

    def _scoped(self, original):
        def scoped(owner, *args, **kwargs):
            self.active = True
            try:
                return original(owner, *args, **kwargs)
            finally:
                self.active = False
        return scoped


class TestSortFreeSiteStep:
    @pytest.fixture(scope="class")
    def warehouse(self):
        """TPCR over 4 sites by NationKey, with the CustKey / CustName
        range knowledge of Sect. 5.1 registered."""
        relation = generate_tpcr(TpcrConfig(
            num_rows=GUARD_ROWS, num_customers=GUARD_ROWS // 5, seed=42))
        partitions, info = partition_by_values(
            relation, "NationKey", nation_assignment(GUARD_SITES))
        for site, (low, high) in custkey_ranges(
                GUARD_SITES, GUARD_ROWS // 5).items():
            info.add(site, "CustKey", RangeConstraint(low, high))
            info.add(site, "CustName", RangeConstraint(
                customer_name(low), customer_name(high)))
        warehouse = Warehouse.from_partitions(partitions, info)
        yield warehouse
        warehouse.engine.close()

    @pytest.mark.parametrize("statement", list(SITE_GUARDED_STATEMENTS))
    def test_warm_site_step_runs_no_comparison_sort(self, warehouse,
                                                    statement, monkeypatch):
        sql = SITE_GUARDED_STATEMENTS[statement]
        cold = warehouse.sql(sql).relation      # fills the grouping caches
        smallest = min(warehouse.engine.fragment(site).num_rows
                       for site in warehouse.engine.site_ids)
        counter = SortCounter(monkeypatch, threshold=smallest)
        warm = warehouse.sql(sql).relation
        assert warm.multiset_equals(cold)
        assert counter.calls == []

    @pytest.mark.parametrize("statement", list(KEY_GUARDED_STATEMENTS))
    def test_warm_query_neither_sorts_nor_searches_keys(
            self, warehouse, statement, monkeypatch):
        sql = KEY_GUARDED_STATEMENTS[statement]
        cold = warehouse.sql(sql)               # fills the grouping caches
        on_partition_attr = "CustName" in sql
        assert (cold.plan.union_on == "CustName") == on_partition_attr
        counter = SortCounter(monkeypatch, threshold=KEY_THRESHOLD,
                              coordinator=True)
        warm = warehouse.sql(sql).relation
        assert warm.multiset_equals(cold.relation)
        assert counter.calls == []

    def test_the_counter_sees_a_detail_length_sort(self, warehouse,
                                                   monkeypatch):
        """The guard's own check: a fresh fragment (cold caches) has to
        factorize its key column, and that sort must be counted."""
        counter = SortCounter(monkeypatch, threshold=1000)
        fragment = detached(warehouse.engine.fragment(0))
        SkallaSite(0, fragment).evaluate_base(ProjectionBase(("Clerk",)))
        assert any(call.startswith("np.unique(") for call in counter.calls)

    def test_the_counter_sees_a_keyed_string_synchronization(
            self, warehouse, monkeypatch):
        """... and its scope: Clerk is no partition attribute, so the
        coordinator matches its keys — a search the widened guard must
        see (and the reason Clerk statements are guarded at the sites)."""
        sql = SITE_GUARDED_STATEMENTS["corr_clerk"]
        cold = warehouse.sql(sql)
        assert cold.plan.union_on is None
        counter = SortCounter(monkeypatch, threshold=KEY_THRESHOLD,
                              coordinator=True)
        warehouse.sql(sql)
        assert any(call.startswith(("np.unique(<U", "np.searchsorted(<U"))
                   for call in counter.calls)


def test_grouping_sorts_live_in_one_module():
    """No module but ``relational/factorize.py`` regroups rows on its own:
    the indexed ``np.unique`` forms and stable argsorts stay there."""
    source_root = Path(grouping.__file__).resolve().parents[1]
    offenders = [
        f"{path.relative_to(source_root)}:{number}"
        for path in sorted(source_root.rglob("*.py"))
        if path.name != "factorize.py"
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(r"return_index|return_inverse|kind=.stable.|"
                     r"\.argsort\(|np\.argsort\(", line)]
    assert offenders == []
