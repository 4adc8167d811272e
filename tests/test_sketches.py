"""Unit + accuracy property tests for the mergeable sketches.

Structure mirrors the contract in ``repro/sketches/__init__``:

* uniform ``update / merge / estimate / to_bytes / from_bytes`` surface;
* monoid laws (commutative, associative, HLL additionally idempotent)
  checked on *serialized* states, which is what the engine actually
  merges;
* documented accuracy bounds — HLL relative error within
  ``3 / sqrt(2**p)`` and KLL normalized rank error within
  ``rank_error_bound(k, n)`` — as seeded property tests over many
  random multisets and partitionings;
* the traffic claim through the engine: the sketch uplink stays bounded
  while exact shipping grows with the fact table.
"""

from __future__ import annotations

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tests.seeding import active_seed, seeded

from repro.bench.harness import build_flow_warehouse
from repro.core.builder import QueryBuilder
from repro.distributed.plan import OptimizationFlags
from repro.relational.aggregates import (
    AggregateSpec, count_star, merge_grouped, primitive_grouped,
    primitive_reduce, primitive_reduce_segments)
from repro.relational.expressions import b, r
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.relational.types import DataType
from repro.sketches import (HyperLogLog, QuantileSketch, hash64,
                            kll_k_for_precision)
from repro.sketches.hashing import splitmix64
from repro.sketches.hll import (
    MAX_PRECISION as HLL_MAX_P, MIN_PRECISION as HLL_MIN_P, _bit_length,
    estimate_states, relative_error_bound)
from repro.sketches.kll import MAX_K, MIN_K, quantile_states, rank_error_bound
from repro.warehouse import Warehouse


# ---------------------------------------------------------------------------
# Hashing
# ---------------------------------------------------------------------------

class TestHash64:
    def test_deterministic_across_calls(self):
        values = np.arange(100, dtype=np.int64)
        assert np.array_equal(hash64(values), hash64(values))

    def test_negative_zero_equals_positive_zero(self):
        hashed = hash64(np.array([0.0, -0.0]))
        assert hashed[0] == hashed[1]

    def test_all_nans_hash_equal(self):
        quiet = np.frombuffer(struct.pack("<Q", 0x7FF8000000000001),
                              dtype=np.float64)[0]
        hashed = hash64(np.array([float("nan"), quiet]))
        assert hashed[0] == hashed[1]

    def test_int_float_object_kinds(self):
        assert hash64(np.array([1, 2, 3])).dtype == np.uint64
        assert hash64(np.array([1.5, 2.5])).dtype == np.uint64
        assert hash64(np.array(["a", "b"], dtype=object)).dtype == np.uint64
        assert hash64(np.array([b"x", b"y"], dtype=object)).dtype == \
            np.uint64

    def test_strings_and_bytes_do_not_collide_by_prefix(self):
        text = hash64(np.array(["ab"], dtype=object))[0]
        blob = hash64(np.array([b"ab"], dtype=object))[0]
        assert text != blob

    def test_splitmix64_known_vector(self):
        # reference value for seed 0 from the splitmix64 definition
        out = splitmix64(np.array([0], dtype=np.uint64))[0]
        assert int(out) == 0xE220A8397B1DCDAF

    def test_unhashable_dtype_raises(self):
        with pytest.raises(TypeError, match="cannot hash"):
            hash64(np.zeros(3, dtype=np.complex128))


# ---------------------------------------------------------------------------
# HyperLogLog
# ---------------------------------------------------------------------------

class TestHyperLogLog:
    def test_precision_validation(self):
        with pytest.raises(ValueError, match="precision"):
            HyperLogLog(HLL_MIN_P - 1)
        with pytest.raises(ValueError, match="precision"):
            HyperLogLog(HLL_MAX_P + 1)

    def test_empty_estimate_zero(self):
        assert HyperLogLog(10).estimate() == 0.0

    def test_exact_for_tiny_cardinalities(self):
        sketch = HyperLogLog(12).update(np.array([1, 2, 3, 2, 1]))
        assert round(sketch.estimate()) == 3

    def test_duplicates_do_not_inflate(self):
        once = HyperLogLog(12).update(np.arange(50))
        thrice = HyperLogLog(12).update(np.tile(np.arange(50), 3))
        assert once.estimate() == thrice.estimate()

    def test_sparse_promotes_to_dense(self):
        sketch = HyperLogLog(6)  # m=64, promotion past 16 entries
        assert sketch.is_sparse
        sketch.update(np.arange(500, dtype=np.int64))
        assert not sketch.is_sparse

    @pytest.mark.parametrize("distinct", [300, 40_000],
                             ids=["stays_sparse", "promotes"])
    def test_a_batch_longer_than_the_registers_equals_the_value_walk(
            self, distinct):
        # more values than registers: the batch is reduced per register
        # before it reaches the sparse map — the state must be the one
        # that feeding the values in short batches (the walk) reaches
        values = np.random.default_rng(5).integers(0, distinct, 20_000)
        assert len(values) > HyperLogLog(12).m
        batched = HyperLogLog(12).update(values)
        walked = HyperLogLog(12)
        for start in range(0, len(values), 1_000):
            walked.update(values[start:start + 1_000])
        assert batched.is_sparse == walked.is_sparse == (distinct == 300)
        assert batched.to_bytes() == walked.to_bytes()

    @pytest.mark.parametrize("p", [4, 12, 14])
    def test_dense_estimate_is_the_power_sum(self, p):
        # the 2**-rank table must reproduce the formula it replaced,
        # bit for bit, in both estimator regimes
        for cardinality in (1 << p, 40 << p):
            sketch = HyperLogLog(p).update(np.arange(cardinality))
            assert not sketch.is_sparse
            registers = sketch.registers
            inverse_sum = float(
                np.power(2.0, -registers.astype(np.float64)).sum())
            zeros = int((registers == 0).sum())
            raw = sketch.m * sketch.m * {16: 0.673}.get(
                sketch.m, 0.7213 / (1.0 + 1.079 / sketch.m)) / inverse_sum
            expected = (sketch.m * float(np.log(sketch.m / zeros))
                        if raw <= 2.5 * sketch.m and zeros else raw)
            assert sketch.estimate() == expected

    @staticmethod
    def _shift_loop_bit_length(w):
        # reference: the six-pass binary search the frexp form replaced
        length = np.zeros(w.shape, dtype=np.int64)
        w = w.copy()
        for shift in (32, 16, 8, 4, 2, 1):
            step = np.uint64(shift)
            mask = w >= (np.uint64(1) << step)
            length[mask] += shift
            w[mask] >>= step
        return length + (w > 0)

    def test_bit_length_edges_match_the_shift_loop(self):
        edges = [0, 1] + [value for k in range(1, 65)
                          for value in ((1 << k) - 1, (1 << k) % (1 << 64))]
        words = np.array(edges, dtype=np.uint64)
        expected = self._shift_loop_bit_length(words)
        assert expected[-2] == 64  # 2**64 - 1 is in the sweep
        assert np.array_equal(_bit_length(words), expected)

    @seeded
    @settings(max_examples=50, deadline=None)
    @given(words=st.lists(st.integers(0, 2**64 - 1), min_size=1,
                          max_size=200))
    def test_bit_length_matches_the_shift_loop(self, words):
        array = np.array(words, dtype=np.uint64)
        assert np.array_equal(_bit_length(array),
                              self._shift_loop_bit_length(array))

    def test_merge_is_union(self):
        left = HyperLogLog(12).update(np.arange(0, 600))
        right = HyperLogLog(12).update(np.arange(300, 900))
        union = HyperLogLog(12).update(np.arange(0, 900))
        assert left.merge(right).to_bytes() == union.to_bytes()

    def test_merge_commutative_associative_idempotent(self):
        a = HyperLogLog(10).update(np.arange(0, 400))
        b = HyperLogLog(10).update(np.arange(200, 700))
        c = HyperLogLog(10).update(np.arange(650, 1000))
        assert a.merge(b).to_bytes() == b.merge(a).to_bytes()
        assert a.merge(b).merge(c).to_bytes() == \
            a.merge(b.merge(c)).to_bytes()
        assert a.merge(a).to_bytes() == a.to_bytes()

    def test_merge_does_not_mutate_operands(self):
        a = HyperLogLog(10).update(np.arange(100))
        b = HyperLogLog(10).update(np.arange(100, 200))
        before = (a.to_bytes(), b.to_bytes())
        a.merge(b)
        assert (a.to_bytes(), b.to_bytes()) == before

    def test_mismatched_precision_merge_raises(self):
        with pytest.raises(ValueError, match="cannot merge"):
            HyperLogLog(10).merge(HyperLogLog(11))

    def test_roundtrip_sparse_and_dense(self):
        sparse = HyperLogLog(12).update(np.arange(10))
        assert sparse.is_sparse
        revived = HyperLogLog.from_bytes(sparse.to_bytes())
        assert revived.to_bytes() == sparse.to_bytes()
        dense = HyperLogLog(6).update(np.arange(1000))
        assert not dense.is_sparse
        revived = HyperLogLog.from_bytes(dense.to_bytes())
        assert revived.to_bytes() == dense.to_bytes()
        assert revived.estimate() == dense.estimate()

    def test_from_bytes_rejects_garbage(self):
        with pytest.raises(ValueError, match="not a HyperLogLog"):
            HyperLogLog.from_bytes(b"XXxxxxxxxxxx")

    def test_sparse_state_is_small(self):
        sketch = HyperLogLog(14).update(np.arange(8))
        assert len(sketch.to_bytes()) < 64  # not 2**14

    def test_dense_state_is_bounded(self):
        sketch = HyperLogLog(10).update(np.arange(100_000))
        assert len(sketch.to_bytes()) == (1 << 10) + 5

    def test_serialized_update_still_usable(self):
        sketch = HyperLogLog(12).update(np.arange(100))
        revived = HyperLogLog.from_bytes(sketch.to_bytes())
        revived.update(np.arange(100, 200))
        direct = HyperLogLog(12).update(np.arange(200))
        assert revived.to_bytes() == direct.to_bytes()


class TestHyperLogLogAccuracy:
    """Documented three-sigma bound: |est - n| <= 3/sqrt(m) * n."""

    @seeded
    @settings(max_examples=30, deadline=None)
    @given(cardinality=st.integers(1, 50_000), p=st.integers(8, 14),
           offset=st.integers(0, 2**32))
    def test_within_three_sigma(self, cardinality, p, offset):
        values = np.arange(offset, offset + cardinality, dtype=np.int64)
        estimate = HyperLogLog(p).update(values).estimate()
        assert abs(estimate - cardinality) <= max(
            2.0, relative_error_bound(p) * cardinality)

    @seeded
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_partitioned_union_matches_centralized_bitwise(self, data):
        """Partition-insensitivity: merging arbitrary splits yields the
        centralized sketch bit-for-bit (the property that lets HLL share
        the exact differential oracle)."""
        n = data.draw(st.integers(1, 3000))
        parts = data.draw(st.integers(1, 6))
        values = np.arange(n, dtype=np.int64)
        assignment = np.array(data.draw(st.lists(
            st.integers(0, parts - 1), min_size=n, max_size=n)))
        merged = HyperLogLog(11)
        for part in range(parts):
            merged = merged.merge(
                HyperLogLog(11).update(values[assignment == part]))
        centralized = HyperLogLog(11).update(values)
        assert merged.to_bytes() == centralized.to_bytes()

    def test_error_bound_formula(self):
        assert relative_error_bound(12) == pytest.approx(3.0 / 64.0)
        assert relative_error_bound(10) > relative_error_bound(14)


# ---------------------------------------------------------------------------
# QuantileSketch (KLL)
# ---------------------------------------------------------------------------

def rank_of(values: np.ndarray, estimate: float) -> tuple[float, float]:
    ordered = np.sort(values)
    n = len(ordered)
    return (np.searchsorted(ordered, estimate, side="left") / n,
            np.searchsorted(ordered, estimate, side="right") / n)


class TestQuantileSketch:
    def test_k_validation(self):
        with pytest.raises(ValueError, match="k must be"):
            QuantileSketch(MIN_K - 1)
        with pytest.raises(ValueError, match="k must be"):
            QuantileSketch(MAX_K + 1)

    def test_empty_quantile_nan(self):
        sketch = QuantileSketch(64)
        assert math.isnan(sketch.quantile(0.5))
        assert math.isnan(sketch.rank(1.0))

    def test_exact_below_capacity(self):
        values = np.array([5.0, 1.0, 3.0, 2.0, 4.0])
        sketch = QuantileSketch(64).update(values)
        assert sketch.median() == 3.0
        assert sketch.quantile(0.0) == 1.0
        assert sketch.quantile(1.0) == 5.0

    def test_min_max_exact_past_compaction(self):
        rng = np.random.default_rng(active_seed(1))
        values = rng.normal(size=10_000)
        sketch = QuantileSketch(32).update(values)
        assert sketch.quantile(0.0) == values.min()
        assert sketch.quantile(1.0) == values.max()
        assert sketch.count == len(values)

    def test_merge_commutative_bitwise(self):
        rng = np.random.default_rng(active_seed(2))
        a = QuantileSketch(32).update(rng.normal(size=2000))
        b = QuantileSketch(32).update(rng.normal(size=1500))
        assert a.merge(b).to_bytes() == b.merge(a).to_bytes()

    def test_merge_does_not_mutate_operands(self):
        a = QuantileSketch(16).update(np.arange(500.0))
        b = QuantileSketch(16).update(np.arange(500.0, 900.0))
        before = (a.to_bytes(), b.to_bytes())
        a.merge(b)
        assert (a.to_bytes(), b.to_bytes()) == before

    def test_mismatched_k_merge_raises(self):
        with pytest.raises(ValueError, match="cannot merge"):
            QuantileSketch(16).merge(QuantileSketch(32))

    def test_deterministic_state(self):
        """Same input ⇒ same bytes, in any process: there is no seeded
        randomness anywhere in the compaction path."""
        values = np.linspace(0.0, 1.0, 5000)
        a = QuantileSketch(64).update(values)
        b = QuantileSketch(64).update(values)
        assert a.to_bytes() == b.to_bytes()

    def test_roundtrip_bit_identical_and_usable(self):
        rng = np.random.default_rng(active_seed(3))
        sketch = QuantileSketch(48).update(rng.normal(size=7000))
        revived = QuantileSketch.from_bytes(sketch.to_bytes())
        assert revived.to_bytes() == sketch.to_bytes()
        assert revived.quantile(0.5) == sketch.quantile(0.5)
        merged = revived.merge(QuantileSketch(48).update(np.arange(10.0)))
        assert merged.count == sketch.count + 10

    def test_empty_roundtrip(self):
        revived = QuantileSketch.from_bytes(QuantileSketch(16).to_bytes())
        assert revived.count == 0
        assert math.isnan(revived.quantile(0.5))

    def test_from_bytes_rejects_garbage(self):
        with pytest.raises(ValueError, match="not a QuantileSketch"):
            QuantileSketch.from_bytes(b"ZZ" + b"\x00" * 30)

    def test_state_size_sublinear(self):
        small = QuantileSketch(64).update(np.arange(1_000.0))
        large = QuantileSketch(64).update(np.arange(100_000.0))
        # 100x the data, state grows only with the log2 level count
        assert len(large.to_bytes()) < 4 * len(small.to_bytes())
        assert len(large.to_bytes()) < 64 * 8 * 6  # ~3k items + headers


class TestQuantileSketchAccuracy:
    """Documented bound: normalized rank error <= rank_error_bound(k, n)."""

    @seeded
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_rank_error_within_bound(self, data):
        n = data.draw(st.integers(1, 20_000))
        k = data.draw(st.sampled_from([16, 64, 200]))
        kind = data.draw(st.sampled_from(["uniform", "normal", "sorted",
                                          "heavy-dup"]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
        if kind == "uniform":
            values = rng.uniform(-1e6, 1e6, n)
        elif kind == "normal":
            values = rng.normal(0, 1e3, n)
        elif kind == "sorted":
            values = np.sort(rng.uniform(0, 1, n))
        else:
            values = rng.integers(0, 10, n).astype(np.float64)
        sketch = QuantileSketch(k).update(values)
        eps = rank_error_bound(k, n) + 1.0 / n + 1e-12
        for q in (0.1, 0.25, 0.5, 0.75, 0.9):
            lo, hi = rank_of(values, sketch.quantile(q))
            assert lo - eps <= q <= hi + eps, (kind, k, n, q)

    @seeded
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_merged_sketch_respects_bound(self, data):
        """Merging per-partition sketches must not break the rank bound
        (the distributed execution path)."""
        n = data.draw(st.integers(10, 8_000))
        parts = data.draw(st.integers(2, 5))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
        values = rng.normal(0, 1.0, n)
        assignment = rng.integers(0, parts, n)
        merged = QuantileSketch(64)
        for part in range(parts):
            merged = merged.merge(
                QuantileSketch(64).update(values[assignment == part]))
        eps = rank_error_bound(64, n) + 1.0 / n + 1e-12
        for q in (0.25, 0.5, 0.75):
            lo, hi = rank_of(values, merged.quantile(q))
            assert lo - eps <= q <= hi + eps

    def test_bound_formula(self):
        assert rank_error_bound(200, 100) == 0.0  # exact below capacity
        assert 0.0 < rank_error_bound(200, 100_000) <= 0.5
        assert rank_error_bound(16, 10**6) == 0.5  # clamped


# ---------------------------------------------------------------------------
# The grouped column kernels every path shares
# ---------------------------------------------------------------------------

def register_walk(values: np.ndarray, p: int) -> bytes:
    """Reference HLL state: registers updated one value at a time, then
    encoded by the sparse/dense rule (dense past ``m/4`` nonzero)."""
    m = 1 << p
    registers = [0] * m
    for index in range(len(values)):
        word = int(hash64(values[index:index + 1])[0])
        tail = (word << p) & (2**64 - 1)
        rank = 64 - p + 1 if tail == 0 else 64 - tail.bit_length() + 1
        register = word >> (64 - p)
        registers[register] = max(registers[register], rank)
    entries = [(register, rank) for register, rank in enumerate(registers)
               if rank]
    if len(entries) > m // 4:
        return struct.pack("<2sBBB", b"HL", 1, p, 1) + bytes(registers)
    return (struct.pack("<2sBBBI", b"HL", 1, p, 0, len(entries))
            + b"".join(struct.pack("<I", (register << 8) | rank)
                       for register, rank in entries))


class TestGroupedKernels:
    """One builder and one merge per sketch column serve the grouped,
    segment and scalar paths; HLL bytes keep their format."""

    @pytest.mark.parametrize("p", [4, 8, 12, 16])
    @pytest.mark.parametrize("kind", ["int", "float", "string"])
    def test_hll_paths_equal_the_register_walk(self, p, kind):
        rng = np.random.default_rng(active_seed(21))
        sizes = [0, 3, 40, 900]  # empty, sparse, around m/4, dense
        raw = rng.integers(0, 5_000, sum(sizes))
        values = {"int": raw, "float": raw / 7.0,
                  "string": np.array([f"v{v}" for v in raw], dtype=object)}[kind]
        starts = np.cumsum(sizes) - sizes
        codes = np.repeat(np.arange(len(sizes)), sizes)
        walked = [register_walk(values[s:s + n], p)
                  for s, n in zip(starts, sizes)]
        shuffle = rng.permutation(len(values))
        grouped = primitive_grouped(f"hll{p}", codes[shuffle],
                                    values[shuffle], len(sizes))
        assert list(grouped) == walked
        halves = [shuffle[:len(shuffle) // 2], shuffle[len(shuffle) // 2:]]
        states = np.concatenate([primitive_grouped(
            f"hll{p}", codes[half], values[half], len(sizes))
            for half in halves])
        rows = np.tile(np.arange(len(sizes)), 2)
        assert list(merge_grouped(f"hll{p}", rows, states,
                                  len(sizes))) == walked
        live = np.flatnonzero(sizes)
        segments = primitive_reduce_segments(f"hll{p}", values, starts[live])
        assert list(segments) == [walked[index] for index in live]
        for index, (s, n) in enumerate(zip(starts, sizes)):
            assert primitive_reduce(f"hll{p}", values[s:s + n]) == \
                walked[index]
            assert HyperLogLog(p).update(values[s:s + n]).to_bytes() == \
                walked[index]

    def test_bounds_hold_at_scale_through_the_grouped_kernel(self):
        """>= 100k values per group, built on four sites and merged."""
        rng = np.random.default_rng(active_seed(22))
        groups, per_group, sites = 3, 100_000, 4
        codes = rng.permutation(np.repeat(np.arange(groups), per_group))
        distinct = rng.integers(0, 10**9, len(codes))
        measure = rng.lognormal(3.0, 1.5, len(codes))
        site = rng.integers(0, sites, len(codes))
        states = {name: np.concatenate([
            primitive_grouped(name, codes[site == s], column[site == s],
                              groups) for s in range(sites)])
            for name, column in (("hll12", distinct), ("kll200", measure))}
        rows = np.tile(np.arange(groups), sites)
        hll_merged = merge_grouped("hll12", rows, states["hll12"], groups)
        kll_merged = merge_grouped("kll200", rows, states["kll200"], groups)
        assert list(hll_merged) == list(
            primitive_grouped("hll12", codes, distinct, groups))
        estimates = estimate_states(hll_merged, 12)
        eps = rank_error_bound(200, per_group)
        for group in range(groups):
            exact = len(np.unique(distinct[codes == group]))
            assert abs(estimates[group] - exact) <= \
                relative_error_bound(12) * exact
            values = measure[codes == group]
            for q in (0.01, 0.25, 0.5, 0.75, 0.99):
                lo, hi = rank_of(values, quantile_states(
                    kll_merged[group:group + 1], q)[0])
                assert lo - eps <= q <= hi + eps

    @seeded
    @settings(max_examples=40, deadline=None)
    @given(values=st.lists(st.floats(allow_nan=True, width=32),
                           max_size=500),
           k=st.sampled_from([8, 16, 64]), data=st.data())
    def test_kll_state_is_a_function_of_the_multiset(self, values, k, data):
        """A state's bytes cannot depend on the order values arrive in,
        nor a merged state on the order rows are gathered in."""
        values = np.array(values, dtype=np.float64)
        permuted = values[data.draw(st.permutations(range(len(values))))]
        name = f"kll{k}"
        assert primitive_reduce(name, values) == \
            primitive_reduce(name, permuted)
        groups = 3
        codes = np.array(data.draw(st.lists(
            st.integers(0, groups - 1), min_size=len(values),
            max_size=len(values))), dtype=np.int64)
        site = np.arange(len(values)) % 4
        states = np.concatenate([
            primitive_grouped(name, codes[site == s], values[site == s],
                              groups) for s in range(4)])
        rows = np.tile(np.arange(groups), 4)
        order = np.array(data.draw(st.permutations(range(len(states)))))
        assert list(merge_grouped(name, rows, states, groups)) == \
            list(merge_grouped(name, rows[order], states[order], groups))


class TestNaNInputs:
    """SQL drops NULLs (NaN here) from aggregates: the quantile sketch
    must agree with MIN/MAX, and an all-NaN group finalizes to NaN."""

    def test_percentile_extremes_are_min_and_max(self):
        rng = np.random.default_rng(active_seed(23))
        n = 400
        g = np.arange(n) % 4
        x = np.arange(n, dtype=np.float64)
        x[rng.choice(n, 60, replace=False)] = np.nan
        x[g == 3] = np.nan
        detail = Relation.from_columns(
            Schema.of(("g", DataType.INT64), ("x", DataType.FLOAT64)),
            {"g": g, "x": x})
        halves = np.arange(n) < n // 2
        warehouse = Warehouse.from_partitions(
            {0: detail.filter(halves), 1: detail.filter(~halves)})
        result = warehouse.sql(
            "SELECT g, APPROX_PERCENTILE(x, 0.0) AS lo, "
            "APPROX_PERCENTILE(x, 1.0) AS hi, APPROX_MEDIAN(x) AS med, "
            "MIN(x) AS mn, MAX(x) AS mx FROM t GROUP BY g").relation
        rows = {row["g"]: row for row in result.to_dicts()}
        assert set(rows) == {0, 1, 2, 3}
        for group in (0, 1, 2):
            row = rows[group]
            assert row["lo"] == row["mn"]
            assert row["hi"] == row["mx"]
            values = x[(g == group) & ~np.isnan(x)]
            lo, hi = rank_of(values, row["med"])
            assert lo <= 0.5 <= hi + 1.0 / len(values)
        assert all(math.isnan(rows[3][column])
                   for column in ("lo", "hi", "med", "mn", "mx"))


# ---------------------------------------------------------------------------
# Precision knob
# ---------------------------------------------------------------------------

class TestPrecisionKnob:
    def test_default_precision_maps_near_literature_k(self):
        assert kll_k_for_precision(12) == 204

    def test_clamped_to_valid_range(self):
        assert kll_k_for_precision(4) == MIN_K
        assert kll_k_for_precision(18) == (1 << 18) // 20
        assert MIN_K <= kll_k_for_precision(18) <= MAX_K

    def test_monotone(self):
        ks = [kll_k_for_precision(p) for p in range(4, 19)]
        assert ks == sorted(ks)


# ---------------------------------------------------------------------------
# The traffic claim: sketch uplink is bounded, exact shipping is linear
# ---------------------------------------------------------------------------

class TestSketchTraffic:
    """Why the sketches exist (Theorem 2 restored for holistic
    aggregates), on modeled bytes: ten times the fact rows cost the
    exact-shipping counterfactual ~10x and the sketch states < 2x.
    Parameters are sized so the per-group states saturate already at
    1x (HLL dense, KLL compactors full) — the regime the claim is
    about — and the estimates stay inside their documented bounds."""

    SITES = 4
    GROUPS = 16
    ROWS = 2_000
    HLL_P = 8     # 256 registers; 3-sigma err ~ 18.8%
    KLL_K = 64

    def query(self):
        return (QueryBuilder().base("SourceAS").gmdj([
            count_star("n"),
            AggregateSpec("approx_count_distinct", "NumBytes", "acd",
                          precision=self.HLL_P),
            AggregateSpec("approx_median", "NumBytes", "amed",
                          precision=self.KLL_K),
            AggregateSpec("approx_percentile", "NumBytes", "p90",
                          param=0.9, precision=self.KLL_K),
        ], r.SourceAS == b.SourceAS).build())

    def assert_estimates_within_bounds(self, result, detail):
        from tests.test_differential_sketches import assert_rank_contained
        by_group = {row["SourceAS"]: row for row in result.to_dicts()}
        groups = detail.group_indices(["SourceAS"])
        assert set(by_group) == {key[0] for key in groups}
        for key, indices in groups.items():
            values = detail.column("NumBytes")[indices]
            row = by_group[key[0]]
            exact_distinct = len(np.unique(values))
            assert abs(row["acd"] - exact_distinct) <= max(
                2.0, relative_error_bound(self.HLL_P) * exact_distinct)
            eps = rank_error_bound(self.KLL_K, len(values))
            for alias, q in (("amed", 0.5), ("p90", 0.9)):
                assert_rank_contained(values, row[alias], q, eps)

    def test_uplink_is_bounded_while_exact_shipping_grows(self):
        metrics = {}
        for scale in (1, 10):
            warehouse = build_flow_warehouse(
                num_flows=self.ROWS * scale, num_routers=self.SITES,
                num_source_as=self.GROUPS, seed=7)
            result = warehouse.engine.execute(self.query(),
                                              OptimizationFlags.all())
            metrics[scale] = result.metrics
            self.assert_estimates_within_bounds(
                result.relation, warehouse.engine.total_detail_relation())
        assert (metrics[10].sketch_exact_bytes
                >= 8.0 * metrics[1].sketch_exact_bytes)
        assert (metrics[10].sketch_state_bytes
                <= 2.0 * metrics[1].sketch_state_bytes)
        assert metrics[10].sketch_compression_ratio >= 10.0

    def test_sketch_states_are_delta_maintained_after_append(self):
        """Append + re-query upgrades the cached sketch states by a
        Theorem-1 delta merge: no rescan, less traffic than the cold
        recompute.  HLL is partition-insensitive, so its counts equal
        the recompute's exactly; KLL's {F_old, delta} merge tree differs
        from a single stream, so its quantiles are held to the rank
        bound against the post-append detail."""
        warehouse = build_flow_warehouse(
            num_flows=self.ROWS, num_routers=self.SITES,
            num_source_as=self.GROUPS, seed=7)
        engine = warehouse.engine
        engine.enable_cache(budget_mb=64.0)
        flags = OptimizationFlags.all()
        engine.execute(self.query(), flags)
        warm = engine.execute(self.query(), flags)
        assert warm.metrics.site_scans == 0
        engine.append(0, engine.fragment(0).head(128))
        maintained = engine.execute(self.query(), flags)
        engine.cache.clear()
        recomputed = engine.execute(self.query(), flags)
        assert maintained.metrics.cache_delta_merges > 0
        assert maintained.metrics.site_scans == 0
        assert (maintained.metrics.total_bytes
                < recomputed.metrics.total_bytes)

        def keyed(relation, column):
            return dict(zip(relation.column("SourceAS").tolist(),
                            relation.column(column).tolist()))

        for column in ("n", "acd"):
            assert keyed(maintained.relation, column) \
                == keyed(recomputed.relation, column)
        detail = engine.total_detail_relation()
        self.assert_estimates_within_bounds(maintained.relation, detail)
        self.assert_estimates_within_bounds(recomputed.relation, detail)
