"""Property tests for the vectorized residual-θ kernels.

The rewrite contract is *bit identity*: for every θ shape the batched
kernels (`_evaluate_scan_kernels`) must reproduce the retired per-base-
tuple loop (kept as ``_evaluate_scan_reference`` behind the
``reference_scan`` flag) byte for byte — same values, same dtypes, same
NaN patterns.  Randomized plans cover range-θ, folded equalities,
detail-only filters, arbitrary residuals, no-pair conditions, empty
groups, all-unmatched bases, and BYTES sketch-state columns.  The
functional range kernel (base distinct on the key) runs the same grid
on inputs that reach it, with a spy pinning which kernel ran.

Also here: the two kernel-adjacent regression fixes — ``match_codes``
integer key coding (keys ≥ 2**53 must not collide through float64) and
the integer-dtype holistic staging path.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import AggregateError
from repro.relational.aggregates import (
    AggregateFunction, AggregateSpec, _segment_sums, count_star,
    primitive_reduce, primitive_reduce_segments, register_function)
from repro.relational.expressions import b, r
from repro.relational.relation import Relation
from repro.relational.schema import Attribute
from repro.relational.types import DataType
from repro.core import evaluator
from repro.core.evaluator import (
    STATES, evaluate_gmdj, match_codes, reference_scan)
from repro.core.gmdj import Gmdj
from repro.core.builder import agg


# ---------------------------------------------------------------------------
# Scenario generation
# ---------------------------------------------------------------------------

def make_detail(rng, num_rows, num_groups, with_nan=False):
    values = rng.normal(0.0, 10.0, num_rows)
    if with_nan and num_rows:
        values[rng.integers(0, num_rows, max(1, num_rows // 10))] = np.nan
    return Relation.from_dicts([
        {"g": int(g), "v": float(v), "name": f"n{int(g) % 5}",
         "w": float(i % 7)}
        for i, (g, v) in enumerate(
            zip(rng.integers(0, max(num_groups, 1), num_rows), values))
    ] or [{"g": 0, "v": 0.0, "name": "n0", "w": 0.0}]).take(
        np.arange(num_rows))


def make_base(rng, num_rows, num_groups, unmatched=False):
    offset = 10_000 if unmatched else 0
    return Relation.from_dicts([
        {"g": int(g) + offset, "lo": float(lo), "hi": float(hi),
         "name": f"n{int(g) % 5}"}
        for g, lo, hi in zip(
            rng.integers(0, max(num_groups, 1), num_rows),
            rng.normal(-5.0, 5.0, num_rows),
            rng.normal(5.0, 5.0, num_rows))
    ] or [{"g": 0, "lo": 0.0, "hi": 0.0, "name": "n0"}]).take(
        np.arange(num_rows))


CONDITIONS = {
    "range": lambda: (r.g == b.g) & (r.v >= b.lo) & (r.v < b.hi),
    "range_open": lambda: (r.g == b.g) & (r.v > b.lo),
    "range_no_pairs": lambda: (r.v >= b.lo) & (r.v <= b.hi),
    "fold_equality": lambda: (r.g == b.g) & (r.name == b.name),
    "detail_filter": lambda: (r.g == b.g) & (r.w >= 3.0) & (r.v < b.hi),
    "base_filter": lambda: (r.g == b.g) & (b.lo <= 0.0) & (r.v >= b.lo),
    "arbitrary": lambda: (r.g == b.g) & ((r.v >= b.lo) | (r.name == b.name)),
    "no_pairs_arbitrary": lambda: (r.v >= b.lo) | (r.v <= b.hi - 20.0),
    "inset_scalar": lambda: (r.g == b.g) & r.name.isin(["n0", "n2"]),
}

AGGREGATES = [
    count_star("cnt"),
    agg("sum", "v", "total"),
    agg("avg", "v", "mean"),
    agg("min", "w", "low"),
    agg("max", "v", "high"),
    agg("var", "v", "spread"),
]


def assert_bit_identical(gmdj, base, detail, output="finalized"):
    fast = evaluate_gmdj(gmdj, base, detail, output=output)
    with reference_scan():
        slow = evaluate_gmdj(gmdj, base, detail, output=output)
    assert fast.schema == slow.schema
    for name in fast.schema.names:
        got, want = fast.column(name), slow.column(name)
        assert got.dtype == want.dtype, name
        if got.dtype == object:
            assert all(x == y or (x != x and y != y)
                       for x, y in zip(got, want)), name
        else:
            assert got.tobytes() == want.tobytes(), name
    return fast


class TestKernelBitIdentity:
    @pytest.mark.parametrize("shape", sorted(CONDITIONS))
    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_randomized_plans(self, shape, seed):
        rng = np.random.default_rng(seed)
        detail = make_detail(rng, int(rng.integers(0, 120)),
                             int(rng.integers(1, 12)),
                             with_nan=bool(rng.integers(0, 2)))
        base = make_base(rng, int(rng.integers(0, 25)),
                         int(rng.integers(1, 16)))
        gmdj = Gmdj.single(AGGREGATES, CONDITIONS[shape]())
        assert_bit_identical(gmdj, base, detail)

    @pytest.mark.parametrize("shape", ["range", "fold_equality",
                                       "arbitrary"])
    def test_all_unmatched_bases(self, shape):
        rng = np.random.default_rng(3)
        detail = make_detail(rng, 60, 6)
        base = make_base(rng, 10, 6, unmatched=True)
        result = assert_bit_identical(
            gmdj := Gmdj.single(AGGREGATES, CONDITIONS[shape]()), base,
            detail)
        assert int(result.column("cnt").sum()) == 0

    def test_empty_groups_and_empty_relations(self):
        rng = np.random.default_rng(5)
        for nd, nb in [(0, 8), (50, 0), (0, 0), (50, 8)]:
            detail = make_detail(rng, nd, 3)
            base = make_base(rng, nb, 9)  # base keys beyond detail's range
            for shape in ("range", "arbitrary", "range_no_pairs"):
                assert_bit_identical(
                    Gmdj.single(AGGREGATES, CONDITIONS[shape]()), base,
                    detail)

    def test_sketch_state_bytes_columns(self):
        rng = np.random.default_rng(11)
        detail = make_detail(rng, 80, 5)
        base = make_base(rng, 12, 7)
        specs = [count_star("cnt"),
                 AggregateSpec("approx_count_distinct", "name", "acd",
                               precision=10)]
        gmdj = Gmdj.single(specs, CONDITIONS["range"]())
        states = assert_bit_identical(gmdj, base, detail, output=STATES)
        sketch_cols = [a.name for a in states.schema
                       if a.dtype is DataType.BYTES]
        assert sketch_cols, "expected a BYTES sketch state column"

    def test_nan_range_bounds_give_empty_windows(self):
        rng = np.random.default_rng(13)
        detail = make_detail(rng, 40, 4)
        base = Relation.from_dicts([
            {"g": 1, "lo": float("nan"), "hi": 5.0, "name": "n1"},
            {"g": 2, "lo": -50.0, "hi": 50.0, "name": "n2"},
        ])
        gmdj = Gmdj.single(AGGREGATES, CONDITIONS["range"]())
        result = assert_bit_identical(gmdj, base, detail)
        assert int(result.column("cnt")[0]) == 0


# ---------------------------------------------------------------------------
# The functional range kernel (base distinct on the equi key)
# ---------------------------------------------------------------------------

def functional_detail(rng, num_rows, num_groups, with_nan=False):
    """``g`` key, float ``v`` (optionally with NaNs), int ``q``, ``w``."""
    values = rng.normal(0.0, 10.0, num_rows)
    if with_nan:
        values[rng.integers(0, num_rows, max(1, num_rows // 8))] = np.nan
    return Relation.from_dicts([
        {"g": int(g), "v": float(v), "q": int(q), "w": float(i % 7),
         "name": f"n{i % 5}"}
        for i, (g, v, q) in enumerate(zip(
            rng.integers(0, num_groups, num_rows), values,
            rng.integers(-20, 20, num_rows)))])


def functional_base(rng, num_groups, nan_bounds=False, unmatched=0):
    """One base row per key, in shuffled key order; ``unmatched`` extra
    rows carry keys the detail side does not have."""
    keys = rng.permutation(num_groups + unmatched)
    lows = rng.normal(-5.0, 5.0, len(keys))
    if nan_bounds:
        lows[::3] = np.nan
    return Relation.from_dicts([
        {"g": int(g) if g < num_groups else 10_000 + int(g),
         "lo": float(lo), "hi": float(hi), "n": int(n)}
        for g, lo, hi, n in zip(keys, lows,
                                rng.normal(5.0, 5.0, len(keys)),
                                rng.integers(-10, 10, len(keys)))])


FUNCTIONAL_CONDITIONS = {
    "range": lambda: (r.g == b.g) & (r.v >= b.lo),
    "two_sided": lambda: (r.g == b.g) & (r.v >= b.lo) & (r.v < b.hi),
    "flipped": lambda: (r.g == b.g) & (b.lo <= r.v) & (b.hi > r.v),
    "detail_filter": lambda: (r.g == b.g) & (r.w >= 3.0) & (r.v < b.hi),
    "knocked_out_bases": lambda: (
        (r.g == b.g) & (b.lo <= 0.0) & (r.v >= b.lo)),
    "int_detail_float_bound": lambda: (r.g == b.g) & (r.q >= b.lo * 2.0),
    "float_detail_int_bound": lambda: (r.g == b.g) & (r.v <= b.n),
    "int_detail_int_bound": lambda: (r.g == b.g) & (r.q > b.n),
    "expression_detail": lambda: (
        (r.g == b.g) & (r.v * 2.0 >= b.lo) & (r.v * 2.0 < b.hi + 30.0)),
}


class KernelSpy:
    """Which segment kernel(s) an evaluation went through."""

    def __init__(self, monkeypatch):
        self.calls: list[str] = []
        for name in ("_functional_segments", "_interval_segments"):
            monkeypatch.setattr(evaluator, name,
                                self._wrap(name, getattr(evaluator, name)))

    def _wrap(self, name, original):
        def spied(*args, **kwargs):
            self.calls.append(name)
            return original(*args, **kwargs)
        return spied


class TestFunctionalRangeKernel:
    @pytest.mark.parametrize("with_nan", [False, True],
                             ids=["finite", "nan_detail"])
    @pytest.mark.parametrize("nan_bounds", [False, True],
                             ids=["bounds", "nan_bounds"])
    @pytest.mark.parametrize("shape", sorted(FUNCTIONAL_CONDITIONS))
    def test_bit_identical_on_functional_inputs(self, shape, nan_bounds,
                                                with_nan, monkeypatch):
        for seed in range(6):
            rng = np.random.default_rng([seed, nan_bounds, with_nan])
            num_groups = int(rng.integers(1, 14))
            detail = functional_detail(rng, int(rng.integers(1, 200)),
                                       num_groups, with_nan)
            base = functional_base(rng, num_groups, nan_bounds,
                                   unmatched=int(rng.integers(0, 4)))
            spy = KernelSpy(monkeypatch)
            assert_bit_identical(
                Gmdj.single(AGGREGATES, FUNCTIONAL_CONDITIONS[shape]()),
                base, detail)
            assert spy.calls == ["_functional_segments"]
            monkeypatch.undo()

    def test_sketch_and_holistic_aggregates(self, monkeypatch):
        rng = np.random.default_rng(17)
        detail = functional_detail(rng, 150, 6)
        base = functional_base(rng, 6, unmatched=2)
        condition = FUNCTIONAL_CONDITIONS["two_sided"]
        spy = KernelSpy(monkeypatch)
        states = assert_bit_identical(
            Gmdj.single([count_star("cnt"),
                         AggregateSpec("approx_count_distinct", "name",
                                       "acd", precision=10),
                         agg("approx_median", "v", "amed")], condition()),
            base, detail, output=STATES)
        assert sum(a.dtype is DataType.BYTES for a in states.schema) == 2
        assert_bit_identical(
            Gmdj.single([agg("median", "v", "med"),
                         agg("count_distinct", "name", "dn")], condition()),
            base, detail)
        assert spy.calls == ["_functional_segments"] * 2

    def test_long_groups_reach_the_batched_sums(self, monkeypatch):
        # groups of a few hundred rows: the selected segments are well
        # past the pairwise threshold, in many distinct lengths
        rng = np.random.default_rng(23)
        detail = functional_detail(rng, 3000, 9)
        base = functional_base(rng, 9)
        spy = KernelSpy(monkeypatch)
        result = assert_bit_identical(
            Gmdj.single(AGGREGATES, FUNCTIONAL_CONDITIONS["range"]()),
            base, detail)
        assert spy.calls == ["_functional_segments"]
        assert int(result.column("cnt").min()) > 8

    def test_one_duplicate_base_key_takes_the_interval_kernel(
            self, monkeypatch):
        rng = np.random.default_rng(29)
        detail = functional_detail(rng, 120, 8)
        distinct = functional_base(rng, 8)
        duplicated = Relation.concat([distinct, distinct.take([3])])
        gmdj = Gmdj.single(AGGREGATES, FUNCTIONAL_CONDITIONS["two_sided"]())
        spy = KernelSpy(monkeypatch)
        assert_bit_identical(gmdj, duplicated, detail)
        assert spy.calls == ["_interval_segments"]
        # ... unless the duplicate is knocked out before the kernel runs
        spy.calls.clear()
        keyed = duplicated.append_columns(
            [Attribute("live", DataType.BOOL)],
            {"live": np.arange(duplicated.num_rows) < distinct.num_rows})
        assert_bit_identical(
            Gmdj.single(AGGREGATES,
                        FUNCTIONAL_CONDITIONS["two_sided"]() & b.live),
            keyed, detail)
        assert spy.calls == ["_functional_segments"]

    def test_string_ranges(self, monkeypatch):
        detail = Relation.from_dicts([
            {"g": i % 3, "s": f"s{(i * 7) % 10}", "v": float(i)}
            for i in range(40)])
        base = Relation.from_dicts([
            {"g": 2, "low": "s3"}, {"g": 0, "low": "s7"}, {"g": 5, "low": ""}])
        spy = KernelSpy(monkeypatch)
        assert_bit_identical(
            Gmdj.single([count_star("cnt"), agg("sum", "v", "total")],
                        (r.g == b.g) & (r.s >= b.low)), base, detail)
        assert spy.calls == ["_functional_segments"]


# ---------------------------------------------------------------------------
# Segmented reductions (the kernels' aggregation backend)
# ---------------------------------------------------------------------------

class TestSegmentedReductions:
    @pytest.mark.parametrize("primitive", ["sum", "min", "max", "sumsq",
                                           "m2"])
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_bitwise_matches_per_segment_reduce(self, primitive, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 200))
        values = rng.normal(0.0, 100.0, n)
        # strictly increasing starts < n: every segment is non-empty,
        # as primitive_reduce_segments' contract requires
        starts = np.unique(rng.integers(0, n, int(rng.integers(1, 20))))
        segments = primitive_reduce_segments(primitive, values,
                                             starts.astype(np.int64))
        bounds = np.append(starts, n)
        for i, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            expected = primitive_reduce(primitive, values[lo:hi])
            got, want = np.float64(segments[i]), np.float64(expected)
            assert got.tobytes() == want.tobytes(), (primitive, i)

    def test_short_segment_sequential_sum_property(self):
        # numpy's pairwise summation only kicks in at 8 elements; the
        # short-segment vectorized path in _segment_sums relies on
        # sequential left-to-right adds being bit-identical below that.
        rng = np.random.default_rng(99)
        for n in range(8):
            for _ in range(200):
                values = rng.normal(0.0, 1e6, n)
                acc = np.float64(0.0) if n == 0 else np.float64(values[0])
                for x in values[1:]:
                    acc = acc + x
                assert np.float64(values.sum()).tobytes() == acc.tobytes()

    def test_batched_sums_equal_per_segment_sums_at_every_length(self):
        # _segment_sums reduces the segments of one length as the rows
        # of a matrix; sum(axis=1) must run the pairwise routine a 1-D
        # .sum() runs, for every length on both sides of NumPy's block
        # boundaries (8, 128 and their multiples).  Every length runs as
        # a one-row batch; multi-row batches run within 8 of each block
        # boundary (multiples of 8 up to 256, of 128 up to 4096).
        every = np.arange(1, 4098)
        offset = np.abs(every[:, None] - np.concatenate(
            [np.arange(8, 257, 8), np.arange(128, 4097, 128)])).min(axis=1)
        near = every[offset <= 8]
        rng = np.random.default_rng(7)
        for lengths in (every, np.tile(near, 2), np.tile(near, 5)):
            starts = np.cumsum(lengths) - lengths
            values = rng.normal(0.0, 1.0, int(lengths.sum())) * \
                10.0 ** rng.integers(-8, 8, int(lengths.sum()))
            batched = _segment_sums(values, starts, lengths)
            one_by_one = np.array([values[start:start + length].sum()
                                   for start, length in zip(starts, lengths)])
            assert batched.tobytes() == one_by_one.tobytes()

    def test_bool_sum_counts_not_ors(self):
        values = np.array([True, True, False, True])
        out = primitive_reduce_segments("sum", values,
                                        np.array([0, 2], dtype=np.int64))
        assert out.tolist() == [2, 1]


# ---------------------------------------------------------------------------
# match_codes: integer join keys must not round through float64
# ---------------------------------------------------------------------------

class TestMatchCodesLargeKeys:
    def test_keys_above_2_53_stay_distinct(self):
        # 2**53 and 2**53 + 1 are the smallest adjacent int64 pair that
        # collide when staged through float64 — the pre-fix coding
        # merged them into one group (wrong aggregates, no error).
        k0, k1 = 2**53, 2**53 + 1
        base = Relation.from_dicts([{"k": k0}, {"k": k1}])
        detail = Relation.from_dicts([{"k": k0}, {"k": k0}, {"k": k1}])
        base_codes, detail_codes, num_groups = match_codes(
            base, ["k"], detail, ["k"])
        assert num_groups == 2
        assert base_codes[0] != base_codes[1]
        counts = np.bincount(detail_codes, minlength=num_groups)
        assert sorted(counts.tolist()) == [1, 2]

    def test_large_keys_through_full_evaluation(self):
        k0, k1 = 2**53, 2**53 + 1
        base = Relation.from_dicts([{"g": k0}, {"g": k1}])
        detail = Relation.from_dicts(
            [{"g": k0, "v": 1.0}, {"g": k0, "v": 2.0}, {"g": k1, "v": 8.0}])
        gmdj = Gmdj.single([count_star("cnt"), agg("sum", "v", "s")],
                           r.g == b.g)
        result = evaluate_gmdj(gmdj, base, detail)
        assert result.column("cnt").tolist() == [2, 1]
        assert result.column("s").tolist() == [3.0, 8.0]

    def test_mixed_int_float_keys_still_match(self):
        base = Relation.from_dicts([{"k": 2.0}, {"k": 3.5}])
        detail = Relation.from_dicts([{"k": 2}, {"k": 2}, {"k": 4}])
        base_codes, detail_codes, num_groups = match_codes(
            base, ["k"], detail, ["k"])
        assert base_codes[0] >= 0  # 2.0 matches integer 2
        assert base_codes[1] == -1


# ---------------------------------------------------------------------------
# Holistic staging dtype (INT64 outputs must not stage through float64)
# ---------------------------------------------------------------------------

class _BigIdHolistic(AggregateFunction):
    """Holistic test double whose INT64 output exceeds 2**53."""

    name = "test_big_id"
    decomposable = False

    def output_dtype(self, input_dtype):
        return DataType.INT64

    def state_primitives(self):
        raise AggregateError("holistic: no bounded state")

    def compute(self, values, count):
        if values is None or count == 0:
            return 0
        return int(values.max())


register_function(_BigIdHolistic())


class TestHolisticIntegerStaging:
    BIG = 2**53 + 1  # survives int64, rounds to 2**53 in float64

    def _relations(self):
        detail = Relation.from_dicts(
            [{"g": 0, "id": self.BIG}, {"g": 0, "id": 7},
             {"g": 1, "id": self.BIG - 2}])
        base = Relation.from_dicts([{"g": 0}, {"g": 1}, {"g": 2}])
        return base, detail

    def test_grouped_path_exact(self):
        base, detail = self._relations()
        gmdj = Gmdj.single([agg("test_big_id", "id", "big")], r.g == b.g)
        result = evaluate_gmdj(gmdj, base, detail)
        assert result.column("big").dtype == np.int64
        assert result.column("big").tolist() == [self.BIG, self.BIG - 2, 0]

    def test_scan_path_exact_and_bit_identical(self):
        base, detail = self._relations()
        gmdj = Gmdj.single([agg("test_big_id", "id", "big")],
                           (r.g == b.g) & (r.id >= 0))
        result = assert_bit_identical(gmdj, base, detail)
        assert result.column("big").dtype == np.int64
        assert result.column("big").tolist() == [self.BIG, self.BIG - 2, 0]

    def test_builtin_holistics_keep_declared_dtypes(self):
        rng = np.random.default_rng(2)
        detail = make_detail(rng, 50, 4)
        base = make_base(rng, 8, 6)
        gmdj = Gmdj.single(
            [agg("count_distinct", "name", "dn"),
             agg("median", "v", "med")], r.g == b.g)
        result = evaluate_gmdj(gmdj, base, detail)
        assert result.column("dn").dtype == np.int64
        assert result.column("med").dtype == np.float64
