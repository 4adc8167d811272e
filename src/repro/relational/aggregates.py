"""Aggregate functions with sub-/super-aggregate decomposition.

Skalla's synchronization step (Theorem 1 of the paper) relies on every
aggregate being decomposable, in the sense of Gray et al. [12], into

* **sub-aggregates** — distributive *state* columns computed per site over
  a partition of the detail relation, and
* **super-aggregates** — a merge of state columns at the coordinator,
  followed by a *finalize* step producing the user-visible value.

Every aggregate here is described by a list of :class:`StateField`
primitives (``count``, ``sum``, ``min``, ``max``, ``sumsq``, ``m2``,
plus the sketch primitives ``hll<p>``/``kll<k>``) and a finalizer.
Distributive aggregates (COUNT, SUM, MIN, MAX) have a single state;
algebraic ones (AVG, VAR, STDDEV) have several.  *Exact* holistic
aggregates (MEDIAN, COUNT DISTINCT) cannot be decomposed — they
evaluate centrally but raise :class:`~repro.errors.AggregateError` when
a distributed plan asks for their state fields.  Their *approximate*
counterparts (APPROX_COUNT_DISTINCT, APPROX_MEDIAN, APPROX_PERCENTILE)
**are** decomposable: the state is a bounded mergeable sketch
(:mod:`repro.sketches`) serialized into a BYTES column, so Theorem-1
synchronization and Theorem-2's traffic bound apply unchanged.

VAR/STDDEV use the numerically stable ``(count, sum, m2)`` state with
``m2 = Σ (x − mean)²`` merged by Chan et al.'s pairwise formula — the
textbook ``E[x²] − E[x]²`` form cancels catastrophically on
large-magnitude measures (1e9-offset values lose *all* significant
digits in float64).  Because the m2 merge needs the sibling count/sum
columns, :class:`VarFunction` declares ``composite_merge`` and the
engine's merge paths go through :func:`merge_spec_states_grouped`
instead of merging each primitive independently.

Empty-group semantics (the engine represents SQL NULL as NaN):

* ``count`` / ``count_distinct``-style → 0;
* ``sum``   → 0 (of the column type);
* ``min``/``max``/``avg``/``var``/``stddev``/``median``/percentiles →
  NaN (these always produce FLOAT64 output columns), rendered as
  ``NULL`` by presentation layers.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.errors import AggregateError, SchemaError
from repro.relational.factorize import group_runs, iter_groups
from repro.relational.schema import Attribute, Schema
from repro.relational.types import DataType
from repro.sketches import hll, kll
from repro.sketches.hll import (
    DEFAULT_PRECISION as HLL_DEFAULT_PRECISION,
    MAX_PRECISION as HLL_MAX_PRECISION, MIN_PRECISION as HLL_MIN_PRECISION)
from repro.sketches.kll import (
    DEFAULT_K as KLL_DEFAULT_K, MAX_K as KLL_MAX_K, MIN_K as KLL_MIN_K)

# ---------------------------------------------------------------------------
# Distributive primitives
# ---------------------------------------------------------------------------

def _reduce_m2(values: np.ndarray) -> float:
    """``Σ (x − mean)²`` — the shifted/centered second moment."""
    if not len(values):
        return 0.0
    floats = values.astype(np.float64)
    deviations = floats - floats.mean()
    return float(np.square(deviations).sum())


#: name -> (empty value, reduce over values, merge two states)
_PRIMITIVES: dict[str, tuple[object, Callable, Callable | None]] = {
    "count": (0, lambda v: len(v), np.add),
    "sum": (0, lambda v: v.sum() if len(v) else 0, np.add),
    "sumsq": (0.0, lambda v: float(np.square(v, dtype=np.float64).sum()),
              np.add),
    # m2 has no standalone merge: it needs the sibling count/sum columns
    # (Chan's formula) — see VarFunction.merge_grouped_states.
    "m2": (0.0, _reduce_m2, None),
    "min": (np.nan, lambda v: float(v.min()) if len(v) else np.nan, np.fmin),
    "max": (np.nan, lambda v: float(v.max()) if len(v) else np.nan, np.fmax),
}


# -- sketch primitives (dynamic names: "hll<p>" / "kll<k>") -----------------

def sketch_primitive(name: str) -> tuple[str, int] | None:
    """Parse a sketch primitive name into ``(kind, parameter)``.

    ``"hll12"`` → ``("hll", 12)`` (HyperLogLog, precision ``p``);
    ``"kll200"`` → ``("kll", 200)`` (quantile sketch, parameter ``k``).
    Returns ``None`` for non-sketch primitive names.  Encoding the
    parameter in the primitive — and therefore in the state-column name
    — means every process that sees a state column knows exactly how to
    deserialize and merge it: nothing rides on ambient configuration.
    """
    for kind in ("hll", "kll"):
        if name.startswith(kind) and name[len(kind):].isdigit():
            return kind, int(name[len(kind):])
    return None


@functools.lru_cache(maxsize=64)
def _empty_sketch_bytes(name: str) -> bytes:
    return primitive_reduce(name, np.empty(0))


def primitive_empty(name: str) -> object:
    """The state value of an empty multiset for primitive ``name``."""
    if sketch_primitive(name) is not None:
        return _empty_sketch_bytes(name)
    return _PRIMITIVES[name][0]


def primitive_reduce(name: str, values: np.ndarray) -> object:
    """Reduce a vector of input values to a single state value."""
    if sketch_primitive(name) is not None:
        return primitive_reduce_segments(name, np.asarray(values),
                                         np.zeros(1, dtype=np.int64))[0]
    return _PRIMITIVES[name][1](values)


def primitive_merge(name: str, left, right):
    """Merge two state values (or state arrays, elementwise)."""
    if sketch_primitive(name) is not None:
        scalar = isinstance(left, bytes) and isinstance(right, bytes)
        left_array = np.asarray(left, dtype=object).reshape(-1)
        right_array = np.asarray(right, dtype=object).reshape(-1)
        size = max(len(left_array), len(right_array))
        positions = np.arange(size)
        merged = merge_grouped(
            name, np.concatenate([positions, positions]),
            np.concatenate([np.resize(left_array, size),
                            np.resize(right_array, size)]), size)
        return merged[0] if scalar else merged
    merge = _PRIMITIVES[name][2]
    if merge is None:
        raise AggregateError(
            f"primitive {name!r} has no standalone merge; it merges "
            f"jointly with its sibling state columns "
            f"(see merge_spec_states_grouped)")
    return merge(left, right)


#: Array kinds whose addition is exact and associative, so segmented
#: sums may be computed in any grouping (``np.add.reduceat``) and still
#: match a per-segment ``.sum()`` bit for bit.  Floats are excluded:
#: NumPy's pairwise summation is grouping-dependent, so float segments
#: must reduce through the very same ``.sum()`` call the scalar
#: reference uses.
_EXACT_SUM_KINDS = "iub"


#: NumPy's pairwise summation runs a plain left-to-right loop below this
#: length and switches to 8-way unrolled accumulation at it, so a
#: vectorized sequential accumulation is bit-identical to ``.sum()``
#: exactly for segments shorter than 8 (verified by tests/test_kernels.py).
_PAIRWISE_THRESHOLD = 8

#: float64 holds every integer of smaller magnitude exactly.
_FLOAT_EXACT_LIMIT = 2 ** 53


def _int_grouped_sums(codes: np.ndarray, values: np.ndarray,
                      num_groups: int) -> np.ndarray:
    """Exact per-group sums of a signed-integer column.

    The float ``bincount`` is exact when no partial sum can reach 2^53
    (``max|v| · n < 2^53``) — the common, fast case; otherwise the sums
    accumulate in int64.
    """
    if len(values):
        bound = max(abs(int(values.max())), abs(int(values.min())))
        if bound * len(values) >= _FLOAT_EXACT_LIMIT:
            sums = np.zeros(num_groups, dtype=np.int64)
            np.add.at(sums, codes, values)
            return sums
    return np.bincount(codes, weights=values.astype(np.float64),
                       minlength=num_groups).astype(np.int64)


def _segment_sums(values: np.ndarray, starts: np.ndarray,
                  lengths: np.ndarray) -> np.ndarray:
    """Per-segment float sums, bit-identical to ``values[s:e].sum()``.

    Segments shorter than :data:`_PAIRWISE_THRESHOLD` accumulate
    left-to-right in at most 7 vectorized add steps.  Longer segments
    are reduced in batches of equal length: the segments of one length
    ``L`` are gathered into a C-contiguous ``(count, L)`` matrix whose
    ``sum(axis=1)`` runs NumPy's pairwise routine once per row — the
    very routine a 1-D ``.sum()`` of ``L`` contiguous values runs
    (verified by tests/test_kernels.py for every L up to 4097).
    """
    result = np.empty(len(starts), dtype=np.float64)
    short = lengths < _PAIRWISE_THRESHOLD
    if short.any():
        short_starts = starts[short]
        short_lengths = lengths[short]
        acc = values[short_starts].astype(np.float64)
        for step in range(1, int(short_lengths.max())):
            live = short_lengths > step
            acc[live] = acc[live] + values[short_starts[live] + step]
        result[short] = acc
    long = np.flatnonzero(~short)
    if len(long):
        long_lengths = lengths[long]
        for length, batch in iter_groups(long_lengths,
                                         int(long_lengths.max()) + 1):
            segments = long[batch]
            result[segments] = values[
                starts[segments, None] + np.arange(length)].sum(axis=1)
    return result


def primitive_reduce_segments(name: str, values: np.ndarray,
                              starts: np.ndarray) -> np.ndarray:
    """Reduce contiguous, non-empty value segments to one state each.

    ``values`` holds the concatenated input values of every segment;
    ``starts`` are the strictly increasing start offsets (segment ``i``
    spans ``values[starts[i]:starts[i+1]]``, the last segment runs to the
    end).  The result is **bit-identical** to calling
    :func:`primitive_reduce` on each segment in isolation: min/max and
    integer sums are associative and vectorize through ``reduceat``;
    float sums, ``sumsq`` and ``m2`` replicate the scalar reduction per
    segment (NumPy's pairwise float summation is grouping-sensitive, so
    there is no faster bit-faithful path); sketch states come from the
    same grouped kernel :func:`primitive_grouped` uses, with one group
    per segment.
    """
    if name == "count":
        raise AggregateError(
            "count needs no input values; use the segment lengths")
    if len(starts) == 0:
        return np.empty(0, dtype=values.dtype if name in ("min", "max")
                        else np.float64)
    if name in ("min", "max"):
        ufunc = np.minimum if name == "min" else np.maximum
        return ufunc.reduceat(values, starts)
    if name == "sum" and values.dtype.kind in _EXACT_SUM_KINDS:
        if values.dtype.kind == "b":
            # reduceat would OR booleans; .sum() counts them.
            values = values.astype(np.int64)
        return np.add.reduceat(values, starts)
    bounds = np.append(starts, len(values))
    if name == "sum":
        return _segment_sums(values, starts, np.diff(bounds))
    if name == "sumsq":
        squares = np.square(values, dtype=np.float64)
        return _segment_sums(squares, starts, np.diff(bounds))
    if name == "m2":
        return np.array([_reduce_m2(values[s:e])
                         for s, e in zip(bounds[:-1], bounds[1:])])
    sketch = sketch_primitive(name)
    if sketch is not None:
        kind, parameter = sketch
        sizes = np.diff(bounds)
        if kind == "kll":
            return kll.grouped_states(values, starts, sizes, parameter)
        codes = np.repeat(np.arange(len(starts)), sizes)
        return hll.grouped_states(codes, values, len(starts), parameter)
    raise AggregateError(f"unknown primitive {name!r}")


def primitive_grouped(name: str, codes: np.ndarray, values: np.ndarray | None,
                      num_groups: int) -> np.ndarray:
    """Vectorized per-group reduction.

    ``codes`` assigns each detail row to a group in ``[0, num_groups)``;
    ``values`` is the input column (``None`` for ``count``).  Returns one
    state value per group, including empty-group defaults.
    """
    if name == "count":
        return np.bincount(codes, minlength=num_groups).astype(np.int64)
    if values is None:
        raise AggregateError(f"primitive {name!r} requires an input column")
    if name == "sum":
        if values.dtype.kind == "i":
            return _int_grouped_sums(codes, values, num_groups)
        return np.bincount(codes, weights=values.astype(np.float64),
                           minlength=num_groups)
    if name == "sumsq":
        squares = np.square(values.astype(np.float64))
        return np.bincount(codes, weights=squares, minlength=num_groups)
    if name == "m2":
        floats = values.astype(np.float64)
        counts = np.bincount(codes, minlength=num_groups).astype(np.float64)
        sums = np.bincount(codes, weights=floats, minlength=num_groups)
        with np.errstate(divide="ignore", invalid="ignore"):
            means = np.where(counts > 0, sums / counts, 0.0)
        deviations = floats - means[codes]
        return np.bincount(codes, weights=np.square(deviations),
                           minlength=num_groups)
    if name in ("min", "max"):
        result = np.full(num_groups, np.nan)
        ufunc = np.fmin if name == "min" else np.fmax
        ufunc.at(result, codes, values.astype(np.float64))
        return result
    sketch = sketch_primitive(name)
    if sketch is not None:
        kind, parameter = sketch
        if kind == "hll":
            return hll.grouped_states(codes, values, num_groups, parameter)
        order, starts, sizes = group_runs(codes, num_groups)
        return kll.grouped_states(values[order], starts, sizes, parameter)
    raise AggregateError(f"unknown primitive {name!r}")


def merge_grouped(name: str, codes: np.ndarray, states: np.ndarray,
                  num_groups: int) -> np.ndarray:
    """Vectorized per-group *merge* of sub-aggregate state values.

    This is the coordinator's super-aggregation (Theorem 1): ``states``
    holds one sub-aggregate value per incoming row, ``codes`` maps each
    row to its base group.  Counts/sums/sumsqs merge by addition;
    mins/maxes by NaN-ignoring min/max; sketches by one column kernel
    (HLL register-wise max, KLL k-way merge).  Groups no row maps to
    receive the primitive's empty value.
    """
    if name in ("count", "sum", "sumsq"):
        if states.dtype.kind == "i":
            return _int_grouped_sums(codes, states, num_groups)
        return np.bincount(codes, weights=states.astype(np.float64),
                           minlength=num_groups)
    if name in ("min", "max"):
        merged = np.full(num_groups, np.nan)
        ufunc = np.fmin if name == "min" else np.fmax
        ufunc.at(merged, codes, states.astype(np.float64))
        return merged
    sketch = sketch_primitive(name)
    if sketch is not None:
        kind, parameter = sketch
        if kind == "hll":
            return hll.merge_states(codes, states, num_groups, parameter)
        order, starts, sizes = group_runs(codes, num_groups)
        return kll.merge_states(states[order], starts, sizes, parameter)
    if name == "m2":
        raise AggregateError(
            "m2 has no standalone merge (Chan's formula needs count/sum); "
            "use merge_spec_states_grouped")
    raise AggregateError(f"unknown primitive {name!r}")


def primitive_dtype(name: str, input_dtype: DataType | None) -> DataType:
    """Datatype of the state column for primitive ``name``."""
    if name == "count":
        return DataType.INT64
    if name == "sum":
        if input_dtype is None:
            raise AggregateError("sum requires an input column")
        return input_dtype
    if sketch_primitive(name) is not None:
        return DataType.BYTES
    return DataType.FLOAT64


def place_grouped(field: "StateField", per_group: np.ndarray | None,
                  matched: np.ndarray, gather: np.ndarray,
                  num_rows: int) -> np.ndarray:
    """Scatter per-group state values onto base rows (BYTES-safe).

    ``per_group`` holds one merged/reduced state per group (``None``
    when there are no groups at all); unmatched rows receive the
    primitive's empty value.  BYTES columns take the masked-assignment
    path: ``np.where``/``np.full`` with a ``bytes`` scalar would build a
    fixed-width ``'S'`` array and silently strip trailing NUL bytes —
    corrupting serialized sketches.
    """
    empty = primitive_empty(field.primitive)
    if field.dtype is DataType.BYTES:
        placed = np.empty(num_rows, dtype=object)
        placed.fill(empty)
        if per_group is not None and len(per_group):
            indices = np.flatnonzero(matched)
            placed[indices] = per_group[gather[indices]]
        return placed
    if per_group is not None and len(per_group):
        placed = np.where(matched, per_group[gather], empty)
    else:
        placed = np.full(num_rows, empty, dtype=np.float64)
    if (field.dtype is DataType.INT64
            and np.asarray(placed).dtype.kind == "f"):
        placed = np.round(placed)
    return placed.astype(field.dtype.numpy_dtype)


def merge_spec_states_grouped(spec: "AggregateSpec", detail_schema: Schema,
                              codes: np.ndarray,
                              columns: Mapping[str, np.ndarray],
                              num_groups: int) -> dict[str, np.ndarray]:
    """Per-group Theorem-1 merge of *all* state columns of one spec.

    ``columns`` maps state-column names to the incoming (stacked)
    sub-aggregate arrays; the result maps the same names to per-group
    merged arrays.  Functions with ``composite_merge`` (VAR/STDDEV's
    Chan-formula m2) merge their fields jointly; everything else merges
    field-by-field through :func:`merge_grouped`.
    """
    fields = spec.state_fields(detail_schema)
    function = spec.function
    if function.composite_merge:
        by_primitive = {field.primitive: columns[field.name]
                        for field in fields}
        merged = function.merge_grouped_states(codes, by_primitive,
                                               num_groups)
        return {field.name: merged[field.primitive] for field in fields}
    return {field.name: merge_grouped(field.primitive, codes,
                                      columns[field.name], num_groups)
            for field in fields}


# ---------------------------------------------------------------------------
# Aggregate functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StateField:
    """One distributive state column of an aggregate.

    ``name`` is the full column name in the sub-aggregate schema,
    ``primitive`` selects merge/reduce behaviour, ``dtype`` is the state
    column type.
    """

    name: str
    primitive: str
    dtype: DataType


class AggregateFunction:
    """Behaviour of one aggregate function (COUNT, SUM, AVG, ...)."""

    #: registry key, e.g. ``"avg"``
    name: str = ""
    #: whether the aggregate admits sub-/super-aggregate decomposition
    decomposable: bool = True
    #: whether an input column is required (COUNT(*) has none)
    requires_column: bool = True
    #: whether the state columns must merge jointly (cross-field
    #: formulas like Chan's m2 merge) instead of primitive-by-primitive
    composite_merge: bool = False
    #: whether states grouped at one granularity may be re-merged to a
    #: coarser grouping (Theorem 1 applied up the cuboid lattice).
    #: True for every built-in decomposable aggregate; an extension
    #: whose state depends on the grouping itself must opt out, and the
    #: cube executor then falls back to one round per cuboid.
    rollup_safe: bool = True

    def configured(self, param: float | None = None,
                   precision: int | None = None) -> "AggregateFunction":
        """A variant configured with a call parameter / sketch precision.

        Most functions take neither and reject both; sketch aggregates
        override this to return a configured instance.  Configuration
        always flows through the :class:`AggregateSpec` (which travels
        by pickle to worker processes), never through mutable module
        state — so every process derives identical state-column names
        and merge behaviour.
        """
        if param is not None:
            raise AggregateError(
                f"{self.name.upper()} takes no parameter")
        if precision is not None:
            raise AggregateError(
                f"{self.name.upper()} has no sketch precision")
        return self

    def merge_grouped_states(self, codes: np.ndarray,
                             states: Mapping[str, np.ndarray],
                             num_groups: int) -> dict[str, np.ndarray]:
        """Joint per-group merge of all state columns (composite only)."""
        raise AggregateError(
            f"{self.name.upper()} does not declare composite_merge")

    def output_dtype(self, input_dtype: DataType | None) -> DataType:
        raise NotImplementedError

    def state_primitives(self) -> tuple[str, ...]:
        """Primitives backing this aggregate, in a canonical order."""
        raise NotImplementedError

    def finalize(self, states: Mapping[str, np.ndarray]) -> np.ndarray:
        """Combine merged state arrays (keyed by primitive) into output."""
        raise NotImplementedError

    def compute(self, values: np.ndarray | None, count: int) -> object:
        """Directly compute the aggregate of one multiset (centralized)."""
        states = {}
        for primitive in self.state_primitives():
            if primitive == "count":
                states[primitive] = np.array([count])
            else:
                assert values is not None
                states[primitive] = np.array(
                    [primitive_reduce(primitive, values)])
        return self.finalize(states)[0]


class CountFunction(AggregateFunction):
    """COUNT(*) or COUNT(col) — the engine has no NULLs so both agree."""

    name = "count"
    requires_column = False

    def output_dtype(self, input_dtype):
        return DataType.INT64

    def state_primitives(self):
        return ("count",)

    def finalize(self, states):
        return states["count"].astype(np.int64)


class SumFunction(AggregateFunction):
    name = "sum"

    def output_dtype(self, input_dtype):
        if input_dtype is None or not input_dtype.is_numeric:
            raise AggregateError("SUM requires a numeric input column")
        return input_dtype

    def state_primitives(self):
        return ("sum",)

    def finalize(self, states):
        return states["sum"]


class MinFunction(AggregateFunction):
    name = "min"

    def output_dtype(self, input_dtype):
        if input_dtype is None or not input_dtype.is_numeric:
            raise AggregateError("MIN requires a numeric input column")
        return DataType.FLOAT64

    def state_primitives(self):
        return ("min",)

    def finalize(self, states):
        return states["min"]


class MaxFunction(AggregateFunction):
    name = "max"

    def output_dtype(self, input_dtype):
        if input_dtype is None or not input_dtype.is_numeric:
            raise AggregateError("MAX requires a numeric input column")
        return DataType.FLOAT64

    def state_primitives(self):
        return ("max",)

    def finalize(self, states):
        return states["max"]


class AvgFunction(AggregateFunction):
    """AVG = SUM / COUNT — the canonical algebraic aggregate."""

    name = "avg"

    def output_dtype(self, input_dtype):
        if input_dtype is None or not input_dtype.is_numeric:
            raise AggregateError("AVG requires a numeric input column")
        return DataType.FLOAT64

    def state_primitives(self):
        return ("sum", "count")

    def finalize(self, states):
        counts = states["count"].astype(np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(counts > 0,
                            states["sum"].astype(np.float64) / counts, np.nan)


class VarFunction(AggregateFunction):
    """Population variance via the stable ``(count, sum, m2)`` state.

    ``m2 = Σ (x − mean)²`` is computed *centered* per partition and
    merged with Chan et al.'s pairwise formula — never through the
    catastrophically-cancelling ``E[x²] − E[x]²`` identity, which loses
    every significant digit on large-magnitude measures (e.g. TPC-R
    prices offset to 1e9).  The three primitives remain mergeable
    Theorem-1 state columns; only their merge is *joint* (the m2 merge
    needs the sibling counts and sums), hence ``composite_merge``.
    """

    name = "var"
    composite_merge = True

    def output_dtype(self, input_dtype):
        if input_dtype is None or not input_dtype.is_numeric:
            raise AggregateError("VAR requires a numeric input column")
        return DataType.FLOAT64

    def state_primitives(self):
        return ("count", "sum", "m2")

    def merge_grouped_states(self, codes, states, num_groups):
        """Chan's parallel-variance merge, vectorized over groups.

        ``M2 = Σ_i M2_i + Σ_i n_i (mean_i − mean)²`` — every term is
        non-negative, so merged variances cannot go (more than
        round-off) negative, unlike the sumsq formulation.
        """
        counts = states["count"].astype(np.float64)
        sums = states["sum"].astype(np.float64)
        m2s = states["m2"].astype(np.float64)
        counts_merged = np.bincount(codes, weights=counts,
                                    minlength=num_groups)
        sums_merged = np.bincount(codes, weights=sums, minlength=num_groups)
        with np.errstate(divide="ignore", invalid="ignore"):
            means_merged = np.where(counts_merged > 0,
                                    sums_merged / counts_merged, 0.0)
            means = np.where(counts > 0, sums / counts, 0.0)
        deviations = means - means_merged[codes]
        m2_merged = np.bincount(
            codes, weights=m2s + counts * np.square(deviations),
            minlength=num_groups)
        return {"count": np.round(counts_merged).astype(np.int64),
                "sum": sums_merged, "m2": m2_merged}

    def finalize(self, states):
        counts = states["count"].astype(np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(counts > 0,
                            states["m2"].astype(np.float64) / counts, np.nan)


class StdDevFunction(VarFunction):
    """Population standard deviation — algebraic, sqrt of VAR."""

    name = "stddev"

    #: round-off tolerance: with the m2 formulation a variance can only
    #: go negative by accumulated floating-point noise, never by
    #: cancellation — anything more negative than this is a real bug
    #: and surfaces as NaN instead of being silently masked to 0.
    NEGATIVE_VARIANCE_TOLERANCE = -1e-9

    def finalize(self, states):
        variance = super().finalize(states)
        variance = np.where(
            (variance < 0.0) & (variance >= self.NEGATIVE_VARIANCE_TOLERANCE),
            0.0, variance)
        with np.errstate(invalid="ignore"):
            return np.sqrt(variance)


class MedianFunction(AggregateFunction):
    """Exact median — **holistic**: not distributable without raw data."""

    name = "median"
    decomposable = False

    def output_dtype(self, input_dtype):
        if input_dtype is None or not input_dtype.is_numeric:
            raise AggregateError("MEDIAN requires a numeric input column")
        return DataType.FLOAT64

    def state_primitives(self):
        raise AggregateError(
            "MEDIAN is holistic: it has no bounded sub-aggregate and cannot "
            "be evaluated by a Skalla distributed plan")

    def compute(self, values, count):
        if values is None or len(values) == 0:
            return np.nan
        return float(np.median(values))


class CountDistinctFunction(AggregateFunction):
    """Exact COUNT(DISTINCT col) — **holistic** in this engine."""

    name = "count_distinct"
    decomposable = False

    def output_dtype(self, input_dtype):
        return DataType.INT64

    def state_primitives(self):
        raise AggregateError(
            "COUNT DISTINCT is holistic: its sub-aggregate (a value set) is "
            "unbounded and would violate Skalla's partial-results-only rule")

    def compute(self, values, count):
        if values is None or len(values) == 0:
            return 0
        return int(len(np.unique(values)))


class ApproxCountDistinctFunction(AggregateFunction):
    """APPROX_COUNT_DISTINCT via a HyperLogLog state column.

    Decomposable: the per-group state is an encoded HyperLogLog
    (:mod:`repro.sketches.hll`).  Sites build a whole column with one
    scatter, the coordinator merges it with one register-wise max — the
    sketch of the union — so the distributed estimate is *bit-identical*
    to the centralized one, and Theorem 2's bounded-traffic guarantee
    extends to the distinct-count workload.  Estimates come from one
    rank histogram per group.  Relative error ≈ ``1.04/sqrt(2**p)``
    (documented bound ``3/sqrt(2**p)``).
    """

    name = "approx_count_distinct"

    def __init__(self, precision: int = HLL_DEFAULT_PRECISION):
        if not HLL_MIN_PRECISION <= int(precision) <= HLL_MAX_PRECISION:
            raise AggregateError(
                f"APPROX_COUNT_DISTINCT precision must be in "
                f"[{HLL_MIN_PRECISION}, {HLL_MAX_PRECISION}], "
                f"got {precision}")
        self.precision = int(precision)

    def configured(self, param=None, precision=None):
        if param is not None:
            raise AggregateError(
                "APPROX_COUNT_DISTINCT takes no parameter")
        if precision is None or int(precision) == self.precision:
            return self
        return ApproxCountDistinctFunction(precision)

    def output_dtype(self, input_dtype):
        if input_dtype is None:
            raise AggregateError(
                "APPROX_COUNT_DISTINCT requires an input column")
        return DataType.INT64

    def state_primitives(self):
        return (f"hll{self.precision}",)

    def finalize(self, states):
        estimates = hll.estimate_states(states[f"hll{self.precision}"],
                                        self.precision)
        return np.round(estimates).astype(np.int64)


class ApproxPercentileFunction(AggregateFunction):
    """APPROX_PERCENTILE(col, q) via a KLL-style quantile sketch.

    Decomposable: the per-group state is an encoded KLL sketch
    (:mod:`repro.sketches.kll`), built from each group's sorted values
    (NaN dropped, as MIN/MAX drop it) and merged by one k-way merge per
    group — Theorem-1 super-aggregation whose result cannot depend on
    gather order.  The returned value's *rank* is within the sketch's
    documented ``rank_error_bound(k, n)`` of ``q``; ``q`` 0 and 1 return
    the exact minimum and maximum; a group with no values is NaN.
    """

    name = "approx_percentile"
    default_param: float = 0.5

    def __init__(self, q: float | None = None, k: int = KLL_DEFAULT_K):
        if q is None:
            q = self.default_param
        if not 0.0 <= float(q) <= 1.0:
            raise AggregateError(
                f"{self.name.upper()} fraction must be in [0, 1], got {q}")
        if not KLL_MIN_K <= int(k) <= KLL_MAX_K:
            raise AggregateError(
                f"{self.name.upper()} sketch parameter k must be in "
                f"[{KLL_MIN_K}, {KLL_MAX_K}], got {k}")
        self.q = float(q)
        self.k = int(k)

    def configured(self, param=None, precision=None):
        q = self.q if param is None else param
        k = self.k if precision is None else precision
        if q == self.q and k == self.k:
            return self
        return type(self)(q, k)

    def output_dtype(self, input_dtype):
        if input_dtype is None or not input_dtype.is_numeric:
            raise AggregateError(
                f"{self.name.upper()} requires a numeric input column")
        return DataType.FLOAT64

    def state_primitives(self):
        return (f"kll{self.k}",)

    def finalize(self, states):
        return kll.quantile_states(states[f"kll{self.k}"], self.q)


class ApproxMedianFunction(ApproxPercentileFunction):
    """APPROX_MEDIAN — APPROX_PERCENTILE at q = 0.5."""

    name = "approx_median"

    def configured(self, param=None, precision=None):
        if param is not None:
            raise AggregateError(
                "APPROX_MEDIAN takes no parameter "
                "(use APPROX_PERCENTILE for other fractions)")
        return super().configured(None, precision)


_FUNCTIONS: dict[str, AggregateFunction] = {
    function.name: function
    for function in (CountFunction(), SumFunction(), MinFunction(),
                     MaxFunction(), AvgFunction(), VarFunction(),
                     StdDevFunction(), MedianFunction(),
                     CountDistinctFunction(), ApproxCountDistinctFunction(),
                     ApproxMedianFunction(), ApproxPercentileFunction())}


def aggregate_function(name: str) -> AggregateFunction:
    """Look up an aggregate function by its registry name."""
    try:
        return _FUNCTIONS[name.lower()]
    except KeyError:
        raise AggregateError(
            f"unknown aggregate function {name!r}; "
            f"available: {sorted(_FUNCTIONS)}") from None


def register_function(function: AggregateFunction) -> None:
    """Register a custom aggregate function (extension point)."""
    if not function.name:
        raise AggregateError("aggregate functions must declare a name")
    _FUNCTIONS[function.name.lower()] = function


# ---------------------------------------------------------------------------
# Aggregate specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AggregateSpec:
    """One requested aggregate: function, input column, output alias.

    ``column`` is ``None`` for COUNT(*).  ``alias`` names the output
    attribute in the GMDJ result (the paper's ``f_ij R_c_ij`` columns,
    which it renames to shorthands like ``cnt1``).

    ``param`` carries a function call parameter (the quantile fraction
    of ``APPROX_PERCENTILE(col, q)``); ``precision`` carries the sketch
    precision (HLL ``p`` / KLL ``k``).  Both live on the *spec* — which
    is pickled into site requests — so worker processes reconstruct the
    exact same configured function and state-column layout as the
    coordinator, with no reliance on shared module state.
    """

    func: str
    column: str | None
    alias: str
    param: float | None = None
    precision: int | None = None

    def __post_init__(self):
        function = self.function  # validates name, param, and precision
        if function.requires_column and self.column is None:
            raise AggregateError(f"{self.func.upper()} requires an input column")

    @property
    def function(self) -> AggregateFunction:
        return aggregate_function(self.func).configured(
            param=self.param, precision=self.precision)

    def output_attribute(self, detail_schema: Schema) -> Attribute:
        """The finalized output attribute this spec contributes."""
        input_dtype = (detail_schema.dtype(self.column)
                       if self.column is not None else None)
        return Attribute(self.alias, self.function.output_dtype(input_dtype))

    def state_fields(self, detail_schema: Schema) -> tuple[StateField, ...]:
        """Sub-aggregate state columns (``<alias>__<primitive>``).

        Raises :class:`AggregateError` for holistic aggregates, which have
        no bounded state.
        """
        input_dtype = (detail_schema.dtype(self.column)
                       if self.column is not None else None)
        fields = []
        for primitive in self.function.state_primitives():
            fields.append(StateField(name=f"{self.alias}__{primitive}",
                                     primitive=primitive,
                                     dtype=primitive_dtype(primitive,
                                                           input_dtype)))
        return tuple(fields)

    def __repr__(self):  # pragma: no cover - cosmetic
        target = "*" if self.column is None else self.column
        if self.param is not None:
            target = f"{target}, {self.param:g}"
        return f"{self.func}({target}) -> {self.alias}"


def count_star(alias: str) -> AggregateSpec:
    """Convenience constructor for COUNT(*)."""
    return AggregateSpec("count", None, alias)


def validate_aggregate_list(aggregates: Sequence[AggregateSpec],
                            detail_schema: Schema,
                            existing_names: Sequence[str]) -> None:
    """Check aliases are fresh and input columns exist on the detail schema."""
    seen = set(existing_names)
    for spec in aggregates:
        if spec.alias in seen:
            raise SchemaError(
                f"aggregate alias {spec.alias!r} collides with an existing "
                f"attribute")
        seen.add(spec.alias)
        if spec.column is not None and spec.column not in detail_schema:
            raise SchemaError(
                f"aggregate input column {spec.column!r} is not in the "
                f"detail schema {detail_schema.names}")
