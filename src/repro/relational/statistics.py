"""Table and column statistics, with sketch-based cardinality estimation.

The distributed planner's cost model (:mod:`repro.optimizer.cost`) needs
to predict the size of base-values relations — the number of distinct
grouping-attribute combinations — before running anything.  This module
provides:

* :class:`ColumnStats` — per-column count / min / max / distinct count;
* :class:`TableStats` — a relation's row count plus its column stats,
  collected by :func:`collect_stats`;
* :class:`HyperLogLog` — a from-scratch HLL sketch (Flajolet et al.) so
  distinct counts can be estimated in one pass with bounded memory, and
  — crucially for the distributed setting — so per-site sketches can be
  **merged** at the coordinator without shipping value sets (the same
  partial-aggregation discipline as everything else in Skalla);
* :func:`estimate_group_count` — the planner's entry point: estimated
  distinct combinations over several columns, assuming independence but
  capped by the row count.

Exact distinct counts are used for small relations (they are cheap
there and tests stay deterministic); HLL kicks in above a threshold or
when requested explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.errors import SkallaError
from repro.relational.relation import Relation

#: Row-count threshold above which collect_stats switches to sketches.
SKETCH_THRESHOLD = 100_000


class StatisticsError(SkallaError):
    """Invalid statistics operation (e.g. merging unequal sketches)."""


# ---------------------------------------------------------------------------
# HyperLogLog
# ---------------------------------------------------------------------------

class HyperLogLog:
    """A HyperLogLog distinct-count sketch.

    Standard construction: ``2**precision`` registers; each hashed value
    selects a register with its low bits and contributes the position of
    the highest leading zero-run of its high bits.  The estimator uses
    the harmonic mean with the usual small-range (linear counting)
    correction.  Typical relative error is ``1.04 / sqrt(m)`` — about
    2.6% at the default precision of 11.
    """

    __slots__ = ("precision", "_registers")

    def __init__(self, precision: int = 11):
        if not 4 <= precision <= 18:
            raise StatisticsError("HLL precision must be in 4..18")
        self.precision = precision
        self._registers = np.zeros(1 << precision, dtype=np.uint8)

    @property
    def num_registers(self) -> int:
        return len(self._registers)

    def add_array(self, values: np.ndarray) -> None:
        """Add every element of a column in one vectorized pass."""
        hashes = _hash64(values)
        index = (hashes >> np.uint64(64 - self.precision)).astype(np.int64)
        remainder = hashes << np.uint64(self.precision)
        # rank = leading zeros of the remainder + 1 (capped at the width)
        ranks = np.full(len(hashes), 64 - self.precision + 1,
                        dtype=np.uint8)
        live = remainder != 0
        if np.any(live):
            # position of highest set bit via float log2 is unreliable at
            # 64-bit precision; shift down to 32 bits in two halves.
            high = (remainder[live] >> np.uint64(32)).astype(np.uint32)
            low = (remainder[live] & np.uint64(0xFFFFFFFF)).astype(
                np.uint32)
            high_bits = _bit_length32(high)
            low_bits = _bit_length32(low)
            msb = np.where(high > 0, 32 + high_bits, low_bits)
            ranks_live = (64 - msb + 1).astype(np.uint8)
            ranks[live] = ranks_live
        np.maximum.at(self._registers, index, ranks)

    def add(self, value: object) -> None:
        """Add a single value."""
        self.add_array(np.array([value]))

    def merge(self, other: "HyperLogLog") -> "HyperLogLog":
        """Union of two sketches (register-wise max); same precision only."""
        if other.precision != self.precision:
            raise StatisticsError(
                f"cannot merge sketches of precision {self.precision} "
                f"and {other.precision}")
        merged = HyperLogLog(self.precision)
        merged._registers = np.maximum(self._registers, other._registers)
        return merged

    def estimate(self) -> float:
        """The HLL cardinality estimate."""
        registers = self._registers.astype(np.float64)
        m = float(self.num_registers)
        alpha = _alpha(self.num_registers)
        raw = alpha * m * m / np.sum(np.exp2(-registers))
        if raw <= 2.5 * m:
            zeros = int(np.count_nonzero(self._registers == 0))
            if zeros:
                return m * math.log(m / zeros)  # linear counting
        return float(raw)


def _alpha(m: int) -> float:
    if m == 16:
        return 0.673
    if m == 32:
        return 0.697
    if m == 64:
        return 0.709
    return 0.7213 / (1 + 1.079 / m)


def _bit_length32(values: np.ndarray) -> np.ndarray:
    """Bit length of each uint32 (0 for 0), vectorized."""
    result = np.zeros(values.shape, dtype=np.int64)
    work = values.astype(np.uint64)
    for shift in (32, 16, 8, 4, 2, 1):
        mask = work >= (np.uint64(1) << np.uint64(shift))
        result[mask] += shift
        work = np.where(mask, work >> np.uint64(shift), work)
    result[values > 0] += 1
    return result


def _hash64(values: np.ndarray) -> np.ndarray:
    """A 64-bit avalanche hash (splitmix64) over a column.

    Strings are first reduced with Python's hash (stable within one
    process, which is all the sketches need here).
    """
    if values.dtype == object:
        seeds = np.array([hash(value) for value in values],
                         dtype=np.int64).view(np.uint64)
    elif values.dtype.kind == "f":
        seeds = values.astype(np.float64).view(np.uint64)
    else:
        seeds = values.astype(np.int64).view(np.uint64)
    x = seeds + np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


# ---------------------------------------------------------------------------
# Column / table statistics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ColumnStats:
    """Summary of one column: count, bounds, (estimated) distinct count."""

    name: str
    count: int
    distinct: float
    minimum: object | None
    maximum: object | None
    exact: bool

    def merged(self, other: "ColumnStats") -> "ColumnStats":
        """Combine stats of two fragments of the same column.

        Distinct counts add pessimistically (capped by the sum), which
        over-estimates when fragments share values — acceptable for the
        cost model, which only needs the right order of magnitude.
        """
        if other.name != self.name:
            raise StatisticsError(
                f"cannot merge stats of {self.name!r} and {other.name!r}")
        return ColumnStats(
            name=self.name,
            count=self.count + other.count,
            distinct=min(self.distinct + other.distinct,
                         self.count + other.count),
            minimum=_safe_min(self.minimum, other.minimum),
            maximum=_safe_max(self.maximum, other.maximum),
            exact=False)


def _safe_min(left, right):
    if left is None:
        return right
    if right is None:
        return left
    return min(left, right)


def _safe_max(left, right):
    if left is None:
        return right
    if right is None:
        return left
    return max(left, right)


@dataclass(frozen=True)
class TableStats:
    """Row count plus per-column statistics of one relation."""

    row_count: int
    columns: Mapping[str, ColumnStats]

    def column(self, name: str) -> ColumnStats:
        try:
            return self.columns[name]
        except KeyError:
            raise StatisticsError(f"no statistics for column {name!r}") \
                from None


def collect_stats(relation: Relation,
                  attrs: Sequence[str] | None = None,
                  use_sketches: bool | None = None,
                  precision: int = 11) -> TableStats:
    """Collect :class:`TableStats` for ``attrs`` (default: every column).

    ``use_sketches`` forces HLL on/off; by default sketches are used for
    relations above :data:`SKETCH_THRESHOLD` rows.
    """
    names = relation.schema.names if attrs is None else tuple(attrs)
    if use_sketches is None:
        use_sketches = relation.num_rows > SKETCH_THRESHOLD
    columns = {}
    for name in names:
        values = relation.column(name)
        if relation.num_rows == 0:
            columns[name] = ColumnStats(name, 0, 0.0, None, None, True)
            continue
        if use_sketches:
            sketch = HyperLogLog(precision)
            sketch.add_array(values)
            distinct = sketch.estimate()
            exact = False
        else:
            if values.dtype == object:
                distinct = float(len(set(values.tolist())))
            else:
                distinct = float(len(np.unique(values)))
            exact = True
        if values.dtype == object:
            listed = values.tolist()
            minimum, maximum = min(listed), max(listed)
        else:
            minimum = values.min().item()
            maximum = values.max().item()
        columns[name] = ColumnStats(name, relation.num_rows, distinct,
                                    minimum, maximum, exact)
    return TableStats(relation.num_rows, columns)


def merge_stats(fragments: Iterable[TableStats]) -> TableStats:
    """Combine per-site statistics into global statistics."""
    fragments = list(fragments)
    if not fragments:
        raise StatisticsError("nothing to merge")
    merged = fragments[0]
    for stats in fragments[1:]:
        shared = set(merged.columns) & set(stats.columns)
        columns = {name: merged.columns[name].merged(stats.columns[name])
                   for name in shared}
        merged = TableStats(merged.row_count + stats.row_count, columns)
    return merged


def estimate_group_count(stats: TableStats,
                         attrs: Sequence[str]) -> float:
    """Estimated distinct combinations of ``attrs``.

    Assumes attribute independence (product of per-column distincts),
    capped by the table's row count — the classical System-R style
    estimate, adequate for choosing between distributed plans whose
    costs differ by factors of the site count.
    """
    if not attrs:
        return 1.0
    product = 1.0
    for name in attrs:
        product *= max(stats.column(name).distinct, 1.0)
    return min(product, float(stats.row_count))
