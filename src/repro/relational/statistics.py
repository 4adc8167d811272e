"""Table and column statistics for the cost model.

The distributed planner's cost model (:mod:`repro.optimizer.cost`) needs
to predict the size of base-values relations — the number of distinct
grouping-attribute combinations — before running anything.  This module
provides:

* :class:`ColumnStats` — per-column count / min / max / distinct count;
* :class:`TableStats` — the union relation's row count plus its column
  stats, collected over the per-site fragments by :func:`collect_stats`;
* :func:`estimate_group_count` — the planner's entry point: estimated
  distinct combinations over several columns, assuming independence but
  capped by the row count.

Distinct count is a holistic aggregate, so per-fragment *counts* cannot
be added: a key recurring at every site would be counted once per site.
:func:`collect_stats` instead merges per-fragment *states*, exactly as
Theorem 1 merges per-site GMDJ states.  Small columns union their
distinct value sets; large ones merge one
:class:`~repro.sketches.hll.HyperLogLog` per fragment by register max.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Mapping, Sequence

import numpy as np

from repro.errors import SkallaError
from repro.relational.relation import Relation
from repro.sketches.hll import DEFAULT_PRECISION, HyperLogLog

#: Summed per-fragment distinct counts above which a column's distinct
#: count is estimated with merged sketches instead of an exact union.
SKETCH_THRESHOLD = 100_000


class StatisticsError(SkallaError):
    """Invalid statistics request (e.g. an unknown column)."""


@dataclass(frozen=True)
class ColumnStats:
    """Summary of one column: count, bounds, (estimated) distinct count."""

    name: str
    count: int
    distinct: float
    minimum: object | None
    maximum: object | None
    exact: bool


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


def collect_stats(fragments: Sequence[Relation],
                  attrs: Sequence[str] | None = None) -> TableStats:
    """:class:`TableStats` of the union of ``fragments``.

    ``attrs`` defaults to every column.  Each fragment contributes only
    its distinct values per column.  When their counts sum to at most
    :data:`SKETCH_THRESHOLD` the distinct count is the exact size of
    their union; above it, each fragment's distinct values feed one
    HyperLogLog and the sketches merge by register max.  Register max is
    idempotent, so the merged state is byte-identical to a sketch of
    every row — independent of the partitioning and of the process.
    """
    if not fragments:
        raise StatisticsError("no fragments to collect statistics over")
    names = fragments[0].schema.names if attrs is None else tuple(attrs)
    row_count = sum(fragment.num_rows for fragment in fragments)
    columns = {}
    for name in names:
        parts = [_distinct_values(fragment.column(name))
                 for fragment in fragments if fragment.num_rows]
        columns[name] = _column_stats(name, row_count, parts)
    return TableStats(row_count, columns)


def _distinct_values(values: np.ndarray) -> np.ndarray:
    if values.dtype == object:
        distinct = set(values.tolist())
        return np.fromiter(distinct, dtype=object, count=len(distinct))
    return np.unique(values)


def _column_stats(name: str, row_count: int,
                  parts: list[np.ndarray]) -> ColumnStats:
    if not parts:
        return ColumnStats(name, row_count, 0.0, None, None, True)
    values = np.concatenate(parts)
    # keepdims + tolist: a Python scalar for numeric and object columns
    minimum = values.min(keepdims=True).tolist()[0]
    maximum = values.max(keepdims=True).tolist()[0]
    if len(values) <= SKETCH_THRESHOLD:
        return ColumnStats(name, row_count,
                           float(len(_distinct_values(values))),
                           minimum, maximum, True)
    return ColumnStats(name, row_count, _merged_sketch(parts).estimate(),
                       minimum, maximum, False)


def _merged_sketch(parts: list[np.ndarray]) -> HyperLogLog:
    """One sketch per fragment's distinct values, merged by register max."""
    return reduce(HyperLogLog.merge,
                  (HyperLogLog(DEFAULT_PRECISION).update(part)
                   for part in parts))


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
