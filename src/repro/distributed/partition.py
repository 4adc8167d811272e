"""Partitioning of the fact relation and *distribution knowledge*.

Two distinct things live here:

1. **Partitioning the data** — splitting a detail relation into one
   fragment per site (:func:`partition_by_values`,
   :func:`partition_by_ranges`, :func:`partition_by_hash`,
   :func:`partition_round_robin`).

2. **Describing the partitioning** — the predicates ``φ_i`` of Theorem 4:
   for each site ``i``, constraints that every local detail tuple is
   known to satisfy.  :class:`DistributionInfo` carries one
   :class:`AttributeConstraint` set per site, can *verify* itself against
   actual fragments, and decides which attributes are **partition
   attributes** in the sense of Definition 2 (pairwise-disjoint value
   sets across sites) — the enabling condition of Corollary 1 —
   whether declared or shown by an engine's fragments.

The optimizer consumes only :class:`DistributionInfo`; the engine always
owns one (empty when nothing is declared).
"""

from __future__ import annotations

import itertools
import numbers
import threading
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.errors import PartitionError
from repro.relational.expressions import Expr
from repro.relational.relation import Relation
from repro.relational.types import DataType
from repro.distributed.messages import SiteId
from repro.sketches.hashing import hash64


# ---------------------------------------------------------------------------
# Attribute constraints (the building blocks of φ_i)
# ---------------------------------------------------------------------------

class AttributeConstraint:
    """A predicate over one attribute that all local tuples satisfy."""

    def contains(self, value: object) -> bool:
        """Whether a single value satisfies the constraint."""
        raise NotImplementedError

    def mask(self, values: np.ndarray) -> np.ndarray:
        """Vectorized membership over an array of values."""
        raise NotImplementedError

    def to_expr(self, attr_ref: Expr) -> Expr:
        """The constraint as an expression over ``attr_ref``.

        Used to build the coordinator-side group filter ``¬ψ_i`` — the
        attribute reference supplied is typically a ``BaseAttr``.
        """
        raise NotImplementedError

    def bounds(self) -> tuple[float, float] | None:
        """Numeric (low, high) bounds, or ``None`` for non-numeric values."""
        raise NotImplementedError

    def intersects(self, other: "AttributeConstraint") -> bool:
        """Whether the two constraints can both hold for some value."""
        raise NotImplementedError


@dataclass(frozen=True)
class ValueSetConstraint(AttributeConstraint):
    """``attr ∈ values`` — e.g. the set of nations stored at a site."""

    values: frozenset

    def __post_init__(self):
        if not self.values:
            raise PartitionError("a value-set constraint cannot be empty")

    def contains(self, value):
        return value in self.values

    def mask(self, values):
        return np.isin(values, list(self.values))

    def to_expr(self, attr_ref):
        return attr_ref.isin(self.values)

    def bounds(self):
        try:
            numeric = [float(value) for value in self.values]
        except (TypeError, ValueError):
            return None
        return (min(numeric), max(numeric))

    def intersects(self, other):
        if isinstance(other, ValueSetConstraint):
            return bool(self.values & other.values)
        return any(other.contains(value) for value in self.values)


@dataclass(frozen=True)
class RangeConstraint(AttributeConstraint):
    """``low <= attr <= high`` (inclusive).

    Works for numbers and for strings under lexicographic order (useful
    because zero-padded TPC names order like their keys).
    """

    low: object
    high: object

    def __post_init__(self):
        if self.low > self.high:  # type: ignore[operator]
            raise PartitionError(
                f"range constraint has low {self.low!r} > high {self.high!r}")

    def contains(self, value):
        return self.low <= value <= self.high  # type: ignore[operator]

    def mask(self, values):
        return (values >= self.low) & (values <= self.high)

    def to_expr(self, attr_ref):
        return (attr_ref >= self.low) & (attr_ref <= self.high)

    def bounds(self):
        if all(isinstance(bound, numbers.Real)
               and not isinstance(bound, (bool, np.bool_))
               for bound in (self.low, self.high)):
            return (float(self.low), float(self.high))
        return None

    def intersects(self, other):
        if isinstance(other, RangeConstraint):
            return not (self.high < other.low or other.high < self.low)
        return other.intersects(self)


# ---------------------------------------------------------------------------
# Distribution knowledge
# ---------------------------------------------------------------------------

@dataclass
class DistributionInfo:
    """Per-site φ_i constraints, keyed by attribute name, and the
    partition attributes the data shows.

    ``constraints[site][attr]`` is a declared :class:`AttributeConstraint`
    guaranteed (or believed — see :meth:`verify`) to hold for every
    tuple of the site's fragment.  An info built with ``sites``
    (``SkallaEngine.knowledge``) also holds the facts it observes on
    their fragments, as a value "might occur at only a few sites"
    (Sect. 4.1): INT64 columns by site value sets, STRING columns by
    site ranges, refuted first on a prefix.  Observed facts feed only
    Definition 2 and are never persisted; :meth:`append` withdrawing one
    moves :attr:`epoch`, which plans record.
    """

    constraints: dict[SiteId, dict[str, AttributeConstraint]] = \
        field(default_factory=dict)
    sites: Mapping[SiteId, object] | None = field(
        default=None, repr=False, compare=False)

    def __post_init__(self):
        self.epoch = 0
        if self.sites is not None:
            self.lock = threading.Lock()
            #: proved column → site → sorted distinct values / (min, max)
            self._values: dict[str, dict[SiteId, np.ndarray]] = {}
            self._ranges: dict[str, dict[SiteId, tuple]] = {}
            self._refuted: set[str] = set()

    def add(self, site: SiteId, attr: str,
            constraint: AttributeConstraint) -> None:
        self.constraints.setdefault(site, {})[attr] = constraint

    def partition_attributes(self, sites: Iterable[SiteId],
                             attrs: Iterable[str] = ()) -> set[str]:
        """Attributes satisfying Definition 2 over ``sites``: the sites'
        value sets are pairwise disjoint.  These attributes enable
        Corollary 1 synchronization reduction and union synchronization.

        ``sites`` are the sites that hold data, not the sites that
        happen to have constraints: a site with no constraint on an
        attribute may hold any value of it, so it intersects every other
        site and the attribute is not a partition attribute.  Those of
        ``attrs`` the constraints do not prove are observed on the
        fragments this info was built with; an info built without
        ``sites`` holds no fragment, so only its constraints count.
        """
        sites = list(sites)
        if not sites:
            return set()
        per_site = [self.constraints.get(site, {}) for site in sites]
        declared = {
            attr for attr in set.intersection(*map(set, per_site))
            if not any(left[attr].intersects(right[attr])
                       for left, right in itertools.combinations(per_site, 2))}
        if self.sites is None:
            return declared
        with self.lock:
            return declared | {attr for attr in set(attrs) - declared
                               if self._observe(attr)}

    def observed(self, attr: str) -> bool:
        """Whether ``attr`` is a partition attribute only the data shows."""
        return self.sites is not None and (
            attr in self._values or attr in self._ranges)

    def _observe(self, attr: str) -> bool:
        if attr not in self._refuted and not self.observed(attr):
            schema = next(iter(self.sites.values())).fragment.schema
            dtype = schema[attr].dtype if attr in schema.names else None
            columns = {site: self.sites[site].fragment.column(attr)
                       for site in sorted(self.sites)} if dtype else {}
            if dtype is DataType.INT64:
                keys = site_value_sets(columns)
                if keys is not None:
                    self._values[attr] = keys
            elif dtype is DataType.STRING and site_ranges(
                    {site: column[:PREFIX_ROWS]
                     for site, column in columns.items()}) is not None:
                ranges = site_ranges(columns)
                if ranges is not None:
                    self._ranges[attr] = ranges
            if not self.observed(attr):
                self._refuted.add(attr)
        return self.observed(attr)

    def append(self, site: SiteId, rows: Relation) -> None:
        """Widen or withdraw each observed fact as ``rows`` join
        ``site``'s fragment (the caller holds :attr:`lock` across this
        and the swap): a batch is checked against the other sites'
        value sets by binary search, or widens the site's range.  A
        withdrawal refutes the column and moves :attr:`epoch` once."""
        if not rows.num_rows:
            return
        withdrawn = set()
        for attr, keys in self._values.items():
            values = np.unique(rows.column(attr))
            if any(_members(keys[other], values).any()
                   for other in keys if other != site):
                withdrawn.add(attr)
                continue
            fresh = values[~_members(keys[site], values)]
            if len(fresh):
                keys[site] = np.union1d(keys[site], fresh)
        for attr, ranges in self._ranges.items():
            batch = site_ranges({site: rows.column(attr)})
            if batch is None:
                withdrawn.add(attr)
                continue
            bounds = (*batch[site], *ranges.get(site, ()))
            ranges[site] = (min(bounds), max(bounds))
            if not _disjoint(ranges):
                withdrawn.add(attr)
        for attr in withdrawn:
            self._values.pop(attr, None)
            self._ranges.pop(attr, None)
            self._refuted.add(attr)
        if withdrawn:
            self.epoch += 1

    def verify(self, partitions: Mapping[SiteId, Relation]) -> None:
        """Check every constraint against the actual fragments.

        Raises :class:`PartitionError` on the first violated constraint —
        distribution knowledge that does not hold would make Theorem 4 /
        Corollary 1 rewrites *unsound*, so catching this early matters.
        """
        for site in self.constraints:
            if site not in partitions:
                raise PartitionError(f"constraints given for unknown site {site}")
        for site, fragment in partitions.items():
            self.check(site, fragment)

    def check(self, site: SiteId, rows: Relation) -> None:
        """Raise :class:`PartitionError` unless ``rows`` satisfy every
        constraint declared for ``site``."""
        for attr, constraint in self.constraints.get(site, {}).items():
            mask = constraint.mask(rows.column(attr))
            if not bool(np.all(mask)):
                bad = rows.column(attr)[~mask][:3]
                raise PartitionError(
                    f"site {site}: constraint on {attr!r} violated by "
                    f"values {list(bad)}")


# ---------------------------------------------------------------------------
# Partitioning functions
# ---------------------------------------------------------------------------

def partition_by_values(relation: Relation, attr: str,
                        assignment: Mapping[SiteId, Sequence[object]],
                        ) -> tuple[dict[SiteId, Relation], DistributionInfo]:
    """Split on explicit value lists per site (e.g. nations per site).

    Every value of ``attr`` present in the data must be assigned to
    exactly one site.
    """
    return _partition(relation, attr, {
        site: ValueSetConstraint(frozenset(values))
        for site, values in assignment.items()}, "are not assigned to any site")


def partition_by_ranges(relation: Relation, attr: str,
                        ranges: Mapping[SiteId, tuple[object, object]],
                        ) -> tuple[dict[SiteId, Relation], DistributionInfo]:
    """Split on inclusive ranges per site (must cover all present values)."""
    return _partition(relation, attr, {
        site: RangeConstraint(low, high)
        for site, (low, high) in ranges.items()}, "fall outside every range")


def _partition(relation: Relation, attr: str,
               constraints: Mapping[SiteId, AttributeConstraint],
               uncovered: str,
               ) -> tuple[dict[SiteId, Relation], DistributionInfo]:
    """One fragment per site: the rows its constraint holds for.  The
    constraints must be pairwise disjoint, not merely on these rows."""
    for (left, first), (right, second) in itertools.combinations(
            constraints.items(), 2):
        if first.intersects(second):
            raise PartitionError(
                f"site {right}'s constraint on {attr!r} overlaps site "
                f"{left}'s: both admit some value")
    info = DistributionInfo()
    partitions: dict[SiteId, Relation] = {}
    column = relation.column(attr)
    covered = np.zeros(relation.num_rows, dtype=bool)
    for site, constraint in constraints.items():
        mask = constraint.mask(column)
        covered |= mask
        partitions[site] = relation.filter(mask)
        info.add(site, attr, constraint)
    if not bool(np.all(covered)):
        missing = np.unique(np.asarray(column[~covered]))[:5]
        raise PartitionError(
            f"values {list(missing)} of {attr!r} {uncovered}")
    return partitions, info


def partition_by_hash(relation: Relation, attr: str, num_sites: int,
                      ) -> dict[SiteId, Relation]:
    """Hash-partition on ``attr``.

    Returns fragments only — hash partitioning yields no φ_i
    constraints.  An engine built on them still observes an integer
    ``attr`` site-disjoint by its value sets; a string ``attr`` counts
    only when its site ranges are disjoint, which hashing seldom leaves.
    String values hash
    with the process-stable :func:`~repro.sketches.hashing.hash64`, so
    the placement is the same under every ``PYTHONHASHSEED``.
    """
    if num_sites <= 0:
        raise PartitionError("need at least one site")
    column = relation.column(attr)
    if column.dtype == object:
        codes = hash64(column).view(np.int64)
    else:
        codes = column.astype(np.int64)
    # Knuth multiplicative hashing spreads consecutive keys.
    buckets = ((codes * np.int64(2654435761)) % np.int64(2**31)) % num_sites
    return {site: relation.filter(buckets == site)
            for site in range(num_sites)}


def partition_round_robin(relation: Relation, num_sites: int,
                          ) -> dict[SiteId, Relation]:
    """Deal rows to sites in turn — no distribution knowledge at all."""
    if num_sites <= 0:
        raise PartitionError("need at least one site")
    positions = np.arange(relation.num_rows)
    return {site: relation.filter(positions % num_sites == site)
            for site in range(num_sites)}


# ---------------------------------------------------------------------------
# Observed partition attributes
# ---------------------------------------------------------------------------

#: Rows of each site a STRING column is first refuted on.
PREFIX_ROWS = 1024


def site_ranges(columns: Mapping[SiteId, np.ndarray],
                ) -> dict[SiteId, tuple] | None:
    """Each non-empty site's (min, max) of one STRING column, or
    ``None`` when two overlap or a value is not a ``str``."""
    ranges = {}
    for site, column in columns.items():
        if not len(column):
            continue
        try:
            ranges[site] = (column.min(), column.max())
        except TypeError:
            return None
        if not all(isinstance(bound, str) for bound in ranges[site]):
            return None
    return ranges if _disjoint(ranges) else None


def _disjoint(ranges: Mapping[SiteId, tuple]) -> bool:
    ordered = sorted(ranges.values())
    return all(left[1] < right[0] for left, right in zip(ordered, ordered[1:]))


def site_value_sets(columns: Mapping[SiteId, np.ndarray],
                    ) -> dict[SiteId, np.ndarray] | None:
    """Each site's sorted distinct values of one integer column, or
    ``None`` when two sites share a value."""
    keys = {site: np.unique(column) for site, column in columns.items()}
    merged = np.concatenate([np.empty(0, np.int64), *keys.values()])
    return keys if len(np.unique(merged)) == len(merged) else None


def _members(keys: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``values ∈ keys`` for sorted ``keys``, by binary search."""
    if not len(keys):
        return np.zeros(len(values), dtype=bool)
    at = np.minimum(np.searchsorted(keys, values), len(keys) - 1)
    return keys[at] == values
