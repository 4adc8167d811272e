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
   actual fragments, and can decide which attributes are **partition
   attributes** in the sense of Definition 2 (pairwise-disjoint value
   sets across sites) — the enabling condition of Corollary 1;
   :class:`ObservedPartitions` adds those the fragments themselves show.

The optimizer consumes only :class:`DistributionInfo`; the engine works
with or without it (distribution-independent optimizations need none).
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.errors import PartitionError, PlanError
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
        if isinstance(self.low, (int, float)) and \
                isinstance(self.high, (int, float)):
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
    """Per-site φ_i constraints, keyed by attribute name.

    ``constraints[site][attr]`` is an :class:`AttributeConstraint`
    guaranteed (or believed — see :meth:`verify`) to hold for every tuple
    of the site's fragment.  ``observed`` is set only on an engine's own
    copy (``SkallaEngine.knowledge``); it is never persisted or compared.
    """

    constraints: dict[SiteId, dict[str, AttributeConstraint]] = \
        field(default_factory=dict)
    observed: "ObservedPartitions | None" = field(
        default=None, repr=False, compare=False)

    def add(self, site: SiteId, attr: str,
            constraint: AttributeConstraint) -> None:
        self.constraints.setdefault(site, {})[attr] = constraint

    def constraint(self, site: SiteId,
                   attr: str) -> AttributeConstraint | None:
        return self.constraints.get(site, {}).get(attr)

    @property
    def epoch(self) -> int:
        """Moves whenever an observed partition attribute is withdrawn."""
        return 0 if self.observed is None else self.observed.epoch

    def partition_attributes(self, sites: Iterable[SiteId]) -> set[str]:
        """Attributes satisfying Definition 2 over ``sites``: the sites'
        value sets are pairwise disjoint.  These attributes enable
        Corollary 1 synchronization reduction and union synchronization.

        ``sites`` are the sites that hold data, not the sites that
        happen to have constraints: a site with no constraint on an
        attribute may hold any value of it, so it intersects every other
        site and the attribute is not a partition attribute.  Only the
        declared constraints count here; ``observed`` adds what the
        data shows (:meth:`ObservedPartitions.disjoint`).
        """
        sites = list(sites)
        if not sites:
            return set()
        per_site = [self.constraints.get(site, {}) for site in sites]
        return {
            attr for attr in set.intersection(*map(set, per_site))
            if not any(left[attr].intersects(right[attr])
                       for left, right in itertools.combinations(per_site, 2))}

    def verify(self, partitions: Mapping[SiteId, Relation]) -> None:
        """Check every constraint against the actual fragments.

        Raises :class:`PartitionError` on the first violated constraint —
        distribution knowledge that does not hold would make Theorem 4 /
        Corollary 1 rewrites *unsound*, so catching this early matters.
        """
        for site, site_constraints in self.constraints.items():
            if site not in partitions:
                raise PartitionError(f"constraints given for unknown site {site}")
            fragment = partitions[site]
            for attr, constraint in site_constraints.items():
                mask = constraint.mask(fragment.column(attr))
                if not bool(np.all(mask)):
                    bad = fragment.column(attr)[~mask][:3]
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
    info = DistributionInfo()
    partitions: dict[SiteId, Relation] = {}
    column = relation.column(attr)
    seen: dict[object, SiteId] = {}
    covered = np.zeros(relation.num_rows, dtype=bool)
    for site, values in assignment.items():
        for value in values:
            if value in seen:
                raise PartitionError(
                    f"value {value!r} assigned to both site {seen[value]} "
                    f"and site {site}")
            seen[value] = site
        constraint = ValueSetConstraint(frozenset(values))
        mask = constraint.mask(column)
        covered |= mask
        partitions[site] = relation.filter(mask)
        info.add(site, attr, constraint)
    if not bool(np.all(covered)):
        missing = np.unique(np.asarray(column[~covered]))[:5]
        raise PartitionError(
            f"values {list(missing)} of {attr!r} are not assigned to any site")
    return partitions, info


def partition_by_ranges(relation: Relation, attr: str,
                        ranges: Mapping[SiteId, tuple[object, object]],
                        ) -> tuple[dict[SiteId, Relation], DistributionInfo]:
    """Split on inclusive ranges per site (must cover all present values)."""
    info = DistributionInfo()
    partitions: dict[SiteId, Relation] = {}
    column = relation.column(attr)
    covered = np.zeros(relation.num_rows, dtype=bool)
    for site, (low, high) in ranges.items():
        constraint = RangeConstraint(low, high)
        mask = constraint.mask(column)
        if bool(np.any(mask & covered)):
            raise PartitionError(
                f"range for site {site} overlaps a previous site's range")
        covered |= mask
        partitions[site] = relation.filter(mask)
        info.add(site, attr, constraint)
    if not bool(np.all(covered)):
        missing = np.unique(np.asarray(column[~covered]))[:5]
        raise PartitionError(
            f"values {list(missing)} of {attr!r} fall outside every range")
    return partitions, info


def partition_by_hash(relation: Relation, attr: str, num_sites: int,
                      ) -> dict[SiteId, Relation]:
    """Hash-partition on ``attr``.

    Returns fragments only — hash partitioning yields no φ_i
    constraints.  An engine built on them with a ``DistributionInfo()``
    (empty) observes a disjoint integer key such as ``attr`` itself,
    with no :func:`observed_value_info` needed.  String values hash
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


def observed_value_info(partitions: Mapping[SiteId, Relation],
                        attrs: Sequence[str]) -> DistributionInfo:
    """Derive value-set constraints from the fragments themselves.

    Section 4.1 notes that even when an attribute is not partitioned,
    "any given value … might occur at only a few sites"; scanning the
    fragments yields exactly that knowledge.  The result is always sound
    for the fragments it was derived from (and verified trivially).
    """
    info = DistributionInfo()
    for site, fragment in partitions.items():
        for attr in attrs:
            values = np.unique(np.asarray(fragment.column(attr)))
            if len(values) == 0:
                continue
            info.add(site, attr,
                     ValueSetConstraint(frozenset(
                         value.item() if isinstance(value, np.generic)
                         else value for value in values)))
    return info


# ---------------------------------------------------------------------------
# Observed partition attributes
# ---------------------------------------------------------------------------

class ObservedPartitions:
    """Partition attributes (Definition 2) that an engine's data shows:
    INT64 columns whose site value sets are pairwise disjoint.

    A column is checked once, for the first plan whose key names it.
    Refuted stays refuted: appends only add rows.  A proved column keeps
    each site's sorted values; :meth:`append` checks a batch against the
    other sites', and a clash withdraws the fact and moves
    :attr:`epoch`, which plans record and plan caches fold into their
    keys.  The caller holds :attr:`lock` across :meth:`append` and the
    fragment swap.
    """

    def __init__(self, sites: Mapping[SiteId, object]):
        self._sites = sites
        self.lock = threading.Lock()
        #: column → site → sorted distinct values; ``None`` once refuted
        self._keys: dict[str, dict[SiteId, np.ndarray] | None] = {}
        self.epoch = 0

    def disjoint(self, sites: Sequence[SiteId],
                 attrs: Iterable[str]) -> set[str]:
        """Those ``attrs`` proved site-disjoint over every site (hence
        over ``sites``).  Synthetic and non-INT64 columns prove nothing."""
        attrs = set(attrs)
        for site in sites:
            if site not in self._sites:
                raise PlanError(f"unknown site {site}")
        schema = next(iter(self._sites.values())).fragment.schema
        with self.lock:
            for attr in attrs:
                if attr not in self._keys and attr in schema.names \
                        and schema[attr].dtype is DataType.INT64:
                    self._keys[attr] = site_value_sets(
                        {site: self._sites[site].fragment.column(attr)
                         for site in sorted(self._sites)})
            return {attr for attr in attrs
                    if self._keys.get(attr) is not None}

    def append(self, site: SiteId, rows: Relation) -> None:
        """Keep or withdraw each proved fact as ``rows`` join ``site``:
        the batch is checked by binary search, and new values are merged
        into the site's set.  Observed facts never refuse an append."""
        for attr, keys in self._keys.items():
            if keys is None:
                continue
            values = np.unique(rows.column(attr))
            if any(_members(keys[other], values).any()
                   for other in keys if other != site):
                self._keys[attr] = None
                self.epoch += 1
                continue
            fresh = values[~_members(keys[site], values)]
            if len(fresh):
                keys[site] = np.union1d(keys[site], fresh)


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
