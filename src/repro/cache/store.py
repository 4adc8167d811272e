"""The memory-budgeted LRU store of cached sub-results.

A per-site entry is keyed by its round fingerprint
(:func:`repro.cache.fingerprint.fingerprint_request`) and carries the
fragment version it was computed against.  A *synchronized* entry (a
cube source's merged states, ``site_id=None``) is keyed by what it
answers and carries the version vector of every site.  Byte accounting uses the
SKRL binary codec (:func:`repro.relational.io.encode_relation`) — the
same canonical wire encoding the multiprocess transport ships — so "MB
of cache" means the same thing as "MB on the wire", and the
``bytes_saved`` metrics line up with the transport's real byte counts.

Eviction is strict LRU over a total byte budget: a lookup or an
(in-place) delta upgrade refreshes recency; inserting past the budget
evicts from the cold end until the new entry fits.  An entry larger
than the whole budget is refused outright.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Hashable

from repro.errors import PlanError
from repro.relational.relation import Relation
from repro.distributed.messages import SiteId

#: Default cache budget (bytes): 64 MB of encoded sub-results.
DEFAULT_BUDGET_BYTES = 64 * 1024 * 1024


def encoded_size(relation: Relation) -> int:
    """Size of ``relation`` under the canonical SKRL binary encoding."""
    from repro.relational.io import encode_relation
    return len(encode_relation(relation))


@dataclass
class CacheEntry:
    """One cached sub-result: a site's ``H_i`` (or ``B0_i``) relation,
    or (``site_id=None``) a relation synchronized over every site."""

    fingerprint: Hashable
    site_id: SiteId | None
    #: fragment version the relation was computed against / upgraded
    #: to; for a synchronized entry, the version vector of every site.
    version: "int | tuple"
    relation: Relation
    #: encoded (SKRL) byte size, charged against the store budget.
    nbytes: int
    hits: int = 0
    delta_upgrades: int = 0


@dataclass
class CacheStore:
    """LRU mapping fingerprint → :class:`CacheEntry` under a byte budget."""

    budget_bytes: int = DEFAULT_BUDGET_BYTES
    _entries: "OrderedDict[Hashable, CacheEntry]" = field(
        default_factory=OrderedDict)
    used_bytes: int = 0
    #: lifetime counters (survive individual entry churn)
    insertions: int = 0
    evictions: int = 0
    rejections: int = 0

    def __post_init__(self):
        if self.budget_bytes <= 0:
            raise PlanError("cache budget must be positive")

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, fingerprint: Hashable) -> bool:
        return fingerprint in self._entries

    # -- lookup ------------------------------------------------------------

    def get(self, fingerprint: Hashable) -> CacheEntry | None:
        """The entry for ``fingerprint`` (refreshing LRU recency)."""
        entry = self._entries.get(fingerprint)
        if entry is not None:
            self._entries.move_to_end(fingerprint)
        return entry

    # -- insertion / upgrade ----------------------------------------------

    def put(self, fingerprint: Hashable, site_id: SiteId | None,
            version: "int | tuple",
            relation: Relation) -> CacheEntry | None:
        """Insert (or replace) an entry; returns it, or ``None`` when the
        payload alone exceeds the whole budget."""
        nbytes = encoded_size(relation)
        if nbytes > self.budget_bytes:
            self.rejections += 1
            self._entries.pop(fingerprint, None)
            self._recount()
            return None
        old = self._entries.pop(fingerprint, None)
        if old is not None:
            self.used_bytes -= old.nbytes
        entry = CacheEntry(fingerprint=fingerprint, site_id=site_id,
                           version=version, relation=relation,
                           nbytes=nbytes)
        self._evict_for(nbytes)
        self._entries[fingerprint] = entry
        self.used_bytes += nbytes
        self.insertions += 1
        return entry

    def upgrade(self, entry: CacheEntry, version: int,
                relation: Relation) -> CacheEntry | None:
        """Replace an entry's payload after a delta merge.

        Keeps the entry hot (a delta upgrade is a use).  Returns the
        refreshed entry, or ``None`` when the merged payload no longer
        fits the budget (the stale entry is dropped).
        """
        if entry.fingerprint not in self._entries:
            return None
        nbytes = encoded_size(relation)
        if nbytes > self.budget_bytes:
            self.rejections += 1
            self.drop(entry.fingerprint)
            return None
        self.used_bytes += nbytes - entry.nbytes
        entry.version = version
        entry.relation = relation
        entry.nbytes = nbytes
        entry.delta_upgrades += 1
        self._entries.move_to_end(entry.fingerprint)
        self._evict_for(0)
        return entry

    # -- removal -----------------------------------------------------------

    def drop(self, fingerprint: Hashable) -> None:
        entry = self._entries.pop(fingerprint, None)
        if entry is not None:
            self.used_bytes -= entry.nbytes

    def clear(self) -> None:
        self._entries.clear()
        self.used_bytes = 0

    def _evict_for(self, incoming_bytes: int) -> None:
        """Evict cold entries until ``incoming_bytes`` more would fit."""
        while self._entries and \
                self.used_bytes + incoming_bytes > self.budget_bytes:
            __, evicted = self._entries.popitem(last=False)
            self.used_bytes -= evicted.nbytes
            self.evictions += 1

    def _recount(self) -> None:
        self.used_bytes = sum(entry.nbytes
                              for entry in self._entries.values())

    # -- introspection -----------------------------------------------------

    def min_version(self, site_id: SiteId) -> int | None:
        """Oldest fragment version any live entry for ``site_id`` holds.

        ``None`` when the store holds no entry for the site — every
        retained delta for it may be pruned.  Synchronized entries are
        never delta-upgraded, so they hold no delta back.
        """
        versions = [entry.version for entry in self._entries.values()
                    if entry.site_id == site_id]
        return min(versions) if versions else None

    def entries(self) -> list[CacheEntry]:
        """Entries from cold to hot (for tests and debugging)."""
        return list(self._entries.values())

    def stats(self) -> dict[str, int]:
        return {
            "entries": len(self._entries),
            "used_bytes": self.used_bytes,
            "budget_bytes": self.budget_bytes,
            "insertions": self.insertions,
            "evictions": self.evictions,
            "rejections": self.rejections,
        }


__all__ = ["CacheEntry", "CacheStore", "DEFAULT_BUDGET_BYTES",
           "encoded_size"]
