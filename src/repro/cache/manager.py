"""The engine-facing facade: fingerprint → decision → fulfillment.

One :class:`SubAggregateCache` serves one
:class:`~repro.distributed.engine.SkallaEngine`.  It is hosted on the
coordinator side, *above* the transport — the coordinator is where the
sub-results land anyway, so caching there lets every backend
(inprocess / thread / process) skip the whole site call on a hit: no
fragment scan, no serialization, no IPC, and no modeled *or* real bytes
on the wire.  Conceptually each entry is the site's own memoized
answer; hosting the memo at the coordinator merely moves it to the hub
the star topology already funnels everything through (see
docs/CACHING.md for the trade-off discussion).

Lookup outcomes per site request:

* :data:`HIT` — fingerprint present at the site's current fragment
  version.  The stored relation is returned as-is (relations are
  immutable), bit-identical to what the round would recompute.
* :data:`DELTA` — fingerprint present at an older version, the round is
  delta-mergeable, and the version gap is covered by retained appends.
  The round is evaluated over only the delta rows and merged into the
  entry (Theorem 1 over the {old fragment, delta} partition).
* :data:`MISS` — no entry, a non-mergeable stale entry, or a pruned
  delta gap.  The engine dispatches the request to the transport as
  usual and populates the cache from the response.

A MISS the engine dispatches is **claimed** first (:meth:`SubAggregateCache.
claim`), which makes its ``(fingerprint, site, version)`` a *pending*
entry until the scan lands.  A query that misses the same key while it
is pending follows: :meth:`~SubAggregateCache.await_claim` hands it the
leader's sub-result instead of a second scan — Theorem 1 across
queries: a site's sub-result is one term of the synchronized merge
whichever query asked for it.  The rules, all kept here:

* the version is part of the key, so a scan dispatched before an
  append is never joined by a query deciding after it;
* a follower re-checks the version when the result lands and discards
  it if an append moved it (``shared_stale_averted``), exactly like a
  demoted HIT;
* a leader that fails (:meth:`~SubAggregateCache.abandon`) sends its
  followers to dispatch their own scan, as does a wait longer than
  :data:`SHARED_WAIT_SECONDS`;
* the leader resolves its claim in :meth:`~SubAggregateCache.populate`
  (or :meth:`~SubAggregateCache.abandon`), and a thread resolves every
  claim it leads before it waits on any it follows, so the wait graph
  has no cycles.

The same store keeps **synchronized** entries: a cube source's merged
states (:mod:`repro.cube`), stamped with the version vector of every
site and served while no site has moved.
"""

from __future__ import annotations

import threading

from dataclasses import dataclass, field
from typing import Hashable, Sequence

from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.distributed.messages import SiteId
from repro.distributed.transport.base import SiteRequest
from repro.cache.fingerprint import fingerprint_request
from repro.cache.maintenance import (
    delta_mergeable, evaluate_delta, merge_sub_results)
from repro.cache.store import CacheEntry, CacheStore, DEFAULT_BUDGET_BYTES
from repro.cache.versioning import DEFAULT_DELTA_BUDGET_BYTES, DeltaLog

HIT = "hit"
DELTA = "delta"
MISS = "miss"

#: Seconds a follower waits for a pending scan before it dispatches its
#: own.  Generous: the leader's transport owns per-call deadlines,
#: retries and worker respawn, so this only guards a wedged leader.
SHARED_WAIT_SECONDS = 60.0


@dataclass
class _Pending:
    """One claimed in-flight site scan, awaited by its followers."""

    key: tuple
    done: threading.Event = field(default_factory=threading.Event)
    #: the leader's sub-result; ``None`` when its scan failed
    relation: Relation | None = None


@dataclass
class CacheDecision:
    """What the cache can do for one site request."""

    request: SiteRequest
    outcome: str
    fingerprint: str
    current_version: int
    entry: CacheEntry | None = None
    delta: Relation | None = None
    #: snapshot of the entry's (version, relation) at decide time.
    #: Entries are upgraded **in place** by delta merges, and under a
    #: concurrent serving layer two queries may hold the same entry —
    #: fulfillment must therefore work from the classification-time
    #: snapshot (relations are immutable, so holding the reference is
    #: safe), never from the live entry, or a racing upgrade would make
    #: a delta merge double-apply its rows.
    entry_version: int | None = None
    entry_relation: Relation | None = None
    #: the pending scan this MISS leads or follows (see ``claim``)
    pending: _Pending | None = None
    leader: bool = False

    @property
    def site_id(self) -> SiteId:
        return self.request.site_id


@dataclass
class SubAggregateCache:
    """Sub-aggregate result cache with incremental maintenance."""

    budget_bytes: int = DEFAULT_BUDGET_BYTES
    delta_budget_bytes: int = DEFAULT_DELTA_BUDGET_BYTES
    store: CacheStore = None  # type: ignore[assignment]
    log: DeltaLog = None  # type: ignore[assignment]
    #: lifetime counters (per-execution counts live in QueryMetrics)
    hits: int = 0
    misses: int = 0
    delta_merges: int = 0
    full_recomputes_after_append: int = 0
    #: modeled wire bytes that never moved thanks to hits/deltas
    bytes_saved: int = 0
    #: HITs demoted by a gather-time version check (append raced a round)
    stale_hits_averted: int = 0
    #: shared-scan results a follower query discarded because an append
    #: raced the leader's flight (the cross-query analogue of the above)
    shared_stale_averted: int = 0
    #: stores refused because a version moved while the round was in
    #: flight (populate / put_synchronized)
    populate_races: int = 0
    #: synchronized entries served, and re-stored after an append
    synchronized_hits: int = 0
    synchronized_refreshes: int = 0
    _pending: dict = field(default_factory=dict)
    _appended_sites: set = field(default_factory=set)
    _lock: threading.RLock = field(default_factory=threading.RLock,
                                   repr=False, compare=False)

    def __post_init__(self):
        if self.store is None:
            self.store = CacheStore(budget_bytes=self.budget_bytes)
        if self.log is None:
            self.log = DeltaLog(max_bytes_per_site=self.delta_budget_bytes)

    # -- ingest ------------------------------------------------------------

    def on_append(self, site_id: SiteId, rows: Relation) -> int:
        """Bump the site's fragment version, retaining the delta."""
        with self._lock:
            self._appended_sites.add(site_id)
            return self.log.record_append(site_id, rows)

    def version(self, site_id: SiteId) -> int:
        with self._lock:
            return self.log.version(site_id)

    # -- lookup ------------------------------------------------------------

    def decide(self, request: SiteRequest) -> CacheDecision:
        """Classify one site request as hit / delta-mergeable / miss."""
        fingerprint = fingerprint_request(request)
        with self._lock:
            current = self.log.version(request.site_id)
            entry = self.store.get(fingerprint)
            if entry is None:
                self.misses += 1
                return CacheDecision(request, MISS, fingerprint, current)
            if entry.version == current:
                self.hits += 1
                entry.hits += 1
                return CacheDecision(request, HIT, fingerprint, current,
                                     entry=entry,
                                     entry_version=entry.version,
                                     entry_relation=entry.relation)
            if delta_mergeable(request):
                delta = self.log.deltas_between(
                    request.site_id, entry.version, current)
                if delta is not None:
                    return CacheDecision(request, DELTA, fingerprint,
                                         current, entry=entry, delta=delta,
                                         entry_version=entry.version,
                                         entry_relation=entry.relation)
            # Stale and not upgradable: the entry can never become current
            # again (versions only grow), so free its budget now.
            self.store.drop(fingerprint)
            self.misses += 1
            self.full_recomputes_after_append += 1
            return CacheDecision(request, MISS, fingerprint, current)

    def revalidate(self, decision: CacheDecision) -> bool:
        """Whether a HIT decision is still serving the current version.

        Classification happens before a round is scattered; an
        :meth:`on_append` can land while the round is in flight.  The
        engine calls this at **gather time** — immediately before a HIT
        is served — so a stale hit is demoted and re-decided instead of
        silently answering with a pre-append snapshot.
        """
        assert decision.outcome == HIT
        with self._lock:
            still_current = (self.log.version(decision.site_id)
                             == decision.current_version)
            if not still_current:
                self.stale_hits_averted += 1
                # undo the optimistic hit counted by decide()
                self.hits -= 1
                self.misses += 1
            return still_current

    # -- fulfillment -------------------------------------------------------

    def fulfill_hit(self, decision: CacheDecision) -> Relation:
        """The cached sub-result (immutable; shared by reference).

        Serves the decision-time snapshot, not the live entry: a
        concurrent query's delta merge may upgrade the entry in place
        between classification and fulfillment, and this query's round
        was classified against the snapshot's version.
        """
        assert decision.entry_relation is not None
        with self._lock:
            self.bytes_saved += decision.entry_relation.wire_bytes()
        return decision.entry_relation

    def apply_delta(self, decision: CacheDecision, key: Sequence[str],
                    detail_schema: Schema,
                    ) -> tuple[Relation, Relation, float, float]:
        """Evaluate over the delta and merge into the cached entry.

        Returns ``(merged, delta_sub_result, site_seconds,
        merge_seconds)``.  The upgraded entry sits at the site's current
        fragment version, so the next lookup is a pure hit.
        """
        assert decision.entry is not None and decision.delta is not None
        delta_result, site_seconds = evaluate_delta(
            decision.request, decision.delta)
        # Merge from the decide-time snapshot: the live entry may have
        # been upgraded by a concurrent query since classification, and
        # merging the delta into an already-upgraded relation would
        # double-apply the appended rows.
        merged, merge_seconds = merge_sub_results(
            decision.request, decision.entry_relation, delta_result,
            key, detail_schema)
        with self._lock:
            if decision.entry.version == decision.entry_version:
                self.store.upgrade(decision.entry,
                                   decision.current_version, merged)
            # else: a concurrent merge already moved the entry forward —
            # its upgrade is equally valid (same snapshot, same deltas)
            # and must not be regressed; this query still answers from
            # its own correctly merged relation.
            self.delta_merges += 1
            # Only the delta sub-aggregate travels instead of the full one.
            self.bytes_saved += max(
                0, merged.wire_bytes() - delta_result.wire_bytes())
        return merged, delta_result, site_seconds, merge_seconds

    def populate(self, decision: CacheDecision,
                 relation: Relation) -> bool:
        """Store a freshly computed sub-result at the decision's version.

        Refuses (returning ``False``) when the site's fragment version
        moved while the round was in flight: the computed relation's
        snapshot is then unknowable — it may or may not include the
        racing append — and caching it under *either* version risks a
        later delta merge double-applying (or dropping) rows.  The next
        cold round repopulates safely.  Either way a claim the decision
        leads is resolved with ``relation``; its followers re-check the
        version themselves.
        """
        with self._lock:
            stored = (self.log.version(decision.site_id)
                      == decision.current_version)
            if stored:
                self.store.put(decision.fingerprint,
                               decision.request.site_id,
                               decision.current_version, relation)
            else:
                self.populate_races += 1
            self._resolve(decision, relation)
            return stored

    # -- in-flight scans ---------------------------------------------------

    def claim(self, decision: CacheDecision) -> bool:
        """Claim the scan a MISS dispatches; ``True`` when this query leads.

        A leader scans and resolves the claim with :meth:`populate` or
        :meth:`abandon`, and must do so before it waits on any claim
        it follows.  A follower (``False``) takes the leader's result
        from :meth:`await_claim` instead.
        """
        assert decision.outcome == MISS
        key = (decision.fingerprint, decision.site_id,
               decision.current_version)
        with self._lock:
            pending = self._pending.get(key)
            decision.leader = pending is None
            if pending is None:
                pending = self._pending[key] = _Pending(key)
            decision.pending = pending
        return decision.leader

    def abandon(self, decision: CacheDecision) -> None:
        """The leader's scan failed: its followers dispatch their own."""
        self._resolve(decision, None)

    def _resolve(self, decision: CacheDecision,
                 relation: Relation | None) -> None:
        pending = decision.pending
        if pending is None or not decision.leader:
            return
        decision.pending = None
        with self._lock:
            del self._pending[pending.key]
        pending.relation = relation
        pending.done.set()

    def await_claim(self, decision: CacheDecision,
                    ) -> tuple[Relation | None, bool]:
        """Wait for the pending scan a follower's claim shares.

        Returns ``(relation, stale)``.  ``relation`` is ``None`` when
        the follower must re-decide and dispatch: the leader failed, the
        wait outlasted :data:`SHARED_WAIT_SECONDS`, or — ``stale`` — an
        append moved the site's version while the scan was in flight.
        """
        pending = decision.pending
        assert pending is not None and not decision.leader
        decision.pending = None
        if (not pending.done.wait(SHARED_WAIT_SECONDS)
                or pending.relation is None):
            return None, False
        with self._lock:
            if (self.log.version(decision.site_id)
                    != decision.current_version):
                self.shared_stale_averted += 1
                return None, True
        return pending.relation, False

    # -- synchronized entries ----------------------------------------------

    def versions(self) -> tuple:
        """The version vector a synchronized entry is stamped with."""
        with self._lock:
            return self.log.versions()

    def put_synchronized(self, key: Hashable, relation: Relation,
                         versions: tuple) -> CacheEntry | None:
        """Store a relation synchronized over every site under ``key``.

        ``versions`` is :meth:`versions` read before the relation's
        rounds ran; like :meth:`populate`, the store is refused when an
        append has moved it since.  Replacing an older stamp is a
        refresh; an entry already at ``versions`` is kept as it is.
        """
        with self._lock:
            if self.log.versions() != versions:
                self.populate_races += 1
                return None
            previous = self.store.get(key)
            if previous is not None:
                if previous.version == versions:
                    return previous
                self.synchronized_refreshes += 1
            return self.store.put(key, None, versions, relation)

    def synchronized(self) -> list[tuple[CacheEntry, bool]]:
        """Every synchronized entry, with whether it is still current."""
        with self._lock:
            current = self.log.versions()
            return [(entry, entry.version == current)
                    for entry in self.store.entries()
                    if entry.site_id is None]

    def fulfill_synchronized(self, entry: CacheEntry) -> Relation:
        """A synchronized entry's relation, counted as a use."""
        with self._lock:
            self.store.get(entry.fingerprint)
            entry.hits += 1
            self.synchronized_hits += 1
            return entry.relation

    # -- retention ---------------------------------------------------------

    def prune_deltas(self) -> None:
        """Drop retained deltas no live entry can still consume."""
        with self._lock:
            for site_id in list(self._appended_sites):
                self.log.prune_below(site_id,
                                     self.store.min_version(site_id))

    def clear(self) -> None:
        with self._lock:
            self.store.clear()

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict[str, int]:
        stats = dict(self.store.stats())
        stats.update({
            "hits": self.hits,
            "misses": self.misses,
            "delta_merges": self.delta_merges,
            "full_recomputes_after_append":
                self.full_recomputes_after_append,
            "bytes_saved": self.bytes_saved,
            "retained_delta_bytes": self.log.retained_bytes(),
            "stale_hits_averted": self.stale_hits_averted,
            "shared_stale_averted": self.shared_stale_averted,
            "populate_races": self.populate_races,
            "pending": len(self._pending),
            "synchronized_hits": self.synchronized_hits,
            "synchronized_refreshes": self.synchronized_refreshes,
        })
        return stats

    def describe(self) -> str:
        stats = self.stats()
        return (f"sub-aggregate cache: {stats['entries']} entries, "
                f"{stats['used_bytes']:,}/{stats['budget_bytes']:,} B, "
                f"{stats['hits']} hits / {stats['misses']} misses / "
                f"{stats['delta_merges']} delta merges, "
                f"{stats['bytes_saved']:,} B saved")


__all__ = ["CacheDecision", "DELTA", "HIT", "MISS", "SHARED_WAIT_SECONDS",
           "SubAggregateCache"]
