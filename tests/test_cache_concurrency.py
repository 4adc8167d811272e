"""Sub-aggregate cache vs in-flight appends: race regression tests.

Hit/miss classification happens *before* a round is scattered; with
concurrent dispatch an :meth:`SkallaEngine.append` can land while the
round is in flight.  Two races must never corrupt results:

* **stale HIT** — an entry classified HIT is invalidated mid-flight.
  The engine re-validates every HIT at *gather time* and demotes it
  (``SubAggregateCache.revalidate``); serving the pre-append snapshot
  would silently drop the appended rows from the answer.
* **poisoned populate** — a response computed for a MISS lands after
  the site's version moved.  Whether the computation saw the appended
  rows is unknowable, so ``populate`` refuses to store it; caching it
  under either version would make a later delta merge double-apply
  (or lose) the append.

Both are tested at the cache-API level (deterministic interleaving)
and through the engine with a transport that injects the append at the
worst possible moment.

The cache's pending entries — concurrent queries that miss on one
``(fingerprint, site, version)`` share one in-flight scan — are tested
the same two ways: claim / populate / abandon / await at the API, and
two engine threads whose leader's site call is held by a gate until
the follower has decided.
"""

import threading

import pytest

from repro.relational.aggregates import count_star
from repro.relational.expressions import b, r
from repro.relational.relation import Relation
from repro.core.builder import QueryBuilder, agg
from repro.errors import SiteFailure
from repro.cache import DELTA, HIT, MISS, SubAggregateCache
from repro.cache import manager
from repro.distributed.engine import SkallaEngine
from repro.distributed.partition import partition_round_robin
from repro.distributed.plan import NO_OPTIMIZATIONS, OptimizationFlags
from repro.distributed.transport import SiteRequest
from repro.distributed.transport.inprocess import InProcessTransport


@pytest.fixture()
def detail():
    return Relation.from_dicts([
        {"g": i % 4, "v": float(i)} for i in range(400)])


def new_rows(start, count=40):
    return Relation.from_dicts([
        {"g": i % 4, "v": float(1000 + start + i)} for i in range(count)])


def simple_query():
    return (QueryBuilder()
            .base("g")
            .gmdj([count_star("n"), agg("sum", "v", "s")], r.g == b.g)
            .build())


def base_request(site_id, query):
    return SiteRequest(site_id=site_id, kind="base",
                       base_query=query.base)


# ---------------------------------------------------------------------------
# Cache-API level: deterministic interleavings
# ---------------------------------------------------------------------------

class TestCacheApiRaces:
    def test_hit_demoted_when_append_lands_in_flight(self, detail):
        cache = SubAggregateCache()
        query = simple_query()
        request = base_request(0, query)
        miss = cache.decide(request)
        assert miss.outcome == MISS
        assert cache.populate(miss, detail)  # warm the entry

        decision = cache.decide(request)
        assert decision.outcome == HIT
        assert cache.revalidate(decision)  # nothing raced: still good

        # the round is "in flight" — an append lands now
        cache.on_append(0, new_rows(0))
        assert not cache.revalidate(decision)
        assert cache.stats()["stale_hits_averted"] == 1
        # re-deciding resolves to the delta-merge path, never the
        # stale snapshot
        fresh = cache.decide(request)
        assert fresh.outcome == DELTA

    def test_populate_refused_when_version_moved_in_flight(self, detail):
        cache = SubAggregateCache()
        request = base_request(0, simple_query())
        decision = cache.decide(request)
        assert decision.outcome == MISS

        # the site call is in flight when the append lands
        cache.on_append(0, new_rows(0))
        assert not cache.populate(decision, detail)
        assert cache.stats()["populate_races"] == 1
        # nothing was stored: the next lookup is a clean miss, not a
        # hit on a relation of unknowable snapshot
        assert cache.decide(request).outcome == MISS

    def test_populate_succeeds_when_no_append_raced(self, detail):
        cache = SubAggregateCache()
        request = base_request(0, simple_query())
        decision = cache.decide(request)
        assert cache.populate(decision, detail)
        assert cache.decide(request).outcome == HIT
        assert cache.stats()["populate_races"] == 0

    def test_hit_counters_net_out_after_demotion(self, detail):
        cache = SubAggregateCache()
        request = base_request(0, simple_query())
        cache.populate(cache.decide(request), detail)
        decision = cache.decide(request)
        hits_before = cache.stats()["hits"]
        cache.on_append(0, new_rows(0))
        assert not cache.revalidate(decision)
        # the optimistic hit was rebooked as a miss
        assert cache.stats()["hits"] == hits_before - 1


# ---------------------------------------------------------------------------
# Engine level: append injected at the worst moment of a round
# ---------------------------------------------------------------------------

class AppendDuringRoundTransport(InProcessTransport):
    """Lands an append right when the first round is in flight.

    ``run_round`` fires after classification (decisions are frozen) and
    before responses are gathered — exactly the window a concurrent
    append exploits.  The append goes through ``SkallaEngine.append``,
    so fragment, cache version, and delta log all move together.
    """

    name = "append-during-round"

    def __init__(self, sites, engine, rows, retry=None, **options):
        super().__init__(sites, retry=retry, **options)
        self._engine = engine
        self._rows = rows
        self.fired = False

    def run_round(self, requests):
        if not self.fired:
            self.fired = True
            self._engine.append(0, self._rows)
        return super().run_round(requests)


class TestEngineRaces:
    def test_mid_flight_append_never_caches_poisoned_entry(self, detail):
        partitions = partition_round_robin(detail, 3)
        engine = SkallaEngine(partitions, cache=True)
        rows = new_rows(0)
        transport = AppendDuringRoundTransport(engine.sites, engine, rows)
        engine.use_transport(transport)
        query = simple_query()

        result = engine.execute(query, NO_OPTIMIZATIONS)
        # the appended rows were ingested before site 0's fragment was
        # scanned, so the answer reflects them
        reference = query.evaluate_centralized(
            engine.total_detail_relation())
        assert result.relation.multiset_equals(reference)
        # site 0's response must NOT have been cached: its version
        # moved mid-flight
        assert engine.cache.stats()["populate_races"] >= 1

        # warm run: still correct, and site 0 re-scans (its entry was
        # refused) while the untouched sites hit
        warm = engine.execute(query, NO_OPTIMIZATIONS)
        assert warm.relation.multiset_equals(reference)
        assert warm.metrics.cache_hits >= 1
        assert warm.metrics.site_scans >= 1
        engine.close()

    def test_gather_time_revalidation_serves_fresh_rows(self, detail):
        """A warm HIT invalidated mid-flight is recomputed, not served."""
        partitions = partition_round_robin(detail, 3)
        engine = SkallaEngine(partitions, cache=True)
        query = simple_query()
        engine.execute(query, NO_OPTIMIZATIONS)  # warm every site

        rows = new_rows(100)
        transport = AppendDuringRoundTransport(engine.sites, engine, rows)
        engine.use_transport(transport)
        # Fully warm cache: no misses, so the injected transport never
        # fires — emulate the in-flight append by hooking the *hit*
        # path instead: append right after classification.
        decisions_seen = []
        original_classify = engine._classify

        def classify_then_append(requests):
            decisions = original_classify(requests)
            if not transport.fired:
                transport.fired = True
                engine.append(0, rows)
            decisions_seen.append(decisions)
            return decisions

        engine._classify = classify_then_append
        result = engine.execute(query, NO_OPTIMIZATIONS)
        engine._classify = original_classify

        reference = query.evaluate_centralized(
            engine.total_detail_relation())
        # served from post-append state — the stale snapshot would be
        # missing the appended rows' contribution
        assert result.relation.multiset_equals(reference)
        assert engine.cache.stats()["stale_hits_averted"] >= 1
        engine.close()


# ---------------------------------------------------------------------------
# Pending entries: one in-flight scan shared across concurrent queries
# ---------------------------------------------------------------------------

def claimed(cache, request, leads):
    decision = cache.decide(request)
    assert decision.outcome == MISS
    assert cache.claim(decision) is leads
    return decision


class TestPendingScans:
    def test_leader_then_followers_share_one_dispatch(self, detail):
        cache = SubAggregateCache()
        request = base_request(0, simple_query())
        leader = claimed(cache, request, leads=True)
        followers = [claimed(cache, request, leads=False)
                     for __ in range(3)]
        assert cache.stats()["pending"] == 1
        assert cache.populate(leader, detail)
        for decision in followers:
            assert cache.await_claim(decision) == (detail, False)
        assert cache.stats()["pending"] == 0
        # landed in the store too: the next query hits
        assert cache.decide(request).outcome == HIT

    def test_version_partitions_claims(self, detail):
        cache = SubAggregateCache()
        request = base_request(0, simple_query())
        before = claimed(cache, request, leads=True)
        cache.on_append(0, new_rows(0))
        # the same fingerprint at a later fragment version is other work
        after = claimed(cache, request, leads=True)
        cache.abandon(before)
        cache.abandon(after)
        assert cache.stats()["pending"] == 0

    def test_leader_failure_sends_followers_to_dispatch(self, detail):
        cache = SubAggregateCache()
        request = base_request(0, simple_query())
        leader = claimed(cache, request, leads=True)
        follower = claimed(cache, request, leads=False)
        cache.abandon(leader)
        assert cache.await_claim(follower) == (None, False)
        # the entry is gone: the fallback's own dispatch leads
        fallback = claimed(cache, request, leads=True)
        cache.populate(fallback, detail)
        assert cache.stats()["pending"] == 0

    def test_follower_wait_times_out(self, detail, monkeypatch):
        monkeypatch.setattr(manager, "SHARED_WAIT_SECONDS", 0.01)
        cache = SubAggregateCache()
        request = base_request(0, simple_query())
        leader = claimed(cache, request, leads=True)
        follower = claimed(cache, request, leads=False)
        assert cache.await_claim(follower) == (None, False)
        # the wedged leader still owns its claim until it resolves
        assert cache.stats()["pending"] == 1
        cache.populate(leader, detail)
        assert cache.stats()["pending"] == 0

    def test_populate_unblocks_concurrent_waiter(self, detail):
        cache = SubAggregateCache()
        request = base_request(0, simple_query())
        leader = claimed(cache, request, leads=True)
        follower = claimed(cache, request, leads=False)
        landed = []
        thread = threading.Thread(
            target=lambda: landed.append(cache.await_claim(follower)))
        thread.start()
        cache.populate(leader, detail)
        thread.join(timeout=5)
        assert not thread.is_alive() and landed == [(detail, False)]

    def test_stale_share_is_discarded(self, detail):
        cache = SubAggregateCache()
        request = base_request(0, simple_query())
        leader = claimed(cache, request, leads=True)
        follower = claimed(cache, request, leads=False)
        cache.on_append(0, new_rows(0))  # lands while the scan flies
        assert not cache.populate(leader, detail)
        assert cache.await_claim(follower) == (None, True)
        stats = cache.stats()
        assert stats["shared_stale_averted"] == 1
        assert stats["pending"] == 0


class GatedTransport(InProcessTransport):
    """Holds the first round's site call until the gate opens.

    ``fail_first`` makes that held call fail instead of answering.
    """

    name = "gated"

    def __init__(self, sites, retry=None, fail_first=False, **options):
        super().__init__(sites, retry=retry, **options)
        self.entered = threading.Event()
        self.gate = threading.Event()
        self.fail_first = fail_first
        self.calls = 0

    def run_round(self, requests):
        self.calls += 1
        if self.calls == 1:
            self.entered.set()
            assert self.gate.wait(10)
            if self.fail_first:
                raise SiteFailure("site down for the leader")
        return super().run_round(requests)


class TestEngineSingleFlight:
    """Two concurrent identical cold queries on one cached engine."""

    NUM_SITES = 3

    def run_pair(self, detail, fail_first=False, between=None):
        engine = SkallaEngine(partition_round_robin(detail, self.NUM_SITES),
                              cache=True)
        transport = GatedTransport(engine.sites, fail_first=fail_first)
        engine.use_transport(transport)
        query = simple_query()
        flags = OptimizationFlags.all()
        follows = threading.Semaphore(0)
        claim = engine.cache.claim

        def counted_claim(decision):
            leads = claim(decision)
            if not leads:
                follows.release()
            return leads

        engine.cache.claim = counted_claim
        outcomes = {}

        def run(name):
            try:
                outcomes[name] = engine.execute(query, flags)
            except SiteFailure as error:
                outcomes[name] = error

        leader = threading.Thread(target=run, args=("leader",))
        leader.start()
        assert transport.entered.wait(10)
        follower = threading.Thread(target=run, args=("follower",))
        follower.start()
        for __ in range(self.NUM_SITES):  # the follower has decided
            assert follows.acquire(timeout=10)
        if between is not None:
            between(engine)
        transport.gate.set()
        leader.join(timeout=30)
        follower.join(timeout=30)
        assert not leader.is_alive() and not follower.is_alive()
        assert engine.cache.stats()["pending"] == 0
        reference = query.evaluate_centralized(
            engine.total_detail_relation())
        engine.close()
        return outcomes["leader"], outcomes["follower"], reference, engine

    def test_one_scan_per_site_for_two_cold_queries(self, detail):
        leader, follower, reference, __ = self.run_pair(detail)
        assert leader.metrics.num_synchronizations == 1
        assert leader.metrics.site_scans == self.NUM_SITES
        assert follower.metrics.site_scans == 0
        assert follower.metrics.shared_scan_hits == self.NUM_SITES
        assert leader.relation.multiset_equals(reference)
        assert follower.relation.multiset_equals(reference)

    def test_failing_leader_sends_follower_to_its_own_scans(self, detail):
        leader, follower, reference, __ = self.run_pair(
            detail, fail_first=True)
        assert isinstance(leader, SiteFailure)
        assert follower.metrics.shared_scan_hits == 0
        assert follower.metrics.site_scans == self.NUM_SITES
        assert follower.relation.multiset_equals(reference)

    def test_append_during_shared_scan_is_discarded(self, detail):
        rows = new_rows(200)
        leader, follower, reference, engine = self.run_pair(
            detail, between=lambda engine: engine.append(0, rows))
        # the appended site's shared result was dropped and re-scanned
        assert follower.metrics.shared_scan_stale == 1
        assert follower.metrics.shared_scan_hits == self.NUM_SITES - 1
        assert follower.metrics.site_scans == 1
        assert engine.cache.stats()["shared_stale_averted"] == 1
        assert leader.relation.multiset_equals(reference)
        assert follower.relation.multiset_equals(reference)
