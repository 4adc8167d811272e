"""Unit tests for the multi-tenant query service layer.

Covers each piece in isolation — the weighted-fair admission queue,
the compiled-plan cache, the service metrics — plus the service end
to end on the inprocess transport, the
append quiesce barrier, and the cache-level regression for the
concurrent delta-merge race (two queries holding the same entry must
not double-apply a delta).  Concurrent-vs-serial bit-identity and
fault injection live in ``tests/test_service_differential.py``; the
in-flight scans concurrent queries share through the cache's pending
entries in ``tests/test_cache_concurrency.py``.
"""

from __future__ import annotations

import time

import pytest

from repro.errors import (
    AdmissionError, DeadlineExceeded, QueryCancelled, ServiceError)
from repro.relational.aggregates import count_star
from repro.relational.expressions import b, r
from repro.relational.relation import Relation
from repro.core.builder import QueryBuilder, agg
from repro.cache import DELTA, HIT
from repro.distributed.engine import SkallaEngine
from repro.distributed.partition import (
    DistributionInfo, partition_by_hash, partition_round_robin)
from repro.distributed.plan import NO_OPTIMIZATIONS, OptimizationFlags
from repro.service import (
    FairQueue, PlanCache, QueryService, ServiceMetrics, percentile,
    plan_fingerprint)
from repro.service.metrics import QueryRecord
from repro.service.scheduler import CANCELLED, FAILED, QueryTicket
from repro.sql.compiler import compile_query


@pytest.fixture()
def detail():
    return Relation.from_dicts([
        {"g": i % 4, "v": float(i % 53)} for i in range(400)])


def make_engine(detail, num_sites=4, **kwargs):
    partitions = partition_round_robin(detail, num_sites)
    return SkallaEngine(partitions, **kwargs)


def reference_for(sql, engine):
    compiled = compile_query(sql, engine.detail_schema)
    table = compiled.run_centralized(engine.total_detail_relation())
    if not compiled.order_by:
        table = table.sort(list(compiled.expression.key))
    return table


SQL = "SELECT g, SUM(v) AS s, COUNT(*) AS n FROM t GROUP BY g"


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 95) == 0.0

    def test_single_sample(self):
        assert percentile([7.0], 50) == 7.0
        assert percentile([7.0], 99) == 7.0

    def test_interpolates(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == pytest.approx(2.5)
        assert percentile([1.0, 2.0, 3.0, 4.0], 100) == 4.0
        assert percentile([4.0, 1.0, 3.0, 2.0], 0) == 1.0  # sorts first


class TestServiceMetrics:
    def test_snapshot_counts_and_rates(self):
        metrics = ServiceMetrics()
        metrics.note_submitted("alpha")
        metrics.note_submitted("beta")
        metrics.record(QueryRecord(tenant="alpha", latency_seconds=0.010,
                                   queue_wait_seconds=0.001,
                                   plan_cache_hit=True,
                                   shared_scan_hits=3, site_scans=1))
        metrics.record(QueryRecord(tenant="beta", latency_seconds=0.030,
                                   queue_wait_seconds=0.002,
                                   error="boom"))
        snapshot = metrics.snapshot()
        assert snapshot["submitted"] == 2
        assert snapshot["completed"] == 1
        assert snapshot["failed"] == 1
        assert snapshot["plan_cache_hit_rate"] == 1.0
        assert snapshot["shared_scan_hits"] == 3
        assert set(snapshot["tenants"]) == {"alpha", "beta"}
        assert snapshot["latency_p50"] == pytest.approx(0.010)


# ---------------------------------------------------------------------------
# admission queue
# ---------------------------------------------------------------------------

def ticket(query_id, tenant="t", deadline=None):
    return QueryTicket(query_id, tenant, SQL, deadline_seconds=deadline)


class TestFairQueue:
    def test_weighted_tenant_drains_faster(self):
        queue = FairQueue(max_depth=16)
        queue.set_weight("heavy", 2.0)
        for i in range(4):
            queue.push(ticket(i, tenant="light"))
        for i in range(4, 8):
            queue.push(ticket(i, tenant="heavy"))
        order = [queue.pop(timeout=1).tenant for __ in range(8)]
        # weight 2 => finish tags 0.5,1.0,1.5,2.0 vs 1,2,3,4: the heavy
        # tenant's whole backlog drains among the first six dispatches
        assert order[0] == "heavy"
        assert order[:6].count("heavy") == 4
        assert order[6:] == ["light", "light"]

    def test_idle_tenant_not_penalized(self):
        queue = FairQueue(max_depth=16)
        for i in range(3):
            queue.push(ticket(i, tenant="busy"))
            assert queue.pop(timeout=1) is not None
        # virtual time advanced with the busy tenant; a newcomer's first
        # query must not start behind the backlog it never saw
        queue.push(ticket(10, tenant="busy"))
        queue.push(ticket(11, tenant="new"))
        assert queue.pop(timeout=1).tenant == "new"

    def test_bounded_depth_rejects(self):
        queue = FairQueue(max_depth=2)
        queue.push(ticket(1))
        queue.push(ticket(2))
        with pytest.raises(AdmissionError):
            queue.push(ticket(3))
        assert queue.tenants()["t"].rejected == 1
        assert queue.depth == 2

    def test_cancel_releases_slot_and_is_skipped(self):
        queue = FairQueue(max_depth=2)
        cancelled = []
        queue.on_cancel = cancelled.append
        first, second = ticket(1), ticket(2)
        queue.push(first)
        queue.push(second)
        assert first.cancel()
        assert cancelled == [first]
        queue.push(ticket(3))  # the freed slot is usable immediately
        assert queue.pop(timeout=1) is second
        with pytest.raises(QueryCancelled):
            first.result(timeout=1)
        assert first.state == CANCELLED

    def test_cancel_after_dispatch_is_refused(self):
        queue = FairQueue(max_depth=2)
        only = ticket(1)
        queue.push(only)
        popped = queue.pop(timeout=1)
        assert popped is only and popped._start()
        assert not only.cancel()

    def test_deadline_enforced_at_dispatch(self):
        queue = FairQueue(max_depth=4)
        expired = []
        queue.on_deadline = expired.append
        doomed = ticket(1, deadline=0.0)
        queue.push(doomed)
        queue.push(ticket(2))
        time.sleep(0.002)
        # the expired ticket is resolved and skipped, never returned
        assert queue.pop(timeout=1).query_id == 2
        assert expired == [doomed]
        assert doomed.state == FAILED
        with pytest.raises(DeadlineExceeded):
            doomed.result(timeout=1)

    def test_close_drains_backlog_as_cancelled(self):
        queue = FairQueue(max_depth=4)
        pending = [ticket(i) for i in range(3)]
        for item in pending:
            queue.push(item)
        drained = queue.close()
        assert set(drained) == set(pending)
        for item in pending:
            with pytest.raises(QueryCancelled):
                item.result(timeout=1)
        with pytest.raises(AdmissionError):
            queue.push(ticket(9))
        assert queue.pop(timeout=0.01) is None

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ServiceError):
            FairQueue(max_depth=0)
        queue = FairQueue()
        with pytest.raises(ServiceError):
            queue.set_weight("t", 0.0)
        with pytest.raises(ServiceError):
            queue.push(ticket(1), cost=0.0)


# ---------------------------------------------------------------------------
# compiled-plan cache
# ---------------------------------------------------------------------------

class TestPlanCache:
    @pytest.fixture()
    def cache(self, detail):
        engine = make_engine(detail)
        try:
            yield PlanCache(engine.detail_schema, engine.knowledge,
                            engine.site_ids)
        finally:
            engine.close()

    def test_exact_repeat_hits_text_tier(self, cache):
        flags = OptimizationFlags.all()
        __, hit = cache.lookup(SQL, flags)
        assert not hit
        entry, hit = cache.lookup(SQL, flags)
        assert hit and entry.hits == 1
        assert cache.stats()["text_hits"] == 1

    def test_reformatted_sql_hits_ast_tier(self, cache):
        flags = OptimizationFlags.all()
        first, __ = cache.lookup(SQL, flags)
        noisy = ("select   g, sum(v) AS s,\n  count(*) AS n"
                 "  FROM t GROUP BY g")
        second, hit = cache.lookup(noisy, flags)
        assert hit and second is first
        # the AST tier served it; the text tier never saw this spelling
        assert cache.stats()["text_hits"] == 0
        assert len(cache) == 1

    def test_flags_and_precision_key_distinct_entries(self, cache, detail):
        engine = make_engine(detail)
        try:
            schema = engine.detail_schema
        finally:
            engine.close()
        all_flags = OptimizationFlags.all()
        assert plan_fingerprint(SQL, schema, all_flags) \
            != plan_fingerprint(SQL, schema, NO_OPTIMIZATIONS)
        assert plan_fingerprint(SQL, schema, all_flags, 8) \
            != plan_fingerprint(SQL, schema, all_flags, 12)
        __, hit = cache.lookup(SQL, all_flags)
        __, hit = cache.lookup(SQL, NO_OPTIMIZATIONS)
        assert not hit  # different flags never share a plan
        assert len(cache) == 2

    def test_lru_eviction_bounds_entries(self, detail):
        engine = make_engine(detail)
        try:
            cache = PlanCache(engine.detail_schema, engine.knowledge,
                              engine.site_ids, max_entries=1)
        finally:
            engine.close()
        flags = OptimizationFlags.all()
        cache.lookup(SQL, flags)
        cache.lookup("SELECT g, AVG(v) AS a FROM t GROUP BY g", flags)
        assert len(cache) == 1
        __, hit = cache.lookup(SQL, flags)  # evicted: recompiled
        assert not hit


# ---------------------------------------------------------------------------
# the service end to end (inprocess; transports in the differential suite)
# ---------------------------------------------------------------------------

class TestQueryService:
    def test_serves_correct_results_and_snapshots(self, detail):
        engine = make_engine(detail)
        reference = reference_for(SQL, engine)
        try:
            with QueryService(engine, workers=4) as service:
                first = service.execute(SQL, tenant="alpha")
                second = service.execute(SQL, tenant="beta")
                assert first.relation.multiset_equals(reference)
                # deterministic ordering: bit-identical, not just equal
                assert second.relation.to_dicts() == \
                    first.relation.to_dicts()
                assert not first.plan_cache_hit
                assert second.plan_cache_hit
                snapshot = service.snapshot()
        finally:
            engine.close()
        assert snapshot["service"]["completed"] == 2
        assert snapshot["plan_cache"]["hits"] >= 1
        assert snapshot["subagg_cache"]["hits"] >= 1
        assert snapshot["subagg_cache"]["pending"] == 0
        assert snapshot["transport"] == "inprocess"

    def test_append_quiesces_then_serves_new_snapshot(self, detail):
        engine = make_engine(detail)
        try:
            with QueryService(engine, workers=2) as service:
                before = service.execute(SQL)
                service.append(0, Relation.from_dicts(
                    [{"g": 9, "v": 1.5}, {"g": 0, "v": 2.5}]))
                reference = reference_for(SQL, engine)
                after = service.execute(SQL)
                assert after.relation.multiset_equals(reference)
                assert not before.relation.multiset_equals(reference)
        finally:
            engine.close()

    def test_append_keeping_an_observed_fact_keeps_the_plan(self, detail):
        """``g`` is observed site-disjoint; rows whose ``g`` already
        lives at the appended site keep the fact, the knowledge epoch
        and the plan-cache hit."""
        engine = SkallaEngine(partition_by_hash(detail, "g", 2),
                              DistributionInfo())
        try:
            with QueryService(engine, workers=2) as service:
                assert not service.execute(SQL).plan_cache_hit
                assert service.execute(SQL).plan_cache_hit
                home = engine.fragment(0).column("g")[0]
                service.append(0, Relation.from_dicts(
                    [{"g": int(home), "v": 4.0}]))
                assert engine.knowledge.epoch == 0
                after = service.execute(SQL)
                assert after.plan_cache_hit
                assert after.relation.to_dicts() == \
                    reference_for(SQL, engine).to_dicts()
                entry, __ = service.plan_cache.lookup(
                    SQL, service.default_flags)
                assert entry.plan.union_on == "g"
                assert service.plan_cache.stats()["misses"] == 1
        finally:
            engine.close()

    def test_append_withdrawing_an_observed_fact_replans(self, detail):
        engine = SkallaEngine(partition_by_hash(detail, "g", 2),
                              DistributionInfo())
        try:
            with QueryService(engine, workers=2) as service:
                assert not service.execute(SQL).plan_cache_hit
                foreign = engine.fragment(0).column("g")[0]
                service.append(1, Relation.from_dicts(
                    [{"g": int(foreign), "v": 4.0}]))
                assert engine.knowledge.epoch == 1
                after = service.execute(SQL)
                assert not after.plan_cache_hit
                assert after.relation.to_dicts() == \
                    reference_for(SQL, engine).to_dicts()
                entry, hit = service.plan_cache.lookup(
                    SQL, service.default_flags)
                assert hit and entry.plan.union_on is None
        finally:
            engine.close()

    def test_cube_materialize_requires_cache(self, detail):
        engine = make_engine(detail)
        try:
            with pytest.raises(ServiceError, match="sub-aggregate cache"):
                QueryService(engine, enable_cache=False,
                             cube_materialize=True)
        finally:
            engine.close()

    def test_deadline_expired_query_fails_cleanly(self, detail):
        engine = make_engine(detail)
        try:
            with QueryService(engine, workers=1) as service:
                blocker = service.submit(SQL)
                doomed = service.submit(SQL, deadline_seconds=0.0)
                blocker.result(timeout=30)
                with pytest.raises(DeadlineExceeded):
                    doomed.result(timeout=30)
                deadline = service.metrics.snapshot()["deadline_expired"]
                assert deadline == 1
        finally:
            engine.close()


# ---------------------------------------------------------------------------
# cache: the concurrent delta-merge race
# ---------------------------------------------------------------------------

class TestConcurrentDeltaMergeRace:
    """Two queries holding one entry must not double-apply a delta.

    ``CacheStore.upgrade`` mutates the entry in place; under the
    serving layer two concurrent queries can both classify DELTA
    against the same entry.  Fulfillment must merge from the
    decide-time snapshot — merging into the *live* entry after the
    first query's upgrade would apply the appended rows twice.  The
    interleaving is reproduced deterministically: decide twice, then
    fulfill both.
    """

    def test_double_fulfillment_is_not_double_applied(self, detail):
        engine = make_engine(detail, num_sites=1)
        engine.enable_cache()
        cache = engine.cache
        recorded = []
        original = engine.transport.run_round

        def recording(requests):
            recorded.extend(requests)
            return original(requests)

        engine.transport.run_round = recording
        try:
            query = (QueryBuilder()
                     .base("g")
                     .gmdj([count_star("n"), agg("sum", "v", "s")],
                           r.g == b.g)
                     .build())
            engine.execute(query, NO_OPTIMIZATIONS)  # cold: populates
            step_request = next(request for request in recorded
                                if request.kind == "step")
            # delta keeps the existing g values, so the captured step
            # request's shipped base relation stays valid post-append
            delta = Relation.from_dicts(
                [{"g": i % 4, "v": 100.0 + i} for i in range(40)])
            engine.append(0, delta)

            first = cache.decide(step_request)
            second = cache.decide(step_request)
            assert first.outcome == DELTA and second.outcome == DELTA
            assert first.entry is second.entry  # the shared live entry

            merged_first, *_ = cache.apply_delta(
                first, ["g"], engine.detail_schema)
            # the racing query fulfills after the entry was upgraded
            merged_second, *_ = cache.apply_delta(
                second, ["g"], engine.detail_schema)

            from repro.cache.maintenance import evaluate_delta
            expected, __ = evaluate_delta(
                step_request, engine.fragment(0))
            assert merged_first.multiset_equals(expected)
            assert merged_second.multiset_equals(expected)
            # and the durable entry holds the single-application merge
            follow_up = cache.decide(step_request)
            assert follow_up.outcome == HIT
            assert follow_up.entry_relation.multiset_equals(expected)
        finally:
            engine.close()
