"""Tests for the pluggable transport layer.

Covers: backend parity on the integration queries (identical relations
across inprocess/thread/process), retry exhaustion re-raising the last
``SiteFailure``, exponential backoff with jitter, per-call deadlines,
process-level fault injection (a killed worker is respawned and the
query completes within the retry budget), and graceful degradation when
a worker pool cannot start.
"""

import multiprocessing
import random
import threading
import time
import warnings

import pytest

from repro.errors import PlanError, SiteFailure, TransportError
from repro.relational.aggregates import count_star
from repro.relational.expressions import b, r
from repro.relational.relation import Relation
from repro.core.builder import QueryBuilder, agg
from repro.distributed.engine import SkallaEngine
from repro.distributed.faults import FlakySite, ProcessFaultSpec
from repro.distributed.partition import partition_round_robin
from repro.distributed.plan import ALL_OPTIMIZATIONS, NO_OPTIMIZATIONS
from repro.distributed.transport import (
    DEFAULT_TRANSPORT, InProcessTransport, MultiprocessTransport,
    RetryPolicy, SiteRequest, ThreadTransport, TRANSPORTS, create_transport)
from repro.distributed.transport.process import (
    _claim_shared, _default_start_method)
from repro.distributed.transport import worker as worker_module
from repro.distributed.transport.worker import ship_shared


@pytest.fixture()
def detail():
    return Relation.from_dicts([
        {"g": i % 7, "v": float(i), "name": f"n{i % 11}",
         "flag": i % 3 == 0}
        for i in range(700)])


def correlated_query():
    return (QueryBuilder()
            .base("g")
            .gmdj([count_star("n"), agg("avg", "v", "m")], r.g == b.g)
            .gmdj([count_star("n2")], (r.g == b.g) & (r.v >= b.m))
            .build())


def make_engine(detail, transport, num_sites=3, **kwargs):
    partitions = partition_round_robin(detail, num_sites)
    return SkallaEngine(partitions, transport=transport, **kwargs)


# ---------------------------------------------------------------------------
# Registry / configuration
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_registry_names(self):
        assert set(TRANSPORTS) == {"inprocess", "thread", "process"}
        assert DEFAULT_TRANSPORT == "inprocess"

    def test_unknown_transport_rejected(self, detail):
        with pytest.raises(PlanError, match="unknown transport"):
            create_transport("carrier-pigeon", {})
        with pytest.raises(PlanError, match="unknown transport"):
            make_engine(detail, "bogus").execute(
                correlated_query(), NO_OPTIMIZATIONS)

    def test_engine_default_is_inprocess(self, detail):
        engine = make_engine(detail, None)
        assert engine.transport_name == "inprocess"
        assert isinstance(engine.transport, InProcessTransport)

    def test_use_transport_switches_and_closes(self, detail):
        engine = make_engine(detail, "inprocess")
        first = engine.transport
        assert first is engine.transport  # cached
        engine.use_transport("thread")
        assert isinstance(engine.transport, ThreadTransport)
        engine.close()

    def test_retry_policy_validation(self):
        with pytest.raises(PlanError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(PlanError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(PlanError):
            RetryPolicy(call_deadline=0.0)
        with pytest.raises(PlanError):
            RetryPolicy(base_delay=-0.1)

    def test_site_request_kind_validated(self):
        with pytest.raises(PlanError, match="kind"):
            SiteRequest(site_id=0, kind="teleport")


# ---------------------------------------------------------------------------
# Backoff policy
# ---------------------------------------------------------------------------

class TestBackoff:
    def test_zero_base_never_sleeps(self):
        policy = RetryPolicy(base_delay=0.0)
        rng = random.Random(0)
        assert policy.backoff_seconds(1, rng) == 0.0
        assert policy.backoff_seconds(5, rng) == 0.0

    def test_exponential_growth_capped(self):
        policy = RetryPolicy(base_delay=0.1, multiplier=2.0,
                             max_delay=0.35, jitter=0.0)
        rng = random.Random(0)
        assert policy.backoff_seconds(1, rng) == pytest.approx(0.1)
        assert policy.backoff_seconds(2, rng) == pytest.approx(0.2)
        assert policy.backoff_seconds(3, rng) == pytest.approx(0.35)  # cap
        assert policy.backoff_seconds(9, rng) == pytest.approx(0.35)

    def test_full_jitter_within_envelope(self):
        policy = RetryPolicy(base_delay=0.1, multiplier=2.0,
                             max_delay=1.0, jitter=1.0)
        rng = random.Random(42)
        samples = [policy.backoff_seconds(3, rng) for __ in range(200)]
        assert all(0.0 <= s <= 0.4 for s in samples)
        assert max(samples) > 0.3 and min(samples) < 0.1  # actually jittered

    def test_partial_jitter_floor(self):
        policy = RetryPolicy(base_delay=0.2, multiplier=1.0,
                             max_delay=1.0, jitter=0.25)
        rng = random.Random(7)
        samples = [policy.backoff_seconds(1, rng) for __ in range(100)]
        assert all(0.15 <= s <= 0.2 for s in samples)


# ---------------------------------------------------------------------------
# Parity: identical results across all backends
# ---------------------------------------------------------------------------

class TestParity:
    @pytest.mark.parametrize("flags", [NO_OPTIMIZATIONS, ALL_OPTIMIZATIONS])
    def test_all_transports_identical_relations(self, detail, flags):
        query = correlated_query()
        reference = query.evaluate_centralized(detail)
        relations = {}
        for name in TRANSPORTS:
            with make_engine(detail, name) as engine:
                result = engine.execute(query, flags)
            relations[name] = result.relation
            assert result.relation.multiset_equals(reference), name
        # pairwise bit-identical (same schema, same bag of rows)
        first = relations["inprocess"]
        for name, relation in relations.items():
            assert relation.multiset_equals(first), name

    def test_shared_memory_segment_roundtrip(self):
        payload = b"SKRL-ish payload " * 101
        name, size = ship_shared(payload)
        assert size == len(payload)
        assert _claim_shared(name, size) == payload
        # the segment is consumed: a second attach must fail
        from multiprocessing import shared_memory
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_shared_memory_empty_payload(self):
        name, size = ship_shared(b"")
        assert size == 0
        assert _claim_shared(name, size) == b""

    @pytest.mark.skipif(_default_start_method() != "fork",
                        reason="threshold patch needs fork inheritance")
    def test_process_transport_shared_memory_parity(self, detail,
                                                    monkeypatch):
        # Force even tiny sub-aggregates through the segment path so the
        # parity check genuinely exercises ship/claim on every response.
        monkeypatch.setattr(worker_module, "SHM_MIN_BYTES", 0)
        query = correlated_query()
        reference = query.evaluate_centralized(detail)
        with make_engine(detail, None) as engine:
            engine.use_transport("process", shared_memory=True)
            result = engine.execute(query, ALL_OPTIMIZATIONS)
            assert "shm" in engine.transport.describe()
        assert result.relation.multiset_equals(reference)
        assert result.metrics.real_bytes > 0

    def test_modeled_traffic_identical_across_backends(self, detail):
        query = correlated_query()
        totals = set()
        for name in TRANSPORTS:
            with make_engine(detail, name) as engine:
                result = engine.execute(query, NO_OPTIMIZATIONS)
            totals.add(result.metrics.total_bytes)
        assert len(totals) == 1, totals

    def test_process_transport_reports_real_bytes(self, detail):
        with make_engine(detail, "process") as engine:
            result = engine.execute(correlated_query(), NO_OPTIMIZATIONS)
        metrics = result.metrics
        assert metrics.transport == "process"
        assert metrics.real_bytes > 0
        assert metrics.real_seconds > 0.0
        assert metrics.summary()["real_bytes"] == metrics.real_bytes
        # per-message real sizes were attached to the upward transfers
        assert metrics.log.real_total_bytes() > 0

    def test_inprocess_reports_zero_real_bytes(self, detail):
        # ... and so does the thread backend: nothing is serialized
        for name in ("inprocess", "thread"):
            with make_engine(detail, name) as engine:
                result = engine.execute(correlated_query(),
                                        NO_OPTIMIZATIONS)
            assert result.metrics.real_bytes == 0, name
            assert result.metrics.log.real_total_bytes() == 0, name

    def test_append_invalidates_process_workers(self, detail):
        query = correlated_query()
        with make_engine(detail, "process") as engine:
            before = engine.execute(query, NO_OPTIMIZATIONS)
            extra = Relation.from_dicts([
                {"g": 1, "v": 9999.0, "name": "new", "flag": True}],
                schema=detail.schema)
            engine.append(0, extra)
            after = engine.execute(query, NO_OPTIMIZATIONS)
            expected = query.evaluate_centralized(
                engine.total_detail_relation())
        assert not after.relation.multiset_equals(before.relation)
        assert after.relation.multiset_equals(expected)

    def test_append_during_a_respawn_leaves_no_stale_worker(self, detail):
        """A call in flight respawns its site's worker from the fragment
        of that moment (a hedged round's losing primary does, after the
        kill of an earlier append).  An append that lands before that
        respawn registers must still retire the worker it produced."""
        query = correlated_query()
        with make_engine(detail, "process", hedge=False) as engine:
            engine.execute(query, NO_OPTIMIZATIONS)
            transport = engine.transport
            forked, release = threading.Event(), threading.Event()
            spawn = transport._spawn

            def slow_spawn(site_id):
                worker = spawn(site_id)     # forked from this fragment
                forked.set()
                release.wait(10)
                return worker

            transport._spawn = slow_spawn
            transport._workers[0].kill()    # the next call respawns
            caller = threading.Thread(target=transport.call, args=(
                SiteRequest(site_id=0, kind="base",
                            base_query=query.base),))
            caller.start()
            assert forked.wait(10)
            timer = threading.Timer(0.2, release.set)
            timer.start()
            engine.append(0, Relation.from_dicts([
                {"g": 1, "v": 9999.0, "name": "new", "flag": True}],
                schema=detail.schema))
            release.set()
            timer.join(10)
            caller.join(10)
            assert not caller.is_alive()
            transport._spawn = spawn
            after = engine.execute(query, NO_OPTIMIZATIONS)
            expected = query.evaluate_centralized(
                engine.total_detail_relation())
        assert after.relation.multiset_equals(expected)

    @pytest.mark.skipif(_default_start_method() != "fork",
                        reason="needs the fork start method")
    def test_forked_worker_inherits_its_site(self, detail):
        # No fragment is pickled or piped to a forked worker, at the
        # first spawn or at the respawn an append forces.
        query = correlated_query()
        with make_engine(detail, "process") as engine:
            engine.execute(query, NO_OPTIMIZATIONS)
            extra = Relation.from_dicts([
                {"g": 1, "v": 9999.0, "name": "new", "flag": True}],
                schema=detail.schema)
            engine.append(0, extra)
            after = engine.execute(query, NO_OPTIMIZATIONS)
            expected = query.evaluate_centralized(
                engine.total_detail_relation())
            assert engine.transport.total_respawns == 1
            assert engine.transport.setup_bytes == 0
        assert after.relation.multiset_equals(expected)

    @pytest.mark.skipif("spawn" not in
                        multiprocessing.get_all_start_methods(),
                        reason="needs the spawn start method")
    def test_spawned_worker_is_shipped_its_site(self, detail):
        # A fresh interpreter shares no memory with the coordinator:
        # the site still travels in the init frame.
        query = correlated_query()
        reference = query.evaluate_centralized(detail)
        with make_engine(detail, None, num_sites=2) as engine:
            engine.use_transport("process", start_method="spawn")
            result = engine.execute(query, ALL_OPTIMIZATIONS)
            assert engine.transport.setup_bytes > 0
        assert result.relation.multiset_equals(reference)

    def test_concurrent_first_queries_share_one_worker_pool(self, detail):
        # A query service's workers issue their first queries at once:
        # they must share one transport and one worker per site, and
        # close() must leave no worker behind.
        def site_workers():
            return {child for child in multiprocessing.active_children()
                    if child.name.startswith("skalla-site-")}

        before = site_workers()
        engine = make_engine(detail, "process", num_sites=4)
        query = correlated_query()
        reference = query.evaluate_centralized(detail)
        barrier = threading.Barrier(6, timeout=30)
        results = []

        def first_query():
            barrier.wait()
            results.append(engine.execute(query, NO_OPTIMIZATIONS))

        threads = [threading.Thread(target=first_query) for __ in range(6)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
                assert not thread.is_alive()
            assert len(site_workers() - before) == len(engine.sites)
        finally:
            engine.close()
        assert not site_workers() - before
        assert len(results) == 6
        assert all(result.relation.multiset_equals(reference)
                   for result in results)


# ---------------------------------------------------------------------------
# Retry semantics (all backends share the loop)
# ---------------------------------------------------------------------------

class TestRetries:
    @pytest.mark.parametrize("name", sorted(TRANSPORTS))
    def test_flaky_site_recovers_on_every_backend(self, detail, name):
        query = correlated_query()
        reference = query.evaluate_centralized(detail)
        partitions = partition_round_robin(detail, 3)
        engine = SkallaEngine(partitions, transport=name, max_retries=2)
        engine.sites[1] = FlakySite(1, partitions[1], failures=2)
        try:
            result = engine.execute(query, NO_OPTIMIZATIONS)
        finally:
            engine.close()
        assert result.relation.multiset_equals(reference)
        assert result.metrics.retries == 2

    def test_exhaustion_reraises_last_site_failure(self, detail):
        partitions = partition_round_robin(detail, 3)
        engine = SkallaEngine(partitions, transport="inprocess",
                              max_retries=1)
        engine.sites[2] = FlakySite(2, partitions[2], failures=99)
        with pytest.raises(SiteFailure) as excinfo:
            engine.execute(correlated_query(), NO_OPTIMIZATIONS)
        # the *last* failure of the failing site, not a wrapper
        assert excinfo.value.site_id == 2
        assert "site 2" in str(excinfo.value)
        # budget respected: 1 original + 1 retry
        assert engine.sites[2].attempts == 2

    def test_zero_retry_budget(self, detail):
        partitions = partition_round_robin(detail, 2)
        engine = SkallaEngine(partitions, transport="inprocess",
                              max_retries=0)
        engine.sites[0] = FlakySite(0, partitions[0], failures=1)
        with pytest.raises(SiteFailure):
            engine.execute(correlated_query(), NO_OPTIMIZATIONS)
        assert engine.sites[0].attempts == 1

    def test_no_module_global_retry_lock(self):
        """The old module-global `_RETRY_LOCK` is gone; retry state is
        per-engine (policy object + per-transport lock)."""
        import repro.distributed.engine as engine_module
        assert not hasattr(engine_module, "_RETRY_LOCK")

    def test_engines_have_independent_policies(self, detail):
        fast = make_engine(detail, "inprocess",
                           retry_policy=RetryPolicy(max_retries=0))
        patient = make_engine(detail, "inprocess",
                              retry_policy=RetryPolicy(max_retries=5))
        assert fast.retry_policy is not patient.retry_policy
        assert fast.transport.retry.max_retries == 0
        assert patient.transport.retry.max_retries == 5

    def test_backoff_sleeps_between_retries(self, detail, monkeypatch):
        sleeps = []
        import repro.distributed.transport.base as base_module
        monkeypatch.setattr(base_module.time, "sleep",
                            lambda s: sleeps.append(s))
        partitions = partition_round_robin(detail, 2)
        engine = SkallaEngine(
            partitions, transport="inprocess",
            retry_policy=RetryPolicy(max_retries=3, base_delay=0.1,
                                     multiplier=2.0, max_delay=10.0,
                                     jitter=0.0))
        engine.sites[1] = FlakySite(1, partitions[1], failures=2)
        result = engine.execute(correlated_query(), NO_OPTIMIZATIONS)
        assert result.metrics.retries == 2
        assert sleeps == [pytest.approx(0.1), pytest.approx(0.2)]


# ---------------------------------------------------------------------------
# Process-level faults: crash, hang, exhaustion, degradation
# ---------------------------------------------------------------------------

class TestProcessFaults:
    def test_fault_spec_validation(self):
        with pytest.raises(ValueError):
            ProcessFaultSpec(kill_on_request=0)
        with pytest.raises(ValueError):
            ProcessFaultSpec(hang_seconds=-1.0)

    def test_killed_worker_respawned_query_completes(self, detail):
        query = correlated_query()
        reference = query.evaluate_centralized(detail)
        # hedge=False: the counters below belong to the retry arm; a
        # hedge that wins the round first reports neither.
        engine = make_engine(
            detail, "process", num_sites=2, hedge=False,
            retry_policy=RetryPolicy(max_retries=2, base_delay=0.01),
            transport_options={
                "fault_specs": {1: ProcessFaultSpec(kill_on_request=1)}})
        try:
            result = engine.execute(query, NO_OPTIMIZATIONS)
        finally:
            engine.close()
        assert result.relation.multiset_equals(reference)
        assert result.metrics.retries == 1
        assert result.metrics.worker_respawns >= 1

    def test_hung_worker_killed_after_deadline(self, detail):
        query = correlated_query()
        reference = query.evaluate_centralized(detail)
        # hedge=False: with hedging on (the default) a straggler this
        # slow is served by a hedged re-dispatch before the deadline
        # fires, and the retry path under test never runs (that faster
        # recovery is covered by tests/test_parallel_faults.py).
        engine = make_engine(
            detail, "process", num_sites=2, hedge=False,
            retry_policy=RetryPolicy(max_retries=2, call_deadline=0.5),
            transport_options={
                "fault_specs": {0: ProcessFaultSpec(hang_on_request=1,
                                                    hang_seconds=30.0)}})
        try:
            result = engine.execute(query, NO_OPTIMIZATIONS)
        finally:
            engine.close()
        assert result.relation.multiset_equals(reference)
        assert result.metrics.retries >= 1
        assert result.metrics.worker_respawns >= 1

    def test_repeating_kill_exhausts_budget(self, detail):
        # hedge=False: a site raises only when *every* arm failed, and
        # with hedging on (the default) the coordinator's own copy
        # answers site 1 as soon as the kill -> respawn -> kill cycle
        # outlasts the hedge floor (next test) — nothing would raise.
        engine = make_engine(
            detail, "process", num_sites=2, hedge=False,
            retry_policy=RetryPolicy(max_retries=1),
            transport_options={
                "fault_specs": {1: ProcessFaultSpec(kill_on_request=1,
                                                    repeat=True)}})
        try:
            with pytest.raises(SiteFailure) as excinfo:
                engine.execute(correlated_query(), NO_OPTIMIZATIONS)
        finally:
            engine.close()
        assert excinfo.value.site_id == 1
        assert "crashed" in str(excinfo.value)

    def test_repeating_kill_is_answered_by_the_hedge(self, detail):
        """The hedged outcome of the same permanently crashing worker:
        the 0.2 s backoff between the two kills outlasts the 50 ms
        hedge floor in every round, so the coordinator-side arm wins
        all three rounds and the query completes, exact."""
        query = correlated_query()
        engine = make_engine(
            detail, "process", num_sites=2,
            retry_policy=RetryPolicy(max_retries=1, base_delay=0.2,
                                     jitter=0.0),
            transport_options={
                "fault_specs": {1: ProcessFaultSpec(kill_on_request=1,
                                                    repeat=True)}})
        with warnings.catch_warnings():
            # the last round's losing primary wakes from its backoff
            # after close() and is refused a respawn, with a warning
            warnings.simplefilter("ignore", RuntimeWarning)
            try:
                result = engine.execute(query, NO_OPTIMIZATIONS)
            finally:
                engine.close()
            time.sleep(0.25)
        assert result.relation.multiset_equals(
            query.evaluate_centralized(detail))
        assert result.metrics.hedges_won == 3

    def test_flaky_site_failure_crosses_process_boundary(self, detail):
        """A SiteFailure raised *inside* a worker pickles back intact."""
        partitions = partition_round_robin(detail, 2)
        engine = SkallaEngine(partitions, transport="process",
                              max_retries=2)
        engine.sites[1] = FlakySite(1, partitions[1], failures=1)
        query = correlated_query()
        try:
            result = engine.execute(query, NO_OPTIMIZATIONS)
        finally:
            engine.close()
        assert result.metrics.retries == 1
        assert result.relation.multiset_equals(
            query.evaluate_centralized(detail))

    def test_graceful_degradation_when_pool_cannot_start(
            self, detail, monkeypatch):
        def no_spawn(self, site_id):
            raise TransportError("subprocesses forbidden")
        monkeypatch.setattr(MultiprocessTransport, "_spawn", no_spawn)
        query = correlated_query()
        reference = query.evaluate_centralized(detail)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with make_engine(detail, "process") as engine:
                result = engine.execute(query, NO_OPTIMIZATIONS)
                assert engine.transport.degraded
        assert result.relation.multiset_equals(reference)
        assert any("degrading to in-process" in str(w.message)
                   for w in caught)
        # degraded execution is in-process: no real bytes
        assert result.metrics.real_bytes == 0


# ---------------------------------------------------------------------------
# Error plumbing
# ---------------------------------------------------------------------------

class TestErrorPlumbing:
    def test_site_failure_pickles_intact(self):
        import pickle
        failure = SiteFailure(5, "disk on fire")
        clone = pickle.loads(pickle.dumps(failure))
        assert clone.site_id == 5
        assert str(clone) == "disk on fire"

    def test_default_start_method_is_supported(self):
        import multiprocessing
        assert _default_start_method() in \
            multiprocessing.get_all_start_methods()

    def test_worker_unpicklable_error_downgraded(self):
        from repro.distributed.transport.worker import _picklable_error

        class Unpicklable(Exception):
            def __reduce__(self):
                raise TypeError("nope")

        result = _picklable_error(Unpicklable("boom"))
        assert "Unpicklable" in str(result)
        ok = _picklable_error(ValueError("fine"))
        assert isinstance(ok, ValueError)
