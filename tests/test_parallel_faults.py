"""Fault injection under *concurrent* scatter-gather dispatch.

PR 1 proved the retry/backoff/respawn machinery under sequential
dispatch; these tests re-run the same failure modes while rounds are
scattered on thread pools / worker processes, plus the new straggler
story:

* a flaky site failing mid-scatter is retried inside its own arm —
  the other sites' in-flight work is unaffected and counters stay
  accurate;
* a killed worker process is respawned and its round retried while
  the surviving workers' responses are gathered concurrently;
* a transiently slow site (real ``time.sleep``) is hedged: one
  idempotent duplicate is issued past the median-derived deadline,
  the fast duplicate wins, and the round's wall-clock stays far below
  the straggler's delay;
* a hung worker under the process transport is hedged via the
  coordinator's live site copy — no deadline blown, no retry needed;
* retry-budget exhaustion still degrades exactly per the PR 1
  contract (the last ``SiteFailure`` propagates) even when the round
  was scattered;
* faults aimed at *virtual sub-sites* (skew-aware splitting of a hot
  fragment): a killed worker mid-scatter is respawned and retried, a
  hung one is hedged, a flaky in-pool sub-site retries in its own arm
  — results stay exact and the skew counters stay consistent.
"""

import pytest

from repro.errors import SiteFailure
from repro.relational.aggregates import count_star
from repro.relational.expressions import b, r
from repro.core.builder import QueryBuilder, agg
from repro.distributed.engine import SkallaEngine
from repro.distributed.faults import (
    FlakySite, ProcessFaultSpec, SlowSite)
from repro.distributed.partition import partition_round_robin
from repro.distributed.plan import NO_OPTIMIZATIONS
from repro.distributed.site import SkallaSite
from repro.distributed.transport import HedgePolicy, RetryPolicy
from repro.relational.relation import Relation
from repro.skew import SkewPlanner, SkewPolicy, virtual_site_id

#: real sleep injected into straggler sites (seconds).  Large enough to
#: dwarf a healthy site's compute, small enough for a fast suite.
STRAGGLER_DELAY = 0.4


@pytest.fixture()
def detail():
    return Relation.from_dicts([
        {"g": i % 5, "v": float(i % 97), "tag": f"t{i % 13}"}
        for i in range(600)])


def simple_query():
    return (QueryBuilder()
            .base("g")
            .gmdj([count_star("n"), agg("sum", "v", "s")], r.g == b.g)
            .build())


def make_engine(detail, transport, num_sites=4, **kwargs):
    partitions = partition_round_robin(detail, num_sites)
    return SkallaEngine(partitions, transport=transport, **kwargs)


class TestRetryUnderScatter:
    def test_flaky_site_mid_scatter_recovers(self, detail):
        query = simple_query()
        reference = query.evaluate_centralized(detail)
        engine = make_engine(
            detail, "thread",
            retry_policy=RetryPolicy(max_retries=2, base_delay=0.001))
        partitions = partition_round_robin(detail, 4)
        engine.sites[2] = FlakySite(2, partitions[2], failures=2)
        try:
            result = engine.execute(query, NO_OPTIMIZATIONS)
        finally:
            engine.close()
        assert result.relation.multiset_equals(reference)
        assert result.metrics.retries == 2
        # concurrent dispatch was actually used
        assert any(phase.dispatch == "scatter"
                   for phase in result.metrics.phases)

    def test_killed_worker_mid_scatter_recovers(self, detail):
        query = simple_query()
        reference = query.evaluate_centralized(detail)
        # hedge=False: the counters below belong to the retry arm; a
        # hedge that wins the round first reports neither.
        engine = make_engine(
            detail, "process", hedge=False,
            retry_policy=RetryPolicy(max_retries=2, base_delay=0.01),
            transport_options={
                "fault_specs": {1: ProcessFaultSpec(kill_on_request=1)}})
        try:
            result = engine.execute(query, NO_OPTIMIZATIONS)
        finally:
            engine.close()
        assert result.relation.multiset_equals(reference)
        assert result.metrics.retries >= 1
        assert result.metrics.worker_respawns >= 1
        assert any(phase.dispatch == "scatter"
                   for phase in result.metrics.phases)

    def test_budget_exhaustion_contract_survives_scatter(self, detail):
        engine = make_engine(
            detail, "thread",
            retry_policy=RetryPolicy(max_retries=1, base_delay=0.001))
        partitions = partition_round_robin(detail, 4)
        engine.sites[0] = FlakySite(0, partitions[0], failures=99)
        try:
            with pytest.raises(SiteFailure) as excinfo:
                engine.execute(simple_query(), NO_OPTIMIZATIONS)
        finally:
            engine.close()
        assert excinfo.value.site_id == 0


class TestHedging:
    def test_transient_straggler_is_hedged_on_threads(self, detail):
        query = simple_query()
        reference = query.evaluate_centralized(detail)
        engine = make_engine(
            detail, "thread",
            hedge=HedgePolicy(multiplier=1.25, min_seconds=0.02))
        partitions = partition_round_robin(detail, 4)
        # only the first call sleeps: the hedged duplicate is fast
        engine.sites[3] = SlowSite(3, partitions[3],
                                   delay_seconds=STRAGGLER_DELAY,
                                   slow_calls=1)
        try:
            result = engine.execute(query, NO_OPTIMIZATIONS)
        finally:
            engine.close()
        metrics = result.metrics
        assert result.relation.multiset_equals(reference)
        assert metrics.hedges_issued >= 1
        assert metrics.hedges_won >= 1
        # the hedge resolved the round well below the straggler's delay
        assert metrics.real_seconds < STRAGGLER_DELAY

    def test_hung_worker_is_hedged_on_processes(self, detail):
        query = simple_query()
        reference = query.evaluate_centralized(detail)
        engine = make_engine(
            detail, "process",
            hedge=HedgePolicy(multiplier=1.25, min_seconds=0.02),
            transport_options={
                "fault_specs": {2: ProcessFaultSpec(
                    hang_on_request=1, hang_seconds=2.0)}})
        try:
            result = engine.execute(query, NO_OPTIMIZATIONS)
        finally:
            engine.close()
        metrics = result.metrics
        assert result.relation.multiset_equals(reference)
        assert metrics.hedges_won >= 1
        # resolved via the coordinator-side duplicate: no deadline was
        # blown, so the retry counter stays untouched
        assert metrics.retries == 0
        assert metrics.real_seconds < 2.0

    def test_no_hedge_when_disabled(self, detail):
        engine = make_engine(detail, "thread", hedge=False)
        partitions = partition_round_robin(detail, 4)
        engine.sites[3] = SlowSite(3, partitions[3],
                                   delay_seconds=0.05, slow_calls=1)
        try:
            result = engine.execute(simple_query(), NO_OPTIMIZATIONS)
        finally:
            engine.close()
        assert result.metrics.hedges_issued == 0

    def test_duplicate_response_is_discarded_not_double_counted(
            self, detail):
        """First response wins; the loser must not corrupt the result."""
        query = (QueryBuilder()
                 .base("g")
                 .gmdj([count_star("n")], r.g == b.g)
                 .gmdj([agg("sum", "v", "s2")],
                       (r.g == b.g) & (r.v >= 1.0))
                 .build())
        reference = query.evaluate_centralized(detail)
        engine = make_engine(
            detail, "thread",
            hedge=HedgePolicy(multiplier=1.1, min_seconds=0.01))
        partitions = partition_round_robin(detail, 4)
        # chronically slow: primary AND hedge both eventually answer —
        # exactly one may be merged per round
        engine.sites[1] = SlowSite(1, partitions[1], delay_seconds=0.08)
        try:
            result = engine.execute(query, NO_OPTIMIZATIONS)
        finally:
            engine.close()
        assert result.relation.multiset_equals(reference)
        metrics = result.metrics
        assert metrics.hedges_issued >= 1
        # every hedge resolves as exactly one of won/wasted
        assert (metrics.hedges_won + metrics.hedges_wasted
                == metrics.hedges_issued)


class TestSkewAccounting:
    def test_straggler_shows_up_in_skew_metrics(self, detail):
        engine = make_engine(detail, "thread", hedge=False)
        partitions = partition_round_robin(detail, 4)
        engine.sites[0] = SlowSite(0, partitions[0], delay_seconds=0.06)
        try:
            result = engine.execute(simple_query(), NO_OPTIMIZATIONS)
        finally:
            engine.close()
        metrics = result.metrics
        assert metrics.skew_ratio > 1.5
        assert metrics.critical_path_seconds < metrics.sum_site_wall_seconds
        assert metrics.parallel_speedup_bound > 1.0
        for phase in metrics.phases:
            assert set(phase.site_wall_seconds) == set(range(4))
            # slowest site per round is the injected straggler
            assert max(phase.site_wall_seconds,
                       key=phase.site_wall_seconds.get) == 0

    def test_sequential_inprocess_still_records_distribution(self, detail):
        engine = make_engine(detail, "inprocess")
        try:
            result = engine.execute(simple_query(), NO_OPTIMIZATIONS)
        finally:
            engine.close()
        for phase in result.metrics.phases:
            assert phase.dispatch == "sequential"
            assert set(phase.site_wall_seconds) == set(range(4))
        assert result.metrics.hedges_issued == 0

    def test_straggler_sleep_is_wall_not_site_seconds(self, detail):
        """Site seconds are the site's own scan time: a real sleep in
        front of the scan lengthens the measured latency only."""
        engine = make_engine(detail, "thread", hedge=False)
        partitions = partition_round_robin(detail, 4)
        engine.sites[0] = SlowSite(0, partitions[0],
                                   delay_seconds=STRAGGLER_DELAY)
        try:
            result = engine.execute(simple_query(), NO_OPTIMIZATIONS)
        finally:
            engine.close()
        for phase in result.metrics.phases:
            assert phase.site_wall_seconds[0] >= STRAGGLER_DELAY
            assert phase.site_seconds < STRAGGLER_DELAY


class TestVirtualSiteFaults:
    """Faults landing on skew-split *virtual* sub-sites mid-scatter.

    Site 0 carries one dominant key, so with the threshold forced to
    1.0 it splits every round; the fault is aimed at one of its virtual
    sub-scans.  The robustness story must be exactly the physical one:
    kill -> respawn + retry, hang -> hedge, flaky -> in-arm retry —
    with results exact and the skew counters unperturbed by the fault.
    """

    #: the second sub-scan of physical site 0.
    TARGET = virtual_site_id(0, 1)

    @staticmethod
    def skewed_partitions():
        def rows(pairs):
            return Relation.from_dicts(
                [{"g": g, "q": q} for g, q in pairs])
        hot = [(1, (i * 7) % 50) for i in range(400)]
        hot += [(k, k % 50) for k in range(100, 150)]
        return {
            0: rows(hot),
            1: rows((k, k % 50) for k in range(200, 250)),
            2: rows((k, k % 50) for k in range(300, 350)),
            3: rows((k, k % 50) for k in range(400, 450)),
        }

    @staticmethod
    def skew_query():
        return (QueryBuilder()
                .base("g")
                .gmdj([count_star("n"), agg("sum", "q", "s")],
                      r.g == b.g)
                .build())

    def run_engine(self, engine):
        query = self.skew_query()
        reference = query.evaluate_centralized(
            Relation.concat([site.fragment
                             for site in engine.sites.values()]))
        try:
            result = engine.execute(query, NO_OPTIMIZATIONS)
        finally:
            engine.close()
        assert result.relation.multiset_equals(reference)
        assert result.metrics.skew_splits >= 1
        assert result.metrics.virtual_sites >= 2
        return result.metrics

    def test_killed_virtual_worker_mid_scatter_recovers(self):
        # hedge=False: with hedging on, a coordinator-side hedge can
        # rescue the round before the crash is even detected (the lazy
        # virtual-worker spawn easily outlasts the median deadline),
        # leaving retries at 0 — this test pins the retry+respawn path.
        engine = SkallaEngine(
            self.skewed_partitions(), transport="process", hedge=False,
            skew=SkewPolicy(threshold=1.0),
            retry_policy=RetryPolicy(max_retries=2, base_delay=0.01),
            transport_options={"fault_specs": {
                self.TARGET: ProcessFaultSpec(kill_on_request=1)}})
        metrics = self.run_engine(engine)
        assert metrics.retries >= 1
        assert metrics.worker_respawns >= 1

    def test_hung_virtual_worker_is_hedged(self):
        engine = SkallaEngine(
            self.skewed_partitions(), transport="process",
            skew=SkewPolicy(threshold=1.0),
            hedge=HedgePolicy(multiplier=1.25, min_seconds=0.02),
            transport_options={"fault_specs": {
                self.TARGET: ProcessFaultSpec(
                    hang_on_request=1, hang_seconds=2.0)}})
        metrics = self.run_engine(engine)
        assert metrics.hedges_won >= 1
        assert metrics.real_seconds < 2.0

    def test_flaky_virtual_sub_site_retries_in_its_arm(self):
        target = self.TARGET

        def flaky_maker(site_id, fragment):
            if site_id == target:
                return FlakySite(site_id, fragment, failures=2)
            return SkallaSite(site_id, fragment)

        planner = SkewPlanner(SkewPolicy(threshold=1.0),
                              make_site=flaky_maker)
        engine = SkallaEngine(
            self.skewed_partitions(), transport="thread",
            skew=planner,
            retry_policy=RetryPolicy(max_retries=2, base_delay=0.001))
        metrics = self.run_engine(engine)
        assert metrics.retries == 2
