"""Concurrent scatter-gather round execution with straggler hedging.

Skalla's round model (Sect. 3) is embarrassingly parallel across sites:
every site computes its sub-aggregate independently and only the
coordinator's synchronization is serial.  :func:`scatter_gather` is the
shared executor that exploits this — it issues all of a round's site
requests concurrently on a bounded worker pool, gathers responses **as
they complete**, and (optionally) hedges stragglers.

Straggler mitigation (hedging)
------------------------------
Beame, Koutris & Suciu ("Skew in Parallel Query Processing") observe
that per-round latency is governed by the *most loaded* site, so
parallel dispatch alone does not bound a round's tail.  The executor
therefore derives a per-round deadline from the **median** observed
site response time: once at least half of the round's sites have
answered and ``multiplier × median`` seconds have elapsed, each site
still outstanding receives exactly **one** hedged re-dispatch.  Site
work is a pure function of (fragment, shipped structure, plan step), so
the duplicate is idempotent — the first response wins and the loser is
discarded (counted, never merged twice).

The hedged duplicate goes through ``hedge_call``, which backends choose:

* thread transport — a second call against the live site (transient
  stragglers such as GC pauses or an IO hiccup resolve on retry);
* process transport — local execution against the coordinator's
  authoritative site copy (the worker's snapshot came from it, so the
  result is bit-identical), which sidesteps a hung or overloaded worker
  without double-using its pipe.

Failures: the retry/backoff loop inside ``Transport.call`` owns
transient faults, and a site raises only when *every* arm it has in
flight has failed — the last ``SiteFailure`` is then re-raised
immediately.  A failed arm whose sibling is still running is dropped,
so a hedge that is already in flight does answer for a primary that
later exhausts its retry budget (on the process transport: the
coordinator's own copy answers for a permanently crashing worker once
its kill → respawn cycle outlasts the hedge deadline).  PR 1's
"exhaustion re-raises the last ``SiteFailure``" is the contract of an
un-hedged round (``hedge=False``), and of a hedged one whose duplicate
goes to the same failing site.

All timing in :class:`RoundStats` is measured from the scatter instant,
so ``site_wall[s]`` is the round-relative latency of site ``s`` (queue
wait included — that is the honest number under a bounded pool) and
``round_wall_seconds`` is the gather makespan the coordinator actually
waited.
"""

from __future__ import annotations

import statistics
import time
from concurrent.futures import FIRST_COMPLETED, wait
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.errors import PlanError
from repro.distributed.messages import SiteId
from repro.distributed.transport.base import SiteRequest, SiteResponse


@dataclass(frozen=True)
class HedgePolicy:
    """When and how aggressively a round hedges its stragglers.

    Parameters
    ----------
    multiplier:
        The straggler deadline is ``multiplier × median`` of the site
        response times observed so far in the round.  1.25 means "a
        site 25% slower than the median is suspect".
    min_seconds:
        Absolute floor for the deadline.  Micro-rounds (everything
        answers within milliseconds) never hedge: a duplicate would
        cost more than it saves.
    max_hedges:
        Cap on hedged re-dispatches per round; ``None`` means at most
        half the round's sites (hedging requires a majority of healthy
        responses to define the median anyway).
    poll_seconds:
        Gather-loop wake-up granularity; bounds how stale the deadline
        check can be.
    """

    multiplier: float = 1.25
    min_seconds: float = 0.05
    max_hedges: int | None = None
    poll_seconds: float = 0.005

    def __post_init__(self):
        if self.multiplier <= 0:
            raise PlanError("hedge multiplier must be positive")
        if self.min_seconds < 0:
            raise PlanError("hedge min_seconds must be non-negative")
        if self.max_hedges is not None and self.max_hedges < 0:
            raise PlanError("max_hedges must be non-negative")
        if self.poll_seconds <= 0:
            raise PlanError("poll_seconds must be positive")

    def budget(self, num_requests: int) -> int:
        if self.max_hedges is not None:
            return self.max_hedges
        return max(1, num_requests // 2)


def normalize_hedge(hedge: "HedgePolicy | bool | None") -> HedgePolicy | None:
    """Accept ``True``/``False``/``None``/policy uniformly."""
    if hedge is None or hedge is False:
        return None
    if hedge is True:
        return HedgePolicy()
    if isinstance(hedge, HedgePolicy):
        return hedge
    raise PlanError(f"hedge must be a bool or HedgePolicy, got {hedge!r}")


@dataclass
class RoundStats:
    """Per-round dispatch telemetry (scatter-relative timings).

    ``site_wall`` maps site id → that site's measured latency: for
    scatter rounds, seconds from scatter start until the site's
    *winning* response landed (queue wait included — the honest number
    under a bounded pool); for sequential rounds, the individual call's
    duration.
    """

    dispatch: str = "scatter"
    site_wall: dict[SiteId, float] = field(default_factory=dict)
    #: scatter start → last winning response (the coordinator's wait).
    round_wall_seconds: float = 0.0
    hedges_issued: int = 0
    #: hedged duplicates that beat their primary.
    hedges_won: int = 0
    #: hedged duplicates whose primary answered first (discarded work).
    hedges_wasted: int = 0


def sequential_round(call: Callable[[SiteRequest], SiteResponse],
                     requests: Sequence[SiteRequest],
                     ) -> tuple[dict[SiteId, SiteResponse], RoundStats]:
    """One-at-a-time dispatch (the pre-scatter behavior), with stats."""
    stats = RoundStats(dispatch="sequential")
    start = time.perf_counter()
    responses: dict[SiteId, SiteResponse] = {}
    for request in requests:
        call_started = time.perf_counter()
        responses[request.site_id] = call(request)
        stats.site_wall[request.site_id] = (time.perf_counter()
                                            - call_started)
    stats.round_wall_seconds = time.perf_counter() - start
    return responses, stats


def scatter_gather(call: Callable[[SiteRequest], SiteResponse],
                   requests: Sequence[SiteRequest],
                   submit: Callable,
                   hedge: HedgePolicy | None = None,
                   hedge_call: Callable[[SiteRequest], SiteResponse]
                   | None = None,
                   ) -> tuple[dict[SiteId, SiteResponse], RoundStats]:
    """Dispatch all requests concurrently; gather as they complete.

    ``submit`` is an executor's ``submit`` (the pool bounds in-flight
    parallelism).  ``hedge_call`` serves hedged duplicates (defaults to
    ``call``).  Returns ``(responses, stats)`` where ``responses`` maps
    every request's site id to its *winning* :class:`SiteResponse`.

    Error semantics: a site whose every in-flight arm failed re-raises
    the last failure immediately (fail-fast, like sequential dispatch).
    Losing arms that are still running when the round resolves are left
    to drain in the pool; their results are discarded.
    """
    if hedge_call is None:
        hedge_call = call
    by_site: dict[SiteId, SiteRequest] = {
        request.site_id: request for request in requests}
    if len(by_site) != len(requests):
        raise PlanError("duplicate site ids in one round")
    stats = RoundStats(dispatch="scatter")
    start = time.perf_counter()
    #: future → (site_id, is_hedge); arms for sites not yet resolved.
    arms: dict = {}
    for request in requests:
        arms[submit(call, request)] = (request.site_id, False)
    pending_sites = set(by_site)
    responses: dict[SiteId, SiteResponse] = {}
    hedged: set[SiteId] = set()
    durations: list[float] = []
    poll = hedge.poll_seconds if hedge is not None else 0.05
    total = len(requests)

    while pending_sites:
        done, _ = wait(set(arms), timeout=poll,
                       return_when=FIRST_COMPLETED)
        now = time.perf_counter() - start
        for future in done:
            site_id, is_hedge = arms.pop(future)
            if site_id not in pending_sites:
                continue  # the losing arm of an already-won site
            error = future.exception()
            if error is not None:
                other_arms = any(site == site_id
                                 for site, _ in arms.values())
                if other_arms:
                    # the site's other arm may still save the round
                    continue
                raise error
            response = future.result()
            responses[site_id] = response
            stats.site_wall[site_id] = now
            durations.append(now)
            pending_sites.discard(site_id)
            if is_hedge:
                stats.hedges_won += 1
            elif site_id in hedged:
                stats.hedges_wasted += 1
        if (hedge is not None and pending_sites
                and 2 * len(durations) >= total and durations):
            deadline = max(hedge.multiplier * statistics.median(durations),
                           hedge.min_seconds)
            if now > deadline:
                budget = hedge.budget(total)
                for site_id in sorted(pending_sites):
                    if site_id in hedged or stats.hedges_issued >= budget:
                        continue
                    arms[submit(hedge_call, by_site[site_id])] = (
                        site_id, True)
                    hedged.add(site_id)
                    stats.hedges_issued += 1
    stats.round_wall_seconds = time.perf_counter() - start
    return responses, stats


__all__ = ["HedgePolicy", "RoundStats", "normalize_hedge",
           "scatter_gather", "sequential_round"]
