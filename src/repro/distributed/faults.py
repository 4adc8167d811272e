"""Fault injection: flaky sites, worker processes, tree aggregators.

Skalla's round structure makes site work naturally *idempotent*: a site
computes a pure function of (its fragment, the shipped structure, the
plan step), so a crashed or timed-out site can simply be asked again —
no distributed state to repair.  The injection layers exercising that:

* :class:`FlakySite` — an in-process stand-in that raises
  :class:`~repro.errors.SiteFailure` for its first ``failures``
  requests, then recovers; drives the transport retry loop without any
  OS machinery (works under every transport, including inside worker
  processes, since sites are pickled whole).
* :class:`SlowSite` — a site that really sleeps before serving, so
  wall-clock skew and the hedged straggler re-dispatch path can be
  exercised deterministically (``slow_calls`` makes the slowness
  transient: the hedged duplicate is fast).
* :class:`ProcessFaultSpec` — **process-level** faults for the
  multiprocess transport: kill the worker (``os._exit``) or hang it
  past its call deadline on the N-th request.  The parent observes a
  closed pipe / deadline expiry, respawns the worker, and retries —
  the full crash-recovery path, not a simulated one.
* :class:`AggregatorFaultSpec` — kill or hang an *interior aggregator*
  of a priced tree on its N-th merge; ``price`` re-parents the node's
  children to the grandparent (or the root).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

from repro.errors import SiteFailure
from repro.relational.relation import Relation
from repro.distributed.messages import SiteId
from repro.distributed.site import SkallaSite

#: Exit code used by injected worker kills (recognizable in logs).
KILL_EXIT_CODE = 73


@dataclass(frozen=True)
class AggregatorFaultSpec:
    """Deterministic fault injection for one interior aggregator.

    ``kill_on_merge`` / ``hang_on_merge`` name the 0-based merge
    ordinal (per node, within one ``price`` call) on which the node
    fails or hangs; ``repeat`` extends the fault to every later merge
    too.  A hang longer than ``price``'s ``aggregator_deadline`` counts
    as a failure (the parent stops waiting and re-parents the
    children); a shorter hang just adds ``hang_seconds`` to the node's
    modeled merge time.
    """

    kill_on_merge: int | None = None
    hang_on_merge: int | None = None
    hang_seconds: float = 10.0
    repeat: bool = False

    def triggers(self, target: int | None, ordinal: int) -> bool:
        if target is None:
            return False
        return ordinal == target or (self.repeat and ordinal > target)


class FlakySite(SkallaSite):
    """A site that fails its first ``failures`` requests, then recovers.

    ``fail_on`` selects which operations fail: ``"base"``, ``"step"``,
    or ``"both"`` (default).
    """

    def __init__(self, site_id: SiteId, fragment: Relation,
                 failures: int = 1, fail_on: str = "both"):
        super().__init__(site_id, fragment)
        if fail_on not in ("base", "step", "both"):
            raise ValueError(f"unknown fail_on mode {fail_on!r}")
        self.remaining_failures = failures
        self.fail_on = fail_on
        self.attempts = 0

    def _maybe_fail(self, operation: str) -> None:
        self.attempts += 1
        if self.fail_on not in (operation, "both"):
            return
        if self.remaining_failures > 0:
            self.remaining_failures -= 1
            raise SiteFailure(self.site_id,
                              f"injected failure at site {self.site_id} "
                              f"({operation})")

    def evaluate_base(self, base_query):
        self._maybe_fail("base")
        return super().evaluate_base(base_query)

    def execute_step(self, step, base_relation, ship_attrs, base_query,
                     independent_reduction):
        self._maybe_fail("step")
        return super().execute_step(step, base_relation, ship_attrs,
                                    base_query, independent_reduction)


class SlowSite(SkallaSite):
    """A site that *really* sleeps before serving — a wall-clock straggler.

    The sleep is measurable latency in the dispatch path, so
    scatter-gather skew, critical-path accounting and hedging all see
    it.

    ``slow_calls`` bounds how many requests are slow: with ``None``
    every request sleeps (a chronically slow site); with ``N`` only the
    first N sleep (a transient straggler — a hedged duplicate issued
    after the N-th call starts is served at full speed, which is the
    scenario hedging wins).
    """

    def __init__(self, site_id: SiteId, fragment: Relation,
                 delay_seconds: float = 0.1,
                 slow_calls: int | None = None):
        super().__init__(site_id, fragment)
        if delay_seconds < 0:
            raise ValueError("delay_seconds must be non-negative")
        self.delay_seconds = delay_seconds
        self.slow_calls = slow_calls
        self.calls = 0

    def _maybe_sleep(self) -> None:
        self.calls += 1
        if self.slow_calls is None or self.calls <= self.slow_calls:
            time.sleep(self.delay_seconds)

    def evaluate_base(self, base_query):
        self._maybe_sleep()
        return super().evaluate_base(base_query)

    def execute_step(self, step, base_relation, ship_attrs, base_query,
                     independent_reduction):
        self._maybe_sleep()
        return super().execute_step(step, base_relation, ship_attrs,
                                    base_query, independent_reduction)


@dataclass(frozen=True)
class ProcessFaultSpec:
    """Process-level fault plan for one multiprocess-transport worker.

    Shipped to the worker at spawn; applied *before* serving the
    matching request, so the coordinator never receives a response for
    that round — exactly what a mid-round server crash looks like.

    Parameters
    ----------
    kill_on_request:
        1-based ordinal of the request on which the worker process
        exits hard (``os._exit(KILL_EXIT_CODE)`` — no cleanup, no
        goodbye frame).  ``None`` disables.
    hang_on_request:
        1-based ordinal of the request on which the worker sleeps for
        ``hang_seconds`` before serving — long enough to blow a
        per-call deadline.  ``None`` disables.
    hang_seconds:
        How long a hang lasts.  Choose it larger than the transport's
        ``RetryPolicy.call_deadline`` to trigger kill + respawn.
    repeat:
        By default a spec is one-shot: the respawned replacement worker
        is healthy, so the retried call succeeds.  With ``repeat`` the
        replacement inherits the same spec — the retry budget exhausts
        and the query fails, which is the other path worth testing.
    """

    kill_on_request: int | None = None
    hang_on_request: int | None = None
    hang_seconds: float = 30.0
    repeat: bool = False

    def __post_init__(self):
        for ordinal in (self.kill_on_request, self.hang_on_request):
            if ordinal is not None and ordinal < 1:
                raise ValueError("fault request ordinals are 1-based")
        if self.hang_seconds < 0:
            raise ValueError("hang_seconds must be non-negative")

    def apply(self, request_ordinal: int) -> None:
        """Invoked by the worker loop before serving each request."""
        if self.kill_on_request == request_ordinal:
            os._exit(KILL_EXIT_CODE)
        if self.hang_on_request == request_ordinal:
            time.sleep(self.hang_seconds)
