"""Transport abstraction: how the coordinator invokes site work.

A transport executes :class:`SiteRequest` batches ("rounds") against the
engine's sites and returns :class:`SiteResponse` objects carrying both
the *compute* story (site-reported seconds — what the paper's time
model composes) and the *transport* story (real wall-clock including
serialization and IPC, real serialized request/response bytes — zero
for the in-process path).

The transport layer owns robustness.  :meth:`Transport.call` wraps every
site invocation in a retry loop over :class:`~repro.errors.SiteFailure`
with **exponential backoff + full jitter** (the classic AWS-style
``sleep(random(0, min(cap, base·mult^attempt)))``), and the process
backend adds per-call deadlines and worker respawn on top.  Exhausting
the budget re-raises the *last* ``SiteFailure`` to the engine.
"""

from __future__ import annotations

import abc
import random
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.errors import PlanError, SiteFailure
from repro.relational.relation import Relation
from repro.distributed.messages import SiteId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.core.expression_tree import BaseQuery
    from repro.distributed.plan import LocalStep
    from repro.distributed.site import SkallaSite


@dataclass(frozen=True)
class RetryPolicy:
    """Retry / backoff / deadline knobs shared by every transport.

    Parameters
    ----------
    max_retries:
        How many times a failed site call is repeated before the last
        :class:`~repro.errors.SiteFailure` is re-raised.
    base_delay:
        Backoff base in seconds.  The default is 0 so the in-process
        path (and the test suite) never sleeps; the process transport
        overrides it.
    multiplier / max_delay:
        Exponential growth factor and cap: attempt ``k`` (1-based) may
        sleep up to ``min(max_delay, base_delay · multiplier^(k-1))``.
    jitter:
        Fraction of the computed delay that is randomized ("full
        jitter" at 1.0).  Prevents synchronized retry storms when many
        sites fail together.
    call_deadline:
        Per-call wall-clock budget in seconds, enforced by transports
        that can preempt a site (the process backend kills and respawns
        a worker that blows the deadline).  ``None`` disables it.
    """

    max_retries: int = 2
    base_delay: float = 0.0
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 1.0
    call_deadline: float | None = None

    def __post_init__(self):
        if self.max_retries < 0:
            raise PlanError("max_retries must be non-negative")
        if self.base_delay < 0 or self.max_delay < 0:
            raise PlanError("backoff delays must be non-negative")
        if not 0.0 <= self.jitter <= 1.0:
            raise PlanError("jitter must be within [0, 1]")
        if self.call_deadline is not None and self.call_deadline <= 0:
            raise PlanError("call_deadline must be positive")

    def backoff_seconds(self, attempt: int, rng: random.Random) -> float:
        """Sleep before retry ``attempt`` (1-based), with jitter."""
        if self.base_delay <= 0:
            return 0.0
        ceiling = min(self.max_delay,
                      self.base_delay * self.multiplier ** (attempt - 1))
        floor = ceiling * (1.0 - self.jitter)
        return rng.uniform(floor, ceiling)


@dataclass(frozen=True)
class SiteRequest:
    """One unit of site work, declaratively (so it can cross a process).

    ``kind`` is ``"base"`` (evaluate the base query over the fragment)
    or ``"step"`` (execute one plan step).  Exactly the arguments of
    :meth:`SkallaSite.evaluate_base` / :meth:`SkallaSite.execute_step`.
    """

    site_id: SiteId
    kind: str
    base_query: "BaseQuery | None" = None
    step: "LocalStep | None" = None
    base_relation: Relation | None = None
    ship_attrs: tuple[str, ...] = ()
    independent_reduction: bool = False

    def __post_init__(self):
        if self.kind not in ("base", "step"):
            raise PlanError(f"unknown site request kind {self.kind!r}")


@dataclass
class SiteResponse:
    """The outcome of one (possibly retried) site call."""

    site_id: SiteId
    relation: Relation
    #: site-reported compute seconds — feeds the paper's modeled time
    #: composition.
    compute_seconds: float
    #: real end-to-end seconds including serialization and IPC.
    wall_seconds: float = 0.0
    #: real serialized request bytes (0 for in-process execution).
    request_bytes: int = 0
    #: real serialized response bytes (0 for in-process execution).
    response_bytes: int = 0
    #: retries performed before this call succeeded.
    retries: int = 0
    #: worker processes respawned while serving this call.
    respawns: int = 0


def perform_request(site: "SkallaSite",
                    request: SiteRequest) -> tuple[Relation, float]:
    """Run ``request`` against ``site`` directly; returns (result, secs).

    Shared by the in-process/thread transports and the worker-process
    main loop, so every backend computes bit-identical results.
    """
    if request.kind == "base":
        if request.base_query is None:
            raise PlanError("base request needs a base query")
        return site.evaluate_base(request.base_query)
    if request.step is None:
        raise PlanError("step request needs a plan step")
    return site.execute_step(request.step, request.base_relation,
                             request.ship_attrs, request.base_query,
                             request.independent_reduction)


class Transport(abc.ABC):
    """Base class: a strategy for executing site rounds.

    Subclasses implement :meth:`_invoke` (one attempt of one request)
    and may override :meth:`run_round` for parallel dispatch.  The
    retry/backoff loop lives here so every backend shares identical
    failure semantics.  All retry state is **per-instance** (one
    transport per engine), so concurrent engines never serialize on a
    shared lock.
    """

    #: Registry name, overridden by subclasses.
    name = "abstract"

    def __init__(self, sites: Mapping[SiteId, "SkallaSite"],
                 retry: RetryPolicy | None = None,
                 seed: int | None = None,
                 max_inflight: int | None = None,
                 hedge: "object | bool | None" = None):
        # Imported here: scatter builds on SiteRequest/SiteResponse from
        # this module, so a module-scope import would be circular.
        from repro.distributed.transport.scatter import normalize_hedge
        #: Live mapping of site id → site; looked up at call time so
        #: callers may swap sites (e.g. fault-injection stand-ins)
        #: after construction.
        self.sites = sites
        self.retry = retry or RetryPolicy()
        if max_inflight is not None and max_inflight < 1:
            raise PlanError("max_inflight must be at least 1")
        #: Bound on concurrently dispatched site calls per round
        #: (``None`` = backend default).  1 forces sequential dispatch.
        self.max_inflight = max_inflight
        #: Straggler-hedging policy for parallel backends (``None`` =
        #: hedging off; sequential backends ignore it).
        self.hedge_policy = normalize_hedge(hedge)
        # Per-thread slot behind the ``last_round_stats`` property.
        self._round_stats_local = threading.local()
        self._rng = random.Random(seed)
        self._lock = threading.Lock()  # per-transport, never shared
        #: Serializes the first :meth:`start` among threads racing their
        #: first round, so a pool (or worker set) is acquired once.
        self._start_lock = threading.Lock()
        self._started = False

    @property
    def last_round_stats(self):
        """Dispatch telemetry of this thread's most recent round.

        Read by the engine right after :meth:`run_round`.  The slot is
        **thread-local**: a query service runs concurrent executions
        against one engine (hence one transport), and each worker
        thread must see its own round's telemetry, not whichever round
        finished last globally.
        """
        return getattr(self._round_stats_local, "stats", None)

    @last_round_stats.setter
    def last_round_stats(self, stats) -> None:
        self._round_stats_local.stats = stats

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Acquire backend resources (pools, workers).  Idempotent."""
        self._started = True

    def close(self) -> None:
        """Release backend resources.  Idempotent."""
        self._started = False

    def __enter__(self) -> "Transport":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def invalidate(self, site_ids: "Sequence[SiteId] | None" = None) -> None:
        """Refresh any backend-held snapshot of the given sites.

        Part of the transport contract: the engine calls this after a
        fragment changes (e.g. :meth:`SkallaEngine.append`), naming the
        affected sites; ``None`` means "all sites".  Backends that read
        ``self.sites`` live at call time (in-process, thread) have
        nothing to refresh — this default is a no-op.  Backends that
        snapshot fragments (the multiprocess workers) override it to
        respawn exactly the named workers.
        """

    # -- execution ---------------------------------------------------------

    def run_round(self, requests: Sequence[SiteRequest],
                  ) -> dict[SiteId, SiteResponse]:
        """Execute one round of requests; default is sequential."""
        from repro.distributed.transport.scatter import sequential_round
        self._ensure_started()
        responses, stats = sequential_round(self.call, requests)
        self.last_round_stats = stats
        return responses

    def call(self, request: SiteRequest) -> SiteResponse:
        """One site call with retries, backoff + jitter, and deadlines.

        Site work is idempotent (a pure function of fragment + shipped
        structure), so a failed call is simply repeated.  Exhausting
        the budget re-raises the **last** ``SiteFailure``.
        """
        self._ensure_started()
        attempts = 0
        respawns = 0
        while True:
            try:
                response = self._invoke(request)
            except SiteFailure as failure:
                respawns += getattr(failure, "respawned", 0)
                attempts += 1
                if attempts > self.retry.max_retries:
                    raise
                delay = self.retry.backoff_seconds(attempts, self._rng)
                if delay > 0:
                    time.sleep(delay)
                continue
            response.retries = attempts
            response.respawns += respawns
            return response

    def local_call(self, request: SiteRequest) -> SiteResponse:
        """Serve one request from the coordinator's live site copy, timed.

        The in-process backends' only channel, and the process
        backend's hedge channel: a worker's fragment is a snapshot *of
        this copy*, so the result is bit-identical to the worker's.
        """
        started = time.perf_counter()
        relation, seconds = perform_request(
            self._site(request.site_id), request)
        return SiteResponse(site_id=request.site_id, relation=relation,
                            compute_seconds=seconds,
                            wall_seconds=time.perf_counter() - started)

    def _ensure_started(self) -> None:
        if not self._started:
            with self._start_lock:
                if not self._started:
                    self.start()

    def _site(self, site_id: SiteId) -> "SkallaSite":
        try:
            return self.sites[site_id]
        except KeyError:
            raise PlanError(f"unknown site {site_id}") from None

    @abc.abstractmethod
    def _invoke(self, request: SiteRequest) -> SiteResponse:
        """One attempt at one request (no retries at this level)."""

    # -- introspection ------------------------------------------------------

    def describe(self) -> str:
        return (f"{self.name} transport "
                f"(max_retries={self.retry.max_retries})")
