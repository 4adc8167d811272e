"""The multi-tenant query service: one engine, many concurrent queries.

:class:`QueryService` is the coordinator's front door.  It composes the
pieces this package provides around one
:class:`~repro.distributed.engine.SkallaEngine`:

* admission — a bounded :class:`~repro.service.scheduler.FairQueue`
  with per-tenant weights, per-query deadlines, and cancellation;
* a pool of worker threads executing admitted queries concurrently
  (the engine's transport is the shared site-call pool underneath);
* a :class:`~repro.service.plan_cache.PlanCache` memoizing the
  parse → compile → plan pipeline on a normalized-AST fingerprint;
* the engine's sub-aggregate cache, enabled if it is not already: it
  serves warm rounds, and rounds of *different* in-flight queries that
  miss on one fingerprint share one site scan through its pending
  entries;
* :class:`~repro.service.metrics.ServiceMetrics` for the population
  view (QPS, latency percentiles, queue wait, hit rates).

**Appends quiesce the service.**  :meth:`append` waits for in-flight
queries to drain (new dispatches hold at the barrier) before mutating
the fragment, so every query executes against one consistent fragment
set and concurrent results stay bit-identical to a serial replay of
the same schedule.  This is a *service-level* policy choice: calling
``engine.append`` directly under a running service remains safe — the
cache's gather-time version checks and populate races guarantee
correctness — but then a query overlapping the append may legitimately
answer from either snapshot.

Results are deterministic: each query's relation is post-processed
(HAVING / ORDER BY / LIMIT / derived columns) and, absent an ORDER BY,
key-sorted — the same convention the CLI uses — so two executions of
one query at one fragment version compare bit-identical.
"""

from __future__ import annotations

import threading
import time

from dataclasses import dataclass
from typing import Mapping

from repro.errors import ServiceError
from repro.relational.relation import Relation
from repro.distributed.engine import ExecutionResult, SkallaEngine
from repro.distributed.metrics import QueryMetrics
from repro.distributed.messages import SiteId
from repro.distributed.plan import OptimizationFlags
from repro.service.metrics import QueryRecord, ServiceMetrics
from repro.service.plan_cache import DEFAULT_MAX_ENTRIES, PlanCache
from repro.service.scheduler import (
    DONE, FAILED, FairQueue, QueryTicket)

DEFAULT_WORKERS = 4


@dataclass
class ServiceResult:
    """What one served query produced (returned by ``ticket.result()``)."""

    query_id: int
    tenant: str
    sql: str
    #: post-processed, deterministically ordered result rows.
    relation: Relation
    #: the execution's full cost accounting.
    metrics: QueryMetrics
    #: whether compile+plan came from the plan cache.
    plan_cache_hit: bool
    #: admission → dispatch wait.
    queue_wait_seconds: float
    #: admission → resolution wall clock.
    latency_seconds: float


class QueryService:
    """Concurrent SQL serving over one Skalla engine.

    Parameters
    ----------
    engine:
        The warehouse to serve.  The service enables its sub-aggregate
        cache unless ``enable_cache`` is false.
    workers:
        Executor threads, i.e. the bound on concurrently *executing*
        queries (site-level parallelism within each query is the
        transport's ``max_inflight``).
    max_queue_depth:
        Bound on queued-but-not-started queries; admission past it
        raises :class:`~repro.errors.AdmissionError`.
    tenants:
        Optional tenant → weight mapping for the fair queue; unknown
        tenants are admitted at ``default_weight``.
    cube_materialize:
        Answer a plain grouping over a cube source's attributes by
        rolling up the states the cube left in the cache.  Opt-in: the
        rollup sums floats in another order than a direct run, so its
        answers are equal but not bit-identical to a serial replay.
    """

    def __init__(self, engine: SkallaEngine,
                 workers: int = DEFAULT_WORKERS,
                 max_queue_depth: int = 64,
                 tenants: Mapping[str, float] | None = None,
                 default_weight: float = 1.0,
                 flags: OptimizationFlags | None = None,
                 sketch_precision: int | None = None,
                 plan_cache_entries: int = DEFAULT_MAX_ENTRIES,
                 enable_cache: bool = True,
                 cube_materialize: bool = False):
        if workers < 1:
            raise ServiceError("a service needs at least one worker")
        self.engine = engine
        self.default_flags = flags if flags is not None \
            else OptimizationFlags.all()
        self.default_sketch_precision = sketch_precision
        if enable_cache and engine.cache is None:
            engine.enable_cache()
        if cube_materialize and engine.cache is None:
            raise ServiceError(
                "cube_materialize serves slices from cube states kept "
                "in the sub-aggregate cache; pass enable_cache=True")
        self.cube_materialize = cube_materialize
        self.plan_cache = PlanCache(engine.detail_schema, engine.knowledge,
                                    engine.site_ids,
                                    max_entries=plan_cache_entries)
        self.metrics = ServiceMetrics()
        self.queue = FairQueue(max_depth=max_queue_depth,
                               default_weight=default_weight)
        self.queue.on_deadline = \
            lambda ticket: self.metrics.note_deadline_expired(ticket.tenant)
        self.queue.on_cancel = \
            lambda ticket: self.metrics.note_cancelled(ticket.tenant)
        for name, weight in (tenants or {}).items():
            self.queue.set_weight(name, weight)
        self.num_workers = workers
        self._threads: list[threading.Thread] = []
        self._query_ids = iter(range(1, 2 ** 62)).__next__
        self._id_lock = threading.Lock()
        # Append barrier: queries count themselves in and out; an
        # append announces itself, waits for the in-flight count to
        # drain, mutates, and leaves.  Pending appends gate *new*
        # dispatches, so a steady query stream cannot starve ingest.
        self._barrier = threading.Condition(threading.Lock())
        self._active_queries = 0
        self._pending_appends = 0
        self._closed = False

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "QueryService":
        """Spawn the worker pool (idempotent)."""
        if self._closed:
            raise ServiceError("service already closed")
        while len(self._threads) < self.num_workers:
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"repro-service-worker-{len(self._threads)}",
                daemon=True)
            self._threads.append(thread)
            thread.start()
        return self

    def close(self, timeout: float = 30.0) -> None:
        """Stop admissions, drain the backlog as cancelled, join workers."""
        if self._closed:
            return
        self._closed = True
        drained = self.queue.close()
        for ticket in drained:
            self.metrics.note_cancelled(ticket.tenant)
        deadline = time.perf_counter() + timeout
        for thread in self._threads:
            remaining = max(0.0, deadline - time.perf_counter())
            thread.join(remaining)
        self._threads.clear()

    def __enter__(self) -> "QueryService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- submission ---------------------------------------------------------

    def submit(self, sql: str, tenant: str = "default",
               cost: float = 1.0,
               deadline_seconds: float | None = None,
               flags: OptimizationFlags | None = None,
               sketch_precision: int | None = None) -> QueryTicket:
        """Admit one query; returns its future-like ticket.

        Raises :class:`~repro.errors.AdmissionError` when the queue is
        full — back-pressure the caller must handle (retry with backoff
        or shed).  ``cost`` weights the query's share of the tenant's
        bandwidth in the fair queue (bigger = scheduled as more work).
        """
        if not self._threads and not self._closed:
            self.start()
        with self._id_lock:
            query_id = self._query_ids()
        ticket = QueryTicket(query_id, tenant, sql,
                             deadline_seconds=deadline_seconds)
        ticket.flags = flags if flags is not None else self.default_flags
        ticket.sketch_precision = (sketch_precision
                                   if sketch_precision is not None
                                   else self.default_sketch_precision)
        try:
            self.queue.push(ticket, cost=cost)
        except Exception:
            self.metrics.note_rejected(tenant)
            raise
        self.metrics.note_submitted(tenant)
        return ticket

    def execute(self, sql: str, tenant: str = "default",
                timeout: float | None = None,
                **submit_kwargs) -> ServiceResult:
        """Submit and block for the result (convenience wrapper)."""
        return self.submit(sql, tenant, **submit_kwargs).result(timeout)

    # -- ingest -------------------------------------------------------------

    def append(self, site_id: SiteId, rows: Relation) -> None:
        """Ingest rows at one site, quiescing in-flight queries first.

        The barrier gives every query a single consistent fragment
        snapshot (see the module docstring); the engine-level version
        checks underneath stay active regardless.
        """
        with self._barrier:
            self._pending_appends += 1
            try:
                while self._active_queries > 0:
                    self._barrier.wait()
                self.engine.append(site_id, rows)
            finally:
                self._pending_appends -= 1
                self._barrier.notify_all()

    def _enter_query(self) -> None:
        with self._barrier:
            while self._pending_appends > 0:
                self._barrier.wait()
            self._active_queries += 1

    def _exit_query(self) -> None:
        with self._barrier:
            self._active_queries -= 1
            self._barrier.notify_all()

    # -- execution ----------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            ticket = self.queue.pop()
            if ticket is None:  # queue closed and drained
                return
            self._execute_ticket(ticket)

    def _execute_ticket(self, ticket: QueryTicket) -> None:
        if not ticket._start():
            # cancelled in the gap between pop and start; the queue
            # already released the slot and notified metrics.
            return
        try:
            entry, plan_hit = self.plan_cache.lookup(
                ticket.sql, ticket.flags, ticket.sketch_precision)
            self._enter_query()
            try:
                if entry.cube is not None:
                    # Cube-family: run the lattice inside the barrier so
                    # every source round sees one fragment snapshot.
                    from repro.cube import execute_lattice
                    execution = execute_lattice(
                        self.engine, entry.cube, ticket.flags)
                    table = execution.relation.sort(
                        [*entry.cube.attrs,
                         *(alias for __, alias in entry.cube.groupings)])
                else:
                    execution = self._maybe_serve_from_cuboids(
                        ticket, entry)
                    if execution is None:
                        execution = self.engine.execute_plan(entry.plan)
                    table = entry.compiled.post_process(
                        execution.relation)
                    if not entry.compiled.order_by:
                        table = table.sort(
                            list(entry.compiled.expression.key))
            finally:
                self._exit_query()
        except BaseException as error:
            ticket._resolve(FAILED, error=error)
            self.metrics.record(QueryRecord(
                tenant=ticket.tenant,
                latency_seconds=ticket.total_seconds,
                queue_wait_seconds=ticket.queue_wait_seconds,
                error=repr(error)))
            return
        latency = ticket.total_seconds  # so-far; finished_at lands next
        outcome = ServiceResult(
            query_id=ticket.query_id, tenant=ticket.tenant,
            sql=ticket.sql, relation=table, metrics=execution.metrics,
            plan_cache_hit=plan_hit,
            queue_wait_seconds=ticket.queue_wait_seconds,
            latency_seconds=latency)
        ticket._resolve(DONE, outcome=outcome)
        self.metrics.record(QueryRecord(
            tenant=ticket.tenant,
            latency_seconds=latency,
            queue_wait_seconds=ticket.queue_wait_seconds,
            plan_cache_hit=plan_hit,
            shared_scan_hits=execution.metrics.shared_scan_hits,
            site_scans=execution.metrics.site_scans,
            cache_hits=execution.metrics.cache_hits,
            cache_delta_merges=execution.metrics.cache_delta_merges))

    def _maybe_serve_from_cuboids(self, ticket: QueryTicket,
                                  entry) -> ExecutionResult | None:
        """Answer a plain grouping from stored cube states, if any.

        Runs inside the append barrier, so the states' freshness check
        against the cache's version vector cannot race an append.
        """
        if not self.cube_materialize:
            return None
        from repro.sql.parser import parse
        from repro.cube import serve_statement
        served = serve_statement(self.engine, parse(ticket.sql),
                                 ticket.sketch_precision)
        if served is None:
            return None
        relation, metrics = served
        return ExecutionResult(relation, metrics, entry.plan)

    # -- introspection ------------------------------------------------------

    def snapshot(self) -> dict[str, object]:
        """One JSON-ready dict across every layer of the service."""
        exported: dict[str, object] = {
            "service": self.metrics.snapshot(),
            "plan_cache": self.plan_cache.stats(),
            "queue_depth": self.queue.depth,
            "workers": self.num_workers,
            "transport": self.engine.transport_name,
        }
        if self.engine.cache is not None:
            exported["subagg_cache"] = self.engine.cache.stats()
        return exported

    def describe(self) -> str:
        lines = [f"query service: {self.num_workers} workers over "
                 f"{len(self.engine.sites)} sites "
                 f"[{self.engine.transport_name} transport]",
                 self.metrics.describe()]
        if self.engine.cache is not None:
            lines.append(self.engine.cache.describe())
        return "\n".join(lines)


__all__ = ["DEFAULT_WORKERS", "QueryService", "ServiceResult"]
