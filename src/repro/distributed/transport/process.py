"""Multiprocess transport: one OS worker process per Skalla site.

This is the closest the reproduction gets to the paper's deployment
model: local warehouses are separate servers, and only serialized
sub-aggregates ever travel.  Each site runs in its own interpreter
(``multiprocessing`` pipes; ``fork`` where available, ``spawn``
otherwise), relation payloads cross the pipe in the SKRL binary format,
and the transport measures real frame bytes and real wall-clock per
call next to the engine's modeled numbers.

Robustness (owned here, per the transport contract):

* **crash detection** — a worker that dies mid-call closes its pipe;
  the parent observes EOF, respawns the worker from the current site,
  and raises :class:`~repro.errors.SiteFailure` into the shared
  retry/backoff loop;
* **per-call deadlines** — ``RetryPolicy.call_deadline`` bounds each
  call; a hung worker is killed, respawned, and the call retried;
* **graceful degradation** — when the pool cannot start at all (e.g.
  the platform forbids subprocesses), the transport warns once and
  falls back to in-process execution rather than failing the query.
"""

from __future__ import annotations

import multiprocessing
import pickle
import threading
import time
import warnings
from collections import defaultdict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.errors import SiteFailure, TransportError
from repro.relational.io import decode_relation, encode_relation
from repro.distributed.messages import SiteId
from repro.distributed.transport.base import (
    RetryPolicy, SiteRequest, SiteResponse, Transport)
from repro.distributed.transport.inprocess import InProcessTransport
from repro.distributed.transport.scatter import scatter_gather
from repro.distributed.transport.worker import CALL, INIT, SHUTDOWN, serve

if TYPE_CHECKING:  # pragma: no cover
    from repro.distributed.faults import ProcessFaultSpec

#: Seconds allowed for a worker's init handshake.
INIT_DEADLINE = 30.0

#: Seconds allowed for a polite shutdown before terminate().
SHUTDOWN_GRACE = 2.0


def _default_start_method() -> str:
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


def _claim_shared(name: str, size: int) -> bytes:
    """Consume (and unlink) a shared-memory payload a worker shipped.

    One bulk copy out of the segment, then the segment is gone — the
    worker already unregistered it from its resource tracker, so the
    parent holds sole ownership here.
    """
    from multiprocessing import shared_memory
    shm = shared_memory.SharedMemory(name=name)
    try:
        return bytes(shm.buf[:size])
    finally:
        shm.close()
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


@dataclass
class _Worker:
    """Parent-side handle of one site's worker process."""

    process: multiprocessing.process.BaseProcess
    connection: object  # multiprocessing.connection.Connection
    init_bytes: int

    def alive(self) -> bool:
        return self.process.is_alive()

    def kill(self) -> None:
        try:
            self.process.terminate()
            self.process.join(SHUTDOWN_GRACE)
            if self.process.is_alive():  # pragma: no cover - stubborn child
                self.process.kill()
                self.process.join(SHUTDOWN_GRACE)
        finally:
            try:
                self.connection.close()
            except OSError:  # pragma: no cover - already closed
                pass


class MultiprocessTransport(Transport):
    """One worker process per site, serialized payloads over pipes.

    Parameters
    ----------
    sites:
        Live site mapping.  Each worker holds a snapshot of its site
        taken at (re)spawn time — inherited through the fork, or pickled
        into the init frame under any other start method — so mutate
        sites *before* the first round, or call :meth:`invalidate` to
        force a respawn.
    retry:
        Shared retry policy; the process default adds a small backoff
        base so respawned workers get breathing room.
    start_method:
        ``"fork"`` (default where available) or ``"spawn"``.  A forked
        worker starts with its site already in memory, so a (re)spawn
        costs the fork and a handshake, not a pass over the fragment.
    fault_specs:
        Optional process-level fault injection per site id
        (:class:`~repro.distributed.faults.ProcessFaultSpec`).  A spec
        is shipped to the *first* spawn of a site's worker only unless
        it is marked ``repeat`` — so a killed worker's replacement
        recovers, which is exactly the scenario the retry loop exists
        for.
    shared_memory:
        Ship sub-aggregate payloads at or above
        :data:`~repro.distributed.transport.worker.SHM_MIN_BYTES`
        through ``multiprocessing.shared_memory`` segments instead of
        streaming them through the pipe: the worker copies the SKRL
        payload into a fresh segment and sends only ``(name, size)``;
        the parent attaches, consumes, and unlinks it.  Same-box
        transfer cost drops to one bulk copy with no pipe chunking.
        Results are bit-identical either way; small payloads stay
        inline automatically.
    """

    name = "process"

    def __init__(self, sites, retry: RetryPolicy | None = None,
                 seed: int | None = None,
                 start_method: str | None = None,
                 fault_specs: Mapping[SiteId, "ProcessFaultSpec"]
                 | None = None,
                 max_inflight: int | None = None,
                 hedge: "object | bool | None" = None,
                 shared_memory: bool = False):
        if retry is None:
            retry = RetryPolicy(base_delay=0.02, max_delay=0.5)
        super().__init__(sites, retry=retry, seed=seed,
                         max_inflight=max_inflight, hedge=hedge)
        self._context = multiprocessing.get_context(
            start_method or _default_start_method())
        self._workers: dict[SiteId, _Worker] = {}
        #: Serializes pipe use per site: a hedged round may leave its
        #: losing primary blocked on the worker's connection; the next
        #: round's call to that site must wait for the frame exchange
        #: to finish rather than interleave on the same pipe.
        self._pipe_locks: defaultdict[SiteId, threading.Lock] = \
            defaultdict(threading.Lock)
        #: Serializes pipe creation + fork: a fork taken while another
        #: spawn's child-end fd is still open in this process would
        #: duplicate that fd into the new worker, and the duplicated
        #: write end keeps the sibling's pipe from ever delivering EOF
        #: when its worker dies. Scatter threads spawn lazily (virtual
        #: sub-sites) and respawn concurrently, so the window is real.
        self._spawn_lock = threading.Lock()
        self._shared_memory = bool(shared_memory)
        self._fault_specs = dict(fault_specs or {})
        self._spawned_once: set[SiteId] = set()
        self._fallback: InProcessTransport | None = None
        #: set while close() tears the pool down — a late scatter thread
        #: (hedged round losers keep draining their pipes after the round
        #: resolves) must not respawn into a dying pool.
        self._closing = False
        #: one-time setup traffic (site fragments shipped to workers; zero
        #: when they are forked); reported separately from per-round
        #: wire bytes.
        self.setup_bytes = 0
        #: workers respawned over the transport's lifetime.
        self.total_respawns = 0

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        if self._started:
            return
        self._closing = False
        if self._fallback is None and not self._workers:
            try:
                for site_id in sorted(self.sites):
                    self._workers[site_id] = self._spawn(site_id)
            except TransportError as error:
                self._teardown_workers()
                warnings.warn(
                    f"multiprocess transport unavailable ({error}); "
                    f"degrading to in-process execution", RuntimeWarning,
                    stacklevel=2)
                self._fallback = InProcessTransport(
                    self.sites, retry=self.retry)
                self._fallback.start()
        super().start()

    def close(self) -> None:
        # Flag first: a hedged round's losing primary may still be
        # blocked on its pipe in a background thread and must not
        # respawn a worker into the pool we are about to drain.
        self._closing = True
        if self._fallback is not None:
            self._fallback.close()
        workers = list(self._workers.values())
        self._workers.clear()
        for worker in workers:
            try:
                worker.connection.send_bytes(
                    pickle.dumps({"kind": SHUTDOWN}))
            except (BrokenPipeError, OSError):
                pass
        for worker in workers:
            worker.process.join(SHUTDOWN_GRACE)
            if worker.process.is_alive():
                worker.kill()
            else:
                try:
                    worker.connection.close()
                except OSError:  # pragma: no cover
                    pass
        super().close()

    def invalidate(self, site_ids: Sequence[SiteId] | None = None) -> None:
        """Drop workers so the next round respawns from current sites.

        With ``site_ids`` given, only those sites' workers are killed —
        the rest of the pool (and its shipped fragments) stays warm, so
        an :meth:`~repro.distributed.engine.SkallaEngine.append` at one
        collection point no longer pays a full pool respawn.  Respawn is
        lazy: the replacement worker is started by the next call that
        targets the site.
        """
        if site_ids is None:
            self._teardown_workers()
            self._started = False
            return
        for site_id in site_ids:
            worker = self._workers.pop(site_id, None)
            if worker is not None:
                worker.kill()
            # A call in flight may be respawning this site from the
            # fragment before the append: wait it out, retire its worker.
            with self._pipe_locks[site_id]:
                worker = self._workers.pop(site_id, None)
            if worker is not None:
                worker.kill()

    def _teardown_workers(self) -> None:
        workers = list(self._workers.values())
        self._workers.clear()
        for worker in workers:
            worker.kill()

    @property
    def degraded(self) -> bool:
        """True when the pool could not start and calls run in-process."""
        return self._fallback is not None

    # -- spawning ----------------------------------------------------------

    def _spawn(self, site_id: SiteId) -> _Worker:
        site = self._site(site_id)
        fault = self._fault_specs.get(site_id)
        if fault is not None and site_id in self._spawned_once \
                and not fault.repeat:
            fault = None  # one-shot fault: the replacement is healthy
        init = {"kind": INIT, "site": site, "fault": fault,
                "shared_memory": self._shared_memory}
        # A forked worker already holds the site, copy-on-write, in the
        # memory image it starts from: it initializes from that and the
        # fragment is neither pickled nor piped.  Any other start
        # method boots a fresh interpreter and is shipped the init frame.
        inherit = self._context.get_start_method() == "fork"
        try:
            with self._spawn_lock:
                parent_end, child_end = self._context.Pipe(duplex=True)
                process = self._context.Process(
                    target=serve,
                    args=(child_end, init) if inherit else (child_end,),
                    daemon=True, name=f"skalla-site-{site_id}")
                process.start()
                child_end.close()
        except (OSError, ValueError, RuntimeError) as error:
            raise TransportError(
                f"cannot start worker for site {site_id}: {error}"
            ) from error
        init_frame = b"" if inherit else pickle.dumps(init)
        try:
            if not inherit:
                parent_end.send_bytes(init_frame)
            if not parent_end.poll(INIT_DEADLINE):
                raise TransportError(
                    f"worker for site {site_id} did not finish its init "
                    f"handshake within {INIT_DEADLINE}s")
            ack = pickle.loads(parent_end.recv_bytes())
            if not ack.get("ok"):  # pragma: no cover - defensive
                raise TransportError(
                    f"worker for site {site_id} rejected init")
        except (EOFError, BrokenPipeError, OSError) as error:
            process.terminate()
            raise TransportError(
                f"worker for site {site_id} died during init: {error}"
            ) from error
        self._spawned_once.add(site_id)
        self.setup_bytes += len(init_frame)
        return _Worker(process=process, connection=parent_end,
                       init_bytes=len(init_frame))

    def _respawn(self, site_id: SiteId) -> None:
        worker = self._workers.pop(site_id, None)
        if worker is not None:
            worker.kill()
        if self._closing:
            raise TransportError(
                f"transport closing; not respawning site {site_id}")
        self._workers[site_id] = self._spawn(site_id)
        with self._lock:
            self.total_respawns += 1

    # -- execution ---------------------------------------------------------

    def run_round(self, requests: Sequence[SiteRequest],
                  ) -> dict[SiteId, SiteResponse]:
        self._ensure_started()
        if self._fallback is not None:
            responses = self._fallback.run_round(requests)
            self.last_round_stats = self._fallback.last_round_stats
            return responses
        if len(requests) <= 1 or self.max_inflight == 1:
            return super().run_round(requests)  # sequential, with stats
        # Each call blocks on its own pipe; fan out on threads so the
        # worker processes genuinely run concurrently.  Hedges bypass
        # the straggler's pipe through local_call.  The pool is
        # per-round; hedged rounds may resolve before every losing
        # primary has drained its pipe, so shutdown must not wait —
        # the per-site pipe locks keep late frames ordered.
        from concurrent.futures import ThreadPoolExecutor
        workers = min(self.max_inflight or 32, len(requests))
        pool = ThreadPoolExecutor(max_workers=workers + 2,
                                  thread_name_prefix="skalla-pipe")
        try:
            responses, stats = scatter_gather(
                self.call, requests, pool.submit,
                hedge=self.hedge_policy, hedge_call=self.local_call)
        finally:
            pool.shutdown(wait=False)
        self.last_round_stats = stats
        return responses

    def _invoke(self, request: SiteRequest) -> SiteResponse:
        if self._fallback is not None:
            return self._fallback._invoke(request)
        site_id = request.site_id
        started = time.perf_counter()
        with self._pipe_locks[site_id]:
            return self._invoke_locked(request, started)

    def _invoke_locked(self, request: SiteRequest,
                       started: float) -> SiteResponse:
        site_id = request.site_id
        worker = self._workers.get(site_id)
        if worker is None or not worker.alive():
            try:
                self._respawn(site_id)
            except TransportError as error:
                raise self._failure(site_id, str(error), respawned=1)
            worker = self._workers[site_id]

        frame = pickle.dumps({
            "kind": CALL,
            "call": request.kind,
            "base_query": request.base_query,
            "step": request.step,
            "base_relation": (None if request.base_relation is None else
                              encode_relation(request.base_relation)),
            "ship_attrs": tuple(request.ship_attrs),
            "independent_reduction": request.independent_reduction,
        })
        deadline = self.retry.call_deadline
        try:
            worker.connection.send_bytes(frame)
            if deadline is not None:
                if not worker.connection.poll(deadline):
                    raise TimeoutError(
                        f"site {site_id} exceeded its {deadline}s "
                        f"call deadline")
            response_frame = worker.connection.recv_bytes()
        except TimeoutError as error:
            self._safe_respawn(site_id)
            raise self._failure(site_id, str(error), respawned=1)
        except (EOFError, BrokenPipeError, ConnectionResetError,
                OSError) as error:
            worker.process.join(SHUTDOWN_GRACE)  # reap to get the exit code
            exit_code = worker.process.exitcode
            self._safe_respawn(site_id)
            raise self._failure(
                site_id,
                f"worker for site {site_id} crashed "
                f"(exit code {exit_code}): {error or type(error).__name__}",
                respawned=1)

        response = pickle.loads(response_frame)
        if not response["ok"]:
            raise response["error"]
        payload_bytes = 0
        if "shm" in response:
            name, size = response["shm"]
            payload = _claim_shared(name, size)
            payload_bytes = size
        else:
            payload = response["payload"]
        relation = decode_relation(payload)
        return SiteResponse(
            site_id=site_id, relation=relation,
            compute_seconds=response["seconds"],
            wall_seconds=time.perf_counter() - started,
            request_bytes=len(frame),
            response_bytes=len(response_frame) + payload_bytes)

    def _safe_respawn(self, site_id: SiteId) -> None:
        try:
            self._respawn(site_id)
        except TransportError as error:  # pragma: no cover - spawn broke
            warnings.warn(f"could not respawn worker for site {site_id}: "
                          f"{error}", RuntimeWarning, stacklevel=2)

    @staticmethod
    def _failure(site_id: SiteId, message: str,
                 respawned: int = 0) -> SiteFailure:
        failure = SiteFailure(site_id, message)
        failure.respawned = respawned
        return failure

    def describe(self) -> str:
        mode = "degraded→inprocess" if self.degraded else \
            self._context.get_start_method()
        if self._shared_memory and not self.degraded:
            mode += "+shm"
        return (f"{self.name} transport ({mode}, "
                f"max_retries={self.retry.max_retries}, "
                f"deadline={self.retry.call_deadline})")


__all__ = ["MultiprocessTransport"]
