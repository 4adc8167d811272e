"""In-process transports: direct calls and a persistent thread pool.

Both backends execute site work inside the coordinator process — no
serialization happens, so real request/response bytes are 0 and only the
modeled :class:`~repro.distributed.network.LinkModel` numbers describe
communication.  Per-site wall latencies are still measured from the
scatter instant, so thread-level parallel speedup (and skew) is visible
next to the modeled per-round maximum.

The thread backend dispatches each round through the shared
scatter-gather executor (:mod:`repro.distributed.transport.scatter`):
all site calls are issued concurrently on the pool (bounded by
``max_inflight``), gathered as they complete, and — when a hedge policy
is set — stragglers past the median-derived deadline get one idempotent
re-dispatch.  NumPy releases the GIL for most of the heavy kernels, so
site compute overlaps for real.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Sequence

from repro.distributed.messages import SiteId
from repro.distributed.transport.base import (
    SiteRequest, SiteResponse, Transport)
from repro.distributed.transport.scatter import scatter_gather


class InProcessTransport(Transport):
    """Direct, sequential site execution (the historical default)."""

    name = "inprocess"

    def _invoke(self, request: SiteRequest) -> SiteResponse:
        return self.local_call(request)


class ThreadTransport(InProcessTransport):
    """Scatter-gather site execution on a persistent thread pool.

    The pool persists across rounds (and queries) to avoid re-spawning
    threads per round.  ``max_inflight`` bounds concurrent site calls
    (default: one thread per site, capped at 8); ``max_inflight=1``
    degenerates to sequential dispatch.  Hedged duplicates re-invoke
    the live site — site work is a pure function of (fragment, shipped
    structure), so the duplicate is idempotent and the first response
    wins.
    """

    name = "thread"

    def __init__(self, sites, retry=None, seed: int | None = None,
                 max_inflight: int | None = None,
                 hedge: "object | bool | None" = None):
        super().__init__(sites, retry=retry, seed=seed,
                         max_inflight=max_inflight, hedge=hedge)
        self._pool: ThreadPoolExecutor | None = None

    def start(self) -> None:
        if self._pool is None:
            workers = self.max_inflight or min(8, max(1, len(self.sites)))
            self._pool = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="skalla-site")
        super().start()

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        super().close()

    def run_round(self, requests: Sequence[SiteRequest],
                  ) -> dict[SiteId, SiteResponse]:
        self._ensure_started()
        if len(requests) <= 1 or self.max_inflight == 1:
            return super().run_round(requests)
        assert self._pool is not None
        responses, stats = scatter_gather(
            self.call, requests, self._pool.submit,
            hedge=self.hedge_policy)
        self.last_round_stats = stats
        return responses


__all__ = ["InProcessTransport", "ThreadTransport"]
