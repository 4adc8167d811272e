"""Pluggable site-execution transports for the Skalla engine.

The paper's architecture (Sect. 2) runs every local warehouse as its own
server; the reproduction historically evaluated all sites *in-process*
with a purely modeled network.  This package makes the execution
substrate pluggable:

* :class:`InProcessTransport` — direct, sequential calls (the historical
  behavior, and the default).  Zero real wire bytes; the modeled
  :class:`~repro.distributed.network.LinkModel` numbers are the only
  communication story.
* :class:`ThreadTransport` — a persistent thread pool, one task per
  site-call.  NumPy releases the GIL inside the heavy kernels, so this
  is real parallelism for the site compute.
* :class:`MultiprocessTransport` — one OS worker process per site,
  exchanging *serialized bytes* over pipes (SKRL binary codec for
  relation payloads, pickle for plan fragments).  This measures real
  wire bytes and real wall-clock per round next to the modeled numbers,
  and owns the robustness story: per-call deadlines, exponential backoff
  with jitter, crash detection + worker respawn, and graceful
  degradation to the in-process path when a pool cannot start.

Use :func:`create_transport` (or the ``--transport`` CLI flag) to pick a
backend by name.
"""

from __future__ import annotations

from typing import Mapping

from repro.errors import PlanError
from repro.distributed.transport.base import (
    RetryPolicy, SiteRequest, SiteResponse, Transport, perform_request)
from repro.distributed.transport.scatter import (
    HedgePolicy, RoundStats, scatter_gather)
from repro.distributed.transport.inprocess import (
    InProcessTransport, ThreadTransport)
from repro.distributed.transport.process import MultiprocessTransport

#: Registry of transport names accepted by :func:`create_transport`
#: and the CLI's ``--transport`` flag.
TRANSPORTS: Mapping[str, type[Transport]] = {
    "inprocess": InProcessTransport,
    "thread": ThreadTransport,
    "process": MultiprocessTransport,
}

#: The default backend (the historical engine behavior).
DEFAULT_TRANSPORT = "inprocess"


def create_transport(name: str, sites, retry: RetryPolicy | None = None,
                     **options) -> Transport:
    """Instantiate a transport backend by registry name.

    ``options`` are forwarded to the backend constructor (e.g.
    ``max_inflight`` / ``hedge`` for every backend, ``start_method`` /
    ``fault_specs`` for the multiprocess transport).
    """
    try:
        factory = TRANSPORTS[name]
    except KeyError:
        raise PlanError(
            f"unknown transport {name!r}; choose from "
            f"{sorted(TRANSPORTS)}") from None
    return factory(sites, retry=retry, **options)


__all__ = [
    "DEFAULT_TRANSPORT",
    "HedgePolicy",
    "InProcessTransport",
    "MultiprocessTransport",
    "RetryPolicy",
    "RoundStats",
    "SiteRequest",
    "SiteResponse",
    "ThreadTransport",
    "Transport",
    "TRANSPORTS",
    "create_transport",
    "perform_request",
    "scatter_gather",
]
