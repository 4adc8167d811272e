"""The modeled network: a star topology around the coordinator.

The paper's distributed data warehouse connects every local site to the
coordinator (Fig. 1).  We model that star with a simple, deterministic
cost model (:class:`LinkModel`; :class:`~repro.distributed.pricing.Hop`
generalises it to a tree node whose children sit behind different
links):

* every message pays a per-message ``latency``;
* payload bytes move at ``bandwidth`` bytes/second **through the
  coordinator's access link**, which is shared — concurrent transfers
  from many sites serialize on it.  This is what makes quadratic *total*
  traffic show up as quadratic *time*, exactly the effect Sect. 5.2
  reports;
* messages between sites never occur (strict coordinator architecture).

The model only *accounts*; data moves by reference in-process.  Wall
time of local computation is measured separately by the engine and
combined with these modeled transfer times by
:func:`~repro.distributed.pricing.price`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import NetworkError
from repro.distributed.messages import Message

#: Default access-link bandwidth (bytes/second).  Deliberately modest —
#: the paper's setting is a wide-area collection network, not a parallel
#: machine's interconnect (Sect. 1.2 contrasts the two).
DEFAULT_BANDWIDTH = 1_000_000.0

#: Default per-message latency (seconds).
DEFAULT_LATENCY = 0.010


@dataclass(frozen=True)
class ComputeModel:
    """A deterministic substitute for measured site compute time.

    Given to :func:`~repro.distributed.pricing.price` (or to an engine,
    which prices its own runs with it), a site's compute seconds become
    ``scan_seconds_per_row · detail_rows + group_seconds_per_row ·
    base_rows`` instead of wall-clock measurements, and every merge at
    an aggregator or the coordinator costs ``seconds(rows merged, 0)``.
    Useful when figure shapes must be bit-reproducible across machines;
    the default rates approximate this engine on commodity hardware.
    """

    scan_seconds_per_row: float = 2e-7
    group_seconds_per_row: float = 1e-6

    def seconds(self, detail_rows: int, base_rows: int) -> float:
        return (self.scan_seconds_per_row * detail_rows
                + self.group_seconds_per_row * base_rows)


@dataclass(frozen=True)
class LinkModel:
    """Latency/bandwidth parameters of the coordinator's access link."""

    bandwidth: float = DEFAULT_BANDWIDTH
    latency: float = DEFAULT_LATENCY

    def transfer_seconds(self, messages: list[Message]) -> float:
        """Modeled time for a batch of messages sharing the link.

        Payloads serialize on the shared link; latencies of messages sent
        in the same phase overlap except for one (pipelining), so a phase
        pays one latency plus the serialized payload time.
        """
        if not messages:
            return 0.0
        total_bytes = sum(message.total_bytes for message in messages)
        return self.latency + total_bytes / self.bandwidth

    def point_to_point_seconds(self, payload_bytes: int) -> float:
        """Modeled time to move one payload over this link alone.

        Used by the WAN/tree cost model, where each edge is its own
        link rather than a share of the coordinator's access link.
        """
        if payload_bytes < 0:
            raise NetworkError("payload bytes must be non-negative")
        return self.latency + payload_bytes / self.bandwidth
