"""The simulated network: a star topology around the coordinator.

The paper's distributed data warehouse connects every local site to the
coordinator (Fig. 1).  We model that star with a simple, deterministic
cost model:

* every message pays a per-message ``latency``;
* payload bytes move at ``bandwidth`` bytes/second **through the
  coordinator's access link**, which is shared — concurrent transfers
  from many sites serialize on it.  This is what makes quadratic *total*
  traffic show up as quadratic *time*, exactly the effect Sect. 5.2
  reports;
* messages between sites never occur (strict coordinator architecture).

The network only *accounts*; data moves by reference in-process.  Wall
time of local computation is measured separately by the engine and
combined with these modeled transfer times in
:class:`~repro.distributed.metrics.QueryMetrics`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import NetworkError
from repro.distributed.messages import (
    COORDINATOR, Message, MessageLog, SiteId)

#: Default access-link bandwidth (bytes/second).  Deliberately modest —
#: the paper's setting is a wide-area collection network, not a parallel
#: machine's interconnect (Sect. 1.2 contrasts the two).
DEFAULT_BANDWIDTH = 1_000_000.0

#: Default per-message latency (seconds).
DEFAULT_LATENCY = 0.010


@dataclass(frozen=True)
class ComputeModel:
    """A deterministic substitute for measured site compute time.

    When attached to an engine, a site's reported compute seconds become
    ``scan_seconds_per_row · detail_rows + group_seconds_per_row ·
    base_rows`` (scaled by the site's slowdown) instead of wall-clock
    measurements.  Useful when figure shapes must be bit-reproducible
    across machines; the default rates approximate this engine on
    commodity hardware.
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


class Hop:
    """One tree node's fan-in (or fan-out) within a round.

    The generalisation of :meth:`LinkModel.transfer_seconds` to a node
    whose children sit behind *different* links: link latencies overlap
    (the slowest is paid once) and payloads serialize on the node's
    access port, each at its own link's bandwidth.  Bytes sharing a
    link are summed before dividing, so with every message on one link
    — the flat star — this is exactly ``transfer_seconds``.
    """

    def __init__(self, log: MessageLog):
        self.log = log
        self.bytes_by_link: dict[LinkModel, int] = {}

    def carry(self, link: LinkModel, message: Message) -> None:
        """Cost ``message`` (already logged) over ``link``."""
        self.bytes_by_link[link] = (self.bytes_by_link.get(link, 0)
                                    + message.total_bytes)

    def send(self, link: LinkModel, message: Message) -> None:
        """Log ``message`` and cost it over ``link``."""
        self.log.record(message)
        self.carry(link, message)

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes_by_link.values())

    def seconds(self) -> float:
        if not self.bytes_by_link:
            return 0.0
        return (max(link.latency for link in self.bytes_by_link)
                + sum(carried / link.bandwidth
                      for link, carried in self.bytes_by_link.items()))


@dataclass
class SimulatedNetwork:
    """Records messages and converts them into modeled transfer time.

    One instance is created per query execution.  The engine groups its
    sends into *phases* (e.g. "coordinator ships X_k to all sites",
    "all sites return H_i"); each phase is costed as one shared-link
    batch via :meth:`end_phase`.
    """

    num_sites: int
    link: LinkModel = field(default_factory=LinkModel)
    log: MessageLog = field(default_factory=MessageLog)

    def __post_init__(self):
        if self.num_sites <= 0:
            raise NetworkError("a distributed warehouse needs at least one site")
        self._phase_messages: list[Message] = []
        self._transfer_seconds = 0.0
        self._phase_seconds: list[float] = []
        self._real_bytes = 0
        self._real_seconds = 0.0

    def _validate_endpoint(self, node: SiteId) -> None:
        if node == COORDINATOR:
            return
        if not 0 <= node < self.num_sites:
            raise NetworkError(
                f"unknown site {node}; have sites 0..{self.num_sites - 1}")

    def send(self, message: Message) -> None:
        """Record a message in the current phase."""
        self._validate_endpoint(message.sender)
        self._validate_endpoint(message.receiver)
        if message.sender != COORDINATOR and message.receiver != COORDINATOR:
            raise NetworkError(
                "sites never talk to each other in the coordinator "
                "architecture")
        self.log.record(message)
        self._phase_messages.append(message)

    def end_phase(self) -> float:
        """Close the current phase and return its modeled duration."""
        seconds = self.link.transfer_seconds(self._phase_messages)
        self._phase_messages = []
        self._transfer_seconds += seconds
        self._phase_seconds.append(seconds)
        return seconds

    def note_real_transfer(self, wire_bytes: int, seconds: float) -> None:
        """Record bytes/seconds a transport *actually* moved/measured.

        The modeled :class:`LinkModel` numbers stay authoritative for
        the paper's figures; these observations accumulate next to them
        so callers can report modeled vs real side by side.
        """
        if wire_bytes < 0 or seconds < 0:
            raise NetworkError("real transfer observations must be "
                               "non-negative")
        self._real_bytes += wire_bytes
        self._real_seconds += seconds

    @property
    def transfer_seconds(self) -> float:
        """Total modeled communication time across completed phases."""
        return self._transfer_seconds

    @property
    def phase_seconds(self) -> list[float]:
        return list(self._phase_seconds)

    @property
    def real_bytes(self) -> int:
        """Serialized bytes observed on a real transport (0 in-process)."""
        return self._real_bytes

    @property
    def real_seconds(self) -> float:
        """Measured wall-clock observed on a real transport."""
        return self._real_seconds
