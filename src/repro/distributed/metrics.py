"""Cost accounting for distributed query executions.

The paper's experiments report: query evaluation time, bytes
transferred, and (Fig. 5 right) the breakdown into site computation,
coordinator computation, and communication overhead.  One
:class:`QueryMetrics` carries all of that for a single execution.

Time composition: sites of a round work in parallel, so a round's site
time is the *maximum* across participating sites; coordinator work and
communication phases are serial with respect to the rounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.distributed.messages import MessageLog


@dataclass
class PhaseMetrics:
    """One local-compute / transfer / coordinator-compute segment.

    The ``site_seconds`` / ``coordinator_seconds`` /
    ``communication_seconds`` triple composes the paper's *modeled* time
    (measured compute + :class:`~repro.distributed.network.LinkModel`
    transfers).  The ``real_*`` fields sit next to it when a transport
    actually moves bytes between processes: ``real_seconds`` is the
    measured wall-clock of the round's site calls (max across sites —
    serialization, IPC, and retries included) and ``real_bytes`` counts
    the serialized request+response frames on the wire.  Both stay 0
    under the in-process transport, where the modeled numbers are the
    only communication story.
    """

    name: str
    site_seconds: float = 0.0
    coordinator_seconds: float = 0.0
    communication_seconds: float = 0.0
    #: measured wall-clock of the round's dispatch (scatter start →
    #: last winning response; sequential dispatch sums the calls).
    real_seconds: float = 0.0
    #: real serialized bytes moved by the transport for this round.
    real_bytes: int = 0
    #: measured per-site latency (seconds; the raw distribution behind
    #: the skew numbers).  Scatter rounds measure from the scatter
    #: instant (queue wait included); sequential rounds record each
    #: call's own duration.
    site_wall_seconds: dict[int, float] = field(default_factory=dict)
    #: how the round was dispatched ("scatter" / "sequential" / "").
    dispatch: str = ""
    #: hedged straggler re-dispatches this round issued / won / wasted.
    hedges_issued: int = 0
    hedges_won: int = 0
    hedges_wasted: int = 0
    #: full-fragment site scans actually dispatched this round (cache
    #: hits and delta merges do not scan the fragment).
    site_scans: int = 0
    #: sub-aggregate cache outcomes for this round (0 when disabled).
    cache_hits: int = 0
    cache_misses: int = 0
    cache_delta_merges: int = 0
    #: site scans consumed from another in-flight query's dispatch
    #: (the cache's pending entries; 0 with the cache off).
    shared_scan_hits: int = 0
    #: shared results discarded at gather time because an append raced
    #: the leader's scan (the follower re-dispatched).
    shared_scan_stale: int = 0
    #: modeled wire bytes that did not travel thanks to the cache.
    cache_bytes_saved: int = 0
    #: serialized sketch-state bytes shipped to the coordinator this
    #: round (the blobs backing APPROX_* aggregates; 0 for exact plans).
    sketch_state_bytes: int = 0
    #: counterfactual uplink for the same answers without sketches —
    #: shipping every scanned site's raw detail values (8 B each) per
    #: sketched aggregate.  The sketch uplink is bounded by the number
    #: of groups, the exact-shipping uplink grows with fragment rows.
    sketch_exact_bytes: int = 0
    #: bytes entering the tree root this round (on the flat star: the
    #: full uplink).
    root_ingress_bytes: int = 0
    #: counterfactual: what the same round's uplink payloads would put
    #: on the coordinator link under flat scatter-gather (every site's
    #: sub-result + envelope, no interior merges).
    flat_ingress_bytes: int = 0
    #: modeled critical-path seconds per tree level (level 0 = root
    #: ingress; deeper levels merge in parallel across subtrees).
    tree_level_seconds: dict[int, float] = field(default_factory=dict)
    #: interior aggregators that failed (kill / deadline) this round.
    aggregator_failures: int = 0
    #: subtrees re-parented to their grandparent after an aggregator
    #: failure (the orphaned children's results travel unmerged).
    reparented_subtrees: int = 0
    #: failed subtrees that fell all the way back to flat scatter-
    #: gather at the root (last-resort degradation; results stay exact).
    flat_fallbacks: int = 0
    #: hot physical fragments fanned out across virtual sub-sites this
    #: round (skew mitigation; 0 without a planner or below threshold).
    skew_splits: int = 0
    #: virtual sub-site scans dispatched this round.
    virtual_sites: int = 0
    #: heavy-hitter keys the Misra-Gries sketch spread across sub-sites.
    heavy_hitter_keys: int = 0
    #: modeled sub-result bytes moved *off* split sites' critical paths
    #: (sum of non-largest virtual sub-results per split parent).
    rebalanced_bytes: int = 0

    @property
    def total_seconds(self) -> float:
        return (self.site_seconds + self.coordinator_seconds
                + self.communication_seconds)

    # -- per-site latency distribution -------------------------------------

    @property
    def critical_path_seconds(self) -> float:
        """Slowest site's measured latency — the round's lower bound."""
        return max(self.site_wall_seconds.values(), default=0.0)

    @property
    def sum_site_wall_seconds(self) -> float:
        """What strictly sequential dispatch would have paid."""
        return sum(self.site_wall_seconds.values())

    @property
    def skew_ratio(self) -> float:
        """max/mean measured site latency (1.0 = perfectly balanced)."""
        if not self.site_wall_seconds:
            return 1.0
        mean = self.sum_site_wall_seconds / len(self.site_wall_seconds)
        if mean <= 0.0:
            return 1.0
        return self.critical_path_seconds / mean

    def as_dict(self) -> dict[str, object]:
        """JSON-ready export of this phase (modeled + real + cache)."""
        return {
            "name": self.name,
            "site_seconds": round(self.site_seconds, 6),
            "coordinator_seconds": round(self.coordinator_seconds, 6),
            "communication_seconds": round(self.communication_seconds, 6),
            "total_seconds": round(self.total_seconds, 6),
            "real_seconds": round(self.real_seconds, 6),
            "real_bytes": self.real_bytes,
            "dispatch": self.dispatch,
            "site_wall_seconds": {str(site): round(wall, 6)
                                  for site, wall
                                  in sorted(self.site_wall_seconds.items())},
            "critical_path_seconds": round(self.critical_path_seconds, 6),
            "sum_site_wall_seconds": round(self.sum_site_wall_seconds, 6),
            "skew_ratio": round(self.skew_ratio, 4),
            "hedges_issued": self.hedges_issued,
            "hedges_won": self.hedges_won,
            "hedges_wasted": self.hedges_wasted,
            "site_scans": self.site_scans,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_delta_merges": self.cache_delta_merges,
            "cache_bytes_saved": self.cache_bytes_saved,
            "shared_scan_hits": self.shared_scan_hits,
            "shared_scan_stale": self.shared_scan_stale,
            "sketch_state_bytes": self.sketch_state_bytes,
            "sketch_exact_bytes": self.sketch_exact_bytes,
            "root_ingress_bytes": self.root_ingress_bytes,
            "flat_ingress_bytes": self.flat_ingress_bytes,
            "tree_level_seconds": {str(level): round(seconds, 6)
                                   for level, seconds
                                   in sorted(self.tree_level_seconds.items())},
            "aggregator_failures": self.aggregator_failures,
            "reparented_subtrees": self.reparented_subtrees,
            "flat_fallbacks": self.flat_fallbacks,
            "skew_splits": self.skew_splits,
            "virtual_sites": self.virtual_sites,
            "heavy_hitter_keys": self.heavy_hitter_keys,
            "rebalanced_bytes": self.rebalanced_bytes,
        }


@dataclass
class QueryMetrics:
    """Aggregate cost of one distributed query execution."""

    log: MessageLog = field(default_factory=MessageLog)
    phases: list[PhaseMetrics] = field(default_factory=list)
    num_synchronizations: int = 0
    num_participating_sites: int = 0
    #: site-call retries performed after transient failures
    retries: int = 0
    #: which transport backend executed the sites ("inprocess" default)
    transport: str = "inprocess"
    #: worker processes respawned after crashes/hangs (process transport)
    worker_respawns: int = 0
    #: whether the sub-aggregate cache was consulted for this execution
    cache_enabled: bool = False
    #: the shape the modeled fields were priced on ("flat" or "tree")
    topology: str = "flat"
    #: compact shape of the aggregation tree ("" for the flat star),
    #: e.g. "depth=3 fanout<=4 interior=21 sites=64".
    tree_shape: str = ""
    #: cuboids requested by a CUBE/ROLLUP/GROUPING SETS query
    cuboids_total: int = 0
    #: cuboids derived coordinator-side by Theorem-1 rollup (no round)
    cuboids_derived: int = 0
    #: lattice levels dispatched as distributed rounds
    lattice_levels: int = 0
    #: queries answered locally from a materialized cuboid ancestor
    ancestor_hits: int = 0

    @classmethod
    def combined(cls, parts: "Sequence[QueryMetrics]",
                 num_participating_sites: int) -> "QueryMetrics":
        """One metrics object over several executions, in order.

        Phases and message logs are concatenated (round indices are
        kept as each execution numbered them) and the counters summed;
        the descriptive fields come from the first execution.  Used
        where one query is several ``engine.execute`` calls: the cube
        lattice's sources and a heterogeneous chain's per-table rounds.
        """
        metrics = cls(num_participating_sites=num_participating_sites)
        for part in parts:
            metrics.phases.extend(part.phases)
            metrics.num_synchronizations += part.num_synchronizations
            metrics.retries += part.retries
            metrics.worker_respawns += part.worker_respawns
            metrics.log.messages.extend(part.log.messages)
        if parts:
            first = parts[0]
            metrics.transport = first.transport
            metrics.cache_enabled = first.cache_enabled
            metrics.topology = first.topology
            metrics.tree_shape = first.tree_shape
        return metrics

    # -- time -------------------------------------------------------------

    @property
    def site_seconds(self) -> float:
        """Parallel site computation time (sum over rounds of per-round max)."""
        return sum(phase.site_seconds for phase in self.phases)

    @property
    def coordinator_seconds(self) -> float:
        return sum(phase.coordinator_seconds for phase in self.phases)

    @property
    def communication_seconds(self) -> float:
        """Modeled transfer time on the shared coordinator link."""
        return sum(phase.communication_seconds for phase in self.phases)

    @property
    def response_seconds(self) -> float:
        """End-to-end query evaluation time (the paper's headline metric)."""
        return sum(phase.total_seconds for phase in self.phases)

    @property
    def real_seconds(self) -> float:
        """Measured wall-clock of all site rounds (serialization + IPC
        included; scatter rounds count their gather makespan)."""
        return sum(phase.real_seconds for phase in self.phases)

    # -- parallel dispatch / straggler accounting ---------------------------

    @property
    def critical_path_seconds(self) -> float:
        """Sum over rounds of the slowest site's measured latency —
        the wall-clock floor no dispatch strategy can beat."""
        return sum(phase.critical_path_seconds for phase in self.phases)

    @property
    def sum_site_wall_seconds(self) -> float:
        """Sum over rounds of every site's measured latency — what
        strictly sequential dispatch pays."""
        return sum(phase.sum_site_wall_seconds for phase in self.phases)

    @property
    def skew_ratio(self) -> float:
        """Worst per-round max/mean site latency (1.0 = balanced)."""
        return max((phase.skew_ratio for phase in self.phases),
                   default=1.0)

    @property
    def parallel_speedup_bound(self) -> float:
        """sum-of-sites / critical-path: the speedup ceiling concurrent
        dispatch can extract from this execution's rounds."""
        critical = self.critical_path_seconds
        if critical <= 0.0:
            return 1.0
        return self.sum_site_wall_seconds / critical

    @property
    def hedges_issued(self) -> int:
        return sum(phase.hedges_issued for phase in self.phases)

    @property
    def hedges_won(self) -> int:
        return sum(phase.hedges_won for phase in self.phases)

    @property
    def hedges_wasted(self) -> int:
        return sum(phase.hedges_wasted for phase in self.phases)

    # -- real wire traffic (multiprocess transport) ------------------------

    @property
    def real_bytes(self) -> int:
        """Serialized bytes the transport actually moved (0 in-process).

        Comparable to :attr:`total_bytes`, which is the *modeled* wire
        size of the same payloads; the ratio is the codec's framing
        overhead/compression relative to the paper's fixed-width model.
        """
        return sum(phase.real_bytes for phase in self.phases)

    # -- traffic -----------------------------------------------------------

    @property
    def total_bytes(self) -> int:
        return self.log.total_bytes()

    @property
    def bytes_to_coordinator(self) -> int:
        return self.log.bytes_to_coordinator()

    @property
    def bytes_to_sites(self) -> int:
        return self.log.bytes_to_sites()

    @property
    def rows_shipped(self) -> int:
        """Groups transferred in either direction (Fig. 2's unit)."""
        return self.log.rows_shipped()

    # -- sub-aggregate cache ------------------------------------------------

    @property
    def site_scans(self) -> int:
        """Full-fragment site scans dispatched (0 on a fully warm run)."""
        return sum(phase.site_scans for phase in self.phases)

    @property
    def cache_hits(self) -> int:
        return sum(phase.cache_hits for phase in self.phases)

    @property
    def cache_misses(self) -> int:
        return sum(phase.cache_misses for phase in self.phases)

    @property
    def cache_delta_merges(self) -> int:
        return sum(phase.cache_delta_merges for phase in self.phases)

    @property
    def cache_bytes_saved(self) -> int:
        """Modeled wire bytes that never traveled thanks to the cache."""
        return sum(phase.cache_bytes_saved for phase in self.phases)

    # -- cross-query scatter sharing ----------------------------------------

    @property
    def shared_scan_hits(self) -> int:
        """Site scans this query consumed from a concurrent query's
        in-flight dispatch instead of dispatching its own."""
        return sum(phase.shared_scan_hits for phase in self.phases)

    @property
    def shared_scan_stale(self) -> int:
        """Shared results discarded because an append raced the scan."""
        return sum(phase.shared_scan_stale for phase in self.phases)

    # -- sketch traffic -----------------------------------------------------

    @property
    def sketch_state_bytes(self) -> int:
        """Serialized sketch blobs shipped to the coordinator (uplink)."""
        return sum(phase.sketch_state_bytes for phase in self.phases)

    @property
    def sketch_exact_bytes(self) -> int:
        """What exact evaluation of the sketched aggregates would have
        shipped instead: raw detail values from every scanned site."""
        return sum(phase.sketch_exact_bytes for phase in self.phases)

    @property
    def sketch_compression_ratio(self) -> float:
        """exact-shipping bytes / sketch bytes (1.0 when no sketches)."""
        if self.sketch_state_bytes <= 0:
            return 1.0
        return self.sketch_exact_bytes / self.sketch_state_bytes

    # -- aggregation tree ----------------------------------------------------

    @property
    def root_ingress_bytes(self) -> int:
        """Bytes entering the tree root across all rounds (tree runs)."""
        return sum(phase.root_ingress_bytes for phase in self.phases)

    @property
    def flat_ingress_bytes(self) -> int:
        """The flat-star counterfactual for the same uplink payloads."""
        return sum(phase.flat_ingress_bytes for phase in self.phases)

    @property
    def ingress_reduction_ratio(self) -> float:
        """flat-counterfactual / actual root ingress (1.0 = no tree)."""
        if self.root_ingress_bytes <= 0:
            return 1.0
        return self.flat_ingress_bytes / self.root_ingress_bytes

    @property
    def tree_level_seconds(self) -> dict[int, float]:
        """Per-level modeled critical path, summed across rounds."""
        levels: dict[int, float] = {}
        for phase in self.phases:
            for level, seconds in phase.tree_level_seconds.items():
                levels[level] = levels.get(level, 0.0) + seconds
        return levels

    @property
    def aggregator_failures(self) -> int:
        return sum(phase.aggregator_failures for phase in self.phases)

    @property
    def reparented_subtrees(self) -> int:
        return sum(phase.reparented_subtrees for phase in self.phases)

    @property
    def flat_fallbacks(self) -> int:
        return sum(phase.flat_fallbacks for phase in self.phases)

    # -- skew mitigation ----------------------------------------------------

    @property
    def skew_splits(self) -> int:
        """Hot-fragment fan-outs across virtual sub-sites (all rounds)."""
        return sum(phase.skew_splits for phase in self.phases)

    @property
    def virtual_sites(self) -> int:
        return sum(phase.virtual_sites for phase in self.phases)

    @property
    def heavy_hitter_keys(self) -> int:
        return sum(phase.heavy_hitter_keys for phase in self.phases)

    @property
    def rebalanced_bytes(self) -> int:
        return sum(phase.rebalanced_bytes for phase in self.phases)

    def summary(self) -> dict[str, object]:
        """A flat dict of the headline numbers (handy for bench tables)."""
        return {
            "response_seconds": round(self.response_seconds, 6),
            "site_seconds": round(self.site_seconds, 6),
            "coordinator_seconds": round(self.coordinator_seconds, 6),
            "communication_seconds": round(self.communication_seconds, 6),
            "total_bytes": self.total_bytes,
            "bytes_to_coordinator": self.bytes_to_coordinator,
            "bytes_to_sites": self.bytes_to_sites,
            "rows_shipped": self.rows_shipped,
            "synchronizations": self.num_synchronizations,
            "sites": self.num_participating_sites,
            "retries": self.retries,
            "transport": self.transport,
            "real_seconds": round(self.real_seconds, 6),
            "real_bytes": self.real_bytes,
            "critical_path_seconds": round(self.critical_path_seconds, 6),
            "sum_site_wall_seconds": round(self.sum_site_wall_seconds, 6),
            "skew_ratio": round(self.skew_ratio, 4),
            "parallel_speedup_bound": round(self.parallel_speedup_bound, 4),
            "hedges_issued": self.hedges_issued,
            "hedges_won": self.hedges_won,
            "hedges_wasted": self.hedges_wasted,
            "worker_respawns": self.worker_respawns,
            "site_scans": self.site_scans,
            "cache_enabled": self.cache_enabled,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_delta_merges": self.cache_delta_merges,
            "cache_bytes_saved": self.cache_bytes_saved,
            "shared_scan_hits": self.shared_scan_hits,
            "shared_scan_stale": self.shared_scan_stale,
            "sketch_state_bytes": self.sketch_state_bytes,
            "sketch_exact_bytes": self.sketch_exact_bytes,
            "sketch_compression_ratio": round(
                self.sketch_compression_ratio, 4),
            "topology": self.topology,
            "tree_shape": self.tree_shape,
            "root_ingress_bytes": self.root_ingress_bytes,
            "flat_ingress_bytes": self.flat_ingress_bytes,
            "ingress_reduction_ratio": round(
                self.ingress_reduction_ratio, 4),
            "aggregator_failures": self.aggregator_failures,
            "reparented_subtrees": self.reparented_subtrees,
            "flat_fallbacks": self.flat_fallbacks,
            "skew_splits": self.skew_splits,
            "virtual_sites": self.virtual_sites,
            "heavy_hitter_keys": self.heavy_hitter_keys,
            "rebalanced_bytes": self.rebalanced_bytes,
            "cuboids_total": self.cuboids_total,
            "cuboids_derived": self.cuboids_derived,
            "lattice_levels": self.lattice_levels,
            "ancestor_hits": self.ancestor_hits,
        }

    def as_dict(self) -> dict[str, object]:
        """Full JSON export: the summary plus every phase's breakdown.

        ``json.dumps(metrics.as_dict())`` round-trips: every value is a
        plain str/int/float/bool.  Used by the benchmark harness instead
        of ad-hoc formatting, and handy for dashboards and CI artifacts.
        """
        exported = self.summary()
        exported["phases"] = [phase.as_dict() for phase in self.phases]
        return exported
