"""Pricing: a run's modeled cost as a function of its round log.

The engine always executes the flat star and records each round in a
:class:`RoundLog`; :func:`price` turns it into the modeled metrics of
any aggregation shape — the star, a tree of interior aggregators, WAN
edges, aggregator faults — without running a site again (Sect. 5: a
round costs its slowest site plus the transfer of what moved; Sect. 6:
a multi-tiered coordinator).  Interior aggregators run the
coordinator's Theorem-1 merge on the logged sub-results, so forwarded
payloads, sketch states included, have their exact sizes.  A tree's
win is modeled: wall-clock never depends on the shape.  See
docs/TOPOLOGY.md.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.errors import PlanError
from repro.relational.aggregates import sketch_primitive
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.distributed.coordinator import merge_partial
from repro.distributed.faults import AggregatorFaultSpec
from repro.distributed.hierarchy import (
    AGGREGATOR, TreeNode, TreeTopology, tree_summary)
from repro.distributed.messages import (
    COORDINATOR, ENVELOPE_BYTES, Message, MessageLog, SiteId,
    control_message, relation_message)
from repro.distributed.metrics import PhaseMetrics, QueryMetrics
from repro.distributed.network import ComputeModel, LinkModel
from repro.distributed.plan import LocalStep

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.topology.model import WanTopology


@dataclass
class SiteWork:
    """One site's part in one round.

    ``relation`` is the sub-result the coordinator synchronized;
    ``seconds`` its measured compute time (a split site's slowest
    sub-scan) over ``scan_rows`` detail rows (``None``: a cache hit,
    nothing computed); ``detail_rows`` are the rows summarised by what
    the site put on the wire (0 when nothing travelled).
    """

    relation: Relation
    seconds: float
    scan_rows: int | None
    detail_rows: int


@dataclass
class RoundRecord:
    """What one flat-star round moved."""

    #: the round's executed counters; the modeled fields stay zero
    phase: PhaseMetrics
    index: int
    key: tuple[str, ...]
    #: ``None`` for the base round
    step: LocalStep | None
    #: rows of the shipped base-result structure (0 when none)
    base_rows: int
    #: every site the round reached (a cache-served one needs no
    #: downlink) → its base-result structure, ``None`` for a control
    #: message
    downlinks: dict[SiteId, Relation | None] = field(default_factory=dict)
    #: every participating site's work, in synchronization order
    sites: dict[SiteId, SiteWork] = field(default_factory=dict)
    #: site → measured response bytes (``None`` in-process) of the sites
    #: whose sub-result crossed the wire
    uplinks: dict[SiteId, int | None] = field(default_factory=dict)
    #: cache entries upgraded at the root, each (site, delta sub-result,
    #: measured merge seconds, rows merged): a conversation with the
    #: root, where the cache lives, so they keep the star link
    deltas: "list[tuple[SiteId, Relation, float, int]]" = field(
        default_factory=list)
    #: measured seconds of the coordinator's synchronization
    sync_seconds: float = 0.0

    @property
    def uplink_kind(self) -> str:
        return "base_result" if self.step is None else "sub_aggregates"

    @property
    def note(self) -> str:
        if self.step is None:
            return "ship base query"
        if self.step.include_base:
            return "ship plan step (local base)"
        return "base-result structure"


@dataclass
class RoundLog:
    """One execution's rounds, held by ``ExecutionResult`` only (never
    by :class:`QueryMetrics`, which outlives the run's relations)."""

    #: the execution's counters (each round carries its own phase)
    executed: QueryMetrics
    site_ids: tuple[SiteId, ...]
    detail_schema: Schema
    rounds: list[RoundRecord] = field(default_factory=list)


def price(log: RoundLog, topology: TreeTopology, link: LinkModel,
          compute_model: ComputeModel | None = None,
          wan: "WanTopology | None" = None,
          aggregator_faults: "Mapping[str, AggregatorFaultSpec] | None"
          = None,
          aggregator_deadline: float = 1.0) -> QueryMetrics:
    """The modeled metrics of ``log`` had its rounds merged up ``topology``.

    Each tree edge is costed by its ``wan`` link, else by ``link``.
    ``aggregator_faults`` maps an interior node id to its fault (merge
    ordinals count within this call); a hang longer than
    ``aggregator_deadline`` seconds is a failure.  With a
    ``compute_model`` every second is modeled from row counts; without
    one, site and synchronize seconds are the run's measurements.  The
    log is left as it was.
    """
    topology.validate_sites(log.site_ids)
    if wan is not None:
        unknown = set(log.site_ids) - set(wan.sites)
        if unknown:
            raise PlanError(f"WAN topology lacks sites {sorted(unknown)}")
    deep = topology.depth() > 1
    metrics = replace(log.executed, log=MessageLog(), phases=[],
                      topology="tree" if deep else "flat",
                      tree_shape=tree_summary(topology) if deep else "")
    pricer = _Pricer(topology, link, compute_model, wan,
                     aggregator_faults or {}, aggregator_deadline,
                     log.detail_schema, metrics.log)
    metrics.phases.extend(pricer.price_round(record)
                          for record in log.rounds)
    return metrics


@dataclass
class _Pricer:
    """One :func:`price` call.  Cost model: a node's fan-in (and
    fan-out) is one :class:`Hop`; subtrees proceed in parallel, so a
    walk pays the critical path.  An aggregator's colocated site hands
    its payload over locally (no hop, no message)."""

    topology: TreeTopology
    link: LinkModel
    compute_model: ComputeModel | None
    wan: "WanTopology | None"
    faults: "Mapping[str, AggregatorFaultSpec]"
    aggregator_deadline: float
    detail_schema: Schema
    log: MessageLog
    #: node id → merges seen so far (fault ordinals)
    merges: dict[str, int] = field(default_factory=dict)

    def price_round(self, record: RoundRecord) -> PhaseMetrics:
        """Descend, delta maintenance, ascend, synchronize at the root."""
        model = self.compute_model
        phase = replace(record.phase, tree_level_seconds={})
        if record.downlinks:
            phase.communication_seconds += self._descend(
                self.topology.root, record)
        direct: list[Message] = []
        for site, delta, seconds, rows in record.deltas:
            message = relation_message(
                site, COORDINATOR, f"delta_{record.uplink_kind}", delta,
                record.index, f"site {site} delta (incremental maintenance)")
            self.log.record(message)
            direct.append(message)
            phase.coordinator_seconds += (
                seconds if model is None else model.seconds(rows, 0))
        if record.step is not None:
            self._account_sketch_bytes(phase, record)
        phase.site_seconds = max(
            (work.seconds if model is None or work.scan_rows is None
             else model.seconds(work.scan_rows, record.base_rows)
             for work in record.sites.values()), default=0.0)

        # Sites answered at the root (cache hit, delta merge, shared
        # scan) send nothing up the tree; their sub-results join the
        # root's merge directly.
        local = {site: work.relation for site, work in record.sites.items()
                 if site not in record.uplinks}
        inputs, merge_seconds, comm_seconds = [], 0.0, 0.0
        if record.uplinks or direct:
            inputs, (merge_seconds, comm_seconds), __ = self._ascend(
                self.topology.root, 0, record, phase, local, direct)
            phase.flat_ingress_bytes += sum(
                record.sites[site].relation.wire_bytes() + ENVELOPE_BYTES
                for site in record.uplinks) + sum(
                message.total_bytes for message in direct)
        inputs += local.values()
        phase.communication_seconds += comm_seconds
        phase.coordinator_seconds += merge_seconds
        phase.coordinator_seconds += (
            record.sync_seconds if model is None
            else model.seconds(sum(relation.num_rows
                                   for relation in inputs), 0))
        return phase

    def _edge_link(self, child_point: SiteId | None,
                   parent_host: SiteId | None) -> LinkModel:
        """The link costing one tree edge (WAN edge, or the star link)."""
        if self.wan is None or child_point is None:
            return self.link
        target = COORDINATOR if parent_host is None else parent_host
        link = self.wan.link(child_point, target)
        return link if link is not None else self.link

    def _descend(self, node: TreeNode, record: RoundRecord) -> float:
        """Ship the round's downlink payload down one subtree.

        A site whose downlink is ``None`` gets a control message,
        otherwise its base-result structure.  Returns the critical-path
        transfer seconds.
        """
        shipped, note = record.downlinks, record.note
        sender = COORDINATOR if node is self.topology.root else AGGREGATOR
        hop = Hop(self.log)
        for site in node.site_children:
            if site not in shipped or site == node.host:
                continue  # cache-served, or the aggregator's own site
            hop.send(self._edge_link(site, node.host), _downlink(
                sender, site, shipped[site], record.index, note))
        child_seconds: list[float] = []
        for child in node.node_children:
            branch = [site for site in child.descendant_sites()
                      if site in shipped]
            if not branch:
                continue
            payload = _branch_payload([shipped[site] for site in branch],
                                      record.key)
            hop.send(self._edge_link(child.host, node.host),
                     _downlink(sender, AGGREGATOR, payload, record.index,
                               f"{note} -> {child.node_id}"))
            child_seconds.append(self._descend(child, record))
        return hop.seconds() + max(child_seconds, default=0.0)

    def _ascend(self, node: TreeNode, level: int, record: RoundRecord,
                phase: PhaseMetrics, local: "dict[SiteId, Relation]",
                direct: "list[Message]",
                ) -> "tuple[list[Relation], tuple[float, float], bool]":
        """Walk one subtree bottom-up, merging at interior nodes.

        Returns ``(relations, (merge compute, comm) critical path,
        merged)``: what this subtree forwards to its parent — one merged
        relation, or the unmerged child relations when this node failed
        (``merged=False``; the parent re-parents them).  The root (level
        0) forwards its inputs unmerged for synchronization, taking its
        own site children from ``local`` (sub-results already at the
        root) in tree order; ``direct`` messages bypass the tree.
        """
        receiver = COORDINATOR if level == 0 else AGGREGATOR
        gathered: list[Relation] = []
        child_paths: list[tuple[float, float]] = []
        hop = Hop(self.log)
        for site in node.site_children:
            if site not in record.uplinks:
                if level == 0 and site in local:
                    gathered.append(local.pop(site))
                continue
            relation = record.sites[site].relation
            gathered.append(relation)
            if site != node.host:
                # (the aggregator's own sub-aggregate is already local)
                hop.send(self._edge_link(site, node.host), relation_message(
                    site, receiver, record.uplink_kind, relation,
                    record.index, f"site {site} -> {node.node_id}",
                    real_bytes=record.uplinks[site]))
        for child in node.node_children:
            relations, path, child_merged = self._ascend(
                child, level + 1, record, phase, local, direct)
            child_paths.append(path)
            link = self._edge_link(child.host, node.host)
            for relation in relations:
                hop.send(link, relation_message(
                    AGGREGATOR, receiver, record.uplink_kind, relation,
                    record.index, f"{child.node_id} -> {node.node_id}"))
                gathered.append(relation)
            if relations and not child_merged and level == 0:
                # the failed aggregator sat directly under the root:
                # its branch arrives flat, scatter-gather style
                phase.flat_fallbacks += 1
        worst_compute, worst_comm = _critical_child(child_paths)
        if level == 0:
            for message in direct:
                hop.carry(self.link, message)
        ingress = hop.seconds()
        comm = worst_comm + ingress
        if level == 0:
            phase.root_ingress_bytes += hop.total_bytes
            if hop.bytes_by_link:
                phase.tree_level_seconds[0] = max(
                    phase.tree_level_seconds.get(0, 0.0), ingress)
            return gathered, (worst_compute, comm), True
        if not gathered:
            return [], (worst_compute, comm), True
        # -- interior merge (with deterministic fault injection) -----------
        spec = self.faults.get(node.node_id)
        hang_seconds = 0.0
        if spec is not None:
            ordinal = self.merges.get(node.node_id, 0)
            self.merges[node.node_id] = ordinal + 1
            if spec.triggers(spec.kill_on_merge, ordinal):
                phase.aggregator_failures += 1
                phase.reparented_subtrees += 1
                return gathered, (worst_compute, comm), False
            if spec.triggers(spec.hang_on_merge, ordinal):
                if spec.hang_seconds > self.aggregator_deadline:
                    # the parent stops waiting at the deadline and
                    # re-parents; the wait itself is paid on the path
                    phase.aggregator_failures += 1
                    phase.reparented_subtrees += 1
                    return (gathered,
                            (worst_compute,
                             comm + self.aggregator_deadline), False)
                hang_seconds = spec.hang_seconds
        if len(gathered) == 1:
            merged = gathered[0]
            merge_seconds = 0.0
        else:
            started = time.perf_counter()
            merged = merge_partial(gathered, record.key, record.step,
                                   self.detail_schema)
            merge_seconds = time.perf_counter() - started
            if self.compute_model is not None:
                merge_seconds = self.compute_model.seconds(
                    sum(relation.num_rows for relation in gathered), 0)
        merge_seconds += hang_seconds
        phase.tree_level_seconds[level] = max(
            phase.tree_level_seconds.get(level, 0.0),
            ingress + merge_seconds)
        return [merged], (worst_compute + merge_seconds, comm), True

    def _account_sketch_bytes(self, phase: PhaseMetrics,
                              record: RoundRecord) -> None:
        """Record sketch uplink vs the exact-shipping counterfactual.

        ``sketch_state_bytes`` sums the sketch blobs in the sub-results
        that crossed the wire (a miss's sub-result, a delta merge's
        delta, nothing for a cache hit): bounded by groups x sketch
        size.  ``sketch_exact_bytes`` is what shipping the detail values
        (8 B each) behind them per sketched aggregate would cost: it
        grows with the fact table.
        """
        sketch_columns: list[str] = []
        for gmdj in record.step.gmdjs:
            for spec in gmdj.all_aggregates:
                for state in spec.state_fields(self.detail_schema):
                    if sketch_primitive(state.primitive) is not None:
                        sketch_columns.append(state.name)
        if not sketch_columns:
            return
        moved = [record.sites[site].relation for site in record.uplinks]
        moved += [delta for __, delta, __, __ in record.deltas]
        for sub_result in moved:
            present = set(sub_result.schema.names)
            for name in sketch_columns:
                if name in present:
                    phase.sketch_state_bytes += sum(
                        len(blob) for blob in sub_result.column(name))
        detail_rows = sum(work.detail_rows
                          for work in record.sites.values())
        phase.sketch_exact_bytes += (detail_rows * 8
                                     * len(sketch_columns))


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


def _critical_child(paths: "Sequence[tuple[float, float]]",
                    ) -> tuple[float, float]:
    """The (compute, comm) pair of the slowest child subtree."""
    return max(paths, key=sum, default=(0.0, 0.0))


def _downlink(sender: SiteId, receiver: SiteId, payload: Relation | None,
              round_index: int, note: str) -> Message:
    """One downlink hop: the structure, or a control message for none."""
    if payload is None:
        return control_message(sender, receiver, round_index, note)
    return relation_message(sender, receiver, "base_structure", payload,
                            round_index, note)


def _branch_payload(values: "list[Relation | None]",
                    key: Sequence[str]) -> Relation | None:
    """What one subtree's downlink hop carries.

    With no distribution-aware filtering every site ships the same
    structure object (or none), so the hop carries it as-is; with
    per-site filters the hop carries the *union* of the branch's
    filtered structures (an interior node must be able to serve every
    descendant), deduplicated on the key.
    """
    first = values[0]
    if all(value is first for value in values):
        return first
    return Relation.concat(values).distinct(list(key))
