"""The Skalla engine: Alg. GMDJDistribEval with plan execution.

:class:`SkallaEngine` owns the simulated cluster (the site fragments and
optional distribution knowledge) and executes distributed plans:

* **round 0** (unless elided by Proposition 2): the base query is shipped
  to the participating sites, each evaluates it on its fragment, and the
  coordinator synchronizes the sub-results into ``B_0``;
* **one round per plan step**: the coordinator ships the current
  base-result structure ``X`` to the sites (optionally filtered per site
  by distribution-aware group reduction), each site evaluates the step's
  GMDJ(s) and returns sub-aggregates (optionally filtered by
  distribution-independent group reduction), and the coordinator
  synchronizes them into ``X``.

Only the base-result structure and sub-aggregates ever travel — never
detail tuples — so Theorem 2's traffic bound holds by construction (and
is asserted in the test suite).

Both kinds of round run through one function (:meth:`SkallaEngine.
_run_round`): classify against the cache, descend the aggregation
tree with the round's downlink payload, fulfil the sites, ascend the
tree merging sub-results, synchronize at the root.  *Where* the
associative merge happens is **data** — a
:class:`~repro.distributed.hierarchy.TreeTopology` given at
construction.  The default is the paper's flat star (a depth-1 tree:
every site talks to the coordinator); a deeper tree makes interior
aggregator nodes merge their children's sub-aggregates (Theorem 1 is
associative, so partial synchronization at any depth is exact) and
forward one relation upward, so the root hears ``fanout`` messages per
round instead of ``n``.  With a :class:`~repro.topology.WanTopology`
attached every tree edge is costed by its own link; without one, by
the star ``link``.  An interior aggregator that dies or exceeds the
merge deadline is *re-parented* — its children's results travel to the
grandparent unmerged (flat scatter-gather at the root in the last
resort), so every sub-aggregate still reaches exactly one merge path.

Timing: site computations are measured (max across sites of a round,
since sites run in parallel); transfers are modeled per tree hop
(:class:`~repro.distributed.network.Hop`); coordinator work is
measured.  See DESIGN.md §5 for why this preserves the paper's shapes.

Site execution is delegated to a pluggable **transport**
(:mod:`repro.distributed.transport`): in-process (default), thread pool,
or one OS worker process per site exchanging serialized bytes.  The
transport owns retries/backoff/deadlines *and* round dispatch: parallel
backends scatter every round's site requests concurrently (bounded by
``max_inflight``), gather responses as they complete, and — with
hedging on — give stragglers past a median-derived deadline one
idempotent re-dispatch (first response wins; see
docs/PARALLELISM.md).  That holds at every tree depth: the topology
decides only the modeled descend/ascend and the interior merges, and a
round reaches its sites through one ``transport.run_round`` call
whatever the tree's shape.  The engine composes results
and records modeled *and* real cost side by side, including per-site
latency distributions, critical-path vs sum-of-sites time, skew ratios,
and hedge counters.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.errors import PartitionError, PlanError, SchemaError
from repro.relational.aggregates import sketch_primitive
from repro.relational.expressions import Expr, evaluate_predicate
from repro.relational.relation import Relation
from repro.cache import DELTA, HIT, MISS, SubAggregateCache
from repro.cache.manager import CacheDecision
from repro.core.expression_tree import GmdjExpression, RelationBase
from repro.distributed.coordinator import Coordinator, combine_states_by_key
from repro.distributed.faults import AggregatorFaultSpec
from repro.distributed.hierarchy import (
    AGGREGATOR, TreeNode, TreeTopology, tree_summary)
from repro.distributed.messages import (
    CONTROL_MESSAGE_BYTES, COORDINATOR, ENVELOPE_BYTES, Message, MessageLog,
    SiteId, control_message, relation_message)
from repro.distributed.metrics import PhaseMetrics, QueryMetrics
from repro.distributed.network import ComputeModel, Hop, LinkModel
from repro.distributed.partition import (
    DistributionInfo, ObservedPartitions)
from repro.distributed.plan import (
    DistributedPlan, LocalStep, NO_OPTIMIZATIONS, OptimizationFlags)
from repro.distributed.site import SkallaSite
from repro.distributed.transport import (
    DEFAULT_TRANSPORT, RetryPolicy, SiteRequest, SiteResponse, Transport,
    create_transport)
from repro.skew import SiteView, SkewPlanner, SkewPolicy, is_virtual

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.topology.model import WanTopology


@dataclass
class ExecutionResult:
    """What one distributed execution produced.

    ``states`` carries the final round's pre-finalize Theorem-1
    sub-aggregate relation (key columns + ``<alias>__<primitive>``
    state columns) when the coordinator captured one — the cube
    lattice rolls these up to coarser cuboids without another round.
    """

    relation: Relation
    metrics: QueryMetrics
    plan: DistributedPlan
    states: Relation | None = None


@dataclass
class _Round:
    """What the stages of one round share.

    Built per round per execution and handed down explicitly, so
    concurrent executions against one engine (a query service) never
    meet in shared state.
    """

    metrics: QueryMetrics
    phase: PhaseMetrics
    index: int
    key: tuple[str, ...]
    #: the plan step this round evaluates; ``None`` for the base round
    step: LocalStep | None
    #: rows of the shipped base-result structure (0 when the sites
    #: derive the base values locally)
    base_rows: int
    #: site → (sub-result, measured response bytes) of every site whose
    #: sub-result has to travel up the tree
    uplinks: "dict[SiteId, tuple[Relation, int | None]]" = field(
        default_factory=dict)
    #: root-bound messages that bypass the tree: cache delta
    #: maintenance is a coordinator-local conversation (the cache lives
    #: at the root) and keeps the star link
    direct: list[Message] = field(default_factory=list)

    @property
    def log(self) -> MessageLog:
        return self.metrics.log

    @property
    def uplink_kind(self) -> str:
        return "base_result" if self.step is None else "sub_aggregates"


class SkallaEngine:
    """A distributed data warehouse: sites + coordinator + network model.

    Parameters
    ----------
    partitions:
        Fragment of the fact relation per site id.  All fragments must
        share a schema.
    info:
        Optional distribution knowledge (φ_i constraints).  Required for
        distribution-aware group reduction and Corollary-1 style
        synchronization reduction; when ``verify_info`` is true it is
        checked against the fragments at construction.  Given one
        (empty included), :attr:`knowledge` adds the integer key columns
        the fragments show site-disjoint (``ObservedPartitions``);
        ``info`` itself is never written.  ``None``: no knowledge.
    link:
        Network cost-model parameters of the star link (and of every
        tree edge the ``wan`` does not cover).
    topology:
        The aggregation tree — where sub-results are merged on their
        way to the coordinator.  Defaults to the flat star,
        ``TreeTopology.flat(site_ids)``; must cover exactly the
        warehouse's sites.  The tree shapes only the modeled hops and
        the interior merges: every round still scatters and hedges per
        site through the transport, at any depth.
    wan:
        A :class:`~repro.topology.WanTopology` supplying per-edge link
        costs for the tree's hops.
    aggregator_faults:
        node_id → :class:`AggregatorFaultSpec` (tests/chaos only).
    aggregator_deadline:
        Seconds an interior merge may take before the parent gives up
        and re-parents the children (hang detection).
    """

    def __init__(self, partitions: Mapping[SiteId, Relation],
                 info: DistributionInfo | None = None,
                 link: LinkModel | None = None,
                 verify_info: bool = True,
                 max_retries: int = 2,
                 compute_model: ComputeModel | None = None,
                 transport: "str | Transport | None" = None,
                 retry_policy: RetryPolicy | None = None,
                 transport_options: Mapping[str, object] | None = None,
                 cache: "bool | SubAggregateCache" = False,
                 max_inflight: int | None = None,
                 hedge: "bool | object" = True,
                 skew: "bool | SkewPolicy | SkewPlanner" = False,
                 topology: TreeTopology | None = None,
                 wan: "WanTopology | None" = None,
                 aggregator_faults:
                 "Mapping[str, AggregatorFaultSpec] | None" = None,
                 aggregator_deadline: float = 1.0):
        if not partitions:
            raise PlanError("a warehouse needs at least one site")
        schemas = {fragment.schema for fragment in partitions.values()}
        if len(schemas) != 1:
            raise SchemaError("all site fragments must share one schema")
        self.sites = {site_id: SkallaSite(site_id, fragment)
                      for site_id, fragment in partitions.items()}
        #: live virtual-site registry (sub-fragments of split hot sites);
        #: transports see it layered over the physical sites via SiteView.
        self.virtual_sites: dict[SiteId, SkallaSite] = {}
        self._site_view = SiteView(self.sites, self.virtual_sites)
        self.detail_schema = next(iter(schemas))
        self.info = info
        self._observed = ObservedPartitions(self.sites)
        #: what this engine plans with: ``info`` plus the observed facts
        self.knowledge = (None if info is None
                          else replace(info, observed=self._observed))
        self.link = link or LinkModel()
        if max_retries < 0:
            raise PlanError("max_retries must be non-negative")
        self.max_retries = max_retries
        #: deterministic compute-time model (None = measure wall clock)
        self.compute_model = compute_model
        #: per-engine retry/backoff/deadline policy handed to the
        #: transport (``max_retries`` fills the budget when no explicit
        #: policy is given).  Per-engine state: two engines retrying
        #: concurrently never share a lock or a counter.
        self.retry_policy = retry_policy or RetryPolicy(
            max_retries=max_retries)
        self._transport_spec = (DEFAULT_TRANSPORT if transport is None
                                else transport)
        self._transport_options = dict(transport_options or {})
        #: bound on concurrently dispatched site calls per round
        #: (``None`` = backend default; 1 forces sequential dispatch).
        self.max_inflight = max_inflight
        #: straggler hedging: ``True`` (default policy), ``False``, or a
        #: :class:`~repro.distributed.transport.HedgePolicy`.
        self.hedge = hedge
        self._transport: Transport | None = None
        #: serializes lazy transport creation: concurrent first queries
        #: (a query service's workers) must share one backend, not each
        #: start a worker pool that nothing ever closes.
        self._transport_lock = threading.Lock()
        #: optional cross-query in-flight scan registry
        #: (:class:`~repro.service.shared_scan.InFlightScanRegistry`).
        #: When set — normally by a QueryService — concurrent executions
        #: whose rounds share a cache fingerprint at the same fragment
        #: version dispatch each site scan once.  Requires the
        #: sub-aggregate cache (the fingerprints are the cache's own).
        self.scan_registry = None
        #: monotone counter bumped by every :meth:`append` — the
        #: freshness stamp for materialized cuboids and other derived
        #: artifacts built from a point-in-time snapshot.
        self.data_version = 0
        #: optional sub-aggregate result cache (``None`` = disabled).
        self._cache: SubAggregateCache | None = None
        if isinstance(cache, SubAggregateCache):
            self._cache = cache
        elif cache:
            self.enable_cache()
        #: optional skew planner (``None`` = never split hot fragments).
        self._skew_planner: SkewPlanner | None = None
        if isinstance(skew, SkewPlanner):
            self._skew_planner = skew
        elif isinstance(skew, SkewPolicy):
            self._skew_planner = SkewPlanner(skew)
        elif skew:
            self._skew_planner = SkewPlanner()
        if info is not None and verify_info:
            info.verify(partitions)

        if topology is None:
            topology = TreeTopology.flat(self.site_ids)
        topology.validate_sites(self.site_ids)
        if wan is not None:
            unknown = set(self.site_ids) - set(wan.sites)
            if unknown:
                raise PlanError(
                    f"WAN topology lacks sites {sorted(unknown)}")
        self.topology = topology
        self.wan = wan
        self.aggregator_deadline = aggregator_deadline
        self._deep = topology.depth() > 1
        self._tree_shape = tree_summary(topology) if self._deep else ""
        self._faults: dict[str, AggregatorFaultSpec] = dict(
            aggregator_faults or {})
        self._merge_ordinals: dict[str, int] = {}
        self._fault_lock = threading.Lock()

    # -- sub-aggregate cache -----------------------------------------------------

    @property
    def cache(self) -> SubAggregateCache | None:
        """The sub-aggregate cache, or ``None`` when caching is off."""
        return self._cache

    @property
    def cache_enabled(self) -> bool:
        return self._cache is not None

    def enable_cache(self, budget_mb: float = 64.0,
                     delta_budget_mb: float = 16.0) -> SubAggregateCache:
        """Attach a sub-aggregate result cache (idempotent).

        ``budget_mb`` bounds the LRU store (SKRL-encoded bytes);
        ``delta_budget_mb`` bounds retained append-deltas per site.
        Fragment versions start counting from the moment of enabling.
        """
        if self._cache is None:
            if budget_mb <= 0:
                raise PlanError("cache budget must be positive")
            self._cache = SubAggregateCache(
                budget_bytes=int(budget_mb * 1024 * 1024),
                delta_budget_bytes=int(delta_budget_mb * 1024 * 1024))
        return self._cache

    # -- skew mitigation ---------------------------------------------------------

    @property
    def skew_planner(self) -> SkewPlanner | None:
        """The skew planner, or ``None`` when splitting is off."""
        return self._skew_planner

    @property
    def skew_enabled(self) -> bool:
        return self._skew_planner is not None

    # -- transport lifecycle -----------------------------------------------------

    @property
    def transport(self) -> Transport:
        """The active transport backend (created lazily on first use)."""
        if self._transport is None:
            with self._transport_lock:
                if self._transport is None:
                    self._transport = self._new_transport()
        return self._transport

    def _new_transport(self) -> Transport:
        spec = self._transport_spec
        if isinstance(spec, Transport):
            if spec.sites is self.sites:
                # adopt the engine's live view so virtual sub-sites
                # resolve (iteration still yields physical ids only)
                spec.sites = self._site_view
            return spec
        options = dict(self._transport_options)
        options.setdefault("max_inflight", self.max_inflight)
        options.setdefault("hedge", self.hedge)
        return create_transport(spec, self._site_view,
                                retry=self.retry_policy, **options)

    @property
    def transport_name(self) -> str:
        if self._transport is not None:
            return self._transport.name
        spec = self._transport_spec
        return spec.name if isinstance(spec, Transport) else str(spec)

    def use_transport(self, transport: "str | Transport",
                      **options) -> None:
        """Switch backends; closes the previous one if it was created."""
        self.close()
        self._transport_spec = transport
        self._transport_options = dict(options)

    def close(self) -> None:
        """Release transport resources (worker processes, pools)."""
        if self._transport is not None:
            self._transport.close()
            self._transport = None

    def __enter__(self) -> "SkallaEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- aggregator fault injection ----------------------------------------------

    def inject_aggregator_fault(self, node_id: str,
                                spec: AggregatorFaultSpec) -> None:
        self._faults[node_id] = spec

    def clear_aggregator_faults(self) -> None:
        self._faults.clear()
        self._merge_ordinals.clear()

    def _next_merge_ordinal(self, node_id: str) -> int:
        with self._fault_lock:
            ordinal = self._merge_ordinals.get(node_id, 0)
            self._merge_ordinals[node_id] = ordinal + 1
            return ordinal

    @property
    def site_ids(self) -> list[SiteId]:
        return sorted(self.sites)

    def fragment(self, site_id: SiteId) -> Relation:
        return self.sites[site_id].fragment

    def append(self, site_id: SiteId, rows: Relation) -> None:
        """Ingest new detail rows at one site (collection-point append).

        The rows must match the warehouse schema, and — when
        distribution knowledge is registered — the site's φ constraints,
        which would otherwise silently become unsound (Theorem 4 /
        Corollary 1 rewrites depend on them).  An observed partition
        attribute the rows break is withdrawn instead.
        """
        if site_id not in self.sites:
            raise PlanError(f"unknown site {site_id}")
        if rows.schema != self.detail_schema:
            raise SchemaError(
                "appended rows do not match the warehouse schema")
        if self.info is not None:
            for attr, constraint in self.info.constraints.get(
                    site_id, {}).items():
                mask = constraint.mask(rows.column(attr))
                if not bool(np.all(mask)):
                    bad = rows.column(attr)[~mask][:3]
                    raise PartitionError(
                        f"appended rows violate site {site_id}'s "
                        f"constraint on {attr!r}: {list(bad)}")
        site = self.sites[site_id]
        with self._observed.lock:
            self._observed.append(site_id, rows)
            site.fragment = site.fragment.union_all(rows)
        # Monotone warehouse-wide version: materialized cuboids stamp
        # the version they were built at and go stale when it moves.
        self.data_version += 1
        # Bump the site's fragment version and retain the delta so
        # cached sub-results can be upgraded instead of recomputed.
        if self._cache is not None:
            self._cache.on_append(site_id, rows)
        # An installed skew split was computed from the pre-append
        # fragment: drop it (and its virtual sub-sites) so the next
        # round re-splits from the current rows.
        stale_virtual: list[SiteId] = []
        if self._skew_planner is not None:
            stale_virtual = self._skew_planner.invalidate(site_id)
            for virtual_id in stale_virtual:
                self.virtual_sites.pop(virtual_id, None)
        # Backends that snapshot fragments (worker processes) must
        # refresh — but only the appended site's workers, not the pool.
        if self._transport is not None:
            self._transport.invalidate([site_id, *stale_virtual])

    def total_detail_relation(self,
                              sites: Sequence[SiteId] | None = None) -> Relation:
        """The conceptual (union) fact relation over ``sites``.

        Used by tests to compare against centralized evaluation — a real
        deployment never materializes this.
        """
        chosen = self.site_ids if sites is None else list(sites)
        return Relation.concat([self.sites[s].fragment for s in chosen])

    # -- execution --------------------------------------------------------------

    def execute(self, expression: GmdjExpression,
                flags: OptimizationFlags = NO_OPTIMIZATIONS,
                sites: Sequence[SiteId] | None = None,
                plan: DistributedPlan | None = None) -> ExecutionResult:
        """Plan (unless given) and run ``expression`` over the warehouse."""
        if plan is None:
            # Imported here: the optimizer builds plans *for* this engine,
            # and importing it at module scope would be circular.
            from repro.optimizer.planner import build_plan
            plan = build_plan(expression, flags, self.knowledge,
                              self.detail_schema,
                              sites=sites or self.site_ids)
        return self.execute_plan(plan, sites=sites)

    def execute_plan(self, plan: DistributedPlan,
                     sites: Sequence[SiteId] | None = None,
                     step_sites: Mapping[int, Sequence[SiteId]] | None
                     = None) -> ExecutionResult:
        """Run a prepared plan over the participating ``sites``.

        ``step_sites`` optionally restricts individual steps to a
        subset of the participating sites (the paper's footnote 2:
        ``S_MDk`` may be a strict subset of ``S_B``) — e.g. when a
        round's detail data is known to live on a few sites only.
        Restricting a step changes which fragments that round
        aggregates over, which is the caller's intent to assert.

        A plan built on an observed partition attribute that an append
        has since withdrawn (``plan.epoch`` behind) is re-planned first,
        and re-run when the withdrawal lands while it runs.
        """
        participating = self.site_ids if sites is None else sorted(sites)
        for site_id in participating:
            if site_id not in self.sites:
                raise PlanError(f"unknown site {site_id}")
        if plan.epoch not in (None, self._observed.epoch):
            from repro.optimizer.planner import build_plan
            plan = build_plan(plan.expression, plan.flags, self.knowledge,
                              self.detail_schema, sites=participating)
        step_sites = dict(step_sites or {})
        for step_index, chosen in step_sites.items():
            extra = set(chosen) - set(participating)
            if extra:
                raise PlanError(
                    f"step {step_index} site set {sorted(extra)} is not a "
                    f"subset of the participating sites")
        expression = plan.expression
        expression.validate(self.detail_schema)

        metrics = QueryMetrics(num_participating_sites=len(participating),
                               transport=self.transport_name,
                               cache_enabled=self._cache is not None,
                               topology="tree" if self._deep else "flat",
                               tree_shape=self._tree_shape)
        coordinator = Coordinator(expression, self.detail_schema)
        coordinator.union_on = plan.union_on

        # ---- round 0: the base-values relation --------------------------------
        if isinstance(expression.base, RelationBase):
            coordinator.set_base(expression.base.relation)
        elif not plan.steps[0].include_base:
            self._run_round(
                metrics, coordinator, "base round", None,
                [SiteRequest(site_id=sid, kind="base",
                             base_query=expression.base)
                 for sid in participating])

        # ---- one round per plan step -----------------------------------------------
        for step_index, step in enumerate(plan.steps):
            step_participants = sorted(
                step_sites.get(step_index, participating))
            if step.include_base:
                shipped = dict.fromkeys(step_participants)
                ship_attrs = expression.base_schema(self.detail_schema).names
            else:
                current = coordinator.final_result()
                filters = plan.site_filters.get(step_index, {})
                shipped = {site_id: self._filter_for_site(
                    current, filters.get(site_id))
                    for site_id in step_participants}
                ship_attrs = expression.key
            requests = [SiteRequest(
                site_id=sid, kind="step", step=step,
                base_relation=shipped[sid],
                ship_attrs=tuple(ship_attrs),
                base_query=expression.base,
                independent_reduction=plan.flags.group_reduction_independent)
                for sid in step_participants]
            self._run_round(metrics, coordinator, f"step {step_index + 1}",
                            step, requests)

        if self._cache is not None:
            self._cache.prune_deltas()
        result = coordinator.final_result()
        if plan.epoch not in (None, self._observed.epoch):
            return self.execute_plan(plan, sites=sites, step_sites=step_sites)
        return ExecutionResult(result, metrics, plan,
                               states=coordinator.state_relation)

    def _run_round(self, metrics: QueryMetrics, coordinator: Coordinator,
                   name: str, step: LocalStep | None,
                   requests: Sequence[SiteRequest]) -> None:
        """One round of Alg. GMDJDistribEval — base round or plan step.

        ``step`` is ``None`` for the base round.  Stages: classify
        against the cache → descend the tree with the downlink payload
        → fulfil (cache, shared scans, transport) → ascend the tree
        merging sub-results → synchronize at the root.
        """
        phase = PhaseMetrics(name)
        base_rows = (0 if step is None or step.include_base
                     else coordinator.final_result().num_rows)
        # one phase per round, so the phase count is the round index
        rnd = _Round(metrics, phase, len(metrics.phases), coordinator.key,
                     step, base_rows)
        # What each site is sent: its base-result structure, or None
        # when a control message suffices (base round, and steps whose
        # sites derive the base values locally).
        shipped = {request.site_id: request.base_relation
                   for request in requests}
        decisions = self._classify(requests)
        dispatch = set()
        for site_id, structure in shipped.items():
            if self._needs_dispatch(decisions, site_id):
                dispatch.add(site_id)
            else:
                # a hit/delta round needs no downlink: the site's cached
                # round already holds this exact structure (the
                # fingerprint includes its content)
                saved = (CONTROL_MESSAGE_BYTES if structure is None
                         else structure.wire_bytes())
                phase.cache_bytes_saved += saved + ENVELOPE_BYTES
        if dispatch:
            if step is None:
                note = "ship base query"
            elif step.include_base:
                note = "ship plan step (local base)"
            else:
                note = "base-result structure"
            phase.communication_seconds += self._descend(
                self.topology.root, shipped, dispatch, note, rnd)

        responses = self._fulfill_round(rnd, requests, decisions)
        if step is not None:
            self._account_sketch_bytes(
                phase, step, list(shipped),
                [responses[site_id].relation for site_id in shipped])
        phase.site_seconds = max((responses[site_id].compute_seconds
                                  for site_id in shipped), default=0.0)

        # Sites answered at the root (cache hit, delta merge, shared
        # scan) send nothing up the tree; their sub-results join the
        # root's merge directly.
        local = {site_id: responses[site_id].relation
                 for site_id in shipped if site_id not in rnd.uplinks}
        inputs, merge_seconds, comm_seconds = [], 0.0, 0.0
        if rnd.uplinks or rnd.direct:
            inputs, (merge_seconds, comm_seconds), __ = self._ascend(
                self.topology.root, 0, rnd, local)
            phase.flat_ingress_bytes += sum(
                relation.wire_bytes() + ENVELOPE_BYTES
                for relation, __ in rnd.uplinks.values())
        inputs += local.values()
        phase.communication_seconds += comm_seconds
        phase.coordinator_seconds += merge_seconds
        if step is None:
            __, coordinator_seconds = coordinator.synchronize_base(inputs)
        else:
            __, coordinator_seconds = coordinator.synchronize_step(
                step, inputs)
        if self.compute_model is not None:
            coordinator_seconds = self.compute_model.seconds(
                sum(relation.num_rows for relation in inputs), 0)
        phase.coordinator_seconds += coordinator_seconds
        metrics.phases.append(phase)
        metrics.num_synchronizations += 1

    def _merge_partial(self, rnd: _Round,
                       relations: "list[Relation]") -> Relation:
        """Theorem 1, partially: merge some of a round's sub-results.

        What an interior aggregator does with its children's payloads
        and a split hot site with its virtual sub-sites': base
        sub-results concat + distinct; step sub-results merge state
        columns by key.
        """
        if rnd.step is None:
            return Relation.concat(relations).distinct()
        return combine_states_by_key(relations, rnd.key, rnd.step.gmdjs,
                                     self.detail_schema)

    # -- the two tree walks ---------------------------------------------------------
    #
    # Cost model: each tree edge is its own link — a WanTopology edge
    # when one is attached, else the star ``link``.  A node's fan-in
    # (and fan-out) is one :class:`Hop`; subtrees proceed in parallel,
    # so a walk pays the critical path.  An aggregator's colocated site
    # hands its payload over locally (no hop, no message).

    def _edge_link(self, child_point: SiteId | None,
                   parent_host: SiteId | None) -> LinkModel:
        """The link costing one tree edge (WAN edge, or the star link)."""
        if self.wan is None or child_point is None:
            return self.link
        target = COORDINATOR if parent_host is None else parent_host
        link = self.wan.link(child_point, target)
        return link if link is not None else self.link

    def _descend(self, node: TreeNode,
                 shipped: "Mapping[SiteId, Relation | None]",
                 dispatch: "set[SiteId]", note: str, rnd: _Round) -> float:
        """Ship the round's downlink payload down one subtree.

        A site whose ``shipped`` entry is ``None`` gets a control
        message, otherwise its base-result structure.  Returns the
        critical-path transfer seconds.
        """
        sender = COORDINATOR if node is self.topology.root else AGGREGATOR
        hop = Hop(rnd.log)
        for site in node.site_children:
            if site not in dispatch or site == node.host:
                continue  # cache-served, or the aggregator's own site
            hop.send(self._edge_link(site, node.host),
                     _downlink(sender, site, shipped[site], rnd.index, note))
        child_seconds: list[float] = []
        for child in node.node_children:
            branch = [site for site in child.descendant_sites()
                      if site in dispatch]
            if not branch:
                continue
            payload = _branch_payload([shipped[site] for site in branch],
                                      rnd.key)
            hop.send(self._edge_link(child.host, node.host),
                     _downlink(sender, AGGREGATOR, payload, rnd.index,
                               f"{note} -> {child.node_id}"))
            child_seconds.append(
                self._descend(child, shipped, dispatch, note, rnd))
        return hop.seconds() + max(child_seconds, default=0.0)

    def _ascend(self, node: TreeNode, level: int, rnd: _Round,
                local: "dict[SiteId, Relation]",
                ) -> "tuple[list[Relation], tuple[float, float], bool]":
        """Walk one subtree bottom-up, merging at interior nodes.

        Returns ``(relations, (merge compute, comm) critical path,
        merged)`` where ``relations`` is what this subtree forwards to
        its parent — one merged relation normally, the unmerged child
        relations when this node failed (``merged=False``; the parent
        is the re-parenting grandparent).  The root (level 0) forwards
        its gathered inputs unmerged: synchronization is the
        coordinator's job.  ``local`` holds the sub-results that are
        already at the root; the root's own site children are taken
        from it in tree order, so a flat round synchronizes its inputs
        in site order whatever the cache served.
        """
        receiver = COORDINATOR if level == 0 else AGGREGATOR
        phase = rnd.phase
        gathered: list[Relation] = []
        child_paths: list[tuple[float, float]] = []
        hop = Hop(rnd.log)
        for site in node.site_children:
            entry = rnd.uplinks.get(site)
            if entry is None:
                if level == 0 and site in local:
                    gathered.append(local.pop(site))
                continue
            relation, real_bytes = entry
            gathered.append(relation)
            if site != node.host:
                # (the aggregator's own sub-aggregate is already local)
                hop.send(self._edge_link(site, node.host), relation_message(
                    site, receiver, rnd.uplink_kind, relation, rnd.index,
                    f"site {site} -> {node.node_id}",
                    real_bytes=real_bytes))
        for child in node.node_children:
            relations, path, child_merged = self._ascend(
                child, level + 1, rnd, local)
            child_paths.append(path)
            link = self._edge_link(child.host, node.host)
            for relation in relations:
                hop.send(link, relation_message(
                    AGGREGATOR, receiver, rnd.uplink_kind, relation,
                    rnd.index, f"{child.node_id} -> {node.node_id}"))
                gathered.append(relation)
            if relations and not child_merged and level == 0:
                # the failed aggregator sat directly under the root:
                # its branch arrives flat, scatter-gather style
                phase.flat_fallbacks += 1
        worst_compute, worst_comm = _critical_child(child_paths)
        if level == 0:
            for message in rnd.direct:
                hop.carry(self.link, message)
        ingress = hop.seconds()
        comm = worst_comm + ingress
        if level == 0:
            phase.root_ingress_bytes += hop.total_bytes
            if hop.bytes_by_link:
                phase.tree_level_seconds[0] = max(
                    phase.tree_level_seconds.get(0, 0.0), ingress)
                phase.tree_level_node_seconds.setdefault(0, []).append(
                    ingress)
            return gathered, (worst_compute, comm), True
        if not gathered:
            return [], (worst_compute, comm), True
        # -- interior merge (with deterministic fault injection) -----------
        spec = self._faults.get(node.node_id)
        hang_seconds = 0.0
        if spec is not None:
            ordinal = self._next_merge_ordinal(node.node_id)
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
            merged = self._merge_partial(rnd, gathered)
            merge_seconds = time.perf_counter() - started
            if self.compute_model is not None:
                merge_seconds = self.compute_model.seconds(
                    sum(relation.num_rows for relation in gathered), 0)
        merge_seconds += hang_seconds
        phase.tree_level_seconds[level] = max(
            phase.tree_level_seconds.get(level, 0.0),
            ingress + merge_seconds)
        # every node's time at this level feeds the per-level skew ratio
        phase.tree_level_node_seconds.setdefault(level, []).append(
            ingress + merge_seconds)
        return [merged], (worst_compute + merge_seconds, comm), True

    # -- sketch traffic accounting ------------------------------------------------

    def _account_sketch_bytes(self, phase: PhaseMetrics, step,
                              step_participants: Sequence[SiteId],
                              sub_results: Sequence[Relation]) -> None:
        """Record sketch uplink vs the exact-shipping counterfactual.

        ``sketch_state_bytes`` sums the serialized sketch blobs in the
        round's sub-results — the coordinator-side state the sites ship
        (bounded by groups x sketch size, *independent of fragment
        rows*).  ``sketch_exact_bytes`` is what exact evaluation of the
        same holistic aggregates would have cost on the uplink: every
        participating site shipping its raw detail values (8 B each) per
        sketched aggregate, which grows linearly with the fact table.
        """
        sketch_columns: list[str] = []
        for gmdj in step.gmdjs:
            for spec in gmdj.all_aggregates:
                for state in spec.state_fields(self.detail_schema):
                    if sketch_primitive(state.primitive) is not None:
                        sketch_columns.append(state.name)
        if not sketch_columns:
            return
        for sub_result in sub_results:
            present = set(sub_result.schema.names)
            for name in sketch_columns:
                if name in present:
                    phase.sketch_state_bytes += sum(
                        len(blob) for blob in sub_result.column(name))
        fragment_rows = sum(self.sites[site_id].fragment.num_rows
                            for site_id in step_participants)
        phase.sketch_exact_bytes += (fragment_rows * 8
                                     * len(sketch_columns))

    # -- cache-aware round fulfilment -------------------------------------------

    def _classify(self, requests: Sequence[SiteRequest],
                  ) -> "dict[SiteId, CacheDecision] | None":
        """Consult the sub-aggregate cache for one round of requests."""
        if self._cache is None:
            return None
        return {request.site_id: self._cache.decide(request)
                for request in requests}

    @staticmethod
    def _needs_dispatch(decisions: "dict[SiteId, CacheDecision] | None",
                        site_id: SiteId) -> bool:
        """Whether the round must actually reach the site's executor."""
        return decisions is None or decisions[site_id].outcome == MISS

    def _fulfill_round(self, rnd: _Round,
                       requests: Sequence[SiteRequest],
                       decisions: "dict[SiteId, CacheDecision] | None",
                       ) -> dict[SiteId, SiteResponse]:
        """Serve one round through the cache, then the transport.

        Misses go to the transport (scattered concurrently, gathered as
        they complete), populate the cache afterwards and queue their
        sub-result in ``rnd.uplinks`` for the tree ascent; hits are
        answered from the store with no site scan and no transfer;
        delta-mergeable stale entries are upgraded by evaluating the
        round over only the retained delta rows — only the delta
        sub-aggregate travels (``delta_<kind>`` messages, straight to
        the root).

        Cache freshness is enforced **at gather time**, not dispatch
        time: hit/miss classification happened before the scatter, and
        an :meth:`append` may land while the round is in flight.  Each
        HIT is therefore re-validated against the site's *current*
        fragment version before it is served (a stale hit is demoted and
        re-decided), and :meth:`SubAggregateCache.populate` itself
        refuses to store a response whose site version moved during the
        flight — a freshly computed relation of unknowable snapshot must
        never be cached under the old version, or a later delta merge
        would double-apply the append.

        With a :attr:`scan_registry` installed, misses additionally go
        through cross-query scatter sharing: each miss claims its
        ``(fingerprint, site, version)`` in the registry, and only claim
        **leaders** reach the transport — **followers** consume the
        concurrent leader's response.  Leaders publish before any
        follower wait, so the cross-engine wait graph is acyclic.
        Followers apply the same gather-time freshness rule as HITs: a
        shared response whose fragment version moved is discarded and
        the request re-decided.
        """
        phase = rnd.phase
        misses = [request for request in requests
                  if self._needs_dispatch(decisions, request.site_id)]
        registry = self.scan_registry if decisions is not None else None
        outputs: dict[SiteId, SiteResponse] = {}
        follower_tickets: dict[SiteId, object] = {}
        if registry is not None and misses:
            leaders = []
            leader_tickets = {}
            for request in misses:
                decision = decisions[request.site_id]
                ticket = registry.claim(decision.fingerprint,
                                        request.site_id,
                                        decision.current_version)
                if ticket.leader:
                    leaders.append(request)
                    leader_tickets[request.site_id] = ticket
                else:
                    follower_tickets[request.site_id] = ticket
            if leaders:
                try:
                    outputs = self._run_on_sites(rnd, leaders)
                except BaseException as error:
                    # followers must not inherit an error this engine's
                    # retry budget already failed to absorb — they fall
                    # back to their own dispatch.
                    for request in leaders:
                        leader_tickets[request.site_id].fail(error)
                    raise
                for request in leaders:
                    leader_tickets[request.site_id].publish(
                        outputs[request.site_id])
            phase.site_scans += len(leaders)
        elif misses:
            outputs = self._run_on_sites(rnd, misses)
            phase.site_scans += len(misses)
        responses: dict[SiteId, SiteResponse] = {}
        for request in requests:
            site_id = request.site_id
            decision = decisions[site_id] if decisions is not None else None
            ticket = follower_tickets.get(site_id)
            if ticket is not None:
                response = self._consume_shared(ticket, request, phase)
                if response is not None:
                    responses[site_id] = response
                    continue
                # stale or failed share: decide afresh (the leader may
                # have populated the cache meanwhile) and serve normally
                # — a MISS re-decision dispatches late in _serve_one.
                decision = self._cache.decide(request)
            responses[site_id] = self._serve_one(rnd, request, decision,
                                                 outputs)
        return responses

    def _consume_shared(self, ticket, request: SiteRequest,
                        phase: PhaseMetrics) -> SiteResponse | None:
        """Consume a concurrent query's in-flight scan for one site.

        Returns ``None`` when the shared result is unusable — leader
        failure, wait timeout, or a fragment version that moved while
        the scan was in flight (the multi-query analogue of a demoted
        HIT) — in which case the caller re-decides and dispatches.
        """
        from repro.service.shared_scan import SharedScanError
        registry = self.scan_registry
        try:
            response = ticket.wait()
        except SharedScanError:
            registry.note_fallback()
            return None
        if self._cache.version(request.site_id) != ticket.version:
            registry.note_stale_discard()
            self._cache.note_shared_stale()
            phase.shared_scan_stale += 1
            return None
        registry.note_shared_hit()
        phase.shared_scan_hits += 1
        # The follower's sub-result reuses the leader's dispatch: no
        # fragment scan and no extra uplink transfer for this query.
        phase.cache_bytes_saved += (response.relation.wire_bytes()
                                    + ENVELOPE_BYTES)
        return response

    def _serve_one(self, rnd: _Round, request: SiteRequest,
                   decision: "CacheDecision | None",
                   outputs: dict[SiteId, SiteResponse]) -> SiteResponse:
        """Fulfill one site's round from the gathered outputs or cache."""
        phase = rnd.phase
        site_id = request.site_id
        # Gather-time version check: a HIT classified before the
        # scatter may have been invalidated by an append that landed
        # while the round was in flight.  Re-decide until the decision
        # is current (versions only grow, so this converges).
        while (decision is not None and decision.outcome == HIT
               and not self._cache.revalidate(decision)):
            decision = self._cache.decide(request)
        if decision is None or decision.outcome == MISS:
            response = outputs.get(site_id)
            if response is None:
                # demoted at gather time: the pre-scatter dispatch did
                # not cover this site, so ask the transport now
                late = self._run_on_sites(rnd, [request])
                phase.site_scans += 1
                response = late[site_id]
            if decision is not None:
                phase.cache_misses += 1
                self._cache.populate(decision, response.relation)
            rnd.uplinks[site_id] = (response.relation,
                                    response.response_bytes or None)
            return response
        if decision.outcome == HIT:
            relation = self._cache.fulfill_hit(decision)
            response = SiteResponse(site_id=site_id, relation=relation,
                                    compute_seconds=0.0)
            phase.cache_hits += 1
            phase.cache_bytes_saved += (relation.wire_bytes()
                                        + ENVELOPE_BYTES)
            return response
        # DELTA: incremental maintenance (Theorem 1 over the
        # {old fragment, appended delta} partition).  The delta is a
        # snapshot taken at decision time, so a concurrent append
        # cannot tear it — the upgraded entry simply sits one (or more)
        # versions behind and the next lookup continues the chain.
        assert decision.outcome == DELTA
        merged, delta_result, delta_seconds, merge_seconds = \
            self._cache.apply_delta(decision, rnd.key, self.detail_schema)
        if self.compute_model is not None:
            delta_seconds = self.compute_model.seconds(
                decision.delta.num_rows, rnd.base_rows)
            # the coordinator-side merge is costed like every other
            # merge, from the rows it merges
            merge_seconds = self.compute_model.seconds(
                decision.entry_relation.num_rows + delta_result.num_rows, 0)
        response = SiteResponse(site_id=site_id, relation=merged,
                                compute_seconds=delta_seconds)
        phase.cache_delta_merges += 1
        phase.coordinator_seconds += merge_seconds
        message = relation_message(
            site_id, COORDINATOR, f"delta_{rnd.uplink_kind}", delta_result,
            rnd.index, f"site {site_id} delta (incremental maintenance)")
        rnd.log.record(message)
        rnd.direct.append(message)
        phase.cache_bytes_saved += max(
            0, merged.wire_bytes() - delta_result.wire_bytes())
        return response

    def _run_on_sites(self, rnd: _Round,
                      requests: Sequence[SiteRequest],
                      ) -> dict[SiteId, SiteResponse]:
        """Execute one round of site requests through the transport.

        The transport owns parallelism and robustness (retries with
        backoff + jitter, per-call deadlines, worker respawn); this
        method aggregates its outcome into the metrics: retry counts,
        worker respawns, and the round's *real* wall-clock / wire bytes
        next to the modeled numbers.  When a :class:`ComputeModel` is
        attached, each site's reported compute seconds are replaced by
        the model's prediction.

        With a skew planner attached, hot sites' requests are expanded
        into virtual sub-site requests *here* — below the cache and the
        scan registry, so fingerprints, stored entries, and shared
        responses only ever see merged per-physical-site relations —
        and the sub-responses are merged back (Theorem 1) before the
        round's outputs reach synchronization.

        Retry accounting is aggregated here, on the engine's thread,
        after the round completes — no cross-engine lock involved.
        """
        metrics, phase = rnd.metrics, rnd.phase
        requests, expansion = self._expand_skewed(rnd, requests)
        transport = self.transport
        outputs = transport.run_round(requests)
        stats = transport.last_round_stats
        for response in outputs.values():
            metrics.retries += response.retries
            metrics.worker_respawns += response.respawns
            phase.real_bytes += (response.request_bytes
                                 + response.response_bytes)
        phase.site_wall_seconds.update(stats.site_wall)
        if not phase.dispatch:
            phase.dispatch = stats.dispatch
        phase.hedges_issued += stats.hedges_issued
        phase.hedges_won += stats.hedges_won
        phase.hedges_wasted += stats.hedges_wasted
        phase.real_seconds += stats.round_wall_seconds
        if self.compute_model is not None:
            # Virtual responses are costed from their *sub-fragment*
            # rows — the modeled win of splitting a hot fragment.
            for site_id, response in outputs.items():
                response.compute_seconds = self.compute_model.seconds(
                    self._site_for(site_id).fragment.num_rows,
                    rnd.base_rows)
        if self._skew_planner is not None:
            for site_id, response in outputs.items():
                self._skew_planner.observe(
                    site_id, response.compute_seconds,
                    self._site_for(site_id).fragment.num_rows)
        if expansion:
            outputs = self._merge_virtual(rnd, outputs, expansion)
        return outputs

    # -- skew mitigation internals ------------------------------------------------

    def _site_for(self, site_id: SiteId) -> SkallaSite:
        """Virtual-aware site lookup (virtual registry first)."""
        virtual = self.virtual_sites.get(site_id)
        return virtual if virtual is not None else self.sites[site_id]

    def _expand_skewed(self, rnd: _Round,
                       requests: Sequence[SiteRequest],
                       ) -> "tuple[list[SiteRequest], dict[SiteId, list[SiteId]]]":
        """Fan hot sites' requests out across virtual sub-sites.

        Returns the (possibly expanded) request list and the parent →
        virtual-id expansion map.  A request is eligible only when

        * its site is a plain physical site (sentinels and virtual ids
          never split), and
        * it is a base round or a **single**-GMDJ step — Theorem-5
          fused steps finalize aggregates locally *between* GMDJs, so
          row-splitting a fragment would feed later GMDJs partial
          values (same carve-out as the cache's delta path).

        Splitting stays behind the planner's threshold decision: with a
        balanced cluster nothing expands and the round is untouched.
        """
        planner = self._skew_planner
        if planner is None or len(requests) < 2:
            return list(requests), {}
        candidates: dict[SiteId, int] = {}
        for request in requests:
            site_id = request.site_id
            if site_id < 0 or is_virtual(site_id):
                continue
            if (request.kind == "step" and request.step is not None
                    and len(request.step.gmdjs) > 1):
                continue
            site = self.sites.get(site_id)
            if site is not None:
                candidates[site_id] = site.fragment.num_rows
        decisions = planner.plan_round(candidates)
        phase = rnd.phase
        expanded: list[SiteRequest] = []
        expansion: dict[SiteId, list[SiteId]] = {}
        for request in requests:
            site_id = request.site_id
            parts = decisions.get(site_id)
            split = None
            if site_id in candidates:
                # an installed split outlives its triggering round (so
                # step rounds reuse round 0's layout and process workers
                # stay warm) as long as the fragment is unchanged
                split = planner.current_split(site_id)
                if (split is not None and split.fragment
                        is not self.sites[site_id].fragment):
                    split = None
            if parts is None and split is None:
                expanded.append(request)
                continue
            split = planner.split_for(site_id, self.sites[site_id],
                                      rnd.key, parts or 2)
            self.virtual_sites.update(split.sites)
            expansion[site_id] = list(split.sites)
            expanded.extend(replace(request, site_id=virtual_id)
                            for virtual_id in split.sites)
            phase.skew_splits += 1
            phase.virtual_sites += split.parts
            phase.heavy_hitter_keys += split.heavy_keys
        return expanded, expansion

    def _merge_virtual(self, rnd: _Round,
                       outputs: dict[SiteId, SiteResponse],
                       expansion: "dict[SiteId, list[SiteId]]",
                       ) -> dict[SiteId, SiteResponse]:
        """Merge virtual sub-responses back into per-parent responses.

        Exactly an interior aggregator's merge (:meth:`_merge_partial`).
        Every layer above this — cache population, uplink accounting,
        synchronization, tree ascent — sees one response per physical
        site, as always.
        """
        expanded_ids = {virtual_id for virtual_ids in expansion.values()
                        for virtual_id in virtual_ids}
        merged: dict[SiteId, SiteResponse] = {
            site_id: response for site_id, response in outputs.items()
            if site_id not in expanded_ids}
        for parent, virtual_ids in expansion.items():
            parts = [outputs[virtual_id] for virtual_id in virtual_ids]
            relation = self._merge_partial(
                rnd, [part.relation for part in parts])
            part_bytes = [part.relation.wire_bytes() for part in parts]
            rnd.phase.rebalanced_bytes += sum(part_bytes) - max(part_bytes)
            merged[parent] = SiteResponse(
                site_id=parent, relation=relation,
                compute_seconds=max(p.compute_seconds for p in parts),
                wall_seconds=max(p.wall_seconds for p in parts),
                request_bytes=sum(p.request_bytes for p in parts),
                response_bytes=sum(p.response_bytes for p in parts),
                retries=sum(p.retries for p in parts),
                respawns=sum(p.respawns for p in parts))
        return merged

    @staticmethod
    def _filter_for_site(structure: Relation,
                         site_filter: Expr | None) -> Relation:
        """Apply a distribution-aware group filter (¬ψ_i) before shipping."""
        if site_filter is None:
            return structure
        mask = evaluate_predicate(
            site_filter, {"base": structure.columns(), "detail": None},
            structure.num_rows)
        return structure.filter(mask)


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
