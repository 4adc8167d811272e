"""The Skalla engine: Alg. GMDJDistribEval with plan execution.

:class:`SkallaEngine` owns the simulated cluster (the site fragments and
the distribution knowledge it plans with) and executes distributed plans:

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
_run_round`): classify against the cache, fulfil the sites (cache, a
concurrent query's pending scan, transport), synchronize.  The engine
always executes the paper's flat star, one ``transport.run_round`` per
round.  Each round is recorded in the
:class:`~repro.distributed.pricing.RoundLog` kept on
:class:`ExecutionResult`; the modeled costs are a function of that log
(:func:`~repro.distributed.pricing.price`), which prices it over the
star here and over any aggregation tree for Sect. 6's multi-tiered
coordinator.  Wall-clock never depends on a tree.

Site execution is delegated to a pluggable **transport**
(:mod:`repro.distributed.transport`: in-process, thread pool, or one
worker process per site), which owns retries, deadlines, concurrent
scatter (bounded by ``max_inflight``) and straggler hedging (see
docs/PARALLELISM.md).  The engine records real cost next to the
modeled one: per-site latencies, critical path, skew and hedge
counters.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

from repro.errors import PlanError, SchemaError
from repro.relational.expressions import Expr, evaluate_predicate
from repro.relational.relation import Relation
from repro.cache import DELTA, HIT, MISS, SubAggregateCache
from repro.cache.manager import CacheDecision
from repro.core.expression_tree import GmdjExpression, RelationBase
from repro.distributed.coordinator import Coordinator, merge_partial
from repro.distributed.hierarchy import TreeTopology
from repro.distributed.messages import (
    CONTROL_MESSAGE_BYTES, ENVELOPE_BYTES, SiteId)
from repro.distributed.metrics import PhaseMetrics, QueryMetrics
from repro.distributed.network import ComputeModel, LinkModel
from repro.distributed.partition import DistributionInfo
from repro.distributed.plan import (
    DistributedPlan, LocalStep, NO_OPTIMIZATIONS, OptimizationFlags)
from repro.distributed.pricing import RoundLog, RoundRecord, SiteWork, price
from repro.distributed.site import SkallaSite
from repro.distributed.transport import (
    DEFAULT_TRANSPORT, RetryPolicy, SiteRequest, SiteResponse, Transport,
    create_transport)
from repro.skew import SiteView, SkewPlanner, SkewPolicy, is_virtual


@dataclass
class ExecutionResult:
    """What one distributed execution produced.

    ``states`` carries the final round's pre-finalize Theorem-1
    sub-aggregate relation (key columns + ``<alias>__<primitive>``
    state columns) when the coordinator captured one — the cube
    lattice rolls these up to coarser cuboids without another round.
    ``log`` is the round log ``metrics`` is the flat-star price of.
    """

    relation: Relation
    metrics: QueryMetrics
    plan: DistributedPlan
    states: Relation | None = None
    log: RoundLog | None = None


class SkallaEngine:
    """A distributed data warehouse: sites + coordinator + network model.

    Parameters
    ----------
    partitions:
        Fragment of the fact relation per site id.  All fragments must
        share a schema.
    info:
        Declared distribution knowledge (φ_i constraints), checked
        against the fragments when ``verify_info`` is true; ``None``
        is ``DistributionInfo()``.  The engine plans with
        :attr:`knowledge`, its own copy, which adds the partition
        attributes the fragments show; ``info`` is never written.
    link:
        Network cost-model parameters of the star link.
    compute_model:
        Modeled compute seconds for the flat-star price and the skew
        planner's latency history, instead of measured ones.
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
                 skew: "bool | SkewPolicy | SkewPlanner" = False):
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
        #: what this engine plans with: ``info`` plus the observed facts
        self.knowledge = DistributionInfo(
            (info or DistributionInfo()).constraints, self.sites)
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
        #: monotone counter bumped by every :meth:`append` — the
        #: freshness stamp for statistics built from a point-in-time
        #: snapshot.
        self.data_version = 0
        #: optional sub-aggregate result cache (``None`` = disabled).
        #: With it on, concurrent executions whose rounds miss on one
        #: fingerprint at one fragment version share one site scan.
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
        if verify_info:
            self.knowledge.verify(partitions)

        #: the flat star every run executes over and is priced on
        self._star = TreeTopology.flat(self.site_ids)

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

    @property
    def site_ids(self) -> list[SiteId]:
        return sorted(self.sites)

    def fragment(self, site_id: SiteId) -> Relation:
        return self.sites[site_id].fragment

    def append(self, site_id: SiteId, rows: Relation) -> None:
        """Ingest new detail rows at one site (collection-point append).

        The rows must match the warehouse schema and the site's declared
        φ constraints, which would otherwise silently become unsound
        (Theorem 4 / Corollary 1 rewrites depend on them).  An observed
        partition attribute the rows break is withdrawn instead.
        """
        if site_id not in self.sites:
            raise PlanError(f"unknown site {site_id}")
        if rows.schema != self.detail_schema:
            raise SchemaError(
                "appended rows do not match the warehouse schema")
        self.knowledge.check(site_id, rows)
        site = self.sites[site_id]
        with self.knowledge.lock:
            # facts first: a run that reads the new rows must find the
            # epoch a withdrawal moved, or it keeps a union plan
            self.knowledge.append(site_id, rows)
            site.fragment = site.fragment.union_all(rows)
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
        if plan.epoch not in (None, self.knowledge.epoch):
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
                               cache_enabled=self._cache is not None)
        log = RoundLog(metrics, tuple(self.site_ids), self.detail_schema)
        coordinator = Coordinator(expression, self.detail_schema)
        coordinator.union_on = plan.union_on

        # ---- round 0: the base-values relation --------------------------------
        if isinstance(expression.base, RelationBase):
            coordinator.set_base(expression.base.relation)
        elif not plan.steps[0].include_base:
            self._run_round(
                log, coordinator, "base round", None,
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
            self._run_round(log, coordinator, f"step {step_index + 1}",
                            step, requests)

        if self._cache is not None:
            self._cache.prune_deltas()
        result = coordinator.final_result()
        if plan.epoch not in (None, self.knowledge.epoch):
            return self.execute_plan(plan, sites=sites, step_sites=step_sites)
        return ExecutionResult(
            result, price(log, self._star, self.link, self.compute_model),
            plan, states=coordinator.state_relation, log=log)

    def _run_round(self, log: RoundLog, coordinator: Coordinator,
                   name: str, step: LocalStep | None,
                   requests: Sequence[SiteRequest]) -> None:
        """One round of Alg. GMDJDistribEval — base round or plan step.

        ``step`` is ``None`` for the base round.  Stages: classify
        against the cache → fulfil (cache, pending scans, transport) →
        synchronize at the coordinator, in site order.  What the round
        moved is appended to ``log``.
        """
        metrics = log.executed
        phase = PhaseMetrics(name)
        base_rows = (0 if step is None or step.include_base
                     else coordinator.final_result().num_rows)
        rnd = RoundRecord(phase, len(log.rounds), coordinator.key, step,
                          base_rows)
        decisions = self._classify(requests)
        for request in requests:
            structure = request.base_relation
            if self._needs_dispatch(decisions, request.site_id):
                rnd.downlinks[request.site_id] = structure
            else:
                # a hit/delta round needs no downlink: the site's cached
                # round already holds this exact structure (the
                # fingerprint includes its content)
                saved = (CONTROL_MESSAGE_BYTES if structure is None
                         else structure.wire_bytes())
                phase.cache_bytes_saved += saved + ENVELOPE_BYTES

        self._fulfill_round(metrics, rnd, requests, decisions)
        rnd.sites = {request.site_id: rnd.sites[request.site_id]
                     for request in requests}
        inputs = [work.relation for work in rnd.sites.values()]
        if step is None:
            __, rnd.sync_seconds = coordinator.synchronize_base(inputs)
        else:
            __, rnd.sync_seconds = coordinator.synchronize_step(
                step, inputs)
        log.rounds.append(rnd)
        metrics.num_synchronizations += 1

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

    def _fulfill_round(self, metrics: QueryMetrics, rnd: RoundRecord,
                       requests: Sequence[SiteRequest],
                       decisions: "dict[SiteId, CacheDecision] | None",
                       ) -> None:
        """Serve one round through the cache, then the transport.

        Every site's sub-result lands in ``rnd.sites``.  Misses go to
        the transport (scattered concurrently, gathered as they
        complete), populate the cache afterwards and are logged in
        ``rnd.uplinks`` (their sub-result crossed the wire); hits are
        answered from the store with no site scan and no transfer;
        delta-mergeable stale entries are upgraded by evaluating the
        round over only the retained delta rows — only the delta
        sub-aggregate travels (``rnd.deltas``, straight to the root).

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

        With the cache on, every miss is claimed first
        (:meth:`SubAggregateCache.claim`): only the **leader** of a
        ``(fingerprint, site, version)`` reaches the transport, and a
        **follower** — a miss another query is already computing —
        takes the leader's sub-result.  This engine resolves every claim
        it leads before it waits on any it follows, so the cross-query
        wait graph is acyclic.  A follower whose leader failed, or whose
        result an append made stale, re-decides and dispatches late.
        """
        phase = rnd.phase
        leaders = [request for request in requests
                   if self._needs_dispatch(decisions, request.site_id)]
        followers: set[SiteId] = set()
        if decisions is not None:
            for request in leaders:
                if not self._cache.claim(decisions[request.site_id]):
                    followers.add(request.site_id)
            leaders = [request for request in leaders
                       if request.site_id not in followers]
        outputs: dict[SiteId, SiteResponse] = {}
        if leaders:
            try:
                outputs = self._run_on_sites(metrics, rnd, leaders)
            finally:
                for request in leaders if decisions is not None else ():
                    decision = decisions[request.site_id]
                    response = outputs.get(request.site_id)
                    if response is None:
                        self._cache.abandon(decision)
                    else:
                        self._cache.populate(decision, response.relation)
            phase.site_scans += len(leaders)
        for request in requests:
            site_id = request.site_id
            decision = decisions[site_id] if decisions is not None else None
            if site_id in followers:
                waited = time.perf_counter()
                relation, stale = self._cache.await_claim(decision)
                if relation is not None:
                    # the leader's scan: no fragment scan and no uplink
                    # for this query, priced over the rows it summarises
                    rnd.sites[site_id] = SiteWork(
                        relation, time.perf_counter() - waited,
                        self.sites[site_id].fragment.num_rows, 0)
                    phase.shared_scan_hits += 1
                    phase.cache_bytes_saved += (relation.wire_bytes()
                                                + ENVELOPE_BYTES)
                    continue
                phase.shared_scan_stale += stale
                # decide afresh (the leader may have populated the cache
                # meanwhile); a MISS dispatches late in _serve_one
                decision = self._cache.decide(request)
            self._serve_one(metrics, rnd, request, decision, outputs)

    def _serve_one(self, metrics: QueryMetrics, rnd: RoundRecord,
                   request: SiteRequest, decision: "CacheDecision | None",
                   outputs: dict[SiteId, SiteResponse]) -> None:
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
                late = self._run_on_sites(metrics, rnd, [request])
                phase.site_scans += 1
                response = late[site_id]
                if decision is not None:
                    self._cache.populate(decision, response.relation)
            if decision is not None:
                phase.cache_misses += 1
            rnd.uplinks[site_id] = response.response_bytes or None
            return
        if decision.outcome == HIT:
            relation = self._cache.fulfill_hit(decision)
            rnd.sites[site_id] = SiteWork(relation, 0.0, None, 0)
            phase.cache_hits += 1
            phase.cache_bytes_saved += (relation.wire_bytes()
                                        + ENVELOPE_BYTES)
            return
        # DELTA: incremental maintenance (Theorem 1 over the
        # {old fragment, appended delta} partition).  The delta is a
        # snapshot taken at decision time, so a concurrent append
        # cannot tear it — the upgraded entry simply sits one (or more)
        # versions behind and the next lookup continues the chain.
        assert decision.outcome == DELTA
        merged, delta_result, delta_seconds, merge_seconds = \
            self._cache.apply_delta(decision, rnd.key, self.detail_schema)
        delta_rows = decision.delta.num_rows
        rnd.sites[site_id] = SiteWork(merged, delta_seconds, delta_rows,
                                      delta_rows)
        rnd.deltas.append((
            site_id, delta_result, merge_seconds,
            decision.entry_relation.num_rows + delta_result.num_rows))
        phase.cache_delta_merges += 1
        phase.cache_bytes_saved += max(
            0, merged.wire_bytes() - delta_result.wire_bytes())

    def _run_on_sites(self, metrics: QueryMetrics, rnd: RoundRecord,
                      requests: Sequence[SiteRequest],
                      ) -> dict[SiteId, SiteResponse]:
        """Execute one round of site requests through the transport.

        The transport owns parallelism and robustness (retries with
        backoff + jitter, per-call deadlines, worker respawn); this
        method aggregates its outcome into the metrics: retry counts,
        worker respawns, and the round's *real* wall-clock / wire bytes.
        Each answered site's measured seconds and the detail rows
        behind them go to ``rnd.sites``.

        With a skew planner attached, hot sites' requests are expanded
        into virtual sub-site requests *here* — below the cache, so
        fingerprints, stored entries, and shared pending scans only
        ever see merged per-physical-site relations —
        and the sub-responses are merged back (Theorem 1) before the
        round's outputs reach synchronization.  The planner observes
        :class:`ComputeModel` seconds when one is attached.

        Retry accounting is aggregated here, on the engine's thread,
        after the round completes — no cross-engine lock involved.
        """
        phase = rnd.phase
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
        rows = {site_id: self._site_for(site_id).fragment.num_rows
                for site_id in outputs}
        if self._skew_planner is not None:
            for site_id, response in outputs.items():
                seconds = response.compute_seconds
                if self.compute_model is not None:
                    # Virtual responses are costed from their
                    # *sub-fragment* rows — the modeled win of
                    # splitting a hot fragment.
                    seconds = self.compute_model.seconds(rows[site_id],
                                                         rnd.base_rows)
                self._skew_planner.observe(site_id, seconds, rows[site_id])
        if expansion:
            outputs = self._merge_virtual(rnd, outputs, expansion)
        for site_id, response in outputs.items():
            parts = [rows[part] for part in expansion.get(
                site_id, (site_id,))]
            rnd.sites[site_id] = SiteWork(
                response.relation, response.compute_seconds,
                max(parts), sum(parts))
        return outputs

    # -- skew mitigation internals ------------------------------------------------

    def _site_for(self, site_id: SiteId) -> SkallaSite:
        """Virtual-aware site lookup (virtual registry first)."""
        virtual = self.virtual_sites.get(site_id)
        return virtual if virtual is not None else self.sites[site_id]

    def _expand_skewed(self, rnd: RoundRecord,
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

    def _merge_virtual(self, rnd: RoundRecord,
                       outputs: dict[SiteId, SiteResponse],
                       expansion: "dict[SiteId, list[SiteId]]",
                       ) -> dict[SiteId, SiteResponse]:
        """Merge virtual sub-responses back into per-parent responses.

        Exactly an interior aggregator's merge (:func:`merge_partial`).
        Every layer above this — cache population, uplink accounting,
        synchronization — sees one response per physical site, as
        always.
        """
        expanded_ids = {virtual_id for virtual_ids in expansion.values()
                        for virtual_id in virtual_ids}
        merged: dict[SiteId, SiteResponse] = {
            site_id: response for site_id, response in outputs.items()
            if site_id not in expanded_ids}
        for parent, virtual_ids in expansion.items():
            parts = [outputs[virtual_id] for virtual_id in virtual_ids]
            relation = merge_partial([part.relation for part in parts],
                                     rnd.key, rnd.step, self.detail_schema)
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
