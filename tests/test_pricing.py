"""Tests for pricing: a run's modeled cost as a function of its round log.

The engine always executes the flat star; :func:`repro.distributed.
pricing.price` turns the round log on every ``ExecutionResult`` into the
modeled metrics of any aggregation shape.  Covered here:

* identity — the flat-star price of a log *is* the engine's own
  metrics, message by message, on every transport and cache state;
* purity — pricing never touches the log, and two prices agree;
* one run, two prices — Sect. 6's multi-tiered coordinator as a
  modeled claim over a single execution (the star wins on one metro
  region at 8 sites; the cost-driven tree wins at 64);
* tree metrics, aggregator kill / hang / deadline / re-parenting, and
  topology errors, all at price time;
* a property over the differential plan generator: no tree raises root
  ingress above the flat star's on exact plans.
"""

from __future__ import annotations

import dataclasses
import gc
import inspect
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from tests.seeding import seeded
from tests.test_differential import (
    DETAIL_SCHEMA, EXAMPLES, FLAG_CHOICES, small_details, synthetic_plans)

from repro.core.builder import QueryBuilder, agg
from repro.errors import PlanError
from repro.distributed.coordinator import combine_states_by_key
from repro.distributed.engine import SkallaEngine
from repro.distributed.explain import explain_analyze
from repro.distributed.faults import AggregatorFaultSpec
from repro.distributed.hierarchy import TreeNode, TreeTopology
from repro.distributed.messages import COORDINATOR, ENVELOPE_BYTES
from repro.distributed.network import ComputeModel, LinkModel
from repro.distributed.partition import partition_round_robin
from repro.distributed.plan import NO_OPTIMIZATIONS, OptimizationFlags
from repro.distributed.pricing import price
from repro.relational.aggregates import count_star, sketch_primitive
from repro.relational.expressions import b, r
from repro.relational.relation import Relation
from repro.skew import SkewPolicy
from repro.topology import build_cost_tree, clustered_wan

MODEL = ComputeModel()


@pytest.fixture(scope="module")
def detail():
    return Relation.from_dicts([
        {"g": i % 7, "v": float(i % 101)} for i in range(700)])


def simple_query():
    return (QueryBuilder()
            .base("g")
            .gmdj([count_star("n"), agg("sum", "v", "s")], r.g == b.g)
            .build())


def two_round_query():
    return (QueryBuilder()
            .base("g")
            .gmdj([count_star("n0"), agg("avg", "v", "m0")], r.g == b.g)
            .gmdj([agg("max", "v", "x1")],
                  (r.g == b.g) & (r.v <= b.m0 * 2.0))
            .build())


def run_flat(partitions, query, flags=NO_OPTIMIZATIONS, **kwargs):
    engine = SkallaEngine(partitions, **kwargs)
    try:
        return engine, engine.execute(query, flags)
    finally:
        engine.close()


def chain_topology() -> TreeTopology:
    """root <- agg@1 <- agg@3 over sites 0..4 (depth 3)."""
    inner = TreeNode("agg@3", (3, 4), (), host=3)
    mid = TreeNode("agg@1", (1, 2), (inner,), host=1)
    return TreeTopology(TreeNode("root", (0,), (mid,)))


# ---------------------------------------------------------------------------
# identity: the engine's metrics are the flat-star price of its log
# ---------------------------------------------------------------------------

class TestIdentity:
    @pytest.mark.parametrize("flags", [NO_OPTIMIZATIONS,
                                       OptimizationFlags.all()],
                             ids=["base-round", "optimized"])
    @pytest.mark.parametrize("model", [None, MODEL],
                             ids=["measured", "modeled"])
    @pytest.mark.parametrize("transport", ["inprocess", "thread",
                                           "process"])
    def test_flat_price_is_the_engines_own(self, detail, transport,
                                           model, flags):
        """Cold, warm (cache hits) and delta-merged runs: pricing each
        log over the star reproduces every modeled field and the
        message log, message by message."""
        engine = SkallaEngine(partition_round_robin(detail, 4),
                              cache=True, compute_model=model,
                              transport=transport)
        query = two_round_query()
        try:
            runs = [engine.execute(query, flags) for __ in range(2)]
            engine.append(1, detail.head(30))
            runs.append(engine.execute(query, flags))
        finally:
            engine.close()
        assert runs[1].metrics.cache_hits > 0
        assert runs[2].metrics.cache_delta_merges > 0
        star = TreeTopology.flat(engine.site_ids)
        for run in runs:
            priced = price(run.log, star, engine.link, model)
            assert priced.log.messages == run.metrics.log.messages
            assert priced.as_dict() == run.metrics.as_dict()


    def test_split_sites_price_like_the_engine(self):
        """A skew split is real execution: its log prices over the star
        to the engine's own metrics, and the split site's modeled
        seconds come from its largest sub-fragment at any shape."""
        hot = Relation.from_dicts([{"g": i % 3, "v": float(i)}
                                   for i in range(600)])
        cold = Relation.from_dicts([{"g": 3 + i % 3, "v": float(i)}
                                    for i in range(60)])
        engine, run = run_flat({0: hot, 1: cold, 2: cold}, simple_query(),
                               compute_model=MODEL,
                               skew=SkewPolicy(threshold=1.0))
        assert run.metrics.skew_splits > 0
        star = price(run.log, TreeTopology.flat(engine.site_ids),
                     engine.link, MODEL)
        assert star.as_dict() == run.metrics.as_dict()
        tree = price(run.log, TreeTopology(TreeNode("root", (0,), (
            TreeNode("pair", (1, 2), ()),))), engine.link, MODEL)
        assert ([phase.site_seconds for phase in tree.phases]
                == [phase.site_seconds for phase in star.phases])
        assert max(phase.site_seconds for phase in star.phases) < \
            MODEL.seconds(hot.num_rows, 0)

    def test_subset_runs_price_only_their_sites(self, detail):
        engine = SkallaEngine(partition_round_robin(detail, 5))
        run = engine.execute(simple_query(), NO_OPTIMIZATIONS,
                             sites=[0, 2, 4])
        tree = price(run.log, TreeTopology.balanced(engine.site_ids, 2),
                     engine.link)
        assert tree.num_participating_sites == 3
        touched = {message.sender for message in tree.log.messages} | {
            message.receiver for message in tree.log.messages}
        assert not touched & {1, 3}
        assert tree.root_ingress_bytes <= tree.flat_ingress_bytes


class TestShapeIndependentFacts:
    """What a shape cannot change, and what it prices from the log."""

    @pytest.mark.parametrize("transport", ["thread", "process"])
    def test_tree_price_does_not_depend_on_the_transport(self, detail,
                                                         transport):
        prices = []
        for name in ("inprocess", transport):
            engine, run = run_flat(partition_round_robin(detail, 6),
                                   two_round_query(),
                                   OptimizationFlags.all(),
                                   transport=name, compute_model=MODEL)
            prices.append(price(run.log, TreeTopology.balanced(
                engine.site_ids, 2), engine.link, MODEL))

        def modeled(metrics):
            return ([(m.sender, m.receiver, m.kind, m.payload_bytes,
                      m.rows) for m in metrics.log.messages],
                    metrics.response_seconds, metrics.root_ingress_bytes,
                    [phase.tree_level_seconds for phase in metrics.phases])

        local, remote = prices
        assert modeled(local) == modeled(remote)

    def test_interior_merges_merge_sketch_states(self, detail):
        """Interior nodes run the coordinator's Theorem-1 merge on the
        logged sub-results, so a sketch plan's root ingress is the wire
        size of the really merged states."""
        query = (QueryBuilder().base("g")
                 .gmdj([agg("approx_count_distinct", "v", "d")],
                       r.g == b.g)
                 .build())
        engine, run = run_flat(partition_round_robin(detail, 4), query)
        pairs = ((0, 1), (2, 3))
        topology = TreeTopology(TreeNode("root", (), tuple(
            TreeNode(f"agg{pair[0]}", pair, ()) for pair in pairs)))
        priced = price(run.log, topology, engine.link)
        record = run.log.rounds[-1]
        merged = [combine_states_by_key(
            [record.sites[site].relation for site in pair], record.key,
            record.step.gmdjs, engine.detail_schema) for pair in pairs]
        assert priced.phases[-1].root_ingress_bytes == sum(
            relation.wire_bytes() + ENVELOPE_BYTES for relation in merged)
        assert priced.sketch_state_bytes == run.metrics.sketch_state_bytes

    def test_cache_hits_send_nothing_up_any_tree(self, detail):
        engine = SkallaEngine(partition_round_robin(detail, 4), cache=True)
        engine.execute(simple_query(), NO_OPTIMIZATIONS)
        warm = engine.execute(simple_query(), NO_OPTIMIZATIONS)
        tree = price(warm.log, TreeTopology.balanced(engine.site_ids, 2),
                     engine.link)
        assert warm.metrics.cache_hits > 0
        assert tree.log.messages == []
        assert tree.root_ingress_bytes == tree.flat_ingress_bytes == 0
        assert all(not phase.tree_level_seconds for phase in tree.phases)

    def test_delta_messages_bypass_the_tree(self, detail):
        """Cache delta maintenance is a conversation with the root, where
        the cache lives: its messages keep the star link in any tree and
        count on both sides of the ingress ratio."""
        engine = SkallaEngine(partition_round_robin(detail, 4), cache=True)
        engine.execute(simple_query(), NO_OPTIMIZATIONS)
        engine.append(2, detail.head(25))
        run = engine.execute(simple_query(), NO_OPTIMIZATIONS)
        tree = price(run.log, TreeTopology.balanced(engine.site_ids, 2),
                     engine.link)
        deltas = [m for m in tree.log.messages
                  if m.kind.startswith("delta_")]
        assert deltas and all(
            (m.sender, m.receiver) == (2, COORDINATOR) for m in deltas)
        assert tree.root_ingress_bytes == tree.flat_ingress_bytes == sum(
            m.total_bytes for m in deltas)

    def test_unmodeled_trees_reuse_the_measured_synchronization(
            self, detail):
        """Without a ComputeModel a tree keeps the flat run's measured
        synchronize seconds; its interior merges only add to them."""
        engine, run = run_flat(partition_round_robin(detail, 4),
                               simple_query())
        tree = price(run.log, TreeTopology.balanced(engine.site_ids, 2),
                     engine.link)
        for phase, record in zip(tree.phases, run.log.rounds):
            assert phase.coordinator_seconds >= record.sync_seconds


class TestLogLifetime:
    def test_engine_takes_no_shape(self):
        parameters = inspect.signature(SkallaEngine).parameters
        assert not {"topology", "wan", "aggregator_faults",
                    "aggregator_deadline"} & set(parameters)

    def test_metrics_do_not_keep_the_sub_results_alive(self, detail):
        """The log hangs on the ExecutionResult only: metrics kept by a
        service outlive it without pinning a single sub-result."""
        engine, run = run_flat(partition_round_robin(detail, 4),
                               simple_query())
        columns = [weakref.ref(work.relation.column(name))
                   for record in run.log.rounds
                   for work in record.sites.values()
                   for name in work.relation.schema.names]
        assert all(ref() is not None for ref in columns)
        metrics = run.metrics
        del run
        gc.collect()
        assert metrics.total_bytes > 0
        assert all(ref() is None for ref in columns)


class TestPurity:
    def test_two_prices_agree_and_leave_the_log_unchanged(self, detail):
        engine, run = run_flat(partition_round_robin(detail, 5),
                               simple_query())
        before = snapshot(run.log)
        faults = {"agg@3": AggregatorFaultSpec(kill_on_merge=0)}
        first, second = (
            price(run.log, chain_topology(), engine.link, MODEL,
                  aggregator_faults=faults)
            for __ in range(2))
        assert first.log.messages == second.log.messages
        assert first.as_dict() == second.as_dict()
        # merge ordinals count within one call: each price kills agg@3
        # on its first merge (round 0) and only there
        assert first.aggregator_failures == 1
        assert snapshot(run.log) == before


def snapshot(log):
    """Everything a price reads from ``log``, by value and identity."""
    rounds = []
    for record in log.rounds:
        rounds.append((
            record.phase.as_dict(), record.index, record.key,
            record.base_rows,
            {site: None if structure is None else
             (id(structure), structure.to_dicts())
             for site, structure in record.downlinks.items()},
            {site: (id(work.relation), work.relation.to_dicts(),
                    work.seconds, work.scan_rows, work.detail_rows)
             for site, work in record.sites.items()},
            dict(record.uplinks),
            [(site, id(delta), seconds, rows)
             for site, delta, seconds, rows in record.deltas],
            record.sync_seconds))
    return (log.executed.as_dict(), len(log.executed.log.messages),
            log.site_ids, rounds)


# ---------------------------------------------------------------------------
# one run, two prices: past a few dozen sites the tree beats the star
# ---------------------------------------------------------------------------

class TestModeledWin:
    """Sect. 6's "multi-tiered coordinator", as a claim and not a stored
    baseline: one execution over the flat star, priced over the *same*
    clustered WAN both as the star and as the cost-driven tree
    (fanout 4).  At 64 sites the tree is faster on modeled response
    time AND lighter on coordinator ingress (3.80x / 12.67x).  At 8
    sites the WAN is one metro region and the star wins.
    ``ComputeModel`` replaces every measured time, so the prices are
    reproducible to the bit; a tree's win is modeled, never measured."""

    FANOUT = 4
    ROWS_PER_SITE = 50
    WAN_SEED = 7

    @classmethod
    def partitions(cls, num_sites):
        return {
            site: Relation.from_dicts([
                {"g": (site * 7 + i) % 64, "h": i % 5,
                 "v": float((site * 131 + i * 17) % 997)}
                for i in range(cls.ROWS_PER_SITE)])
            for site in range(num_sites)}

    @staticmethod
    def query():
        return (QueryBuilder()
                .base("g")
                .gmdj([count_star("n0"), agg("sum", "v", "s0")],
                      r.g == b.g)
                .gmdj([agg("max", "v", "x1")],
                      (r.g == b.g) & (r.v <= b.s0))
                .build())

    def price_both(self, num_sites):
        partitions = self.partitions(num_sites)
        engine, run = run_flat(partitions, self.query(),
                               OptimizationFlags.all(), hedge=False,
                               compute_model=MODEL)
        oracle = self.query().evaluate_centralized(
            Relation.concat(list(partitions.values())))
        assert run.relation.multiset_equals(oracle)
        wan = clustered_wan(num_sites, seed=self.WAN_SEED)
        flat = price(run.log, TreeTopology.flat(range(num_sites)),
                     engine.link, MODEL, wan=wan)
        tree = price(run.log, build_cost_tree(wan, self.FANOUT),
                     engine.link, MODEL, wan=wan)
        return flat, tree

    def test_star_wins_on_one_metro_region(self):
        flat, tree = self.price_both(8)
        assert flat.response_seconds == 0.009541266856295064
        assert tree.response_seconds == 0.029657109037465646
        assert (flat.root_ingress_bytes, tree.root_ingress_bytes) == (
            17024, 2688)

    def test_tree_beats_flat_at_64_sites(self):
        flat, tree = self.price_both(64)
        assert flat.response_seconds == 0.6144525248066908
        assert tree.response_seconds == 0.16190913965214232
        assert (flat.root_ingress_bytes, tree.root_ingress_bytes) == (
            136192, 10752)
        assert round(flat.response_seconds / tree.response_seconds,
                     2) == 3.80
        assert round(flat.root_ingress_bytes / tree.root_ingress_bytes,
                     2) == 12.67

    def test_both_prices_share_the_executed_counters(self):
        flat, tree = self.price_both(8)
        assert (flat.topology, tree.topology) == ("flat", "tree")
        assert flat.num_synchronizations == tree.num_synchronizations
        assert ([phase.real_bytes for phase in flat.phases]
                == [phase.real_bytes for phase in tree.phases])


# ---------------------------------------------------------------------------
# tree metrics and explain
# ---------------------------------------------------------------------------

class TestTreePrice:
    @pytest.fixture(scope="class")
    def priced(self, detail):
        engine, run = run_flat(partition_round_robin(detail, 8),
                               simple_query())
        wan = clustered_wan(8, seed=2)
        return run, price(run.log, build_cost_tree(wan, 2), engine.link,
                          wan=wan)

    def test_ingress_accounting(self, priced):
        __, metrics = priced
        assert metrics.root_ingress_bytes > 0
        # the tree's whole point: the root hears less than flat would
        assert metrics.flat_ingress_bytes > metrics.root_ingress_bytes
        assert metrics.ingress_reduction_ratio > 1.0
        # root ingress IS the to-coordinator traffic under a tree
        assert metrics.root_ingress_bytes == metrics.bytes_to_coordinator
        assert 0 in metrics.tree_level_seconds  # per-level critical path
        assert len(metrics.tree_level_seconds) > 1  # interior merges
        assert "depth=" in metrics.tree_shape

    def test_flat_counterfactual_is_the_executed_ingress(self, priced):
        run, metrics = priced
        assert metrics.flat_ingress_bytes == run.metrics.root_ingress_bytes
        assert run.metrics.flat_ingress_bytes == \
            run.metrics.root_ingress_bytes

    def test_summary_exports_tree_fields(self, priced):
        summary = priced[1].summary()
        assert summary["topology"] == "tree"
        assert summary["root_ingress_bytes"] > 0
        assert summary["ingress_reduction_ratio"] > 1.0

    def test_explain_analyze_renders_tree_section(self, priced):
        run, metrics = priced
        text = explain_analyze(dataclasses.replace(run, metrics=metrics))
        assert "aggregation tree:" in text
        assert "root ingress" in text
        assert "flat would pay" in text
        assert "level critical" in text

    def test_modeled_merges_price_the_same_twice(self, detail):
        """Interior merges under a ComputeModel are costed from rows:
        two fresh runs price to the same per-level seconds."""
        prices = []
        for __ in range(2):
            engine, run = run_flat(partition_round_robin(detail, 4),
                                   simple_query(), compute_model=MODEL)
            prices.append(price(run.log, TreeTopology.balanced(
                engine.site_ids, 2), engine.link, MODEL))
        first, second = prices
        assert any(len(phase.tree_level_seconds) > 1
                   for phase in first.phases)
        assert ([phase.tree_level_seconds for phase in first.phases]
                == [phase.tree_level_seconds for phase in second.phases])
        assert first.response_seconds == second.response_seconds


# ---------------------------------------------------------------------------
# aggregator faults: kill, hang, re-parenting — all priced
# ---------------------------------------------------------------------------

class TestAggregatorFaults:
    @pytest.fixture(scope="class")
    def run(self, detail):
        return run_flat(partition_round_robin(detail, 5), simple_query(),
                        compute_model=MODEL)[1]

    @staticmethod
    def priced(run, faults=None):
        return price(run.log, chain_topology(), LinkModel(), MODEL,
                     aggregator_faults=faults, aggregator_deadline=0.05)

    def test_killed_interior_reparents_to_grandparent(self, run):
        clean = self.priced(run)
        metrics = self.priced(run, {"agg@3": AggregatorFaultSpec(
            kill_on_merge=0, repeat=True)})
        assert metrics.aggregator_failures >= 1
        assert metrics.reparented_subtrees >= 1
        # grandparent agg@1 absorbed the orphans: no flat fallback, and
        # the root hears exactly what it hears from a healthy tree
        assert metrics.flat_fallbacks == 0
        assert metrics.root_ingress_bytes == clean.root_ingress_bytes
        assert metrics.total_bytes > clean.total_bytes

    def test_killed_root_child_degrades_to_flat(self, run):
        clean = self.priced(run)
        metrics = self.priced(run, {"agg@1": AggregatorFaultSpec(
            kill_on_merge=0, repeat=True)})
        assert metrics.flat_fallbacks >= 1
        assert metrics.root_ingress_bytes > clean.root_ingress_bytes

    def test_hang_past_deadline_is_a_failure(self, run):
        metrics = self.priced(run, {"agg@3": AggregatorFaultSpec(
            hang_on_merge=0, hang_seconds=5.0, repeat=True)})
        assert metrics.aggregator_failures >= 1
        # the parent waited out the deadline before re-parenting
        assert metrics.response_seconds >= 0.05

    def test_short_hang_is_tolerated(self, run):
        clean = self.priced(run)
        metrics = self.priced(run, {"agg@3": AggregatorFaultSpec(
            hang_on_merge=0, hang_seconds=0.01, repeat=True)})
        assert metrics.aggregator_failures == 0
        assert metrics.reparented_subtrees == 0
        assert metrics.response_seconds > clean.response_seconds

    def test_single_kill_without_repeat(self, run):
        spec = AggregatorFaultSpec(kill_on_merge=0)
        assert spec.triggers(0, 0) and not spec.triggers(0, 1)
        assert not spec.triggers(None, 0)
        assert self.priced(run, {"agg@3": spec}).aggregator_failures == 1

    def test_faults_belong_to_one_price(self, run):
        faults = {"agg@3": AggregatorFaultSpec(kill_on_merge=0,
                                               repeat=True)}
        faulted = self.priced(run, faults)
        assert faulted.aggregator_failures >= 1
        assert self.priced(run).aggregator_failures == 0
        assert self.priced(run, faults).as_dict() == faulted.as_dict()


# ---------------------------------------------------------------------------
# topology errors surface at price time
# ---------------------------------------------------------------------------

class TestErrors:
    @pytest.fixture(scope="class")
    def run(self, detail):
        return run_flat(partition_round_robin(detail, 6), simple_query())[1]

    def test_unknown_site_in_topology(self, run):
        topology = TreeTopology(TreeNode("root", (0, 99), ()))
        with pytest.raises(PlanError, match="unknown sites"):
            price(run.log, topology, LinkModel())

    def test_orphaned_site_in_topology(self, run):
        """A tree that misses a site would silently price a subset."""
        topology = TreeTopology.balanced(range(5), fanout=2)
        with pytest.raises(PlanError, match="unreachable"):
            price(run.log, topology, LinkModel())

    def test_wan_missing_sites(self, run):
        with pytest.raises(PlanError, match="lacks sites"):
            price(run.log, TreeTopology.flat(range(6)), LinkModel(),
                  wan=clustered_wan(3))


# ---------------------------------------------------------------------------
# property: no tree raises root ingress (differential plan generator)
# ---------------------------------------------------------------------------

def is_exact(expression) -> bool:
    """True when no aggregate of ``expression`` ships a sketch state."""
    return not any(sketch_primitive(state.primitive) is not None
                   for gmdj in expression.rounds
                   for spec in gmdj.all_aggregates
                   for state in spec.state_fields(DETAIL_SCHEMA))


class TestPricingProperty:
    @seeded
    @settings(max_examples=EXAMPLES, deadline=None)
    @given(data=st.data())
    def test_trees_never_raise_root_ingress(self, data):
        detail = data.draw(small_details())
        expression = data.draw(synthetic_plans().filter(is_exact))
        num_sites = data.draw(st.integers(2, 8))
        flags = data.draw(st.sampled_from(FLAG_CHOICES))
        engine = SkallaEngine(partition_round_robin(detail, num_sites),
                              cache=data.draw(st.booleans()),
                              compute_model=MODEL)
        runs = [engine.execute(expression, flags)]
        if engine.cache_enabled:
            engine.append(data.draw(st.integers(0, num_sites - 1)),
                          detail.head(data.draw(st.integers(1, 5))))
            runs.append(engine.execute(expression, flags))
        star = TreeTopology.flat(engine.site_ids)
        tree = TreeTopology.balanced(engine.site_ids,
                                     data.draw(st.integers(2, 4)))
        for run in runs:
            assert price(run.log, star, engine.link, MODEL).as_dict() \
                == run.metrics.as_dict()
            priced = price(run.log, tree, engine.link, MODEL)
            assert priced.root_ingress_bytes <= priced.flat_ingress_bytes
            assert priced.flat_ingress_bytes == \
                run.metrics.root_ingress_bytes
