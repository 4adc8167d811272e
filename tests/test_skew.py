"""Unit tests for skew-aware repartitioning (``repro/skew``).

Covers the pieces the differential/fault suites exercise only
end-to-end: virtual-site identity and the :class:`SiteView` overlay,
:class:`SkewPolicy` validation, the planner's latency history and split
decision, the split itself (exact row partition, heavy-key spreading,
caching and invalidation), engine integration (counters, explain
output, append invalidation, the Theorem-5 fused-step carve-out), the
modeled claim itself (split == unsplit, >= 1.5x faster at Zipf 1.5),
and the CLI knobs.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.cli import build_parser
from repro.core.builder import QueryBuilder, agg
from repro.distributed.engine import SkallaEngine
from repro.distributed.pricing import RoundRecord
from repro.distributed.explain import explain_analyze
from repro.distributed.metrics import PhaseMetrics
from repro.distributed.network import ComputeModel
from repro.distributed.plan import OptimizationFlags
from repro.distributed.site import SkallaSite
from repro.distributed.transport.base import SiteRequest
from repro.errors import PlanError
from repro.relational.aggregates import count_star
from repro.relational.expressions import b, r
from repro.distributed.partition import partition_by_values
from repro.relational.relation import Relation
from repro.relational.schema import DataType, Schema
from repro.skew import (VIRTUAL_SITE_BASE, SiteView, SkewPlanner,
                        SkewPolicy, is_virtual, physical_site,
                        virtual_site_id)
from repro.skew.virtual import VIRTUAL_STRIDE

SCHEMA = Schema.of(("custkey", DataType.INT64),
                   ("qty", DataType.INT64))


def fragment(keys) -> Relation:
    keys = np.asarray(keys, dtype=np.int64)
    qty = (keys * 7 + np.arange(len(keys), dtype=np.int64)) % 50
    return Relation.from_columns(SCHEMA, {"custkey": keys, "qty": qty})


def skewed_partitions() -> dict[int, Relation]:
    """Site 0 holds one dominant custkey plus a light tail."""
    return {
        0: fragment([1] * 400 + list(range(100, 150))),
        1: fragment(range(200, 250)),
        2: fragment(range(300, 350)),
        3: fragment(range(400, 450)),
    }


def simple_query():
    return (QueryBuilder()
            .base("custkey")
            .gmdj([count_star("cnt"), agg("sum", "qty", "total")],
                  r.custkey == b.custkey)
            .build())


def coalescable_query():
    """Two independent GMDJs on one key — coalesce fuses them."""
    return (QueryBuilder()
            .base("custkey")
            .gmdj([count_star("cnt")], r.custkey == b.custkey)
            .gmdj([agg("sum", "qty", "total")], r.custkey == b.custkey)
            .build())


FORCE_SPLIT = SkewPolicy(threshold=1.0)


# ---------------------------------------------------------------------------
# Virtual-site identity
# ---------------------------------------------------------------------------

class TestVirtualIds:
    def test_round_trip(self):
        for parent in (0, 3, 17):
            for index in (0, 1, VIRTUAL_STRIDE - 1):
                vid = virtual_site_id(parent, index)
                assert is_virtual(vid)
                assert physical_site(vid) == parent

    def test_physical_ids_pass_through(self):
        assert not is_virtual(0)
        assert physical_site(0) == 0
        assert physical_site(-1) == -1  # coordinator sentinel

    def test_ids_are_disjoint_across_parents(self):
        seen = {virtual_site_id(parent, index)
                for parent in range(4) for index in range(8)}
        assert len(seen) == 32
        assert min(seen) >= VIRTUAL_SITE_BASE

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            virtual_site_id(-1, 0)
        with pytest.raises(ValueError):
            virtual_site_id(0, VIRTUAL_STRIDE)
        with pytest.raises(ValueError):
            virtual_site_id(VIRTUAL_SITE_BASE, 0)

    def test_site_view_iterates_physical_only(self):
        physical = {0: SkallaSite(0, fragment([1, 2])),
                    1: SkallaSite(1, fragment([3]))}
        vid = virtual_site_id(0, 0)
        virtual = {vid: SkallaSite(vid, fragment([1]))}
        view = SiteView(physical, virtual)
        assert set(view) == {0, 1}
        assert len(view) == 2
        assert vid in view and 0 in view and 99 not in view
        assert view[vid] is virtual[vid]
        assert view[0] is physical[0]
        with pytest.raises(KeyError):
            view[99]


# ---------------------------------------------------------------------------
# Policy validation
# ---------------------------------------------------------------------------

class TestPolicy:
    def test_defaults(self):
        policy = SkewPolicy()
        assert policy.threshold == 1.5
        assert policy.max_virtual_sites == 8

    @pytest.mark.parametrize("kwargs", [
        {"threshold": 0.9},
        {"max_virtual_sites": 1},
        {"max_virtual_sites": VIRTUAL_STRIDE + 1},
        {"sketch_capacity": 0},
        {"min_rows": 1},
        {"alpha": 0.0},
        {"alpha": 1.5},
    ])
    def test_invalid_knobs_raise(self, kwargs):
        with pytest.raises(PlanError):
            SkewPolicy(**kwargs)


# ---------------------------------------------------------------------------
# Planner: latency history and the split decision
# ---------------------------------------------------------------------------

class TestPlanner:
    def test_pace_ewma(self):
        planner = SkewPlanner(SkewPolicy(alpha=0.5))
        planner.observe(0, 10.0, 100)
        assert planner.pace(0) == pytest.approx(0.1)
        planner.observe(0, 20.0, 100)
        assert planner.pace(0) == pytest.approx(0.15)

    def test_virtual_observations_credit_the_parent(self):
        planner = SkewPlanner()
        planner.observe(virtual_site_id(2, 1), 5.0, 50)
        assert planner.pace(2) == pytest.approx(0.1)
        assert planner.pace(virtual_site_id(2, 0)) == pytest.approx(0.1)

    def test_degenerate_observations_ignored(self):
        planner = SkewPlanner()
        planner.observe(0, 1.0, 0)
        planner.observe(0, -1.0, 10)
        assert planner.pace(0) is None

    def test_single_candidate_never_splits(self):
        assert SkewPlanner(FORCE_SPLIT).plan_round({0: 10_000}) == {}

    def test_balanced_cluster_never_splits(self):
        planner = SkewPlanner()
        assert planner.plan_round({0: 100, 1: 100, 2: 100}) == {}

    def test_row_imbalance_splits_without_history(self):
        planner = SkewPlanner()
        decisions = planner.plan_round({0: 400, 1: 50, 2: 50, 3: 50})
        assert set(decisions) == {0}
        assert 2 <= decisions[0] <= 8

    def test_latency_history_splits_a_slow_site(self):
        planner = SkewPlanner()
        planner.observe(0, 10.0, 100)   # 0.1 s/row: 10x slower
        planner.observe(1, 1.0, 100)
        planner.observe(2, 1.0, 100)
        decisions = planner.plan_round({0: 100, 1: 100, 2: 100})
        assert set(decisions) == {0}

    def test_min_rows_guards_small_fragments(self):
        planner = SkewPlanner(SkewPolicy(threshold=1.0, min_rows=16))
        assert planner.plan_round({0: 10, 1: 2}) == {}

    def test_fanout_clamped_to_policy_cap(self):
        planner = SkewPlanner(SkewPolicy(threshold=1.0,
                                         max_virtual_sites=4))
        fragments = {0: 10_000}
        fragments.update({site: 10 for site in range(1, 8)})
        decisions = planner.plan_round(fragments)
        assert decisions[0] == 4  # overload ~7x, capped at 4


# ---------------------------------------------------------------------------
# The split itself
# ---------------------------------------------------------------------------

class TestSplit:
    def test_split_is_an_exact_row_partition(self):
        site = SkallaSite(0, skewed_partitions()[0])
        split = SkewPlanner(FORCE_SPLIT).split_for(0, site, ("custkey",), 4)
        parts = [sub.fragment for sub in split.sites.values()]
        assert sum(part.num_rows for part in parts) == site.fragment.num_rows
        assert Relation.concat(parts).multiset_equals(site.fragment)

    def test_heavy_key_spreads_across_sub_sites(self):
        site = SkallaSite(0, skewed_partitions()[0])
        split = SkewPlanner(FORCE_SPLIT).split_for(0, site, ("custkey",), 4)
        assert split.heavy_keys >= 1
        holders = sum(
            1 for sub in split.sites.values()
            if np.any(np.asarray(sub.fragment.column("custkey")) == 1))
        assert holders >= 2  # the dominant key cannot sit on one sub-site

    def test_sub_site_loads_are_balanced(self):
        site = SkallaSite(0, skewed_partitions()[0])
        split = SkewPlanner(FORCE_SPLIT).split_for(0, site, ("custkey",), 4)
        loads = [sub.fragment.num_rows for sub in split.sites.values()]
        assert max(loads) <= 2 * min(loads)

    def test_split_ids_encode_the_parent(self):
        site = SkallaSite(3, skewed_partitions()[0])
        split = SkewPlanner(FORCE_SPLIT).split_for(3, site, ("custkey",), 2)
        assert all(is_virtual(vid) and physical_site(vid) == 3
                   for vid in split.sites)

    def test_split_cached_by_fragment_identity(self):
        planner = SkewPlanner(FORCE_SPLIT)
        site = SkallaSite(0, skewed_partitions()[0])
        first = planner.split_for(0, site, ("custkey",), 4)
        assert planner.split_for(0, site, ("custkey",), 4) is first
        replaced = SkallaSite(0, skewed_partitions()[0])  # new fragment
        assert planner.split_for(0, replaced, ("custkey",), 4) is not first

    def test_invalidate_drops_the_split(self):
        planner = SkewPlanner(FORCE_SPLIT)
        site = SkallaSite(0, skewed_partitions()[0])
        split = planner.split_for(0, site, ("custkey",), 4)
        dead = planner.invalidate(0)
        assert sorted(dead) == sorted(split.sites)
        assert planner.current_split(0) is None
        assert planner.invalidate(0) == []

    def test_split_without_key_attribute_still_partitions(self):
        # No partition key in the fragment: no sketch, pure chunking.
        site = SkallaSite(0, skewed_partitions()[0])
        split = SkewPlanner(FORCE_SPLIT).split_for(0, site, ("other",), 3)
        assert split.heavy_keys == 0
        parts = [sub.fragment for sub in split.sites.values()]
        assert Relation.concat(parts).multiset_equals(site.fragment)

    def test_make_site_seam_wraps_sub_sites(self):
        recorded = []

        def recording_site(site_id, fragment_):
            recorded.append(site_id)
            return SkallaSite(site_id, fragment_)

        planner = SkewPlanner(FORCE_SPLIT, make_site=recording_site)
        site = SkallaSite(0, skewed_partitions()[0])
        split = planner.split_for(0, site, ("custkey",), 3)
        assert sorted(recorded) == sorted(split.sites)


# ---------------------------------------------------------------------------
# Engine integration
# ---------------------------------------------------------------------------

class TestEngineIntegration:
    def run(self, engine):
        try:
            return engine.execute(simple_query(), OptimizationFlags.all())
        finally:
            engine.close()

    def test_skew_defaults_off(self):
        engine = SkallaEngine(skewed_partitions())
        assert not engine.skew_enabled
        result = self.run(engine)
        assert result.metrics.skew_splits == 0

    def test_split_results_identical_and_counted(self):
        baseline = self.run(SkallaEngine(skewed_partitions()))
        result = self.run(SkallaEngine(skewed_partitions(),
                                       skew=FORCE_SPLIT))
        assert result.relation.multiset_equals(baseline.relation)
        metrics = result.metrics
        assert metrics.skew_splits >= 1
        assert metrics.virtual_sites >= 2
        assert metrics.heavy_hitter_keys >= 1
        assert metrics.rebalanced_bytes > 0

    def test_counters_surface_in_summary_and_as_dict(self):
        result = self.run(SkallaEngine(skewed_partitions(),
                                       skew=FORCE_SPLIT))
        summary = result.metrics.summary()
        for key in ("skew_splits", "virtual_sites", "heavy_hitter_keys",
                    "rebalanced_bytes"):
            assert summary[key] == getattr(result.metrics, key)
        phase = next(p for p in result.metrics.phases if p.skew_splits)
        as_dict = phase.as_dict()
        assert as_dict["skew_splits"] == phase.skew_splits
        assert as_dict["virtual_sites"] == phase.virtual_sites

    def test_explain_analyze_reports_skew_mitigation(self):
        result = self.run(SkallaEngine(skewed_partitions(),
                                       skew=FORCE_SPLIT))
        text = explain_analyze(result)
        assert "skew mitigation:" in text
        assert "heavy hitters" in text

    def test_explain_analyze_silent_without_splits(self):
        result = self.run(SkallaEngine(skewed_partitions()))
        assert "skew mitigation:" not in explain_analyze(result)

    def test_policy_is_constructor_data(self):
        """Splitting on or off is a property of the engine built."""
        with SkallaEngine(skewed_partitions(), skew=FORCE_SPLIT) as split:
            assert split.skew_enabled
            split.execute(simple_query(), OptimizationFlags.all())
            assert split.virtual_sites
        with SkallaEngine(skewed_partitions()) as plain:
            assert not plain.skew_enabled
            result = plain.execute(simple_query(), OptimizationFlags.all())
            assert not plain.virtual_sites
        assert result.metrics.skew_splits == 0

    def test_append_invalidates_the_split(self):
        engine = SkallaEngine(skewed_partitions(), skew=FORCE_SPLIT)
        try:
            first = engine.execute(simple_query(),
                                   OptimizationFlags.all())
            assert first.metrics.skew_splits >= 1
            assert engine.skew_planner.current_split(0) is not None
            engine.append(0, fragment([1] * 10))
            assert engine.skew_planner.current_split(0) is None
            assert not any(physical_site(vid) == 0
                           for vid in engine.virtual_sites)
            oracle = simple_query().evaluate_centralized(
                Relation.concat([site.fragment
                                 for site in engine.sites.values()]))
            again = engine.execute(simple_query(),
                                   OptimizationFlags.all())
            assert again.relation.multiset_equals(oracle)
        finally:
            engine.close()

    def test_fused_steps_never_split(self):
        # Theorem-5 fused steps finalize aggregates locally between
        # GMDJs — row-splitting the fragment would feed the later GMDJ
        # partial values, so the expansion must skip them.  Fused steps
        # need sync-reduction plus value-partition knowledge on the key.
        partitions, info = partition_by_values(
            Relation.concat(list(skewed_partitions().values())),
            "custkey",
            {0: [1, *range(100, 150)], 1: list(range(200, 250)),
             2: list(range(300, 350)), 3: list(range(400, 450))})
        engine = SkallaEngine(partitions, info, skew=FORCE_SPLIT)
        try:
            result = engine.execute(
                coalescable_query(),
                OptimizationFlags(sync_reduction=True))
            fused = [step for step in result.plan.steps
                     if step.num_gmdjs > 1]
            assert fused, "sync-reduction should fuse the rounds"
            requests = [SiteRequest(site_id=site_id, kind="step",
                                    step=fused[0])
                        for site_id in engine.sites]
            phase = PhaseMetrics("probe")
            expanded, expansion = engine._expand_skewed(
                RoundRecord(phase, 0, ("custkey",), fused[0], 0),
                requests)
            assert expansion == {}
            assert [req.site_id for req in expanded] == \
                [req.site_id for req in requests]
            assert phase.skew_splits == 0
            # ... and the fused run is still exact end-to-end.
            oracle = coalescable_query().evaluate_centralized(
                Relation.concat(list(skewed_partitions().values())))
            assert result.relation.multiset_equals(oracle)
        finally:
            engine.close()


# ---------------------------------------------------------------------------
# The modeled claim: splitting the hot site beats hedging it
# ---------------------------------------------------------------------------

class TestModeledWin:
    """Beame/Koutris/Suciu's regime as a claim, not a stored baseline:
    8 sites hash-partitioned on a Zipf(1.5) custkey, so rank 1's whole
    mass sits on one site.  Hedging re-scans the *same* hot fragment;
    the split fans it across virtual sub-sites.  ``ComputeModel`` (a
    compute-bound ~0.5M rows/s/site profile) drives the reported times
    and the planner's latency history, so the run is reproducible to
    the bit (1.94x at this scale).

    The placement makes custkey a partition attribute the engine
    observes, so synchronization reduction would fuse both rounds into
    one Theorem-5 step, which splitting never touches (a fused step
    finalizes between GMDJs).  The split claim is about split rounds, so
    those runs plan without synchronization reduction; the default-flag
    run must fuse and be no slower than the split."""

    NUM_SITES = 8
    NUM_KEYS = 64
    ROWS_TOTAL = 120_000
    ZIPF_S = 1.5
    COMPUTE = ComputeModel(scan_seconds_per_row=2e-6,
                           group_seconds_per_row=1e-6)
    SCHEMA = Schema.of(("custkey", DataType.INT64),
                       ("nationkey", DataType.INT64),
                       ("quantity", DataType.INT64))

    @classmethod
    def partitions(cls) -> dict[int, Relation]:
        """``custkey % NUM_SITES`` placement of deterministic per-key
        row counts ~ 1/rank^s; integer measures keep every aggregate
        exact, so split and unsplit runs are bit-comparable."""
        weights = [1.0 / rank ** cls.ZIPF_S
                   for rank in range(1, cls.NUM_KEYS + 1)]
        total_weight = sum(weights)
        columns = {site: {name: [] for name in cls.SCHEMA.names}
                   for site in range(cls.NUM_SITES)}
        for custkey, weight in enumerate(weights, start=1):
            count = max(1, int(cls.ROWS_TOTAL * weight / total_weight))
            target = columns[custkey % cls.NUM_SITES]
            target["custkey"].extend([custkey] * count)
            target["nationkey"].extend([custkey % 25] * count)
            target["quantity"].extend(
                (custkey * 31 + i * 7) % 100 for i in range(count))
        return {
            site: Relation.from_columns(cls.SCHEMA, {
                name: np.asarray(values, dtype=np.int64)
                for name, values in per_site.items()})
            for site, per_site in columns.items()}

    @staticmethod
    def query():
        return (QueryBuilder()
                .base("custkey")
                .gmdj([count_star("n0"), agg("sum", "quantity", "s0")],
                      r.custkey == b.custkey)
                .gmdj([agg("max", "quantity", "x1")],
                      (r.custkey == b.custkey) & (r.quantity <= b.n0))
                .build())

    UNFUSED = replace(OptimizationFlags.all(), sync_reduction=False)

    def run(self, partitions, flags=UNFUSED, **kwargs):
        engine = SkallaEngine(dict(partitions), hedge=True,
                              compute_model=self.COMPUTE, **kwargs)
        try:
            return engine.execute(self.query(), flags)
        finally:
            engine.close()

    def test_split_is_identical_and_1_5x_faster_at_zipf_1_5(self):
        partitions = self.partitions()
        oracle = self.query().evaluate_centralized(
            Relation.concat(list(partitions.values())))
        hedged = self.run(partitions)
        split = self.run(partitions, skew=SkewPolicy(threshold=1.5))
        assert split.relation.multiset_equals(hedged.relation)
        assert split.relation.multiset_equals(oracle)
        assert hedged.metrics.skew_splits == 0
        assert split.metrics.skew_splits > 0
        speedup = (hedged.metrics.response_seconds
                   / split.metrics.response_seconds)
        assert speedup >= 1.5

    def test_default_flags_fuse_the_rounds_and_beat_the_split(self):
        partitions = self.partitions()
        oracle = self.query().evaluate_centralized(
            Relation.concat(list(partitions.values())))
        split = self.run(partitions, skew=SkewPolicy(threshold=1.5))
        fused = self.run(partitions, OptimizationFlags.all(),
                         skew=SkewPolicy(threshold=1.5))
        assert fused.relation.multiset_equals(oracle)
        assert fused.metrics.num_synchronizations == 1
        assert fused.metrics.skew_splits == 0
        assert (fused.metrics.response_seconds
                <= split.metrics.response_seconds)


# ---------------------------------------------------------------------------
# CLI knobs
# ---------------------------------------------------------------------------

class TestCli:
    def test_defaults(self):
        args = build_parser().parse_args(["query", "wh", "select 1"])
        assert args.skew_threshold == 1.5
        assert args.no_skew_split is False

    def test_overrides(self):
        args = build_parser().parse_args(
            ["query", "wh", "select 1", "--skew-threshold", "2.5",
             "--no-skew-split"])
        assert args.skew_threshold == 2.5
        assert args.no_skew_split is True
