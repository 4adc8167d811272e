"""Tests for the sub-aggregate cache with incremental maintenance.

Covers: fingerprint identity, the LRU byte-budget store, the fragment
version / delta log, the delta-merge boundary (multi-GMDJ steps and
non-decomposable aggregates fall back to full recompute), warm == cold
bit-identity across all three transports, append → delta-maintained ==
full recompute, zero site scans on a fully warm run, and the cache
counters surfaced by metrics / ``explain_analyze`` / the CLI.
"""

import json
import warnings

import pytest

from repro.cache import (
    CacheStore, DeltaLog, SubAggregateCache, delta_mergeable,
    fingerprint_request, encoded_size)
from repro.errors import PlanError
from repro.relational.aggregates import count_star
from repro.relational.expressions import b, r
from repro.relational.relation import Relation
from repro.core.builder import QueryBuilder, agg
from repro.distributed.engine import SkallaEngine
from repro.distributed.explain import explain_analyze
from repro.distributed.partition import partition_round_robin
from repro.distributed.plan import (
    ALL_OPTIMIZATIONS, NO_OPTIMIZATIONS, OptimizationFlags)
from repro.distributed.transport.base import SiteRequest
from repro.optimizer.planner import build_plan


@pytest.fixture()
def detail():
    return Relation.from_dicts([
        {"g": i % 7, "v": float(i), "name": f"n{i % 11}",
         "flag": i % 3 == 0}
        for i in range(600)])


def delta_rows(n=40, offset=5000):
    return Relation.from_dicts([
        {"g": i % 7, "v": float(offset + i), "name": f"n{i % 11}",
         "flag": False}
        for i in range(n)])


def single_gmdj_query():
    return (QueryBuilder()
            .base("g")
            .gmdj([count_star("n"), agg("avg", "v", "m")], r.g == b.g)
            .build())


def correlated_query():
    return (QueryBuilder()
            .base("g")
            .gmdj([count_star("n"), agg("avg", "v", "m")], r.g == b.g)
            .gmdj([count_star("n2")], (r.g == b.g) & (r.v >= b.m))
            .build())


def make_engine(detail, num_sites=3, **kwargs):
    partitions = partition_round_robin(detail, num_sites)
    return SkallaEngine(partitions, **kwargs)


def fresh_reference(engine, query, flags=ALL_OPTIMIZATIONS):
    """Full recompute over the engine's *current* fragments, no cache."""
    ref = SkallaEngine({sid: site.fragment
                        for sid, site in engine.sites.items()})
    return ref.execute(query, flags).relation


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------

class TestFingerprint:
    def base_request(self, query, site_id=0):
        return SiteRequest(site_id=site_id, kind="base",
                           base_query=query.base)

    def test_deterministic(self):
        query = single_gmdj_query()
        assert (fingerprint_request(self.base_request(query))
                == fingerprint_request(self.base_request(query)))

    def test_site_id_distinguishes(self):
        query = single_gmdj_query()
        assert (fingerprint_request(self.base_request(query, 0))
                != fingerprint_request(self.base_request(query, 1)))

    def test_shipped_structure_content_distinguishes(self, detail):
        query = single_gmdj_query()
        plan = build_plan(query, NO_OPTIMIZATIONS, None, detail.schema,
                          sites=[0, 1])
        base_a = Relation.from_dicts([{"g": 1}, {"g": 2}])
        base_b = Relation.from_dicts([{"g": 1}, {"g": 3}])
        make = lambda rel: SiteRequest(  # noqa: E731
            site_id=0, kind="step", step=plan.steps[0], base_relation=rel,
            ship_attrs=("g",), base_query=query.base)
        assert (fingerprint_request(make(base_a))
                != fingerprint_request(make(base_b)))
        assert (fingerprint_request(make(base_a))
                == fingerprint_request(make(base_a)))


# ---------------------------------------------------------------------------
# LRU store under a byte budget
# ---------------------------------------------------------------------------

class TestCacheStore:
    def relation(self, n):
        return Relation.from_dicts(
            [{"k": i, "x": float(i)} for i in range(n)])

    def test_budget_never_exceeded_and_lru_order(self):
        sample = self.relation(50)
        budget = encoded_size(sample) * 3 + 10
        store = CacheStore(budget_bytes=budget)
        for i in range(6):
            store.put(f"fp{i}", site_id=0, version=0,
                      relation=self.relation(50))
            assert store.used_bytes <= store.budget_bytes
        assert len(store) == 3
        # the three most recently inserted survive
        assert [e.fingerprint for e in store.entries()] == \
            ["fp3", "fp4", "fp5"]
        assert store.evictions == 3

    def test_get_refreshes_recency(self):
        sample = self.relation(20)
        store = CacheStore(budget_bytes=encoded_size(sample) * 2 + 10)
        store.put("a", 0, 0, self.relation(20))
        store.put("b", 0, 0, self.relation(20))
        assert store.get("a") is not None  # now "b" is the cold end
        store.put("c", 0, 0, self.relation(20))
        assert "b" not in store
        assert "a" in store and "c" in store

    def test_oversized_entry_rejected(self):
        store = CacheStore(budget_bytes=64)
        assert store.put("big", 0, 0, self.relation(500)) is None
        assert store.rejections == 1
        assert store.used_bytes == 0

    def test_invalid_budget(self):
        with pytest.raises(PlanError):
            CacheStore(budget_bytes=0)

    def test_min_version(self):
        store = CacheStore(budget_bytes=1 << 20)
        store.put("a", 0, 2, self.relation(3))
        store.put("b", 0, 5, self.relation(3))
        store.put("c", 1, 1, self.relation(3))
        assert store.min_version(0) == 2
        assert store.min_version(1) == 1
        assert store.min_version(9) is None


# ---------------------------------------------------------------------------
# Fragment versions and retained deltas
# ---------------------------------------------------------------------------

class TestDeltaLog:
    def test_versions_and_contiguity(self):
        log = DeltaLog()
        assert log.version(0) == 0
        assert log.record_append(0, delta_rows(5)) == 1
        assert log.record_append(0, delta_rows(5, offset=9000)) == 2
        combined = log.deltas_between(0, 0, 2)
        assert combined is not None and combined.num_rows == 10
        assert log.deltas_between(0, 1, 2).num_rows == 5
        assert log.deltas_between(0, 2, 2) is None  # empty span

    def test_pruned_gap_returns_none(self):
        log = DeltaLog()
        log.record_append(0, delta_rows(5))
        log.record_append(0, delta_rows(5))
        log.prune_below(0, 1)  # version-1 delta consumed
        assert log.deltas_between(0, 0, 2) is None
        assert log.deltas_between(0, 1, 2) is not None

    def test_byte_budget_drops_oldest(self):
        log = DeltaLog(max_bytes_per_site=1)
        log.record_append(0, delta_rows(50))
        assert log.retained_deltas(0) == 0  # over budget, dropped
        assert log.version(0) == 1  # version still advanced


# ---------------------------------------------------------------------------
# The delta-merge boundary
# ---------------------------------------------------------------------------

class TestDeltaMergeable:
    def test_projection_base_mergeable(self):
        query = single_gmdj_query()
        request = SiteRequest(site_id=0, kind="base",
                              base_query=query.base)
        assert delta_mergeable(request)

    def test_single_decomposable_step_mergeable(self, detail):
        query = single_gmdj_query()
        plan = build_plan(query, NO_OPTIMIZATIONS, None, detail.schema,
                          sites=[0, 1])
        request = SiteRequest(site_id=0, kind="step", step=plan.steps[0],
                              ship_attrs=("g",), base_query=query.base)
        assert delta_mergeable(request)

    def test_multi_gmdj_step_not_mergeable(self, detail):
        from repro.distributed.partition import partition_by_values
        query = correlated_query()
        flags = OptimizationFlags(sync_reduction=True)
        # Corollary-1 fusion needs the base key to be a partition attr
        partitions, info = partition_by_values(
            detail, "g", {0: [0, 1, 2], 1: [3, 4, 5, 6]})
        plan = build_plan(query, flags, info, detail.schema, sites=[0, 1])
        fused = [step for step in plan.steps if step.num_gmdjs > 1]
        assert fused, "sync reduction should fuse the correlated rounds"
        request = SiteRequest(site_id=0, kind="step", step=fused[0],
                              ship_attrs=("g",), base_query=query.base)
        assert not delta_mergeable(request)

    def test_non_decomposable_aggregate_not_mergeable(self, detail):
        query = (QueryBuilder()
                 .base("g")
                 .gmdj([agg("median", "v", "med")], r.g == b.g)
                 .build())
        plan = build_plan(query, NO_OPTIMIZATIONS, None, detail.schema,
                          sites=[0, 1])
        request = SiteRequest(site_id=0, kind="step", step=plan.steps[0],
                              ship_attrs=("g",), base_query=query.base)
        assert not delta_mergeable(request)


# ---------------------------------------------------------------------------
# Warm == cold, across every transport
# ---------------------------------------------------------------------------

class TestWarmExecution:
    @pytest.mark.parametrize("transport", ["inprocess", "thread", "process"])
    def test_warm_equals_cold_bit_identical(self, detail, transport):
        engine = make_engine(detail, transport=transport, cache=True)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                query = correlated_query()
                cold = engine.execute(query, ALL_OPTIMIZATIONS)
                warm = engine.execute(query, ALL_OPTIMIZATIONS)
        finally:
            engine.close()
        # pure hits return the stored relations: bit-identical results
        assert warm.relation.to_dicts() == cold.relation.to_dicts()
        assert cold.metrics.cache_misses > 0
        assert cold.metrics.cache_hits == 0
        assert warm.metrics.cache_hits > 0
        assert warm.metrics.cache_misses == 0
        assert warm.metrics.site_scans == 0
        assert warm.metrics.cache_bytes_saved > 0

    def test_warm_run_moves_no_modeled_bytes(self, detail):
        engine = make_engine(detail, cache=True)
        query = single_gmdj_query()
        cold = engine.execute(query, ALL_OPTIMIZATIONS)
        warm = engine.execute(query, ALL_OPTIMIZATIONS)
        assert warm.metrics.total_bytes < cold.metrics.total_bytes
        assert warm.metrics.total_bytes == 0  # every round was a hit
        assert warm.metrics.cache_bytes_saved > 0

    def test_different_flags_do_not_collide(self, detail):
        engine = make_engine(detail, cache=True)
        query = correlated_query()
        plain = engine.execute(query, NO_OPTIMIZATIONS)
        optimized = engine.execute(query, ALL_OPTIMIZATIONS)
        assert plain.relation.multiset_equals(optimized.relation)


# ---------------------------------------------------------------------------
# Append → incremental maintenance
# ---------------------------------------------------------------------------

class TestDeltaMaintenance:
    def test_delta_merge_matches_full_recompute(self, detail):
        engine = make_engine(detail, cache=True)
        query = single_gmdj_query()
        engine.execute(query, ALL_OPTIMIZATIONS)
        engine.append(0, delta_rows())
        maintained = engine.execute(query, ALL_OPTIMIZATIONS)
        assert maintained.metrics.cache_delta_merges > 0
        assert maintained.metrics.site_scans == 0
        expected = fresh_reference(engine, query)
        assert maintained.relation.multiset_equals(expected)
        # the upgraded entries serve the next run as pure hits
        warm = engine.execute(query, ALL_OPTIMIZATIONS)
        assert warm.metrics.cache_hits > 0
        assert warm.metrics.cache_delta_merges == 0
        assert warm.relation.multiset_equals(expected)

    def test_delta_merge_ships_less_than_recompute(self, detail):
        """After an append the maintained run moves only the delta's
        sub-aggregates (modeled bytes): strictly less than the cold
        recompute of the same query on the same grown fragments."""
        engine = make_engine(detail, cache=True)
        query = single_gmdj_query()
        engine.execute(query, ALL_OPTIMIZATIONS)
        engine.append(0, delta_rows())
        maintained = engine.execute(query, ALL_OPTIMIZATIONS)
        engine.cache.clear()
        recomputed = engine.execute(query, ALL_OPTIMIZATIONS)
        assert recomputed.metrics.cache_misses > 0
        assert recomputed.metrics.site_scans > 0
        assert (maintained.metrics.total_bytes
                < recomputed.metrics.total_bytes)
        assert maintained.relation.multiset_equals(recomputed.relation)

    def test_multiple_appends_coalesce_into_one_delta(self, detail):
        engine = make_engine(detail, cache=True)
        query = single_gmdj_query()
        engine.execute(query, ALL_OPTIMIZATIONS)
        engine.append(1, delta_rows(10, offset=7000))
        engine.append(1, delta_rows(10, offset=8000))
        engine.append(1, delta_rows(10, offset=9000))
        maintained = engine.execute(query, ALL_OPTIMIZATIONS)
        assert maintained.metrics.cache_delta_merges > 0
        assert maintained.relation.multiset_equals(
            fresh_reference(engine, query))

    def test_correlated_query_after_append_is_correct(self, detail):
        # step 2 ships a changed base structure → misses; base round and
        # step 1 of the appended site delta-merge.  Either way: correct.
        engine = make_engine(detail, cache=True)
        query = correlated_query()
        engine.execute(query, NO_OPTIMIZATIONS)
        engine.append(2, delta_rows())
        after = engine.execute(query, NO_OPTIMIZATIONS)
        assert after.relation.multiset_equals(
            fresh_reference(engine, query, NO_OPTIMIZATIONS))

    def test_sync_reduced_step_falls_back_to_recompute(self, detail):
        from repro.distributed.partition import partition_by_values
        # partition on the base key so Corollary 1 fuses the rounds
        # into one multi-GMDJ step
        partitions, info = partition_by_values(
            detail, "g", {0: [0, 1, 2], 1: [3, 4, 5, 6]})
        engine = SkallaEngine(partitions, info, cache=True)
        query = correlated_query()
        flags = OptimizationFlags(sync_reduction=True)
        engine.execute(query, flags)
        rows = delta_rows(21, offset=6001)
        rows = rows.filter(rows.column("g") <= 2)  # site 0's φ: g ∈ {0,1,2}
        engine.append(0, rows)
        after = engine.execute(query, flags)
        # the fused multi-GMDJ step is not delta-mergeable; the appended
        # site recomputes in full and the result is still right
        assert engine.cache.full_recomputes_after_append > 0
        assert after.relation.multiset_equals(
            fresh_reference(engine, query, flags))

    def test_pruned_delta_gap_recomputes(self, detail):
        engine = make_engine(detail, cache=True)
        engine.cache.log.max_bytes_per_site = 1  # retain nothing
        query = single_gmdj_query()
        engine.execute(query, ALL_OPTIMIZATIONS)
        engine.append(0, delta_rows())
        after = engine.execute(query, ALL_OPTIMIZATIONS)
        assert after.metrics.cache_delta_merges == 0
        assert after.relation.multiset_equals(
            fresh_reference(engine, query))

    @pytest.mark.parametrize("transport", ["thread", "process"])
    def test_append_then_delta_parity_across_transports(self, detail,
                                                        transport):
        engine = make_engine(detail, transport=transport, cache=True)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                query = single_gmdj_query()
                engine.execute(query, ALL_OPTIMIZATIONS)
                engine.append(0, delta_rows())
                maintained = engine.execute(query, ALL_OPTIMIZATIONS)
        finally:
            engine.close()
        assert maintained.metrics.cache_delta_merges > 0
        assert maintained.relation.multiset_equals(
            fresh_reference(engine, query))


# ---------------------------------------------------------------------------
# Engine API, metrics, and reporting
# ---------------------------------------------------------------------------

class TestCacheSurface:
    def test_cache_disabled_by_default(self, detail):
        engine = make_engine(detail)
        assert not engine.cache_enabled
        result = engine.execute(single_gmdj_query(), ALL_OPTIMIZATIONS)
        assert result.metrics.cache_enabled is False
        assert result.metrics.cache_hits == 0

    def test_enable_is_idempotent(self, detail):
        engine = make_engine(detail)
        cache = engine.enable_cache(budget_mb=1.0)
        assert engine.enable_cache() is cache
        assert engine.cache is cache
        assert cache.store.budget_bytes == 1 << 20

    def test_invalid_budget_rejected(self, detail):
        engine = make_engine(detail)
        with pytest.raises(PlanError):
            engine.enable_cache(budget_mb=0)

    def test_custom_cache_instance(self, detail):
        cache = SubAggregateCache(budget_bytes=1 << 20)
        engine = make_engine(detail, cache=cache)
        assert engine.cache is cache
        engine.execute(single_gmdj_query(), ALL_OPTIMIZATIONS)
        assert cache.stats()["entries"] > 0
        assert "sub-aggregate cache" in cache.describe()

    def test_metrics_as_dict_json_round_trips(self, detail):
        engine = make_engine(detail, cache=True)
        result = engine.execute(correlated_query(), ALL_OPTIMIZATIONS)
        exported = result.metrics.as_dict()
        decoded = json.loads(json.dumps(exported))
        assert decoded["cache_enabled"] is True
        assert decoded["cache_misses"] == result.metrics.cache_misses
        assert decoded["phases"][0]["site_scans"] >= 1
        assert {"site_seconds", "real_bytes", "cache_hits"} <= \
            set(decoded["phases"][0])

    def test_explain_analyze_reports_cache(self, detail):
        engine = make_engine(detail, cache=True)
        query = single_gmdj_query()
        engine.execute(query, ALL_OPTIMIZATIONS)
        warm = engine.execute(query, ALL_OPTIMIZATIONS)
        report = explain_analyze(warm)
        assert "sub-aggregate cache:" in report
        assert "delta merges" in report
        assert "site scans     : 0" in report

    def test_explain_analyze_silent_without_cache(self, detail):
        engine = make_engine(detail)
        result = engine.execute(single_gmdj_query(), ALL_OPTIMIZATIONS)
        assert "sub-aggregate cache:" not in explain_analyze(result)

    def test_lru_eviction_under_tiny_engine_budget(self, detail):
        # a budget that fits roughly one sub-result forces churn but
        # never wrong answers
        engine = make_engine(detail, cache=True)
        engine.cache.store.budget_bytes = 600
        query = correlated_query()
        first = engine.execute(query, ALL_OPTIMIZATIONS)
        second = engine.execute(query, ALL_OPTIMIZATIONS)
        assert engine.cache.store.used_bytes <= 600
        assert second.relation.multiset_equals(first.relation)


# ---------------------------------------------------------------------------
# Modeled traffic counts only what crossed the wire
# ---------------------------------------------------------------------------

class TestWireAccounting:
    @staticmethod
    def sketch_query():
        return (QueryBuilder()
                .base("g")
                .gmdj([agg("approx_count_distinct", "v", "d")], r.g == b.g)
                .build())

    def test_sketch_bytes_count_only_shipped_sub_results(self, detail):
        """A cache hit ships no sketch state and no exact-shipping
        counterfactual; a delta merge ships the delta's only."""
        engine = make_engine(detail, cache=True)
        query = self.sketch_query()
        cold = engine.execute(query, NO_OPTIMIZATIONS).metrics
        warm = engine.execute(query, NO_OPTIMIZATIONS).metrics
        engine.append(0, delta_rows())
        delta = engine.execute(query, NO_OPTIMIZATIONS).metrics
        assert cold.sketch_state_bytes > 0
        per_row = cold.sketch_exact_bytes // detail.num_rows
        assert cold.sketch_exact_bytes == per_row * detail.num_rows
        assert warm.cache_hits > 0 and warm.total_bytes == 0
        assert (warm.sketch_state_bytes, warm.sketch_exact_bytes) == (0, 0)
        assert delta.cache_delta_merges > 0
        assert 0 < delta.sketch_state_bytes < cold.sketch_state_bytes
        assert delta.sketch_exact_bytes == per_row * 40

    def test_flat_counterfactual_counts_delta_messages(self, detail):
        """On the flat star the root hears exactly what flat would: the
        cache-delta messages belong to both sides of the ratio."""
        engine = make_engine(detail, cache=True)
        engine.execute(single_gmdj_query(), NO_OPTIMIZATIONS)
        engine.append(0, delta_rows())
        metrics = engine.execute(single_gmdj_query(),
                                 NO_OPTIMIZATIONS).metrics
        assert metrics.cache_delta_merges > 0
        assert metrics.root_ingress_bytes > 0
        assert metrics.flat_ingress_bytes == metrics.root_ingress_bytes
        assert metrics.ingress_reduction_ratio == 1.0
