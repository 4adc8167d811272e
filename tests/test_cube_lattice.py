"""Property tests for the cuboid lattice (:mod:`repro.cube`).

Three layers, each with its own oracle, and the end-to-end claim:

* **planning** — pure structural invariants of
  :class:`CubeLatticePlan`: sources form the maximal antichain of the
  requested sets, levels descend by width, ``source_for`` picks the
  narrowest covering source, and ``GROUPING()`` bit vectors follow
  Gray et al. §3 (first argument most significant, bit set ⇔ rolled
  up);
* **rollup algebra** — Theorem-1 rollup of captured state relations
  from *any* materialized ancestor equals direct evaluation of the
  target cuboid, including sketch states, NaN group keys, and empty
  inputs;
* **the store** — aggregate/precision/version matching,
  cheapest-ancestor selection, LRU eviction, and byte accounting of
  cube states kept in the sub-aggregate cache's one store;
* **the modeled claim** — on TPCR the lattice equals the naive
  per-cuboid plan and the oracle, ships fewer bytes in one level, and
  answers a slice from the materialized ancestor with 0 bytes from 0
  sites.

Exact aggregates compare via ``multiset_equals`` (bit-identical up to
the documented 9-significant-digit float normalization).  The KLL
quantile sketch is merge-tree-sensitive, so its rollup is checked with
the rank-containment oracle from ``test_differential_sketches`` plus a
determinism check — the same split-oracle contract used everywhere
else in the suite.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tests.seeding import seeded

from repro.errors import QueryError
from repro.relational.aggregates import AggregateSpec, count_star
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.relational.types import DataType
from repro.data.tpch import generate_tpcr
from repro.distributed.engine import SkallaEngine
from repro.distributed.network import ComputeModel
from repro.distributed.partition import partition_round_robin
from repro.distributed.plan import NO_OPTIMIZATIONS, OptimizationFlags
from repro.distributed.transport import SiteRequest
from repro.sketches.kll import DEFAULT_K as KLL_K, rank_error_bound
from repro.sql.parser import parse
from repro.cache import SubAggregateCache
from repro.cube import (
    ALL_MARKER as ALL, CubeLatticePlan, compile_lattice, cube_sets,
    derive_cuboid, execute_lattice, grand_total_expression,
    groupby_expression, rollup_sets, rollup_states, run_centralized,
    stitch_cuboids)
from repro.cube.executor import cuboid_key
from repro.cube.serving import find_ancestor, serve_statement

EXAMPLES = 25

DETAIL_SCHEMA = Schema.of(("a", DataType.INT64), ("b", DataType.INT64),
                          ("c", DataType.FLOAT64), ("q", DataType.INT64))
DIMS = ("a", "b", "c")

EXACT_AGGS = (
    count_star("n"),
    AggregateSpec("sum", "q", "total"),
    AggregateSpec("min", "q", "lo"),
    AggregateSpec("max", "q", "hi"),
    AggregateSpec("avg", "q", "mean"),
    AggregateSpec("approx_count_distinct", "q", "acd"),
)


@st.composite
def details(draw, min_rows=0, max_rows=60):
    """Random detail rows; dimension ``c`` is a float and may be NaN."""
    rows = draw(st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 3),
                  st.sampled_from([0.0, 1.5, -2.25, float("nan")]),
                  st.integers(-40, 40)),
        min_size=min_rows, max_size=max_rows))
    return Relation.from_rows(DETAIL_SCHEMA, rows)


def captured_states(detail, key, aggregates, num_sites=3):
    """Run the source grouping distributed and return its states."""
    engine = SkallaEngine(partition_round_robin(detail, num_sites))
    result = engine.execute(groupby_expression(tuple(key),
                                               list(aggregates)),
                            NO_OPTIMIZATIONS)
    return result.states


def direct(detail, key, aggregates):
    """The centralized oracle for one cuboid.

    The grand total runs through the one-row-spine GMDJ so empty
    input yields the SQL-standard single row, matching the engine.
    """
    if key:
        return groupby_expression(tuple(key), list(aggregates)) \
            .evaluate_centralized(detail)
    return grand_total_expression(list(aggregates)) \
        .evaluate_centralized(detail) \
        .project([spec.alias for spec in aggregates])


# ---------------------------------------------------------------------------
# Lattice planning invariants
# ---------------------------------------------------------------------------

@st.composite
def lattice_plans(draw):
    attrs = tuple(draw(st.lists(st.sampled_from(["a", "b", "c", "d"]),
                                min_size=1, max_size=4, unique=True)))
    pool = [tuple(s) for s in
            draw(st.lists(st.lists(st.sampled_from(attrs),
                                   max_size=len(attrs), unique=True),
                          min_size=1, max_size=6))]
    requested = []
    for subset in pool:
        if subset not in requested:
            requested.append(subset)
    return CubeLatticePlan(attrs=attrs, aggregates=(count_star("n"),),
                           requested=tuple(requested))


class TestLatticePlanning:
    def test_cube_sets_enumerates_the_powerset(self):
        sets = cube_sets(("x", "y", "z"))
        assert len(sets) == 8
        assert len(set(sets)) == 8
        assert sets[0] == ("x", "y", "z")
        assert sets[-1] == ()

    def test_rollup_sets_are_prefixes(self):
        assert rollup_sets(("x", "y", "z")) == (
            ("x", "y", "z"), ("x", "y"), ("x",), ())

    @seeded
    @settings(max_examples=EXAMPLES, deadline=None)
    @given(plan=lattice_plans())
    def test_sources_are_the_maximal_antichain(self, plan):
        sources = plan.sources
        # antichain: no source strictly contains another
        for left in sources:
            for right in sources:
                assert not set(left) < set(right)
        # coverage: every requested cuboid is under some source
        for subset in plan.requested:
            assert any(set(subset) <= set(source) for source in sources)

    @seeded
    @settings(max_examples=EXAMPLES, deadline=None)
    @given(plan=lattice_plans())
    def test_levels_descend_by_width_and_cover_sources(self, plan):
        widths = [len(level[0]) for level in plan.levels]
        assert widths == sorted(widths, reverse=True)
        flattened = [source for level in plan.levels for source in level]
        assert sorted(flattened) == sorted(plan.sources)

    @seeded
    @settings(max_examples=EXAMPLES, deadline=None)
    @given(plan=lattice_plans())
    def test_source_for_picks_the_narrowest_cover(self, plan):
        for subset in plan.requested:
            source = plan.source_for(subset)
            assert set(subset) <= set(source)
            narrower = [s for s in plan.sources
                        if set(subset) <= set(s) and len(s) < len(source)]
            assert not narrower

    def test_full_cube_and_rollup_have_one_source(self):
        for requested in (cube_sets(DIMS), rollup_sets(DIMS)):
            plan = CubeLatticePlan(attrs=DIMS,
                                   aggregates=(count_star("n"),),
                                   requested=requested)
            assert plan.sources == (DIMS,)
            assert len(plan.levels) == 1

    def test_grouping_bits_first_attr_is_most_significant(self):
        plan = CubeLatticePlan(attrs=DIMS, aggregates=(count_star("n"),),
                               requested=cube_sets(DIMS))
        assert plan.grouping_value(DIMS, DIMS) == 0
        assert plan.grouping_value((), DIMS) == 0b111
        assert plan.grouping_value(("b", "c"), DIMS) == 0b100
        assert plan.grouping_value(("a",), DIMS) == 0b011
        # single-attribute form: plain 0/1 indicator
        assert plan.grouping_value(("a",), ("a",)) == 0
        assert plan.grouping_value((), ("a",)) == 1


# ---------------------------------------------------------------------------
# Theorem-1 rollup equals direct evaluation
# ---------------------------------------------------------------------------

class TestRollupEqualsDirect:
    @seeded
    @settings(max_examples=EXAMPLES, deadline=None)
    @given(data=st.data())
    def test_rollup_from_finest_states(self, data):
        """Any coarser cuboid derived from captured states is exact."""
        detail = data.draw(details(min_rows=1))
        key = tuple(data.draw(st.lists(st.sampled_from(DIMS),
                                       min_size=1, max_size=3,
                                       unique=True)))
        subset = tuple(name for name in key
                       if data.draw(st.booleans()))
        states = captured_states(detail, key, EXACT_AGGS)
        derived = derive_cuboid(states, key, subset, EXACT_AGGS,
                                DETAIL_SCHEMA)
        assert derived.multiset_equals(direct(detail, subset, EXACT_AGGS))

    @seeded
    @settings(max_examples=EXAMPLES, deadline=None)
    @given(data=st.data())
    def test_rollup_from_any_ancestor(self, data):
        """Rollup composes: finest → mid → target equals direct.

        This is exactly the materialized-ancestor serving contract —
        a cuboid stored at *any* level of the lattice must answer
        every slice below it.
        """
        detail = data.draw(details(min_rows=1))
        key = ("a", "b", "c")
        mid = tuple(name for name in key if data.draw(st.booleans()))
        target = tuple(name for name in mid if data.draw(st.booleans()))
        states = captured_states(detail, key, EXACT_AGGS)
        mid_states = rollup_states(states, key, mid, EXACT_AGGS,
                                   DETAIL_SCHEMA)
        derived = derive_cuboid(mid_states, mid, target, EXACT_AGGS,
                                DETAIL_SCHEMA)
        assert derived.multiset_equals(direct(detail, target, EXACT_AGGS))

    @seeded
    @settings(max_examples=EXAMPLES, deadline=None)
    @given(data=st.data())
    def test_nan_group_keys_roll_up_like_the_engine(self, data):
        """NaN keys form one group per column, matching centralized."""
        base = data.draw(details(min_rows=1))
        nan_rows = Relation.from_rows(DETAIL_SCHEMA, [
            (0, 0, float("nan"), 7), (1, 2, float("nan"), -3)])
        detail = base.union_all(nan_rows)
        states = captured_states(detail, ("a", "c"), EXACT_AGGS)
        for subset in (("a", "c"), ("c",), ()):
            derived = derive_cuboid(states, ("a", "c"), subset,
                                    EXACT_AGGS, DETAIL_SCHEMA)
            assert derived.multiset_equals(
                direct(detail, subset, EXACT_AGGS)), subset

    def test_empty_states_yield_one_grand_total_row(self):
        """() over empty input matches ``group_by(empty, [], aggs)``."""
        detail = Relation.from_rows(DETAIL_SCHEMA, [])
        states = captured_states(detail, ("a", "b"), EXACT_AGGS)
        assert states.num_rows == 0
        total = derive_cuboid(states, ("a", "b"), (), EXACT_AGGS,
                              DETAIL_SCHEMA)
        assert total.num_rows == 1
        assert total.multiset_equals(direct(detail, (), EXACT_AGGS))
        # non-empty targets stay empty — no phantom groups
        sliced = derive_cuboid(states, ("a", "b"), ("a",), EXACT_AGGS,
                               DETAIL_SCHEMA)
        assert sliced.num_rows == 0

    def test_rollup_to_non_subset_is_rejected(self):
        detail = Relation.from_rows(DETAIL_SCHEMA,
                                    [(0, 1, 2.0, 3), (1, 1, 2.0, 4)])
        states = captured_states(detail, ("a",), EXACT_AGGS)
        with pytest.raises(QueryError):
            rollup_states(states, ("a",), ("b",), EXACT_AGGS,
                          DETAIL_SCHEMA)

    def test_variance_states_combine_by_chan_merge(self):
        """Composite m2 states roll up to the direct variance."""
        aggs = (count_star("n"), AggregateSpec("var", "q", "s2"),
                AggregateSpec("stddev", "q", "sd"))
        rows = [(i % 3, i % 2, float(i % 4), (i * 7) % 23)
                for i in range(200)]
        detail = Relation.from_rows(DETAIL_SCHEMA, rows)
        states = captured_states(detail, ("a", "b"), aggs)
        for subset in (("a",), ("b",), ()):
            derived = derive_cuboid(states, ("a", "b"), subset, aggs,
                                    DETAIL_SCHEMA)
            assert derived.multiset_equals(
                direct(detail, subset, aggs)), subset


# ---------------------------------------------------------------------------
# Sketch-state rollup
# ---------------------------------------------------------------------------

class TestSketchRollup:
    @seeded
    @settings(max_examples=EXAMPLES, deadline=None)
    @given(data=st.data())
    def test_hll_rollup_is_bit_identical(self, data):
        """Register-max merge is rollup-order-insensitive."""
        detail = data.draw(details(min_rows=1))
        aggs = (count_star("n"),
                AggregateSpec("approx_count_distinct", "q", "acd"))
        states = captured_states(detail, ("a", "b"), aggs)
        subset = data.draw(st.sampled_from([("a",), ("b",), ()]))
        derived = derive_cuboid(states, ("a", "b"), subset, aggs,
                                DETAIL_SCHEMA)
        assert derived.multiset_equals(direct(detail, subset, aggs))

    def test_kll_rollup_stays_rank_contained_and_deterministic(self):
        """Quantile sketches roll up within ε and reproducibly.

        KLL merges are deterministic but *merge-tree-sensitive*: the
        rollup merges per-group states in a different order than a
        direct evaluation, so the estimates need not match bit-for-bit.
        The contract is the documented rank bound against the exact
        order statistics — and bit-identity across repeated rollups.
        """
        from tests.test_differential_sketches import assert_rank_contained
        q = 0.75
        aggs = (count_star("n"),
                AggregateSpec("approx_percentile", "q", "pq", param=q))
        rows = [(i % 4, i % 3, float(i % 5), (i * 13) % 211)
                for i in range(600)]
        detail = Relation.from_rows(DETAIL_SCHEMA, rows)
        states = captured_states(detail, ("a", "b"), aggs)
        for subset in (("a",), ()):
            derived = derive_cuboid(states, ("a", "b"), subset, aggs,
                                    DETAIL_SCHEMA)
            again = derive_cuboid(states, ("a", "b"), subset, aggs,
                                  DETAIL_SCHEMA)
            assert derived.multiset_equals(again), "rollup not deterministic"
            values = np.asarray(detail.column("q"), dtype=np.float64)
            a_col = detail.column("a")
            for row in derived.to_dicts():
                group = (values if not subset
                         else values[a_col == row["a"]])
                eps = rank_error_bound(KLL_K, len(group))
                assert_rank_contained(group, row["pq"], q, eps)


# ---------------------------------------------------------------------------
# Cube states in the sub-aggregate cache's store
# ---------------------------------------------------------------------------

def _states_for(detail, key, aggregates=EXACT_AGGS):
    return captured_states(detail, key, aggregates)


def _put(cache, key, states, aggregates=EXACT_AGGS):
    return cache.put_synchronized(
        cuboid_key(key, aggregates, NO_OPTIMIZATIONS), states,
        cache.versions())


@pytest.fixture(scope="module")
def store_detail():
    # c is decorrelated from a/b so wider cuboids really have more rows
    rows = [(i % 4, i % 3, float((i // 12) % 5), (i * 11) % 97)
            for i in range(300)]
    return Relation.from_rows(DETAIL_SCHEMA, rows)


def _ancestor_key(found):
    return found[0].fingerprint[0]


class TestCuboidStore:
    def test_find_ancestor_needs_subset_key_and_fingerprint(
            self, store_detail):
        cache = SubAggregateCache()
        _put(cache, ("a", "b"), _states_for(store_detail, ("a", "b")))
        found = find_ancestor(cache, ("a",), EXACT_AGGS[:2])
        assert _ancestor_key(found) == ("a", "b") and found[1]
        # attribute not covered by any stored key
        assert find_ancestor(cache, ("c",), EXACT_AGGS[:1]) is None
        # aggregate not among the stored ones
        foreign = (AggregateSpec("sum", "q", "other_alias"),)
        assert find_ancestor(cache, ("a",), foreign) is None
        # an append at any site makes the entry stale, not current
        cache.on_append(2, store_detail.take(np.arange(3)))
        __, current = find_ancestor(cache, ("a",), EXACT_AGGS[:1])
        assert not current
        # and a stale stamp is refused at store time
        assert cache.put_synchronized(
            cuboid_key(("a",), EXACT_AGGS, NO_OPTIMIZATIONS),
            _states_for(store_detail, ("a",)), ()) is None

    def test_cheapest_ancestor_wins(self, store_detail):
        cache = SubAggregateCache()
        _put(cache, ("a", "b", "c"),
             _states_for(store_detail, ("a", "b", "c")))
        _put(cache, ("a", "b"), _states_for(store_detail, ("a", "b")))
        found = find_ancestor(cache, ("a",), EXACT_AGGS)
        assert _ancestor_key(found) == ("a", "b")  # fewer state rows

    def test_serve_rolls_up_and_counts(self, store_detail):
        cache = SubAggregateCache()
        _put(cache, ("a", "b"), _states_for(store_detail, ("a", "b")))
        entry, __ = find_ancestor(cache, ("a",), EXACT_AGGS)
        served = derive_cuboid(cache.fulfill_synchronized(entry),
                               ("a", "b"), ("a",), EXACT_AGGS,
                               DETAIL_SCHEMA)
        assert served.multiset_equals(
            direct(store_detail, ("a",), EXACT_AGGS))
        assert cache.stats()["synchronized_hits"] == 1
        assert entry.hits == 1

    def test_lru_eviction_under_byte_budget(self, store_detail):
        wide = _states_for(store_detail, ("a", "b", "c"))
        # measure one entry, then budget for roughly one
        probe = SubAggregateCache()
        _put(probe, ("a", "b", "c"), wide)
        entry_bytes = probe.stats()["used_bytes"]
        cache = SubAggregateCache(budget_bytes=entry_bytes + 16)
        _put(cache, ("a", "b", "c"), wide)
        # a per-site sub-result competes for the same budget and order
        request = SiteRequest(site_id=0, kind="base",
                              base_query=groupby_expression(
                                  ("a",), [count_star("n")]).base)
        assert cache.populate(cache.decide(request), wide)
        assert cache.synchronized() == []
        _put(cache, ("a", "b"), _states_for(store_detail, ("a", "b")))
        _put(cache, ("a", "c"), _states_for(store_detail, ("a", "c")))
        stats = cache.stats()
        assert stats["evictions"] >= 2
        assert stats["used_bytes"] <= stats["budget_bytes"]
        # the LRU victims are the oldest untouched entries
        keys = [entry.fingerprint for entry in cache.store.entries()]
        assert cuboid_key(("a", "b", "c"), EXACT_AGGS,
                          NO_OPTIMIZATIONS) not in keys
        assert all(isinstance(key, tuple) for key in keys)

    def test_oversize_entry_is_refused(self, store_detail):
        cache = SubAggregateCache(budget_bytes=8)
        assert _put(cache, ("a", "b"),
                    _states_for(store_detail, ("a", "b"))) is None
        assert len(cache.store) == 0

    def test_fingerprint_tracks_alias_param_and_precision(
            self, store_detail):
        base = (AggregateSpec("sum", "q", "s"),)

        def key(aggregates, flags=NO_OPTIMIZATIONS):
            return cuboid_key(("a",), aggregates, flags)

        assert key(base) == key((AggregateSpec("sum", "q", "s"),))
        assert key(base) != key((AggregateSpec("sum", "q", "other"),))
        assert key(base) != key(base, OptimizationFlags.all())
        assert key(
            (AggregateSpec("approx_percentile", "q", "p", param=0.5),)
        ) != key((AggregateSpec("approx_percentile", "q", "p", param=0.9),))
        # a stored sketch answers only a request at its own precision
        coarse = (AggregateSpec("approx_count_distinct", "q", "acd",
                                precision=6),)
        cache = SubAggregateCache()
        _put(cache, ("a", "b"),
             _states_for(store_detail, ("a", "b"), coarse), coarse)
        assert find_ancestor(cache, ("a",), coarse) is not None
        assert find_ancestor(cache, ("a",), (AggregateSpec(
            "approx_count_distinct", "q", "acd"),)) is None


# ---------------------------------------------------------------------------
# GROUPING() vs ALL-marker collisions (Gray et al. §3)
# ---------------------------------------------------------------------------

GRAY_SCHEMA = Schema.of(("label", DataType.STRING),
                        ("score", DataType.FLOAT64),
                        ("q", DataType.INT64))


class TestGroupingDisambiguation:
    """The §3 regression: the bit vector, not the value, marks rollup.

    A data value that *collides* with the presentation marker — the
    literal string ``"ALL"`` or a NaN group key — must stay
    distinguishable from a genuinely rolled-up position.
    """

    def run_sql(self, detail, sql):
        from repro.warehouse import Warehouse
        engine = SkallaEngine(partition_round_robin(detail, 2))
        return Warehouse(engine).sql(sql).relation

    def test_literal_all_value_differs_from_rollup_marker(self):
        detail = Relation.from_rows(GRAY_SCHEMA, [
            ("ALL", 1.0, 5), ("ALL", 2.0, 7), ("x", 3.0, 1)])
        result = self.run_sql(
            detail,
            "SELECT label, COUNT(*) AS n, GROUPING(label) AS g "
            "FROM t GROUP BY CUBE (label)")
        rows = {(row["label"], row["g"]): row["n"]
                for row in result.to_dicts()}
        # the data value "ALL" (bit 0) and the rolled-up marker (bit 1)
        # are different rows with different counts
        assert rows[("ALL", 0)] == 2
        assert rows[("x", 0)] == 1
        assert rows[("ALL", 1)] == 3
        assert len(rows) == 3

    def test_nan_group_key_differs_from_rollup_marker(self):
        detail = Relation.from_rows(GRAY_SCHEMA, [
            ("x", float("nan"), 5), ("x", float("nan"), 7),
            ("y", 1.5, 1)])
        result = self.run_sql(
            detail,
            "SELECT score, COUNT(*) AS n, GROUPING(score) AS g "
            "FROM t GROUP BY ROLLUP (score)")
        rows = {(row["score"], row["g"]): row["n"]
                for row in result.to_dicts()}
        assert rows[("nan", 0)] == 2    # NaN is a real group, bit clear
        assert rows[("1.5", 0)] == 1
        assert rows[("ALL", 1)] == 3    # the rollup row, bit set
        assert len(rows) == 3

    def test_grouping_bit_vector_identifies_every_cuboid(self):
        detail = Relation.from_rows(GRAY_SCHEMA, [
            ("ALL", float("nan"), 2), ("x", 1.0, 3), ("x", 1.0, 4)])
        result = self.run_sql(
            detail,
            "SELECT label, score, COUNT(*) AS n, "
            "GROUPING(label, score) AS g "
            "FROM t GROUP BY CUBE (label, score)")
        by_bits = {}
        for row in result.to_dicts():
            by_bits.setdefault(row["g"], []).append(row)
        # all four cuboids present, identified purely by the bits
        assert set(by_bits) == {0b00, 0b01, 0b10, 0b11}
        assert sum(row["n"] for row in by_bits[0b00]) == 3
        [grand] = by_bits[0b11]
        assert grand["n"] == 3
        assert grand["label"] == ALL and grand["score"] == ALL


# ---------------------------------------------------------------------------
# The modeled claim: one scatter per lattice source, not one per cuboid
# ---------------------------------------------------------------------------

class TestModeledWin:
    """Gray et al.'s cube over the wire, as a claim and not a stored
    baseline: the naive plan runs one distributed round per requested
    cuboid (``plan.source_expression(s)`` for every ``s``); the lattice
    scatters the finest grouping once and rolls the rest up at the
    coordinator.  Bytes are the message log's encoded sizes and every
    measure is an integer, so the ratio is reproducible to the bit
    (1.67x at d = 2, 20k TPCR rows, 4 round-robin sites)."""

    NUM_SITES = 4
    NUM_ROWS = 20_000
    SEED = 11
    DIMS = ("MktSegment", "OrderPriority", "ShipMode")
    MEASURES = "COUNT(*) AS n, SUM(Quantity) AS total"
    #: the saving grows with width: a full d-cube derives 2^d - 1
    #: cuboids from one scatter.
    MIN_BYTES_RATIO = {2: 1.2, 3: 1.5}

    @pytest.fixture(scope="class")
    def warehouse(self):
        detail = generate_tpcr(num_rows=self.NUM_ROWS, seed=self.SEED)
        return detail, partition_round_robin(detail, self.NUM_SITES)

    def engine(self, partitions):
        return SkallaEngine(dict(partitions), compute_model=ComputeModel())

    def cube_sql(self, num_dims):
        dims = ", ".join(self.DIMS[:num_dims])
        return (f"SELECT {dims}, {self.MEASURES} FROM T "
                f"GROUP BY CUBE ({dims})")

    @pytest.mark.parametrize("num_dims", [2, 3])
    def test_lattice_is_identical_and_leaner_than_naive(self, warehouse,
                                                        num_dims):
        detail, partitions = warehouse
        sql = self.cube_sql(num_dims)
        flags = OptimizationFlags.all()
        plan = compile_lattice(parse(sql), detail.schema)

        with self.engine(partitions) as engine:
            naive_runs = {s: engine.execute(plan.source_expression(s), flags)
                          for s in plan.requested}
        aliases = [spec.alias for spec in plan.aggregates]
        naive_relation = stitch_cuboids(plan, {
            s: run.relation if s else run.relation.project(aliases)
            for s, run in naive_runs.items()}, detail.schema)
        with self.engine(partitions) as engine:
            execution = execute_lattice(engine, plan, flags)

        assert execution.relation.multiset_equals(naive_relation)
        assert execution.relation.multiset_equals(
            run_centralized(plan, detail))
        naive_bytes = sum(run.metrics.total_bytes
                          for run in naive_runs.values())
        bytes_ratio = naive_bytes / execution.metrics.total_bytes
        assert bytes_ratio >= self.MIN_BYTES_RATIO[num_dims]
        assert execution.metrics.lattice_levels == 1
        assert (execution.metrics.cuboids_derived
                == len(plan.requested) - len(plan.sources))

    def test_slice_is_served_from_the_materialized_ancestor(self,
                                                            warehouse):
        detail, partitions = warehouse
        plan = compile_lattice(parse(self.cube_sql(2)), detail.schema)
        with SkallaEngine(dict(partitions), compute_model=ComputeModel(),
                          cache=True) as engine:
            execute_lattice(engine, plan, OptimizationFlags.all())
            served = serve_statement(engine, parse(
                f"SELECT MktSegment, {self.MEASURES} FROM T "
                f"GROUP BY MktSegment"))
        assert served is not None, "slice missed the materialized ancestor"
        relation, metrics = served
        assert relation.multiset_equals(groupby_expression(
            ["MktSegment"],
            [count_star("n"), AggregateSpec("sum", "Quantity", "total")],
        ).evaluate_centralized(detail))
        assert metrics.ancestor_hits == 1
        assert metrics.total_bytes == 0
        assert metrics.num_participating_sites == 0
