"""Differential/property oracle harness for distributed execution.

Randomized GMDJ plans (hypothesis — seeded via ``REPRO_TEST_SEED``,
shrinkable, reproducible from the printed blob) are executed on the
distributed :class:`SkallaEngine` and compared **bit-identically**
(``multiset_equals``) against the single-site oracle
``GmdjExpression.evaluate_centralized`` over the same detail rows.

Coverage axes:

* all three transports — ``inprocess`` (fresh random data + random
  partitioning per example), ``thread`` and ``process`` (fixed
  module-scoped warehouses; each example draws only a plan, so the
  process pool spawns once, not per example);
* in-order vs deliberately *out-of-order* gather (a shuffling
  transport that serves each round's requests in a random order —
  Theorem 1 synchronization must not care who answers first);
* with and without the sub-aggregate cache (cold + warm runs must
  both match the oracle);
* with and without group-reduction optimizations;
* execution is always the flat star; what an aggregation tree would
  cost is priced from these runs' round logs, and
  ``tests/test_pricing.py::TestPricingProperty`` checks that price
  over this file's plan generator (the CI differential stage runs it
  beside this file);
* distribution knowledge registered (the paper's Sect. 5.1 CustKey /
  CustName ranges over a NationKey partitioning): keys that contain a
  partition attribute synchronize by **union**, the rest keyed — both
  against the oracle across transports, cold/warm/delta cache states
  and forced skew splits, plus union == keyed bit for bit
  and a φ_i-violating ``engine.append`` refused with the cache intact;
* *observed* knowledge only (hash-partitioned on ``g`` with an empty
  ``DistributionInfo()``): ``g`` is found site-disjoint and unions,
  cold / warm / delta, until an append puts a ``g`` on a second site
  and withdraws the fact — on every transport;
* a knowledge axis: declared or nothing declared × a range-placed
  STRING or hash-placed INT64 key × appends that widen a range or
  clash — the same answers bit for bit, and a clash refused where
  declared, withdrawing the observed fact (one epoch move) where not;
* adversarially *skewed* data (Zipf 1.1/1.5/2.0, one dominant key,
  everything on one site) with skew-aware virtual-site splitting
  forced on (threshold 1.0) — split runs must stay bit-identical to
  both the oracle and the unsplit run, across placements, transports,
  and cold/warm cache states;
* a wide INT64 measure ``w`` (values near ±2^52, so a few rows already
  sum past float64's exact range) drawn into COUNT / SUM / MIN / MAX
  beside the other measures — integer merging must stay exact at every
  merge point.

Example counts scale with ``REPRO_DIFFERENTIAL_EXAMPLES`` (default 25
per test for tier-1 speed; CI and ``make test-differential`` run the
full 200 per transport under three distinct seeds).
"""

from __future__ import annotations

import dataclasses
import os
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tests.seeding import active_seed, seeded

from repro.core.builder import QueryBuilder, agg
from repro.data.flows import generate_flows
from repro.data.tpch import (
    TpcrConfig, custkey_ranges, customer_name, generate_tpcr,
    nation_assignment)
from repro.distributed.engine import SkallaEngine
from repro.distributed.partition import (
    DistributionInfo, RangeConstraint, ValueSetConstraint,
    partition_by_hash, partition_by_ranges, partition_by_values,
    partition_round_robin)
from repro.distributed.plan import OptimizationFlags
from repro.errors import PartitionError
from repro.optimizer.planner import build_plan
from repro.distributed.transport.inprocess import InProcessTransport
from repro.relational.aggregates import count_star
from repro.relational.expressions import b, r
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.relational.types import DataType
from repro.skew import SkewPolicy

#: examples per hypothesis test (CI cranks this to 200).
EXAMPLES = int(os.environ.get("REPRO_DIFFERENTIAL_EXAMPLES", "25"))

DETAIL_SCHEMA = Schema.of(("g", DataType.INT64), ("h", DataType.INT64),
                          ("v", DataType.FLOAT64), ("w", DataType.INT64))

#: Values of the wide integer measure: near ±2^52, so a group of four
#: rows already sums past 2^53, and a group of at most 2^10 rows stays
#: inside int64.
WIDE = 2 ** 52
WIDE_VALUES = st.one_of(st.integers(WIDE - 2 ** 20, WIDE),
                        st.integers(-WIDE, -WIDE + 2 ** 20))

#: attribute pool for random plans over the flow warehouse.
FLOW_GROUPS = ["SourceAS", "DestAS", "RouterId"]
FLOW_MEASURES = ["NumBytes", "NumPackets"]

FLAG_CHOICES = [
    OptimizationFlags(),
    OptimizationFlags(coalesce=True),
    OptimizationFlags(group_reduction_independent=True),
    OptimizationFlags.all(),
]


class ShufflingTransport(InProcessTransport):
    """Serves each round's requests in a random order.

    The engine consumes responses keyed by site id, and Theorem 1
    synchronization is order-insensitive — so a permuted completion
    order (what a real scatter produces) must never change results.
    The permutation is drawn from a dedicated RNG so runs stay
    reproducible under ``REPRO_TEST_SEED``.
    """

    name = "shuffling"

    def __init__(self, sites, retry=None, seed=None, **options):
        super().__init__(sites, retry=retry, **options)
        self._order = random.Random(seed if seed is not None
                                    else active_seed())

    def run_round(self, requests):
        shuffled = list(requests)
        self._order.shuffle(shuffled)
        return super().run_round(shuffled)


# ---------------------------------------------------------------------------
# Plan strategies
# ---------------------------------------------------------------------------

@st.composite
def small_details(draw, min_rows=1, max_rows=80):
    rows = draw(st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 3),
                  st.floats(-1000, 1000, allow_nan=False, width=32),
                  WIDE_VALUES),
        min_size=min_rows, max_size=max_rows))
    return Relation.from_rows(DETAIL_SCHEMA, rows)


def _aggregates(draw, measure_pool, index):
    """One round's aggregate list over ``measure_pool`` columns.

    ``approx_count_distinct`` joins the exact pool because HyperLogLog's
    register-max merge is *partition-insensitive*: the distributed
    estimate is bit-identical to the centralized oracle's, so it can
    share the ``multiset_equals`` comparison.  (The quantile sketch is
    deterministic but partition-*sensitive* — its differential coverage
    lives in ``test_differential_sketches.py`` with an ε oracle.)
    """
    specs = [count_star(f"n{index}")]
    for position, func in enumerate(draw(st.lists(
            st.sampled_from(["sum", "min", "max", "avg",
                             "approx_count_distinct"]),
            min_size=0, max_size=2))):
        column = draw(st.sampled_from(measure_pool))
        specs.append(agg(func, column, f"x{index}_{position}"))
    return specs


def _wide_aggregates(draw, index):
    """COUNT / SUM / MIN / MAX over the wide integer measure ``w``."""
    return [agg(func, "w", f"w{index}_{position}")
            for position, func in enumerate(draw(st.lists(
                st.sampled_from(["count", "sum", "min", "max"]),
                max_size=2)))]


@st.composite
def synthetic_plans(draw):
    """A 1–2 round GMDJ expression over the g/h/v schema."""
    base_attrs = draw(st.sampled_from([("g",), ("g", "h")]))
    builder = QueryBuilder().base(*base_attrs)
    num_rounds = draw(st.integers(1, 2))
    for index in range(num_rounds):
        condition = r.g == b.g
        if "h" in base_attrs and draw(st.booleans()):
            condition = condition & (r.h == b.h)
        variant = draw(st.integers(0, 2))
        if variant == 1:
            threshold = draw(st.floats(-500, 500, allow_nan=False,
                                       width=32))
            condition = condition & (r.v >= threshold)
        elif variant == 2 and index > 0:
            # correlated: compare the detail against a prior round's
            # aggregate (the paper's multi-round killer feature).
            condition = condition & (r.v <= b.n0 * 100.0)
        builder = builder.gmdj(
            _aggregates(draw, ["v"], index) + _wide_aggregates(draw, index),
            condition)
    return builder.build()


@st.composite
def flow_plans(draw):
    """A 1–2 round GMDJ expression over the flow schema."""
    attrs = draw(st.lists(st.sampled_from(FLOW_GROUPS), min_size=1,
                          max_size=2, unique=True))
    builder = QueryBuilder().base(*attrs)
    for index in range(draw(st.integers(1, 2))):
        condition = None
        for attr in attrs:
            term = getattr(r, attr) == getattr(b, attr)
            condition = term if condition is None else condition & term
        if draw(st.booleans()):
            measure = draw(st.sampled_from(FLOW_MEASURES))
            threshold = draw(st.integers(0, 5_000))
            condition = condition & (getattr(r, measure) >= threshold)
        builder = builder.gmdj(
            _aggregates(draw, FLOW_MEASURES, index), condition)
    return builder.build()


# ---------------------------------------------------------------------------
# Fixed warehouses for the pooled transports
# ---------------------------------------------------------------------------

def _flow_detail() -> Relation:
    return generate_flows(num_flows=1_200, num_routers=4, num_source_as=8,
                          num_dest_as=4, seed=active_seed(21))


@pytest.fixture(scope="module")
def flow_detail() -> Relation:
    return _flow_detail()


def _pooled_engine(detail: Relation, transport: str) -> SkallaEngine:
    partitions = partition_round_robin(detail, 4)
    return SkallaEngine(partitions, transport=transport, cache=True)


@pytest.fixture(scope="module")
def thread_engine(flow_detail):
    with _pooled_engine(flow_detail, "thread") as engine:
        yield engine


@pytest.fixture(scope="module")
def process_engine(flow_detail):
    with _pooled_engine(flow_detail, "process") as engine:
        yield engine


# ---------------------------------------------------------------------------
# The differential tests
# ---------------------------------------------------------------------------

class TestInProcessDifferential:
    """Fresh random data + partitioning + plan per example."""

    @seeded
    @settings(max_examples=EXAMPLES, deadline=None)
    @given(data=st.data())
    def test_matches_oracle(self, data):
        detail = data.draw(small_details())
        expression = data.draw(synthetic_plans())
        num_sites = data.draw(st.integers(1, 4))
        assignment = np.array(data.draw(st.lists(
            st.integers(0, num_sites - 1), min_size=detail.num_rows,
            max_size=detail.num_rows)))
        partitions = {site: detail.filter(assignment == site)
                      for site in range(num_sites)}
        flags = data.draw(st.sampled_from(FLAG_CHOICES))
        use_cache = data.draw(st.booleans())
        reference = expression.evaluate_centralized(detail)
        engine = SkallaEngine(partitions, cache=use_cache)
        result = engine.execute(expression, flags)
        assert result.relation.multiset_equals(reference), \
            flags.describe()
        if use_cache:
            warm = engine.execute(expression, flags)
            assert warm.relation.multiset_equals(reference)

    @seeded
    @settings(max_examples=EXAMPLES, deadline=None)
    @given(data=st.data())
    def test_out_of_order_gather_matches_oracle(self, data):
        detail = data.draw(small_details())
        expression = data.draw(synthetic_plans())
        num_sites = data.draw(st.integers(2, 4))
        partitions = partition_round_robin(detail, num_sites)
        flags = data.draw(st.sampled_from(FLAG_CHOICES))
        reference = expression.evaluate_centralized(detail)
        engine = SkallaEngine(partitions, cache=data.draw(st.booleans()))
        engine.use_transport(ShufflingTransport(
            engine.sites, seed=data.draw(st.integers(0, 2**16))))
        result = engine.execute(expression, flags)
        assert result.relation.multiset_equals(reference), \
            flags.describe()


class PooledDifferentialMixin:
    """Shared body: fixed warehouse, random plans, scatter dispatch."""

    def run_case(self, engine, data):
        expression = data.draw(flow_plans())
        flags = data.draw(st.sampled_from(FLAG_CHOICES))
        reference = expression.evaluate_centralized(
            engine.total_detail_relation())
        cold = engine.execute(expression, flags)
        assert cold.relation.multiset_equals(reference), flags.describe()
        # warm rerun through the (always-on) sub-aggregate cache
        warm = engine.execute(expression, flags)
        assert warm.relation.multiset_equals(reference), flags.describe()


class TestThreadDifferential(PooledDifferentialMixin):
    @seeded
    @settings(max_examples=EXAMPLES, deadline=None)
    @given(data=st.data())
    def test_matches_oracle(self, thread_engine, data):
        self.run_case(thread_engine, data)


class TestProcessDifferential(PooledDifferentialMixin):
    @seeded
    @settings(max_examples=EXAMPLES, deadline=None)
    @given(data=st.data())
    def test_matches_oracle(self, process_engine, data):
        self.run_case(process_engine, data)


# ---------------------------------------------------------------------------
# Adversarially skewed workloads under skew-aware repartitioning
# ---------------------------------------------------------------------------
#
# The split path must stay bit-identical on exactly the data it was
# built for: Zipf key frequencies, one dominant key, and everything
# piled on one site.  Measures are integers so every aggregate is
# exact and the comparison is bit-for-bit (same oracle contract as the
# rest of the file).  The threshold is forced to 1.0 so splits fire on
# every example, not only extreme ones.

SKEW_SCHEMA = Schema.of(("g", DataType.INT64), ("h", DataType.INT64),
                        ("q", DataType.INT64), ("w", DataType.INT64))

FORCED_SKEW = SkewPolicy(threshold=1.0)


def _wide(key: int, row: int) -> int:
    """A wide ``w`` value whose sign follows the key: sums grow."""
    return (1 if key % 2 else -1) * (WIDE - (key * 31 + row * 7) % 4096)


def zipf_detail(s: float, keys: int = 24, total: int = 400) -> Relation:
    """Rank-r key holds ~1/r^s of the rows; fully deterministic."""
    weights = [1.0 / (rank ** s) for rank in range(1, keys + 1)]
    scale = sum(weights)
    rows = []
    for rank, weight in enumerate(weights, start=1):
        count = max(1, int(total * weight / scale))
        rows.extend((rank, rank % 3, (rank * 13 + i * 5) % 97,
                     _wide(rank, i)) for i in range(count))
    return Relation.from_rows(SKEW_SCHEMA, rows)


def dominant_detail(total: int = 300) -> Relation:
    """One key holds 90% of the rows; a light tail holds the rest."""
    rows = [(7, 1, (i * 11) % 50, _wide(7, i))
            for i in range(total * 9 // 10)]
    rows += [(key, key % 3, (key * 7 + i) % 50, _wide(key, i))
             for i, key in enumerate(range(20, 50))]
    return Relation.from_rows(SKEW_SCHEMA, rows)


@st.composite
def skew_details(draw):
    kind = draw(st.sampled_from(["zipf-1.1", "zipf-1.5", "zipf-2.0",
                                 "dominant"]))
    if kind == "dominant":
        return dominant_detail()
    return zipf_detail(float(kind.split("-")[1]))


@st.composite
def skew_plans(draw):
    """1–2 round plans over g/h with integer-exact aggregates on q."""
    base_attrs = draw(st.sampled_from([("g",), ("g", "h")]))
    builder = QueryBuilder().base(*base_attrs)
    for index in range(draw(st.integers(1, 2))):
        condition = r.g == b.g
        if "h" in base_attrs and draw(st.booleans()):
            condition = condition & (r.h == b.h)
        if draw(st.booleans()):
            condition = condition & (r.q >= draw(st.integers(0, 60)))
        specs = [count_star(f"n{index}")]
        for position, func in enumerate(draw(st.lists(
                st.sampled_from(["sum", "min", "max", "avg"]),
                max_size=2))):
            specs.append(agg(func, "q", f"x{index}_{position}"))
        builder = builder.gmdj(specs + _wide_aggregates(draw, index),
                               condition)
    return builder.build()


def skewed_placement(data, detail, num_sites):
    """Hash (heavy key concentrates), one-site, or round-robin."""
    placement = data.draw(st.sampled_from(["hash", "one-site",
                                           "round-robin"]))
    if placement == "hash":
        groups = np.asarray(detail.column("g"))
        assignment = groups % num_sites
        return {site: detail.filter(assignment == site)
                for site in range(num_sites)}
    if placement == "one-site":
        empty = detail.filter(np.zeros(detail.num_rows, dtype=bool))
        partitions = {site: empty for site in range(1, num_sites)}
        partitions[0] = detail
        return partitions
    return partition_round_robin(detail, num_sites)


class TestSkewDifferential:
    """Forced virtual-site splitting vs the oracle and the unsplit run."""

    @seeded
    @settings(max_examples=EXAMPLES, deadline=None)
    @given(data=st.data())
    def test_matches_oracle_and_unsplit(self, data):
        detail = data.draw(skew_details())
        expression = data.draw(skew_plans())
        num_sites = data.draw(st.integers(2, 4))
        partitions = skewed_placement(data, detail, num_sites)
        flags = data.draw(st.sampled_from(FLAG_CHOICES))
        use_cache = data.draw(st.booleans())
        reference = expression.evaluate_centralized(detail)
        baseline = SkallaEngine(dict(partitions)).execute(
            expression, flags)
        engine = SkallaEngine(dict(partitions), cache=use_cache,
                              skew=FORCED_SKEW)
        result = engine.execute(expression, flags)
        assert result.relation.multiset_equals(reference), \
            flags.describe()
        assert result.relation.multiset_equals(baseline.relation)
        if use_cache:
            warm = engine.execute(expression, flags)
            assert warm.relation.multiset_equals(reference)

def _skewed_warehouse_detail() -> Relation:
    return zipf_detail(1.5, keys=40, total=2_000)


def _skewed_pooled_engine(detail: Relation,
                          transport: str) -> SkallaEngine:
    groups = np.asarray(detail.column("g"))
    partitions = {site: detail.filter(groups % 4 == site)
                  for site in range(4)}
    return SkallaEngine(partitions, transport=transport, cache=True,
                        skew=FORCED_SKEW)


@pytest.fixture(scope="module")
def skew_thread_engine():
    with _skewed_pooled_engine(_skewed_warehouse_detail(),
                               "thread") as engine:
        yield engine


@pytest.fixture(scope="module")
def skew_process_engine():
    with _skewed_pooled_engine(_skewed_warehouse_detail(),
                               "process") as engine:
        yield engine


class SkewPooledMixin:
    """Fixed Zipf warehouse, forced splits, cold + warm per plan."""

    def run_case(self, engine, data):
        expression = data.draw(skew_plans())
        flags = data.draw(st.sampled_from(FLAG_CHOICES))
        reference = expression.evaluate_centralized(
            engine.total_detail_relation())
        cold = engine.execute(expression, flags)
        assert cold.relation.multiset_equals(reference), flags.describe()
        warm = engine.execute(expression, flags)
        assert warm.relation.multiset_equals(reference), flags.describe()


class TestSkewThreadDifferential(SkewPooledMixin):
    @seeded
    @settings(max_examples=EXAMPLES, deadline=None)
    @given(data=st.data())
    def test_matches_oracle(self, skew_thread_engine, data):
        self.run_case(skew_thread_engine, data)


class TestSkewProcessDifferential(SkewPooledMixin):
    @seeded
    @settings(max_examples=EXAMPLES, deadline=None)
    @given(data=st.data())
    def test_matches_oracle(self, skew_process_engine, data):
        self.run_case(skew_process_engine, data)


# ---------------------------------------------------------------------------
# Distribution knowledge registered: union synchronization (Cor. 1)
# ---------------------------------------------------------------------------
#
# The warehouses above carry no distribution knowledge, so every plan
# synchronizes keyed.  This one is the paper's Sect. 5.1 setup — TPCR by
# NationKey with each site's CustKey / CustName range registered — so a
# key that contains CustKey or CustName is proved site-disjoint and the
# coordinator synchronizes it by union; Clerk / OrderKey keys prove
# nothing and stay keyed.  Both must match the centralized oracle across
# transports, cold / warm / delta-merged cache states and forced skew
# splits.  Correlated conditions compare against an integer
# measure's average (sum and count are exact in any merge order).

TPCR_KEYS = [("CustName",), ("CustKey",), ("CustKey", "CustName"),
             ("CustName", "Clerk"), ("Clerk",), ("OrderKey",)]
TPCR_PARTITION_ATTRS = {"CustKey", "CustName", "NationKey"}
TPCR_MEASURES = ["Quantity", "ExtendedPrice", "Discount"]
TPCR_SITES = 4


@st.composite
def tpcr_plans(draw):
    """A 1–3 round expression keyed on a partition attribute or not."""
    attrs = draw(st.sampled_from(TPCR_KEYS))
    builder = QueryBuilder().base(*attrs)
    for index in range(draw(st.integers(1, 3))):
        condition = None
        for attr in attrs:
            term = getattr(r, attr) == getattr(b, attr)
            condition = term if condition is None else condition & term
        variant = draw(st.integers(0, 3))
        if variant == 1:
            condition = condition & (
                r.Quantity >= draw(st.integers(0, 50)))
        elif variant == 2 and index > 0:
            # the paper's THEN COMPUTE ... WHERE x >= avg1 round
            condition = condition & (r.Quantity >= b.q0)
        elif variant == 3 and index > 0:
            condition = (condition & (r.Quantity >= b.q0 * 0.5)
                         & (r.Quantity < b.q0 * 1.5))
        specs = [count_star(f"n{index}"),
                 agg("avg", "Quantity", f"q{index}")]
        for position, func in enumerate(draw(st.lists(
                st.sampled_from(["sum", "min", "max", "avg",
                                 "approx_count_distinct"]), max_size=2))):
            specs.append(agg(func, draw(st.sampled_from(TPCR_MEASURES)),
                             f"x{index}_{position}"))
        builder = builder.gmdj(specs, condition)
    return builder.build()


@pytest.fixture(scope="module")
def tpcr_partitions():
    """(fragments, info): NationKey partitioning over 4 sites plus the
    CustKey / CustName range knowledge."""
    customers = 250      # a multiple of the 25 nations: exact key ranges
    relation = generate_tpcr(TpcrConfig(
        num_rows=1_200, num_customers=customers, clerk_pool=40,
        seed=active_seed(33)))
    partitions, info = partition_by_values(
        relation, "NationKey", nation_assignment(TPCR_SITES))
    for site, (low, high) in custkey_ranges(TPCR_SITES, customers).items():
        info.add(site, "CustKey", RangeConstraint(low, high))
        info.add(site, "CustName", RangeConstraint(customer_name(low),
                                                   customer_name(high)))
    return partitions, info


def _knowledge_engine(tpcr_partitions, transport=None, skew=None,
                      cache=True) -> SkallaEngine:
    partitions, info = tpcr_partitions
    return SkallaEngine(dict(partitions), info, transport=transport,
                        cache=cache, skew=skew)


@pytest.fixture(scope="module")
def knowledge_thread_engine(tpcr_partitions):
    with _knowledge_engine(tpcr_partitions, "thread") as engine:
        yield engine


@pytest.fixture(scope="module")
def knowledge_process_engine(tpcr_partitions):
    with _knowledge_engine(tpcr_partitions, "process") as engine:
        yield engine


@pytest.fixture(scope="module")
def knowledge_skew_engine(tpcr_partitions):
    with _knowledge_engine(tpcr_partitions, skew=FORCED_SKEW) as engine:
        yield engine


def assert_same_rows(left: Relation, right: Relation) -> None:
    """The same rows in the same order, bit for bit."""
    assert left.schema == right.schema
    for name in left.schema.names:
        got, want = left.column(name), right.column(name)
        if got.dtype == object:
            assert got.tolist() == want.tolist(), name
        else:
            assert got.tobytes() == want.tobytes(), name


def site_disjoint_attrs(engine) -> set[str]:
    """The columns an engine may observe site-disjoint, computed with
    Python sets and ``min`` / ``max`` — independently of the engine:
    INT64 columns whose site value sets are pairwise disjoint, and
    STRING columns whose non-empty sites' ranges are."""
    found = set()
    for attr in engine.detail_schema.names:
        dtype = engine.detail_schema[attr].dtype
        columns = [engine.fragment(site).column(attr).tolist()
                   for site in engine.site_ids]
        if dtype is DataType.INT64:
            seen: set = set()
            for values in map(set, columns):
                if values & seen:
                    break
                seen |= values
            else:
                found.add(attr)
        elif dtype is DataType.STRING:
            ranges = sorted((min(values), max(values))
                            for values in columns if values)
            if all(left[1] < right[0]
                   for left, right in zip(ranges, ranges[1:])):
                found.add(attr)
    return found


class KnowledgeMixin:
    """Fixed TPCR warehouse with knowledge; cold + warm per plan."""

    def run_case(self, engine, data):
        expression = data.draw(tpcr_plans())
        flags = data.draw(st.sampled_from(FLAG_CHOICES))
        reference = expression.evaluate_centralized(
            engine.total_detail_relation())
        cold = engine.execute(expression, flags)
        proved = set(expression.key) & (
            TPCR_PARTITION_ATTRS | site_disjoint_attrs(engine))
        assert (cold.plan.union_on in proved if proved
                else cold.plan.union_on is None)
        assert cold.relation.multiset_equals(reference), flags.describe()
        warm = engine.execute(expression, flags)
        assert warm.relation.multiset_equals(reference), flags.describe()


class TestKnowledgeThreadDifferential(KnowledgeMixin):
    @seeded
    @settings(max_examples=EXAMPLES, deadline=None)
    @given(data=st.data())
    def test_matches_oracle(self, knowledge_thread_engine, data):
        self.run_case(knowledge_thread_engine, data)


class TestKnowledgeProcessDifferential(KnowledgeMixin):
    @seeded
    @settings(max_examples=EXAMPLES, deadline=None)
    @given(data=st.data())
    def test_matches_oracle(self, knowledge_process_engine, data):
        self.run_case(knowledge_process_engine, data)


class TestKnowledgeSkewDifferential(KnowledgeMixin):
    @seeded
    @settings(max_examples=EXAMPLES, deadline=None)
    @given(data=st.data())
    def test_matches_oracle(self, knowledge_skew_engine, data):
        self.run_case(knowledge_skew_engine, data)


class TestUnionSynchronization:
    """Union vs keyed synchronization, and the trust base under append."""

    @seeded
    @settings(max_examples=EXAMPLES, deadline=None)
    @given(data=st.data())
    def test_union_and_keyed_give_identical_relations(self, tpcr_partitions,
                                                      data):
        """The same site-disjoint inputs through both synchronizations:
        same rows, same order, same bits — with and without a base
        round."""
        expression = data.draw(tpcr_plans().filter(
            lambda e: set(e.key) & TPCR_PARTITION_ATTRS))
        flags = data.draw(st.sampled_from(FLAG_CHOICES))
        with _knowledge_engine(tpcr_partitions, cache=False) as engine:
            plan = build_plan(expression, flags, engine.info,
                              engine.detail_schema, sites=engine.site_ids)
            assert plan.union_on is not None
            union = engine.execute_plan(plan)
            keyed = engine.execute_plan(
                dataclasses.replace(plan, union_on=None))
        assert_same_rows(union.relation, keyed.relation)
        assert_same_rows(union.states, keyed.states)

    @seeded
    @settings(max_examples=EXAMPLES, deadline=None)
    @given(data=st.data())
    def test_append_delta_then_refused_append(self, tpcr_partitions, data):
        """Cold, warm, a delta-merged rerun after an append that keeps
        φ_i, then an append that violates φ_i: refused, and the cached
        answers keep serving the unchanged warehouse."""
        partitions, __ = tpcr_partitions
        expression = data.draw(tpcr_plans())
        flags = data.draw(st.sampled_from(FLAG_CHOICES))
        site = data.draw(st.integers(0, TPCR_SITES - 1))
        picks = data.draw(st.lists(
            st.integers(0, partitions[site].num_rows - 1), min_size=1,
            max_size=12))
        with _knowledge_engine(tpcr_partitions) as engine:
            before = expression.evaluate_centralized(
                engine.total_detail_relation())
            for __ in range(2):     # cold, warm
                assert engine.execute(expression, flags).relation \
                    .multiset_equals(before), flags.describe()
            engine.append(site, partitions[site].take(np.array(picks)))
            after = expression.evaluate_centralized(
                engine.total_detail_relation())
            delta = engine.execute(expression, flags)
            if delta.plan.steps[0].num_gmdjs == 1:
                # the first round's cached sub-result is upgraded in
                # place (a Thm. 5 multi-GMDJ step has to rescan)
                assert delta.metrics.cache_delta_merges > 0
            else:
                assert delta.metrics.cache_misses > 0
            assert delta.relation.multiset_equals(after), flags.describe()

            version = engine.data_version
            foreign = partitions[(site + 1) % TPCR_SITES].head(3)
            with pytest.raises(PartitionError, match="violate"):
                engine.append(site, foreign)
            assert engine.data_version == version
            served = engine.execute(expression, flags)
            assert served.metrics.cache_hits > 0
            assert served.metrics.cache_delta_merges == 0
            assert_same_rows(served.relation, delta.relation)


# ---------------------------------------------------------------------------
# Observed partition attributes: no declared knowledge, a disjoint key
# ---------------------------------------------------------------------------
#
# A warehouse hash-partitioned on ``g`` and built with an *empty*
# ``DistributionInfo()``: nothing is declared, but every ``g`` lives at
# one site, so the engine observes ``g`` site-disjoint and every plan
# (all keys contain ``g``) synchronizes by union, with Cor. 1 packing.
# Cold, warm and delta-merged runs after an append that keeps the fact
# must match the oracle; an append that puts an existing ``g`` on a
# second site withdraws the fact, and the next plan is keyed.

HASHED_SITES = 3


def _hashed_partitions() -> dict:
    rng = np.random.default_rng(active_seed(41))
    rows = 600
    detail = Relation.from_columns(DETAIL_SCHEMA, {
        "g": rng.integers(0, 40, rows),
        "h": rng.integers(0, 4, rows),
        "v": rng.uniform(-1000, 1000, rows).astype(np.float32)
             .astype(np.float64),
        "w": rng.integers(WIDE - 2 ** 20, WIDE, rows)})
    return partition_by_hash(detail, "g", HASHED_SITES)


def _hashed_engine(transport: str) -> SkallaEngine:
    return SkallaEngine(_hashed_partitions(), DistributionInfo(),
                        transport=transport, cache=True)


@pytest.fixture(scope="module", params=["inprocess", "thread", "process"])
def hashed_engine(request):
    with _hashed_engine(request.param) as engine:
        yield engine


class TestObservedKeyDifferential:
    @seeded
    @settings(max_examples=EXAMPLES, deadline=None)
    @given(data=st.data())
    def test_matches_oracle(self, hashed_engine, data):
        """Cold, warm, then delta-merged after a fact-keeping append."""
        engine = hashed_engine
        expression = data.draw(synthetic_plans())
        flags = data.draw(st.sampled_from(FLAG_CHOICES))
        reference = expression.evaluate_centralized(
            engine.total_detail_relation())
        epoch = engine.knowledge.epoch
        cold = engine.execute(expression, flags)
        assert cold.plan.union_on in (
            set(expression.key) & site_disjoint_attrs(engine))
        assert cold.relation.multiset_equals(reference), flags.describe()
        warm = engine.execute(expression, flags)
        assert_same_rows(warm.relation, cold.relation)

        site = data.draw(st.integers(0, HASHED_SITES - 1))
        fragment = engine.fragment(site)
        # positions modulo the size: the fragment grows across examples
        picks = data.draw(st.lists(st.integers(0, 2 ** 16), min_size=1,
                                   max_size=12))
        engine.append(site, fragment.take(
            np.array(picks) % fragment.num_rows))
        assert engine.knowledge.epoch == epoch      # the fact holds
        delta = engine.execute(expression, flags)
        assert delta.plan.union_on == cold.plan.union_on
        assert delta.relation.multiset_equals(
            expression.evaluate_centralized(
                engine.total_detail_relation())), flags.describe()

    @pytest.mark.parametrize("transport", ["inprocess", "thread", "process"])
    def test_clashing_append_withdraws_the_fact(self, transport):
        """A ``g`` appended at a second site: the append lands, the
        fact is withdrawn, the next plan is keyed — and every run is
        bit-identical to the oracle."""
        expression = (QueryBuilder().base("g")
                      .gmdj([count_star("n0"), agg("sum", "w", "s0")],
                            r.g == b.g)
                      .gmdj([count_star("n1"), agg("avg", "v", "a1")],
                            (r.g == b.g) & (r.v <= b.n0 * 100.0))
                      .build())
        flags = OptimizationFlags.all()
        with _hashed_engine(transport) as engine:
            for __ in range(2):     # cold, warm
                run = engine.execute(expression, flags)
                assert run.plan.union_on == "g"
                assert run.plan.num_synchronizations == 1
                assert run.relation.multiset_equals(
                    expression.evaluate_centralized(
                        engine.total_detail_relation()))
            epoch = engine.knowledge.epoch
            engine.append(1, engine.fragment(0).head(1))
            assert engine.knowledge.epoch == epoch + 1
            assert "g" not in site_disjoint_attrs(engine)
            keyed = engine.execute(expression, flags)
            assert keyed.plan.union_on is None
            assert keyed.plan.num_synchronizations == 2
            reference = expression.evaluate_centralized(
                engine.total_detail_relation())
            assert keyed.relation.multiset_equals(reference)
            assert_same_rows(engine.execute(expression, flags).relation,
                             keyed.relation)


# ---------------------------------------------------------------------------
# Knowledge axis: declared or nothing declared, the same answers
# ---------------------------------------------------------------------------
#
# One detail relation, two placements: ranges of a STRING key ``s`` and
# a hash of an INT64 key ``g``.  Each runs declared (the placement's
# φ_i, with room left in every site's range or value set) and with
# nothing declared (``info=None``), where the engine observes the key:
# ``s`` by its site ranges, ``g`` by its value sets.  Every plan unions
# on the key either way.  An append that widens a site's range within
# its declaration keeps both; an append that puts another site's key
# value on the site is refused where declared, and withdraws the
# observed fact, moving the epoch exactly once, where not.  Every run
# must match the oracle, and the two modes must answer bit for bit
# alike.

AXIS_SITES = 3
AXIS_SCHEMA = Schema.of(("s", DataType.STRING), ("g", DataType.INT64),
                        ("v", DataType.FLOAT64), ("w", DataType.INT64))
#: key values per site range; the data leaves the top ten unused
AXIS_SPAN = 40


def _axis_rows(keys, rng) -> Relation:
    keys = np.asarray(keys, dtype=np.int64)
    return Relation.from_columns(AXIS_SCHEMA, {
        "s": np.array([f"s{key:03d}" for key in keys], dtype=object),
        "g": keys,
        "v": rng.uniform(-1000, 1000, len(keys)).astype(np.float32)
             .astype(np.float64),
        "w": rng.integers(WIDE - 2 ** 20, WIDE, len(keys))})


@pytest.fixture(scope="module")
def axis_placements():
    """placement → (fragments, declared info, key, per site the key
    values no site holds that its declaration allows)."""
    rng = np.random.default_rng(active_seed(43))
    keys = rng.integers(0, AXIS_SPAN - 10, 480) \
        + AXIS_SPAN * rng.integers(0, AXIS_SITES, 480)
    detail = _axis_rows(keys, rng)

    by_range, range_info = partition_by_ranges(detail, "s", {
        site: (f"s{AXIS_SPAN * site:03d}",
               f"s{AXIS_SPAN * (site + 1) - 1:03d}")
        for site in range(AXIS_SITES)})
    range_spare = {site: list(range(AXIS_SPAN * (site + 1) - 10,
                                    AXIS_SPAN * (site + 1)))
                   for site in range(AXIS_SITES)}

    by_hash = partition_by_hash(detail, "g", AXIS_SITES)
    every_key = _axis_rows(np.arange(AXIS_SPAN * AXIS_SITES), rng)
    hash_info = DistributionInfo()
    hash_spare = {}
    for site, bucket in partition_by_hash(every_key, "g",
                                          AXIS_SITES).items():
        allowed = set(bucket.column("g").tolist())
        hash_info.add(site, "g", ValueSetConstraint(frozenset(allowed)))
        hash_spare[site] = sorted(
            allowed - set(by_hash[site].column("g").tolist()))
    return {"range-placed STRING": (by_range, range_info, "s", range_spare),
            "hash-placed INT64": (by_hash, hash_info, "g", hash_spare)}


@st.composite
def axis_plans(draw, key):
    """A 1–2 round expression keyed on ``key``."""
    builder = QueryBuilder().base(key)
    for index in range(draw(st.integers(1, 2))):
        condition = getattr(r, key) == getattr(b, key)
        variant = draw(st.integers(0, 2))
        if variant == 1:
            condition = condition & (r.v >= draw(st.floats(
                -500, 500, allow_nan=False, width=32)))
        elif variant == 2 and index > 0:
            condition = condition & (r.v <= b.n0 * 100.0)
        builder = builder.gmdj(
            _aggregates(draw, ["v"], index) + _wide_aggregates(draw, index),
            condition)
    return builder.build()


class TestKnowledgeAxisDifferential:
    @seeded
    @settings(max_examples=EXAMPLES, deadline=None)
    @given(data=st.data())
    def test_answers_do_not_depend_on_knowledge(self, axis_placements,
                                                data):
        placement = data.draw(st.sampled_from(sorted(axis_placements)))
        partitions, declared, key, spare = axis_placements[placement]
        expression = data.draw(axis_plans(key))
        flags = data.draw(st.sampled_from(FLAG_CHOICES))
        site = data.draw(st.integers(0, AXIS_SITES - 1))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
        widen = _axis_rows(data.draw(st.lists(
            st.sampled_from(spare[site]), min_size=1, max_size=4)), rng)
        other = (site + data.draw(st.integers(1, AXIS_SITES - 1))) \
            % AXIS_SITES
        clash = partitions[other].head(data.draw(st.integers(1, 3)))

        answers = {}
        for info in (declared, None):
            with SkallaEngine(dict(partitions), info, cache=True) as engine:
                def run():
                    result = engine.execute(expression, flags)
                    assert result.relation.multiset_equals(
                        expression.evaluate_centralized(
                            engine.total_detail_relation())), \
                        flags.describe()
                    return result

                runs = [run(), run()]                   # cold, warm
                epoch = engine.knowledge.epoch
                engine.append(site, widen)
                runs.append(run())                      # delta
                assert engine.knowledge.epoch == epoch
                assert {result.plan.union_on for result in runs} == {key}
                if info is None:
                    engine.append(site, clash)
                    assert engine.knowledge.epoch == epoch + 1
                    assert run().plan.union_on is None
                else:
                    with pytest.raises(PartitionError, match="violate"):
                        engine.append(site, clash)
                    assert engine.knowledge.epoch == epoch
                    assert_same_rows(run().relation, runs[-1].relation)
                answers[info is None] = [result.relation for result in runs]
        for declared_answer, observed_answer in zip(answers[False],
                                                    answers[True]):
            assert_same_rows(declared_answer, observed_answer)


# ---------------------------------------------------------------------------
# CUBE / ROLLUP / GROUPING SETS: lattice vs the centralized oracle
# ---------------------------------------------------------------------------
#
# Random cube-family statements run through the lattice pipeline
# (:mod:`repro.cube`): one distributed scatter per lattice level,
# coarser cuboids derived coordinator-side by Theorem-1 rollup of the
# captured states.  The oracle stitches per-cuboid *centralized*
# evaluations, so every derived row is checked bit-for-bit — rollup
# must commute with distribution.  Measures are integers (exact sums;
# AVG divides identical sum/count pairs) and APPROX_COUNT_DISTINCT
# joins because HyperLogLog's register-max merge is both partition-
# and rollup-order-insensitive.  (The quantile sketch is merge-tree-
# sensitive; its lattice coverage lives in ``test_cube_lattice.py``
# with a rank-containment oracle.)

CUBE_SCHEMA = Schema.of(("g", DataType.INT64), ("h", DataType.INT64),
                        ("k", DataType.INT64), ("q", DataType.INT64))
CUBE_DIMS = ["g", "h", "k"]
CUBE_FUNCS = ["SUM", "MIN", "MAX", "AVG", "APPROX_COUNT_DISTINCT"]


@st.composite
def cube_details(draw, min_rows=1, max_rows=60):
    rows = draw(st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 3), st.integers(0, 2),
                  st.integers(-50, 50)),
        min_size=min_rows, max_size=max_rows))
    return Relation.from_rows(CUBE_SCHEMA, rows)


@st.composite
def cube_statements(draw, dims_pool, measure_pool, table):
    """SQL text for a random CUBE / ROLLUP / GROUPING SETS statement."""
    dims = draw(st.lists(st.sampled_from(dims_pool), min_size=1,
                         max_size=min(3, len(dims_pool)), unique=True))
    construct = draw(st.sampled_from(["CUBE", "ROLLUP", "SETS"]))
    if construct == "SETS":
        # The full set is always a member so the select-list dims equal
        # the union; extra subsets (possibly () — the grand total) make
        # multi-source, multi-level lattices.
        extra = draw(st.lists(
            st.lists(st.sampled_from(dims), max_size=len(dims),
                     unique=True),
            max_size=3))
        rendered = ", ".join(
            "(" + ", ".join(subset) + ")"
            for subset in [list(dims), *extra])
        clause = f"GROUPING SETS ({rendered})"
    else:
        clause = f"{construct} ({', '.join(dims)})"
    items = ["COUNT(*) AS n"]
    for index, func in enumerate(draw(st.lists(
            st.sampled_from(CUBE_FUNCS), max_size=2))):
        column = draw(st.sampled_from(measure_pool))
        items.append(f"{func}({column}) AS x{index}")
    if draw(st.booleans()):
        bits = draw(st.lists(st.sampled_from(dims), min_size=1,
                             max_size=len(dims), unique=True))
        items.append(f"GROUPING({', '.join(bits)}) AS gbits")
    select = ", ".join([*dims, *items])
    return f"SELECT {select} FROM {table} GROUP BY {clause}"


def _lattice_case(sql, detail_schema):
    from repro.cube import compile_lattice, run_centralized
    from repro.sql.parser import parse
    plan = compile_lattice(parse(sql), detail_schema)
    return plan, run_centralized


class TestCubeDifferential:
    """Fresh random data + partitioning + cube statement per example."""

    @seeded
    @settings(max_examples=EXAMPLES, deadline=None)
    @given(data=st.data())
    def test_matches_centralized(self, data):
        from repro.cube import execute_lattice
        detail = data.draw(cube_details())
        sql = data.draw(cube_statements(CUBE_DIMS, ["q"], "T"))
        plan, run_centralized = _lattice_case(sql, CUBE_SCHEMA)
        num_sites = data.draw(st.integers(1, 4))
        assignment = np.array(data.draw(st.lists(
            st.integers(0, num_sites - 1), min_size=detail.num_rows,
            max_size=detail.num_rows)))
        partitions = {site: detail.filter(assignment == site)
                      for site in range(num_sites)}
        flags = data.draw(st.sampled_from(FLAG_CHOICES))
        use_cache = data.draw(st.booleans())
        reference = run_centralized(plan, detail)
        engine = SkallaEngine(partitions, cache=use_cache)
        execution = execute_lattice(engine, plan, flags)
        assert execution.relation.multiset_equals(reference), sql
        assert execution.metrics.cuboids_total == len(plan.requested)
        assert execution.metrics.lattice_levels <= len(plan.requested)
        if use_cache:
            warm = execute_lattice(engine, plan, flags)
            assert warm.relation.multiset_equals(reference), sql

    @seeded
    @settings(max_examples=EXAMPLES, deadline=None)
    @given(data=st.data())
    def test_out_of_order_gather_matches_centralized(self, data):
        from repro.cube import execute_lattice
        detail = data.draw(cube_details())
        sql = data.draw(cube_statements(CUBE_DIMS, ["q"], "T"))
        plan, run_centralized = _lattice_case(sql, CUBE_SCHEMA)
        partitions = partition_round_robin(
            detail, data.draw(st.integers(2, 4)))
        engine = SkallaEngine(partitions,
                              cache=data.draw(st.booleans()))
        engine.use_transport(ShufflingTransport(
            engine.sites, seed=data.draw(st.integers(0, 2**16))))
        flags = data.draw(st.sampled_from(FLAG_CHOICES))
        execution = execute_lattice(engine, plan, flags)
        assert execution.relation.multiset_equals(
            run_centralized(plan, detail)), sql

    @seeded
    @settings(max_examples=EXAMPLES, deadline=None)
    @given(data=st.data())
    def test_skewed_matches_centralized(self, data):
        from repro.cube import execute_lattice
        detail = data.draw(skew_details())
        sql = data.draw(cube_statements(["g", "h"], ["q"], "T"))
        plan, run_centralized = _lattice_case(sql, SKEW_SCHEMA)
        num_sites = data.draw(st.integers(2, 4))
        partitions = skewed_placement(data, detail, num_sites)
        engine = SkallaEngine(partitions,
                              cache=data.draw(st.booleans()),
                              skew=FORCED_SKEW)
        flags = data.draw(st.sampled_from(FLAG_CHOICES))
        execution = execute_lattice(engine, plan, flags)
        assert execution.relation.multiset_equals(
            run_centralized(plan, detail)), sql

    @seeded
    @settings(max_examples=EXAMPLES, deadline=None)
    @given(data=st.data())
    def test_append_delta_matches_centralized(self, data):
        """Cold run, append, delta-merged rerun — both bit-identical."""
        from repro.cube import execute_lattice
        detail = data.draw(cube_details())
        extra = data.draw(cube_details(max_rows=20))
        sql = data.draw(cube_statements(CUBE_DIMS, ["q"], "T"))
        plan, run_centralized = _lattice_case(sql, CUBE_SCHEMA)
        num_sites = data.draw(st.integers(2, 4))
        partitions = partition_round_robin(detail, num_sites)
        engine = SkallaEngine(partitions, cache=True)
        flags = data.draw(st.sampled_from(FLAG_CHOICES))
        cold = execute_lattice(engine, plan, flags)
        assert cold.relation.multiset_equals(
            run_centralized(plan, detail)), sql
        engine.append(data.draw(st.integers(0, num_sites - 1)), extra)
        delta = execute_lattice(engine, plan, flags)
        assert delta.relation.multiset_equals(
            run_centralized(plan, detail.union_all(extra))), sql


class CubePooledMixin:
    """Fixed flow warehouse, random cube statements, cold + warm."""

    def run_case(self, engine, data):
        from repro.cube import execute_lattice
        sql = data.draw(cube_statements(FLOW_GROUPS, FLOW_MEASURES,
                                        "Flow"))
        plan, run_centralized = _lattice_case(sql, engine.detail_schema)
        flags = data.draw(st.sampled_from(FLAG_CHOICES))
        reference = run_centralized(plan,
                                    engine.total_detail_relation())
        cold = execute_lattice(engine, plan, flags)
        assert cold.relation.multiset_equals(reference), sql
        warm = execute_lattice(engine, plan, flags)
        assert warm.relation.multiset_equals(reference), sql


class TestCubeThreadDifferential(CubePooledMixin):
    @seeded
    @settings(max_examples=EXAMPLES, deadline=None)
    @given(data=st.data())
    def test_matches_centralized(self, thread_engine, data):
        self.run_case(thread_engine, data)


class TestCubeProcessDifferential(CubePooledMixin):
    @seeded
    @settings(max_examples=EXAMPLES, deadline=None)
    @given(data=st.data())
    def test_matches_centralized(self, process_engine, data):
        self.run_case(process_engine, data)
