"""Executable checks of the paper's formal results.

Each test instantiates one theorem/proposition on concrete data and
verifies the stated identity — documentation of what each result says,
in running code.
"""

import numpy as np
import pytest

from repro.relational.aggregates import count_star
from repro.relational.expressions import b, r
from repro.relational.relation import Relation
from repro.core.builder import QueryBuilder, agg
from repro.core.coalesce import coalesce_adjacent
from repro.core.evaluator import STATES, evaluate_gmdj, finalize_states
from repro.core.gmdj import Gmdj
from repro.distributed.engine import SkallaEngine
from repro.distributed.partition import (
    partition_by_values, partition_round_robin)
from repro.distributed.plan import (
    ALL_OPTIMIZATIONS, NO_OPTIMIZATIONS, OptimizationFlags)


@pytest.fixture(scope="module")
def detail():
    rng = np.random.default_rng(31)
    return Relation.from_dicts([
        {"g": int(rng.integers(0, 9)), "h": int(rng.integers(0, 4)),
         "v": float(rng.normal(50, 20))}
        for __ in range(1_200)])


def md(aggregates, condition):
    return Gmdj.single(aggregates, condition)


class TestTheorem1:
    """X = MD(B, H1 ⊔ … ⊔ Hn, l'', θ_K): merging per-partition
    sub-aggregates with super-aggregates reproduces the global GMDJ."""

    def test_identity(self, detail):
        gmdj = md([count_star("n"), agg("avg", "v", "m"),
                   agg("min", "v", "lo")], r.g == b.g)
        base = detail.distinct(["g"])
        global_result = evaluate_gmdj(gmdj, base, detail)

        # partition R arbitrarily, compute sub-aggregates per part
        parts = partition_round_robin(detail, 3)
        sub_results = [evaluate_gmdj(gmdj, base, part, output=STATES)
                       for part in parts.values()]
        # merge (⊔ then keyed super-aggregation)
        from repro.distributed.coordinator import combine_states_by_key
        merged = combine_states_by_key(sub_results, ["g"], [gmdj],
                                       detail.schema)
        finalized = finalize_states(
            gmdj, {name: merged.column(name)
                   for name in merged.schema.names if "__" in name},
            detail.schema)
        merged_by_g = dict(zip(merged.column("g").tolist(),
                               range(merged.num_rows)))
        for row in global_result.to_dicts():
            position = merged_by_g[row["g"]]
            assert finalized["n"][position] == row["n"]
            assert finalized["m"][position] == pytest.approx(row["m"])
            assert finalized["lo"][position] == pytest.approx(row["lo"])


class TestTheorem2:
    """Transfer ≤ Σ_i 2·s_i·|Q| + s_0·|Q| rows, independent of |R|."""

    @pytest.mark.parametrize("rows", [300, 1_200])
    def test_bound_and_fact_size_independence(self, rows):
        rng = np.random.default_rng(5)
        data = Relation.from_dicts([
            {"g": int(rng.integers(0, 8)), "v": float(rng.normal())}
            for __ in range(rows)])
        query = (QueryBuilder().base("g")
                 .gmdj([count_star("n"), agg("avg", "v", "m")], r.g == b.g)
                 .gmdj([count_star("n2")], (r.g == b.g) & (r.v >= b.m))
                 .build())
        engine = SkallaEngine(partition_round_robin(data, 4))
        result = engine.execute(query, NO_OPTIMIZATIONS)
        size = result.relation.num_rows
        bound = 2 * 4 * size * 2 + 4 * size
        assert result.metrics.rows_shipped <= bound

    def test_traffic_constant_in_fact_size_with_fixed_groups(self):
        """Same group count, 4x the data: rows shipped must not change."""
        shipped = []
        for rows in (500, 2_000):
            rng = np.random.default_rng(7)
            data = Relation.from_dicts([
                {"g": int(rng.integers(0, 8)), "v": float(rng.normal())}
                for __ in range(rows)])
            query = (QueryBuilder().base("g")
                     .gmdj([count_star("n")], r.g == b.g).build())
            engine = SkallaEngine(partition_round_robin(data, 4))
            result = engine.execute(query, NO_OPTIMIZATIONS)
            shipped.append(result.metrics.rows_shipped)
        assert shipped[0] == shipped[1]


class TestTheorem4:
    """σ(MD(B, R_i, …)) = σ(MD(σ_¬ψ(B), R_i, …)): filtering B with the
    derived ¬ψ_i changes nothing for tuples with non-empty ranges."""

    def test_identity(self, detail):
        from repro.distributed.partition import RangeConstraint
        from repro.optimizer.analysis import derive_site_filter
        constraint = RangeConstraint(0, 4)
        fragment = detail.filter(constraint.mask(detail.column("g")))
        gmdj = md([count_star("n"), agg("sum", "v", "s")], r.g == b.g)
        base = detail.distinct(["g"])

        unfiltered = evaluate_gmdj(gmdj, base, fragment,
                                   match_column="hit")
        condition = derive_site_filter([r.g == b.g], {"g": constraint})
        mask = condition.eval({"base": base.columns(), "detail": None})
        filtered_base = base.filter(np.asarray(mask))
        filtered = evaluate_gmdj(gmdj, filtered_base, fragment,
                                 match_column="hit")

        lhs = unfiltered.filter(unfiltered.column("hit")).project(
            ["g", "n", "s"])
        rhs = filtered.filter(filtered.column("hit")).project(
            ["g", "n", "s"])
        assert lhs.multiset_equals(rhs)


class TestProposition1:
    """Dropping |RNG| = 0 tuples from the H_i loses nothing."""

    def test_identity(self, detail):
        gmdj = md([count_star("n"), agg("max", "v", "hi")], r.g == b.g)
        base = detail.distinct(["g"])
        parts = partition_round_robin(detail, 3)
        from repro.distributed.coordinator import combine_states_by_key
        full_subs, reduced_subs = [], []
        for part in parts.values():
            states = evaluate_gmdj(gmdj, base, part, output=STATES,
                                   match_column="hit")
            full_subs.append(states.project(
                [name for name in states.schema.names if name != "hit"]))
            reduced = states.filter(states.column("hit"))
            reduced_subs.append(reduced.project(
                [name for name in reduced.schema.names if name != "hit"]))
        merged_full = combine_states_by_key(full_subs, ["g"], [gmdj],
                                            detail.schema)
        merged_reduced = combine_states_by_key(reduced_subs, ["g"], [gmdj],
                                               detail.schema)
        # same keys (every group matched somewhere) and same states
        assert merged_full.multiset_equals(merged_reduced)


class TestProposition2AndCorollary1:
    """Synchronization elision yields the same result with one round."""

    def test_single_synchronization(self, detail):
        values = {site: [site * 3, site * 3 + 1, site * 3 + 2]
                  for site in range(3)}
        parts, info = partition_by_values(detail, "g", values)
        query = (QueryBuilder().base("g")
                 .gmdj([count_star("n"), agg("avg", "v", "m")], r.g == b.g)
                 .gmdj([count_star("n2")], (r.g == b.g) & (r.v >= b.m))
                 .build())
        engine = SkallaEngine(parts, info)
        baseline = engine.execute(query, NO_OPTIMIZATIONS)
        reduced = engine.execute(query,
                                 OptimizationFlags(sync_reduction=True))
        assert baseline.metrics.num_synchronizations == 3
        assert reduced.metrics.num_synchronizations == 1
        assert reduced.relation.multiset_equals(baseline.relation)


class TestCoalescingIdentity:
    """MD2(MD1(B,R,l1,θ1),R,l2,θ2) = MD(B,R,(l1,l2),(θ1,θ2)) when θ2
    does not reference MD1 outputs."""

    def test_identity(self, detail):
        first = md([count_star("n1"), agg("avg", "v", "m1")], r.g == b.g)
        second = md([count_star("n2")], (r.g == b.g) & (r.h == 2))
        base = detail.distinct(["g"])
        nested = evaluate_gmdj(second, evaluate_gmdj(first, base, detail),
                               detail)
        fused = evaluate_gmdj(coalesce_adjacent(first, second), base,
                              detail)
        assert nested.multiset_equals(fused)


class TestExample5:
    """The paper's Example 5: the full query of Example 1 runs with a
    single synchronization when SourceAS is a partition attribute."""

    def test_example(self):
        from repro.data.flows import generate_flows, router_as_ranges
        from repro.distributed.partition import RangeConstraint
        flows = generate_flows(num_flows=3_000, num_routers=3,
                               num_source_as=12, seed=2)
        parts, info = partition_by_values(
            flows, "RouterId", {site: [site] for site in range(3)})
        for site, (low, high) in router_as_ranges(3, 12).items():
            info.add(site, "SourceAS", RangeConstraint(low, high))
        query = (QueryBuilder()
                 .base("SourceAS", "DestAS")
                 .gmdj([count_star("cnt1"), agg("sum", "NumBytes", "sum1")],
                       (r.SourceAS == b.SourceAS) & (r.DestAS == b.DestAS))
                 .gmdj([count_star("cnt2")],
                       (r.SourceAS == b.SourceAS) & (r.DestAS == b.DestAS)
                       & (r.NumBytes >= b.sum1 / b.cnt1))
                 .build())
        engine = SkallaEngine(parts, info)
        result = engine.execute(query, ALL_OPTIMIZATIONS)
        assert result.metrics.num_synchronizations == 1
        assert result.relation.multiset_equals(
            query.evaluate_centralized(flows))
