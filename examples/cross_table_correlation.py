"""Correlating across fact tables: the per-round detail relation.

Footnote 3 of the paper notes that the detail relation may differ
between rounds — the Skalla framework handles GMDJ chains whose rounds
range over *different* tables.  A realistic network-operations case:
every router stores both its Flow records and its Alarm records; the
operator wants, per source AS,

1. flow count and average flow size            (from Flow),
2. alarm count and worst alarm severity        (from Alarm),
3. the number of flows larger than a severity-scaled threshold
   ``avg_bytes · (1 + worst/10)``              (from Flow again,
   correlated with aggregates of BOTH earlier rounds).

No distributed join ever happens: each round ships only the base-result
structure and sub-aggregates, exactly like the single-table engine.

Run:  python examples/cross_table_correlation.py
"""

import numpy as np

from repro import agg, b, count_star, r
from repro.core.gmdj import Gmdj
from repro.data.flows import generate_flows
from repro.distributed import (
    HeterogeneousQuery, HeterogeneousRound, HeterogeneousWarehouse)
from repro.relational import Relation


def generate_alarms(num_alarms: int, num_routers: int, num_source_as: int,
                    seed: int) -> Relation:
    """Synthetic router alarms, homed like the flows."""
    rng = np.random.default_rng(seed)
    source_as = rng.integers(1, num_source_as + 1, size=num_alarms)
    router = ((source_as - 1) * num_routers) // num_source_as
    return Relation.from_dicts([
        {"RouterId": int(router[i]), "SourceAS": int(source_as[i]),
         "Severity": int(rng.integers(1, 6)),
         "AlarmTime": int(rng.integers(0, 86_400))}
        for i in range(num_alarms)])


def main() -> None:
    num_routers, num_source_as = 4, 24
    flows = generate_flows(num_flows=30_000, num_routers=num_routers,
                           num_source_as=num_source_as, seed=5)
    alarms = generate_alarms(2_000, num_routers, num_source_as, seed=6)

    catalogs = {
        router: {
            "Flow": flows.filter(flows.column("RouterId") == router),
            "Alarm": alarms.filter(alarms.column("RouterId") == router),
        }
        for router in range(num_routers)}
    engine = HeterogeneousWarehouse(catalogs)

    query = HeterogeneousQuery(
        base_table="Flow", base_attrs=("SourceAS",),
        rounds=(
            HeterogeneousRound(
                Gmdj.single([count_star("flows"),
                             agg("avg", "NumBytes", "avg_bytes")],
                            r.SourceAS == b.SourceAS), "Flow"),
            HeterogeneousRound(
                Gmdj.single([count_star("alarms"),
                             agg("max", "Severity", "worst")],
                            r.SourceAS == b.SourceAS), "Alarm"),
            HeterogeneousRound(
                Gmdj.single([count_star("suspicious")],
                            (r.SourceAS == b.SourceAS)
                            & (r.NumBytes >= b.avg_bytes
                               * (1 + b.worst / 10))), "Flow"),
        ))

    result, metrics = engine.execute(query, independent_reduction=True)
    print("per-AS flow/alarm correlation "
          f"({metrics.num_synchronizations} synchronizations, "
          f"{metrics.total_bytes:,} bytes):\n")
    print(result.sort(["SourceAS"]).pretty(12))

    reference = query.evaluate_centralized(
        {"Flow": flows, "Alarm": alarms})
    assert result.multiset_equals(reference)
    print("\nverified against centralized evaluation: True")


if __name__ == "__main__":
    main()
