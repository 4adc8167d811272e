"""A TPC-R style analytics report over the distributed warehouse.

Reproduces the flavour of the paper's experimental setup (Sect. 5.1): a
denormalized TPCR fact table partitioned on NationKey over eight sites,
queried for business aggregates — and shows how each optimization level
changes the distributed cost of one report query, including the
optimizer's plan explanations.

Run:  python examples/tpch_report.py
"""

from repro import QueryBuilder, agg, b, count_star, r
from repro.bench.harness import build_tpcr_warehouse
from repro.distributed import OptimizationFlags
from repro.sql import compile_sql


def revenue_by_nation(warehouse):
    """Low-cardinality grouping: revenue and volume per nation."""
    query = compile_sql("""
        SELECT NationKey,
               COUNT(*) AS lineitems,
               SUM(ExtendedPrice) AS revenue,
               AVG(Discount) AS avg_discount
        FROM TPCR
        GROUP BY NationKey
        """, warehouse.engine.detail_schema)
    result = warehouse.engine.execute(query, OptimizationFlags.all())
    return result.relation.sort(["NationKey"]), result


def big_spender_customers(warehouse):
    """High-cardinality correlated query: per customer, how many of
    their line items exceed their own average spend (the paper's
    experiment-query shape, on CustName)."""
    query = (QueryBuilder()
             .base("CustName")
             .gmdj([count_star("items"),
                    agg("avg", "ExtendedPrice", "avg_price")],
                   r.CustName == b.CustName)
             .gmdj([count_star("big_items")],
                   (r.CustName == b.CustName)
                   & (r.ExtendedPrice >= b.avg_price))
             .build())
    result = warehouse.engine.execute(query, OptimizationFlags.all())
    return result.relation.sort(["CustName"]), result


def optimization_ladder(warehouse):
    """One query, four optimization levels: the cost story of Sect. 5."""
    query = (QueryBuilder()
             .base("CustName")
             .gmdj([count_star("items"),
                    agg("avg", "ExtendedPrice", "avg_price")],
                   r.CustName == b.CustName)
             .gmdj([count_star("big_items")],
                   (r.CustName == b.CustName)
                   & (r.ExtendedPrice >= b.avg_price))
             .build())
    levels = [
        ("no optimizations", OptimizationFlags()),
        ("+ independent group reduction",
         OptimizationFlags(group_reduction_independent=True)),
        ("+ aware group reduction",
         OptimizationFlags(group_reduction_independent=True,
                           group_reduction_aware=True)),
        ("+ synchronization reduction", OptimizationFlags.all()),
    ]
    print(f"{'setting':34} {'syncs':>5} {'bytes':>12} {'resp (s)':>9}")
    for label, flags in levels:
        result = warehouse.engine.execute(query, flags)
        metrics = result.metrics
        print(f"{label:34} {metrics.num_synchronizations:>5} "
              f"{metrics.total_bytes:>12,} "
              f"{metrics.response_seconds:>9.3f}")
    print()
    final = warehouse.engine.execute(query, OptimizationFlags.all())
    print("final plan:")
    print(final.plan.explain())


def main() -> None:
    warehouse = build_tpcr_warehouse(num_rows=60_000, num_sites=8,
                                     high_cardinality=True, seed=42)
    print(f"TPCR warehouse: {warehouse.num_rows:,} rows over "
          f"{warehouse.num_sites} sites, partitioned on NationKey; "
          f"partition attributes known to the optimizer: "
          f"{sorted(warehouse.info.partition_attributes(warehouse.engine.site_ids))}\n")

    print("— revenue by nation " + "—" * 40)
    table, result = revenue_by_nation(warehouse)
    print(table.pretty(10))
    print(f"  [{result.metrics.num_synchronizations} sync(s), "
          f"{result.metrics.total_bytes:,} bytes]\n")

    print("— customers' above-average purchases " + "—" * 24)
    table, result = big_spender_customers(warehouse)
    print(table.head(8).pretty(8))
    print(f"  [{result.metrics.num_synchronizations} sync(s), "
          f"{result.metrics.total_bytes:,} bytes]\n")

    print("— optimization ladder " + "—" * 38)
    optimization_ladder(warehouse)


if __name__ == "__main__":
    main()
