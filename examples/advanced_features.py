"""Beyond the paper: trees, cost-based planning, persistence.

Three extension features on one warehouse:

1. **cost-based flag selection** — let the statistics-driven cost model
   pick the optimization flags instead of hand-choosing them;
2. **multi-tier coordinator** — the paper's future-work aggregation
   tree, priced against the flat star over one 16-site run;
3. **persistence** — save the warehouse, reload, re-run, same answer.

Run:  python examples/advanced_features.py
"""

import tempfile
from pathlib import Path

from repro.bench.queries import correlated_query
from repro.data.tpch import generate_tpcr, nation_assignment
from repro.distributed import (
    NO_OPTIMIZATIONS, SkallaEngine, TreeTopology,
    load_warehouse, partition_by_values, partition_round_robin, price,
    save_warehouse)
from repro.optimizer.cost import choose_flags, estimate_plan_cost
from repro.optimizer.planner import build_plan
from repro.relational.statistics import collect_stats


def main() -> None:
    relation = generate_tpcr(num_rows=30_000, seed=42)
    partitions, info = partition_by_values(
        relation, "NationKey", nation_assignment(8))
    engine = SkallaEngine(partitions, info)
    query = correlated_query(["CustName"], "ExtendedPrice")

    # ---- 1. cost-based flag selection ---------------------------------
    print("== cost-based optimization selection ==")
    stats = collect_stats([engine.fragment(site)
                           for site in engine.site_ids], attrs=["CustName"])
    flags, estimate = choose_flags(query, stats, num_sites=8,
                                   detail_schema=engine.detail_schema,
                                   info=info, link=engine.link)
    print(f"model picked: {flags.describe()}")
    print(f"predicted   : {estimate.bytes_total:,.0f} bytes, "
          f"{estimate.synchronizations} sync(s)")
    chosen = engine.execute(query, flags)
    baseline = engine.execute(query, NO_OPTIMIZATIONS)
    print(f"measured    : {chosen.metrics.total_bytes:,} bytes "
          f"(baseline {baseline.metrics.total_bytes:,})")
    plan = build_plan(query, NO_OPTIMIZATIONS, info,
                      engine.detail_schema, sites=engine.site_ids)
    unopt_estimate = estimate_plan_cost(plan, stats, 8,
                                        engine.detail_schema,
                                        engine.link)
    print(f"(model predicted {unopt_estimate.bytes_total:,.0f} bytes "
          f"for the unoptimized plan)\n")

    # ---- 2. multi-tier coordinator -----------------------------------------
    print("== flat star vs fanout-4 aggregation tree (16 sites) ==")
    many = SkallaEngine(partition_round_robin(relation, 16))
    run = many.execute(query, NO_OPTIMIZATIONS)
    flat = run.metrics
    # the same run, priced as if its rounds had merged up a tree
    topology = TreeTopology.balanced(many.site_ids, fanout=4)
    tree = price(run.log, topology, many.link)
    print(f"flat star: {flat.response_seconds:.2f}s modeled, "
          f"{flat.root_ingress_bytes:,} bytes into the root")
    print(f"tree     : {tree.response_seconds:.2f}s modeled, "
          f"{tree.root_ingress_bytes:,} bytes into the root "
          f"(depth {topology.depth()})\n")

    # ---- 3. persistence -------------------------------------------------------
    print("== save / reload round trip ==")
    with tempfile.TemporaryDirectory() as tmp:
        directory = save_warehouse(engine, Path(tmp) / "warehouse")
        reloaded = load_warehouse(directory)
        again = reloaded.execute(query, flags)
        assert again.relation.multiset_equals(chosen.relation)
        print(f"saved to {directory.name}/, reloaded "
              f"{len(reloaded.site_ids)} sites, identical result: True")


if __name__ == "__main__":
    main()
