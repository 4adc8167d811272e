"""Distributed data cubes: CUBE BY over the Skalla warehouse.

The paper notes (Sect. 1, 2.2) that GMDJ expressions uniformly express
data cubes [Gray et al.].  This example computes a two-dimensional cube
(MktSegment × OrderPriority) over the distributed TPCR warehouse with
the cuboid lattice: only the finest grouping runs distributed rounds,
and every coarser cuboid — the grand total included — rolls up from its
captured sub-aggregate states at the coordinator (Theorem 1).  The
stitched cube is verified against the centralized oracle.

Run:  python examples/distributed_cube.py
"""

from repro.bench.harness import build_tpcr_warehouse
from repro.cube import compile_lattice, execute_lattice, run_centralized
from repro.distributed import ALL_OPTIMIZATIONS
from repro.sql.parser import parse

DIMENSIONS = ["MktSegment", "OrderPriority"]
SQL = (f"SELECT {', '.join(DIMENSIONS)}, COUNT(*) AS orders, "
       f"SUM(ExtendedPrice) AS revenue FROM TPCR "
       f"GROUP BY CUBE ({', '.join(DIMENSIONS)})")


def main() -> None:
    warehouse = build_tpcr_warehouse(num_rows=40_000, num_sites=8,
                                     seed=42)
    engine = warehouse.engine
    plan = compile_lattice(parse(SQL), engine.detail_schema)
    execution = execute_lattice(engine, plan, ALL_OPTIMIZATIONS)
    metrics = execution.metrics

    print(f"CUBE BY ({', '.join(DIMENSIONS)}) over "
          f"{warehouse.num_rows:,} rows / {warehouse.num_sites} sites")
    print(f"cuboids: {metrics.cuboids_total} total, "
          f"{metrics.cuboids_derived} derived coordinator-side, "
          f"{metrics.lattice_levels} scatter level(s); "
          f"{metrics.num_synchronizations} synchronization(s), "
          f"{metrics.total_bytes:,} bytes moved in total\n")
    print(execution.relation.sort(DIMENSIONS).pretty(18))

    reference = run_centralized(plan, engine.total_detail_relation())
    assert execution.relation.multiset_equals(reference), \
        "distributed cube must equal the centralized cube"
    print("\nverified: distributed cube ≡ centralized cube "
          f"({reference.num_rows} cells)")


if __name__ == "__main__":
    main()
