"""Extension — link-aware aggregation trees on a simulated WAN (CI gate).

The paper's Sect. 6 future work: past the flat star, "a multi-tiered
coordinator architecture or spanning-tree networks".  This sweep builds
clustered WANs of 8-256 sites (``repro.topology.clustered_wan``: metro
region, per-region gateways, expensive long-hauls) and runs the same
two-round GMDJ plan twice over the *same* graph:

* **flat** — every site ships its sub-aggregate straight to the
  coordinator over its cheapest direct link (mostly long-hauls);
* **tree** — the cost-driven aggregation tree
  (``repro.topology.build_cost_tree``, fanout 4) merges sub-aggregates
  at interior sites and routes around the long-hauls.

Everything is modeled (``ComputeModel`` + per-link latency/bandwidth),
so the sweep is bit-reproducible across machines and the smoke run's
entries match the committed full-sweep baseline exactly.

Asserted (the CI ``bench-topology`` gate):

* tree and flat results are bit-identical at every size (and both
  match the centralized oracle);
* at >= 64 sites the tree beats flat on BOTH modeled response time
  (``tree_speedup`` > 1) and coordinator-ingress bytes
  (``ingress_ratio`` > 1).

Runs as pytest (``pytest benchmarks/bench_ext_topology.py``) or as a
script: ``python benchmarks/bench_ext_topology.py --smoke --json out``.
The full JSON report lands in ``benchmarks/results/ext_topology.json``
(the committed baseline ``scripts/bench_compare.py`` gates against).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.core.builder import QueryBuilder, agg
from repro.distributed.engine import SkallaEngine
from repro.distributed.hierarchy import TreeTopology
from repro.distributed.network import ComputeModel
from repro.distributed.plan import OptimizationFlags
from repro.relational.aggregates import count_star
from repro.relational.expressions import b, r
from repro.relational.relation import Relation
from repro.topology import build_cost_tree, clustered_wan

SITES_FULL = [8, 64, 128, 256]
SITES_SMOKE = [8, 64]
FANOUT = 4
#: Constant per-site row count so smoke entries bit-match the committed
#: full-sweep baseline (only the site list differs between modes).
ROWS_PER_SITE = 50
WAN_SEED = 7
RESULTS = Path(__file__).parent / "results" / "ext_topology.json"


def build_partitions(num_sites: int) -> dict[int, Relation]:
    """Deterministic per-site detail fragments (no RNG, no I/O)."""
    partitions = {}
    for site in range(num_sites):
        rows = [{"g": (site * 7 + i) % 64,
                 "h": i % 5,
                 "v": float((site * 131 + i * 17) % 997)}
                for i in range(ROWS_PER_SITE)]
        partitions[site] = Relation.from_dicts(rows)
    return partitions


def sweep_query():
    return (QueryBuilder()
            .base("g")
            .gmdj([count_star("n0"), agg("sum", "v", "s0")], r.g == b.g)
            .gmdj([agg("max", "v", "x1")],
                  (r.g == b.g) & (r.v <= b.s0))
            .build())


def _run(engine: SkallaEngine, expression):
    try:
        return engine.execute(expression, OptimizationFlags.all())
    finally:
        engine.close()


def _numbers(result) -> dict[str, object]:
    metrics = result.metrics
    return {
        "response_seconds": metrics.response_seconds,
        "root_ingress_bytes": metrics.root_ingress_bytes,
        "total_bytes": metrics.total_bytes,
    }


def run_entry(num_sites: int) -> dict[str, object]:
    expression = sweep_query()
    partitions = build_partitions(num_sites)
    wan = clustered_wan(num_sites, seed=WAN_SEED)
    oracle = expression.evaluate_centralized(
        Relation.concat(list(partitions.values())))

    flat = _run(SkallaEngine(partitions, wan=wan,
                             topology=TreeTopology.flat(range(num_sites)),
                             hedge=False, compute_model=ComputeModel()),
                expression)
    tree = _run(SkallaEngine(partitions, wan=wan,
                             topology=build_cost_tree(wan, FANOUT),
                             hedge=False, compute_model=ComputeModel()),
                expression)

    flat_numbers, tree_numbers = _numbers(flat), _numbers(tree)
    return {
        "sites": num_sites,
        "depth": tree.metrics.tree_shape,
        "flat": flat_numbers,
        "tree": tree_numbers,
        "tree_speedup": (flat_numbers["response_seconds"]
                         / tree_numbers["response_seconds"]),
        "ingress_ratio": (flat_numbers["root_ingress_bytes"]
                          / tree_numbers["root_ingress_bytes"]),
        "identical": (tree.relation.multiset_equals(flat.relation)
                      and tree.relation.multiset_equals(oracle)),
    }


def run_sweep(site_counts) -> dict[str, object]:
    return {
        "kind": "topology-sweep",
        "fanout": FANOUT,
        "rows_per_site": ROWS_PER_SITE,
        "wan_seed": WAN_SEED,
        "sweep": [run_entry(num_sites) for num_sites in site_counts],
    }


def check_sweep(report: dict[str, object]) -> None:
    """The tree-vs-flat gate: raises AssertionError with the evidence."""
    for entry in report["sweep"]:
        assert entry["identical"], entry
        if entry["sites"] >= 64:
            assert entry["tree_speedup"] > 1.0, entry
            assert entry["ingress_ratio"] > 1.0, entry


def _summary_rows(report: dict[str, object]) -> list[dict[str, object]]:
    rows = []
    for entry in report["sweep"]:
        rows.append({
            "sites": entry["sites"],
            "flat_s": round(entry["flat"]["response_seconds"], 4),
            "tree_s": round(entry["tree"]["response_seconds"], 4),
            "speedup": round(entry["tree_speedup"], 2),
            "flat_ingress_B": entry["flat"]["root_ingress_bytes"],
            "tree_ingress_B": entry["tree"]["root_ingress_bytes"],
            "ingress_x": round(entry["ingress_ratio"], 2),
            "identical": entry["identical"],
        })
    return rows


def test_bench_topology_sweep(benchmark, report):
    """Tree vs flat over the same WAN, 8-256 sites, fanout 4."""
    result = benchmark.pedantic(run_sweep, args=(SITES_FULL,),
                                rounds=1, iterations=1)
    RESULTS.parent.mkdir(exist_ok=True)
    RESULTS.write_text(json.dumps(result, indent=2, sort_keys=True))
    report("ext_topology",
           "Extension — link-aware aggregation tree vs flat star "
           f"(clustered WAN, fanout {FANOUT}, "
           f"{ROWS_PER_SITE} rows/site, modeled)",
           _summary_rows(result),
           ["sites", "flat_s", "tree_s", "speedup", "flat_ingress_B",
            "tree_ingress_B", "ingress_x", "identical"])
    check_sweep(result)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help=f"sweep only {SITES_SMOKE} sites for CI")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="where to write the JSON report "
                             f"(default {RESULTS})")
    args = parser.parse_args(argv)
    site_counts = SITES_SMOKE if args.smoke else SITES_FULL
    result = run_sweep(site_counts)
    for row in _summary_rows(result):
        print(f"sites={row['sites']:<4}: flat {row['flat_s']:.4f}s vs "
              f"tree {row['tree_s']:.4f}s ({row['speedup']:.2f}x); "
              f"ingress {row['flat_ingress_B']:,} B -> "
              f"{row['tree_ingress_B']:,} B ({row['ingress_x']:.2f}x); "
              f"identical={row['identical']}")
    target = Path(args.json) if args.json else RESULTS
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(result, indent=2, sort_keys=True))
    print(f"wrote {target}")
    check_sweep(result)
    print("topology gate: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
