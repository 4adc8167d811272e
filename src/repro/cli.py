"""Command-line interface: build, inspect, and query saved warehouses.

Usage (also via ``python -m repro``)::

    # create a distributed warehouse on disk
    python -m repro generate tpcr  --rows 60000 --sites 8 --out wh/
    python -m repro generate flows --flows 50000 --routers 4 --out fw/

    # look at it
    python -m repro info wh/
    python -m repro stats wh/ --attrs CustName,NationKey

    # run OLAP-SQL against it (Egil frontend + Skalla engine)
    python -m repro query wh/ "SELECT NationKey, COUNT(*) AS n,
        AVG(ExtendedPrice) AS avg_price FROM TPCR GROUP BY NationKey"

    # see the distributed plan without running it
    python -m repro explain wh/ "SELECT ..." --optimize all

Exit codes: 0 on success, 1 on domain errors (bad SQL, bad warehouse),
2 on usage errors (argparse's convention).
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.errors import SkallaError
from repro.bench.harness import build_flow_warehouse, build_tpcr_warehouse
from repro.distributed.plan import OptimizationFlags
from repro.distributed.storage import (
    load_warehouse, save_warehouse, saved_site_ids)
from repro.distributed.transport import DEFAULT_TRANSPORT, TRANSPORTS
from repro.optimizer.planner import build_plan
from repro.relational.statistics import collect_stats
from repro.sql.compiler import compile_query

#: Named optimization levels accepted by --optimize.
OPTIMIZE_LEVELS = {
    "none": OptimizationFlags(),
    "coalesce": OptimizationFlags(coalesce=True),
    "group-reduction": OptimizationFlags(group_reduction_independent=True,
                                         group_reduction_aware=True),
    "sync-reduction": OptimizationFlags(sync_reduction=True),
    "all": OptimizationFlags.all(),
}


def _add_topology_arguments(command: argparse.ArgumentParser) -> None:
    command.add_argument("--topology", choices=("flat", "tree"),
                         default="flat",
                         help="aggregation topology the modeled cost is "
                              "priced on: flat scatter-gather (default) "
                              "or a link-aware aggregation tree built "
                              "from a generated WAN graph (execution is "
                              "always flat)")
    command.add_argument("--fanout", type=int, default=4,
                         help="child bound per aggregation-tree node "
                              "(default 4; only with --topology tree)")
    command.add_argument("--wan-regions", type=int, default=None,
                         help="regions in the generated WAN (default: "
                              "sites // 16; only with --topology tree)")
    command.add_argument("--wan-seed", type=int, default=0,
                         help="seed for the generated WAN's link jitter "
                              "(default 0; only with --topology tree)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Skalla distributed OLAP warehouse (EDBT 2002 "
                    "reproduction)")
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate", help="generate a warehouse and save it to disk")
    kinds = generate.add_subparsers(dest="kind", required=True)

    tpcr = kinds.add_parser("tpcr", help="TPC-R style denormalized data")
    tpcr.add_argument("--rows", type=int, default=60_000)
    tpcr.add_argument("--sites", type=int, default=8)
    tpcr.add_argument("--customers", type=int, default=None)
    tpcr.add_argument("--low-cardinality", action="store_true",
                      help="use the 3k-customer setting")
    tpcr.add_argument("--seed", type=int, default=42)
    tpcr.add_argument("--out", required=True)

    flows = kinds.add_parser("flows", help="synthetic IP-flow data")
    flows.add_argument("--flows", type=int, default=50_000)
    flows.add_argument("--routers", type=int, default=8)
    flows.add_argument("--source-as", type=int, default=64)
    flows.add_argument("--seed", type=int, default=7)
    flows.add_argument("--out", required=True)

    info = commands.add_parser("info", help="describe a saved warehouse")
    info.add_argument("warehouse")

    stats = commands.add_parser(
        "stats", help="collect merged column statistics")
    stats.add_argument("warehouse")
    stats.add_argument("--attrs", required=True,
                       help="comma-separated attribute names")

    query = commands.add_parser("query", help="run OLAP-SQL")
    query.add_argument("warehouse")
    query.add_argument("sql")
    query.add_argument("--optimize", choices=sorted(OPTIMIZE_LEVELS),
                       default="all")
    query.add_argument("--transport", choices=sorted(TRANSPORTS),
                       default=DEFAULT_TRANSPORT,
                       help="site execution backend: inprocess (default, "
                            "modeled network only), thread (pooled "
                            "threads), process (one worker process per "
                            "site, real serialized bytes)")
    query.add_argument("--max-inflight", type=int, default=None,
                       help="bound on concurrently dispatched site calls "
                            "per round (default: backend-chosen; 1 forces "
                            "sequential dispatch)")
    query.add_argument("--hedge", action=argparse.BooleanOptionalAction,
                       default=True,
                       help="straggler hedging: re-dispatch sites past a "
                            "median-derived deadline once, first response "
                            "wins (default on; --no-hedge disables)")
    query.add_argument("--shm", action="store_true",
                       help="with --transport process: ship large site "
                            "sub-results through shared-memory segments "
                            "instead of streaming them over the pipe")
    query.add_argument("--cache", action=argparse.BooleanOptionalAction,
                       default=False,
                       help="enable the coordinator-side sub-aggregate "
                            "cache (reuses per-site sub-results across "
                            "repeated rounds; --no-cache disables)")
    query.add_argument("--cache-budget-mb", type=float, default=64.0,
                       help="cache memory budget in MiB of SKRL-encoded "
                            "sub-results (default 64)")
    query.add_argument("--repeat", type=int, default=1,
                       help="execute the query N times in one process "
                            "(warm runs demonstrate the cache; the last "
                            "run's result is printed)")
    query.add_argument("--limit", type=int, default=20,
                       help="rows to print (default 20)")
    query.add_argument("--explain", action="store_true",
                       help="also print the plan")
    query.add_argument("--sketch-precision", type=int, default=None,
                       metavar="P",
                       help="accuracy/space knob for APPROX_* aggregates "
                            "(4-18): HyperLogLog uses 2**P registers, the "
                            "quantile sketch scales its k to match; "
                            "default leaves each sketch at its built-in "
                            "default (P=12, k=200)")
    query.add_argument("--skew-threshold", type=float, default=1.5,
                       metavar="RATIO",
                       help="predicted max/mean round-time ratio above "
                            "which a hot fragment splits across virtual "
                            "sub-sites (default 1.5; heavy-hitter keys "
                            "are spread by a Misra-Gries sketch)")
    query.add_argument("--no-skew-split", action="store_true",
                       help="disable skew-aware virtual-site splitting "
                            "(hedging alone handles stragglers)")
    _add_topology_arguments(query)

    explain = commands.add_parser(
        "explain", help="show the distributed plan without executing")
    explain.add_argument("warehouse")
    explain.add_argument("sql")
    explain.add_argument("--optimize", choices=sorted(OPTIMIZE_LEVELS),
                         default="all")
    explain.add_argument("--sketch-precision", type=int, default=None,
                         metavar="P",
                         help="accuracy/space knob for APPROX_* "
                              "aggregates (4-18)")
    _add_topology_arguments(explain)

    serve = commands.add_parser(
        "serve", help="serve SQL statements from stdin through the "
                      "multi-tenant query service (one statement per "
                      "line; 'tenant: SQL' sets the tenant)")
    serve.add_argument("warehouse")
    serve.add_argument("--workers", type=int, default=4,
                       help="concurrent executor threads (default 4)")
    serve.add_argument("--transport", choices=sorted(TRANSPORTS),
                       default=DEFAULT_TRANSPORT)
    serve.add_argument("--max-inflight", type=int, default=None)
    serve.add_argument("--optimize", choices=sorted(OPTIMIZE_LEVELS),
                       default="all")
    serve.add_argument("--max-queue-depth", type=int, default=64,
                       help="admission bound; beyond it queries are "
                            "rejected (default 64)")
    serve.add_argument("--deadline", type=float, default=None,
                       help="per-query deadline in seconds, enforced at "
                            "dispatch (default: none)")
    serve.add_argument("--limit", type=int, default=10,
                       help="rows to print per result (default 10)")
    return parser


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------

def _cmd_generate(args) -> int:
    if args.kind == "tpcr":
        warehouse = build_tpcr_warehouse(
            num_rows=args.rows, num_sites=args.sites,
            high_cardinality=not args.low_cardinality, seed=args.seed,
            num_customers=args.customers)
        engine = warehouse.engine
        label = f"TPCR ({args.rows} rows, {args.sites} sites)"
    else:
        warehouse = build_flow_warehouse(
            num_flows=args.flows, num_routers=args.routers,
            num_source_as=args.source_as, seed=args.seed)
        engine = warehouse.engine
        label = f"flows ({args.flows} rows, {args.routers} routers)"
    path = save_warehouse(engine, args.out)
    print(f"saved {label} warehouse to {path}")
    return 0


def _cmd_info(args) -> int:
    engine = load_warehouse(args.warehouse)
    print(f"warehouse: {args.warehouse}")
    print(f"sites: {len(engine.site_ids)}")
    total = 0
    for site in engine.site_ids:
        rows = engine.fragment(site).num_rows
        total += rows
        print(f"  site {site}: {rows:,} rows")
    print(f"total rows: {total:,}")
    print(f"schema: {', '.join(engine.detail_schema.names)}")
    # declared plus those observed so far; a report observes nothing new
    knowledge = engine.knowledge
    attrs = sorted(knowledge.partition_attributes(engine.site_ids, filter(
        knowledge.observed, engine.detail_schema.names)))
    print(f"partition attributes: {attrs or '(none)'}")
    print(f"link: {engine.link.bandwidth:.0f} B/s, "
          f"{engine.link.latency * 1000:.1f} ms latency")
    return 0


def _cmd_stats(args) -> int:
    engine = load_warehouse(args.warehouse)
    attrs = [name.strip() for name in args.attrs.split(",") if name.strip()]
    merged = collect_stats([engine.fragment(site)
                            for site in engine.site_ids], attrs=attrs)
    print(f"rows: {merged.row_count:,}")
    for name in attrs:
        column = merged.column(name)
        marker = "" if column.exact else " (estimated)"
        print(f"{name}: distinct≈{column.distinct:.0f}{marker}, "
              f"min={column.minimum!r}, max={column.maximum!r}")
    return 0


def _resolve_flags(name: str) -> OptimizationFlags:
    return OPTIMIZE_LEVELS[name]


def _build_wan(args, num_sites: int):
    from repro.topology import clustered_wan
    return clustered_wan(num_sites, num_regions=args.wan_regions,
                         seed=args.wan_seed)


def _cmd_query(args) -> int:
    options = {}
    if args.shm:
        if args.transport != "process":
            raise SystemExit("--shm requires --transport process")
        options["shared_memory"] = True
    # Execution is always the flat star; --topology tree prices the
    # same run as if its rounds had merged up the cost-driven tree.
    tree = wan = None
    if args.topology == "tree":
        from repro.topology import build_cost_tree
        wan = _build_wan(args, len(saved_site_ids(args.warehouse)))
        tree = build_cost_tree(wan, args.fanout)
    skew = None
    if not args.no_skew_split:
        from repro.skew import SkewPolicy
        skew = SkewPolicy(threshold=args.skew_threshold)
    engine = load_warehouse(
        args.warehouse, transport=args.transport,
        max_inflight=args.max_inflight, hedge=args.hedge,
        transport_options=options, skew=skew)
    if args.cache:
        engine.enable_cache(budget_mb=args.cache_budget_mb)
    from repro.sql.parser import parse
    statement = parse(args.sql)
    flags = _resolve_flags(args.optimize)
    repeats = max(1, args.repeat)
    if statement.cube_family:
        from repro.cube import compile_lattice, execute_lattice
        plan = compile_lattice(statement, engine.detail_schema,
                               sketch_precision=args.sketch_precision)
        try:
            for __ in range(repeats):
                execution = execute_lattice(engine, plan, flags)
        finally:
            engine.close()
        runs, relation = execution.runs, execution.relation
        metrics = execution.metrics
        table = relation.sort(
            [*plan.attrs, *(alias for __, alias in plan.groupings)])
    else:
        compiled = compile_query(args.sql, engine.detail_schema,
                                 sketch_precision=args.sketch_precision)
        expression = compiled.expression
        try:
            for __ in range(repeats):
                result = engine.execute(expression, flags)
        finally:
            engine.close()
        runs, relation, metrics = [result], result.relation, result.metrics
        table = compiled.post_process(relation)
        if not compiled.order_by:
            table = table.sort(list(expression.key))
    if tree is not None:
        from repro.distributed.metrics import QueryMetrics
        from repro.distributed.pricing import price
        priced = QueryMetrics.combined(
            [price(run.log, tree, engine.link, wan=wan) for run in runs],
            metrics.num_participating_sites)
        for name in ("cuboids_total", "cuboids_derived", "lattice_levels"):
            setattr(priced, name, getattr(metrics, name))
        metrics = priced
    if args.explain:
        from repro.distributed.explain import explain_analyze
        from repro.distributed.engine import ExecutionResult
        print(explain_analyze(ExecutionResult(relation, metrics,
                                              runs[0].plan)))
        print()
    print(table.pretty(args.limit))
    print(f"\n{table.num_rows} rows; "
          f"{metrics.num_synchronizations} synchronization(s); "
          f"{metrics.total_bytes:,} bytes moved (modeled); "
          f"response {metrics.response_seconds:.3f}s "
          f"[transport {metrics.transport}]")
    if metrics.real_bytes:
        print(f"real wire traffic: {metrics.real_bytes:,} bytes "
              f"serialized; {metrics.real_seconds:.3f}s measured; "
              f"{metrics.retries} retry(ies), "
              f"{metrics.worker_respawns} respawn(s)")
    if metrics.sum_site_wall_seconds > 0.0:
        print(f"dispatch: critical path {metrics.critical_path_seconds:.3f}s "
              f"vs sequential {metrics.sum_site_wall_seconds:.3f}s "
              f"(speedup bound {metrics.parallel_speedup_bound:.2f}x, "
              f"skew {metrics.skew_ratio:.2f}x); "
              f"hedges {metrics.hedges_issued} issued / "
              f"{metrics.hedges_won} won")
    if tree is not None:
        from repro.topology import tree_summary
        print(f"tree: {tree_summary(tree)}; root ingress "
              f"{metrics.root_ingress_bytes:,} B vs flat "
              f"{metrics.flat_ingress_bytes:,} B "
              f"({metrics.ingress_reduction_ratio:.1f}x reduction)")
        if metrics.aggregator_failures:
            print(f"tree faults: {metrics.aggregator_failures} "
                  f"aggregator failure(s), "
                  f"{metrics.reparented_subtrees} re-parented, "
                  f"{metrics.flat_fallbacks} flat fallback(s)")
    if metrics.skew_splits:
        print(f"skew: {metrics.skew_splits} split(s) across "
              f"{metrics.virtual_sites} virtual scan(s); "
              f"{metrics.heavy_hitter_keys} heavy-hitter key(s); "
              f"{metrics.rebalanced_bytes:,} bytes rebalanced")
    if metrics.cuboids_total:
        print(f"cube: {metrics.cuboids_total} cuboid(s), "
              f"{metrics.cuboids_derived} derived coordinator-side; "
              f"{metrics.lattice_levels} scatter level(s)")
    if metrics.cache_enabled:
        print(f"cache: {metrics.cache_hits} hit(s), "
              f"{metrics.cache_misses} miss(es), "
              f"{metrics.cache_delta_merges} delta merge(s); "
              f"{metrics.site_scans} site scan(s); "
              f"{metrics.cache_bytes_saved:,} bytes saved "
              f"[{engine.cache.describe()}]")
    if metrics.sketch_state_bytes:
        print(f"sketches: {metrics.sketch_state_bytes:,} state bytes vs "
              f"{metrics.sketch_exact_bytes:,} exact-shipping bytes "
              f"({metrics.sketch_compression_ratio:.1f}x)")
    return 0


def _cmd_explain(args) -> int:
    engine = load_warehouse(args.warehouse)
    expression = compile_query(
        args.sql, engine.detail_schema,
        sketch_precision=args.sketch_precision).expression
    flags = _resolve_flags(args.optimize)
    plan = build_plan(expression, flags, engine.knowledge,
                      engine.detail_schema, sites=engine.site_ids)
    print("expression:")
    print("  " + expression.describe().replace("\n", "\n  "))
    print("plan:")
    print("  " + plan.explain().replace("\n", "\n  "))
    if args.topology == "tree":
        from repro.topology import build_cost_tree, describe_tree
        wan = _build_wan(args, len(engine.site_ids))
        tree = build_cost_tree(wan, args.fanout)
        print("aggregation tree:")
        print(f"  {wan.describe()}")
        print("  " + describe_tree(tree).replace("\n", "\n  "))
    return 0


def _cmd_serve(args) -> int:
    from repro.service import QueryService
    engine = load_warehouse(args.warehouse)
    engine.use_transport(args.transport, max_inflight=args.max_inflight)
    flags = _resolve_flags(args.optimize)
    served = 0
    try:
        with QueryService(engine, workers=args.workers,
                          max_queue_depth=args.max_queue_depth,
                          flags=flags) as service:
            for line in sys.stdin:
                statement = line.strip()
                if not statement or statement.startswith("--"):
                    continue
                tenant = "default"
                if ":" in statement and not statement.upper().startswith(
                        "SELECT"):
                    tenant, statement = statement.split(":", 1)
                    tenant, statement = tenant.strip(), statement.strip()
                try:
                    result = service.execute(
                        statement, tenant=tenant,
                        deadline_seconds=args.deadline)
                except SkallaError as error:
                    print(f"error: {error}", file=sys.stderr)
                    continue
                served += 1
                print(f"-- query {result.query_id} (tenant {tenant}, "
                      f"{result.latency_seconds * 1000:.1f} ms, "
                      f"{'plan-cache hit' if result.plan_cache_hit else 'compiled'})")
                print(result.relation.pretty(args.limit))
            print()
            print(service.describe())
    finally:
        engine.close()
    return 0 if served else 1


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "info": _cmd_info,
        "stats": _cmd_stats,
        "query": _cmd_query,
        "explain": _cmd_explain,
        "serve": _cmd_serve,
    }
    try:
        return handlers[args.command](args)
    except SkallaError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
