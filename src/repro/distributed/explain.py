"""EXPLAIN ANALYZE: combined plan + measured-execution reports.

``DistributedPlan.explain()`` says what the planner decided;
:func:`explain_analyze` adds what actually happened — per-phase time
breakdown, traffic by direction and kind, and the headline totals — in
one human-readable block.  Used by the CLI and handy in notebooks and
bug reports.
"""

from __future__ import annotations

from collections import Counter

from repro.distributed.engine import ExecutionResult


def explain_analyze(result: ExecutionResult) -> str:
    """Render plan + measured execution of one query run."""
    lines = ["== plan =="]
    lines.append(result.plan.explain())
    metrics = result.metrics
    lines.append("")
    lines.append("== execution ==")
    lines.append(f"result rows        : {result.relation.num_rows}")
    lines.append(f"participating sites: {metrics.num_participating_sites}")
    lines.append(f"synchronizations   : {metrics.num_synchronizations}")
    if metrics.retries:
        lines.append(f"site retries       : {metrics.retries}")
    lines.append(f"response time      : {metrics.response_seconds:.4f}s")
    lines.append("")
    lines.append("phase breakdown (seconds):")
    header = f"  {'phase':<14} {'sites':>8} {'coord':>8} " \
             f"{'network':>8} {'total':>8}"
    lines.append(header)
    for phase in metrics.phases:
        lines.append(
            f"  {phase.name:<14} {phase.site_seconds:>8.4f} "
            f"{phase.coordinator_seconds:>8.4f} "
            f"{phase.communication_seconds:>8.4f} "
            f"{phase.total_seconds:>8.4f}")
    if metrics.sum_site_wall_seconds > 0.0:
        lines.append("")
        lines.append("parallel dispatch:")
        dispatches = {phase.dispatch for phase in metrics.phases
                      if phase.dispatch}
        if dispatches:
            lines.append(f"  dispatch       : "
                         f"{', '.join(sorted(dispatches))}")
        lines.append(f"  critical path  : "
                     f"{metrics.critical_path_seconds:.4f}s "
                     f"(slowest site per round)")
        lines.append(f"  sum of sites   : "
                     f"{metrics.sum_site_wall_seconds:.4f}s "
                     f"(sequential dispatch would pay this)")
        lines.append(f"  speedup bound  : "
                     f"{metrics.parallel_speedup_bound:.2f}x")
        lines.append(f"  worst skew     : {metrics.skew_ratio:.2f}x "
                     f"(max/mean site latency)")
        if metrics.hedges_issued:
            lines.append(
                f"  hedges         : {metrics.hedges_issued} issued, "
                f"{metrics.hedges_won} won, "
                f"{metrics.hedges_wasted} wasted")
    if metrics.topology == "tree":
        lines.append("")
        lines.append("aggregation tree:")
        lines.append(f"  shape          : {metrics.tree_shape}")
        lines.append(f"  root ingress   : {metrics.root_ingress_bytes:,} B "
                     f"(bytes entering the root)")
        lines.append(f"  flat would pay : {metrics.flat_ingress_bytes:,} B "
                     f"({metrics.ingress_reduction_ratio:.1f}x reduction)")
        levels = metrics.tree_level_seconds
        if levels:
            per_level = ", ".join(
                f"L{level}={seconds:.4f}s"
                for level, seconds in sorted(levels.items()))
            lines.append(f"  level critical : {per_level}")
        if metrics.aggregator_failures:
            lines.append(
                f"  failures       : {metrics.aggregator_failures} "
                f"aggregator(s) failed, "
                f"{metrics.reparented_subtrees} subtree(s) re-parented, "
                f"{metrics.flat_fallbacks} flat fallback(s)")
    if metrics.skew_splits:
        lines.append("")
        lines.append("skew mitigation:")
        lines.append(f"  splits         : {metrics.skew_splits} "
                     f"(hot fragments fanned across virtual sub-sites)")
        lines.append(f"  virtual scans  : {metrics.virtual_sites}")
        lines.append(f"  heavy hitters  : {metrics.heavy_hitter_keys} "
                     f"key(s) spread across sub-sites")
        lines.append(f"  rebalanced     : {metrics.rebalanced_bytes:,} B "
                     f"moved off split sites' critical paths")
    if metrics.cuboids_total:
        lines.append("")
        lines.append("cube lattice:")
        lines.append(f"  cuboids        : {metrics.cuboids_total} "
                     f"requested, {metrics.cuboids_derived} derived "
                     f"coordinator-side (Theorem-1 rollup)")
        lines.append(f"  scatter levels : {metrics.lattice_levels} "
                     f"(distributed rounds instead of "
                     f"{metrics.cuboids_total})")
    if metrics.ancestor_hits:
        lines.append("")
        lines.append("materialized-cuboid serving:")
        lines.append(f"  ancestor hits  : {metrics.ancestor_hits} "
                     f"(answered by local rollup, no site scans)")
    if metrics.cache_enabled:
        lines.append("")
        lines.append("sub-aggregate cache:")
        lines.append(f"  hits           : {metrics.cache_hits}")
        lines.append(f"  misses         : {metrics.cache_misses}")
        lines.append(f"  delta merges   : {metrics.cache_delta_merges}")
        lines.append(f"  site scans     : {metrics.site_scans}")
        lines.append(f"  bytes saved    : {metrics.cache_bytes_saved:,} B")
        scans = [f"{phase.name}={phase.site_scans}"
                 for phase in metrics.phases]
        lines.append(f"  scans per phase: {', '.join(scans)}")
    if metrics.shared_scan_hits or metrics.shared_scan_stale:
        lines.append("")
        lines.append("cross-query scatter sharing:")
        lines.append(f"  shared scans   : {metrics.shared_scan_hits} "
                     f"(consumed from concurrent queries' dispatches)")
        if metrics.shared_scan_stale:
            lines.append(f"  stale discards : {metrics.shared_scan_stale} "
                         f"(append raced the shared flight)")
    if metrics.sketch_state_bytes:
        lines.append("")
        lines.append("sketch traffic (APPROX_* aggregates):")
        lines.append(f"  sketch states  : {metrics.sketch_state_bytes:,} B "
                     f"(bounded by groups x sketch size)")
        lines.append(f"  exact shipping : {metrics.sketch_exact_bytes:,} B "
                     f"(raw detail values, grows with |R|)")
        lines.append(f"  compression    : "
                     f"{metrics.sketch_compression_ratio:.1f}x")
    lines.append("")
    lines.append("traffic:")
    lines.append(f"  to coordinator : {metrics.bytes_to_coordinator:,} B")
    lines.append(f"  to sites       : {metrics.bytes_to_sites:,} B")
    lines.append(f"  total          : {metrics.total_bytes:,} B "
                 f"({metrics.rows_shipped:,} rows shipped)")
    by_kind = Counter()
    for message in metrics.log.messages:
        by_kind[message.kind] += message.total_bytes
    for kind, total in sorted(by_kind.items(), key=lambda kv: -kv[1]):
        lines.append(f"    {kind:<15}: {total:,} B")
    return "\n".join(lines)
