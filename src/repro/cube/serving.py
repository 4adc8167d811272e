"""Serving plain GROUP BY queries from materialized cuboid ancestors.

A dashboard-style slice query — plain aggregates over a subset of a
materialized cuboid's attributes, no WHERE/THEN COMPUTE/computed
columns — never needs a distributed round: the stored ancestor's states
roll up to the requested grouping locally (presentation clauses still
apply afterwards).  When every matching entry is stale (an append moved
the engine's ``data_version``), the ancestor is *refreshed* first by
re-running its own source round — which the sub-aggregate cache
fulfils as a cheap DELTA upgrade — and re-stamped, keeping
materialized serving consistent with appends.
"""

from __future__ import annotations

from repro.relational.aggregates import AggregateSpec
from repro.relational.relation import Relation
from repro.distributed.metrics import QueryMetrics
from repro.sql.ast import SelectStatement
from repro.sql.compiler import spec_precision
from repro.cube.lattice import groupby_expression
from repro.cube.store import CuboidStore


def servable_grouping(statement: SelectStatement) -> bool:
    """Whether a statement is a plain grouping an ancestor can answer.

    HAVING/ORDER BY/LIMIT are fine — they post-process the finalized
    cuboid; WHERE, THEN COMPUTE, computed expressions, and cube-family
    groupings are not.
    """
    return (not statement.cube_family
            and statement.where is None
            and not statement.compute_rounds
            and not statement.computed
            and bool(statement.group_attrs)
            and bool(statement.aggregates))


def statement_specs(statement: SelectStatement,
                    sketch_precision: int | None = None,
                    ) -> tuple[AggregateSpec, ...]:
    return tuple(AggregateSpec(item.func, item.column, item.alias,
                               param=item.param,
                               precision=spec_precision(item.func,
                                                        sketch_precision))
                 for item in statement.aggregates)


def serve_statement(store: CuboidStore, engine,
                    statement: SelectStatement,
                    sketch_precision: int | None = None,
                    ) -> tuple[Relation, QueryMetrics] | None:
    """Try to answer ``statement`` from a materialized ancestor.

    Returns ``(relation, metrics)`` — the raw grouped relation (before
    presentation clauses) plus metrics with ``ancestor_hits`` set — or
    ``None`` when no stored cuboid covers the query.  A stale covering
    entry triggers a refresh round through the engine first; its round
    metrics are folded into the returned metrics.  ``sketch_precision``
    is the statement's APPROX_* precision: only a cuboid stored at the
    same precision matches.
    """
    if not servable_grouping(statement):
        return None
    specs = statement_specs(statement, sketch_precision)
    subset = statement.group_attrs
    version = engine.data_version
    entry = store.find_ancestor(subset, specs, version)
    refresh_run = None
    if entry is None:
        stale = store.find_ancestor(subset, specs, None)
        if stale is None:
            return None
        refresh_run = engine.execute(
            groupby_expression(stale.key, list(stale.aggregates)))
        if refresh_run.states is None:
            return None
        store.refreshes += 1
        entry = store.put(stale.key, stale.aggregates,
                          refresh_run.states, engine.data_version)
        if entry is None:
            return None
    relation = store.serve(entry, subset, specs, engine.detail_schema)
    metrics = QueryMetrics(num_participating_sites=0)
    if refresh_run is not None:
        metrics = refresh_run.metrics
    metrics.ancestor_hits = 1
    return relation, metrics
