"""Serving plain GROUP BY queries from stored cuboid states.

A dashboard-style slice query — plain aggregates over a subset of a
cube source's attributes, no WHERE/THEN COMPUTE/computed columns —
never needs a distributed round: the source's synchronized states,
kept in the engine's sub-aggregate cache by
:func:`~repro.cube.executor.execute_lattice`, roll up to the requested
grouping locally (presentation clauses still apply afterwards).  When
an append has moved a site since the states were stored, the source is
*refreshed* first by re-running its own round with the flags the cube
ran with — the cache answers the unchanged sites with hits and the
appended one with a delta merge — and re-stored.
"""

from __future__ import annotations

from typing import Sequence

from repro.relational.aggregates import AggregateSpec
from repro.relational.relation import Relation
from repro.distributed.metrics import QueryMetrics
from repro.sql.ast import SelectStatement
from repro.sql.compiler import spec_precision
from repro.cache.store import CacheEntry
from repro.cube.lattice import groupby_expression
from repro.cube.rollup import derive_cuboid


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


def find_ancestor(cache, subset: Sequence[str],
                  aggregates: Sequence[AggregateSpec],
                  ) -> tuple[CacheEntry, bool] | None:
    """The cheapest stored cuboid covering ``subset``, and if current.

    Every requested aggregate must appear (same function, column,
    alias, parameter and precision — aliases name the state columns)
    in the stored cuboid.  A current entry beats a stale one; then the
    fewest state rows win.
    """
    wanted = set(aggregates)
    best, best_rank = None, None
    for entry, current in cache.synchronized():
        key, stored, __ = entry.fingerprint
        if not set(subset) <= set(key) or not wanted <= set(stored):
            continue
        rank = (not current, entry.relation.num_rows)
        if best_rank is None or rank < best_rank:
            best, best_rank = (entry, current), rank
    return best


def serve_statement(engine, statement: SelectStatement,
                    sketch_precision: int | None = None,
                    ) -> tuple[Relation, QueryMetrics] | None:
    """Try to answer ``statement`` from stored cuboid states.

    Returns ``(relation, metrics)`` — the raw grouped relation (before
    presentation clauses) plus metrics with ``ancestor_hits`` set — or
    ``None`` when the engine's cache holds no cuboid covering the
    query.  A stale covering entry is refreshed through the engine
    first; its round metrics are folded into the returned metrics.
    ``sketch_precision`` is the statement's APPROX_* precision: only a
    cuboid stored at the same precision matches.
    """
    cache = engine.cache
    if cache is None or not servable_grouping(statement):
        return None
    specs = statement_specs(statement, sketch_precision)
    subset = statement.group_attrs
    found = find_ancestor(cache, subset, specs)
    if found is None:
        return None
    entry, current = found
    key, aggregates, flags = entry.fingerprint
    metrics = QueryMetrics(num_participating_sites=0)
    if not current:
        versions = cache.versions()
        refresh = engine.execute(
            groupby_expression(key, list(aggregates)), flags)
        if refresh.states is None:
            return None
        entry = cache.put_synchronized(entry.fingerprint, refresh.states,
                                       versions)
        if entry is None:
            return None
        metrics = refresh.metrics
    relation = derive_cuboid(cache.fulfill_synchronized(entry), key,
                             tuple(subset), specs, engine.detail_schema)
    metrics.ancestor_hits = 1
    return relation, metrics
