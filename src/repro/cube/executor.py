"""Round-per-level cube execution over a Skalla engine.

Only the lattice's *source* cuboids run distributed GMDJ rounds, level
by level (widest first); every other requested cuboid is derived
coordinator-side by Theorem-1 rollup of the captured source states.
Decomposable aggregates merge directly, APPROX_* roll their HLL/KLL
sketch states up, and an aggregate registered with
``rollup_safe=False`` drops the whole query to the per-cuboid fallback
(one round per granularity, the pre-lattice behaviour) with the
carve-out recorded in the query log.

With the engine's sub-aggregate cache on, every source's synchronized
states are kept in it (:func:`cuboid_key`), so a later slice over a
source's attributes can be rolled up from them
(:mod:`repro.cube.serving`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.relational.aggregates import AggregateSpec
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, Schema
from repro.relational.types import DataType
from repro.distributed.metrics import QueryMetrics
from repro.distributed.plan import NO_OPTIMIZATIONS, OptimizationFlags
from repro.cube.lattice import CubeLatticePlan
from repro.cube.rollup import derive_cuboid

#: Marker stitched into rolled-up attribute positions (Gray et al.).
ALL_MARKER = "ALL"


def cuboid_key(source: tuple[str, ...],
               aggregates: tuple[AggregateSpec, ...],
               flags: OptimizationFlags) -> tuple:
    """The cache key of one source cuboid's synchronized states.

    The flags it ran with are part of the key, so a refresh re-plans
    exactly the rounds the cube cached.
    """
    return (tuple(source), tuple(aggregates), flags)


@dataclass
class CubeExecution:
    """What one lattice execution produced."""

    relation: Relation
    metrics: QueryMetrics
    runs: list = field(default_factory=list)
    #: captured per-source state relations (rollup inputs), by cuboid key
    source_states: dict = field(default_factory=dict)


def stitch_cuboids(plan: CubeLatticePlan,
                   pieces: Mapping[tuple[str, ...], Relation],
                   detail_schema: Schema) -> Relation:
    """Combine per-cuboid relations into one ALL-marked table.

    Grouping attributes become strings with rolled-up positions holding
    the ``"ALL"`` marker (Gray et al.'s presentation); each
    ``GROUPING(...) AS alias`` select item appends an INT64 bit-vector
    column that distinguishes a *rolled-up* position from a group key
    whose **value** merely collides with the marker (a literal ``"ALL"``
    string, ``NaN``, or ``None`` in the data) — the §3 semantics.
    """
    alias_attributes = [spec.output_attribute(detail_schema)
                        for spec in plan.aggregates]
    schema = Schema([
        *(Attribute(attr, DataType.STRING) for attr in plan.attrs),
        *alias_attributes,
        *(Attribute(alias, DataType.INT64)
          for __, alias in plan.groupings)])
    parts = []
    for subset in plan.requested:
        piece = pieces[subset]
        rows = piece.num_rows
        columns: dict[str, np.ndarray] = {}
        for attr in plan.attrs:
            if attr in subset:
                columns[attr] = piece.column(attr).astype(
                    str).astype(object)
            else:
                columns[attr] = np.full(rows, ALL_MARKER, dtype=object)
        for spec in plan.aggregates:
            columns[spec.alias] = piece.column(spec.alias)
        for grouping_attrs, alias in plan.groupings:
            columns[alias] = np.full(
                rows, plan.grouping_value(subset, grouping_attrs),
                dtype=np.int64)
        parts.append(Relation(schema, columns))
    return Relation.concat(parts)


def execute_lattice(engine, plan: CubeLatticePlan,
                    flags: OptimizationFlags = NO_OPTIMIZATIONS,
                    ) -> CubeExecution:
    """Run a lattice plan on ``engine`` (flat or tree, any transport).

    With the engine's cache on, every source cuboid's state relation is
    stored in it under :func:`cuboid_key`, stamped with the version
    vector the rounds started from.
    """
    detail_schema = engine.detail_schema
    cache = engine.cache
    versions = cache.versions() if cache is not None else None
    aliases = [spec.alias for spec in plan.aggregates]
    pieces: dict[tuple[str, ...], Relation] = {}
    states: dict[tuple[str, ...], Relation] = {}
    runs = []
    if plan.rollable:
        levels = plan.levels
    else:
        # Carve-out: an aggregate opted out of lattice rollup — run one
        # round per requested cuboid, exactly the naive evaluation.
        levels = tuple((subset,) for subset in plan.requested)
    for level in levels:
        for source in level:
            result = engine.execute(plan.source_expression(source), flags)
            runs.append(result)
            pieces[source] = (result.relation if source
                              else result.relation.project(aliases))
            states[source] = result.states
    for subset in plan.requested:
        if subset not in pieces:
            source = plan.source_for(subset)
            pieces[subset] = derive_cuboid(
                states[source], source, subset, plan.aggregates,
                detail_schema)
    stitched = stitch_cuboids(plan, pieces, detail_schema)
    metrics = QueryMetrics.combined([run.metrics for run in runs],
                                    len(engine.site_ids))
    metrics.cuboids_total = len(plan.requested)
    metrics.cuboids_derived = len(plan.requested) - len(runs)
    metrics.lattice_levels = len(levels)
    if cache is not None and plan.rollable:
        for source, state_relation in states.items():
            if state_relation is not None and source:
                cache.put_synchronized(
                    cuboid_key(source, plan.aggregates, flags),
                    state_relation, versions)
    return CubeExecution(relation=stitched, metrics=metrics, runs=runs,
                         source_states=states)


def run_centralized(plan: CubeLatticePlan, detail: Relation) -> Relation:
    """The centralized oracle: evaluate every requested cuboid directly.

    The grand total evaluates through the one-row-spine GMDJ (not
    ``group_by(detail, [], …)``) so empty input yields the SQL-standard
    single row — the same row the distributed spine and the lattice
    rollup produce.
    """
    pieces: dict[tuple[str, ...], Relation] = {}
    aliases = [spec.alias for spec in plan.aggregates]
    for subset in plan.requested:
        expression = plan.source_expression(subset)
        piece = expression.evaluate_centralized(detail)
        pieces[subset] = piece if subset else piece.project(aliases)
    return stitch_cuboids(plan, pieces, detail.schema)
