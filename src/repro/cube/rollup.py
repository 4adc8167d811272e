"""Theorem-1 rollup of captured sub-aggregate states up the lattice.

A finer cuboid's *state relation* (key columns plus one
``<alias>__<primitive>`` column per aggregate state, as captured by the
coordinator) is a complete sub-aggregate of every coarser cuboid whose
attributes are a subset of its key: re-grouping the states on the
coarser key and merging them with the same Theorem-1 super-aggregates
the engine already uses yields the coarser cuboid exactly — counts and
sums add, mins/maxes take min/max, Chan ``m2`` states combine, and
HLL/KLL/Misra-Gries sketch states merge bytewise.  No detail tuple is
touched and no distributed round runs.

NaN group keys need no special casing here: :meth:`Relation.
group_index` factorizes NaNs into a single slot per column, so a
NaN key groups as one value exactly like the engine's own grouping.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import QueryError
from repro.relational.aggregates import (
    AggregateSpec, merge_spec_states_grouped)
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, Schema


def rollup_states(states: Relation,
                  from_key: Sequence[str],
                  to_key: Sequence[str],
                  aggregates: Sequence[AggregateSpec],
                  detail_schema: Schema) -> Relation:
    """Derive the ``to_key`` cuboid's state relation from a finer one.

    ``states`` must be keyed on ``from_key`` with ``to_key`` a subset of
    it.  An empty ``to_key`` yields the one-row grand-total states (one
    row even over empty input, matching ``group_by(detail, [], …)``).
    """
    missing = [name for name in to_key if name not in set(from_key)]
    if missing:
        raise QueryError(
            f"cannot roll up to {tuple(to_key)!r}: {missing!r} not in "
            f"the source cuboid key {tuple(from_key)!r}")
    num_rows = states.num_rows
    if to_key:
        index = states.group_index(list(to_key))
        codes, first, num_groups = index.codes, index.first, index.num_groups
    else:
        codes = np.zeros(num_rows, dtype=np.int64)
        first = np.empty(0, dtype=np.int64)
        num_groups = 1

    merged: dict[str, np.ndarray] = {}
    attrs: list[Attribute] = [states.schema[name] for name in to_key]
    columns: dict[str, np.ndarray] = {
        name: states.column(name)[first] for name in to_key}
    for spec in aggregates:
        fields = spec.state_fields(detail_schema)
        state_columns = {field.name: states.column(field.name)
                         for field in fields}
        per_group = merge_spec_states_grouped(
            spec, detail_schema, codes, state_columns, num_groups)
        for field in fields:
            merged[field.name] = per_group[field.name]
            attrs.append(Attribute(field.name, field.dtype))
    columns.update(merged)
    return Relation(Schema(attrs), columns)


def finalize_states_relation(states: Relation,
                             key: Sequence[str],
                             aggregates: Sequence[AggregateSpec],
                             detail_schema: Schema) -> Relation:
    """Finalize a state relation into the user-visible cuboid."""
    attrs: list[Attribute] = [states.schema[name] for name in key]
    columns: dict[str, np.ndarray] = {
        name: states.column(name) for name in key}
    for spec in aggregates:
        per_primitive = {
            field.primitive: states.column(field.name)
            for field in spec.state_fields(detail_schema)}
        columns[spec.alias] = spec.function.finalize(per_primitive)
        attrs.append(spec.output_attribute(detail_schema))
    return Relation(Schema(attrs), columns)


def derive_cuboid(states: Relation,
                  from_key: Sequence[str],
                  to_key: Sequence[str],
                  aggregates: Sequence[AggregateSpec],
                  detail_schema: Schema) -> Relation:
    """Roll states up to ``to_key`` and finalize, in one call."""
    rolled = rollup_states(states, from_key, to_key, aggregates,
                           detail_schema)
    return finalize_states_relation(rolled, to_key, aggregates,
                                    detail_schema)
