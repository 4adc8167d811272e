"""The Skalla coordinator: the base-result structure and synchronization.

The coordinator owns the *base-result structure* ``X`` — the base-values
relation extended, round by round, with the finalized aggregates of each
GMDJ.  **Synchronization** (Theorem 1) merges the sub-aggregate relations
``H_1 … H_n`` returned by the sites into ``X``: rows are matched on the
key attributes ``K`` (the paper's ``θ_K``), state columns merge with the
aggregate's super-aggregate (counts and sums add, mins/maxes take
min/max), and the merged states are finalized into user-visible columns.

The merge is O(|H|) — a dense group-coding pass plus vectorized
scatter-reductions — matching the paper's remark that the structure is
indexed on K and synchronization runs in time linear in |H|.  When the
plan proves a partition attribute among K (Definition 2 / Corollary 1:
no two sites hold the same key) what the sites compute from their own
fragments is synchronized by **union** — concatenation, no key is
matched at all.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from repro.errors import PlanError
from repro.relational.aggregates import (
    merge_spec_states_grouped, place_grouped)
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, Schema
from repro.core.evaluator import finalize_states, match_codes
from repro.core.expression_tree import GmdjExpression
from repro.core.gmdj import Gmdj
from repro.distributed.plan import LocalStep


def combine_states_by_key(sub_results: Sequence[Relation],
                          key: Sequence[str],
                          gmdjs: Sequence[Gmdj],
                          detail_schema: Schema) -> Relation:
    """Merge several sub-aggregate relations into one, keyed on ``key``.

    This is Theorem 1 applied *partially* — what an interior tree
    aggregator, a split hot site and a cache delta merge all do: the
    output has one row per distinct key present in the inputs, with
    state columns merged by each primitive's super-aggregate.
    Non-state attributes (the base attributes carried by include_base
    steps) are taken from the first occurrence of each key — they are
    functionally determined by it.
    """
    if not sub_results:
        raise PlanError("nothing to combine")
    live = [relation for relation in sub_results if relation.num_rows]
    if not live:
        return sub_results[0]
    combined = Relation.concat(live)
    # Output row g is key group g in first-appearance order; its carried
    # non-state attributes come from the group's first occurrence.
    index = combined.group_index(list(key))
    num_groups = index.num_groups
    matched = np.ones(num_groups, dtype=bool)
    gather = np.arange(num_groups)

    state_names = {field.name for gmdj in gmdjs
                   for field in gmdj.state_fields(detail_schema)}
    columns: dict[str, np.ndarray] = {}
    for name in combined.schema.names:
        if name in state_names:
            continue
        columns[name] = combined.column(name)[index.first]
    for gmdj in gmdjs:
        for spec in gmdj.all_aggregates:
            fields = spec.state_fields(detail_schema)
            spec_columns = {field.name: combined.column(field.name)
                            for field in fields}
            per_group = merge_spec_states_grouped(
                spec, detail_schema, index.codes, spec_columns, num_groups)
            for field in fields:
                columns[field.name] = place_grouped(
                    field, per_group[field.name], matched, gather,
                    num_groups)
    return Relation(combined.schema, columns)


def merge_partial(relations: Sequence[Relation], key: Sequence[str],
                  step: LocalStep | None,
                  detail_schema: Schema) -> Relation:
    """Theorem 1, partially, as an interior aggregator or a split hot
    site merges: base sub-results (``step`` is ``None``) concat +
    distinct; step sub-results merge state columns by key."""
    if step is None:
        return Relation.concat(list(relations)).distinct()
    return combine_states_by_key(relations, key, step.gmdjs, detail_schema)


class Coordinator:
    """Maintains ``X`` across rounds and performs synchronization."""

    def __init__(self, expression: GmdjExpression, detail_schema: Schema):
        self.expression = expression
        self.detail_schema = detail_schema
        self.key = expression.key
        self.base_schema = expression.base_schema(detail_schema)
        self.result: Relation | None = None
        #: the plan's ``union_on`` — a partition attribute among the key
        #: attributes, proved by the planner (the engine copies it from
        #: the plan it runs).  The trust base is the one Theorem 4 /
        #: Corollary 1 rewrites already stand on: ``info.verify`` at
        #: engine construction, ``engine.append`` refusing rows that
        #: violate φ_i (withdrawing an observed fact they break), and
        #: every site's virtual sub-sites and cache deltas being merged
        #: (keyed) before they reach the coordinator.
        self.union_on: str | None = None
        #: the last synchronized round's *pre-finalize* merged states,
        #: keyed on ``key`` — the Theorem-1 sub-aggregates the cube
        #: lattice rolls up to coarser granularities coordinator-side.
        self.state_relation: Relation | None = None

    # -- round 0 -----------------------------------------------------------------

    def synchronize_base(self,
                         fragments: Sequence[Relation]) -> tuple[Relation, float]:
        """Merge the sites' ``B0_i`` into ``B0`` (duplicate elimination).

        Each ``B0_i`` is duplicate-free; under ``union_on`` no tuple
        occurs at two sites either, so the concatenation already is
        ``B0``.  Returns the synchronized base structure and the elapsed
        seconds.
        """
        started = time.perf_counter()
        if not fragments:
            raise PlanError("no base fragments to synchronize")
        combined = Relation.concat(list(fragments))
        self.result = (combined if self.union_on is not None
                       else combined.distinct())
        return self.result, time.perf_counter() - started

    def set_base(self, relation: Relation) -> None:
        """Install an explicit base-values relation (RelationBase case)."""
        self.result = relation

    # -- GMDJ rounds ----------------------------------------------------------------

    def synchronize_step(self, step: LocalStep,
                         sub_results: Sequence[Relation],
                         ) -> tuple[Relation, float]:
        """Merge the sites' sub-aggregates for one step into ``X``.

        For an ``include_base`` step (Proposition 2) the base structure
        itself is reconstructed as the distinct projection of the merged
        sub-results onto the base attributes — no base round happened.
        Under ``union_on`` with a key that covers the base attributes,
        every row of every ``H_i`` is a base tuple of its own: the
        projection is already distinct and row ``j`` is group ``j``.
        """
        started = time.perf_counter()
        sub_results = [h for h in sub_results]
        combined = (Relation.concat(sub_results) if sub_results
                    else None)
        live = combined is not None and combined.num_rows > 0

        base_names = self.base_schema.names
        union = (step.include_base and self.union_on is not None
                 and set(self.key) >= set(base_names))
        if not step.include_base:
            if self.result is None:
                raise PlanError("synchronize_step before the base round")
            base = self.result
        elif not live:
            base = Relation.empty(self.base_schema)
        elif union:
            base = combined.project(base_names)
        else:
            base = combined.project(base_names).distinct()

        if live and union:
            base_codes = h_codes = np.arange(base.num_rows, dtype=np.int64)
            num_groups = base.num_rows
        elif live:
            base_codes, h_codes, num_groups = match_codes(
                base, self.key, combined, self.key)
        else:
            base_codes = np.full(base.num_rows, -1, dtype=np.int64)
            h_codes = np.empty(0, dtype=np.int64)
            num_groups = 0
        matched = base_codes >= 0
        gather = np.where(matched, base_codes, 0)

        current = base
        state_attrs: list[Attribute] = []
        state_columns: dict[str, np.ndarray] = {}
        for gmdj in step.gmdjs:
            merged_states: dict[str, np.ndarray] = {}
            for spec in gmdj.all_aggregates:
                fields = spec.state_fields(self.detail_schema)
                if num_groups and combined is not None:
                    columns = {field.name: combined.column(field.name)
                               for field in fields}
                    per_group = merge_spec_states_grouped(
                        spec, self.detail_schema, h_codes, columns,
                        num_groups)
                else:
                    per_group = {field.name: None for field in fields}
                for field in fields:
                    merged_states[field.name] = place_grouped(
                        field, per_group[field.name], matched, gather,
                        base.num_rows)
                    state_attrs.append(Attribute(field.name, field.dtype))
            state_columns.update(merged_states)
            finalized = finalize_states(gmdj, merged_states,
                                        self.detail_schema)
            current = current.append_columns(
                [spec.output_attribute(self.detail_schema)
                 for spec in gmdj.all_aggregates],
                finalized)

        key_names = [name for name in self.key]
        self.state_relation = Relation(
            Schema([*(base.schema[name] for name in key_names),
                    *state_attrs]),
            {**{name: base.column(name) for name in key_names},
             **state_columns})
        self.result = current
        return current, time.perf_counter() - started

    def final_result(self) -> Relation:
        if self.result is None:
            raise PlanError("no result yet: the plan has not been executed")
        return self.result

