"""A Skalla site: a local data warehouse holding one fragment of the
fact relation.

Sites receive plan steps from the coordinator and evaluate them against
their fragment with the *same* GMDJ evaluator a centralized warehouse
uses — only the requested output differs: sites produce **sub-aggregate
state columns** (Theorem 1's ``l'``), so the coordinator can merge
contributions from every site with super-aggregates.

A site executing a multi-GMDJ step (synchronization reduction, Thm. 5)
chains the rounds locally: after each GMDJ it finalizes the aggregates
*locally* and extends its working base relation so that later conditions
can reference earlier aggregates (e.g. ``r.Price >= b.avg1``).  For base
tuples homed at other sites those locally-finalized values are vacuous
(empty-state), but the step's conditions all entail equality on a
partition attribute, so foreign tuples can never match local detail rows
— their garbage never contaminates any contribution (this is exactly why
Theorem 5 demands that entailment).
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from repro.errors import PlanError
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, Schema
from repro.core.evaluator import STATES, evaluate_gmdj, finalize_states
from repro.core.expression_tree import BaseQuery
from repro.distributed.messages import SiteId
from repro.distributed.plan import LocalStep


class SkallaSite:
    """One local warehouse: a site id plus its detail fragment."""

    def __init__(self, site_id: SiteId, fragment: Relation):
        self.site_id = site_id
        self.fragment = fragment

    @property
    def detail_schema(self) -> Schema:
        return self.fragment.schema

    # -- round 0: the base-values relation ----------------------------------------

    def evaluate_base(self, base_query: BaseQuery) -> tuple[Relation, float]:
        """Compute ``B0_i`` over the local fragment; returns (result, secs)."""
        started = time.perf_counter()
        result = base_query.evaluate(self.fragment)
        return result, time.perf_counter() - started

    # -- GMDJ rounds ------------------------------------------------------------------

    def execute_step(self, step: LocalStep, base_relation: Relation | None,
                     ship_attrs: Sequence[str], base_query: BaseQuery | None,
                     independent_reduction: bool,
                     ) -> tuple[Relation, float]:
        """Run one plan step against the local fragment.

        Parameters
        ----------
        base_relation:
            The base structure shipped by the coordinator, or ``None``
            for an ``include_base`` step (the site computes it locally
            from ``base_query``).
        ship_attrs:
            Base attributes to include in the shipped sub-result (the key
            attributes, or all base attributes for ``include_base``
            steps, where the coordinator reconstructs the base from H).
        independent_reduction:
            Apply Proposition 1: ship only tuples whose range under some
            condition of the step is non-empty.

        Returns ``(H_i, seconds)`` where ``H_i`` carries ``ship_attrs``
        plus every state column of the step's GMDJs.
        """
        started = time.perf_counter()
        if step.include_base:
            if base_query is None:
                raise PlanError("include_base step needs the base query")
            current = base_query.evaluate(self.fragment)
        else:
            if base_relation is None:
                raise PlanError("step without include_base needs a shipped "
                                "base structure")
            current = base_relation

        matched_any = np.zeros(current.num_rows, dtype=bool)
        state_attributes: list[Attribute] = []
        state_columns: dict[str, np.ndarray] = {}

        for position, gmdj in enumerate(step.gmdjs):
            match_column = f"__match_{position}"
            states_relation = evaluate_gmdj(
                gmdj, current, self.fragment, output=STATES,
                match_column=match_column)
            matched_any |= states_relation.column(match_column)
            gmdj_states: dict[str, np.ndarray] = {}
            for field in gmdj.state_fields(self.fragment.schema):
                array = states_relation.column(field.name)
                gmdj_states[field.name] = array
                state_columns[field.name] = array
                state_attributes.append(Attribute(field.name, field.dtype))
            if position + 1 < len(step.gmdjs):
                # Locally finalize so the next GMDJ's conditions can
                # reference this round's aggregates.
                finalized = finalize_states(gmdj, gmdj_states,
                                            self.fragment.schema)
                current = current.append_columns(
                    [spec.output_attribute(self.fragment.schema)
                     for spec in gmdj.all_aggregates],
                    finalized)

        ship_schema = Schema(
            [*(current.schema[name] for name in ship_attrs),
             *state_attributes])
        columns = {name: current.column(name) for name in ship_attrs}
        columns.update(state_columns)
        shipped = Relation(ship_schema, columns)
        if independent_reduction and not step.include_base:
            shipped = shipped.filter(matched_any)
        return shipped, time.perf_counter() - started
