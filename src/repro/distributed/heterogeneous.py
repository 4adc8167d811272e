"""Heterogeneous GMDJ chains: a different detail relation per round.

Section 3.2 of the paper is explicit that the framework is not limited
to one fact table: "We use R_k to denote the detail relation at round
k. … depending on the query, the detail relation may or may not be the
same across all rounds. This shows the considerable class of OLAP
queries the basic Skalla evaluation framework is able to handle."

:class:`HeterogeneousQuery` is the plan data for that generality: it
names, per GMDJ round, which table the round aggregates over.
Conditions of later rounds may reference aggregates of earlier rounds
exactly as in the single-table case — correlating *across tables*
("flows whose bytes exceed the router's mean alarm threshold") without
any distributed join.

:class:`HeterogeneousWarehouse` executes such a query over per-site
*catalogs* of named fragments (e.g. each router stores both its
``Flow`` records and its ``Alarm`` records).  It drives no rounds of
its own: it holds one :class:`~repro.distributed.engine.SkallaEngine`
per table and runs round ``k`` as the ordinary single-GMDJ expression
``MD_k(X_{k-1}, R_k)`` on table ``R_k``'s engine, with the previous
rounds' result ``X_{k-1}`` as an explicit base relation.

Scope: the baseline algorithm plus distribution-independent group
reduction (the other reductions are per-table analyses that need
distribution knowledge per catalog); the first round must range over
the base table, whose engine also evaluates ``B_0``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.errors import PlanError, QueryError, SchemaError
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.core.evaluator import evaluate_gmdj
from repro.core.expression_tree import (
    GmdjExpression, ProjectionBase, RelationBase)
from repro.core.gmdj import Gmdj
from repro.distributed.engine import SkallaEngine
from repro.distributed.messages import SiteId
from repro.distributed.metrics import QueryMetrics
from repro.distributed.plan import OptimizationFlags


@dataclass(frozen=True)
class HeterogeneousRound:
    """One GMDJ round, bound to a named detail table."""

    gmdj: Gmdj
    table: str


@dataclass(frozen=True)
class HeterogeneousQuery:
    """A GMDJ chain whose rounds may range over different tables.

    ``base_table`` + ``base_attrs`` define ``B_0`` (a distinct
    projection, as in the common case); rounds execute in order with
    the usual base-extension semantics.
    """

    base_table: str
    base_attrs: tuple[str, ...]
    rounds: tuple[HeterogeneousRound, ...]

    def __post_init__(self):
        if not self.base_attrs:
            raise QueryError("base projection needs attributes")
        if not self.rounds:
            raise QueryError("a query needs at least one round")

    @property
    def key(self) -> tuple[str, ...]:
        return self.base_attrs

    def validate(self, schemas: Mapping[str, Schema]) -> None:
        if self.base_table not in schemas:
            raise SchemaError(f"unknown base table {self.base_table!r}")
        base_schema = schemas[self.base_table].project(self.base_attrs)
        for spec in self.rounds:
            if spec.table not in schemas:
                raise SchemaError(f"unknown detail table {spec.table!r}")
            spec.gmdj.validate(base_schema, schemas[spec.table])
            base_schema = spec.gmdj.output_schema(base_schema,
                                                  schemas[spec.table])

    def evaluate_centralized(
            self, tables: Mapping[str, Relation]) -> Relation:
        """Reference semantics against unpartitioned tables."""
        self.validate({name: relation.schema
                       for name, relation in tables.items()})
        current = ProjectionBase(self.base_attrs).evaluate(
            tables[self.base_table])
        for spec in self.rounds:
            current = evaluate_gmdj(spec.gmdj, current, tables[spec.table])
        return current


class HeterogeneousWarehouse:
    """Per-site catalogs of named fragments: one engine per table."""

    def __init__(self, catalogs: Mapping[SiteId, Mapping[str, Relation]],
                 **engine_kwargs):
        if not catalogs:
            raise PlanError("a warehouse needs at least one site")
        table_names = {frozenset(catalog) for catalog in catalogs.values()}
        if len(table_names) != 1:
            raise SchemaError("every site must host the same table set")
        #: table name → the engine over that table's fragments
        self.engines: dict[str, SkallaEngine] = {}
        for name in sorted(next(iter(table_names))):
            fragments = {site: catalog[name]
                         for site, catalog in catalogs.items()}
            if len({fragment.schema for fragment in fragments.values()}) != 1:
                raise SchemaError(
                    f"fragments of table {name!r} disagree on schema")
            self.engines[name] = SkallaEngine(fragments, **engine_kwargs)
        self.schemas = {name: engine.detail_schema
                        for name, engine in self.engines.items()}

    def close(self) -> None:
        for engine in self.engines.values():
            engine.close()

    def total_table(self, name: str) -> Relation:
        """The conceptual union of one table (tests only)."""
        return self.engines[name].total_detail_relation()

    def execute(self, query: HeterogeneousQuery,
                independent_reduction: bool = False,
                ) -> tuple[Relation, QueryMetrics]:
        """Run the chain; returns (relation, metrics of all rounds)."""
        query.validate(self.schemas)
        if query.rounds[0].table != query.base_table:
            raise PlanError(
                f"the first round must range over the base table "
                f"{query.base_table!r} (its engine evaluates B_0)")
        flags = OptimizationFlags(
            group_reduction_independent=independent_reduction)
        base = ProjectionBase(query.base_attrs)
        results = []
        for spec in query.rounds:
            results.append(self.engines[spec.table].execute(
                GmdjExpression(base, (spec.gmdj,), query.key), flags))
            base = RelationBase(results[-1].relation)
        metrics = QueryMetrics.combined(
            [result.metrics for result in results],
            len(self.engines[query.base_table].site_ids))
        return results[-1].relation, metrics
