"""Complex GMDJ expressions: a base-values query plus a chain of GMDJs.

The paper's OLAP queries are expressions of the restricted composition
form (Sect. 2.2): the result of an inner GMDJ serves as the base-values
relation of the outer one.  A :class:`GmdjExpression` captures exactly
that: how the initial base-values relation ``B_0`` is obtained, the key
attributes ``K`` of ``B_0``, and the list of GMDJ rounds ``MD_1 … MD_m``.

``B_0`` can be

* a distinct projection of the detail relation itself
  (:class:`ProjectionBase`) — the common case, and the one for which
  Proposition 2 can elide the base synchronization round; or
* an explicit relation supplied by the caller (:class:`RelationBase`),
  e.g. a dimension table or a calendar spine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import QueryError, SchemaError
from repro.relational.expressions import Expr
from repro.relational.operators import selection_mask
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.core.evaluator import evaluate_gmdj
from repro.core.gmdj import Gmdj


class BaseQuery:
    """How the initial base-values relation ``B_0`` is produced."""

    def schema(self, detail_schema: Schema) -> Schema:
        raise NotImplementedError

    def evaluate(self, detail: Relation) -> Relation:
        """Compute ``B_0`` from the (full or partial) detail relation."""
        raise NotImplementedError

    @property
    def computed_from_detail(self) -> bool:
        """True when ``B_0`` is a query over the detail relation itself.

        This is the structural requirement of Proposition 2
        (``B = ⊔_i B_i`` where ``B_i`` evaluates the base query on the
        site partition ``R_i``).
        """
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class ProjectionBase(BaseQuery):
    """``B_0 = π_attrs(R)`` (distinct projection of the detail relation).

    An optional detail-side ``filter_condition`` restricts R first, so
    expressions like ``π_SAS,DAS(σ_pred(Flow))`` are representable.
    """

    attrs: tuple[str, ...]
    filter_condition: Expr | None = None

    def __post_init__(self):
        if not self.attrs:
            raise QueryError("a projection base needs at least one attribute")

    def schema(self, detail_schema: Schema) -> Schema:
        return detail_schema.project(self.attrs)

    def evaluate(self, detail: Relation) -> Relation:
        if self.filter_condition is None:
            return detail.distinct(self.attrs)
        return detail.distinct(
            self.attrs, selection_mask(detail, self.filter_condition))

    @property
    def computed_from_detail(self) -> bool:
        return True

    def describe(self) -> str:
        inner = "R" if self.filter_condition is None \
            else f"σ[{self.filter_condition!r}](R)"
        return f"π[{', '.join(self.attrs)}]({inner})"


@dataclass(frozen=True)
class RelationBase(BaseQuery):
    """``B_0`` supplied directly as a relation (held by the coordinator)."""

    relation: Relation

    def schema(self, detail_schema: Schema) -> Schema:
        return self.relation.schema

    def evaluate(self, detail: Relation) -> Relation:
        return self.relation

    @property
    def computed_from_detail(self) -> bool:
        return False

    def describe(self) -> str:
        return f"<relation {self.relation.num_rows} rows>"


@dataclass(frozen=True)
class GmdjExpression:
    """A complete OLAP query: ``MD_m(… MD_1(B_0, R, …) …, R, …)``.

    Parameters
    ----------
    base:
        How ``B_0`` is obtained.
    rounds:
        The GMDJ operators, innermost first.
    key:
        Key attributes ``K`` of the base-values relation; they uniquely
        identify a base tuple and drive synchronization (``θ_K``).
    """

    base: BaseQuery
    rounds: tuple[Gmdj, ...]
    key: tuple[str, ...]

    def __post_init__(self):
        if not self.rounds:
            raise QueryError("a GMDJ expression needs at least one GMDJ round")
        if not self.key:
            raise QueryError("a GMDJ expression needs key attributes")

    # -- schemas ---------------------------------------------------------------

    def validate(self, detail_schema: Schema) -> None:
        """Validate the whole chain against the detail schema."""
        schema = self.base.schema(detail_schema)
        for attr in self.key:
            if attr not in schema:
                raise SchemaError(
                    f"key attribute {attr!r} is not in the base schema "
                    f"{schema.names}")
        for gmdj in self.rounds:
            gmdj.validate(schema, detail_schema)
            schema = gmdj.output_schema(schema, detail_schema)

    def output_schema(self, detail_schema: Schema) -> Schema:
        """Schema of the final query result."""
        schema = self.base.schema(detail_schema)
        for gmdj in self.rounds:
            schema = gmdj.output_schema(schema, detail_schema)
        return schema

    def base_schema(self, detail_schema: Schema) -> Schema:
        return self.base.schema(detail_schema)

    def intermediate_schemas(self, detail_schema: Schema) -> list[Schema]:
        """Schemas of ``B_0, B_1, …, B_m`` along the chain."""
        schemas = [self.base.schema(detail_schema)]
        for gmdj in self.rounds:
            schemas.append(gmdj.output_schema(schemas[-1], detail_schema))
        return schemas

    @property
    def num_rounds(self) -> int:
        return len(self.rounds)

    def is_decomposable(self) -> bool:
        return all(gmdj.is_decomposable() for gmdj in self.rounds)

    # -- reference evaluation ----------------------------------------------------

    def evaluate_centralized(self, detail: Relation) -> Relation:
        """Evaluate against a single detail relation (reference semantics).

        This is what a centralized warehouse would compute; the Skalla
        engine's distributed answer must be multiset-equal to it.
        """
        self.validate(detail.schema)
        current = self.base.evaluate(detail)
        for gmdj in self.rounds:
            current = evaluate_gmdj(gmdj, current, detail)
        return current

    def describe(self) -> str:
        """Multi-line rendering of the expression for plan explanations."""
        lines = [f"B0 := {self.base.describe()}   (key: {', '.join(self.key)})"]
        for number, gmdj in enumerate(self.rounds, start=1):
            lines.append(f"B{number} := {gmdj.describe()}")
        return "\n".join(lines)


def expression(base: BaseQuery, rounds: Sequence[Gmdj],
               key: Sequence[str] | None = None) -> GmdjExpression:
    """Build a :class:`GmdjExpression`; key defaults to projection attrs."""
    if key is None:
        if isinstance(base, ProjectionBase):
            key = base.attrs
        else:
            raise QueryError(
                "key attributes must be given explicitly for a relation base")
    return GmdjExpression(base, tuple(rounds), tuple(key))
