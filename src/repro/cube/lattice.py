"""The cuboid lattice: which groupings run, which are derived.

Gray et al. [12] arrange the 2^n groupings of a CUBE in a lattice
ordered by attribute-set containment.  The source paper's Theorem 1
makes that lattice *distributable*: the states of any cuboid are a
complete sub-aggregate of every coarser cuboid below it, so only the
**maximal** requested groupings (the *sources*) need distributed GMDJ
rounds — everything else rolls up coordinator-side.

For a full CUBE or ROLLUP there is exactly one source (the finest
grouping), so the whole lattice costs one distributed round instead of
2^n (CUBE) or n+1 (ROLLUP).  GROUPING SETS may have several
incomparable maximal sets; they are scheduled in *levels* of descending
width — one scatter wave per level, sharing base scans through the
cache's pending entries when queries run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from repro.errors import ParseError, QueryError
from repro.relational.aggregates import AggregateSpec
from repro.relational.expressions import And, Literal, b, r
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, Schema
from repro.relational.types import DataType
from repro.core.expression_tree import (
    GmdjExpression, ProjectionBase, RelationBase)
from repro.core.gmdj import Gmdj
from repro.sql.ast import SelectStatement
from repro.sql.compiler import spec_precision


def groupby_expression(attrs: Sequence[str],
                       aggregates: Sequence[AggregateSpec],
                       ) -> GmdjExpression:
    """A plain GROUP BY over ``attrs`` as a single-GMDJ expression.

    ``B_0 = π_attrs(R)`` and the GMDJ condition is the conjunction of
    ``r.a == b.a`` over the grouping attributes — the pure equi-join case
    the evaluator handles in one vectorized pass.
    """
    if not attrs:
        raise QueryError("grouping requires at least one attribute; "
                         "use grand_total_expression for ()")
    condition = And.of(*(r[attr] == b[attr] for attr in attrs))
    return GmdjExpression(ProjectionBase(tuple(attrs)),
                          (Gmdj.single(aggregates, condition),),
                          tuple(attrs))


def grand_total_expression(aggregates: Sequence[AggregateSpec],
                           ) -> GmdjExpression:
    """The () granularity as a distributable GMDJ.

    A one-row base relation and an always-true condition make every
    detail tuple contribute to the single output row; the usual
    sub-/super-aggregation then computes the grand total without ever
    centralizing detail data.
    """
    spine = Relation.from_columns(
        Schema([Attribute("__one", DataType.INT64)]),
        {"__one": np.array([1], dtype=np.int64)})
    gmdj = Gmdj.single(list(aggregates), Literal(True))
    return GmdjExpression(RelationBase(spine), (gmdj,), ("__one",))


def cube_sets(attrs: Sequence[str]) -> tuple[tuple[str, ...], ...]:
    """Every granularity of CUBE(attrs), finest first, () last."""
    sets: list[tuple[str, ...]] = []
    for size in range(len(attrs), -1, -1):
        sets.extend(combinations(attrs, size))
    return tuple(sets)


def rollup_sets(attrs: Sequence[str]) -> tuple[tuple[str, ...], ...]:
    """Every ROLLUP(attrs) prefix, longest first, () last."""
    return tuple(tuple(attrs[:size])
                 for size in range(len(attrs), -1, -1))


@dataclass(frozen=True)
class CubeLatticePlan:
    """A compiled cube-family query over the cuboid lattice.

    ``requested`` lists every cuboid the query asks for (deduplicated,
    ``()`` = grand total); ``groupings`` the ``GROUPING(...) AS alias``
    select items (Gray et al. §3 bit vectors, first argument most
    significant).  ``construct`` names the SQL form for error messages
    and explain output.
    """

    attrs: tuple[str, ...]
    aggregates: tuple[AggregateSpec, ...]
    requested: tuple[tuple[str, ...], ...]
    groupings: tuple[tuple[tuple[str, ...], str], ...] = ()
    construct: str = "CUBE"
    table: str = ""

    # -- lattice structure ---------------------------------------------------

    @property
    def sources(self) -> tuple[tuple[str, ...], ...]:
        """Maximal requested cuboids — the ones that run engine rounds."""
        maximal = []
        for subset in self.requested:
            contained = any(set(subset) < set(other)
                            for other in self.requested)
            if not contained:
                maximal.append(subset)
        if maximal == [()]:
            return ((),)
        return tuple(s for s in maximal if s)

    @property
    def levels(self) -> tuple[tuple[tuple[str, ...], ...], ...]:
        """Sources grouped by width, widest level first."""
        by_width: dict[int, list[tuple[str, ...]]] = {}
        for source in self.sources:
            by_width.setdefault(len(source), []).append(source)
        return tuple(tuple(by_width[width])
                     for width in sorted(by_width, reverse=True))

    def source_for(self, subset: tuple[str, ...]) -> tuple[str, ...]:
        """The cheapest (narrowest) source containing ``subset``."""
        candidates = [s for s in self.sources
                      if set(subset) <= set(s)]
        if not candidates:
            raise ParseError(
                f"no source cuboid covers {subset!r}")
        return min(candidates, key=lambda s: (len(s), s))

    # -- expressions ---------------------------------------------------------

    def source_expression(self, source: tuple[str, ...]) -> GmdjExpression:
        if source:
            return groupby_expression(source, list(self.aggregates))
        return grand_total_expression(list(self.aggregates))

    @property
    def finest_expression(self) -> GmdjExpression:
        return self.source_expression(self.sources[0])

    # -- GROUPING() bit vectors ---------------------------------------------

    def grouping_value(self, subset: tuple[str, ...],
                       grouping_attrs: Sequence[str]) -> int:
        """``GROUPING(a, b, …)`` for one cuboid: bit set ⇔ rolled up.

        The first listed attribute is the most significant bit,
        matching SQL's GROUPING_ID composition rule.
        """
        value = 0
        present = set(subset)
        for attr in grouping_attrs:
            value = (value << 1) | (0 if attr in present else 1)
        return value

    @property
    def rollable(self) -> bool:
        """Whether every aggregate admits lattice rollup."""
        return all(spec.function.decomposable and spec.function.rollup_safe
                   for spec in self.aggregates)


def requested_sets(statement: SelectStatement) -> tuple[tuple[str, ...], ...]:
    """The deduplicated cuboids a cube-family statement asks for."""
    if statement.cube:
        return cube_sets(statement.group_attrs)
    if statement.rollup:
        return rollup_sets(statement.group_attrs)
    assert statement.grouping_sets is not None
    seen: list[tuple[str, ...]] = []
    for subset in statement.grouping_sets:
        if subset not in seen:
            seen.append(subset)
    return tuple(seen)


def _construct_name(statement: SelectStatement) -> str:
    if statement.cube:
        return "CUBE"
    if statement.rollup:
        return "ROLLUP"
    return "GROUPING SETS"


def compile_lattice(statement: SelectStatement,
                    detail_schema: Schema,
                    sketch_precision: int | None = None) -> CubeLatticePlan:
    """Compile a parsed cube-family statement into a lattice plan."""
    if not statement.cube_family:
        raise ParseError("not a CUBE/ROLLUP/GROUPING SETS statement; "
                         "use compile_query")
    construct = _construct_name(statement)
    unsupported = [
        ("WHERE", statement.where is not None),
        ("THEN COMPUTE", bool(statement.compute_rounds)),
        ("computed select expressions", bool(statement.computed)),
        ("HAVING", statement.having is not None),
        ("ORDER BY", bool(statement.order_by)),
        ("LIMIT", statement.limit is not None),
    ]
    for clause, present in unsupported:
        if present:
            raise ParseError(
                f"{clause} is not supported with GROUP BY {construct}; "
                f"run the granularities you need as separate statements")
    for attr in statement.group_attrs:
        if attr not in detail_schema:
            raise ParseError(
                f"{construct} attribute {attr!r} is not in the detail "
                f"schema")
    aggregates = tuple(
        AggregateSpec(item.func, item.column, item.alias, param=item.param,
                      precision=spec_precision(item.func, sketch_precision))
        for item in statement.aggregates)
    groupings = []
    for item in statement.groupings:
        for attr in item.attrs:
            if attr not in statement.group_attrs:
                raise ParseError(
                    f"GROUPING({attr!r}) refers to an attribute that is "
                    f"not grouped")
        groupings.append((item.attrs, item.alias))
    return CubeLatticePlan(
        attrs=statement.group_attrs,
        aggregates=aggregates,
        requested=requested_sets(statement),
        groupings=tuple(groupings),
        construct=construct,
        table=statement.table)
