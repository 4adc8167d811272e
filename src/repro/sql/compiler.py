"""Compiling parsed Egil statements into GMDJ expressions.

This is the paper's *query generator*: the front half of Egil turns the
OLAP query into an algebraic GMDJ expression, which the planner then
optimizes for distribution.

Name resolution rules (per clause):

* in the top-level ``WHERE`` every name must be a detail attribute — it
  becomes a pure-detail conjunct of every round's condition and of the
  base projection's filter;
* in a ``THEN COMPUTE … WHERE`` condition a name resolves to
  (1) an aggregate alias of an *earlier* round or a grouping attribute —
  a **base-side** reference, or
  (2) a detail attribute — a **detail-side** reference.
  A name matching both is ambiguous and rejected.

Every round's condition is the key-equality conjunction
``r.k == b.k (k ∈ GROUP BY)`` AND the clause's resolved condition —
giving the chain of correlated aggregates of Example 1.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.errors import ParseError
from repro.relational.aggregates import AggregateSpec
from repro.relational.expressions import (
    And, BaseAttr, Comparison, DetailAttr, Expr, InSet, Literal, Not, Or)
from repro.relational.schema import Schema
from repro.core.expression_tree import GmdjExpression, ProjectionBase
from repro.core.gmdj import Gmdj
from repro.sql.ast import (
    AggCall, AggregateItem, Binary, Constant, Logical, Membership, Name,
    Negation, SelectStatement, SqlExpr)
from repro.sql.parser import parse

_COMPARISON_OPS = {"==", "!=", "<", "<=", ">", ">="}


def spec_precision(func: str, sketch_precision: int | None) -> int | None:
    """Per-function precision from the single ``--sketch-precision p``.

    HyperLogLog takes ``p`` directly; the quantile sketch's ``k`` is
    derived so both families scale from one knob (see
    :func:`repro.sketches.kll_k_for_precision`).  Exact aggregates
    ignore the setting entirely.
    """
    if sketch_precision is None:
        return None
    if func == "approx_count_distinct":
        return sketch_precision
    if func in ("approx_median", "approx_percentile"):
        from repro.sketches import kll_k_for_precision
        return kll_k_for_precision(sketch_precision)
    return None


def compile_statement(statement: SelectStatement,
                      detail_schema: Schema,
                      sketch_precision: int | None = None,
                      ) -> GmdjExpression:
    """Compile a parsed statement against the detail relation's schema.

    ``sketch_precision`` tunes the APPROX_* aggregates' accuracy/space
    trade-off (defaults apply when None).  Statements with computed
    select items must go through :func:`compile_query`, which
    materializes their hidden aggregates and derived columns.
    """
    if statement.computed:
        raise ParseError(
            "statement has computed select expressions; use compile_query")
    for attr in statement.group_attrs:
        if attr not in detail_schema:
            raise ParseError(
                f"GROUP BY attribute {attr!r} is not in the detail schema")

    where_expr = None
    if statement.where is not None:
        where_expr = _resolve(statement.where, detail_schema,
                              base_names=frozenset(), clause="WHERE")

    key_equality = [DetailAttr(attr) == BaseAttr(attr)
                    for attr in statement.group_attrs]

    rounds: list[Gmdj] = []
    group_attrs = frozenset(statement.group_attrs)
    alias_names: set[str] = set()

    def build_round(aggregates, condition_ast) -> Gmdj:
        specs = [AggregateSpec(item.func, item.column, item.alias,
                               param=item.param,
                               precision=spec_precision(item.func,
                                                        sketch_precision))
                 for item in aggregates]
        terms: list[Expr] = list(key_equality)
        if where_expr is not None:
            terms.append(where_expr)
        if condition_ast is not None:
            terms.append(_resolve(condition_ast, detail_schema,
                                  base_names=frozenset(alias_names),
                                  clause="THEN COMPUTE WHERE",
                                  group_attrs=group_attrs))
        return Gmdj.single(specs, And.of(*terms))

    rounds.append(build_round(statement.aggregates, None))
    alias_names |= {item.alias for item in statement.aggregates}
    for compute in statement.compute_rounds:
        rounds.append(build_round(compute.aggregates, compute.condition))
        alias_names |= {item.alias for item in compute.aggregates}

    base = ProjectionBase(statement.group_attrs, where_expr)
    return GmdjExpression(base, tuple(rounds), statement.group_attrs)


@dataclass(frozen=True)
class CompiledQuery:
    """A compiled statement: the GMDJ expression plus presentation.

    ``HAVING``, ``ORDER BY``, and ``LIMIT`` act on the final aggregated
    result at the coordinator — they never change the distributed
    rounds — so they live outside the :class:`GmdjExpression` and are
    applied by :meth:`post_process`.
    """

    expression: GmdjExpression
    having: Expr | None = None
    order_by: tuple = ()
    limit: int | None = None
    #: (alias, expression-over-output-columns) computed at the end
    derived: tuple = ()
    #: hidden helper aggregates to drop from the final output
    hidden: tuple = ()

    def post_process(self, relation):
        """Derived columns, then HAVING / ORDER BY / LIMIT."""
        import numpy as np
        from repro.relational.expressions import evaluate_predicate
        result = relation
        if self.derived:
            from repro.relational.schema import Attribute
            arrays = {}
            attributes = []
            env = {"base": result.columns(), "detail": None}
            for alias, expr in self.derived:
                value = expr.eval(env)
                if not isinstance(value, np.ndarray):
                    value = np.full(result.num_rows, value)
                dtype = expr.result_dtype(result.schema, None)
                arrays[alias] = value
                attributes.append(Attribute(alias, dtype))
            result = result.append_columns(attributes, arrays)
        if self.hidden:
            keep = [name for name in result.schema.names
                    if name not in self.hidden]
            result = result.project(keep)
        if self.having is not None:
            mask = evaluate_predicate(
                self.having, {"base": result.columns(), "detail": None},
                result.num_rows)
            result = result.filter(mask)
        if self.order_by:
            # stable multi-key sort: apply keys right-to-left
            for item in reversed(self.order_by):
                result = result.sort([item.column],
                                     ascending=item.ascending)
        if self.limit is not None:
            result = result.head(self.limit)
        return result

    def run_centralized(self, detail):
        """Evaluate + post-process against one detail relation."""
        return self.post_process(
            self.expression.evaluate_centralized(detail))


def compile_query(source: str, detail_schema: Schema,
                  sketch_precision: int | None = None) -> CompiledQuery:
    """Parse and compile a full statement, presentation clauses and
    computed select expressions included.  ``sketch_precision`` tunes
    the APPROX_* aggregates (see :func:`spec_precision`)."""
    statement = parse(source)
    if statement.cube_family:
        raise ParseError(
            "GROUP BY CUBE/ROLLUP/GROUPING SETS statements compile to a "
            "cuboid lattice; use repro.cube.compile_lattice")
    statement, derived, hidden = _materialize_computed(statement)
    expression = compile_statement(statement, detail_schema,
                                   sketch_precision=sketch_precision)
    output_names = (frozenset(expression.output_schema(detail_schema).names)
                    | {alias for alias, __ in derived}) - set(hidden)

    having = None
    if statement.having is not None:
        having = _resolve_output_expr(statement.having, output_names,
                                      "HAVING")
    for item in statement.order_by:
        if item.column not in output_names:
            raise ParseError(
                f"ORDER BY column {item.column!r} is not in the output "
                f"({sorted(output_names)})")
    return CompiledQuery(expression, having, statement.order_by,
                         statement.limit, derived, hidden)


def _materialize_computed(statement: SelectStatement,
                          ) -> tuple[SelectStatement, tuple, tuple]:
    """Turn computed select items into hidden aggregates + derived exprs.

    Returns a rewritten statement (computed items removed, hidden
    aggregates appended to round 1), the derived ``(alias, Expr)``
    pairs, and the hidden aggregate names to drop at the end.
    """
    if not statement.computed:
        return statement, (), ()
    call_alias: dict[tuple[str, str | None, float | None], str] = {
        (item.func, item.column, item.param): item.alias
        for item in statement.aggregates}
    hidden: list[AggregateItem] = []
    used_aliases = {item.alias for item in statement.aggregates}

    def alias_for(call: AggCall) -> str:
        key = (call.func, call.column, call.param)
        if key not in call_alias:
            index = len(hidden)
            while f"__c{index}" in used_aliases:
                index += 1
            name = f"__c{index}"
            hidden.append(AggregateItem(call.func, call.column, name,
                                        call.param))
            call_alias[key] = name
            used_aliases.add(name)
        return call_alias[key]

    group_attrs = set(statement.group_attrs)

    def resolve(expr: SqlExpr) -> Expr:
        if isinstance(expr, AggCall):
            return BaseAttr(alias_for(expr))
        if isinstance(expr, Constant):
            return Literal(expr.value)
        if isinstance(expr, Name):
            if expr.value not in group_attrs:
                raise ParseError(
                    f"computed select expressions may only reference "
                    f"grouping attributes and aggregate calls; "
                    f"{expr.value!r} is neither")
            return BaseAttr(expr.value)
        if isinstance(expr, Binary):
            left, right = resolve(expr.left), resolve(expr.right)
            if expr.op in _COMPARISON_OPS:
                return Comparison(expr.op, left, right)
            return _arith(expr.op, left, right)
        raise ParseError(
            f"unsupported construct in a computed select item: {expr!r}")

    derived = tuple((item.alias, resolve(item.expr))
                    for item in statement.computed)
    hidden_names = tuple(item.alias for item in hidden)
    rewritten = dataclasses.replace(
        statement,
        aggregates=statement.aggregates + tuple(hidden),
        computed=())
    return rewritten, derived, hidden_names


def _resolve_output_expr(expr: SqlExpr,
                         output_names: frozenset[str],
                         clause: str) -> Expr:
    """Resolve a presentation-clause expression: every name must be an
    output column, referenced on the base side (the result relation)."""
    if isinstance(expr, Constant):
        return Literal(expr.value)
    if isinstance(expr, Name):
        if expr.value not in output_names:
            raise ParseError(
                f"unknown name {expr.value!r} in {clause}: not an output "
                f"column")
        return BaseAttr(expr.value)
    if isinstance(expr, Binary):
        left = _resolve_output_expr(expr.left, output_names, clause)
        right = _resolve_output_expr(expr.right, output_names, clause)
        if expr.op in _COMPARISON_OPS:
            return Comparison(expr.op, left, right)
        return _arith(expr.op, left, right)
    if isinstance(expr, Logical):
        operands = [_resolve_output_expr(item, output_names, clause)
                    for item in expr.operands]
        return And.of(*operands) if expr.op == "and" else Or.of(*operands)
    if isinstance(expr, Negation):
        return Not(_resolve_output_expr(expr.operand, output_names,
                                        clause))
    if isinstance(expr, Membership):
        operand = _resolve_output_expr(expr.operand, output_names, clause)
        membership = InSet(operand, expr.values)
        return Not(membership) if expr.negated else membership
    raise ParseError(f"cannot compile expression node {expr!r}")


def compile_sql(source: str, detail_schema: Schema,
                sketch_precision: int | None = None) -> GmdjExpression:
    """Parse and compile, returning the bare GMDJ expression.

    Statements with presentation clauses (HAVING/ORDER BY/LIMIT) must go
    through :func:`compile_query` — silently dropping those clauses
    would change query semantics, so this raises instead.
    """
    statement = parse(source)
    if statement.having is not None or statement.order_by \
            or statement.limit is not None or statement.computed:
        raise ParseError(
            "statement has presentation clauses or computed select "
            "expressions; use compile_query, which returns a "
            "CompiledQuery with a post_process step")
    return compile_statement(statement, detail_schema,
                             sketch_precision=sketch_precision)


# ---------------------------------------------------------------------------
# Name resolution
# ---------------------------------------------------------------------------

def _resolve(expr: SqlExpr, detail_schema: Schema,
             base_names: frozenset[str], clause: str,
             group_attrs: frozenset[str] = frozenset()) -> Expr:
    """Resolve an unresolved expression into a sided expression tree."""
    if isinstance(expr, Constant):
        return Literal(expr.value)
    if isinstance(expr, Name):
        return _resolve_name(expr.value, detail_schema, base_names, clause,
                             group_attrs)
    if isinstance(expr, Binary):
        left = _resolve(expr.left, detail_schema, base_names, clause,
                        group_attrs)
        right = _resolve(expr.right, detail_schema, base_names, clause,
                         group_attrs)
        if expr.op in _COMPARISON_OPS:
            return Comparison(expr.op, left, right)
        return _arith(expr.op, left, right)
    if isinstance(expr, Logical):
        operands = [_resolve(item, detail_schema, base_names, clause,
                             group_attrs)
                    for item in expr.operands]
        return And.of(*operands) if expr.op == "and" else Or.of(*operands)
    if isinstance(expr, Negation):
        return Not(_resolve(expr.operand, detail_schema, base_names, clause,
                            group_attrs))
    if isinstance(expr, Membership):
        operand = _resolve(expr.operand, detail_schema, base_names, clause,
                           group_attrs)
        membership = InSet(operand, expr.values)
        return Not(membership) if expr.negated else membership
    raise ParseError(f"cannot compile expression node {expr!r}")


def _arith(op: str, left: Expr, right: Expr) -> Expr:
    from repro.relational.expressions import Arith
    return Arith(op, left, right)


def _resolve_name(name: str, detail_schema: Schema,
                  base_names: frozenset[str], clause: str,
                  group_attrs: frozenset[str] = frozenset()) -> Expr:
    if name in group_attrs:
        # A grouping attribute: base and detail values coincide under the
        # key-equality conjuncts, so resolve to the base side.
        return BaseAttr(name)
    in_base = name in base_names
    in_detail = name in detail_schema
    if in_base and in_detail:
        raise ParseError(
            f"{name!r} is ambiguous in {clause}: it names both a detail "
            f"attribute and an earlier aggregate alias; rename the alias")
    if in_base:
        return BaseAttr(name)
    if in_detail:
        return DetailAttr(name)
    raise ParseError(
        f"unknown name {name!r} in {clause}: not a detail attribute and "
        f"not an earlier alias")
