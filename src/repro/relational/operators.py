"""Classical relational operators over :class:`~repro.relational.relation.Relation`.

These are the building blocks a local warehouse engine needs besides the
GMDJ itself: selection, projection (with and without duplicate
elimination), extension with computed columns, natural / equi joins,
grouping with simple aggregates, and unpivot (used by marginal-
distribution OLAP queries per Graefe et al. [11]).

Selections and computed columns take expression trees whose attribute
references use the *detail* side (``r.attr``): a plain relation plays the
role of the detail relation in a single-relation context.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.errors import ExpressionError, SchemaError
from repro.relational.aggregates import (
    AggregateSpec, primitive_grouped, validate_aggregate_list)
from repro.relational.expressions import Expr, evaluate_predicate
from repro.relational.factorize import iter_groups
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, Schema
from repro.relational.types import DataType


def _detail_env(relation: Relation) -> dict:
    return {"detail": relation.columns(), "base": None}


def selection_mask(relation: Relation, condition: Expr) -> np.ndarray:
    """Boolean row mask of ``condition`` (detail-side refs) over
    ``relation``."""
    if condition.attrs("base"):
        raise ExpressionError(
            "select conditions may only reference detail-side attributes; "
            f"got base refs {sorted(condition.attrs('base'))}")
    return evaluate_predicate(condition, _detail_env(relation),
                              relation.num_rows)


def select(relation: Relation, condition: Expr) -> Relation:
    """σ — rows of ``relation`` satisfying ``condition`` (detail-side refs)."""
    return relation.filter(selection_mask(relation, condition))


def project(relation: Relation, names: Sequence[str],
            distinct: bool = False) -> Relation:
    """π — projection, with optional duplicate elimination."""
    result = relation.project(names)
    if distinct:
        result = result.distinct()
    return result


def extend(relation: Relation,
           columns: Mapping[str, Expr]) -> Relation:
    """Extend with computed columns ``{name: expression}``.

    Expressions reference existing attributes via the detail side.
    """
    env = _detail_env(relation)
    attributes = []
    arrays = {}
    for name, expression in columns.items():
        if name in relation.schema:
            raise SchemaError(f"computed column {name!r} already exists")
        dtype = expression.result_dtype(None, relation.schema)
        value = expression.eval(env)
        if not isinstance(value, np.ndarray):
            value = np.full(relation.num_rows, value)
        attributes.append(Attribute(name, dtype))
        arrays[name] = value
    return relation.append_columns(attributes, arrays)


def natural_join(left: Relation, right: Relation) -> Relation:
    """⋈ — natural join on all shared attribute names (hash join)."""
    shared = [name for name in left.schema.names if name in right.schema]
    if not shared:
        raise SchemaError("natural join requires at least one shared attribute")
    return equi_join(left, right, [(name, name) for name in shared])


def equi_join(left: Relation, right: Relation,
              pairs: Sequence[tuple[str, str]]) -> Relation:
    """Equi join on ``(left_attr, right_attr)`` pairs (hash join).

    Right-side join columns are dropped from the output when they share
    the left column's name; other right columns must not collide.
    """
    left_keys = [pair[0] for pair in pairs]
    right_keys = [pair[1] for pair in pairs]
    right_groups = right.group_indices(right_keys)

    left_indices: list[np.ndarray] = []
    right_indices: list[np.ndarray] = []
    left_key_columns = [left.column(name) for name in left_keys]
    for index in range(left.num_rows):
        key = tuple(_scalar(column[index]) for column in left_key_columns)
        matches = right_groups.get(key)
        if matches is None:
            continue
        left_indices.append(np.full(len(matches), index, dtype=np.int64))
        right_indices.append(matches)

    if left_indices:
        left_take = np.concatenate(left_indices)
        right_take = np.concatenate(right_indices)
    else:
        left_take = np.empty(0, dtype=np.int64)
        right_take = np.empty(0, dtype=np.int64)

    left_part = left.take(left_take)
    carried = [name for name in right.schema.names if name not in right_keys]
    for name in carried:
        if name in left.schema:
            raise SchemaError(
                f"join output attribute {name!r} would collide; rename first")
    right_part = right.take(right_take).project(carried)
    columns = left_part.columns()
    columns.update(right_part.columns())
    schema = left.schema.extend(right_part.schema.attributes)
    return Relation(schema, columns)


def semi_join(left: Relation, right: Relation,
              pairs: Sequence[tuple[str, str]] | None = None) -> Relation:
    """⋉ — rows of ``left`` with at least one match in ``right``.

    Semijoins are the classical distributed-query reducer [15]; here
    they also serve local pre-filtering.  ``pairs`` defaults to the
    shared attribute names (natural semijoin).  Output schema = left's.
    """
    pairs = _default_pairs(left, right, pairs)
    mask = _match_mask(left, right, pairs)
    return left.filter(mask)


def anti_join(left: Relation, right: Relation,
              pairs: Sequence[tuple[str, str]] | None = None) -> Relation:
    """▷ — rows of ``left`` with no match in ``right``."""
    pairs = _default_pairs(left, right, pairs)
    mask = _match_mask(left, right, pairs)
    return left.filter(~mask)


def _default_pairs(left: Relation, right: Relation,
                   pairs: Sequence[tuple[str, str]] | None,
                   ) -> Sequence[tuple[str, str]]:
    if pairs is not None:
        if not pairs:
            raise SchemaError("join needs at least one attribute pair")
        return pairs
    shared = [name for name in left.schema.names if name in right.schema]
    if not shared:
        raise SchemaError("no shared attributes for a natural semijoin")
    return [(name, name) for name in shared]


def _match_mask(left: Relation, right: Relation,
                pairs: Sequence[tuple[str, str]]) -> np.ndarray:
    from repro.core.evaluator import match_codes
    left_codes, __, ___ = match_codes(
        left, [pair[0] for pair in pairs],
        right, [pair[1] for pair in pairs])
    return left_codes >= 0


def top_k(relation: Relation, keys: Sequence[str], k: int,
          ascending: bool = False) -> Relation:
    """The ``k`` extreme rows by ``keys`` (default: largest first).

    A presentation operator (ORDER BY … LIMIT k): sorts and truncates.
    """
    if k < 0:
        raise SchemaError("k must be non-negative")
    return relation.sort(keys, ascending=ascending).head(k)


def group_by(relation: Relation, keys: Sequence[str],
             aggregates: Sequence[AggregateSpec]) -> Relation:
    """SQL-style GROUP BY with decomposable aggregates (vectorized).

    Unlike the GMDJ, groups here partition the input (standard SQL
    semantics), so a single pass with dense group codes suffices.
    """
    validate_aggregate_list(aggregates, relation.schema, keys)
    if relation.num_rows == 0:
        attributes = [relation.schema[name] for name in keys]
        attributes += [spec.output_attribute(relation.schema)
                       for spec in aggregates]
        return Relation.empty(Schema(attributes))

    if keys:
        index = relation.group_index(keys)
        codes = index.codes
        num_groups = index.num_groups
        key_columns = relation.distinct(keys).columns()
    else:
        codes = np.zeros(relation.num_rows, dtype=np.int64)
        num_groups = 1
        key_columns = {}

    attributes = [relation.schema[name] for name in keys]
    columns: dict[str, np.ndarray] = dict(key_columns)
    for spec in aggregates:
        values = (relation.column(spec.column)
                  if spec.column is not None else None)
        function = spec.function
        if function.decomposable:
            states = {
                primitive: primitive_grouped(primitive, codes, values,
                                             num_groups)
                for primitive in function.state_primitives()}
            columns[spec.alias] = np.asarray(function.finalize(states))
        else:
            # Holistic aggregates: per-group loop (centralized only).
            output = np.empty(num_groups, dtype=np.float64)
            for code, group in iter_groups(codes, num_groups):
                group_values = values[group] if values is not None else None
                output[code] = function.compute(group_values, len(group))
            columns[spec.alias] = output
        attributes.append(spec.output_attribute(relation.schema))
    return Relation.from_columns(Schema(attributes), columns)


def pivot(relation: Relation, key: str, name_attr: str, value_attr: str,
          ) -> Relation:
    """PIVOT — rotate (name, value) rows into one column per name.

    The inverse of :func:`unpivot` for complete data: every key must
    carry every name exactly once (cross-tabs in the sense of Gray et
    al. [12]).  Values come back as FLOAT64 columns named after the
    distinct names, ordered by first appearance.
    """
    if relation.num_rows == 0:
        raise SchemaError("cannot pivot an empty relation")
    names = relation.distinct([name_attr]).column(name_attr).tolist()
    keys = relation.distinct([key])
    columns: dict[str, np.ndarray] = {key: keys.column(key)}
    attributes = [relation.schema[key]]
    for name in names:
        subset = relation.filter(relation.column(name_attr) == name)
        if subset.distinct([key]).num_rows != subset.num_rows:
            raise SchemaError(
                f"pivot requires one row per (key, name); {name!r} has "
                f"duplicates")
        joined = equi_join(keys,
                           subset.project([key, value_attr]).rename(
                               {key: "__k", value_attr: str(name)}),
                           [(key, "__k")])
        if joined.num_rows != keys.num_rows:
            raise SchemaError(
                f"pivot requires complete data; some keys lack {name!r}")
        # equi_join may reorder; re-align on the key column
        lookup = dict(zip(joined.column(key).tolist(),
                          joined.column(str(name)).tolist()))
        columns[str(name)] = np.array(
            [lookup[value] for value in keys.column(key).tolist()],
            dtype=np.float64)
        attributes.append(Attribute(str(name), DataType.FLOAT64))
    return Relation.from_columns(Schema(attributes), columns)


def unpivot(relation: Relation, keys: Sequence[str],
            value_columns: Sequence[str],
            name_attr: str = "attribute",
            value_attr: str = "value") -> Relation:
    """UNPIVOT — rotate ``value_columns`` into (name, value) rows.

    This is the operator of Graefe et al. [11] used to extract marginal
    distributions; all value columns must share a numeric type and are
    widened to FLOAT64.
    """
    if not value_columns:
        raise SchemaError("unpivot requires at least one value column")
    for name in value_columns:
        if not relation.schema.dtype(name).is_numeric:
            raise SchemaError(f"unpivot value column {name!r} is not numeric")
    parts = []
    for name in value_columns:
        part_schema = Schema([*(relation.schema[key] for key in keys),
                              Attribute(name_attr, DataType.STRING),
                              Attribute(value_attr, DataType.FLOAT64)])
        columns = {key: relation.column(key) for key in keys}
        columns[name_attr] = np.full(relation.num_rows, name, dtype=object)
        columns[value_attr] = relation.column(name).astype(np.float64)
        parts.append(Relation(part_schema, columns))
    return Relation.concat(parts)


def _scalar(value):
    return value.item() if isinstance(value, np.generic) else value
