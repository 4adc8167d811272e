"""The columnar :class:`Relation`: the engine's fundamental data container.

A relation is a schema plus one NumPy array per attribute, all of equal
length.  Relations are *immutable from the outside*: every operation
returns a new relation (the backing arrays may be shared when the
operation permits it, e.g. projection).

Multiset semantics: relations may contain duplicate rows.  ``distinct``
removes them; ``union_all`` keeps them — matching the ⊔ (multiset union)
of the paper's Theorem 1.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.errors import SchemaError
from repro.relational.factorize import (
    GroupIndex, group_index, iter_groups, take_rows)
from repro.relational.schema import Attribute, Schema
from repro.relational.types import DataType, coerce_array, infer_type


class Relation:
    """An immutable columnar relation (bag of tuples).

    Parameters
    ----------
    schema:
        The relation's schema.
    columns:
        Mapping of attribute name to backing array.  Must contain exactly
        the schema's attribute names, with arrays of equal length.
    """

    __slots__ = ("_schema", "_columns", "_nrows")

    def __init__(self, schema: Schema, columns: Mapping[str, np.ndarray]):
        if set(columns) != set(schema.names):
            raise SchemaError(
                f"columns {sorted(columns)} do not match schema names "
                f"{sorted(schema.names)}")
        lengths = {len(columns[name]) for name in schema.names}
        if len(lengths) > 1:
            raise SchemaError(f"ragged columns: lengths {sorted(lengths)}")
        self._schema = schema
        self._columns = {name: columns[name] for name in schema.names}
        self._nrows = lengths.pop() if lengths else 0

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_columns(cls, schema: Schema,
                     columns: Mapping[str, object]) -> "Relation":
        """Build a relation, coercing each column to its schema dtype."""
        coerced = {
            attribute.name: coerce_array(columns[attribute.name], attribute.dtype)
            for attribute in schema}
        return cls(schema, coerced)

    @classmethod
    def from_rows(cls, schema: Schema,
                  rows: Iterable[Sequence[object]]) -> "Relation":
        """Build a relation from an iterable of row tuples."""
        rows = list(rows)
        columns = {}
        for position, attribute in enumerate(schema):
            values = [row[position] for row in rows]
            columns[attribute.name] = coerce_array(
                np.array(values, dtype=attribute.dtype.numpy_dtype)
                if rows else np.empty(0, dtype=attribute.dtype.numpy_dtype),
                attribute.dtype)
        return cls(schema, columns)

    @classmethod
    def from_dicts(cls, rows: Sequence[Mapping[str, object]],
                   schema: Schema | None = None) -> "Relation":
        """Build a relation from a sequence of row dicts.

        When ``schema`` is omitted it is inferred from the first row's
        values (so at least one row is required in that case).
        """
        if schema is None:
            if not rows:
                raise SchemaError("cannot infer a schema from zero rows")
            first = rows[0]
            schema = Schema(
                Attribute(name, infer_type(value)) for name, value in first.items())
        return cls.from_rows(schema, [[row[name] for name in schema.names]
                                      for row in rows])

    @classmethod
    def empty(cls, schema: Schema) -> "Relation":
        """A zero-row relation with the given schema."""
        columns = {attribute.name: np.empty(0, dtype=attribute.dtype.numpy_dtype)
                   for attribute in schema}
        return cls(schema, columns)

    # -- basic accessors -------------------------------------------------------

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def num_rows(self) -> int:
        return self._nrows

    def __len__(self) -> int:
        return self._nrows

    def column(self, name: str) -> np.ndarray:
        """Backing array of the named column (do not mutate)."""
        try:
            return self._columns[name]
        except KeyError:
            raise SchemaError(
                f"unknown attribute {name!r}; schema has {self._schema.names}"
            ) from None

    def columns(self) -> dict[str, np.ndarray]:
        """A shallow copy of the name → array mapping."""
        return dict(self._columns)

    def row(self, index: int) -> tuple:
        """The ``index``-th row as a tuple of Python scalars."""
        return tuple(_to_scalar(self._columns[name][index])
                     for name in self._schema.names)

    def iter_rows(self) -> Iterator[tuple]:
        """Iterate rows as tuples (slow path; prefer columnar access)."""
        names = self._schema.names
        arrays = [self._columns[name] for name in names]
        for index in range(self._nrows):
            yield tuple(_to_scalar(array[index]) for array in arrays)

    def to_dicts(self) -> list[dict[str, object]]:
        """All rows as a list of dicts (convenience for tests/examples)."""
        names = self._schema.names
        return [dict(zip(names, row)) for row in self.iter_rows()]

    def wire_bytes(self) -> int:
        """Size of this relation under the network cost model's wire format.

        Fixed-width columns cost ``row_wire_width`` per row; BYTES columns
        (serialized sketch states) additionally cost their actual payload
        lengths, so sketch traffic is accounted at its true size.
        """
        total = self._nrows * self._schema.row_wire_width()
        for attribute in self._schema:
            if attribute.dtype is DataType.BYTES:
                total += int(sum(len(value)
                                 for value in self._columns[attribute.name]))
        return total

    # -- core operations --------------------------------------------------------

    def project(self, names: Sequence[str]) -> "Relation":
        """Projection (without duplicate elimination) onto ``names``."""
        schema = self._schema.project(names)
        return Relation(schema, {name: self.column(name) for name in names})

    def rename(self, mapping: dict[str, str]) -> "Relation":
        """Relation with attributes renamed per ``mapping``."""
        schema = self._schema.rename(mapping)
        columns = {mapping.get(name, name): array
                   for name, array in self._columns.items()}
        return Relation(schema, columns)

    def filter(self, mask: np.ndarray) -> "Relation":
        """Rows where the boolean ``mask`` is true."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self._nrows,):
            raise SchemaError(
                f"mask shape {mask.shape} does not match {self._nrows} rows")
        return Relation(self._schema,
                        {name: array[mask] for name, array in self._columns.items()})

    def take(self, indices: np.ndarray) -> "Relation":
        """Rows at the given integer ``indices`` (with repetition allowed)."""
        indices = np.asarray(indices, dtype=np.int64)
        return Relation(self._schema,
                        {name: array[indices]
                         for name, array in self._columns.items()})

    def head(self, count: int) -> "Relation":
        """The first ``count`` rows."""
        return Relation(self._schema,
                        {name: array[:count]
                         for name, array in self._columns.items()})

    def append_columns(self, attributes: Sequence[Attribute],
                       arrays: Mapping[str, np.ndarray]) -> "Relation":
        """Relation extended with additional columns of equal length."""
        schema = self._schema.extend(attributes)
        columns = dict(self._columns)
        for attribute in attributes:
            array = coerce_array(arrays[attribute.name], attribute.dtype)
            if len(array) != self._nrows:
                raise SchemaError(
                    f"new column {attribute.name!r} has {len(array)} rows, "
                    f"expected {self._nrows}")
            columns[attribute.name] = array
        return Relation(schema, columns)

    def union_all(self, other: "Relation") -> "Relation":
        """Multiset union (⊔): concatenation preserving duplicates."""
        self._schema.require_union_compatible(other._schema)
        columns = {
            name: np.concatenate([self._columns[name], other._columns[name]])
            for name in self._schema.names}
        return Relation(self._schema, columns)

    @staticmethod
    def concat(relations: Sequence["Relation"]) -> "Relation":
        """Multiset union of several union-compatible relations."""
        if not relations:
            raise SchemaError("concat requires at least one relation")
        first = relations[0]
        for other in relations[1:]:
            first.schema.require_union_compatible(other.schema)
        columns = {
            name: np.concatenate([rel._columns[name] for rel in relations])
            for name in first.schema.names}
        return Relation(first.schema, columns)

    def distinct(self, names: Sequence[str] | None = None,
                 mask: np.ndarray | None = None) -> "Relation":
        """Duplicate elimination.

        With ``names`` given, the result is the *distinct projection* onto
        those attributes; otherwise all attributes are used.  The first
        occurrence of each distinct row is kept, so output order follows
        first appearance.  A boolean row ``mask`` selects the input rows
        first — ``filter(mask).distinct(names)`` without materializing
        the selection.
        """
        target = self if names is None else self.project(names)
        if target.num_rows == 0:
            return target
        names = target.schema.names
        arrays = [target.column(name) for name in names]
        rows = group_index(arrays).first_rows(mask)
        return Relation(target.schema,
                        dict(zip(names, take_rows(arrays, rows))))

    def sort(self, names: Sequence[str],
             ascending: bool = True) -> "Relation":
        """Rows sorted lexicographically by ``names`` (stable)."""
        if not names:
            return self
        # np.lexsort sorts by the *last* key first.
        keys = [self.column(name) for name in reversed(names)]
        order = np.lexsort(keys)
        if not ascending:
            order = order[::-1]
        return self.take(order)

    # -- grouping helpers ----------------------------------------------------------

    def group_index(self, names: Sequence[str] | None = None) -> GroupIndex:
        """The cached :class:`GroupIndex` of the rows over ``names``."""
        target_names = self._schema.names if names is None else names
        return group_index([self.column(name) for name in target_names])

    def row_group_codes(self, names: Sequence[str] | None = None) -> np.ndarray:
        """Dense integer codes identifying equal rows (over ``names``).

        Two rows receive the same code iff they agree on every listed
        attribute.  Codes are assigned in order of first appearance.
        Used by grouping and multiset comparison (shared: do not mutate).
        """
        return self.group_index(names).codes

    def group_indices(self, names: Sequence[str]) -> dict[tuple, np.ndarray]:
        """Map each distinct key tuple over ``names`` to its row indices."""
        if self._nrows == 0:
            return {}
        index = self.group_index(names)
        key_columns = [self.column(name) for name in names]
        return {
            tuple(_to_scalar(column[index.first[code]])
                  for column in key_columns): group
            for code, group in iter_groups(index.codes, index.num_groups)}

    # -- comparison -------------------------------------------------------------

    def multiset_equals(self, other: "Relation") -> bool:
        """True when both relations hold the same bag of rows.

        Attribute order must match; row order is ignored; duplicates are
        significant.  Floats are compared with a small tolerance.
        """
        if not self._schema.union_compatible(other._schema):
            return False
        if self._nrows != other._nrows:
            return False
        from collections import Counter
        return (Counter(self._normalized_rows())
                == Counter(other._normalized_rows()))

    def _normalized_rows(self) -> list[tuple]:
        """Rows with floats canonicalized for tolerant comparison.

        Floats are rounded to 9 *significant* digits (absolute rounding
        would spuriously distinguish large aggregates that differ only by
        summation order) and NaN is mapped to a sentinel so that missing
        aggregates compare equal to each other.
        """
        normalized = []
        for row in self.iter_rows():
            normalized.append(tuple(_normalize_value(value)
                                    for value in row))
        return normalized

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Relation({self._nrows} rows, schema={self._schema!r})"

    def pretty(self, limit: int = 20) -> str:
        """A human-readable table rendering (for examples and debugging)."""
        names = self._schema.names
        shown = [list(map(_format_cell, row))
                 for row in self.head(limit).iter_rows()]
        widths = [len(name) for name in names]
        for row in shown:
            for position, cell in enumerate(row):
                widths[position] = max(widths[position], len(cell))
        header = " | ".join(name.ljust(widths[i]) for i, name in enumerate(names))
        rule = "-+-".join("-" * width for width in widths)
        body = [" | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
                for row in shown]
        suffix = [] if self._nrows <= limit else [f"... ({self._nrows} rows total)"]
        return "\n".join([header, rule, *body, *suffix])


def _normalize_value(value: object) -> object:
    if isinstance(value, float):
        if value != value:  # NaN
            return "<NaN>"
        return float(f"{value:.9g}")
    return value


def _to_scalar(value: object) -> object:
    """Convert a NumPy scalar to the matching Python scalar."""
    if isinstance(value, np.generic):
        return value.item()
    return value


def _format_cell(value: object) -> str:
    if isinstance(value, float):
        if value != value:  # NaN encodes SQL NULL (empty-group aggregate)
            return "NULL"
        return f"{value:.4f}"
    if isinstance(value, bytes):
        return f"<{len(value)} B>"
    return str(value)
