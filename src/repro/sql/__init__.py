"""Egil, the OLAP query frontend: an SQL subset with ``THEN COMPUTE``
rounds for correlated aggregates, compiled into GMDJ expressions."""

from repro.sql.ast import (
    AggCall, AggregateItem, Binary, ComputedItem, ComputeRound, Constant,
    Logical, Membership, Name, Negation, OrderItem, SelectStatement,
    SqlExpr, names_in, walk)
from repro.sql.compiler import (
    CompiledQuery, compile_query, compile_sql, compile_statement)
from repro.sql.lexer import Token, tokenize
from repro.sql.parser import parse

__all__ = [
    "AggCall", "AggregateItem", "Binary", "ComputedItem", "ComputeRound",
    "Constant", "Logical",
    "Membership", "Name", "Negation", "OrderItem", "SelectStatement", "SqlExpr",
    "names_in", "walk",
    "CompiledQuery", "compile_query", "compile_sql", "compile_statement",
    "Token", "tokenize",
    "parse",
]
