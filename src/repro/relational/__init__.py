"""Relational-algebra substrate: schemas, columnar relations, expressions,
decomposable aggregates, and classical operators.

This subpackage is the "local warehouse engine" of the reproduction —
the role Daytona played in the paper's experiments.
"""

from repro.relational.aggregates import (
    AggregateSpec, StateField, aggregate_function, count_star,
    register_function)
from repro.relational.conditions import (
    ConditionAnalysis, EquiJoinPair, analyze_condition, disjunction_of,
    entails_equality_on, entails_partition_equality)
from repro.relational.expressions import (
    And, Arith, BaseAttr, Case, Comparison, DetailAttr, Expr, Func, InSet,
    Literal, Not, Or, b, conjuncts, disjuncts, fn, r, wrap)
from repro.relational.io import read_csv, write_csv
from repro.relational.operators import (
    anti_join, equi_join, extend, group_by, natural_join, pivot, project,
    select, semi_join, top_k, unpivot)
from repro.relational.relation import Relation
from repro.relational.statistics import (
    ColumnStats, StatisticsError, TableStats, collect_stats,
    estimate_group_count)
from repro.relational.schema import Attribute, Schema
from repro.relational.types import DataType

__all__ = [
    "AggregateSpec", "StateField", "aggregate_function", "count_star",
    "register_function",
    "ConditionAnalysis", "EquiJoinPair", "analyze_condition",
    "disjunction_of", "entails_equality_on", "entails_partition_equality",
    "And", "Arith", "BaseAttr", "Case", "Comparison", "DetailAttr", "Expr", "Func",
    "InSet", "Literal", "Not", "Or", "b", "conjuncts", "disjuncts", "fn",
    "r", "wrap",
    "read_csv", "write_csv",
    "anti_join", "equi_join", "extend", "group_by", "natural_join",
    "pivot", "project", "select", "semi_join", "top_k", "unpivot",
    "Relation", "Attribute", "Schema", "DataType",
    "ColumnStats", "StatisticsError", "TableStats",
    "collect_stats", "estimate_group_count",
]
