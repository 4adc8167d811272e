"""Expression trees for GMDJ conditions and relational filters.

The GMDJ operator ``MD(B, R, l, θ)`` evaluates conditions ``θ(b, r)`` that
mix attributes of the *base-values* relation ``B`` and the *detail*
relation ``R``.  This module provides the expression AST for such
conditions, with

* explicit sides — :class:`BaseAttr` references ``B``, :class:`DetailAttr`
  references ``R`` — so the optimizer can analyze which side each atom
  constrains;
* operator overloading for a readable construction DSL::

      theta = (r.SourceAS == b.SourceAS) & (r.NumBytes >= b.sum1 / b.cnt1)

* vectorized evaluation: given one base row (scalars) and the detail
  relation's columns (arrays), a condition evaluates to a boolean array
  over the detail rows in a single NumPy pass.

Evaluation environments are plain dicts ``{"base": ..., "detail": ...}``
where each entry maps attribute names to scalars or arrays; NumPy
broadcasting handles the scalar/array mix.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.errors import ExpressionError
from repro.relational.schema import Schema
from repro.relational.types import DataType, common_type

#: Sides a column reference can live on.
BASE = "base"
DETAIL = "detail"

_ARITH_OPS = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": np.true_divide,
    "%": np.mod,
}

_CMP_OPS = {
    "==": np.equal,
    "!=": np.not_equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}


def compare(op: str, left, right):
    """``left OP right`` for scalars or arrays — the one comparison
    every predicate path makes.  NaN operands (empty-group aggregates)
    compare as False, quietly."""
    with np.errstate(invalid="ignore"):
        return _CMP_OPS[op](left, right)


_CMP_NEGATION = {
    "==": "!=", "!=": "==", "<": ">=", "<=": ">", ">": "<=", ">=": "<",
}

_CMP_FLIP = {
    "==": "==", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<=",
}


class Expr:
    """Base class of all expression nodes."""

    # -- construction DSL ------------------------------------------------------

    def __add__(self, other): return Arith("+", self, wrap(other))
    def __radd__(self, other): return Arith("+", wrap(other), self)
    def __sub__(self, other): return Arith("-", self, wrap(other))
    def __rsub__(self, other): return Arith("-", wrap(other), self)
    def __mul__(self, other): return Arith("*", self, wrap(other))
    def __rmul__(self, other): return Arith("*", wrap(other), self)
    def __truediv__(self, other): return Arith("/", self, wrap(other))
    def __rtruediv__(self, other): return Arith("/", wrap(other), self)
    def __mod__(self, other): return Arith("%", self, wrap(other))

    def __eq__(self, other): return Comparison("==", self, wrap(other))
    def __ne__(self, other): return Comparison("!=", self, wrap(other))
    def __lt__(self, other): return Comparison("<", self, wrap(other))
    def __le__(self, other): return Comparison("<=", self, wrap(other))
    def __gt__(self, other): return Comparison(">", self, wrap(other))
    def __ge__(self, other): return Comparison(">=", self, wrap(other))

    def __and__(self, other): return And.of(self, other)
    def __or__(self, other): return Or.of(self, other)
    def __invert__(self): return Not(self)

    def __hash__(self):
        return hash(self.key())

    def __bool__(self):
        raise ExpressionError(
            "expressions are not truthy; use & | ~ instead of and/or/not")

    def isin(self, values: Iterable[object]) -> "InSet":
        """Membership test against a fixed set of values."""
        return InSet(self, values)

    # -- interface -------------------------------------------------------------

    def eval(self, env: Mapping[str, Mapping[str, object]]) -> object:
        """Evaluate under ``env`` to a scalar or a NumPy array."""
        raise NotImplementedError

    def attrs(self, side: str) -> set[str]:
        """Names of attributes referenced on ``side`` (BASE or DETAIL)."""
        raise NotImplementedError

    def children(self) -> tuple["Expr", ...]:
        return ()

    def key(self) -> tuple:
        """A hashable structural identity (class + operator + children keys)."""
        raise NotImplementedError

    def result_dtype(self, base: Schema | None,
                     detail: Schema | None) -> DataType:
        """Static datatype of this expression's value."""
        raise NotImplementedError

    def equivalent(self, other: "Expr") -> bool:
        """Structural equality (``==`` is overloaded to build comparisons)."""
        return isinstance(other, Expr) and self.key() == other.key()

    def substitute(self, mapping: Mapping[tuple[str, str], "Expr"]) -> "Expr":
        """Replace attribute references per ``{(side, name): expr}``."""
        raise NotImplementedError


def wrap(value: object) -> Expr:
    """Lift a Python scalar to a :class:`Literal`; pass expressions through."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, (bool, int, float, str, np.generic)):
        return Literal(value)
    raise ExpressionError(f"cannot use {value!r} in an expression")


class Literal(Expr):
    """A constant value."""

    def __init__(self, value: object):
        if isinstance(value, np.generic):
            value = value.item()
        self.value = value

    def eval(self, env): return self.value
    def attrs(self, side): return set()
    def key(self): return ("lit", self.value)
    def substitute(self, mapping): return self

    def result_dtype(self, base, detail):
        if isinstance(value := self.value, bool):
            return DataType.BOOL
        if isinstance(value, int):
            return DataType.INT64
        if isinstance(value, float):
            return DataType.FLOAT64
        return DataType.STRING

    def __repr__(self):
        return repr(self.value)


class _AttrRef(Expr):
    """A reference to an attribute on one side of the GMDJ."""

    side: str = ""

    def __init__(self, name: str):
        self.name = name

    def eval(self, env):
        mapping = env.get(self.side)
        if mapping is None:
            raise ExpressionError(
                f"no {self.side} relation bound while evaluating {self!r}")
        try:
            return mapping[self.name]
        except KeyError:
            raise ExpressionError(
                f"unknown {self.side} attribute {self.name!r}") from None

    def attrs(self, side):
        return {self.name} if side == self.side else set()

    def key(self):
        return ("attr", self.side, self.name)

    def substitute(self, mapping):
        return mapping.get((self.side, self.name), self)

    def result_dtype(self, base, detail):
        schema = base if self.side == BASE else detail
        if schema is None:
            raise ExpressionError(
                f"{self.side} schema required to type {self!r}")
        return schema.dtype(self.name)

    def __repr__(self):
        prefix = "b" if self.side == BASE else "r"
        return f"{prefix}.{self.name}"


class BaseAttr(_AttrRef):
    """Reference to an attribute of the base-values relation ``B``."""
    side = BASE


class DetailAttr(_AttrRef):
    """Reference to an attribute of the detail relation ``R``."""
    side = DETAIL


class Arith(Expr):
    """A binary arithmetic expression."""

    def __init__(self, op: str, left: Expr, right: Expr):
        if op not in _ARITH_OPS:
            raise ExpressionError(f"unknown arithmetic operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def eval(self, env):
        left = self.left.eval(env)
        right = self.right.eval(env)
        # Division by a zero count (empty group) yields NaN/inf, which a
        # later comparison treats as non-matching — mirror SQL's NULL.
        with np.errstate(divide="ignore", invalid="ignore"):
            return _ARITH_OPS[self.op](left, right)

    def attrs(self, side):
        return self.left.attrs(side) | self.right.attrs(side)

    def children(self):
        return (self.left, self.right)

    def key(self):
        return ("arith", self.op, self.left.key(), self.right.key())

    def substitute(self, mapping):
        return Arith(self.op, self.left.substitute(mapping),
                     self.right.substitute(mapping))

    def result_dtype(self, base, detail):
        if self.op == "/":
            return DataType.FLOAT64
        return common_type(self.left.result_dtype(base, detail),
                           self.right.result_dtype(base, detail))

    def __repr__(self):
        return f"({self.left!r} {self.op} {self.right!r})"


class Comparison(Expr):
    """A binary comparison; the atomic boolean predicate."""

    def __init__(self, op: str, left: Expr, right: Expr):
        if op not in _CMP_OPS:
            raise ExpressionError(f"unknown comparison operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def eval(self, env):
        return compare(self.op, self.left.eval(env), self.right.eval(env))

    def attrs(self, side):
        return self.left.attrs(side) | self.right.attrs(side)

    def children(self):
        return (self.left, self.right)

    def key(self):
        return ("cmp", self.op, self.left.key(), self.right.key())

    def substitute(self, mapping):
        return Comparison(self.op, self.left.substitute(mapping),
                          self.right.substitute(mapping))

    def negated(self) -> "Comparison":
        """The comparison with its operator logically negated."""
        return Comparison(_CMP_NEGATION[self.op], self.left, self.right)

    def flipped(self) -> "Comparison":
        """The comparison with sides swapped (operator direction adjusted)."""
        return Comparison(_CMP_FLIP[self.op], self.right, self.left)

    def result_dtype(self, base, detail):
        return DataType.BOOL

    def __repr__(self):
        return f"({self.left!r} {self.op} {self.right!r})"


class InSet(Expr):
    """Membership of an expression's value in a fixed set."""

    def __init__(self, operand: Expr, values: Iterable[object]):
        self.operand = operand
        self.values = frozenset(
            value.item() if isinstance(value, np.generic) else value
            for value in values)

    def eval(self, env):
        operand = self.operand.eval(env)
        if isinstance(operand, np.ndarray):
            return np.isin(operand, list(self.values))
        return operand in self.values

    def attrs(self, side):
        return self.operand.attrs(side)

    def children(self):
        return (self.operand,)

    def key(self):
        return ("in", self.operand.key(), tuple(sorted(map(repr, self.values))))

    def substitute(self, mapping):
        return InSet(self.operand.substitute(mapping), self.values)

    def result_dtype(self, base, detail):
        return DataType.BOOL

    def __repr__(self):
        return f"({self.operand!r} IN {sorted(map(repr, self.values))})"


#: Scalar functions usable in expressions, all NumPy ufuncs (so they
#: vectorize) with SQL-ish names.
_SCALAR_FUNCTIONS = {
    "abs": np.abs,
    "floor": np.floor,
    "ceil": np.ceil,
    "sqrt": np.sqrt,
    "log": np.log,
    "log2": np.log2,
    "exp": np.exp,
}


class Func(Expr):
    """Application of a named scalar function to one operand.

    >>> Func("floor", r.StartTime / 3600)   # hour bucketing
    """

    def __init__(self, name: str, operand: Expr):
        if name not in _SCALAR_FUNCTIONS:
            raise ExpressionError(
                f"unknown scalar function {name!r}; "
                f"available: {sorted(_SCALAR_FUNCTIONS)}")
        self.name = name
        self.operand = wrap(operand)

    def eval(self, env):
        value = self.operand.eval(env)
        with np.errstate(divide="ignore", invalid="ignore"):
            return _SCALAR_FUNCTIONS[self.name](value)

    def attrs(self, side):
        return self.operand.attrs(side)

    def children(self):
        return (self.operand,)

    def key(self):
        return ("func", self.name, self.operand.key())

    def substitute(self, mapping):
        return Func(self.name, self.operand.substitute(mapping))

    def result_dtype(self, base, detail):
        operand_dtype = self.operand.result_dtype(base, detail)
        if not operand_dtype.is_numeric:
            raise ExpressionError(
                f"{self.name}() requires a numeric operand")
        if self.name == "abs":
            return operand_dtype
        return DataType.FLOAT64

    def __repr__(self):
        return f"{self.name}({self.operand!r})"


def fn(name: str, operand: object) -> Func:
    """Shorthand constructor: ``fn("floor", r.t / 3600)``."""
    return Func(name, wrap(operand))


class Case(Expr):
    """SQL ``CASE WHEN … THEN … ELSE … END``, vectorized via np.select.

    >>> Case([(r.DestPort == 80, Literal("web")),
    ...       (r.DestPort == 53, Literal("dns"))],
    ...      default=Literal("other"))
    """

    def __init__(self, branches: Sequence[tuple[object, object]],
                 default: object):
        if not branches:
            raise ExpressionError("CASE needs at least one WHEN branch")
        self.branches = tuple((wrap(condition), wrap(value))
                              for condition, value in branches)
        self.default = wrap(default)

    def eval(self, env):
        conditions = []
        values = []
        length = None
        for condition, value in self.branches:
            mask = condition.eval(env)
            result = value.eval(env)
            if isinstance(mask, np.ndarray):
                length = len(mask)
            if isinstance(result, np.ndarray):
                length = len(result)
            conditions.append(mask)
            values.append(result)
        default = self.default.eval(env)
        if length is None:
            # fully scalar evaluation
            for mask, result in zip(conditions, values):
                if bool(mask):
                    return result
            return default
        conditions = [np.broadcast_to(np.asarray(mask, dtype=bool), length)
                      for mask in conditions]
        values = [np.broadcast_to(np.asarray(value), length)
                  for value in values]
        default = np.broadcast_to(np.asarray(default), length)
        return np.select(conditions, values, default)

    def attrs(self, side):
        collected: set[str] = set()
        for condition, value in self.branches:
            collected |= condition.attrs(side) | value.attrs(side)
        return collected | self.default.attrs(side)

    def children(self):
        flattened: list[Expr] = []
        for condition, value in self.branches:
            flattened += [condition, value]
        flattened.append(self.default)
        return tuple(flattened)

    def key(self):
        return ("case",
                tuple((c.key(), v.key()) for c, v in self.branches),
                self.default.key())

    def substitute(self, mapping):
        return Case([(c.substitute(mapping), v.substitute(mapping))
                     for c, v in self.branches],
                    self.default.substitute(mapping))

    def result_dtype(self, base, detail):
        dtypes = {value.result_dtype(base, detail)
                  for __, value in self.branches}
        dtypes.add(self.default.result_dtype(base, detail))
        if len(dtypes) == 1:
            return dtypes.pop()
        if dtypes <= {DataType.INT64, DataType.FLOAT64}:
            return DataType.FLOAT64
        raise ExpressionError(
            f"CASE branches disagree on type: {sorted(d.value for d in dtypes)}")

    def __repr__(self):
        parts = " ".join(f"WHEN {c!r} THEN {v!r}"
                         for c, v in self.branches)
        return f"CASE {parts} ELSE {self.default!r} END"


class And(Expr):
    """N-ary conjunction."""

    def __init__(self, terms: Sequence[Expr]):
        if not terms:
            raise ExpressionError("AND requires at least one term")
        self.terms = tuple(terms)

    @staticmethod
    def of(*terms: object) -> Expr:
        """Conjunction that flattens nested ANDs; single terms pass through."""
        flattened: list[Expr] = []
        for term in terms:
            term = wrap(term)
            if isinstance(term, And):
                flattened.extend(term.terms)
            else:
                flattened.append(term)
        if len(flattened) == 1:
            return flattened[0]
        return And(flattened)

    def eval(self, env):
        result = None
        for term in self.terms:
            value = term.eval(env)
            result = value if result is None else np.logical_and(result, value)
        return result

    def attrs(self, side):
        return set().union(*(term.attrs(side) for term in self.terms))

    def children(self):
        return self.terms

    def key(self):
        return ("and",) + tuple(term.key() for term in self.terms)

    def substitute(self, mapping):
        return And([term.substitute(mapping) for term in self.terms])

    def result_dtype(self, base, detail):
        return DataType.BOOL

    def __repr__(self):
        return "(" + " & ".join(map(repr, self.terms)) + ")"


class Or(Expr):
    """N-ary disjunction."""

    def __init__(self, terms: Sequence[Expr]):
        if not terms:
            raise ExpressionError("OR requires at least one term")
        self.terms = tuple(terms)

    @staticmethod
    def of(*terms: object) -> Expr:
        """Disjunction that flattens nested ORs; single terms pass through."""
        flattened: list[Expr] = []
        for term in terms:
            term = wrap(term)
            if isinstance(term, Or):
                flattened.extend(term.terms)
            else:
                flattened.append(term)
        if len(flattened) == 1:
            return flattened[0]
        return Or(flattened)

    def eval(self, env):
        result = None
        for term in self.terms:
            value = term.eval(env)
            result = value if result is None else np.logical_or(result, value)
        return result

    def attrs(self, side):
        return set().union(*(term.attrs(side) for term in self.terms))

    def children(self):
        return self.terms

    def key(self):
        return ("or",) + tuple(term.key() for term in self.terms)

    def substitute(self, mapping):
        return Or([term.substitute(mapping) for term in self.terms])

    def result_dtype(self, base, detail):
        return DataType.BOOL

    def __repr__(self):
        return "(" + " | ".join(map(repr, self.terms)) + ")"


class Not(Expr):
    """Logical negation."""

    def __init__(self, operand: Expr):
        self.operand = operand

    def eval(self, env):
        return np.logical_not(self.operand.eval(env))

    def attrs(self, side):
        return self.operand.attrs(side)

    def children(self):
        return (self.operand,)

    def key(self):
        return ("not", self.operand.key())

    def substitute(self, mapping):
        return Not(self.operand.substitute(mapping))

    def result_dtype(self, base, detail):
        return DataType.BOOL

    def __repr__(self):
        return f"~{self.operand!r}"


class _AttrNamespace:
    """Attribute factory: ``b.SourceAS`` builds ``BaseAttr('SourceAS')``.

    Instances for both sides are exported as :data:`b` and :data:`r`.
    """

    def __init__(self, factory):
        self._factory = factory

    def __getattr__(self, name: str) -> _AttrRef:
        if name.startswith("_"):
            raise AttributeError(name)
        return self._factory(name)

    def __getitem__(self, name: str) -> _AttrRef:
        return self._factory(name)


#: Namespace for base-relation attribute references: ``b.SourceAS``.
b = _AttrNamespace(BaseAttr)
#: Namespace for detail-relation attribute references: ``r.NumBytes``.
r = _AttrNamespace(DetailAttr)


def evaluate_predicate(expr: Expr, env: Mapping[str, Mapping[str, object]],
                       length: int) -> np.ndarray:
    """Evaluate a boolean expression, broadcasting scalars to ``length``.

    Conditions that only reference base attributes evaluate to a scalar;
    this helper ensures callers always receive a boolean array matching the
    detail relation's row count.
    """
    value = expr.eval(env)
    if isinstance(value, np.ndarray):
        if value.dtype != np.bool_:
            raise ExpressionError(
                f"predicate evaluated to {value.dtype}, expected bool")
        return value
    return np.full(length, bool(value))


def conjuncts(expr: Expr) -> tuple[Expr, ...]:
    """The top-level conjuncts of ``expr`` (itself, if not an AND)."""
    if isinstance(expr, And):
        return expr.terms
    return (expr,)


def disjuncts(expr: Expr) -> tuple[Expr, ...]:
    """The top-level disjuncts of ``expr`` (itself, if not an OR)."""
    if isinstance(expr, Or):
        return expr.terms
    return (expr,)


TRUE = Literal(True)
FALSE = Literal(False)
