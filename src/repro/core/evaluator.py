"""Centralized GMDJ evaluation.

This evaluator is used in two roles:

* as the reference *centralized* evaluator (the whole detail relation in
  one place — what a single-site data warehouse would do), and
* as the *local* evaluator inside every Skalla site, where the detail
  relation is the site's partition and the requested output is the
  sub-aggregate **state** columns rather than finalized values.

Strategy (cf. [2, 7] on efficient GMDJ evaluation): each condition θ is
split into equi-join conjuncts and a residual.

* pure equi-join θ — one fully vectorized pass: dense group codes over
  the detail relation, per-group reductions via ``bincount``/``ufunc.at``,
  then a vectorized gather from groups to base rows;
* equi-join + residual — batched residual kernels (see below) select each
  base tuple's matching detail rows out of its candidate group without a
  per-base-tuple Python loop;
* no equi-join conjuncts — the same kernels run against the whole detail
  relation (the unavoidable O(|B|·|R|) case, evaluated in bounded chunks
  of base×detail pairs).

Residual kernels (``docs/KERNELS.md`` has the full dispatch table):

* detail-only conjuncts are hoisted into one vectorized candidate mask;
* base-only conjuncts knock out whole base rows up front;
* ``detail_expr == base_expr`` conjuncts fold into the equi-join group
  coding (one extra factorize column instead of |B| equality scans);
* when every remaining conjunct is a range comparison against one common
  detail expression: if no group is matched by two base rows (every
  ``THEN COMPUTE … WHERE x >= avg1`` round) each detail row has one
  partner and the ranges are one elementwise comparison against its
  bound; otherwise a ranked ``searchsorted`` interval kernel finds each
  base row's matching run.  Segmented reductions (``ufunc.reduceat``
  where bit-exact, length-batched pairwise sums otherwise) aggregate
  the runs;
* arbitrary residuals fall back to chunked pair expansion: blocks of
  base rows are evaluated at once over materialized (base, candidate)
  pair arrays, bounded by ``REPRO_KERNEL_CHUNK`` pairs per block.

Every kernel is **bit-identical** to the retained scalar reference loop
(:func:`_evaluate_scan_reference`, selectable via ``use_reference_scan``
or ``REPRO_SCAN_REFERENCE=1``); ``tests/test_kernels.py`` enforces this
on randomized plans.

The evaluator can also emit a ``match`` flag per base row — true iff
``RNG(b, R, θ_1 ∨ … ∨ θ_m)`` is non-empty — which is exactly the
side-information Proposition 1 (distribution-independent group reduction)
needs, at no extra aggregation cost.
"""

from __future__ import annotations

import contextlib
import os
from typing import Sequence

import numpy as np

from repro.errors import ExpressionError, QueryError
from repro.relational.aggregates import (
    AggregateSpec, place_grouped, primitive_empty, primitive_grouped,
    primitive_reduce, primitive_reduce_segments)
from repro.relational.conditions import ConditionAnalysis
from repro.relational.factorize import (
    convert, factorize, group_index, group_runs, iter_groups, lookup_codes,
    pair_promotion, projected_rows, stable_order)
from repro.relational.expressions import (
    BASE, DETAIL, And, Comparison, InSet, compare, conjuncts,
    evaluate_predicate)
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, Schema
from repro.relational.types import DataType
from repro.core.gmdj import Gmdj, profile_gmdj

#: Requested output forms.
FINALIZED = "finalized"
STATES = "states"


def finalize_states(gmdj: Gmdj, states: dict[str, np.ndarray],
                    detail_schema: Schema) -> dict[str, np.ndarray]:
    """Turn (merged) state arrays into finalized output columns.

    ``states`` maps state-column names (``alias__primitive``) to arrays;
    the result maps aggregate aliases to finalized arrays.  Used by the
    coordinator after synchronization and by sites that chain GMDJ rounds
    locally under synchronization reduction.
    """
    finalized = {}
    for spec in gmdj.all_aggregates:
        primitive_states = {
            field.primitive: states[field.name]
            for field in spec.state_fields(detail_schema)}
        finalized[spec.alias] = np.asarray(
            spec.function.finalize(primitive_states))
    return finalized


def evaluate_gmdj(gmdj: Gmdj, base: Relation, detail: Relation, *,
                  output: str = FINALIZED,
                  match_column: str | None = None) -> Relation:
    """Evaluate ``MD(base, detail, …)`` per Definition 1.

    Parameters
    ----------
    output:
        ``"finalized"`` produces the user-visible aggregate columns;
        ``"states"`` produces sub-aggregate state columns (used by sites).
    match_column:
        When given, append a BOOL column of this name that is true iff the
        base tuple's range under *some* condition is non-empty.
    """
    if output not in (FINALIZED, STATES):
        raise QueryError(f"unknown output mode {output!r}")
    gmdj.validate(base.schema, detail.schema)
    if output == STATES and not gmdj.is_decomposable():
        # State output is only requested by distributed plans, where a
        # holistic aggregate has no bounded sub-aggregate.
        gmdj.state_fields(detail.schema)  # raises AggregateError

    profile = profile_gmdj(gmdj)
    num_base = base.num_rows
    matched_any = np.zeros(num_base, dtype=bool)
    state_arrays: dict[str, np.ndarray] = {}

    # Grouping variables of a coalesced GMDJ usually share their
    # equi-join key; computing the group coding once per distinct key is
    # what makes coalescing save site computation, not just rounds.
    codes_cache: dict[tuple, tuple] = {}
    for variable, analysis in zip(gmdj.variables, profile.analyses):
        variable_states, matched = _evaluate_variable(
            variable.aggregates, analysis, base, detail, codes_cache)
        state_arrays.update(variable_states)
        matched_any |= matched

    return _assemble_result(gmdj, base, detail, state_arrays, matched_any,
                            output, match_column)


def _assemble_result(gmdj: Gmdj, base: Relation, detail: Relation,
                     state_arrays: dict[str, np.ndarray],
                     matched_any: np.ndarray, output: str,
                     match_column: str | None) -> Relation:
    columns = base.columns()
    attributes = list(base.schema.attributes)
    if output == FINALIZED:
        for spec in gmdj.all_aggregates:
            if spec.function.decomposable:
                states = {
                    field.primitive: state_arrays[field.name]
                    for field in spec.state_fields(detail.schema)}
                columns[spec.alias] = np.asarray(spec.function.finalize(states))
            else:
                columns[spec.alias] = state_arrays[f"{spec.alias}__holistic"]
            attributes.append(spec.output_attribute(detail.schema))
    else:
        for field in gmdj.state_fields(detail.schema):
            columns[field.name] = state_arrays[field.name]
            attributes.append(Attribute(field.name, field.dtype))
    if match_column is not None:
        columns[match_column] = matched_any
        attributes.append(Attribute(match_column, DataType.BOOL))
    return Relation.from_columns(Schema(attributes), columns)


# ---------------------------------------------------------------------------
# Per-grouping-variable evaluation
# ---------------------------------------------------------------------------

def _evaluate_variable(aggregates: Sequence[AggregateSpec],
                       analysis: ConditionAnalysis, base: Relation,
                       detail: Relation,
                       codes_cache: dict[tuple, tuple] | None = None,
                       ) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """States (keyed by state-column name) + matched flags for one variable."""
    if analysis.pairs and analysis.residual is None:
        return _evaluate_grouped(aggregates, analysis, base, detail,
                                 codes_cache)
    return _evaluate_scan(aggregates, analysis, base, detail, codes_cache)


def _cached_match_codes(base, base_key, detail, detail_key, codes_cache):
    if codes_cache is None:
        return match_codes(base, base_key, detail, detail_key)
    cache_key = (tuple(base_key), tuple(detail_key))
    if cache_key not in codes_cache:
        codes_cache[cache_key] = match_codes(base, base_key, detail,
                                             detail_key)
    return codes_cache[cache_key]


def _evaluate_grouped(aggregates, analysis, base, detail, codes_cache=None):
    """Fully vectorized path for pure conjunctive equi-join conditions."""
    num_base = base.num_rows
    base_codes, detail_codes, num_groups = _cached_match_codes(
        base, analysis.base_key, detail, analysis.detail_key, codes_cache)
    matched = base_codes >= 0
    gather = np.where(matched, base_codes, 0)

    states: dict[str, np.ndarray] = {}
    for spec in aggregates:
        values = detail.column(spec.column) if spec.column is not None else None
        if spec.function.decomposable:
            for field in spec.state_fields(detail.schema):
                grouped = (primitive_grouped(field.primitive, detail_codes,
                                             values, num_groups)
                           if num_groups else None)
                states[field.name] = place_grouped(
                    field, grouped, matched, gather, num_base)
        else:
            out_dtype = spec.output_attribute(detail.schema).dtype.numpy_dtype
            states[f"{spec.alias}__holistic"] = _holistic_grouped(
                spec, values, detail_codes, num_groups, matched, gather,
                num_base, out_dtype)
    return states, matched


def _holistic_grouped(spec, values, detail_codes, num_groups, matched,
                      gather, num_base, out_dtype):
    """Per-group loop for holistic aggregates on the equi-join path."""
    if np.issubdtype(out_dtype, np.integer):
        # An integer-output holistic (e.g. exact COUNT DISTINCT) must not
        # stage through float64: results above 2**53 would lose precision
        # in the NaN-filled intermediate.  Every non-empty group is
        # overwritten below, so a zero fill is never observed.
        per_group = np.zeros(num_groups, dtype=out_dtype)
    else:
        per_group = np.full(num_groups, np.nan, dtype=out_dtype)
    for code, group in iter_groups(detail_codes, num_groups):
        group_values = values[group] if values is not None else None
        per_group[code] = spec.function.compute(group_values, len(group))
    empty = spec.function.compute(
        np.empty(0) if values is not None else None, 0)
    if num_groups:
        result = np.where(matched, per_group[gather], empty)
    else:
        result = np.full(num_base, empty, dtype=out_dtype)
    return result.astype(out_dtype)


# ---------------------------------------------------------------------------
# Residual (scan) path: reference loop + batched kernels
# ---------------------------------------------------------------------------

#: Setting this environment variable to 1/true/yes forces the scalar
#: reference loop for every residual evaluation.
_REFERENCE_ENV = "REPRO_SCAN_REFERENCE"
#: Upper bound on materialized base×detail pairs per fallback chunk.
_CHUNK_ENV = "REPRO_KERNEL_CHUNK"
_DEFAULT_CHUNK_PAIRS = 1 << 21

_force_reference = False


def use_reference_scan(enabled: bool) -> None:
    """Force (or stop forcing) the scalar reference residual loop."""
    global _force_reference
    _force_reference = bool(enabled)


@contextlib.contextmanager
def reference_scan():
    """Context manager: evaluate residuals with the reference loop."""
    previous = _force_reference
    use_reference_scan(True)
    try:
        yield
    finally:
        use_reference_scan(previous)


def _reference_scan_active() -> bool:
    if _force_reference:
        return True
    return os.environ.get(_REFERENCE_ENV, "").lower() in ("1", "true", "yes")


def _chunk_pairs_limit() -> int:
    value = os.environ.get(_CHUNK_ENV, "")
    return max(int(value), 1) if value else _DEFAULT_CHUNK_PAIRS


def _evaluate_scan(aggregates, analysis, base, detail, codes_cache=None):
    """Residual path: dispatch between batched kernels and the reference.

    The kernels array-evaluate expressions that the reference loop
    evaluates with scalar base values.  The only construct whose scalar
    and array semantics differ is :class:`InSet` (Python ``in`` uses
    NaN-identity and heterogeneous sets; ``np.isin`` does not), so
    residuals with base-referencing or NaN-containing membership tests
    keep the scalar loop.
    """
    if _reference_scan_active() or (
            analysis.residual is not None
            and _needs_scalar_semantics(analysis.residual)):
        return _evaluate_scan_reference(aggregates, analysis, base, detail,
                                        codes_cache)
    return _evaluate_scan_kernels(aggregates, analysis, base, detail,
                                  codes_cache)


def _needs_scalar_semantics(expr) -> bool:
    if isinstance(expr, InSet):
        if expr.attrs(BASE):
            return True
        if any(isinstance(value, float) and value != value
               for value in expr.values):
            return True
    return any(_needs_scalar_semantics(child) for child in expr.children())


def _prepare_scan_outputs(aggregates, detail_schema, num_base):
    """Pre-fill state output arrays with per-primitive empty values."""
    fields_by_spec = []
    outputs: dict[str, np.ndarray] = {}
    for spec in aggregates:
        if spec.function.decomposable:
            fields = spec.state_fields(detail_schema)
            for field in fields:
                empty = primitive_empty(field.primitive)
                if field.dtype is DataType.BYTES:
                    # np.full with a bytes fill value goes through a
                    # fixed-width 'S' intermediate and silently strips
                    # trailing NUL bytes, corrupting serialized sketch
                    # states.  fill() on an object array is NUL-safe.
                    column = np.empty(num_base, dtype=object)
                    column.fill(empty)
                else:
                    column = np.full(num_base, empty,
                                     dtype=field.dtype.numpy_dtype)
                outputs[field.name] = column
            fields_by_spec.append((spec, fields))
        else:
            empty = spec.function.compute(None, 0)
            # Integer-output holistics (exact COUNT DISTINCT) stay
            # integral end to end; a float64 staging array would round
            # results above 2**53.
            out_dtype = spec.output_attribute(detail_schema).dtype.numpy_dtype
            outputs[f"{spec.alias}__holistic"] = np.full(
                num_base, empty, dtype=out_dtype)
            fields_by_spec.append((spec, None))
    return outputs, fields_by_spec


def _evaluate_scan_reference(aggregates, analysis, base, detail,
                             codes_cache=None):
    """Scalar per-base-tuple loop — the bit-identity oracle for kernels.

    With equi-join conjuncts the candidate block per base tuple is its
    detail group; otherwise it is the whole detail relation.
    """
    num_base = base.num_rows
    residual = analysis.residual
    if analysis.pairs:
        base_codes, detail_codes, num_groups = _cached_match_codes(
            base, analysis.base_key, detail, analysis.detail_key,
            codes_cache)
        order, starts, sizes = group_runs(detail_codes, num_groups)
        ends = starts + sizes
    else:
        base_codes = np.zeros(num_base, dtype=np.int64)
        order = np.arange(detail.num_rows)
        starts = np.array([0])
        ends = np.array([detail.num_rows])

    needed_attrs = set()
    if residual is not None:
        needed_attrs |= residual.attrs("detail")
    for spec in aggregates:
        if spec.column is not None:
            needed_attrs.add(spec.column)
    detail_columns = {name: detail.column(name) for name in needed_attrs}
    base_names = base.schema.names
    base_columns = [base.column(name) for name in base_names]

    matched = np.zeros(num_base, dtype=bool)
    outputs, fields_by_spec = _prepare_scan_outputs(
        aggregates, detail.schema, num_base)

    for index in range(num_base):
        code = base_codes[index]
        if code < 0:
            continue
        candidates = order[starts[code]:ends[code]]
        if len(candidates) == 0:
            continue
        if residual is not None:
            env = {
                "base": {name: column[index]
                         for name, column in zip(base_names, base_columns)},
                "detail": {name: column[candidates]
                           for name, column in detail_columns.items()},
            }
            mask = evaluate_predicate(residual, env, len(candidates))
            selected = candidates[mask]
        else:
            selected = candidates
        if len(selected) == 0:
            continue
        matched[index] = True
        for spec, fields in fields_by_spec:
            values = (detail_columns[spec.column][selected]
                      if spec.column is not None else None)
            if fields is not None:
                for field in fields:
                    if field.primitive == "count":
                        outputs[field.name][index] = len(selected)
                    else:
                        outputs[field.name][index] = primitive_reduce(
                            field.primitive, values)
            else:
                outputs[f"{spec.alias}__holistic"][index] = \
                    spec.function.compute(values, len(selected))
    return outputs, matched


# -- residual classification -------------------------------------------------

_RANGE_OPS = ("<", "<=", ">", ">=")
_TEXTUAL = (DataType.STRING, DataType.BYTES)


class _ResidualPlan:
    """Top-level conjuncts of a residual, classified by kernel."""

    __slots__ = ("detail_only", "base_only", "folds", "ranges", "others")

    def __init__(self):
        self.detail_only: list = []    # reference only detail attributes
        self.base_only: list = []      # reference no detail attributes
        self.folds: list = []          # (detail_expr, base_expr) equalities
        self.ranges: list = []         # (detail_expr, op, base_expr, conj)
        self.others: list = []         # anything else (pair expansion)


def _classify_residual(residual, base_schema, detail_schema) -> _ResidualPlan:
    plan = _ResidualPlan()
    if residual is None:
        return plan
    for conj in conjuncts(residual):
        if not conj.attrs(DETAIL):
            plan.base_only.append(conj)
            continue
        if not conj.attrs(BASE):
            plan.detail_only.append(conj)
            continue
        oriented = _oriented_comparison(conj)
        if oriented is not None and _sides_comparable(
                oriented.left, oriented.right, base_schema, detail_schema):
            if oriented.op == "==":
                plan.folds.append((oriented.left, oriented.right))
                continue
            if oriented.op in _RANGE_OPS:
                plan.ranges.append(
                    (oriented.left, oriented.op, oriented.right, conj))
                continue
        plan.others.append(conj)
    return plan


def _oriented_comparison(conj):
    """``conj`` as ``detail_expr OP base_expr``, or None if not that shape."""
    if not isinstance(conj, Comparison):
        return None
    for candidate in (conj, conj.flipped()):
        if not candidate.left.attrs(BASE) and not candidate.right.attrs(DETAIL):
            return candidate
    return None


def _sides_comparable(detail_expr, base_expr, base_schema, detail_schema):
    """Whether both sides are textual or both numeric-ish.

    The fold/interval kernels compare values through a joint sort, which
    requires one comparison domain; mixed text-vs-number comparisons keep
    NumPy's (vacuously false / raising) elementwise semantics via the
    pair-expansion path.
    """
    try:
        left = detail_expr.result_dtype(None, detail_schema)
        right = base_expr.result_dtype(base_schema, None)
    except Exception:
        return False
    return (left in _TEXTUAL) == (right in _TEXTUAL)


# -- kernels -----------------------------------------------------------------

def _evaluate_scan_kernels(aggregates, analysis, base, detail,
                           codes_cache=None):
    """Batched residual evaluation; bit-identical to the reference loop."""
    num_base = base.num_rows
    num_detail = detail.num_rows
    residual = analysis.residual
    plan = _classify_residual(residual, base.schema, detail.schema)

    outputs, fields_by_spec = _prepare_scan_outputs(
        aggregates, detail.schema, num_base)
    matched = np.zeros(num_base, dtype=bool)

    needed_attrs = set()
    if residual is not None:
        needed_attrs |= residual.attrs(DETAIL)
    for spec in aggregates:
        if spec.column is not None:
            needed_attrs.add(spec.column)
    detail_env = {name: detail.column(name) for name in needed_attrs}
    base_env = {name: base.column(name) for name in base.schema.names}

    # Group coding: declared equi-join pairs plus folded equalities.
    if analysis.pairs or plan.folds:
        base_codes, detail_codes, num_groups = _fold_codes(
            analysis, plan.folds, base, detail, base_env, detail_env,
            codes_cache)
    elif num_detail:
        base_codes = np.zeros(num_base, dtype=np.int64)
        detail_codes = np.zeros(num_detail, dtype=np.int64)
        num_groups = 1
    else:
        base_codes = np.full(num_base, -1, dtype=np.int64)
        detail_codes = np.empty(0, dtype=np.int64)
        num_groups = 0
    if num_groups == 0 or num_base == 0:
        return outputs, matched

    # Base-only conjuncts knock out whole base rows before any pair work.
    for conj in plan.base_only:
        value = conj.eval({"base": base_env})
        if isinstance(value, np.ndarray):
            if value.dtype != np.bool_:
                raise ExpressionError(
                    f"predicate evaluated to {value.dtype}, expected bool")
            base_codes = np.where(value, base_codes, -1)
        elif not bool(value):
            return outputs, matched

    # Detail-only conjuncts hoist into one candidate mask over R.
    keep = None
    if plan.detail_only:
        keep = evaluate_predicate(
            And.of(*plan.detail_only), {"base": {}, "detail": detail_env},
            num_detail)

    if plan.ranges and not plan.others and all(
            dexpr.key() == plan.ranges[0][0].key()
            for dexpr, _op, _bexpr, _conj in plan.ranges[1:]):
        # Every remaining conjunct is a range on one detail expression.
        # When no group is matched by two live base rows — any base that
        # is distinct on the equi key, i.e. every THEN COMPUTE round —
        # a detail row has at most one partner and the ranges are plain
        # elementwise comparisons; only many base rows per group need
        # the windows of the interval kernel.
        range_values = np.asarray(
            plan.ranges[0][0].eval({"detail": detail_env}))
        live = base_codes[base_codes >= 0]
        segments = (_functional_segments
                    if np.bincount(live, minlength=1).max() <= 1
                    else _interval_segments)
        rows, lens, big_index = segments(
            plan.ranges, range_values, base_env, detail_codes, num_groups,
            keep, base_codes)
        if len(rows):
            matched[rows] = True
            _apply_segments(fields_by_spec, outputs, detail_env, rows, lens,
                            big_index)
        return outputs, matched

    order, starts, sizes = group_runs(detail_codes, num_groups)
    if keep is not None:
        order = order[keep[order]]
        sizes = np.bincount(detail_codes[order], minlength=num_groups)
        starts = np.cumsum(sizes) - sizes

    rows_ok = base_codes >= 0
    counts = np.where(rows_ok, sizes[np.where(rows_ok, base_codes, 0)], 0)
    chunk_pairs = _chunk_pairs_limit()

    if not plan.ranges and not plan.others:
        # Selection is fully decided by codes and masks.
        rows_all = np.flatnonzero(counts > 0)
        for chunk in _row_chunks(rows_all, counts[rows_all], chunk_pairs):
            rows = rows_all[chunk]
            lens = counts[rows]
            big_index = _expand(order, starts[base_codes[rows]], lens)
            matched[rows] = True
            _apply_segments(fields_by_spec, outputs, detail_env, rows, lens,
                            big_index)
        return outputs, matched

    # Chunked pair expansion for arbitrary residual conjuncts.
    remaining = And.of(*([conj for *_rest, conj in plan.ranges]
                         + plan.others))
    rows_all = np.flatnonzero(counts > 0)
    base_names = remaining.attrs(BASE)
    detail_names = remaining.attrs(DETAIL)
    for chunk in _row_chunks(rows_all, counts[rows_all], chunk_pairs):
        rows = rows_all[chunk]
        lens = counts[rows]
        candidates = _expand(order, starts[base_codes[rows]], lens)
        pair_row = np.repeat(np.arange(len(rows)), lens)
        env = {
            "base": {name: base_env[name][rows][pair_row]
                     for name in base_names},
            "detail": {name: detail_env[name][candidates]
                       for name in detail_names},
        }
        mask = evaluate_predicate(remaining, env, len(candidates))
        selected_lens = np.bincount(pair_row[mask], minlength=len(rows))
        hit = selected_lens > 0
        if not hit.any():
            continue
        rows = rows[hit]
        matched[rows] = True
        _apply_segments(fields_by_spec, outputs, detail_env, rows,
                        selected_lens[hit].astype(np.int64),
                        candidates[mask])
    return outputs, matched


def _fold_codes(analysis, folds, base, detail, base_env, detail_env,
                codes_cache):
    """Group coding over declared pairs plus folded equality conjuncts.

    A folded ``detail_expr == base_expr`` contributes one extra factorize
    column on each side.  Base rows whose fold value is NaN can never
    match (NaN == NaN is false) and are coded ``-1``; NaN *detail* fold
    values land in groups no valid base row maps to, so they need no
    special handling.
    """
    if not folds:
        return _cached_match_codes(base, analysis.base_key, detail,
                                   analysis.detail_key, codes_cache)
    cache_key = (tuple(analysis.base_key), tuple(analysis.detail_key),
                 tuple((dexpr.key(), bexpr.key()) for dexpr, bexpr in folds))
    if codes_cache is not None and cache_key in codes_cache:
        return codes_cache[cache_key]
    base_arrays = [base.column(name) for name in analysis.base_key]
    detail_arrays = [detail.column(name) for name in analysis.detail_key]
    invalid = None
    for dexpr, bexpr in folds:
        detail_values = np.asarray(dexpr.eval({"detail": detail_env}))
        base_values = np.asarray(bexpr.eval({"base": base_env}))
        if base_values.ndim == 0:
            base_values = np.full(base.num_rows, base_values[()])
        if base_values.dtype.kind == "f":
            nan = np.isnan(base_values)
            invalid = nan if invalid is None else invalid | nan
        base_arrays.append(base_values)
        detail_arrays.append(detail_values)
    base_codes, detail_codes, num_groups = match_codes_arrays(
        base_arrays, detail_arrays, base.num_rows, detail.num_rows)
    if invalid is not None and invalid.any():
        base_codes = np.where(invalid, -1, base_codes)
    result = (base_codes, detail_codes, num_groups)
    if codes_cache is not None:
        codes_cache[cache_key] = result
    return result


def _functional_segments(ranges, values, base_env, detail_codes, num_groups,
                         keep, base_codes):
    """Functional range kernel: no group has two live base rows.

    Every detail row then has at most one partner base row (that of its
    group), so each range conjunct is one elementwise comparison of the
    detail values against the partner's bound — the comparison the
    reference loop makes, NaN on either side failing it.  The selected
    rows are the cached group order filtered by that mask: each group's
    rows in ascending position, which is the reference's candidate
    order.  Segments come back in group order, not base-row order.
    """
    live = np.flatnonzero(base_codes >= 0)
    base_of_group = np.full(num_groups, -1, dtype=np.int64)
    base_of_group[base_codes[live]] = live
    partner = base_of_group[detail_codes]
    selected = partner >= 0
    if keep is not None:
        selected &= keep
    for _dexpr, op, bexpr, _conj in ranges:
        bound = np.asarray(bexpr.eval({"base": base_env}))
        if bound.ndim == 0:
            bound = np.broadcast_to(bound, len(base_codes))
        # (an unpartnered row reads base row -1; it is already deselected)
        selected &= compare(op, values, bound[partner])
    order = group_runs(detail_codes, num_groups)[0]
    big_index = order[selected[order]]
    sizes = np.bincount(detail_codes[big_index], minlength=num_groups)
    groups = np.flatnonzero(sizes)
    return base_of_group[groups], sizes[groups], big_index


def _interval_segments(ranges, values, base_env, detail_codes, num_groups,
                       keep, base_codes):
    """Interval kernel: all conjuncts are ranges on one detail expression.

    Candidates (``keep``; ``None`` = every detail row) are ranked by value
    within their group; each base row's conjunction of range bounds
    becomes one half-open rank window, located with two ``searchsorted``
    probes on a composite (group, rank) key.  Matching runs are re-sorted
    back to original detail order so segment reductions see the same
    value sequence as the reference loop.
    """
    if values.dtype.kind == "f":
        # NaN detail values never satisfy a range comparison, but they
        # sort to the top — drop them before ranking.
        finite = ~np.isnan(values)
        keep = finite if keep is None else keep & finite
    num_base = len(base_codes)
    # Rank against the cached full-column factorization; unique slots
    # for filtered-out values (including the NaN slot) simply stay
    # empty in the composite key, leaving every window unchanged.
    kind = values.dtype.kind
    promotion = "float" if kind == "f" else "int" if kind in "iub" else "raw"
    unique_values, rank = factorize(values, promotion)
    radix = len(unique_values) + 1
    # (group, rank, row) order, least significant key first: the cached
    # by-rank order of the whole column, cut down to the candidates, then
    # one stable pass over their group codes.
    by_rank = group_runs(rank, len(unique_values))[0]
    if keep is not None:
        by_rank = by_rank[keep[by_rank]]
    order_v = by_rank[stable_order(detail_codes[by_rank], num_groups)]
    composite = detail_codes[order_v] * radix + rank[order_v]

    lo = np.zeros(num_base, dtype=np.int64)
    hi = np.full(num_base, len(unique_values), dtype=np.int64)
    invalid = np.zeros(num_base, dtype=bool)
    for _dexpr, op, bexpr, _conj in ranges:
        bound = np.asarray(bexpr.eval({"base": base_env}))
        if bound.ndim == 0:
            bound = np.broadcast_to(bound, num_base)
        if bound.dtype.kind == "f":
            # A NaN bound fails every comparison: empty window.
            invalid |= np.isnan(bound)
        if op in (">=", ">"):
            side = "left" if op == ">=" else "right"
            lo = np.maximum(lo, np.searchsorted(unique_values, bound,
                                                side=side))
        else:
            side = "right" if op == "<=" else "left"
            hi = np.minimum(hi, np.searchsorted(unique_values, bound,
                                                side=side))
    rows_ok = (base_codes >= 0) & ~invalid
    gather = np.where(rows_ok, base_codes, 0)
    seg_start = np.searchsorted(composite, gather * radix + lo, side="left")
    seg_end = np.searchsorted(composite,
                              gather * radix + np.maximum(hi, lo),
                              side="left")
    lengths = np.where(rows_ok, seg_end - seg_start, 0)
    rows = np.flatnonzero(lengths > 0)
    lens = lengths[rows]
    big_index = _expand(order_v, seg_start[rows], lens)
    if len(big_index):
        # Restore original candidate order per segment (order within a
        # group is ascending original index, so a plain index sort does).
        segment_id = np.repeat(np.arange(len(rows)), lens)
        by_row = stable_order(big_index, len(detail_codes))
        big_index = big_index[by_row][
            stable_order(segment_id[by_row], len(rows))]
    return rows, lens, big_index


def _expand(order, seg_starts, lens):
    """Concatenate ``order[s:s+n]`` runs for parallel ``(s, n)`` arrays."""
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offsets = np.cumsum(lens) - lens
    positions = (np.arange(total, dtype=np.int64)
                 - np.repeat(offsets, lens) + np.repeat(seg_starts, lens))
    return order[positions]


def _row_chunks(rows, sizes, chunk_pairs):
    """Slices of ``rows`` whose pair totals stay near ``chunk_pairs``.

    Chunk boundaries never change results — they only bound the memory
    materialized per pair-expansion block.  A single oversized row gets a
    chunk of its own.
    """
    if len(rows) == 0:
        return []
    cumulative = np.cumsum(sizes)
    total = int(cumulative[-1])
    if total <= chunk_pairs:
        return [slice(0, len(rows))]
    targets = np.arange(chunk_pairs, total, chunk_pairs, dtype=np.int64)
    cuts = np.unique(np.searchsorted(cumulative, targets, side="left") + 1)
    cuts = cuts[cuts < len(rows)]
    bounds = np.concatenate([[0], cuts, [len(rows)]])
    return [slice(int(first), int(last))
            for first, last in zip(bounds[:-1], bounds[1:])]


def _apply_segments(fields_by_spec, outputs, detail_env, rows, lens,
                    big_index):
    """Reduce contiguous selected-row segments into the output arrays.

    ``big_index`` concatenates each matched base row's selected detail
    rows in original relation order, which keeps order-sensitive
    reductions (float sums) bit-identical to the reference.
    """
    seg_starts = np.cumsum(lens) - lens
    for spec, fields in fields_by_spec:
        gathered = (detail_env[spec.column][big_index]
                    if spec.column is not None else None)
        if fields is not None:
            for field in fields:
                if field.primitive == "count":
                    outputs[field.name][rows] = lens
                else:
                    outputs[field.name][rows] = primitive_reduce_segments(
                        field.primitive, gathered, seg_starts)
        else:
            output = outputs[f"{spec.alias}__holistic"]
            bounds = np.append(seg_starts, len(big_index))
            for position, row in enumerate(rows):
                segment = (gathered[bounds[position]:bounds[position + 1]]
                           if gathered is not None else None)
                output[row] = spec.function.compute(
                    segment, int(lens[position]))


# ---------------------------------------------------------------------------
# Vectorized base-row → detail-group matching
# ---------------------------------------------------------------------------

def match_codes(base: Relation, base_key: Sequence[str], detail: Relation,
                detail_key: Sequence[str],
                ) -> tuple[np.ndarray, np.ndarray, int]:
    """Joint dense coding of detail groups and base lookups.

    Returns ``(base_codes, detail_codes, num_groups)`` where
    ``detail_codes[j]`` is the dense group id of detail row ``j`` and
    ``base_codes[i]`` is the group id matching base row ``i`` on the key
    columns, or ``-1`` when no detail row matches.
    """
    return match_codes_arrays(
        [base.column(name) for name in base_key],
        [detail.column(name) for name in detail_key],
        base.num_rows, detail.num_rows)


def match_codes_arrays(base_arrays: Sequence[np.ndarray],
                       detail_arrays: Sequence[np.ndarray],
                       num_base: int, num_detail: int,
                       ) -> tuple[np.ndarray, np.ndarray, int]:
    """:func:`match_codes` over pre-extracted key column arrays.

    The detail side's cached :func:`group_index` supplies the group
    codes; base keys are located in the per-column sorted unique tables
    and coded through the same index, so repeated rounds against a
    long-lived detail fragment pay only the (small) base-side lookup.
    """
    if num_detail == 0 or num_base == 0:
        return (np.full(num_base, -1, dtype=np.int64),
                np.empty(0, dtype=np.int64), 0)

    promotions = [pair_promotion(base_col, detail_col)
                  for base_col, detail_col in zip(base_arrays, detail_arrays)]
    index = group_index(detail_arrays, promotions)
    rows = projected_rows(base_arrays, detail_arrays)
    if rows is not None:
        # The base is a distinct projection of this very detail relation:
        # base row i *is* detail row rows[i], so it sits in that row's
        # group — no key value has to be searched back.
        return index.codes[rows], index.codes, index.num_groups

    valid = np.ones(num_base, dtype=bool)
    positions = []
    for base_col, detail_col, promotion in zip(base_arrays, detail_arrays,
                                               promotions):
        uniques, __ = factorize(detail_col, promotion)
        located, hit = lookup_codes(
            uniques, convert(base_col, promotion), promotion)
        valid &= hit
        positions.append(located)
    base_codes = np.where(valid, index.locate(positions), -1)
    return base_codes, index.codes, index.num_groups
