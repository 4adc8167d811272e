"""The high-level facade: one object from SQL text to results.

:class:`Warehouse` wires the whole stack together for the common case:

>>> warehouse = Warehouse.from_partitions(partitions, info)
>>> result = warehouse.sql('''
...     SELECT SourceAS, COUNT(*) AS n, AVG(NumBytes) AS m
...     FROM Flow GROUP BY SourceAS
...     HAVING n > 100 ORDER BY m DESC LIMIT 10''')
>>> print(result.relation.pretty())
>>> print(result.report())          # plan + measured execution

Under the hood each ``sql()`` call parses and compiles the statement
(Egil), picks optimization flags with the statistics-driven cost model
(unless given explicitly), executes distributed, and applies the
presentation clauses.  Column statistics are collected lazily per
attribute set and cached — repeated queries over the same grouping
attributes pay for statistics once.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from repro.relational.relation import Relation
from repro.relational.statistics import TableStats, collect_stats
from repro.core.expression_tree import GmdjExpression
from repro.distributed.engine import ExecutionResult, SkallaEngine
from repro.distributed.explain import explain_analyze
from repro.distributed.messages import SiteId
from repro.distributed.metrics import QueryMetrics
from repro.distributed.partition import DistributionInfo
from repro.distributed.plan import DistributedPlan, OptimizationFlags
from repro.optimizer.cost import choose_flags
from repro.optimizer.planner import build_plan
from repro.sql.compiler import CompiledQuery, compile_query


@dataclass
class QueryResult:
    """What one ``Warehouse.sql()`` call produced."""

    relation: Relation
    metrics: QueryMetrics
    plan: DistributedPlan
    flags: OptimizationFlags
    compiled: CompiledQuery

    def report(self) -> str:
        """Plan + measured execution, human-readable."""
        return explain_analyze(
            ExecutionResult(self.relation, self.metrics, self.plan))


class Warehouse:
    """A distributed data warehouse with a SQL front door.

    Parameters
    ----------
    engine:
        The underlying Skalla engine.
    auto_optimize:
        When true (default), ``sql()``/``execute()`` pick optimization
        flags with the cost model; when false they run unoptimized
        unless flags are passed explicitly.
    """

    def __init__(self, engine: SkallaEngine, auto_optimize: bool = True):
        self.engine = engine
        self.auto_optimize = auto_optimize
        #: attribute set → (engine ``data_version``, statistics)
        self._stats_cache: dict[tuple[str, ...],
                                tuple[int, TableStats]] = {}

    # -- constructors -----------------------------------------------------------

    @classmethod
    def from_partitions(cls, partitions: Mapping[SiteId, Relation],
                        info: DistributionInfo | None = None,
                        auto_optimize: bool = True,
                        **engine_kwargs) -> "Warehouse":
        """Build from per-site fragments (see :class:`SkallaEngine`)."""
        return cls(SkallaEngine(partitions, info, **engine_kwargs),
                   auto_optimize=auto_optimize)

    @classmethod
    def load(cls, directory: str | Path,
             auto_optimize: bool = True) -> "Warehouse":
        """Open a warehouse saved with :meth:`save`."""
        from repro.distributed.storage import load_warehouse
        return cls(load_warehouse(directory), auto_optimize=auto_optimize)

    def save(self, directory: str | Path) -> Path:
        """Persist fragments + distribution knowledge to ``directory``."""
        from repro.distributed.storage import save_warehouse
        return save_warehouse(self.engine, directory)

    # -- statistics ---------------------------------------------------------------

    def stats(self, attrs: Sequence[str]) -> TableStats:
        """Statistics of the union of the site fragments for ``attrs``.

        Cached per attribute set until the next append.
        """
        key = tuple(sorted(attrs))
        version = self.engine.data_version
        cached = self._stats_cache.get(key)
        if cached is None or cached[0] != version:
            fragments = [self.engine.fragment(site)
                         for site in self.engine.site_ids]
            cached = (version, collect_stats(fragments, attrs=key))
            self._stats_cache[key] = cached
        return cached[1]

    def pick_flags(self, expression: GmdjExpression) -> OptimizationFlags:
        """Cost-model flag choice for ``expression``."""
        stats = self.stats(expression.key)
        flags, __ = choose_flags(
            expression, stats, len(self.engine.site_ids),
            self.engine.detail_schema, info=self.engine.knowledge,
            link=self.engine.link, sites=self.engine.site_ids)
        return flags

    # -- querying --------------------------------------------------------------------

    def sql(self, text: str,
            flags: OptimizationFlags | None = None) -> QueryResult:
        """Compile, optimize, execute, and post-process one statement.

        ``GROUP BY CUBE`` statements are dispatched to the cube
        lattice: only its maximal groupings run distributed rounds, the
        coarser cuboids (and the grand total) roll up from their states
        coordinator-side, and the results are stitched into one
        ALL-marked relation; the returned metrics aggregate all runs.
        """
        from repro.sql.parser import parse
        statement = parse(text)
        if statement.cube_family:
            return self._run_cube(statement, flags)
        compiled = compile_query(text, self.engine.detail_schema)
        return self.execute(compiled, flags=flags)

    def _run_cube(self, statement,
                  flags: OptimizationFlags | None) -> QueryResult:
        """Run a cube-family statement over the cuboid lattice.

        Only the lattice's maximal groupings run distributed rounds;
        coarser cuboids are derived coordinator-side by Theorem-1
        rollup of the captured states (see :mod:`repro.cube`).
        """
        from repro.cube import compile_lattice, execute_lattice
        plan = compile_lattice(statement, self.engine.detail_schema)
        finest = plan.finest_expression
        if flags is None:
            flags = (self.pick_flags(finest) if self.auto_optimize
                     else OptimizationFlags())
        execution = execute_lattice(self.engine, plan, flags)
        return QueryResult(relation=execution.relation,
                           metrics=execution.metrics,
                           plan=execution.runs[0].plan, flags=flags,
                           compiled=CompiledQuery(finest))

    def execute(self, query: CompiledQuery | GmdjExpression,
                flags: OptimizationFlags | None = None) -> QueryResult:
        """Run a compiled query or bare expression."""
        if isinstance(query, GmdjExpression):
            compiled = CompiledQuery(query)
        else:
            compiled = query
        expression = compiled.expression
        if flags is None:
            flags = (self.pick_flags(expression) if self.auto_optimize
                     else OptimizationFlags())
        result = self.engine.execute(expression, flags)
        final = compiled.post_process(result.relation)
        return QueryResult(relation=final, metrics=result.metrics,
                           plan=result.plan, flags=flags,
                           compiled=compiled)

    def explain(self, text: str,
                flags: OptimizationFlags | None = None) -> str:
        """The distributed plan for a statement, without executing it."""
        compiled = compile_query(text, self.engine.detail_schema)
        if flags is None:
            flags = (self.pick_flags(compiled.expression)
                     if self.auto_optimize else OptimizationFlags())
        plan = build_plan(compiled.expression, flags, self.engine.knowledge,
                          self.engine.detail_schema,
                          sites=self.engine.site_ids)
        return plan.explain()

    # -- introspection -------------------------------------------------------------

    def describe(self) -> str:
        """A short summary of the warehouse's layout."""
        engine = self.engine
        lines = [f"{len(engine.site_ids)} sites, "
                 f"{sum(engine.fragment(s).num_rows for s in engine.site_ids):,} rows"]
        lines.append("schema: " + ", ".join(engine.detail_schema.names))
        # declared plus those observed so far; a report observes nothing new
        knowledge = engine.knowledge
        attrs = sorted(knowledge.partition_attributes(engine.site_ids, filter(
            knowledge.observed, engine.detail_schema.names)))
        lines.append(f"partition attributes: {attrs or '(none)'}")
        return "\n".join(lines)
