"""Distributed evaluation plans.

A plan is the engine's executable form of a GMDJ expression: an ordered
list of :class:`LocalStep` segments.  Each step is one
*local-processing-then-synchronization* round (the paper's terminology):
the sites evaluate the step's GMDJs against their fragment and ship
sub-aggregates; the coordinator synchronizes them into the base-result
structure.

Optimizations shape the plan:

* **coalescing** fuses GMDJs *inside* one :class:`~repro.core.gmdj.Gmdj`
  (fewer rounds and fewer passes over the detail data);
* **synchronization reduction** (Thm. 5 / Cor. 1) packs *several* GMDJs
  into one step — they run locally back-to-back with no synchronization
  in between; Proposition 2 additionally lets the first step compute the
  base-values relation locally (``include_base``) instead of spending a
  dedicated base round;
* **group reductions** do not change the step structure — they shrink
  what each round ships (recorded in :class:`OptimizationFlags` and, for
  the distribution-aware variant, per-site filter expressions).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import PlanError
from repro.relational.expressions import Expr
from repro.core.expression_tree import GmdjExpression
from repro.core.gmdj import Gmdj
from repro.distributed.messages import SiteId


@dataclass(frozen=True)
class OptimizationFlags:
    """Which Skalla optimizations a plan may use.

    ``group_reduction_aware`` requires distribution knowledge
    (a :class:`~repro.distributed.partition.DistributionInfo`); the other
    three are always applicable (their side conditions permitting).
    """

    coalesce: bool = False
    group_reduction_independent: bool = False
    group_reduction_aware: bool = False
    sync_reduction: bool = False

    @staticmethod
    def all() -> "OptimizationFlags":
        return OptimizationFlags(True, True, True, True)

    @staticmethod
    def none() -> "OptimizationFlags":
        return OptimizationFlags()

    def describe(self) -> str:
        enabled = [name for name, on in (
            ("coalesce", self.coalesce),
            ("group-reduction/independent", self.group_reduction_independent),
            ("group-reduction/aware", self.group_reduction_aware),
            ("sync-reduction", self.sync_reduction)) if on]
        return ", ".join(enabled) if enabled else "(none)"


ALL_OPTIMIZATIONS = OptimizationFlags.all()
NO_OPTIMIZATIONS = OptimizationFlags.none()


@dataclass(frozen=True)
class LocalStep:
    """One synchronization round: GMDJs the sites evaluate back-to-back.

    ``include_base`` marks a Proposition-2 step: the sites compute the
    base-values relation from their own fragment instead of receiving the
    synchronized base structure from the coordinator.
    """

    gmdjs: tuple[Gmdj, ...]
    include_base: bool = False

    def __post_init__(self):
        if not self.gmdjs:
            raise PlanError("a local step needs at least one GMDJ")

    @property
    def num_gmdjs(self) -> int:
        return len(self.gmdjs)


@dataclass
class DistributedPlan:
    """Executable plan: expression (post-rewrites) + step structure.

    ``site_filters[step_index][site]`` is the distribution-aware group
    filter ``¬ψ_i`` (an expression over base attributes) applied by the
    coordinator before shipping the base structure to that site; absent
    entries mean "ship everything".

    ``union_on`` names a partition attribute (Definition 2) among the
    key attributes, when the planner proved one for its site set: no two
    sites then hold the same key, so the coordinator may synchronize
    what the sites compute from their own fragments by concatenation
    instead of matching keys.  ``None`` keeps the keyed synchronization,
    which is always sound.

    ``epoch`` is the knowledge epoch the plan's partition attributes
    were read at (``None``: a plan assembled by hand); the engine
    re-plans a plan whose epoch a withdrawal has passed.
    """

    expression: GmdjExpression
    steps: tuple[LocalStep, ...]
    flags: OptimizationFlags
    site_filters: dict[int, dict[SiteId, Expr]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    union_on: str | None = None
    epoch: int | None = None

    def __post_init__(self):
        planned = sum(step.num_gmdjs for step in self.steps)
        if planned != self.expression.num_rounds:
            raise PlanError(
                f"plan covers {planned} GMDJs but the expression has "
                f"{self.expression.num_rounds}")
        if any(step.include_base for step in self.steps[1:]):
            raise PlanError("only the first step may include the base query")

    @property
    def num_synchronizations(self) -> int:
        """Synchronization rounds this plan performs.

        One per step, plus one for the base-values relation when the
        first step does not fold the base query in.
        """
        base_rounds = 0 if self.steps[0].include_base else 1
        return base_rounds + len(self.steps)

    def explain(self) -> str:
        """A human-readable account of the plan."""
        lines = [f"optimizations: {self.flags.describe()}",
                 f"synchronizations: {self.num_synchronizations}"]
        if not self.steps[0].include_base:
            lines.append(
                f"round 0: sites compute B0 = {self.expression.base.describe()}"
                f" and ship it; coordinator synchronizes")
        for index, step in enumerate(self.steps):
            prefix = f"step {index + 1}: "
            if step.include_base:
                prefix += "sites compute B0 locally (Prop. 2), then "
            names = "; then ".join(gmdj.describe() for gmdj in step.gmdjs)
            filters = self.site_filters.get(index)
            suffix = ""
            if filters:
                suffix = f" [aware group filters on {len(filters)} sites]"
            lines.append(prefix + names +
                         "; ship sub-aggregates; coordinator synchronizes"
                         + suffix)
        lines.extend(f"note: {note}" for note in self.notes)
        return "\n".join(lines)


def unoptimized_plan(expression: GmdjExpression) -> DistributedPlan:
    """The baseline Alg. GMDJDistribEval plan: one step per GMDJ round,
    a dedicated base round, nothing reduced."""
    steps = tuple(LocalStep((gmdj,)) for gmdj in expression.rounds)
    return DistributedPlan(expression, steps, NO_OPTIMIZATIONS)
