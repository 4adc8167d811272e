"""Synchronization reduction: removing whole rounds (Sect. 4.3).

Two guarded rewrites:

* **Proposition 2** — when the base-values relation is computed *from
  the detail relation itself* and every condition of the first GMDJ
  round entails equality on the key attributes (``θ_j ⊨ θ_K``), the
  base-synchronization round can be dropped: each site computes its own
  ``B_i`` and evaluates the first round on it directly; the coordinator
  reconstructs the base as ``π_B(H)`` during the (single) remaining
  synchronization.

* **Corollary 1** (via Theorem 5) — when every condition of two adjacent
  GMDJ rounds entails equality between base and detail on one common
  **partition attribute**, the intermediate synchronization between them
  can be dropped: each base tuple's aggregates are only ever updated at
  its home site, so the sites chain the rounds locally and synchronize
  once at the end.

Both guards are *syntactic entailment* checks
(:mod:`repro.relational.conditions`): sound, conservative, and exactly
the analysis the paper sketches ("a simple analysis of φ_i and θ").
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.relational.conditions import (
    entails_equality_on, entails_partition_equality)
from repro.core.expression_tree import GmdjExpression
from repro.core.gmdj import Gmdj


def step_entails_key_equality(gmdjs: Sequence[Gmdj],
                              key: Sequence[str]) -> bool:
    """Proposition 2 guard: every θ of every GMDJ entails θ_K."""
    for gmdj in gmdjs:
        for condition in gmdj.conditions:
            if entails_equality_on(condition, key) is None:
                return False
    return True


def common_partition_attrs(gmdjs: Sequence[Gmdj],
                           partition_attrs: Sequence[str]) -> set[str]:
    """Partition attributes on which *every* condition of *every* GMDJ
    entails base/detail equality (the Corollary 1 guard)."""
    remaining = set(partition_attrs)
    for gmdj in gmdjs:
        for condition in gmdj.conditions:
            matched = {attr for attr in remaining
                       if entails_partition_equality(condition, [attr])}
            remaining &= matched
            if not remaining:
                return set()
    return remaining


def can_merge_rounds(first: Gmdj, second: Gmdj,
                     partition_attrs: Sequence[str]) -> bool:
    """Whether the synchronization between two rounds can be skipped."""
    return bool(common_partition_attrs([first, second], partition_attrs))


def group_rounds_into_steps(expression: GmdjExpression,
                            partition_attrs: Iterable[str],
                            ) -> list[list[Gmdj]]:
    """Greedily pack adjacent rounds into steps under Corollary 1.

    A step accumulates rounds while one *single* partition attribute is
    common to every condition of every round in the step — the sound
    (conservative) generalization of the pairwise corollary to longer
    chains.  ``partition_attrs`` are the Definition 2 attributes of the
    participating sites
    (:meth:`~repro.distributed.partition.DistributionInfo.partition_attributes`);
    with none, every round is its own step.
    """
    partition_attrs = sorted(partition_attrs)
    if not partition_attrs:
        return [[gmdj] for gmdj in expression.rounds]

    steps: list[list[Gmdj]] = []
    for gmdj in expression.rounds:
        if steps:
            candidate = steps[-1] + [gmdj]
            if common_partition_attrs(candidate, partition_attrs):
                steps[-1] = candidate
                continue
        steps.append([gmdj])
    return steps


def base_round_removable(expression: GmdjExpression,
                         first_step: Sequence[Gmdj]) -> bool:
    """Proposition 2 guard for folding the base query into the first step.

    Requires (i) the base to be computed from the detail relation (so
    ``B = ⊔_i B_i`` holds under any partitioning), and (ii) every
    condition of the first step to entail key equality, so a site's
    contributions always target groups present in its local ``B_i``.
    """
    if not expression.base.computed_from_detail:
        return False
    return step_entails_key_equality(first_step, expression.key)
