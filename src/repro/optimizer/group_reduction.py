"""Group reduction: shipping fewer groups (Sect. 4.1 and 4.2).

Two independent mechanisms:

* **Distribution-aware** (Theorem 4, coordinator side): using the site
  predicates φ_i, the coordinator filters the base-result structure with
  the derived ``¬ψ_i`` before shipping it to site ``i``.  Needs
  :class:`~repro.distributed.partition.DistributionInfo`; implemented by
  :func:`site_group_filters`, which the planner attaches to the plan and
  the engine applies before each ship-down.

* **Distribution-independent** (Proposition 1, site side): a site ships
  back only those tuples whose range under ``θ_1 ∨ … ∨ θ_m`` is
  non-empty.  The evaluator produces that flag for free (an extra
  ``|RNG| > 0`` test per base tuple — the paper's extra ``COUNT(*)``);
  the flag lives in :class:`~repro.distributed.plan.OptimizationFlags`
  and is applied inside :meth:`SkallaSite.execute_step`.

This module also provides :func:`expected_group_ratio` — the paper's
Fig. 2 closed-form traffic ratio — so benchmarks can check measured
traffic against the analytical model (the paper reports agreement
within 5 %).
"""

from __future__ import annotations

from typing import Sequence

from repro.relational.expressions import Expr, Literal
from repro.distributed.messages import SiteId
from repro.distributed.partition import DistributionInfo
from repro.optimizer.analysis import derive_site_filter


def site_group_filters(thetas: Sequence[Expr],
                       info: DistributionInfo,
                       sites: Sequence[SiteId],
                       ) -> dict[SiteId, Expr]:
    """Per-site ¬ψ_i filters for one round's conditions.

    Sites for which no restriction can be derived are absent from the
    result (the engine ships the full structure to them).  A site whose
    filter is ``Literal(False)`` receives an empty structure — it cannot
    contribute to any group of this round.  Only declared constraints
    derive filters.
    """
    filters: dict[SiteId, Expr] = {}
    for site in sites:
        constraints = info.constraints.get(site)
        if not constraints:
            continue
        condition = derive_site_filter(thetas, constraints)
        if condition is not None and not _is_trivially_true(condition):
            filters[site] = condition
    return filters


def _is_trivially_true(expr: Expr) -> bool:
    return isinstance(expr, Literal) and expr.value is True


def expected_group_ratio(num_sites: int, sites_per_group: float) -> float:
    """The paper's Fig. 2 analysis: group traffic with site-side group
    reduction over traffic without, for a two-GMDJ query.

    ``(2c + 2n + 1) / (4n + 1)`` with ``n`` sites, where ``c`` is the
    expected number of sites whose local aggregates for a given group get
    updated per grouping variable (equivalently, ``n`` times the fraction
    of a site's received group aggregates that it updates).  When the
    grouping attribute is a partition attribute, every group lives at
    exactly one site, so ``c = 1``.
    """
    if num_sites <= 0:
        raise ValueError("num_sites must be positive")
    if not 0.0 <= sites_per_group <= num_sites:
        raise ValueError("sites_per_group must be within [0, num_sites]")
    return ((2 * sites_per_group + 2 * num_sites + 1)
            / (4 * num_sites + 1))


def unreduced_group_volume(num_sites: int, groups_per_site: int,
                           num_gmdj_rounds: int = 2) -> int:
    """Groups transferred by the unoptimized plan (Fig. 2 analysis).

    ``ng`` up in the base round, then per GMDJ round ``n²g`` down and
    ``n²g`` back up — ``ng(4n + 1)`` for the two-round query.
    """
    n, g = num_sites, groups_per_site
    return n * g + num_gmdj_rounds * 2 * n * n * g


def reduced_group_volume(num_sites: int, groups_per_site: int,
                         sites_per_group: float,
                         num_gmdj_rounds: int = 2) -> float:
    """Groups transferred with site-side (independent) group reduction:
    the down direction stays ``n²g`` per round but each round's return
    shrinks to ``c·ng`` — ``ng(2c + 2n + 1)`` for the two-round query."""
    n, g, c = num_sites, groups_per_site, sites_per_group
    return n * g + num_gmdj_rounds * (n * n * g + c * n * g)
