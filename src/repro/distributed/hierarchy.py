"""Aggregation-tree topologies: where a round's associative merge happens.

Section 6 names "a multi-tiered coordinator architecture or spanning-
tree networks" as the natural next step: with many sites, the flat
star's coordinator link serializes ``n`` transfers per round, so both
traffic *through the root* and response time grow with ``n`` even for
fully optimized queries.  A tree of intermediate **aggregator** nodes
fixes that: each aggregator merges its children's sub-aggregates
(Theorem 1 applies unchanged — multiset union is associative, so
partial synchronization at any interior node is sound) and forwards one
merged sub-result upward.  The root then receives ``fanout`` messages
per round instead of ``n``, at the price of one extra hop of latency
per level.

A topology is **data** for :func:`~repro.distributed.pricing.price`,
which walks it over a flat run's round log — the engine always
executes the star, :meth:`TreeTopology.flat`.  This module holds the
data types only:
:class:`TreeNode`, :class:`TreeTopology` with its
:meth:`~TreeTopology.balanced` / :meth:`~TreeTopology.flat`
constructors, and :func:`tree_summary`.  Cost-driven trees are built
from a WAN graph by :func:`repro.topology.build_cost_tree`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from repro.errors import PlanError
from repro.distributed.messages import SiteId

#: Pseudo-address of interior aggregator nodes in message logs.
AGGREGATOR: SiteId = -2


@dataclass(frozen=True)
class TreeNode:
    """One aggregator node: its children are sites and/or other nodes.

    ``host`` optionally names the *site* that plays this aggregator
    (the cost-driven builder places interior merges on real sites so
    link costs are meaningful); ``None`` means a dedicated node — the
    root is always hosted by the coordinator itself.
    """

    node_id: str
    site_children: tuple[SiteId, ...] = ()
    node_children: tuple["TreeNode", ...] = ()
    host: SiteId | None = None

    def __post_init__(self):
        if not self.site_children and not self.node_children:
            raise PlanError(f"tree node {self.node_id!r} has no children")

    def descendant_sites(self) -> list[SiteId]:
        sites = list(self.site_children)
        for child in self.node_children:
            sites.extend(child.descendant_sites())
        return sites

    def depth(self) -> int:
        if not self.node_children:
            return 1
        return 1 + max(child.depth() for child in self.node_children)


@dataclass(frozen=True)
class TreeTopology:
    """An aggregation tree; the root plays the coordinator.

    Construction validates the shape eagerly — a malformed tree raises
    :class:`~repro.errors.PlanError` here instead of failing mid-round:
    a site that appears more than once would be double-counted by every
    merge (Theorem 1 needs a *partition*), so duplicates are rejected.
    """

    root: TreeNode

    def __post_init__(self):
        sites = self.root.descendant_sites()
        if len(sites) != len(set(sites)):
            counts = Counter(sites)
            dupes = sorted(s for s, n in counts.items() if n > 1)
            raise PlanError(
                f"site(s) {dupes} appear more than once in the topology")

    @staticmethod
    def balanced(sites: Sequence[SiteId], fanout: int) -> "TreeTopology":
        """A balanced tree with at most ``fanout`` children per node."""
        if fanout < 2:
            raise PlanError("tree fanout must be at least 2")
        if not sites:
            raise PlanError("a topology needs at least one site")
        level: list[object] = list(sites)
        counter = 0
        while len(level) > fanout:
            next_level: list[object] = []
            for start in range(0, len(level), fanout):
                chunk = level[start:start + fanout]
                site_children = tuple(c for c in chunk
                                      if not isinstance(c, TreeNode))
                node_children = tuple(c for c in chunk
                                      if isinstance(c, TreeNode))
                next_level.append(TreeNode(f"agg{counter}", site_children,
                                           node_children))
                counter += 1
            level = next_level
        site_children = tuple(c for c in level
                              if not isinstance(c, TreeNode))
        node_children = tuple(c for c in level if isinstance(c, TreeNode))
        return TreeTopology(TreeNode("root", site_children, node_children))

    @staticmethod
    def flat(sites: Sequence[SiteId]) -> "TreeTopology":
        """The degenerate one-level tree (equivalent to the star)."""
        return TreeTopology(TreeNode("root", tuple(sites), ()))

    def sites(self) -> list[SiteId]:
        return self.root.descendant_sites()

    def depth(self) -> int:
        return self.root.depth()

    def validate_sites(self, known: Sequence[SiteId]) -> None:
        """Check the tree covers exactly the warehouse's sites.

        A tree that references unknown sites would fail mid-round; a
        tree that *misses* sites would silently aggregate over a subset
        — both are plan errors the caller wants eagerly.
        """
        tree_sites = set(self.sites())
        known_set = set(known)
        unknown = tree_sites - known_set
        if unknown:
            raise PlanError(
                f"topology references unknown sites {sorted(unknown)}")
        orphaned = known_set - tree_sites
        if orphaned:
            raise PlanError(
                f"sites {sorted(orphaned)} are unreachable from the "
                f"topology root (every site needs a place in the tree)")


def tree_summary(topology: TreeTopology) -> str:
    """Compact one-line shape, e.g. ``depth=3 interior=9 sites=64``."""
    interior = 0
    max_children = 0
    stack = [topology.root]
    while stack:
        node = stack.pop()
        if node is not topology.root:
            interior += 1
        max_children = max(max_children,
                           len(node.site_children) + len(node.node_children))
        stack.extend(node.node_children)
    return (f"depth={topology.depth()} interior={interior} "
            f"max_children={max_children} sites={len(topology.sites())}")
