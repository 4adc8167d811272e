"""Cost-driven aggregation-tree construction over a WAN graph.

Replaces the cost-blind :meth:`TreeTopology.balanced` shape with a tree
*chosen from link costs*, following the three phases of the SLP
spanning-tree protocol (setup / connect / route):

1. **setup** — a Dijkstra sweep from the coordinator computes every
   site's cheapest-path distance to the root.  This both validates
   reachability (an unreachable site is a :class:`PlanError`, not a
   mid-round surprise) and provides the tie-break that keeps the tree
   shallow where the graph allows it.
2. **connect** — a Prim-style greedy attach: starting from the
   coordinator, repeatedly attach the unattached site with the cheapest
   link into the already-attached set, subject to a per-node *fanout*
   bound (the coordinator and every attached site offer at most
   ``fanout`` child slots).  Greedy-by-cost naturally places cheap
   links deep in the tree and reserves the root's scarce slots for the
   cheapest uplinks — expensive long-hauls are used only when nothing
   else reaches the root.
3. **route** — the parent map is folded into a
   :class:`~repro.distributed.hierarchy.TreeTopology`: a site whose
   children are empty becomes a leaf; a site with children becomes an
   interior aggregator *hosted on that site* (``TreeNode.host``), so an
   interior node merges its own sub-aggregate with its children's
   before forwarding one merged relation upward.

An interior node hosted on site ``s`` therefore receives at most
``fanout`` child payloads and contributes one of its own — merge
fan-in is bounded by ``fanout + 1`` everywhere.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Mapping

from repro.errors import PlanError
from repro.distributed.hierarchy import (
    TreeNode, TreeTopology, tree_summary)
from repro.distributed.messages import COORDINATOR, SiteId
from repro.topology.model import WanTopology


@dataclass(frozen=True)
class TreeBuild:
    """The connect phase's full outcome (topology + provenance)."""

    topology: TreeTopology
    #: site -> parent node (another site, or COORDINATOR for root children)
    parent: Mapping[SiteId, SiteId]
    #: site -> cost of the link it attached through
    attach_cost: Mapping[SiteId, float]
    #: site -> cheapest-path distance to the coordinator (setup phase)
    root_distance: Mapping[SiteId, float]

    @property
    def total_attach_cost(self) -> float:
        return sum(self.attach_cost.values())


def plan_cost_tree(wan: WanTopology, fanout: int) -> TreeBuild:
    """Run setup/connect/route and return the full build."""
    if fanout < 1:
        raise PlanError("tree fanout must be at least 1")
    root_distance = _setup_distances(wan)
    parent, attach_cost = _connect(wan, fanout, root_distance)
    topology = _route(wan, parent)
    return TreeBuild(topology=topology, parent=parent,
                     attach_cost=attach_cost, root_distance=root_distance)


def build_cost_tree(wan: WanTopology, fanout: int) -> TreeTopology:
    """The link-aware aggregation tree for ``wan`` (topology only)."""
    return plan_cost_tree(wan, fanout).topology


# ---------------------------------------------------------------------------
# setup phase: cheapest-path distances (and reachability)
# ---------------------------------------------------------------------------

def _setup_distances(wan: WanTopology) -> dict[SiteId, float]:
    distances: dict[SiteId, float] = {COORDINATOR: 0.0}
    heap: list[tuple[float, SiteId]] = [(0.0, COORDINATOR)]
    while heap:
        distance, node = heapq.heappop(heap)
        if distance > distances.get(node, float("inf")):
            continue
        for neighbor, link in wan.neighbors(node):
            candidate = distance + link.cost()
            if candidate < distances.get(neighbor, float("inf")):
                distances[neighbor] = candidate
                heapq.heappush(heap, (candidate, neighbor))
    # WanTopology already validates connectivity; keep the guard for
    # callers that construct graphs another way.
    missing = [site for site in wan.sites if site not in distances]
    if missing:  # pragma: no cover - WanTopology rejects this earlier
        raise PlanError(
            f"sites {sorted(missing)} are unreachable from the "
            f"coordinator over the WAN links")
    return distances


# ---------------------------------------------------------------------------
# connect phase: fanout-bounded greedy attach (Prim on link cost)
# ---------------------------------------------------------------------------

def _connect(wan: WanTopology, fanout: int,
             root_distance: Mapping[SiteId, float],
             ) -> tuple[dict[SiteId, SiteId], dict[SiteId, float]]:
    parent: dict[SiteId, SiteId] = {}
    attach_cost: dict[SiteId, float] = {}
    capacity: dict[SiteId, int] = {COORDINATOR: fanout}
    #: (link cost, candidate's root distance, site, parent) — the root
    #: distance breaks cost ties toward sites nearer the coordinator,
    #: keeping the tree shallow when the graph offers a choice.
    heap: list[tuple[float, float, SiteId, SiteId]] = []

    def offer(from_node: SiteId) -> None:
        for neighbor, link in wan.neighbors(from_node):
            if neighbor == COORDINATOR or neighbor in parent:
                continue
            heapq.heappush(heap, (link.cost(),
                                  root_distance.get(neighbor, 0.0),
                                  neighbor, from_node))

    offer(COORDINATOR)
    unattached = set(wan.sites)
    while unattached:
        if not heap:
            raise PlanError(
                f"cannot attach sites {sorted(unattached)} within "
                f"fanout {fanout}: every candidate parent is full "
                f"(or no link reaches them)")
        cost, _, site, candidate_parent = heapq.heappop(heap)
        if site in parent:
            continue  # already attached through a cheaper edge
        if capacity.get(candidate_parent, 0) <= 0:
            continue  # that parent's child slots filled meanwhile
        parent[site] = candidate_parent
        attach_cost[site] = cost
        capacity[candidate_parent] -= 1
        capacity[site] = fanout
        unattached.discard(site)
        offer(site)
    return parent, attach_cost


# ---------------------------------------------------------------------------
# route phase: fold the parent map into a TreeTopology
# ---------------------------------------------------------------------------

def _route(wan: WanTopology,
           parent: Mapping[SiteId, SiteId]) -> TreeTopology:
    children: dict[SiteId, list[SiteId]] = {COORDINATOR: []}
    for site in wan.sites:
        children.setdefault(site, [])
        children.setdefault(parent[site], []).append(site)

    def build(site: SiteId) -> "SiteId | TreeNode":
        offspring = sorted(children.get(site, []))
        if not offspring:
            return site
        built = [build(child) for child in offspring]
        site_children = tuple(c for c in built if not isinstance(c, TreeNode))
        node_children = tuple(c for c in built if isinstance(c, TreeNode))
        return TreeNode(f"agg@{site}", (site, *site_children),
                        node_children, host=site)

    top = [build(site) for site in sorted(children[COORDINATOR])]
    site_children = tuple(c for c in top if not isinstance(c, TreeNode))
    node_children = tuple(c for c in top if isinstance(c, TreeNode))
    return TreeTopology(TreeNode("root", site_children, node_children))


# ---------------------------------------------------------------------------
# introspection
# ---------------------------------------------------------------------------

def describe_tree(topology: TreeTopology,
                  max_lines: int = 40) -> str:
    """A multi-line rendering of the tree for explain/CLI output."""
    lines: list[str] = [tree_summary(topology)]

    def render(node: TreeNode, indent: int) -> None:
        if len(lines) >= max_lines:
            return
        pad = "  " * indent
        own = f" host=site {node.host}" if node.host is not None else ""
        sites = ",".join(str(s) for s in node.site_children[:12])
        if len(node.site_children) > 12:
            sites += f",... ({len(node.site_children)} sites)"
        label = f"{pad}{node.node_id}{own}"
        if sites:
            label += f" <- sites [{sites}]"
        lines.append(label)
        for child in node.node_children:
            render(child, indent + 1)

    render(topology.root, 0)
    if len(lines) >= max_lines:
        lines.append("  ... (truncated)")
    return "\n".join(lines)


__all__ = ["TreeBuild", "build_cost_tree", "describe_tree",
           "plan_cost_tree", "tree_summary"]
