"""Link-aware aggregation trees (the paper's Sect. 6 future work).

Two pieces, layered:

* :mod:`repro.topology.model` — a WAN as a weighted site graph
  (per-link latency/bandwidth, regions) plus the clustered generators
  the benchmarks sweep;
* :mod:`repro.topology.builder` — SLP-style setup/connect/route tree
  construction: greedy fanout-bounded attach on link cost, so cheap
  links sit deep and the root's slots go to the cheapest uplinks.

Both produce *data*: ``price(result.log, build_cost_tree(wan, fanout),
link, wan=wan)`` (:mod:`repro.distributed.pricing`) is the modeled cost
of a flat run as if its rounds had merged up that tree — there is no
tree engine.  See docs/TOPOLOGY.md.
"""

from repro.topology.builder import (
    TreeBuild, build_cost_tree, describe_tree, plan_cost_tree,
    tree_summary)
from repro.topology.model import (
    REFERENCE_BYTES, WanLink, WanTopology, clustered_wan)

__all__ = [
    "REFERENCE_BYTES",
    "TreeBuild",
    "WanLink",
    "WanTopology",
    "build_cost_tree",
    "clustered_wan",
    "describe_tree",
    "plan_cost_tree",
    "tree_summary",
]
