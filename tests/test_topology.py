"""Tests for the link-aware aggregation-tree subsystem.

Covers the two layers of ``repro.topology`` plus the CLI:

* the WAN model — generator determinism, eager graph validation,
  cheapest-parallel-link adjacency;
* the cost-driven builder — fanout bounds, cheap-links-deep placement,
  infeasible-fanout and bad-input :class:`PlanError`\\ s;
* the CLI flags, which execute flat and price the run over the tree.

What a tree costs — ingress, per-level critical paths, aggregator
faults, and the modeled win over the star at 64 sites — is priced from
a flat run's round log: ``tests/test_pricing.py``.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.errors import PlanError
from repro.distributed.messages import COORDINATOR
from repro.topology import (
    WanLink, WanTopology, build_cost_tree, clustered_wan, describe_tree,
    plan_cost_tree, tree_summary)


# ---------------------------------------------------------------------------
# WAN model
# ---------------------------------------------------------------------------

class TestWanModel:
    def test_clustered_wan_deterministic(self):
        first = clustered_wan(32, seed=5)
        second = clustered_wan(32, seed=5)
        assert first.links == second.links
        assert first.regions == second.regions
        assert clustered_wan(32, seed=6).links != first.links

    def test_clustered_wan_shape(self):
        wan = clustered_wan(48)
        assert wan.sites == tuple(range(48))
        assert wan.num_regions == 3
        # every site has a direct (long-haul or better) root link
        for site in wan.sites:
            assert wan.link(COORDINATOR, site) is not None
        assert "48 sites" in wan.describe()

    def test_link_endpoint_validation(self):
        with pytest.raises(PlanError, match="distinct endpoints"):
            WanLink(a=1, b=1)
        with pytest.raises(PlanError, match="bandwidth"):
            WanLink(a=0, b=1, bandwidth=0.0)
        with pytest.raises(PlanError, match="latency"):
            WanLink(a=0, b=1, latency=-0.1)
        link = WanLink(a=0, b=1, latency=0.01, bandwidth=1e6)
        assert link.other(0) == 1 and link.other(1) == 0
        with pytest.raises(PlanError, match="not an endpoint"):
            link.other(7)

    def test_duplicate_sites_rejected(self):
        with pytest.raises(PlanError, match="duplicate"):
            WanTopology(sites=(0, 0),
                        links=(WanLink(a=COORDINATOR, b=0),))

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(PlanError, match="unknown endpoint 9"):
            WanTopology(sites=(0,), links=(WanLink(a=0, b=9),))

    def test_unreachable_site_rejected(self):
        with pytest.raises(PlanError, match=r"\[1\] are unreachable"):
            WanTopology(sites=(0, 1),
                        links=(WanLink(a=COORDINATOR, b=0),))

    def test_cheapest_parallel_link_wins(self):
        cheap = WanLink(a=COORDINATOR, b=0, latency=0.001, bandwidth=1e8)
        pricey = WanLink(a=COORDINATOR, b=0, latency=0.5, bandwidth=1e5)
        wan = WanTopology(sites=(0,), links=(pricey, cheap))
        assert wan.link(COORDINATOR, 0) is cheap
        assert wan.link(0, COORDINATOR) is cheap


# ---------------------------------------------------------------------------
# cost-driven builder
# ---------------------------------------------------------------------------

class TestBuilder:
    def test_fanout_bound_respected(self):
        fanout = 3
        build = plan_cost_tree(clustered_wan(64), fanout)
        root = build.topology.root
        assert (len(root.site_children) + len(root.node_children)
                <= fanout)
        stack = list(root.node_children)
        while stack:
            node = stack.pop()
            # an interior node hosts its own site plus <= fanout children
            assert (len(node.site_children) + len(node.node_children)
                    <= fanout + 1)
            assert node.host in node.site_children
            stack.extend(node.node_children)
        assert sorted(build.topology.sites()) == list(range(64))

    def test_expensive_links_avoided(self):
        """The tree's total attach cost beats flat's all-long-haul bill."""
        wan = clustered_wan(64)
        build = plan_cost_tree(wan, 4)
        flat_cost = sum(wan.link(COORDINATOR, site).cost()
                        for site in wan.sites)
        assert build.total_attach_cost < flat_cost / 2
        # root slots go to direct root links (metro/gateway), never to
        # a link as dear as the dearest long-haul
        worst = max(build.attach_cost.values())
        longhauls = max(wan.link(COORDINATOR, site).cost()
                        for site in wan.sites)
        assert worst < longhauls

    def test_gateways_sit_near_root(self):
        """Each non-metro region attaches through its gateway uplink."""
        wan = clustered_wan(64)  # 4 regions, gateways 16/32/48
        build = plan_cost_tree(wan, 4)
        roots = {site for site, parent in build.parent.items()
                 if parent == COORDINATOR}
        assert {16, 32, 48} <= roots

    def test_fanout_below_one_rejected(self):
        with pytest.raises(PlanError, match="at least 1"):
            plan_cost_tree(clustered_wan(8), 0)

    def test_infeasible_fanout_rejected(self):
        # 4 regions need >= 1 metro + 3 gateway attachments somewhere,
        # but fanout 2 fills every candidate parent first.
        with pytest.raises(PlanError, match="cannot attach sites"):
            plan_cost_tree(clustered_wan(64), 2)

    def test_summary_and_describe(self):
        topology = build_cost_tree(clustered_wan(24), 4)
        summary = tree_summary(topology)
        assert "sites=24" in summary and "depth=" in summary
        rendered = describe_tree(topology)
        assert rendered.splitlines()[0] == summary
        assert "root" in rendered and "host=site" in rendered
        truncated = describe_tree(topology, max_lines=3)
        assert "truncated" in truncated


# ---------------------------------------------------------------------------
# CLI integration
# ---------------------------------------------------------------------------

@pytest.fixture()
def flow_dir(tmp_path):
    path = tmp_path / "fw"
    code = main(["generate", "flows", "--flows", "2000", "--routers", "6",
                 "--source-as", "12", "--out", str(path)])
    assert code == 0
    return path


class TestCli:
    SQL = ("SELECT SourceAS, COUNT(*) AS n, SUM(NumBytes) AS s "
           "FROM Flow GROUP BY SourceAS")

    def test_query_tree_topology(self, flow_dir, capsys):
        assert main(["query", str(flow_dir), self.SQL,
                     "--topology", "tree", "--fanout", "2"]) == 0
        out = capsys.readouterr().out
        assert "tree: depth=" in out
        assert "root ingress" in out

    def test_query_tree_matches_flat(self, flow_dir, capsys):
        assert main(["query", str(flow_dir), self.SQL]) == 0
        flat_out = capsys.readouterr().out
        assert main(["query", str(flow_dir), self.SQL,
                     "--topology", "tree", "--fanout", "2"]) == 0
        tree_out = capsys.readouterr().out
        # identical result tables (everything up to the blank line
        # before the metrics footer)
        table = flat_out.split("\n\n")[0]
        assert table in tree_out

    def test_query_tree_explain(self, flow_dir, capsys):
        assert main(["query", str(flow_dir), self.SQL, "--explain",
                     "--topology", "tree", "--fanout", "2"]) == 0
        out = capsys.readouterr().out
        assert "aggregation tree:" in out
        assert "flat would pay" in out

    def test_explain_tree_shape(self, flow_dir, capsys):
        assert main(["explain", str(flow_dir), self.SQL,
                     "--topology", "tree", "--fanout", "2"]) == 0
        out = capsys.readouterr().out
        assert "aggregation tree:" in out
        assert "WAN: 6 sites" in out
        assert "host=site" in out

    def test_query_cube_tree_topology(self, flow_dir, capsys):
        """A CUBE's source runs execute flat and are priced over the
        tree together; the cuboid counters survive the pricing."""
        assert main(["query", str(flow_dir),
                     "SELECT RouterId, COUNT(*) AS n FROM Flow "
                     "GROUP BY CUBE (RouterId)",
                     "--topology", "tree", "--fanout", "2"]) == 0
        out = capsys.readouterr().out
        assert "tree: depth=" in out
        assert "cube: 2 cuboid(s), 1 derived" in out

    def test_bad_fanout_is_domain_error(self, flow_dir, capsys):
        assert main(["query", str(flow_dir), self.SQL,
                     "--topology", "tree", "--fanout", "0"]) == 1
        assert "error:" in capsys.readouterr().err
