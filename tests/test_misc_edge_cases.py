"""Assorted edge cases across layers."""

import re
from pathlib import Path

import numpy as np

from repro.relational.aggregates import AggregateSpec, count_star
from repro.relational.expressions import b, r
from repro.relational.relation import Relation
from repro.core.evaluator import evaluate_gmdj
from repro.core.gmdj import Gmdj

REPO_ROOT = Path(__file__).parent.parent


class TestDuplicateBaseTuples:
    """Definition 1: EVERY b ∈ B contributes an output tuple — B is a
    multiset, so duplicate base rows each get (identical) aggregates."""

    def test_centralized_duplicates_preserved(self):
        detail = Relation.from_dicts([
            {"g": 1, "v": 10.0}, {"g": 1, "v": 20.0}, {"g": 2, "v": 5.0}])
        base = Relation.from_dicts([{"g": 1}, {"g": 1}, {"g": 2}])
        gmdj = Gmdj.single([count_star("n"), AggregateSpec("avg", "v", "m")],
                           r.g == b.g)
        result = evaluate_gmdj(gmdj, base, detail)
        assert result.num_rows == 3
        ones = result.filter(result.column("g") == 1)
        assert ones.num_rows == 2
        assert ones.column("n").tolist() == [2, 2]


class TestEvaluatorDtypeStability:
    def test_int_sum_stays_int(self):
        detail = Relation.from_dicts([{"g": 1, "v": 2}, {"g": 1, "v": 3}])
        base = detail.distinct(["g"])
        gmdj = Gmdj.single([AggregateSpec("sum", "v", "s")], r.g == b.g)
        result = evaluate_gmdj(gmdj, base, detail)
        assert result.column("s").dtype == np.int64
        assert result.column("s").tolist() == [5]

    def test_bool_match_column_dtype(self):
        detail = Relation.from_dicts([{"g": 1, "v": 2.0}])
        base = Relation.from_dicts([{"g": 1}, {"g": 9}])
        gmdj = Gmdj.single([count_star("n")], r.g == b.g)
        result = evaluate_gmdj(gmdj, base, detail, match_column="hit")
        assert result.column("hit").dtype == np.bool_


class TestHierarchyExplain:
    def test_explain_analyze_on_tree_result(self):
        from repro.core.builder import QueryBuilder
        from repro.distributed.explain import explain_analyze
        from repro.distributed.engine import SkallaEngine
        from dataclasses import replace
        from repro.distributed.hierarchy import TreeTopology
        from repro.distributed.partition import partition_round_robin
        from repro.distributed.plan import NO_OPTIMIZATIONS
        from repro.distributed.pricing import price
        detail = Relation.from_dicts([
            {"g": i % 4, "v": float(i)} for i in range(200)])
        partitions = partition_round_robin(detail, 6)
        topology = TreeTopology.balanced(sorted(partitions), fanout=3)
        engine = SkallaEngine(partitions)
        query = (QueryBuilder().base("g")
                 .gmdj([count_star("n")], r.g == b.g).build())
        result = engine.execute(query, NO_OPTIMIZATIONS)
        priced = price(result.log, topology, engine.link)
        text = explain_analyze(replace(result, metrics=priced))
        assert "phase breakdown" in text
        assert "aggregation tree:" in text


class TestDocConsistency:
    """Guard the documentation's pointers against code drift."""

    def test_paper_mapping_references_exist(self):
        mapping = (REPO_ROOT / "docs" / "PAPER_MAPPING.md").read_text()
        for match in re.finditer(r"`(repro\.[a-z_.]+)`", mapping):
            dotted = match.group(1)
            parts = dotted.split(".")
            # try as module path, then as module.attribute
            import importlib
            try:
                importlib.import_module(dotted)
                continue
            except ImportError:
                pass
            module = importlib.import_module(".".join(parts[:-1]))
            assert hasattr(module, parts[-1]), dotted

    def test_paper_mapping_test_files_exist(self):
        mapping = (REPO_ROOT / "docs" / "PAPER_MAPPING.md").read_text()
        for match in re.finditer(r"`(tests/[a-z_]+\.py)", mapping):
            assert (REPO_ROOT / match.group(1)).exists(), match.group(1)

    def test_design_inventory_files_exist(self):
        design = (REPO_ROOT / "DESIGN.md").read_text()
        for match in re.finditer(r"benchmarks/bench_[a-z0-9_]+\.py",
                                 design):
            assert (REPO_ROOT / match.group(0)).exists(), match.group(0)

    def test_experiments_mentions_every_result_file(self):
        experiments = (REPO_ROOT / "EXPERIMENTS.md").read_text()
        for figure in ("fig2", "fig3", "fig4", "fig5"):
            assert figure in experiments
