"""Tests for warehouse persistence."""

import json

import numpy as np
import pytest

from repro.data.flows import generate_flows, router_as_ranges
from repro.distributed.engine import SkallaEngine
from repro.distributed.network import LinkModel
from repro.relational.aggregates import count_star
from repro.relational.expressions import b, r
from repro.relational.relation import Relation
from repro.core.builder import QueryBuilder, agg
from repro.distributed.partition import (
    DistributionInfo, RangeConstraint, ValueSetConstraint,
    partition_by_ranges, partition_by_values)
from repro.distributed.plan import ALL_OPTIMIZATIONS
from repro.distributed.storage import (
    StorageError, constraint_from_json, constraint_to_json,
    load_warehouse, save_warehouse)


@pytest.fixture()
def engine():
    flows = generate_flows(num_flows=1_500, num_routers=3,
                           num_source_as=12, seed=4)
    partitions, info = partition_by_values(
        flows, "RouterId", {site: [site] for site in range(3)})
    for site, (low, high) in router_as_ranges(3, 12).items():
        info.add(site, "SourceAS", RangeConstraint(low, high))
    return SkallaEngine(partitions, info,
                        link=LinkModel(bandwidth=2e6, latency=0.02))


class TestConstraintJson:
    def test_value_set_round_trip(self):
        original = ValueSetConstraint(frozenset({1, 2, 3}))
        restored = constraint_from_json(constraint_to_json(original))
        assert restored == original

    def test_range_round_trip(self):
        original = RangeConstraint("a", "m")
        restored = constraint_from_json(constraint_to_json(original))
        assert restored == original

    def test_unknown_kind(self):
        with pytest.raises(StorageError):
            constraint_from_json({"kind": "wavelet"})


class TestSaveLoad:
    def test_round_trip_preserves_everything(self, engine, tmp_path):
        save_warehouse(engine, tmp_path / "wh")
        loaded = load_warehouse(tmp_path / "wh")
        assert loaded.site_ids == engine.site_ids
        for site in engine.site_ids:
            assert loaded.fragment(site).multiset_equals(
                engine.fragment(site))
        assert loaded.link == engine.link
        assert loaded.info is not None
        assert loaded.info.partition_attributes(loaded.site_ids) == \
            engine.info.partition_attributes(engine.site_ids)

    def test_loaded_warehouse_answers_queries(self, engine, tmp_path):
        from repro.bench.queries import correlated_query
        save_warehouse(engine, tmp_path / "wh")
        loaded = load_warehouse(tmp_path / "wh")
        query = correlated_query(["SourceAS"], "NumBytes")
        original = engine.execute(query, ALL_OPTIMIZATIONS)
        reloaded = loaded.execute(query, ALL_OPTIMIZATIONS)
        assert reloaded.relation.multiset_equals(original.relation)
        assert reloaded.metrics.num_synchronizations == \
            original.metrics.num_synchronizations

    def test_warehouse_without_info(self, tmp_path):
        flows = generate_flows(num_flows=500, num_routers=2, seed=1)
        from repro.distributed.partition import partition_round_robin
        engine = SkallaEngine(partition_round_robin(flows, 2))
        save_warehouse(engine, tmp_path / "plain")
        loaded = load_warehouse(tmp_path / "plain")
        assert loaded.info == DistributionInfo()
        assert loaded.knowledge.constraints == {}

    def test_legacy_manifest_key_is_ignored(self, tmp_path):
        """Version-1 manifests written before the per-site seconds
        scaling was removed still carry its map; it never changed a
        result, so such a directory loads and answers like one without
        the key."""
        from repro.bench.queries import correlated_query
        from repro.relational.io import write_csv
        flows = generate_flows(num_flows=400, num_routers=2, seed=7)
        partitions, __ = partition_by_values(
            flows, "RouterId", {site: [site] for site in range(2)})
        manifest = """{
  "format_version": 1,
  "sites": {"0": "site_0.csv", "1": "site_1.csv"},
  "constraints": {"0": {"RouterId": {"kind": "values", "values": [0]}},
                  "1": {"RouterId": {"kind": "values", "values": [1]}}},
  "link": {"bandwidth": 2000000.0, "latency": 0.02}%s
}"""
        query = correlated_query(["SourceAS"], "NumBytes")
        results = []
        for name, extra in (("plain", ""),
                            ("legacy", ',\n  "slowdowns": {"1": 2.5}')):
            directory = tmp_path / name
            directory.mkdir()
            for site, fragment in partitions.items():
                write_csv(fragment, directory / f"site_{site}.csv")
            (directory / "manifest.json").write_text(manifest % extra)
            results.append(load_warehouse(directory).execute(
                query, ALL_OPTIMIZATIONS))
        plain, legacy = results
        assert legacy.relation.multiset_equals(plain.relation)
        assert legacy.metrics.total_bytes == plain.metrics.total_bytes
        assert (legacy.metrics.num_synchronizations
                == plain.metrics.num_synchronizations)


class TestNumpyScalarConstraints:
    """Bounds and values taken from NumPy data save as plain JSON."""

    @pytest.mark.parametrize("kind", ["ranges", "values"])
    def test_round_trip_keeps_the_plan(self, kind, tmp_path):
        detail = Relation.from_dicts(
            [{"k": i % 8, "v": float(i)} for i in range(80)])
        if kind == "ranges":
            partitions, info = partition_by_ranges(detail, "k", {
                0: (np.int64(0), np.int64(3)),
                1: (np.int64(4), np.int64(7))})
        else:
            partitions, info = partition_by_values(detail, "k", {
                0: [np.int64(v) for v in range(4)],
                1: [np.int64(v) for v in range(4, 8)]})
        engine = SkallaEngine(partitions, info)
        save_warehouse(engine, tmp_path / "wh")
        loaded = load_warehouse(tmp_path / "wh")
        assert loaded.info.partition_attributes(loaded.site_ids) == \
            engine.info.partition_attributes(engine.site_ids) == {"k"}
        query = (QueryBuilder().base("k")
                 .gmdj([count_star("n"), agg("sum", "v", "s")],
                       r.k == b.k)
                 .build())
        original = engine.execute(query, ALL_OPTIMIZATIONS)
        reloaded = loaded.execute(query, ALL_OPTIMIZATIONS)
        assert reloaded.relation.multiset_equals(original.relation)
        assert reloaded.metrics.total_bytes == original.metrics.total_bytes
        assert (reloaded.metrics.num_synchronizations
                == original.metrics.num_synchronizations)


class TestFailureModes:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(StorageError, match="manifest"):
            load_warehouse(tmp_path)

    def test_malformed_manifest(self, tmp_path):
        (tmp_path / "manifest.json").write_text("{not json")
        with pytest.raises(StorageError, match="malformed"):
            load_warehouse(tmp_path)

    def test_wrong_version(self, engine, tmp_path):
        save_warehouse(engine, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["format_version"] = 99
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StorageError, match="format"):
            load_warehouse(tmp_path)

    def test_missing_fragment(self, engine, tmp_path):
        save_warehouse(engine, tmp_path)
        (tmp_path / "site_0.csv").unlink()
        with pytest.raises(StorageError, match="missing site"):
            load_warehouse(tmp_path)

    def test_tampered_constraints_detected(self, engine, tmp_path):
        save_warehouse(engine, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["constraints"]["0"]["SourceAS"] = {
            "kind": "range", "low": 100, "high": 200}
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StorageError, match="does not match"):
            load_warehouse(tmp_path)
        # but loading without verification is the documented escape hatch
        loaded = load_warehouse(tmp_path, verify_info=False)
        assert loaded.info is not None
