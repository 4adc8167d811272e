"""Smoke self-test of the e2e benchmark (not part of tier-1).

    python -m pytest benchmarks/e2e -q

Runs every workload, untraced and traced, at 20,000 rows with a window
long enough for one append.  It checks the benchmark's contract, not the
program's speed: smoke numbers are never reported as results.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys

from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run(workload: str, trace: int, *extra: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--rows", "20000", "--seconds", "4", "--seed", "42",
         "--trace", str(trace), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_result(result: dict, kind: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {metric["name"]: metric["unit"] for metric in SPEC[kind]}
    assert list(result["metrics"]) == list(declared)
    for name, entry in result["metrics"].items():
        assert NAME.fullmatch(name)
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == declared[name]
        assert isinstance(entry["value"], float)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_the_end_to_end_metrics(workload):
    result = run(workload, 0)
    check_result(result, "end_to_end")
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_the_layer_metrics(workload, tmp_path):
    spans_path = tmp_path / "spans.jsonl"
    result = run(workload, 1, "--trace-out", str(spans_path))
    check_result(result, "per_layer")
    metrics = result["metrics"]
    assert metrics["distributed.engine.thm2_ratio"]["value"] <= 1.0
    assert 0.0 < metrics["trace.coverage_share"]["value"] <= 1.0
    if workload == "serve_ingest":
        assert metrics["cache.delta_merges"]["value"] > 0
        assert metrics["distributed.transport.respawns"]["value"] > 0

    spans = [json.loads(line) for line in spans_path.read_text().splitlines()]
    ids = {span["id"] for span in spans}
    assert len(ids) == len(spans) > 0
    for span in spans:
        assert span["parent"] is None or span["parent"] in ids
        assert span["end"] >= span["start"]
        assert span["self"] >= -1e-9
    assert {"query", "distributed.engine.execute"} <= {
        span["name"] for span in spans}


def test_spec_is_within_the_contract():
    assert SPEC["paths"] == ["benchmarks/e2e"]
    names = [metric["name"]
             for kind in ("end_to_end", "per_layer") for metric in SPEC[kind]]
    names += WORKLOADS
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(name) for name in names)
    assert "setup_s" in {metric["name"] for metric in SPEC["end_to_end"]}
    assert all(0 < metric["bound"] <= 0.25 for metric in SPEC["end_to_end"])


def test_changed_inputs_abort_the_run(tmp_path):
    """A pinned relation hash that no longer matches stops the benchmark."""
    copy = tmp_path / "checkout"
    (copy / "benchmarks").mkdir(parents=True)
    (copy / "src").symlink_to(ROOT / "src")
    (copy / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    target = copy / "benchmarks" / "e2e"
    target.mkdir()
    for source in HERE.glob("*.py"):
        (target / source.name).write_text(source.read_text())
    pinned = json.loads((HERE / "inputs.json").read_text())
    pinned["relations"]["20000:42"] = "0" * 64
    (target / "inputs.json").write_text(json.dumps(pinned))
    done = subprocess.run(
        [sys.executable, str(target / "run.py"), "--workload", "serve_warm",
         "--rows", "20000", "--seconds", "1", "--seed", "42"],
        cwd=copy, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert "benchmark inputs changed" in done.stderr
