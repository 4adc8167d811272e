#!/usr/bin/env python3
"""The end-to-end, layer-attributed Skalla benchmark.

    python3 benchmarks/e2e/run.py      # all four workloads, a fresh process each
    python3 benchmarks/e2e/run.py --workload serve_warm --seed 7 \
        --seconds 15 --trace 0                         # one BENCHMARK.json run

One 1,000,000-row TPCR relation is generated from ``--seed``,
partitioned on NationKey over 4 sites, and queried over the process
transport.  ``--trace 0`` measures the end-to-end metrics with the
program untouched; ``--trace 1`` is the separate traced pass that
yields the per-layer metrics.  Every result is checked against the
centralized oracle; the exit code is non-zero on any failed or wrong
operation and on any leaked worker, fd or shared-memory segment.

With ``--workload`` the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Names, units and
bounds of the metrics live in ``BENCHMARK.json``; see README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from contextlib import ExitStack
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"e2e benchmark: the program's source is not at {ROOT}/src")
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402
from tracing import ROUND, Totals, Tracer, write_spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q * 100.0))


def midmean(values) -> float:
    """Mean of the middle half: as deaf to one slow cycle as the median,
    and steadier than it when the cycles themselves differ (the cycles
    of an ingest window do: every one holds a worker respawn)."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


class Tally:
    """Operations attempted and failed (refused and wrong included)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def count(self, samples) -> None:
        for sample in samples:
            self.attempted += 1
            self.failed += not sample.ok

    def fail(self, problem: str) -> None:
        self.failed += 1
        print(f"FAILED: {problem}", flush=True)


class Oracle:
    """Centralized references over the generated relation, derived once
    per statement; references over appended data are derived per check."""

    def __init__(self, relation):
        self.relation = relation
        self._references: dict[str, wl.Reference] = {}

    def reference(self, statement: str) -> wl.Reference:
        if statement not in self._references:
            self._references[statement] = wl.reference(
                statement, self.relation)
        return self._references[statement]

    def check(self, tally: Tally, where: str, results: dict,
              detail=None) -> None:
        """Compare one pass's results (a missing result already counted
        as a failed query) with the oracle over ``detail``, by default
        the generated relation."""
        for statement, got in results.items():
            if detail is None:
                want = self.reference(statement)
            else:
                want = wl.reference(statement, detail)
            if not wl.same_result(statement, got, want,
                                  self.relation if detail is None
                                  else detail):
                tally.fail(f"{where}: {statement} differs from the "
                           f"centralized oracle")


def final_results(session, window, tally: Tally):
    """What to compare after a window: (results per client, detail).

    A pass of an ingest window may straddle an append, so there one
    untimed pass is run after the window and compared with references
    re-derived over the fragments as the last append left them.
    """
    if not session.workload.ingest:
        return window.final, None
    samples, results = wl.run_pass(session)
    tally.count(samples)
    return [results], session.engine.total_detail_relation()


def check_hygiene(workload: wl.Workload, hygiene: wl.Hygiene,
                  tally: Tally) -> None:
    for violation in hygiene.violations():
        tally.fail(f"{workload.name} left behind: {violation}")


# ---------------------------------------------------------------------------
# The untraced run: end-to-end metrics
# ---------------------------------------------------------------------------

def run_untraced(workload: wl.Workload, oracle: Oracle, seed: int,
                 seconds: float, tally: Tally) -> dict[str, float]:
    hygiene = wl.Hygiene()
    started = time.perf_counter()
    with wl.Session(workload, oracle.relation) as session:
        warm_samples, warm = wl.run_pass(session)
        setup_seconds = time.perf_counter() - started
        tally.count(warm_samples)

        window = wl.run_window(session, seconds, seed)
        rss = wl.peak_rss_mb()
        tally.count(window.samples)
        tally.count(window.appends)
        finals, final_detail = final_results(session, window, tally)
    check_hygiene(workload, hygiene, tally)

    # The oracle runs last, so that its allocations are neither in the
    # forked workers nor in peak_rss_mb.
    oracle.check(tally, "warm-up", warm)
    for final in finals:
        oracle.check(tally, "final pass", final, final_detail)

    latencies = window.ok_latencies()
    if not latencies:
        raise SystemExit(f"{workload.name}: no query succeeded")
    cycles = [cycle for cycle in window.cycles() if cycle[2] > 0]
    return {
        "setup_s": setup_seconds,
        "query_p50_s": percentile(latencies, 0.50),
        "query_tail_s": percentile(latencies, workload.tail),
        "throughput_qps": midmean(
            queries / elapsed for elapsed, __, queries in cycles),
        "cpu_s_per_query": midmean(
            cpu / queries for __, cpu, queries in cycles),
        "peak_rss_mb": rss,
    }


# ---------------------------------------------------------------------------
# The traced run: per-layer metrics
# ---------------------------------------------------------------------------

def counters(session) -> dict[str, float]:
    """The program's own cumulative counters (public stats only)."""
    found = {"respawns": getattr(session.engine.transport,
                                 "total_respawns", 0)}
    if session.service is not None:
        snapshot = session.service.snapshot()
        found["plan_hits"] = snapshot["plan_cache"]["hits"]
        found["plan_misses"] = snapshot["plan_cache"]["misses"]
        found["shared_hits"] = snapshot["service"]["shared_scan_hits"]
        found["site_scans"] = snapshot["service"]["site_scans"]
    if session.engine.cache is not None:
        stats = session.engine.cache.stats()
        for key in ("hits", "misses", "delta_merges", "evictions",
                    "used_bytes", "full_recomputes_after_append"):
            found[f"cache_{key}"] = stats[key]
    return found


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def run_traced(workload: wl.Workload, oracle: Oracle, seed: int,
               seconds: float, tally: Tally):
    """Set-up, an untraced half, a traced half on the process transport,
    then one traced pass on the in-process transport, where the spans
    inside a site nest.  Returns (per-layer values, spans)."""
    hygiene = wl.Hygiene()
    tracer = Tracer()
    with ExitStack() as stack:
        with tracer.recording("setup"):
            session = stack.enter_context(
                wl.Session(workload, oracle.relation))
            warm_samples, warm = wl.run_pass(session)
        untraced = wl.run_window(session, seconds / 2, seed)
        with tracer.recording("window"):
            before = counters(session)
            traced = wl.run_window(session, seconds / 2, seed, tracer,
                                   keep=True)
            after = counters(session)
        finals, final_detail = final_results(session, traced, tally)
    with ExitStack() as stack:
        with tracer.recording("inproc-setup"):
            inproc = stack.enter_context(
                wl.Session(workload, oracle.relation, transport=None))
            inproc_warm, __ = wl.run_pass(inproc)
        with tracer.recording("inproc"):
            inproc_samples, inproc_results = wl.run_pass(
                inproc, tracer, keep=True)
    for samples in (warm_samples, untraced.samples, untraced.appends,
                    traced.samples, traced.appends, inproc_warm,
                    inproc_samples):
        tally.count(samples)
    check_hygiene(workload, hygiene, tally)

    oracle.check(tally, "warm-up", warm)
    for final in finals:
        oracle.check(tally, "final traced pass", final, final_detail)
    oracle.check(tally, "in-process pass", inproc_results)

    spans = tracer.finish()
    values = layer_metrics(workload, oracle, spans, untraced, traced,
                           inproc_samples, before, after)
    return values, spans


def layer_metrics(workload, oracle, spans, untraced, traced,
                  inproc_samples, before, after) -> dict[str, float]:
    """Seconds are means per query of the traced window unless the
    README says otherwise; span seconds include the children's."""
    setup = Totals(spans, "setup")
    win = Totals(spans, "window")
    inp = Totals(spans, "inproc")
    ok = [s for s in traced.samples if s.ok]
    if not ok or not untraced.ok_latencies():
        raise SystemExit(f"{workload.name}: no query succeeded")
    nq = len(ok)
    wall = sum(s.latency for s in ok)
    delta = {key: after[key] - before.get(key, 0) for key in after}

    def per(seconds: float) -> float:
        return seconds / nq

    def mean_of(field: str) -> float:
        return sum(getattr(s.metrics, field) for s in ok) / nq

    m: dict[str, float] = {}
    m["sql.parse_s"] = per(win.seconds("sql.parse"))
    m["sql.compile_s"] = per(win.seconds("sql.compile"))
    m["sql.post_process_s"] = per(win.seconds("sql.post_process"))
    # statistics are first-touch: the whole cost sits in the set-up
    m["optimizer.stats_s"] = setup.seconds("optimizer.stats")
    m["optimizer.choose_flags_s"] = per(win.seconds("optimizer.choose_flags"))
    m["optimizer.build_plan_s"] = per(win.seconds("optimizer.build_plan"))

    served = [s for s in ok if s.served is not None]
    engine_seconds: dict[int, float] = {}
    for span in win.by_name["distributed.engine.execute"]:
        engine_seconds[span["query"]] = (
            engine_seconds.get(span["query"], 0.0)
            + span["end"] - span["start"])
    m["service.queue_wait_s"] = ratio(
        sum(s.served.queue_wait_seconds for s in served), len(served))
    m["service.plan_lookup_s"] = per(win.seconds("service.plan_lookup"))
    m["service.plan_cache_hit_ratio"] = ratio(
        delta.get("plan_hits", 0),
        delta.get("plan_hits", 0) + delta.get("plan_misses", 0))
    m["service.overhead_s"] = ratio(
        sum(s.latency - engine_seconds.get(s.qid, 0.0)
            - s.served.queue_wait_seconds for s in served), len(served))
    m["service.shared_scan_ratio"] = ratio(
        delta.get("shared_hits", 0),
        delta.get("shared_hits", 0) + delta.get("site_scans", 0))

    appends = win.calls("service.append")
    m["service.append_s"] = ratio(win.seconds("service.append"), appends)
    m["service.append_cache_s"] = ratio(
        win.seconds("service.append_cache"), appends)
    m["distributed.transport.invalidate_s"] = ratio(
        win.seconds("distributed.transport.invalidate"), appends)
    done = [a for a in untraced.appends if a.ok]
    m["service.append_p50_s"] = (
        statistics.median(a.end - a.due for a in done) if done else 0.0)
    m["service.append_max_lateness_s"] = max(
        (a.start - a.due for a in done), default=0.0)

    m["cache.decide_s"] = per(win.seconds("cache.decide"))
    m["cache.fingerprint_s"] = per(win.seconds("cache.fingerprint"))
    m["cache.fulfill_hit_s"] = per(win.seconds("cache.fulfill_hit"))
    m["cache.populate_s"] = per(win.seconds("cache.populate"))
    m["cache.hit_ratio"] = ratio(
        delta.get("cache_hits", 0),
        delta.get("cache_hits", 0) + delta.get("cache_misses", 0)
        + delta.get("cache_delta_merges", 0))
    m["cache.used_bytes"] = after.get("cache_used_bytes", 0)
    m["cache.evictions"] = after.get("cache_evictions", 0)
    m["cache.apply_delta_s"] = per(win.seconds("cache.apply_delta"))
    m["cache.delta_merges"] = delta.get("cache_delta_merges", 0)
    m["cache.full_recomputes"] = delta.get(
        "cache_full_recomputes_after_append", 0)

    execute = "distributed.engine.execute"
    m["distributed.engine.execute_s"] = per(win.seconds(execute))
    m["distributed.engine.self_s"] = per(win.self_seconds(execute))
    m["distributed.engine.rounds"] = mean_of("num_synchronizations")
    m["distributed.engine.rows_shipped"] = mean_of("rows_shipped")
    m["distributed.engine.thm2_ratio"] = max(
        ratio(s.metrics.rows_shipped,
              wl.SITES * oracle.reference(s.statement).groups
              * (2 * s.metrics.num_synchronizations + 1))
        for s in ok)

    m["distributed.transport.round_s"] = per(win.seconds(ROUND))
    m["distributed.transport.ipc_s"] = per(win.total(ROUND, "ipc"))
    m["distributed.transport.request_bytes"] = per(
        win.total(ROUND, "request_bytes"))
    m["distributed.transport.response_bytes"] = per(
        win.total(ROUND, "response_bytes"))
    m["distributed.transport.retries"] = win.total(ROUND, "retries")
    m["distributed.transport.respawns"] = delta["respawns"]
    m["distributed.transport.hedges_issued"] = sum(
        s.metrics.hedges_issued for s in ok)
    m["distributed.transport.hedges_wasted"] = sum(
        s.metrics.hedges_wasted for s in ok)
    m["wire_bytes_per_query"] = mean_of("real_bytes")

    encode, decode = "relational.io.encode", "relational.io.decode"
    m["relational.io.encode_s"] = per(win.seconds(encode))
    m["relational.io.decode_s"] = per(win.seconds(decode))
    m["relational.io.encode_mb_s"] = ratio(
        win.total(encode, "bytes") / 1e6, win.seconds(encode))
    m["relational.io.decode_mb_s"] = ratio(
        win.total(decode, "bytes") / 1e6, win.seconds(decode))

    sync = win.seconds("distributed.coordinator.sync")
    final = win.seconds("distributed.coordinator.final")
    m["distributed.coordinator.sync_s"] = per(sync)
    m["distributed.coordinator.final_s"] = per(final)
    m["distributed.coordinator.share"] = (
        sync + final + win.seconds(encode, decode)) / wall

    m["distributed.site.critical_s"] = per(win.total(ROUND, "site_critical"))
    m["distributed.site.sum_s"] = per(win.total(ROUND, "site_sum"))
    m["distributed.site.skew_ratio"] = max(
        win.values(ROUND, "site_skew"), default=0.0)
    m["distributed.site.scans"] = mean_of("site_scans")

    ni = sum(s.ok for s in inproc_samples) or 1
    gmdj = "core.evaluator.gmdj"
    m["core.evaluator.gmdj_s"] = inp.seconds(gmdj) / ni
    m["core.evaluator.match_codes_s"] = (
        inp.seconds("core.evaluator.match_codes") / ni)
    m["core.evaluator.finalize_s"] = (
        inp.seconds("core.evaluator.finalize") / ni)
    m["core.evaluator.rows_per_s"] = ratio(
        inp.total(gmdj, "rows"), inp.seconds(gmdj))
    m["relational.factorize.s"] = inp.seconds("relational.factorize") / ni
    m["relational.factorize.calls"] = inp.calls("relational.factorize") / ni

    m["cube.compile_s"] = per(win.seconds("cube.compile"))
    m["cube.execute_s"] = per(win.seconds("cube.execute"))
    m["cube.rollup_s"] = per(win.seconds("cube.rollup"))
    m["cube.cuboids_derived"] = mean_of("cuboids_derived")

    for statement in wl.STATEMENTS:
        own = untraced.ok_latencies(statement)
        m[f"statement.{statement}.p50_s"] = (
            statistics.median(own) if own else 0.0)

    plain = percentile(untraced.ok_latencies(), 0.50)
    m["trace.overhead_share"] = (
        percentile([s.latency for s in ok], 0.50) - plain) / plain
    queries = win.by_name["query"]
    m["trace.coverage_share"] = 1.0 - ratio(
        sum(span["self"] for span in queries),
        sum(span["end"] - span["start"] for span in queries))
    return m


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def with_units(values: dict[str, float], kind: str) -> dict[str, dict]:
    """Attach BENCHMARK.json's units; the names must match it exactly."""
    declared = {metric["name"]: metric["unit"] for metric in SPEC[kind]}
    if set(values) != set(declared):
        raise SystemExit(
            f"{kind} metrics differ from BENCHMARK.json: "
            f"{sorted(set(values) ^ set(declared))}")
    return {name: {"value": float(values[name]), "unit": declared[name]}
            for name in declared}


def print_metrics(title: str, metrics: dict[str, dict]) -> None:
    print(f"== {title}")
    for name, entry in metrics.items():
        print(f"{name:44s} {entry['value']:>16.6g} {entry['unit']}")
    sys.stdout.flush()


def environment() -> dict[str, object]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "commit": commit}


def check_inputs(relation, seed: int, rows: int) -> None:
    """Abort when the pinned inputs moved: the baseline would move too."""
    pinned = json.loads((HERE / "inputs.json").read_text())
    problems = []
    if wl.statements_hash() != pinned["statements"]:
        problems.append("statement texts")
    expected = pinned["relations"].get(f"{rows}:{seed}")
    if expected is not None and wl.relation_hash(relation) != expected:
        problems.append(f"generated relation (rows={rows}, seed={seed})")
    if problems:
        raise SystemExit("benchmark inputs changed: " + ", ".join(problems))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS),
                        help="one workload (default: all four, untraced "
                             "and traced)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float,
                        default=float(SPEC["run_seconds"]),
                        help="length of the timed window")
    parser.add_argument("--trace", type=int, nargs="?", const=1,
                        choices=(0, 1),
                        help="1: the traced pass (per-layer metrics); "
                             "0: end-to-end metrics, tracing off")
    parser.add_argument("--rows", type=int, default=wl.ROWS,
                        help="smaller only for the smoke test")
    parser.add_argument("--json", metavar="OUT",
                        help="write every run's metrics to OUT")
    parser.add_argument("--trace-out", metavar="SPANS.jsonl",
                        help="write the traced pass's spans")
    args = parser.parse_args()

    if args.workload is None:
        return run_all(args)

    relation = wl.generate(args.rows, args.seed)
    check_inputs(relation, args.seed, args.rows)
    workload = wl.WORKLOADS[args.workload]
    tally = Tally()
    if args.trace:
        values, spans = run_traced(workload, Oracle(relation), args.seed,
                                   args.seconds, tally)
        metrics = with_units(values, "per_layer")
        if args.trace_out:
            write_spans(spans, args.trace_out, workload.name)
    else:
        values = run_untraced(workload, Oracle(relation), args.seed,
                              args.seconds, tally)
        metrics = with_units(values, "end_to_end")
    print_metrics(f"{workload.name} (trace {int(bool(args.trace))}): "
                  f"{tally.attempted} operations, {tally.failed} failed",
                  metrics)
    run = {"correct": tally.failed == 0, "attempted": tally.attempted,
           "failed": tally.failed, "metrics": metrics}
    if args.json:
        write_report(args, [{"workload": workload.name,
                             "trace": int(bool(args.trace)), **run}])
    print(json.dumps(run))
    return 0 if run["correct"] else 1


def write_report(args, runs: list[dict]) -> None:
    Path(args.json).write_text(json.dumps({
        "benchmark": "benchmarks/e2e", "environment": environment(),
        "seed": args.seed, "rows": args.rows, "seconds": args.seconds,
        "runs": runs}, indent=1) + "\n")


def run_all(args) -> int:
    """Every workload, untraced and traced (or only ``--trace``'s kind),
    each in a fresh process: a run must not inherit the previous one's
    heap, peak RSS or reaped-children CPU."""
    traces = [0, 1] if args.trace is None else [args.trace]
    runs = []
    span_parts = []
    for name in wl.WORKLOADS:
        for trace in traces:
            command = [sys.executable, str(HERE / "run.py"),
                       "--workload", name, "--trace", str(trace),
                       "--seed", str(args.seed), "--rows", str(args.rows),
                       "--seconds", str(args.seconds)]
            if trace and args.trace_out:
                span_parts.append(f"{args.trace_out}.{name}")
                command += ["--trace-out", span_parts[-1]]
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            *report, result = done.stdout.rstrip("\n").split("\n")
            print("\n".join(report), flush=True)
            try:
                run = json.loads(result)
            except ValueError:
                raise SystemExit(f"{name} (trace {trace}) gave no result: "
                                 f"{result}") from None
            runs.append({"workload": name, "trace": trace, **run})
    if span_parts:
        with open(args.trace_out, "w") as merged:
            for part in span_parts:
                merged.write(Path(part).read_text())
                os.remove(part)
    if args.json:
        write_report(args, runs)
    return 0 if all(run["correct"] for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
