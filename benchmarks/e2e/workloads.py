"""Inputs, workloads, load generators, oracle and resource probes.

The program under test receives only the generated TPCR relation and
SQL text; everything here drives it through ``Warehouse.sql``,
``QueryService.execute`` and ``QueryService.append``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import multiprocessing
import os
import resource
import threading
import time

from dataclasses import dataclass, field

import numpy as np

from repro.cube import compile_lattice
from repro.cube.executor import ALL_MARKER
from repro.cube.executor import run_centralized as cube_centralized
from repro.data.tpch import (
    TpcrConfig, custkey_ranges, customer_name, generate_tpcr,
    nation_assignment)
from repro.distributed.engine import SkallaEngine
from repro.distributed.partition import RangeConstraint, partition_by_values
from repro.service import QueryService
from repro.sketches.kll import DEFAULT_K, rank_error_bound
from repro.sql.compiler import compile_query
from repro.sql.parser import parse
from repro.warehouse import Warehouse

ROWS = 1_000_000
SITES = 4
SERVICE_WORKERS = 2
APPEND_ROWS = 1000
APPEND_INTERVAL_S = 1.0
#: throughput and CPU are midmeans over cycles.  A cycle is the shortest
#: run of whole passes of the first client that lasts at least this
#: long; on an ingest workload it runs from one append's return to the
#: next one's, so that every cycle holds one append and its aftermath.
CYCLE_S = 1.0
QUERY_TIMEOUT_S = 120.0


def _x(n: int) -> str:
    return f"COUNT(*) AS cnt{n}, AVG(ExtendedPrice) AS avg{n}"


_CLERK = ("SELECT Clerk, COUNT(*) AS cnt1, AVG(ExtendedPrice) AS avg1 "
          "FROM TPCR GROUP BY Clerk THEN COMPUTE ")
_CORR_CLERK = (_CLERK + "COUNT(*) AS cnt2, AVG(ExtendedPrice) AS avg2 "
               "WHERE ExtendedPrice >= avg1")

STATEMENTS = {
    # scan_lowcard
    "corr_clerk": _CORR_CLERK,
    "range_clerk": _CLERK + (
        "COUNT(*) AS cnt2, SUM(Quantity) AS q2 WHERE ExtendedPrice >= "
        "avg1 * 0.5 AND ExtendedPrice < avg1 * 1.5"),
    "resid_clerk": _CLERK + (
        "COUNT(*) AS cnt2 WHERE ExtendedPrice >= avg1 OR Discount >= 0.09"),
    "filter_clerk": (
        "SELECT Clerk, COUNT(*) AS n, AVG(Discount) AS d FROM TPCR "
        "WHERE Quantity > 25 AND ShipMode = 'AIR' GROUP BY Clerk "
        "ORDER BY n DESC LIMIT 10"),
    "multi_low": (
        "SELECT ShipMode, ReturnFlag, OrderPriority, COUNT(*) AS n, "
        "SUM(ExtendedPrice) AS s, MIN(Discount) AS lo FROM TPCR "
        "GROUP BY ShipMode, ReturnFlag, OrderPriority"),
    "approx_seg": (
        "SELECT MktSegment, APPROX_COUNT_DISTINCT(PartKey) AS d, "
        "APPROX_MEDIAN(ExtendedPrice) AS med FROM TPCR GROUP BY MktSegment"),
    "cube3": (
        "SELECT MktSegment, OrderPriority, ShipMode, COUNT(*) AS n, "
        "SUM(Quantity) AS total FROM TPCR "
        "GROUP BY CUBE(MktSegment, OrderPriority, ShipMode)"),
    # ship_highcard: the paper's Fig. 2/4, 3 and 5 queries
    "fig2_corr_custname": (
        f"SELECT CustName, {_x(1)} FROM TPCR GROUP BY CustName "
        f"THEN COMPUTE {_x(2)} WHERE ExtendedPrice >= avg1"),
    "fig3_coal_custname": (
        f"SELECT CustName, {_x(1)} FROM TPCR GROUP BY CustName "
        f"THEN COMPUTE {_x(2)} WHERE Discount >= 0.05"),
    "fig5_comb_custname": (
        f"SELECT CustName, {_x(1)} FROM TPCR GROUP BY CustName "
        f"THEN COMPUTE {_x(2)} WHERE Discount >= 0.05 "
        f"THEN COMPUTE {_x(3)} WHERE ExtendedPrice >= avg1"),
    "corr_orderkey": (
        f"SELECT OrderKey, {_x(1)} FROM TPCR GROUP BY OrderKey "
        f"THEN COMPUTE {_x(2)} WHERE ExtendedPrice >= avg1"),
    "plain_partkey": (
        "SELECT PartKey, COUNT(*) AS n, SUM(Quantity) AS q, "
        "MAX(ExtendedPrice) AS m FROM TPCR GROUP BY PartKey"),
    # serve_warm / serve_ingest
    "dash_corr_clerk": _CORR_CLERK,
    "dash_segment": (
        "SELECT MktSegment, COUNT(*) AS n, SUM(Quantity) AS q FROM TPCR "
        "GROUP BY MktSegment"),
    "dash_filter_clerk": (
        "SELECT Clerk, COUNT(*) AS n, AVG(Discount) AS d FROM TPCR "
        "WHERE Quantity > 25 GROUP BY Clerk ORDER BY n DESC LIMIT 10"),
    "dash_ship_flag": (
        "SELECT ShipMode, ReturnFlag, COUNT(*) AS n, "
        "SUM(ExtendedPrice) AS s FROM TPCR GROUP BY ShipMode, ReturnFlag"),
    "dash_priority": (
        "SELECT OrderPriority, COUNT(*) AS n, MAX(ExtendedPrice) AS m, "
        "MIN(Discount) AS lo FROM TPCR GROUP BY OrderPriority"),
    "dash_nation": (
        "SELECT NationKey, COUNT(*) AS n, AVG(Quantity) AS q FROM TPCR "
        "GROUP BY NationKey HAVING n > 100"),
    "dash_approx_seg": (
        "SELECT MktSegment, APPROX_COUNT_DISTINCT(PartKey) AS d FROM TPCR "
        "GROUP BY MktSegment"),
    "dash_top_parts": (
        "SELECT PartKey, COUNT(*) AS n, SUM(Quantity) AS q FROM TPCR "
        "GROUP BY PartKey ORDER BY q DESC LIMIT 20"),
}

# APPROX_MEDIAN is partition-sensitive: checked by rank containment
# against the exact values, as the sketch differential suite does.
# statement id -> {output column: (group attribute, measure, rank)}
RANK_COLUMNS = {"approx_seg": {"med": ("MktSegment", "ExtendedPrice", 0.5)}}

_DASH = tuple(name for name in STATEMENTS if name.startswith("dash_"))


@dataclass(frozen=True)
class Workload:
    name: str
    statements: tuple[str, ...]
    #: False: ``Warehouse.sql`` with the cache off; True:
    #: ``QueryService(engine, workers=2)`` with its defaults.
    service: bool
    clients: int
    #: the highest percentile with at least ten samples beyond it at
    #: the sample count a BENCHMARK.json run collects.
    tail: float
    ingest: bool = False


WORKLOADS = {w.name: w for w in (
    Workload("scan_lowcard",
             ("corr_clerk", "range_clerk", "resid_clerk", "filter_clerk",
              "multi_low", "approx_seg", "cube3"),
             service=False, clients=1, tail=0.75),
    Workload("ship_highcard",
             ("fig2_corr_custname", "fig3_coal_custname",
              "fig5_comb_custname", "corr_orderkey", "plain_partkey"),
             service=False, clients=1, tail=0.50),
    Workload("serve_warm", _DASH, service=True, clients=2, tail=0.99),
    Workload("serve_ingest", _DASH, service=True, clients=1, tail=0.99,
             ingest=True),
)}


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def generate(rows: int, seed: int):
    return generate_tpcr(TpcrConfig(num_rows=rows,
                                    num_customers=rows // 5, seed=seed))


def relation_hash(relation) -> str:
    """sha256 over the schema and every column's values."""
    digest = hashlib.sha256(repr(relation.schema).encode())
    for name in relation.schema.names:
        column = relation.column(name)
        if column.dtype == object:
            digest.update("\n".join(column.tolist()).encode())
        else:
            digest.update(np.ascontiguousarray(column).tobytes())
    return digest.hexdigest()


def statements_hash() -> str:
    digest = hashlib.sha256()
    for name, text in STATEMENTS.items():
        digest.update(f"{name}\0{text}\0".encode())
    return digest.hexdigest()


def partition(relation):
    """NationKey partitioning over 4 sites with the CustKey/CustName
    range knowledge of Sect. 5.1."""
    num_customers = relation.num_rows // 5
    partitions, info = partition_by_values(
        relation, "NationKey", nation_assignment(SITES))
    for site, (low, high) in custkey_ranges(SITES, num_customers).items():
        info.add(site, "CustKey", RangeConstraint(low, high))
        info.add(site, "CustName", RangeConstraint(customer_name(low),
                                                   customer_name(high)))
    return partitions, info


def append_batches(partitions, seed: int, count: int):
    """``count`` batches of rows resampled from each site's own fragment
    (so the site's partition constraints hold), site = k mod 4."""
    rng = np.random.default_rng(seed)
    batches = []
    for k in range(count):
        site = k % SITES
        fragment = partitions[site]
        picks = rng.integers(0, fragment.num_rows, APPEND_ROWS)
        batches.append((site, fragment.take(picks)))
    return batches


# ---------------------------------------------------------------------------
# The program, built fresh per workload
# ---------------------------------------------------------------------------

class Session:
    """One engine for one workload, reached through its front door.

    Only the constructor arguments the workload names are passed
    (transport, service workers); the rest stays at the defaults.
    ``transport=None`` is the program's default in-process transport.
    """

    def __init__(self, workload: Workload, relation,
                 transport: "str | None" = "process"):
        self.workload = workload
        self.partitions, info = partition(relation)
        self.service = None
        if workload.service:
            self.engine = SkallaEngine(self.partitions, info,
                                       transport=transport)
            self.service = QueryService(
                self.engine, workers=SERVICE_WORKERS).start()
        else:
            self.warehouse = Warehouse.from_partitions(
                self.partitions, info, transport=transport)
            self.engine = self.warehouse.engine
        self.engine.transport.start()

    def execute(self, sql: str):
        """Returns (relation, QueryMetrics, ServiceResult or None)."""
        if self.service is not None:
            served = self.service.execute(sql, timeout=QUERY_TIMEOUT_S)
            return served.relation, served.metrics, served
        result = self.warehouse.sql(sql)
        return result.relation, result.metrics, None

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
        self.engine.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Load generation
# ---------------------------------------------------------------------------

@dataclass
class Sample:
    statement: str
    start: float
    end: float
    ok: bool
    metrics: object = None
    served: object = None
    #: query id of the client span (traced passes only)
    qid: "int | None" = None

    @property
    def latency(self) -> float:
        return self.end - self.start


@dataclass
class Append:
    due: float
    start: float
    end: float
    ok: bool


@dataclass
class Window:
    start: float
    samples: list[Sample] = field(default_factory=list)
    appends: list[Append] = field(default_factory=list)
    #: every client's results of its final pass, by statement id
    final: list[dict] = field(default_factory=list)
    #: cycle boundaries: (time, cpu_seconds(), correct queries so far)
    marks: list[tuple] = field(default_factory=list)

    def cycles(self) -> list[tuple[float, float, int]]:
        """(seconds, CPU seconds, correct queries) of every cycle."""
        return [(end[0] - start[0], end[1] - start[1], end[2] - start[2])
                for start, end in zip(self.marks, self.marks[1:])]

    def ok_latencies(self, statement: "str | None" = None) -> list[float]:
        return [s.latency for s in self.samples if s.ok
                and (statement is None or s.statement == statement)]


_QUERY_IDS = itertools.count(1).__next__


def run_query(session: Session, statement: str, tracer=None,
              keep: bool = False):
    """One timed query; returns (Sample, relation or None)."""
    span = None
    if tracer is not None:
        span = tracer.begin("query", qid=_QUERY_IDS(), statement=statement)
    start = time.perf_counter()
    try:
        relation, metrics, served = session.execute(STATEMENTS[statement])
    except Exception as error:  # a failed query is a counted outcome
        end = time.perf_counter()
        print(f"query {statement} failed: {error!r}", flush=True)
        return Sample(statement, start, end, False), None
    finally:
        if span is not None:
            tracer.end(span)
    end = time.perf_counter()
    if span is not None and served is not None:
        tracer.link(served.query_id, span)
    if not keep:
        metrics = served = None
    qid = span["qid"] if span is not None else None
    return Sample(statement, start, end, True, metrics, served, qid), relation


def run_pass(session: Session, tracer=None, keep: bool = False,
             on_sample=None):
    """One pass over the workload's statements: (samples, results)."""
    samples, results = [], {}
    for statement in session.workload.statements:
        sample, relation = run_query(session, statement, tracer, keep)
        samples.append(sample)
        if relation is not None:
            results[statement] = relation
        if on_sample is not None:
            on_sample(sample)
    return samples, results


def run_window(session: Session, seconds: float, seed: int,
               tracer=None, keep: bool = False) -> Window:
    """Closed-loop clients run whole passes until ``seconds`` elapsed.

    On an ingest workload one appender thread calls ``service.append``
    on an open schedule, one batch due every APPEND_INTERVAL_S; an
    append is timed from when it was due.
    """
    workload = session.workload
    batches = []
    if workload.ingest:
        due_count = int(np.ceil(seconds / APPEND_INTERVAL_S)) - 1
        batches = append_batches(session.partitions, seed, due_count)
    window = Window(start=time.perf_counter())
    window.marks.append((window.start, cpu_seconds(), 0))
    deadline = window.start + seconds
    lock = threading.Lock()
    done = [0] * workload.clients

    def mark():
        window.marks.append((time.perf_counter(), cpu_seconds(), sum(done)))

    def client(index):
        samples, final = [], {}

        def count(sample):
            done[index] += sample.ok

        while time.perf_counter() < deadline:
            passed, final = run_pass(session, tracer, keep, count)
            samples.extend(passed)
            if index == 0 and not workload.ingest and (
                    time.perf_counter() - window.marks[-1][0] >= CYCLE_S):
                mark()
        if index == 0 and len(window.marks) == 1:
            mark()      # a window shorter than one cycle is one cycle
        with lock:
            window.samples.extend(samples)
            window.final.append(final)

    def appender():
        for k, (site, rows) in enumerate(batches):
            due = window.start + (k + 1) * APPEND_INTERVAL_S
            time.sleep(max(0.0, due - time.perf_counter()))
            start = time.perf_counter()
            ok = True
            try:
                session.service.append(site, rows)
            except Exception as error:
                ok = False
                print(f"append {k} failed: {error!r}", flush=True)
            window.appends.append(
                Append(due, start, time.perf_counter(), ok))
            mark()
        time.sleep(max(0.0, deadline - time.perf_counter()))
        mark()

    threads = [threading.Thread(target=client, args=(i,),
                                name=f"e2e-client-{i}")
               for i in range(workload.clients)]
    if batches:
        threads.append(threading.Thread(target=appender,
                                        name="e2e-appender"))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return window


# ---------------------------------------------------------------------------
# Oracle
# ---------------------------------------------------------------------------

@dataclass
class Reference:
    #: the centralized answer, ORDER BY applied but LIMIT not
    relation: object
    #: |Q|, the number of groups of the base-values relation
    groups: int
    limit: "int | None" = None
    order_by: tuple[str, ...] = ()
    key: tuple[str, ...] = ()


def reference(statement: str, detail) -> Reference:
    """The centralized answer over the union of the fragments."""
    text = STATEMENTS[statement]
    parsed = parse(text)
    if parsed.cube_family:
        plan = compile_lattice(parsed, detail.schema)
        relation = cube_centralized(plan, detail)
        finest = np.ones(relation.num_rows, dtype=bool)
        for attr in plan.attrs:
            finest &= relation.column(attr) != ALL_MARKER
        return Reference(relation, int(finest.sum()))
    compiled = compile_query(text, detail.schema)
    raw = compiled.expression.evaluate_centralized(detail)
    unlimited = dataclasses.replace(compiled, limit=None)
    return Reference(unlimited.post_process(raw), raw.num_rows,
                     compiled.limit,
                     tuple(item.column for item in compiled.order_by),
                     tuple(compiled.expression.key))


def _same_values(left, right) -> bool:
    if left.dtype.kind == "f":
        return bool(np.all(np.isclose(left, right.astype(np.float64),
                                      rtol=1e-9, atol=0.0,
                                      equal_nan=True)))
    return bool(np.all(left == right))


def _row_order(relation, names):
    keys = []
    for name in reversed(names):
        column = relation.column(name)
        if column.dtype == object:
            column = np.unique(column, return_inverse=True)[1]
        keys.append(column)
    return np.lexsort(keys)


def _same_bag(got, want, skip=()) -> bool:
    """The same bag of rows; floats to 9 significant digits."""
    names = got.schema.names
    if names != want.schema.names or got.num_rows != want.num_rows:
        return False
    exact = [name for name in names
             if got.column(name).dtype.kind != "f"]
    got_order = _row_order(got, exact)
    want_order = _row_order(want, exact)
    return all(_same_values(got.column(name)[got_order],
                            want.column(name)[want_order])
               for name in names if name not in skip)


def same_result(statement: str, got, want: Reference, detail) -> bool:
    """The differential suite's rule: the same bag of rows, floats to 9
    significant digits; rank-eps containment for APPROX_MEDIAN.

    Under ORDER BY ... LIMIT k, rows tied on the sort key at the cut may
    legitimately differ: the sort keys must equal the oracle's first k,
    and every returned row must be the oracle's row for its group.
    """
    ranked = RANK_COLUMNS.get(statement, {})
    expected = want.relation
    if want.limit is not None:
        top = expected.head(want.limit)
        if got.num_rows != top.num_rows or not all(
                _same_values(got.column(name), top.column(name))
                for name in want.order_by):
            return False
        returned = set(zip(*(got.column(name).tolist()
                             for name in want.key)))
        expected = expected.filter(np.fromiter(
            (row in returned for row in zip(
                *(expected.column(name).tolist() for name in want.key))),
            dtype=bool, count=expected.num_rows))
    if not _same_bag(got, expected, skip=ranked):
        return False
    for name, (group_attr, measure, rank) in ranked.items():
        groups = detail.column(group_attr)
        values = detail.column(measure)
        for key, estimate in zip(got.column(group_attr),
                                 got.column(name)):
            ordered = np.sort(values[groups == key])
            n = len(ordered)
            low = np.searchsorted(ordered, estimate, side="left") / n
            high = np.searchsorted(ordered, estimate, side="right") / n
            slack = rank_error_bound(DEFAULT_K, n) + 1.0 / n + 1e-12
            if not low - slack <= rank <= high + slack:
                return False
    return True


# ---------------------------------------------------------------------------
# Resources
# ---------------------------------------------------------------------------

_TICK = os.sysconf("SC_CLK_TCK")


def _process_cpu(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except (FileNotFoundError, ProcessLookupError):
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _TICK  # utime + stime


def cpu_seconds() -> float:
    """user+sys CPU of this process and every worker, live and reaped."""
    live = sum(_process_cpu(child.pid)
               for child in multiprocessing.active_children())
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (live + own.ru_utime + own.ru_stime
            + reaped.ru_utime + reaped.ru_stime)


def _peak_rss_kb(pid: "int | str") -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (FileNotFoundError, ProcessLookupError):
        pass
    return 0


def _shared_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/smaps_rollup") as handle:
            return sum(int(line.split()[1]) for line in handle
                       if line.startswith(("Shared_Clean:",
                                           "Shared_Dirty:")))
    except (FileNotFoundError, ProcessLookupError):
        return 0


def peak_rss_mb() -> float:
    """Coordinator VmHWM plus the live workers' VmHWM, less the pages a
    forked worker still shares copy-on-write with the coordinator: those
    are the coordinator's image at fork time, counted once already, and
    their number follows the allocator's trimming, not the program."""
    total = _peak_rss_kb("self")
    for child in multiprocessing.active_children():
        total += max(0, _peak_rss_kb(child.pid) - _shared_kb(child.pid))
    return total / 1024.0


def _shm_segments() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:
        return set()


class Hygiene:
    """What a workload must leave as it found it."""

    def __init__(self):
        self.fds = len(os.listdir("/proc/self/fd"))
        self.shm = _shm_segments()

    def violations(self, settle_seconds: float = 5.0) -> list[str]:
        deadline = time.perf_counter() + settle_seconds
        while True:
            found = []
            children = multiprocessing.active_children()
            if children:
                found.append(f"{len(children)} live worker process(es)")
            leaked = _shm_segments() - self.shm
            if leaked:
                found.append(f"new /dev/shm segments {sorted(leaked)}")
            fds = len(os.listdir("/proc/self/fd"))
            if fds != self.fds:
                found.append(f"open fds {self.fds} -> {fds}")
            if not found or time.perf_counter() >= deadline:
                return found
            time.sleep(0.05)
