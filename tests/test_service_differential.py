"""Concurrent serving must be bit-identical to serial execution.

The service adds two layers of sharing on top of the engine — a
compiled-plan cache and the shared sub-aggregate cache, whose pending
entries also let concurrent queries share one in-flight site scan —
and none of them may change a single row:

* N concurrent clients (mixed tenants, cold and warm passes) produce
  exactly the results a centralized evaluation produces, on every
  transport backend;
* appends interleaved with the load keep that property: the quiesce
  barrier gives each query one consistent fragment snapshot, so every
  concurrent result equals the serial answer at the snapshot it ran
  against;
* fault injection (flaky sites, killed and hung worker processes from
  :mod:`repro.distributed.faults`) underneath the concurrent service
  still yields bit-identical results once the transport's retry /
  respawn / hedging machinery resolves the fault — and a site that
  stays down fails every query cleanly, leader and followers alike,
  with no hangs.
"""

from __future__ import annotations

import threading

import pytest

from repro.errors import SiteFailure
from repro.relational.relation import Relation
from repro.distributed.engine import SkallaEngine
from repro.distributed.faults import FlakySite, ProcessFaultSpec
from repro.distributed.partition import partition_round_robin
from repro.distributed.transport import HedgePolicy, RetryPolicy
from repro.service import QueryService
from repro.service.loadgen import run_closed_loop
from repro.sql.compiler import compile_query

STATEMENTS = (
    "SELECT g, SUM(v) AS total, COUNT(*) AS n FROM t GROUP BY g",
    "SELECT h, AVG(v) AS mean_v FROM t GROUP BY h",
    "SELECT g, MAX(v) AS top FROM t WHERE v > 5 GROUP BY g",
)

CLIENTS = 8


@pytest.fixture()
def detail():
    return Relation.from_dicts([
        {"g": i % 5, "h": i % 3, "v": float(i % 97)} for i in range(600)])


def make_engine(detail, transport="inprocess", num_sites=4, **kwargs):
    partitions = partition_round_robin(detail, num_sites)
    return SkallaEngine(partitions, transport=transport, **kwargs)


def references(engine, statements=STATEMENTS):
    """Serial ground truth, ordered the way the service orders results."""
    detail = engine.total_detail_relation()
    serial = {}
    for sql in statements:
        compiled = compile_query(sql, engine.detail_schema)
        table = compiled.run_centralized(detail)
        if not compiled.order_by:
            table = table.sort(list(compiled.expression.key))
        serial[sql] = table
    return serial


def assert_clean(report, expected_completed=None):
    assert report.failed == 0, report.errors
    assert report.mismatches == 0, report.errors
    if expected_completed is not None:
        assert report.completed == expected_completed


@pytest.mark.parametrize("transport", ["inprocess", "thread", "process"])
def test_concurrent_load_matches_serial(detail, transport):
    engine = make_engine(detail, transport)
    try:
        serial = references(engine)
        with QueryService(engine, workers=6) as service:
            report = run_closed_loop(service, STATEMENTS, clients=CLIENTS,
                                     rounds=2, references=serial)
            snapshot = service.snapshot()
    finally:
        engine.close()
    assert_clean(report, expected_completed=CLIENTS * 2 * len(STATEMENTS))
    # the sharing layers actually engaged — this was a concurrent run,
    # not a serialized one
    assert snapshot["plan_cache"]["hits"] > 0
    assert snapshot["service"]["shared_scan_hits"] \
        + snapshot["subagg_cache"]["hits"] > 0
    assert snapshot["subagg_cache"]["pending"] == 0


def test_interleaved_appends_stay_bit_identical(detail):
    """Queries racing an append must answer from a consistent snapshot."""
    engine = make_engine(detail, "process")
    delta = Relation.from_dicts(
        [{"g": i % 5, "h": i % 3, "v": 500.0 + i} for i in range(30)])
    try:
        with QueryService(engine, workers=6) as service:
            before = references(engine)
            results = []
            errors = []

            def client(index):
                sql = STATEMENTS[index % len(STATEMENTS)]
                tenant = ("alpha", "beta")[index % 2]
                try:
                    for __ in range(4):
                        outcome = service.execute(sql, tenant=tenant,
                                                  timeout=120)
                        results.append((sql, outcome.relation))
                except Exception as error:  # noqa: BLE001 - fail the test
                    errors.append(repr(error))

            threads = [threading.Thread(target=client, args=(index,))
                       for index in range(CLIENTS)]
            for thread in threads:
                thread.start()
            # races the in-flight queries: the barrier quiesces, appends,
            # then releases the held dispatches
            service.append(0, delta)
            after = references(engine)
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        engine.close()
    assert errors == []
    assert len(results) == CLIENTS * 4
    for sql, relation in results:
        # every result equals the serial answer at one of the two
        # snapshots — never a torn mix of pre- and post-append fragments
        assert relation.multiset_equals(before[sql]) \
            or relation.multiset_equals(after[sql]), sql


def test_warm_replay_after_append_matches_serial(detail):
    """Cold pass, append, warm pass: delta merges under concurrency."""
    engine = make_engine(detail, "process")
    try:
        with QueryService(engine, workers=6) as service:
            cold = run_closed_loop(service, STATEMENTS, clients=CLIENTS,
                                   rounds=1, references=references(engine))
            service.append(1, Relation.from_dicts(
                [{"g": 7, "h": 9, "v": 123.0}]))
            warm = run_closed_loop(service, STATEMENTS, clients=CLIENTS,
                                   rounds=1, references=references(engine))
            stats = engine.cache.stats()
    finally:
        engine.close()
    assert_clean(cold)
    assert_clean(warm)
    # the appended site was served incrementally, not recomputed
    assert stats["delta_merges"] > 0


class TestServiceUnderFaults:
    def test_flaky_site_recovers_under_concurrent_service(self, detail):
        engine = make_engine(
            detail, "thread",
            retry_policy=RetryPolicy(max_retries=2, base_delay=0.001))
        partitions = partition_round_robin(detail, 4)
        engine.sites[2] = FlakySite(2, partitions[2], failures=2)
        try:
            serial = references(engine)
            with QueryService(engine, workers=4) as service:
                report = run_closed_loop(service, STATEMENTS,
                                         clients=CLIENTS, rounds=1,
                                         references=serial)
        finally:
            engine.close()
        assert_clean(report,
                     expected_completed=CLIENTS * len(STATEMENTS))

    def test_killed_worker_recovers_under_concurrent_service(self, detail):
        engine = make_engine(
            detail, "process",
            retry_policy=RetryPolicy(max_retries=2, base_delay=0.01),
            transport_options={
                "fault_specs": {1: ProcessFaultSpec(kill_on_request=1)}})
        try:
            serial = references(engine)
            with QueryService(engine, workers=4) as service:
                report = run_closed_loop(service, STATEMENTS,
                                         clients=CLIENTS, rounds=1,
                                         references=serial)
        finally:
            engine.close()
        assert_clean(report,
                     expected_completed=CLIENTS * len(STATEMENTS))

    def test_hung_worker_hedged_under_concurrent_service(self, detail):
        engine = make_engine(
            detail, "process",
            hedge=HedgePolicy(multiplier=1.25, min_seconds=0.02),
            transport_options={
                "fault_specs": {2: ProcessFaultSpec(
                    hang_on_request=1, hang_seconds=2.0)}})
        try:
            serial = references(engine)
            with QueryService(engine, workers=4) as service:
                report = run_closed_loop(service, STATEMENTS,
                                         clients=CLIENTS, rounds=1,
                                         references=serial)
        finally:
            engine.close()
        assert_clean(report,
                     expected_completed=CLIENTS * len(STATEMENTS))

    def test_dead_site_fails_leader_and_followers_cleanly(self, detail):
        """A persistent failure must reach every sharing query, fast."""
        engine = make_engine(
            detail, "thread",
            retry_policy=RetryPolicy(max_retries=1, base_delay=0.001))
        partitions = partition_round_robin(detail, 4)
        engine.sites[0] = FlakySite(0, partitions[0], failures=10_000)
        sql = STATEMENTS[0]
        try:
            with QueryService(engine, workers=4) as service:
                tickets = [service.submit(sql, tenant=f"t{index % 2}")
                           for index in range(4)]
                for ticket in tickets:
                    with pytest.raises(SiteFailure):
                        ticket.result(timeout=60)  # resolves: no hang
        finally:
            engine.close()
        # every claim the failed leaders held was resolved
        assert engine.cache.stats()["pending"] == 0


# ---------------------------------------------------------------------------
# Cube-family statements under the concurrent service
# ---------------------------------------------------------------------------

CUBE_SQL = ("SELECT g, h, SUM(v) AS total, COUNT(*) AS n "
            "FROM t GROUP BY CUBE (g, h)")
SETS_SQL = ("SELECT g, h, COUNT(*) AS n, GROUPING(g, h) AS bits "
            "FROM t GROUP BY GROUPING SETS ((g, h), (g), ())")
CUBE_STATEMENTS = (*STATEMENTS, CUBE_SQL, SETS_SQL)


def cube_reference(engine, sql):
    """Centralized oracle for one cube-family statement."""
    from repro.cube import compile_lattice, run_centralized
    from repro.sql.parser import parse
    plan = compile_lattice(parse(sql), engine.detail_schema)
    return run_centralized(plan, engine.total_detail_relation())


def cube_references(engine, statements=CUBE_STATEMENTS):
    from repro.sql.parser import parse
    serial = references(engine, tuple(
        sql for sql in statements if not parse(sql).cube_family))
    for sql in statements:
        if parse(sql).cube_family:
            serial[sql] = cube_reference(engine, sql)
    return serial


@pytest.mark.parametrize("transport", ["inprocess", "thread", "process"])
def test_concurrent_cube_load_matches_serial(detail, transport):
    """Cube lattices interleave with plain queries under load."""
    engine = make_engine(detail, transport)
    try:
        serial = cube_references(engine)
        with QueryService(engine, workers=6) as service:
            report = run_closed_loop(service, CUBE_STATEMENTS,
                                     clients=CLIENTS, rounds=2,
                                     references=serial)
            snapshot = service.snapshot()
    finally:
        engine.close()
    assert_clean(report, expected_completed=CLIENTS * 2
                 * len(CUBE_STATEMENTS))
    # cube plans are cached like any other statement
    assert snapshot["plan_cache"]["hits"] > 0


def test_append_racing_cube_sees_one_snapshot(detail):
    """A cube query racing an append answers from one consistent
    snapshot — every lattice round inside the quiesce barrier sees the
    same fragments, so the stitched cube equals the serial answer at
    exactly one of the two versions, never a torn mix."""
    engine = make_engine(detail, "process")
    delta = Relation.from_dicts(
        [{"g": i % 5, "h": i % 3, "v": 900.0 + i} for i in range(40)])
    try:
        with QueryService(engine, workers=6) as service:
            before = {sql: cube_reference(engine, sql)
                      for sql in (CUBE_SQL, SETS_SQL)}
            results = []
            errors = []

            def client(index):
                sql = (CUBE_SQL, SETS_SQL)[index % 2]
                try:
                    for __ in range(3):
                        outcome = service.execute(sql, timeout=120)
                        results.append((sql, outcome.relation))
                except Exception as error:  # noqa: BLE001 - fail the test
                    errors.append(repr(error))

            threads = [threading.Thread(target=client, args=(index,))
                       for index in range(CLIENTS)]
            for thread in threads:
                thread.start()
            service.append(0, delta)
            after = {sql: cube_reference(engine, sql)
                     for sql in (CUBE_SQL, SETS_SQL)}
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        engine.close()
    assert errors == []
    assert len(results) == CLIENTS * 3
    for sql, relation in results:
        assert relation.multiset_equals(before[sql]) \
            or relation.multiset_equals(after[sql]), sql


def test_materialized_cuboids_serve_slices_consistently(detail):
    """cube_materialize: slices served by rollup match engine runs,
    and an append refreshes the stale cuboid before serving again —
    the cube states live in the sub-aggregate cache's one store."""
    slice_sql = "SELECT g, SUM(v) AS total, COUNT(*) AS n FROM t GROUP BY g"
    engine = make_engine(detail, "inprocess", cache=True)
    try:
        with QueryService(engine, workers=4,
                          cube_materialize=True) as service:
            service.execute(CUBE_SQL, timeout=60)     # deposits (g, h)
            served = service.execute(slice_sql, timeout=60)
            assert served.metrics.ancestor_hits == 1
            serial = references(engine, (slice_sql,))[slice_sql]
            assert served.relation.sort(["g"]).multiset_equals(serial)
            # append → the stored cuboid is stale → refresh, then serve
            service.append(1, Relation.from_dicts(
                [{"g": 9, "h": 1, "v": 77.0}]))
            refreshed = service.execute(slice_sql, timeout=60)
            serial_after = references(engine, (slice_sql,))[slice_sql]
            assert refreshed.relation.sort(["g"]).multiset_equals(
                serial_after)
            snapshot = service.snapshot()
    finally:
        engine.close()
    assert snapshot["subagg_cache"]["synchronized_hits"] >= 2
    assert snapshot["subagg_cache"]["synchronized_refreshes"] >= 1


def test_cuboid_refresh_after_append_is_hits_and_delta_merges(detail):
    """Cube, append, slice: the refresh re-runs the source round with
    the cube's flags, so the unchanged sites hit, the appended one is
    delta-merged, and no site is scanned."""
    slice_sql = "SELECT g, SUM(v) AS total, COUNT(*) AS n FROM t GROUP BY g"
    engine = make_engine(detail, "inprocess", cache=True)
    try:
        with QueryService(engine, workers=1,
                          cube_materialize=True) as service:
            service.execute(CUBE_SQL, timeout=60)
            service.append(1, Relation.from_dicts(
                [{"g": 9, "h": 1, "v": 77.0}]))
            refreshed = service.execute(slice_sql, timeout=60)
            serial = references(engine, (slice_sql,))[slice_sql]
    finally:
        engine.close()
    assert refreshed.metrics.ancestor_hits == 1
    assert refreshed.metrics.site_scans == 0
    assert refreshed.metrics.cache_delta_merges >= 1
    assert refreshed.relation.sort(["g"]).multiset_equals(serial)


@pytest.mark.parametrize("cube_precision, served", [(6, True), (None, False)])
def test_cuboid_serving_respects_sketch_precision(cube_precision, served):
    """A slice is served only from a cuboid built at its own precision.

    Cube at p=6 and slice at p=6: the stored ancestor answers, with the
    p=6 estimate.  Cube at the default precision and slice at p=6: the
    stored p=12 registers must not answer a p=6 question — the slice
    runs its own round and gets the p=6 estimate.
    """
    from repro.data.tpch import generate_tpcr
    detail = generate_tpcr(num_rows=6_000, seed=5)
    cube_sql = ("SELECT MktSegment, ShipMode, "
                "APPROX_COUNT_DISTINCT(PartKey) AS parts "
                "FROM T GROUP BY CUBE (MktSegment, ShipMode)")
    slice_sql = ("SELECT MktSegment, APPROX_COUNT_DISTINCT(PartKey) AS parts "
                 "FROM T GROUP BY MktSegment")
    compiled = compile_query(slice_sql, detail.schema, sketch_precision=6)
    expected = compiled.run_centralized(detail).sort(["MktSegment"])
    engine = make_engine(detail, num_sites=3)
    try:
        with QueryService(engine, workers=1,
                          cube_materialize=True) as service:
            service.execute(cube_sql, sketch_precision=cube_precision,
                            timeout=60)
            result = service.execute(slice_sql, sketch_precision=6,
                                     timeout=60)
    finally:
        engine.close()
    assert result.metrics.ancestor_hits == int(served)
    assert result.relation.multiset_equals(expected)
