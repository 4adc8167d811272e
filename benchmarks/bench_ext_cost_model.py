"""Extension E4 — cost model accuracy across optimization levels.

Prints predicted vs measured traffic for the Fig. 2 query at every
optimization setting the model distinguishes, plus the flag set
``choose_flags`` selects.  The accuracy bar is deliberately loose
(within 2×): the model exists to *rank* plans, and the ranking must
match the measured ordering exactly.
"""


from repro.bench.harness import build_tpcr_warehouse
from repro.bench.queries import correlated_query
from repro.distributed.plan import OptimizationFlags
from repro.optimizer.cost import choose_flags, estimate_plan_cost
from repro.optimizer.planner import build_plan
from repro.relational.statistics import collect_stats, merge_stats

WAREHOUSE = build_tpcr_warehouse(num_rows=40_000, num_sites=8,
                                 high_cardinality=True, seed=42)
QUERY = correlated_query(["CustName"], "ExtendedPrice")
SETTINGS = {
    "none": OptimizationFlags(),
    "independent GR": OptimizationFlags(group_reduction_independent=True),
    "both GR": OptimizationFlags(group_reduction_independent=True,
                                 group_reduction_aware=True),
    "sync reduction": OptimizationFlags(sync_reduction=True),
    "all": OptimizationFlags.all(),
}


def _stats():
    per_site = [collect_stats(WAREHOUSE.engine.fragment(site),
                              attrs=["CustName"])
                for site in WAREHOUSE.engine.site_ids]
    return merge_stats(per_site)


def test_bench_cost_model_table(benchmark, report):
    stats = _stats()

    def sweep():
        rows = []
        for label, flags in SETTINGS.items():
            plan = build_plan(QUERY, flags, WAREHOUSE.info,
                              WAREHOUSE.engine.detail_schema,
                              sites=WAREHOUSE.engine.site_ids)
            estimate = estimate_plan_cost(
                plan, stats, 8, WAREHOUSE.engine.detail_schema,
                WAREHOUSE.engine.link)
            measured = WAREHOUSE.engine.execute(QUERY, flags)
            rows.append({
                "config": label,
                "predicted_bytes": int(estimate.bytes_total),
                "measured_bytes": measured.metrics.total_bytes,
                "ratio": round(estimate.bytes_total
                               / measured.metrics.total_bytes, 3),
            })
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report("ext_cost_model",
           "Extension — cost model: predicted vs measured traffic",
           rows, ["config", "predicted_bytes", "measured_bytes", "ratio"])

    for row in rows:
        assert 0.5 <= row["ratio"] <= 2.0, row
    predicted_order = [row["config"] for row in
                       sorted(rows, key=lambda r: r["predicted_bytes"])]
    measured_order = [row["config"] for row in
                      sorted(rows, key=lambda r: r["measured_bytes"])]
    assert predicted_order == measured_order


def test_bench_choose_flags(benchmark):
    stats = _stats()

    def choose():
        return choose_flags(QUERY, stats, 8,
                            WAREHOUSE.engine.detail_schema,
                            info=WAREHOUSE.info,
                            link=WAREHOUSE.engine.link)

    flags, estimate = benchmark(choose)
    assert flags.sync_reduction
    assert estimate.synchronizations == 1
